"""Sparse recovery of range/velocity/angle triples from one coarse cell.

The snapshot of coarse cell g is modeled as y = A b + w where b is sparse on
the (velocity, fine-range, angle) grid of size N x M x (P*Q_r).  Columns use
centered frequency grids, f(idx) = idx/size - 1/2, so grid index
(N/2, M/2, Q/2) is the zero-offset (all-ones) steering column and recovered
fine ranges/velocities/angles are signed offsets around the cell center.

Entry (row, column) of A is exp(-2 pi i (m f_r + xi n f_v + xi virt f_t)),
where row (n, k, q_r) transmits carrier m with frequency ratio xi from
virtual element virt (the row model of :func:`frac.radar_sim.steering_rows`,
which the echo generators share), so each row is the face-splitting
(row-wise Kronecker) product of three short tables over f_v (N), f_r (M)
and f_t (P*Q_r).  A :class:`Dictionary` holds only those tables, n1 (N + M +
P*Q_r) exponentials, and serves OMP through two operations that never form
A: ``correlate(R)``, the product R^* A for a block of snapshots, each
snapshot's row as the e_v table scaled by that snapshot times the
Khatri-Rao table of e_r and e_t, and ``columns(flats)``, chosen columns
from three table lookups.  The dense A is formed once, on demand
(``Dictionary.A``), for basis pursuit, the phase-transition trials and
tests; ``MAX_DICTIONARY_ELEMENTS`` caps that view, not the tables.
:func:`physical_to_grid` maps a physical triple to ``(g, flat)``, the coarse
cell and column, and :func:`grid_to_physical` maps ``(flat, g)`` back.

Two solvers are provided: greedy orthogonal matching pursuit with
least-squares refitting, run for a known model order (one atom per
target), and an ADMM basis-pursuit solver handling both the equality
(eps = 0) and noisy inequality constraint through an l2-ball projection.
OMP takes one snapshot or a block of them (a simplified Batch-OMP,
Rubinstein, Zibulevsky & Elad 2008): each step correlates every snapshot
through ``correlate`` and each snapshot keeps its own support; the rows
share the support size, so every step refits all of them with one stacked
QR, and a block gives the scenes its rows would give one at a time.  The
ADMM linear solve uses the inverse of the small row-space matrix (I + A A^H)
via the matrix-inversion identity, so the per-iteration cost is two
dictionary products.

An equality BP solve can stop before its residual tolerance when the caller
gives an l1 bound: every 10th iteration it tries Fuchs's certificate of
optimality (IEEE T-IT 2004) on the thresholded support of the iterate, a
dual vector lam with A_S^H lam = sgn(b_S) and |a_j^H lam| < 1 off S, and
tests whether a feasible point already beats the bound.  Every solver
result says why it stopped (``SparseScene.stop``): ``"tol"``, ``"optimal"``,
``"bound"``, ``"cap"`` or ``"empty"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SystemConfig
from .im_codec import SelectionSequence
from .radar_sim import cell_center, steering_rows

__all__ = [
    "NonConvergenceError",
    "Dictionary",
    "SparseScene",
    "RecoveredTarget",
    "build_dictionary",
    "omp_recover",
    "bp_recover",
    "default_bp_eps",
    "grid_to_physical",
    "physical_to_grid",
    "recovered_targets",
]

# refuse to form a dense dictionary view beyond this many entries (rows * cols)
MAX_DICTIONARY_ELEMENTS = 1 << 26
# OMP correlations this close to the largest tie, and ties go to the lowest
# column: aliased columns correlate equally up to rounding, and the rounding
# depends on how many snapshots share the product
OMP_TIE_RTOL = 1e-10


class NonConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations before meeting its tolerance."""


@dataclass(frozen=True)
class Dictionary:
    """Steering dictionary for one coarse cell, shape (N*K*Q_r, N*M*P*Q_r).

    Held as its three exponential tables over the rows: ``e_v`` (n1, N),
    ``e_r`` (n1, M) and ``e_t`` (n1, P*Q_r), with column (n~, m, q) of A
    equal to e_v[:, n~] e_r[:, m] e_t[:, q].  ``A`` is the dense view,
    formed on first use and kept.
    """

    e_v: np.ndarray
    e_r: np.ndarray
    e_t: np.ndarray
    cfg: SystemConfig

    @cached_property
    def A(self) -> np.ndarray:
        """Dense (n1, n2) matrix; raises above ``MAX_DICTIONARY_ELEMENTS``."""
        n_rows, n_cols = self.cfg.n1, self.cfg.n2
        if n_rows * n_cols > MAX_DICTIONARY_ELEMENTS:
            raise ValueError(
                f"dictionary of {n_rows} x {n_cols} exceeds the "
                f"{MAX_DICTIONARY_ELEMENTS}-element cap"
            )
        e_v, e_r, e_t = self.e_v, self.e_r, self.e_t
        return (
            e_v[:, :, None, None] * e_r[:, None, :, None] * e_t[:, None, None, :]
        ).reshape(n_rows, n_cols)

    @cached_property
    def _e_rt(self) -> np.ndarray:
        """Khatri-Rao (row-wise Kronecker) table of e_r and e_t, (n1, M*Q)."""
        return (self.e_r[:, :, None] * self.e_t[:, None, :]).reshape(self.cfg.n1, -1)

    def correlate(self, R: np.ndarray) -> np.ndarray:
        """R^* A for a block R of shape (S, n1), without forming A.

        Row r of R gives its row of R^* A, reshaped to (N, M*Q), as one
        product: the (N, n1) table e_v^T scaled by r^*, times the Khatri-Rao
        table (n1, M*Q).  A product per row holds no (S, N, n1) block.
        """
        if R.ndim != 2 or R.shape[1] != self.cfg.n1:
            raise ValueError(f"need a block of shape (S, {self.cfg.n1}), got {R.shape}")
        e_vT, e_rt = self.e_v.T, self._e_rt
        out = np.empty((R.shape[0], self.cfg.N, e_rt.shape[1]), dtype=np.complex128)
        for r, o in zip(R.conj(), out):
            np.matmul(e_vT * r, e_rt, out=o)
        return out.reshape(R.shape[0], self.cfg.n2)

    def columns(self, flats) -> np.ndarray:
        """A[:, flats] for an integer array of any shape, from the tables."""
        n_tilde, rem = np.divmod(np.asarray(flats), self.cfg.M * self.cfg.Q)
        m, q = np.divmod(rem, self.cfg.Q)
        return self.e_v[:, n_tilde] * self.e_r[:, m] * self.e_t[:, q]


@dataclass(frozen=True)
class SparseScene:
    """Solver output: support (flat column indices) and complex gains.

    ``stop`` says why the solver stopped: ``"tol"`` (its stopping rule was
    met), ``"optimal"`` or ``"bound"`` (a certified exit of
    :func:`bp_recover`), ``"cap"`` (the iteration cap was hit first) or
    ``"empty"`` (b = 0 is optimal, nothing was iterated).
    """

    support: tuple[int, ...]
    coeffs: np.ndarray
    residual_norm: float
    n_columns: int
    iterations: int
    stop: str = "tol"

    @property
    def converged(self) -> bool:
        return self.stop != "cap"

    def dense(self) -> np.ndarray:
        b = np.zeros(self.n_columns, dtype=np.complex128)
        b[list(self.support)] = self.coeffs
        return b


@dataclass(frozen=True)
class RecoveredTarget:
    r: float
    v: float
    theta: float
    beta: complex
    flat_index: int
    cell: int


def build_dictionary(selections: SelectionSequence, cfg: SystemConfig) -> Dictionary:
    """Steering dictionary for the selections of one CPI, as its three tables.

    Rows follow the snapshot layout n*K*Q_r + k*Q_r + q_r; columns follow
    n_tilde*M*Q + m*Q + q over the (velocity, fine-range, angle) grid.  No
    n1 x n2 matrix is built here; ``MAX_DICTIONARY_ELEMENTS`` applies when
    the dense view ``Dictionary.A`` is first read.
    """
    rows = steering_rows(selections, cfg)
    # per-row factors, flattened C-order over (n, k, q_r)
    m_row, xi_row, n_row, virt_row = (a.reshape(-1).astype(float) for a in rows)

    f_v = np.arange(cfg.N) / cfg.N - 0.5
    f_r = np.arange(cfg.M) / cfg.M - 0.5
    f_t = np.arange(cfg.Q) / cfg.Q - 0.5

    # A[row, (n~, m, q)] = e_v[row, n~] * e_r[row, m] * e_t[row, q]: each row
    # is the face-splitting product of three short exponential tables
    return Dictionary(
        e_v=np.exp(-2j * np.pi * (xi_row * n_row)[:, None] * f_v[None, :]),
        e_r=np.exp(-2j * np.pi * m_row[:, None] * f_r[None, :]),
        e_t=np.exp(-2j * np.pi * (xi_row * virt_row)[:, None] * f_t[None, :]),
        cfg=cfg,
    )


# ----------------------------------------------------------------------
# solvers
# ----------------------------------------------------------------------

def omp_recover(
    y: np.ndarray, dic: Dictionary, n_targets: int
) -> SparseScene | list[SparseScene]:
    """Orthogonal matching pursuit with least-squares refitting.

    The model order is known: the solver picks ``n_targets`` atoms, at most
    n2.  ``y`` is one snapshot of shape (n1,), which returns one scene, or a
    block of S snapshots of shape (S, n1), which returns a list of S scenes,
    each the scene its row would give alone.  Every step correlates all rows
    with one ``dic.correlate`` product and takes the lowest column among the
    largest correlations (ties to within ``OMP_TIE_RTOL``); the dense
    dictionary is never formed.
    """
    n_rows, n_cols = dic.cfg.n1, dic.cfg.n2
    Y = np.asarray(y, dtype=np.complex128)
    if Y.ndim not in (1, 2):
        raise ValueError(f"snapshots must be 1-D or a 2-D block, got shape {Y.shape}")
    if Y.shape[-1] != n_rows:
        raise ValueError(f"snapshot length {Y.shape[-1]} != dictionary rows {n_rows}")
    if not 0 <= n_targets <= n_cols:
        raise ValueError(f"n_targets {n_targets} outside [0, n2={n_cols}]")
    Y2 = Y.reshape(-1, n_rows)

    rows = np.arange(Y2.shape[0])[:, None]
    supports = np.zeros((Y2.shape[0], n_targets), dtype=np.int64)
    coeffs = np.zeros((Y2.shape[0], 0), dtype=np.complex128)
    R = Y2
    for k in range(n_targets):
        corr = np.abs(dic.correlate(R))
        corr[rows, supports[:, :k]] = -1.0
        peak = corr.max(axis=1, keepdims=True)
        supports[:, k] = np.argmax(corr >= (1.0 - OMP_TIE_RTOL) * peak, axis=1)
        coeffs, R = _refit(np.moveaxis(dic.columns(supports[:, :k + 1]), 0, 1), Y2)
    scenes = [
        SparseScene(
            support=tuple(support.tolist()),
            coeffs=coeffs[i],
            residual_norm=float(np.linalg.norm(R[i])),
            n_columns=n_cols,
            iterations=n_targets,
        )
        for i, support in enumerate(supports)
    ]
    return scenes if Y.ndim == 2 else scenes[0]


def _refit(cols: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of each row of Y (S, n1) on its own columns cols
    (S, n1, k); returns the (S, k) coefficients and (S, n1) residuals.

    One stacked QR serves every row.  A row whose QR has a diagonal entry
    below 1e-8 of its largest (its columns are nearly dependent), and every
    row once k > n1, takes ``np.linalg.lstsq``'s minimum-norm answer.
    """
    S, n_rows, k = cols.shape
    coeffs = np.empty((S, k), dtype=np.complex128)
    full = np.zeros(S, dtype=bool)
    if k <= n_rows:
        Q, T = np.linalg.qr(cols)
        diag = np.abs(np.diagonal(T, axis1=1, axis2=2))
        full = diag.min(axis=1) > 1e-8 * diag.max(axis=1)
        QhY = Q[full].conj().transpose(0, 2, 1) @ Y[full, :, None]
        coeffs[full] = np.linalg.solve(T[full], QhY)[..., 0]
    for i in np.flatnonzero(~full):
        coeffs[i] = np.linalg.lstsq(cols[i], Y[i], rcond=None)[0]
    return coeffs, Y - (cols @ coeffs[:, :, None])[..., 0]


def default_bp_eps(cfg: SystemConfig, sigma_r: float) -> float:
    """Noise-ball radius: mean noise norm plus about two standard deviations."""
    return float(sigma_r * (math.sqrt(cfg.n1) + 2.0))


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a complex vector, as ``np.linalg.norm`` computes it."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def bp_recover(
    y: np.ndarray,
    dic: Dictionary,
    eps: float = 0.0,
    max_iter: int = 10000,
    tol: float = 1e-6,
    support_threshold: float = 1e-3,
    on_limit: str = "raise",
    l1_bound: float | None = None,
) -> SparseScene:
    """Basis pursuit min ||b||_1 s.t. ||A b - y||_2 <= eps, via ADMM.

    Splitting: b = z carries the l1 term, s = A b - y lives in the l2 ball of
    radius eps (eps = 0 reproduces the equality-constrained program, and s
    stays zero).  The b-update solves (I + A^H A) b = zu + A^H c through the
    matrix-inversion identity with G = A A^H and W = (I + G)^-1, both
    row-dimension square and computed once per call: w = A zu + G c gives
    b = zu + A^H (c - W w) and A b = W w, so an iteration costs two
    dictionary products.  W is penalty-free, so the usual residual-balancing
    updates of the penalty rho (starting at 1) cost nothing.  When
    ||y|| <= eps, b = 0 is feasible and optimal and is returned without
    iterating (stop ``"empty"``).  When the residuals meet ``tol`` the solve
    stops with ``"tol"``.  When they have
    not met it after ``max_iter`` sweeps, raises :class:`NonConvergenceError`
    (``on_limit="raise"``) or returns the last iterate with stop ``"cap"``
    (``on_limit="return"``).

    ``l1_bound`` (equality program only) turns on two certified exits,
    tried every 10th iteration:

    - ``"optimal"``: S is the thresholded support of z (at most n1 columns),
      b_S the least-squares fit on A_S.  When A_S has full column rank,
      A_S b_S = y to 1e-9 max(1, ||y||), every |b_S| entry clears
      ``support_threshold`` max|b_S|, and the ADMM dual estimate -rho u2,
      moved onto the affine set A_S^H lam = sgn(b_S) by the minimum-norm
      correction, has |a_j^H lam| < 1 off S, then b_S is the unique
      basis-pursuit solution (Fuchs, "On sparse representations in
      arbitrary redundant bases", IEEE T-IT 2004) and is returned.
    - ``"bound"``: the feasible point b_f = z + A^H G^+ (y - A z) has
      ||b_f||_1 < ``l1_bound``, so the minimum lies below the bound; b_f is
      returned.  A caller passes the l1 norm of a candidate, less a margin,
      to learn early that the candidate is not the minimizer.

    Without ``l1_bound`` the iterates, iteration count and result are those
    of the plain ADMM solve.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if on_limit not in ("raise", "return"):
        raise ValueError(f"on_limit must be 'raise' or 'return', got {on_limit!r}")
    if l1_bound is not None and eps > 0:
        raise ValueError(f"l1_bound needs the equality program (eps = 0), got eps = {eps}")
    A = dic.A
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != A.shape[0]:
        raise ValueError(f"snapshot length {y.shape[0]} != dictionary rows {A.shape[0]}")
    n_rows, n_cols = A.shape
    y_norm = _norm(y)
    rho = 1.0

    def scene(support, coeffs, residual_norm, iterations, stop):
        return SparseScene(
            support=tuple(int(i) for i in support),
            coeffs=np.asarray(coeffs, dtype=np.complex128),
            residual_norm=residual_norm,
            n_columns=n_cols,
            iterations=iterations,
            stop=stop,
        )

    def thresholded(x):
        mag = np.abs(x)
        return np.flatnonzero(mag > support_threshold * max(mag.max(), 1e-300))

    if y_norm <= eps:
        return scene((), (), y_norm, 0, "empty")
    AH = np.ascontiguousarray(A.conj().T)
    G = A @ AH
    W = np.linalg.inv(np.eye(n_rows) + G)
    if l1_bound is not None:
        G_pinv = np.linalg.pinv(G, hermitian=True)

    z = np.zeros(n_cols, dtype=np.complex128)
    s = np.zeros(n_rows, dtype=np.complex128)
    u1 = np.zeros(n_cols, dtype=np.complex128)
    u2 = np.zeros(n_rows, dtype=np.complex128)
    y_scale = max(1.0, y_norm)
    fit_tol = 1e-9 * y_scale
    s_step = 0.0
    stop = "cap"
    adapts_left = 30
    for it in range(1, max_iter + 1):
        zu = z - u1
        c = y + s - u2 if eps > 0 else y - u2
        Ab = W @ (A @ zu + G @ c)
        b = zu + AH @ (c - Ab)
        v = b + u1
        # soft threshold: shrink v by 1/rho in modulus, entries below go to 0
        shrink = 1.0 - (1.0 / rho) / np.maximum(np.abs(v), 1e-300)
        np.maximum(shrink, 0.0, out=shrink)
        z_prev, z = z, shrink * v
        r1 = b - z
        r2 = Ab - y
        if eps > 0:
            w = r2 + u2
            wn = _norm(w)
            s_prev, s = s, w if wn <= eps else (eps / wn) * w
            r2 -= s
            s_step = _norm(s - s_prev)
        u1 += r1
        u2 += r2
        prim = max(_norm(r1), _norm(r2))
        dual = rho * max(_norm(z - z_prev), s_step)
        if prim <= tol * y_scale and dual <= tol * y_scale:
            stop = "tol"
            break
        if l1_bound is not None and it % 10 == 0:
            support = thresholded(z)
            if 0 < support.size <= n_rows:
                A_S, AH_S = A[:, support], AH[support]
                b_S, _, rank, _ = np.linalg.lstsq(A_S, y, rcond=None)
                fit = _norm(A_S @ b_S - y)
                mag = np.abs(b_S)
                # every fitted entry must clear the support threshold: a
                # vanishing one has no sign to certify and is no support
                if (rank == support.size and fit <= fit_tol
                        and mag.min() > support_threshold * mag.max()):
                    # -rho u2 is the ADMM estimate of the equality dual; the
                    # correction is the least-norm step onto A_S^H lam = sgn(b_S)
                    lam = -rho * u2
                    gap = b_S / mag - AH_S @ lam
                    lam += A_S @ np.linalg.solve(AH_S @ A_S, gap)
                    corr = np.abs(AH @ lam)
                    corr[support] = 0.0
                    if corr.max() < 1.0:
                        return scene(support, b_S, fit, it, "optimal")
            b_f = z + AH @ (G_pinv @ (y - A @ z))
            if np.abs(b_f).sum() < l1_bound:
                keep = thresholded(b_f)
                return scene(keep, b_f[keep], _norm(A @ b_f - y), it, "bound")
        # residual balancing: grow/shrink the penalty, rescale scaled duals.
        # The update count is capped so the penalty is eventually constant,
        # which is what the fixed-penalty convergence guarantee needs; an
        # uncapped scheme can cycle forever on poorly scaled problems.
        if it % 10 == 0 and adapts_left > 0:
            if prim > 10.0 * dual:
                rho *= 2.0
                u1 *= 0.5
                u2 *= 0.5
                adapts_left -= 1
            elif dual > 10.0 * prim:
                rho *= 0.5
                u1 *= 2.0
                u2 *= 2.0
                adapts_left -= 1
    if stop == "cap" and on_limit == "raise":
        raise NonConvergenceError(
            f"ADMM basis pursuit: residuals ({prim:.3e}, {dual:.3e}) above "
            f"{tol:.1e} * {y_scale:.3g} after {max_iter} iterations"
        )
    support = thresholded(z)
    return scene(support, z[support], _norm(A @ z - y), it, stop)


# ----------------------------------------------------------------------
# grid <-> physical conversions
# ----------------------------------------------------------------------

def grid_to_physical(flat_index: int, g: int, cfg: SystemConfig) -> tuple[float, float, float]:
    """(r, v, theta) of a grid column in coarse cell g."""
    N, M, Q = cfg.N, cfg.M, cfg.Q
    n_tilde, rem = divmod(int(flat_index), M * Q)
    m, q = divmod(rem, Q)
    if not 0 <= n_tilde < N:
        raise ValueError(f"flat index {flat_index} out of range({N * M * Q})")
    f_v = n_tilde / N - 0.5
    f_r = m / M - 0.5
    f_t = q / Q - 0.5
    r = cell_center(g, cfg) + f_r * cfg.coarse_cell_width
    v = f_v * cfg.wavelength / (2.0 * cfg.T_0)
    sin_t = f_t * cfg.wavelength / cfg.d_r
    if not -1.0 <= sin_t <= 1.0:
        raise ValueError(f"angle bin {q} maps to sin(theta) = {sin_t:.4g}")
    return (r, v, math.asin(sin_t))


def physical_to_grid(r: float, v: float, theta: float, cfg: SystemConfig) -> tuple[int, int]:
    """(g, flat) of the grid point nearest to a physical triple.

    ``g`` is the coarse cell and ``flat`` the column (n_tilde*M + m)*Q + q,
    so ``grid_to_physical(flat, g, cfg)`` returns the grid point.  Rounding
    is floor(x + 1/2); velocity and angle wrap modulo their unambiguous
    spans, range rounds on the global fine grid so boundary offsets resolve
    to the adjacent coarse cell.
    """
    N, M, Q = cfg.N, cfg.M, cfg.Q
    h = math.floor(r / cfg.range_resolution + M / 2.0 + 0.5)
    g, m = divmod(h, M)
    f_v = 2.0 * v * cfg.T_0 / cfg.wavelength
    n_tilde = math.floor((f_v + 0.5) * N + 0.5) % N
    f_t = cfg.d_r * math.sin(theta) / cfg.wavelength
    q = math.floor((f_t + 0.5) * Q + 0.5) % Q
    return (int(g), int((n_tilde * M + m) * Q + q))


def recovered_targets(scene: SparseScene, g: int, dic: Dictionary) -> list[RecoveredTarget]:
    """Physical-domain view of a solver output for coarse cell g."""
    out = []
    for flat, beta in zip(scene.support, scene.coeffs):
        r, v, theta = grid_to_physical(flat, g, dic.cfg)
        out.append(
            RecoveredTarget(
                r=r, v=v, theta=theta, beta=complex(beta), flat_index=int(flat), cell=int(g)
            )
        )
    return out
