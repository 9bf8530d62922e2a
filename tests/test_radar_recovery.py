"""Dictionary structure, solver correctness, and grid conversions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from frac.config import reference_config
from frac.im_codec import random_selection_sequence
from frac.radar_recovery import (
    MAX_DICTIONARY_ELEMENTS,
    OMP_TIE_RTOL,
    NonConvergenceError,
    bp_recover,
    build_dictionary,
    default_bp_eps,
    grid_to_physical,
    omp_recover,
    physical_to_grid,
    recovered_targets,
)
from frac.radar_sim import Target, cell_center, simulate_cell_direct


@pytest.fixture(scope="module")
def cfg():
    return reference_config(K=2)


@pytest.fixture(scope="module")
def selections(cfg):
    return random_selection_sequence(cfg, np.random.default_rng(7))


@pytest.fixture(scope="module")
def dic(cfg, selections):
    return build_dictionary(selections, cfg)


def test_dictionary_shape_and_modulus(cfg, dic):
    assert dic.A.shape == (cfg.N * cfg.K * cfg.Q_r, cfg.N * cfg.M * cfg.Q)
    np.testing.assert_allclose(np.abs(dic.A), 1.0, atol=1e-12)


def _flat(cfg, n_tilde, m, q):
    """Column of grid point (n_tilde, m, q)."""
    return (n_tilde * cfg.M + m) * cfg.Q + q


def test_center_column_is_all_ones(cfg, dic):
    flat = _flat(cfg, cfg.N // 2, cfg.M // 2, cfg.Q // 2)
    np.testing.assert_allclose(dic.A[:, flat], 1.0, atol=1e-12)


def test_columns_match_generator(cfg, selections, dic):
    # a column must reproduce the simulated snapshot of a scatterer parked
    # on that grid point
    g = 3
    rng = np.random.default_rng(0)
    for _ in range(8):
        n_tilde = int(rng.integers(cfg.N))
        m = int(rng.integers(cfg.M))
        q = int(rng.integers(cfg.Q))
        flat = _flat(cfg, n_tilde, m, q)
        r, v, theta = grid_to_physical(flat, g, cfg)
        snap = simulate_cell_direct(
            [Target(r=r, v=v, theta=theta)], selections, cfg, sigma_r=0.0, g=g
        )
        col = dic.A[:, flat]
        beta = cfg.G * np.exp(-4j * np.pi * r * cfg.f_c / cfg.c)
        np.testing.assert_allclose(snap.flatten(), beta * col, atol=1e-9 * cfg.G)


# ----------------------------------------------------------------------
# factorized build against the dense reference
# ----------------------------------------------------------------------

def _dense_dictionary_reference(selections, cfg):
    """One complex exponential per dictionary entry over the full phase grid."""
    m_idx, p_idx = selections.carriers, selections.antennas
    xi = (cfg.f_c + m_idx * cfg.delta_f) / cfg.f_c
    qr = np.arange(cfg.Q_r)
    m_row = np.repeat(m_idx, cfg.Q_r).astype(float)
    xi_row = np.repeat(xi, cfg.Q_r)
    n_row = np.repeat(np.arange(cfg.N), cfg.K * cfg.Q_r).astype(float)
    virt_row = (cfg.Q_r * p_idx[:, :, None] + qr[None, None, :]).reshape(-1).astype(float)
    f_v = np.arange(cfg.N) / cfg.N - 0.5
    f_r = np.arange(cfg.M) / cfg.M - 0.5
    f_t = np.arange(cfg.Q) / cfg.Q - 0.5
    phase = (
        m_row[:, None, None, None] * f_r[None, None, :, None]
        + (xi_row * n_row)[:, None, None, None] * f_v[None, :, None, None]
        + (xi_row * virt_row)[:, None, None, None] * f_t[None, None, None, :]
    )
    return np.exp(-2j * np.pi * phase).reshape(cfg.n1, cfg.n2)


@st.composite
def _dictionary_configs(draw):
    M = draw(st.sampled_from([2, 3, 4, 8, 16]))
    P = draw(st.sampled_from([2, 3, 4, 8]))
    return dict(
        N=draw(st.sampled_from([1, 2, 4, 8, 16, 32])),
        M=M,
        K=draw(st.integers(1, min(M, P, 3))),
        P=P,
        Q_r=draw(st.integers(1, 4)),
    )


@given(_dictionary_configs(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_factorized_dictionary_matches_dense(params, seed):
    # the dense view against one exponential per entry, and the two
    # operations OMP uses against the dense view
    cfg = reference_config(**params)
    rng = np.random.default_rng(seed)
    sels = random_selection_sequence(cfg, rng)
    dic = build_dictionary(sels, cfg)
    assert dic.A.shape == (cfg.n1, cfg.n2)
    assert dic.A is dic.A
    np.testing.assert_allclose(
        dic.A, _dense_dictionary_reference(sels, cfg), rtol=0, atol=1e-12
    )
    n_snapshots = int(rng.integers(1, 6))
    R = rng.standard_normal((n_snapshots, cfg.n1)) + 1j * rng.standard_normal((n_snapshots, cfg.n1))
    np.testing.assert_allclose(dic.correlate(R), R.conj() @ dic.A, rtol=0, atol=1e-12)
    flats = rng.integers(cfg.n2, size=(n_snapshots, int(rng.integers(1, 5))))
    np.testing.assert_array_equal(dic.columns(flats), dic.A[:, flats])


def test_correlate_takes_a_block(dic):
    # one snapshot is a block of one row; a bare row would be read as n1
    # blocks of one entry each
    y = np.ones(dic.cfg.n1, dtype=np.complex128)
    np.testing.assert_allclose(dic.correlate(y[None, :])[0], y @ dic.A, rtol=0, atol=1e-12)
    for bad in (y, np.ones((2, dic.cfg.n1 + 1))):
        with pytest.raises(ValueError, match="block of shape"):
            dic.correlate(bad)


def test_dictionary_size_cap():
    # the tables of a dictionary above the cap are small; only the dense
    # view is refused
    cfg = reference_config(N=128, M=32, P=8, Q_r=4, K=2)
    sels = random_selection_sequence(cfg, np.random.default_rng(0))
    assert cfg.N * cfg.K * cfg.Q_r * cfg.N * cfg.M * cfg.Q > MAX_DICTIONARY_ELEMENTS
    dic = build_dictionary(sels, cfg)
    assert dic.columns([0, cfg.n2 - 1]).shape == (cfg.n1, 2)
    with pytest.raises(ValueError, match="cap"):
        dic.A


# ----------------------------------------------------------------------
# grid <-> physical
# ----------------------------------------------------------------------

def test_grid_round_trip_all_cells(cfg):
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = int(rng.integers(1, cfg.G - 1))
        n_tilde = int(rng.integers(cfg.N))
        m = int(rng.integers(cfg.M))
        q = int(rng.integers(cfg.Q))
        flat = _flat(cfg, n_tilde, m, q)
        r, v, theta = grid_to_physical(flat, g, cfg)
        assert physical_to_grid(r, v, theta, cfg) == (g, flat)


def test_cell_boundary_offsets_cross_cells(cfg):
    # m = 0 is half a coarse cell below center: the physical range belongs
    # to the previous cell's upper half and must round back consistently
    r, v, theta = grid_to_physical(cfg.Q * 0 + 0, 5, cfg)  # n_tilde=0, m=0, q=0
    assert r == pytest.approx(cell_center(5, cfg) - 0.5 * cfg.coarse_cell_width)
    g, flat = physical_to_grid(r, v, theta, cfg)
    m = flat // cfg.Q % cfg.M
    assert g * cfg.coarse_cell_width + (m / cfg.M - 0.5) * cfg.coarse_cell_width == pytest.approx(r)


def test_physical_to_grid_wraps(cfg):
    v_span = cfg.wavelength / (2.0 * cfg.T_0)
    assert physical_to_grid(24.0, 1.0 + v_span, 0.1, cfg) == physical_to_grid(
        24.0, 1.0, 0.1, cfg
    )


def test_grid_to_physical_rejects_bad_index(cfg):
    with pytest.raises(ValueError):
        grid_to_physical(cfg.N * cfg.M * cfg.Q, 2, cfg)


# ----------------------------------------------------------------------
# solvers
# ----------------------------------------------------------------------

_SMALL_CONFIGS = st.fixed_dictionaries({
    "N": st.sampled_from([4, 8]),
    "M": st.sampled_from([2, 4]),
    "K": st.integers(1, 2),
    "P": st.sampled_from([2, 4]),
    "Q_r": st.integers(1, 2),
})


def _planted(dic, flats, amps):
    b0 = np.zeros(dic.A.shape[1], dtype=np.complex128)
    b0[flats] = amps
    return dic.A @ b0, b0


def test_omp_exact_recovery(dic):
    rng = np.random.default_rng(11)
    flats = rng.choice(dic.A.shape[1], size=3, replace=False)
    amps = np.exp(2j * np.pi * rng.random(3)) * np.array([1.0, 0.8, 1.3])
    y, b0 = _planted(dic, flats, amps)
    sol = omp_recover(y, dic, n_targets=3)
    assert sorted(sol.support) == sorted(flats.tolist())
    np.testing.assert_allclose(sol.dense(), b0, atol=1e-8)
    assert sol.residual_norm < 1e-8


def test_omp_argument_checks(dic):
    with pytest.raises(ValueError):
        omp_recover(np.zeros(4), dic, n_targets=1)


def test_omp_model_order_within_grid():
    # n2 = 8: a model order outside [0, n2] cannot be honoured; n2 itself
    # (more atoms than rows) and 0 can
    cfg = reference_config(N=2, M=2, K=1, P=2, Q_r=1)
    dic = build_dictionary(random_selection_sequence(cfg, np.random.default_rng(0)), cfg)
    y = np.ones(cfg.n1, dtype=np.complex128)
    for n_targets in (-1, cfg.n2 + 1, 10):
        with pytest.raises(ValueError, match=f"n_targets {n_targets} "):
            omp_recover(y, dic, n_targets=n_targets)
    assert omp_recover(y, dic, n_targets=0).support == ()
    assert sorted(omp_recover(y, dic, n_targets=cfg.n2).support) == list(range(cfg.n2))


# ----------------------------------------------------------------------
# block OMP against the single-snapshot reference
# ----------------------------------------------------------------------

def _omp_reference(y, A, n_targets):
    """Single-snapshot OMP with A^H r per step; returns (support, coeffs,
    residual norm)."""
    support = []
    coeffs = np.zeros(0, dtype=np.complex128)
    resid = y.copy()
    for _ in range(n_targets):
        corr = np.abs(A.conj().T @ resid)
        if support:
            corr[support] = -1.0
        # ties within rounding go to the lowest column
        ties = np.flatnonzero(corr >= (1.0 - OMP_TIE_RTOL) * corr.max())
        support.append(int(ties[0]))
        sub = A[:, support]
        coeffs, *_ = np.linalg.lstsq(sub, y, rcond=None)
        resid = y - sub @ coeffs
    return tuple(support), coeffs, float(np.linalg.norm(resid))


@given(
    _dictionary_configs(),
    st.integers(1, 12),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=90, deadline=None, derandomize=True)
def test_block_omp_matches_single_reference(params, n_snapshots, n_sparse, seed):
    cfg = reference_config(**params)
    rng = np.random.default_rng(seed)
    dic = build_dictionary(random_selection_sequence(cfg, rng), cfg)
    n_sparse = min(n_sparse, cfg.n1 // 2)
    # one planted scene seen at a spread of noise levels, as over an SNR grid
    b0 = np.zeros(cfg.n2, dtype=np.complex128)
    b0[rng.choice(cfg.n2, size=n_sparse, replace=False)] = np.exp(2j * np.pi * rng.random(n_sparse))
    noise = (rng.standard_normal(cfg.n1) + 1j * rng.standard_normal(cfg.n1)) / np.sqrt(2.0)
    sigmas = np.logspace(-6, 0, n_snapshots)
    Y = dic.A @ b0 + sigmas[:, None] * noise
    refs = [_omp_reference(y, dic.A, n_sparse) for y in Y]
    scenes = omp_recover(Y, dic, n_targets=n_sparse)
    assert isinstance(scenes, list) and len(scenes) == n_snapshots
    for sol, (support, coeffs, rnorm) in zip(scenes, refs):
        assert sol.support == support
        assert sol.iterations == len(support)
        np.testing.assert_allclose(sol.coeffs, coeffs, rtol=0, atol=1e-10)
        assert sol.residual_norm == pytest.approx(rnorm, rel=1e-9, abs=1e-12)


def test_block_omp_beyond_n1_atoms():
    # k > n1 atoms: once n1 columns span the snapshot space the residual is
    # rounding noise, so the later picks depend on how the products round
    # and need not match the reference; the first n1 picks must, and every
    # refit is lstsq's minimum-norm answer on the support picked
    cfg = reference_config(N=2, M=4, K=1, P=2, Q_r=2)
    rng = np.random.default_rng(3)
    dic = build_dictionary(random_selection_sequence(cfg, rng), cfg)
    n_sparse = cfg.n1 + 2
    Y = rng.standard_normal((3, cfg.n1)) + 1j * rng.standard_normal((3, cfg.n1))
    for sol, y in zip(omp_recover(Y, dic, n_targets=n_sparse), Y):
        support, _, _ = _omp_reference(y, dic.A, n_sparse)
        assert sol.support[:cfg.n1] == support[:cfg.n1]
        assert len(set(sol.support)) == n_sparse
        min_norm = np.linalg.lstsq(dic.A[:, list(sol.support)], y, rcond=None)[0]
        np.testing.assert_allclose(sol.coeffs, min_norm, rtol=0, atol=1e-12)
        assert sol.residual_norm < 1e-12 * np.linalg.norm(y)


def test_omp_block_breaks_ties_as_single_snapshots():
    # this CPI's correlations tie to within rounding at the second step of
    # the noisy row; rounding differs between a block of two rows and one
    # row, and a block must still give the scenes its rows give alone
    cfg = reference_config(N=4, M=4, K=1, P=2, Q_r=2)
    rng = np.random.default_rng(1)
    dic = build_dictionary(random_selection_sequence(cfg, rng), cfg)
    b0 = np.zeros(cfg.n2, dtype=np.complex128)
    b0[rng.choice(cfg.n2, size=2, replace=False)] = np.exp(2j * np.pi * rng.random(2))
    noise = (rng.standard_normal(cfg.n1) + 1j * rng.standard_normal(cfg.n1)) / np.sqrt(2.0)
    Y = dic.A @ b0 + np.array([1e-6, 1.0])[:, None] * noise
    block = omp_recover(Y, dic, n_targets=2)
    assert [sol.support for sol in block] == [
        omp_recover(y, dic, n_targets=2).support for y in Y
    ]


def test_omp_block_shapes(dic):
    y, _ = _planted(dic, [3, 40], np.array([1.0, 0.5j]))
    single = omp_recover(y, dic, n_targets=2)
    block = omp_recover(y[None, :], dic, n_targets=2)
    assert isinstance(block, list) and len(block) == 1
    assert block[0].support == single.support
    np.testing.assert_array_equal(block[0].coeffs, single.coeffs)
    assert omp_recover(np.zeros((0, dic.A.shape[0])), dic, n_targets=2) == []
    with pytest.raises(ValueError, match="2-D block"):
        omp_recover(y.reshape(1, 1, -1), dic, n_targets=2)
    with pytest.raises(ValueError, match="snapshot length"):
        omp_recover(np.zeros((3, 5)), dic, n_targets=2)


def test_bp_equality_recovery(dic):
    rng = np.random.default_rng(13)
    flats = rng.choice(dic.A.shape[1], size=3, replace=False)
    amps = np.exp(2j * np.pi * rng.random(3))
    y, b0 = _planted(dic, flats, amps)
    sol = bp_recover(y, dic, eps=0.0)
    err = np.linalg.norm(sol.dense() - b0)
    assert err < 1e-4
    assert sol.converged and sol.stop == "tol"
    assert set(flats.tolist()) <= set(sol.support)


def test_bp_noisy_ball(cfg, dic, selections):
    rng = np.random.default_rng(14)
    flats = rng.choice(dic.A.shape[1], size=2, replace=False)
    y, b0 = _planted(dic, flats, np.array([3.0, 3.0j]))
    sigma = 0.05
    noise = sigma / np.sqrt(2) * (
        rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    )
    eps = default_bp_eps(cfg, sigma)
    sol = bp_recover(y + noise, dic, eps=eps)
    # the fitted point sits on (or inside) the noise ball, up to the ADMM
    # stopping tolerance amplified by the dictionary spectral norm
    assert sol.residual_norm <= eps * 1.01
    top = sorted(sol.support, key=lambda i: -abs(sol.dense()[i]))[:2]
    assert sorted(top) == sorted(flats.tolist())


def test_bp_raises_then_returns(dic):
    rng = np.random.default_rng(15)
    flats = rng.choice(dic.A.shape[1], size=2, replace=False)
    y, _ = _planted(dic, flats, np.array([1.0, -1.0]))
    with pytest.raises(NonConvergenceError):
        bp_recover(y, dic, eps=0.0, max_iter=3)
    sol = bp_recover(y, dic, eps=0.0, max_iter=3, on_limit="return")
    assert sol.iterations == 3
    assert not sol.converged and sol.stop == "cap"
    with pytest.raises(ValueError):
        bp_recover(y, dic, eps=-1.0)
    with pytest.raises(ValueError):
        bp_recover(y, dic, on_limit="explode")


@pytest.mark.parametrize("max_iter", [0, -1])
def test_bp_rejects_nonpositive_max_iter(dic, max_iter):
    y, _ = _planted(dic, [5], np.array([1.0]))
    with pytest.raises(ValueError, match="max_iter"):
        bp_recover(y, dic, max_iter=max_iter, on_limit="return")


def test_bp_empty_noise_ball_returns_zero(dic):
    # ||y|| <= eps makes b = 0 feasible, hence optimal: no iterations run
    y, _ = _planted(dic, [5, 9], np.array([1.0, 1.0j]))
    y_norm = float(np.linalg.norm(y))
    for y_in, eps in ((y, y_norm), (y, 2.0 * y_norm), (np.zeros_like(y), 0.0)):
        sol = bp_recover(y_in, dic, eps=eps)
        assert sol.support == ()
        assert sol.coeffs.shape == (0,)
        assert sol.iterations == 0
        assert sol.converged and sol.stop == "empty"
        assert sol.residual_norm == pytest.approx(float(np.linalg.norm(y_in)))
        np.testing.assert_array_equal(sol.dense(), 0.0)


def test_bp_l1_bound_needs_the_equality_program(dic):
    y, _ = _planted(dic, [5], np.array([1.0]))
    with pytest.raises(ValueError, match="l1_bound"):
        bp_recover(y, dic, eps=0.1, l1_bound=1.0)


def test_bp_certified_exits(dic):
    rng = np.random.default_rng(13)
    flats = rng.choice(dic.A.shape[1], size=3, replace=False)
    y, b0 = _planted(dic, flats, np.exp(2j * np.pi * rng.random(3)))
    full = bp_recover(y, dic)
    # a bound no feasible point beats leaves only the optimality certificate
    sol = bp_recover(y, dic, l1_bound=0.0)
    assert sol.stop == "optimal" and sol.converged
    assert sol.iterations % 10 == 0 and sol.iterations < full.iterations
    assert sol.support == tuple(sorted(flats.tolist())) == full.support
    np.testing.assert_allclose(sol.dense(), b0, rtol=0, atol=1e-9)
    # far above the transition a feasible point soon beats ||b0||_1 - 1
    n_rows = dic.A.shape[0]
    flats = rng.choice(dic.A.shape[1], size=n_rows, replace=False)
    y, b0 = _planted(dic, flats, np.exp(2j * np.pi * rng.random(n_rows)))
    bound = np.abs(b0).sum() - 1.0
    full = bp_recover(y, dic)
    sol = bp_recover(y, dic, l1_bound=bound)
    assert sol.stop == "bound" and sol.iterations < full.iterations
    assert np.abs(sol.dense()).sum() < bound
    assert sol.residual_norm <= 1e-3 * np.linalg.norm(y)


def test_bp_certificate_passes_over_a_zero_fit_entry(monkeypatch):
    # an entry of the support fit that is exactly zero has no sign: the check
    # must pass over it without a division warning and without exiting.  In
    # this draw the support of z carries a spurious column early on, so the
    # fit with its entry zeroed still meets the residual test.
    cfg = reference_config(N=8, M=4, K=1, P=4, Q_r=2)
    rng = np.random.default_rng(1158)
    dic = build_dictionary(random_selection_sequence(cfg, rng), cfg)
    flats = rng.choice(cfg.n2, size=3, replace=False)
    y, _ = _planted(dic, flats, np.exp(2j * np.pi * rng.random(3)))
    full = bp_recover(y, dic)
    lstsq = np.linalg.lstsq

    def zeroed(a, b, rcond=None):
        x, *rest = lstsq(a, b, rcond=rcond)
        x[np.argmin(np.abs(x))] = 0.0
        return (x, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", zeroed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = bp_recover(y, dic, l1_bound=0.0)
    assert sol.stop == "tol"
    assert sol.iterations == full.iterations and sol.support == full.support


# ----------------------------------------------------------------------
# basis pursuit against the dense four-product reference
# ----------------------------------------------------------------------

def _bp_reference(y, A, eps=0.0, rho=1.0, max_iter=10000, tol=1e-6,
                  support_threshold=1e-3):
    """ADMM basis pursuit with the b-update as two Cholesky triangular solves
    and four dictionary products per iteration; returns (z, iterations,
    converged, support)."""
    n_rows, n_cols = A.shape
    chol = np.linalg.cholesky(np.eye(n_rows) + A @ A.conj().T)

    def solve_normal(rhs):
        w = A @ rhs
        w = solve_triangular(chol, w, lower=True)
        w = solve_triangular(chol.conj().T, w, lower=False)
        return rhs - A.conj().T @ w

    z = np.zeros(n_cols, dtype=np.complex128)
    s = np.zeros(n_rows, dtype=np.complex128)
    u1 = np.zeros(n_cols, dtype=np.complex128)
    u2 = np.zeros(n_rows, dtype=np.complex128)
    y_scale = max(1.0, float(np.linalg.norm(y)))
    converged = False
    adapts_left = 30
    for it in range(1, max_iter + 1):
        b = solve_normal((z - u1) + A.conj().T @ (y + s - u2))
        Ab = A @ b
        z_prev, s_prev = z, s
        v = b + u1
        mag = np.abs(v)
        thresh = 1.0 / rho
        z = np.where(mag > thresh, (1.0 - thresh / np.maximum(mag, 1e-300)) * v, 0.0)
        w = Ab - y + u2
        wn = float(np.linalg.norm(w))
        s = w if wn <= eps else (eps / wn) * w
        r1 = b - z
        r2 = Ab - y - s
        u1 = u1 + r1
        u2 = u2 + r2
        prim = max(float(np.linalg.norm(r1)), float(np.linalg.norm(r2)))
        dual = rho * max(float(np.linalg.norm(z - z_prev)), float(np.linalg.norm(s - s_prev)))
        if prim <= tol * y_scale and dual <= tol * y_scale:
            converged = True
            break
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
    keep = np.abs(z) > support_threshold * max(np.abs(z).max(), 1e-300)
    return z, it, converged, tuple(int(i) for i in np.nonzero(keep)[0])


@given(_SMALL_CONFIGS, st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_bp_matches_four_product_reference(params, n_sparse, noisy, seed):
    cfg = reference_config(**params)
    rng = np.random.default_rng(seed)
    dic = build_dictionary(random_selection_sequence(cfg, rng), cfg)
    flats = rng.choice(dic.A.shape[1], size=n_sparse, replace=False)
    y, _ = _planted(dic, flats, np.exp(2j * np.pi * rng.random(n_sparse)))
    eps = 0.0
    if noisy:
        sigma = 0.05
        y = y + sigma / np.sqrt(2) * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
        eps = default_bp_eps(cfg, sigma)
    sol = bp_recover(y, dic, eps=eps, max_iter=3000, on_limit="return")
    z_ref, it_ref, converged_ref, support_ref = _bp_reference(y, dic.A, eps=eps, max_iter=3000)
    assert sol.iterations == it_ref
    assert sol.converged == converged_ref
    assert sol.support == support_ref
    np.testing.assert_allclose(sol.coeffs, z_ref[list(support_ref)], rtol=0, atol=1e-8)


@given(st.integers(1, 24), st.integers(1, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_inverse_gram_identity(n_rows, n_cols, seed):
    # with G = A A^H and W = (I + G)^-1, the b-update
    # b = zu + A^H (c - W w), w = A zu + G c, has A b = W w
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    A, zu, c = cn(n_rows, n_cols), cn(n_cols), cn(n_rows)
    G = A @ A.conj().T
    W = np.linalg.inv(np.eye(n_rows) + G)
    w = A @ zu + G @ c
    b = zu + A.conj().T @ (c - W @ w)
    scale = 1.0 + np.linalg.norm(A, 2) ** 2
    np.testing.assert_allclose(A @ b, W @ w, rtol=0, atol=1e-10 * scale * np.linalg.norm(w))
    # and b solves the normal equations of the penalty-free Gram
    np.testing.assert_allclose(
        b + A.conj().T @ (A @ b), zu + A.conj().T @ c,
        rtol=0, atol=1e-10 * scale * (np.linalg.norm(zu) + np.linalg.norm(A, 2) * np.linalg.norm(c)),
    )


def test_recovered_targets_view(cfg, dic):
    rng = np.random.default_rng(16)
    flat = int(rng.integers(dic.A.shape[1]))
    y, _ = _planted(dic, [flat], np.array([2.0j]))
    sol = omp_recover(y, dic, n_targets=1)
    out = recovered_targets(sol, g=4, dic=dic)
    assert len(out) == 1
    t = out[0]
    assert t.flat_index == flat and t.cell == 4
    r, v, theta = grid_to_physical(flat, 4, cfg)
    assert (t.r, t.v, t.theta) == (r, v, theta)
    assert t.beta == pytest.approx(2.0j)


def test_end_to_end_snapshot_recovery(cfg, selections, dic):
    # simulate three on-grid scatterers in one cell and recover them
    g = 2
    rng = np.random.default_rng(17)
    flats = rng.choice(dic.A.shape[1], size=3, replace=False)
    scene = []
    for flat in flats:
        r, v, theta = grid_to_physical(int(flat), g, cfg)
        scene.append(Target(r=r, v=v, theta=theta, alpha=np.exp(-4j * np.pi * r * cfg.f_c / cfg.c).conjugate() / cfg.G))
    snap = simulate_cell_direct(scene, selections, cfg, sigma_r=0.0, g=g)
    sol = omp_recover(snap.flatten(), dic, n_targets=3)
    assert sorted(sol.support) == sorted(int(f) for f in flats)
