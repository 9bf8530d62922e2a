"""Basis-pursuit phase transition: predicted and empirical sparsity limits.

The number of measurements n1 = N K Q_r that equality basis pursuit needs to
recover an L-sparse complex vector on a grid of n2 = N M P Q_r columns obeys

    n1 = inf_{beta >= 0} 1/2 { L (2 + beta^2)
           + (n2 - L) * int_beta^inf (u - beta)^2 u exp(-u^2/2) du }

The largest L satisfying this for given (n1, n2) is the transition point L*.
The tail integral has the closed form

    2 exp(-beta^2/2) - sqrt(2 pi) beta erfc(beta / sqrt 2)

and for n2 >> L* the solution collapses to L* = O(n1 / ln n2) through the
fixed point ln(beta^2 + 1) = ln((n2 - L)/L) - beta^2/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .im_codec import random_selection_sequence
from .radar_recovery import bp_recover, build_dictionary

__all__ = [
    "PtSolution",
    "pt_integral",
    "measurement_count",
    "solve_threshold",
    "approx_threshold",
    "recovery_trial",
    "crossing",
]

# success criterion for one empirical trial: ||b_hat - b||_2 / len(b)
RECOVERY_TOL = 1e-4
# a trial fails early once a feasible point beats ||b||_1 by this much.  Any
# positive gap proves the planted b is not the l1 minimizer, but the success
# test above is looser than that: a minimizer within RECOVERY_TOL * len(b) of b
# in l2 still counts.  One whole unit-modulus coefficient of l1 is well clear
# of that; near the transition the failures that reach the solver's tolerance
# have a gap below 1 and are decided by the success test as before.
L1_MARGIN = 1.0
# empirical transition point: success probability crossing this level
CROSSING_LEVEL = 0.6


@dataclass(frozen=True)
class PtSolution:
    l_star: float
    beta_star: float
    n1: int
    n2: int
    method: str


def pt_integral(beta: float) -> float:
    """Closed form of int_beta^inf (u - beta)^2 u exp(-u^2/2) du."""
    b = float(beta)
    if b < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    return (2.0 * math.exp(-b * b / 2.0)
            - math.sqrt(2.0 * math.pi) * b * math.erfc(b / math.sqrt(2.0)))


def _golden_min(f, lo: float, hi: float, tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section minimizer of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def measurement_count(l_sparse: float, n2: int, beta_max: float = 20.0) -> tuple[float, float]:
    """(required measurements, minimizing beta) for an L-sparse vector on n2 columns."""
    if not 0 < l_sparse < n2:
        raise ValueError(f"L must lie in (0, n2={n2}), got {l_sparse}")

    def obj(beta: float) -> float:
        return 0.5 * (
            l_sparse * (2.0 + beta * beta) + (n2 - l_sparse) * pt_integral(beta)
        )

    beta, val = _golden_min(obj, 0.0, beta_max)
    return val, beta


def solve_threshold(n1: int, n2: int, tol: float = 1e-9) -> PtSolution:
    """Transition sparsity L* with measurement budget n1 on n2 columns.

    The required-measurement curve is increasing in L and bounded below by L,
    so L* is bracketed in (0, n1] and found by bisection.
    """
    if not 0 < n1 < n2:
        raise ValueError(f"need 0 < n1 < n2, got n1={n1}, n2={n2}")
    lo, hi = 1e-9, float(n1)
    need_hi, _ = measurement_count(hi, n2) if hi < n2 else (float("inf"), 0.0)
    if need_hi < n1:
        raise ValueError(f"no transition point below n1={n1} for n2={n2}")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        need, _ = measurement_count(mid, n2)
        if need < n1:
            lo = mid
        else:
            hi = mid
    l_star = 0.5 * (lo + hi)
    _, beta_star = measurement_count(l_star, n2)
    return PtSolution(l_star=l_star, beta_star=beta_star, n1=n1, n2=n2, method="exact")


def approx_threshold(n1: int, n2: int, iters: int = 200) -> PtSolution:
    """Large-n2 asymptotic solution, L* = O(n1 / ln n2).

    Alternates the stationarity fixed point ln(beta^2 + 1) =
    ln((n2 - L)/L) - beta^2/2 with the budget L = n1 / (2 + beta^2/2).
    """
    if not 0 < n1 < n2:
        raise ValueError(f"need 0 < n1 < n2, got n1={n1}, n2={n2}")
    bsq = max(math.log(n2), 1e-6)
    l_cur = n1 / (2.0 + bsq / 2.0)
    for _ in range(iters):
        ratio = max((n2 - l_cur) / l_cur, 1.0 + 1e-12)
        target = math.log(ratio)
        # solve ln(bsq + 1) + bsq/2 = target; left side increasing in bsq
        lo, hi = 0.0, max(4.0 * target, 1.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if math.log(mid + 1.0) + mid / 2.0 < target:
                lo = mid
            else:
                hi = mid
        bsq = 0.5 * (lo + hi)
        l_new = n1 / (2.0 + bsq / 2.0)
        if abs(l_new - l_cur) < 1e-12 * max(1.0, l_cur):
            l_cur = l_new
            break
        l_cur = l_new
    return PtSolution(
        l_star=l_cur, beta_star=math.sqrt(bsq), n1=n1, n2=n2, method="approx"
    )


def recovery_trial(cfg: SystemConfig, l_sparse: int, rng: np.random.Generator) -> bool:
    """One synthetic recovery: unit-modulus L-sparse vector on the cell grid.

    Success means the equality basis-pursuit solution matches the planted
    vector to within RECOVERY_TOL per column.  The solve stops early once its
    outcome is certified: an ``"optimal"`` exit returns the unique solution,
    which the success test then checks, and a ``"bound"`` exit found a
    feasible point more than L1_MARGIN below ||b||_1 in l1 norm, which counts
    as a failure.  Trials that hit the iteration cap are classified on the
    last iterate, so a slow solve near the transition is not silently
    recorded as a failure.
    """
    selections = random_selection_sequence(cfg, rng)
    dic = build_dictionary(selections, cfg)
    n_cols = dic.A.shape[1]
    support = rng.choice(n_cols, size=l_sparse, replace=False)
    b0 = np.zeros(n_cols, dtype=np.complex128)
    b0[support] = np.exp(2j * np.pi * rng.random(l_sparse))
    y = dic.A @ b0
    sol = bp_recover(y, dic, eps=0.0, tol=1e-5, max_iter=4000, on_limit="return",
                     l1_bound=float(np.abs(b0).sum()) - L1_MARGIN)
    if sol.stop == "bound":
        return False
    err = np.linalg.norm(sol.dense() - b0) / n_cols
    return bool(err <= RECOVERY_TOL)


def crossing(l_values, success, level: float = CROSSING_LEVEL) -> float | None:
    """First downward crossing of a success curve through ``level``.

    Linear interpolation between the bracketing sparsity levels.  Returns
    None when no adjacent pair of levels brackets a downward crossing: the
    crossing then lies outside the levels tried and is censored.
    """
    ls = np.asarray(l_values, dtype=float)
    ps = np.asarray(success, dtype=float)
    order = np.argsort(ls)
    ls, ps = ls[order], ps[order]
    for i in range(1, len(ls)):
        if ps[i] < level <= ps[i - 1]:
            frac = (ps[i - 1] - level) / (ps[i - 1] - ps[i])
            return float(ls[i - 1] + frac * (ls[i] - ls[i - 1]))
    return None
