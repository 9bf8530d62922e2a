"""Measurement-count theory oracles and a small empirical smoke check."""


import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from frac.config import reference_config
from frac.harness import run_phase_transition_empirical
from frac.im_codec import random_selection_sequence
from frac.phase_transition import (
    CROSSING_LEVEL,
    L1_MARGIN,
    RECOVERY_TOL,
    approx_threshold,
    crossing,
    measurement_count,
    pt_integral,
    recovery_trial,
    solve_threshold,
)
from frac.radar_recovery import bp_recover, build_dictionary


def test_pt_integral_endpoints():
    # at beta = 0 the tail integral is E[u^3 1_{u>0}]-style and equals 2
    assert pt_integral(0.0) == pytest.approx(2.0)
    assert pt_integral(1.0) == pytest.approx(0.41768, abs=5e-5)
    assert pt_integral(20.0) < 1e-12
    with pytest.raises(ValueError):
        pt_integral(-0.5)


def test_pt_integral_matches_quadrature():
    for beta in np.linspace(0.0, 6.0, 25):
        b = float(beta)
        want, _ = quad(lambda u: (u - b) ** 2 * u * math.exp(-u * u / 2.0), b, np.inf)
        assert pt_integral(b) == pytest.approx(want, abs=1e-10)


def test_pt_integral_decreasing():
    vals = [pt_integral(b) for b in np.linspace(0, 8, 50)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_measurement_count_monotone_in_l():
    n2 = 16 * 8 * 4 * 2
    needs = [measurement_count(l, n2)[0] for l in (1, 2, 4, 8, 16, 32)]
    assert all(a < b for a, b in zip(needs, needs[1:]))
    # at least two measurements per active coefficient
    assert all(n >= 2 * l for n, l in zip(needs, (1, 2, 4, 8, 16, 32)))
    with pytest.raises(ValueError):
        measurement_count(0, n2)


def test_solve_threshold_reference_table():
    # eight configurations against their known transition points
    cases = [
        (dict(), 13.038),
        (dict(K=2), 30.210),
        (dict(M=4), 15.105),
        (dict(M=16), 11.461),
        (dict(P=2), 15.105),
        (dict(P=8), 11.461),
        (dict(N=16), 6.519),
        (dict(N=24), 9.778),
    ]
    for overrides, expect in cases:
        cfg = reference_config(**overrides)
        sol = solve_threshold(cfg.n1, cfg.n2)
        assert sol.l_star == pytest.approx(expect, abs=0.061), overrides
        # budget is met exactly at the transition
        need, _ = measurement_count(sol.l_star, sol.n2)
        assert need == pytest.approx(sol.n1, rel=1e-6)


def test_threshold_scales_with_measurements():
    # doubling the budget slightly more than doubles L*, since the
    # per-coefficient cost ~ ln(n2/L*) shrinks as L* grows
    n2 = 32 * 8 * 4 * 2
    l1 = solve_threshold(64, n2).l_star
    l2 = solve_threshold(128, n2).l_star
    assert 2.0 < l2 / l1 < 2.7


def test_approx_matches_exact_within_15_percent():
    for n1, n2 in [(64, 2048), (128, 4096), (32, 8192), (256, 1 << 16)]:
        exact = solve_threshold(n1, n2).l_star
        approx = approx_threshold(n1, n2).l_star
        assert abs(approx - exact) / exact < 0.15, (n1, n2)


def test_threshold_argument_checks():
    with pytest.raises(ValueError):
        solve_threshold(0, 100)
    with pytest.raises(ValueError):
        solve_threshold(100, 100)
    with pytest.raises(ValueError):
        approx_threshold(-1, 100)


def test_crossing_interpolation():
    got = crossing((1, 2, 3, 4), (1.0, 0.9, 0.3, 0.0))
    assert 2.0 < got < 3.0
    assert got == pytest.approx(2.0 + (0.9 - CROSSING_LEVEL) / 0.6)
    # levels are sorted before interpolating
    assert crossing((4, 2, 3, 1), (0.0, 0.9, 0.3, 1.0)) == got
    # a curve that never crosses has its crossing outside the levels tried
    assert crossing((1, 2), (0.2, 0.1)) is None
    assert crossing((1, 2), (1.0, 0.9)) is None


def test_recovery_trial_easy_and_hard():
    # far below threshold recovery succeeds; far above it fails
    cfg = reference_config(N=8, M=4, P=2, Q_r=1)
    rng = np.random.default_rng(0)
    assert recovery_trial(cfg, 1, rng) is True
    rng = np.random.default_rng(1)
    assert recovery_trial(cfg, 7, rng) is False


def _planted_trial(cfg, l_sparse, seed):
    """The dictionary, planted vector and snapshot recovery_trial draws."""
    rng = np.random.default_rng(seed)
    dic = build_dictionary(random_selection_sequence(cfg, rng), cfg)
    support = rng.choice(cfg.n2, size=l_sparse, replace=False)
    b0 = np.zeros(cfg.n2, dtype=np.complex128)
    b0[support] = np.exp(2j * np.pi * rng.random(l_sparse))
    return dic, b0, dic.A @ b0


@given(
    st.fixed_dictionaries({
        "N": st.sampled_from([4, 8]),
        "M": st.sampled_from([2, 4]),
        "K": st.integers(1, 2),
        "P": st.sampled_from([2, 4]),
        "Q_r": st.integers(1, 2),
    }),
    st.data(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_certified_exit_keeps_the_decision(params, data, seed):
    cfg = reference_config(**params)
    l_sparse = data.draw(st.integers(1, cfg.n1), label="L")
    dic, b0, y = _planted_trial(cfg, l_sparse, seed)
    solve = dict(eps=0.0, tol=1e-5, max_iter=4000, on_limit="return")
    full = bp_recover(y, dic, **solve)
    full_ok = bool(np.linalg.norm(full.dense() - b0) / cfg.n2 <= RECOVERY_TOL)
    assert recovery_trial(cfg, l_sparse, np.random.default_rng(seed)) is full_ok
    early = bp_recover(y, dic, **solve, l1_bound=float(np.abs(b0).sum()) - L1_MARGIN)
    assert early.iterations <= full.iterations
    if early.stop == "optimal":
        assert early.support == full.support
    if early.stop == "bound":
        assert not full_ok
    if early.stop in ("tol", "cap"):
        assert early.iterations == full.iterations and early.support == full.support


def test_certified_exits_at_the_criterion_size():
    # criterion 05's configuration: an easy trial is certified optimal and a
    # hard one bounded, each in a fraction of the iterations of the full solve
    cfg = reference_config(N=16, M=8, K=1, P=4, Q_r=2)
    solve = dict(eps=0.0, tol=1e-5, max_iter=4000, on_limit="return")
    for l_sparse, stop in ((2, "optimal"), (13, "bound")):
        dic, b0, y = _planted_trial(cfg, l_sparse, [0, l_sparse, 0])
        full = bp_recover(y, dic, **solve)
        early = bp_recover(y, dic, **solve, l1_bound=float(np.abs(b0).sum()) - L1_MARGIN)
        assert early.stop == stop
        assert early.iterations < full.iterations / 2


def test_empirical_transition_smoke():
    cfg = reference_config(N=8, M=4, P=2, Q_r=1)
    rows, _ = run_phase_transition_empirical(cfg, [1, 6], trials=6, seed=0)
    assert rows[0]["success_rate"] >= 5 / 6
    assert rows[1]["success_rate"] <= 1 / 6
    assert [r["trials"] for r in rows] == [6, 6]


def test_empirical_transition_deterministic():
    cfg = reference_config(N=8, M=4, P=2, Q_r=1)
    a = run_phase_transition_empirical(cfg, [2], trials=4, seed=3)
    b = run_phase_transition_empirical(cfg, [2], trials=4, seed=3)
    assert a == b


@pytest.mark.parametrize("level", [0, -1, 65, 300])
def test_empirical_transition_rejects_levels_outside_grid(level):
    # 64 grid columns: L = 0 used to score as a success, L > 64 failed
    # inside numpy's sampler
    cfg = reference_config(N=8, M=4, P=2, Q_r=1)
    assert cfg.n2 == 64
    with pytest.raises(ValueError, match=f"sparsity level {level} "):
        run_phase_transition_empirical(cfg, [1, level], trials=2)


def test_empirical_transition_accepts_full_grid_and_rejects_no_trials():
    cfg = reference_config(N=2, M=2, P=2, Q_r=1)
    rows, _ = run_phase_transition_empirical(cfg, [cfg.n2], trials=1)
    assert rows[0]["trials"] == 1
    with pytest.raises(ValueError, match="trials"):
        run_phase_transition_empirical(cfg, [1], trials=0)

