"""Experiment drivers: parsing, determinism across workers, end-to-end runs."""

import dataclasses
import math
import os

import numpy as np
import pytest

import frac.harness
from frac.cli import parse_range
from frac.config import COUNT_FIELDS, SystemConfig, reference_config
from frac.harness import (
    _default_levels,
    hw_report,
    parse_variants,
    reference_scene,
    resolution_report,
    run_ambiguity,
    run_comm_ber,
    run_comm_rate,
    run_hit_rate,
    run_phase_transition_empirical,
    run_phase_transition_theory,
    run_recovery_map,
    snap_to_grid,
)
from frac.radar_recovery import default_bp_eps, physical_to_grid
from frac.radar_sim import cell_index, load_cube, sigma_for_snr


def tiny_radar(**overrides):
    """8-pulse, 4-carrier set: 16 x 64 dictionaries solve in microseconds."""
    params = dict(N=8, M=4, P=2, Q_r=1, K=2)
    params.update(overrides)
    return reference_config(**params)


def tiny_comm(**overrides):
    params = dict(M=4, P=2, Q_c=2, J=2, B=4.0e6, n_taps=4)
    params.update(overrides)
    return reference_config(**params)


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------

def test_parse_range():
    assert parse_range("0:2:6") == [0.0, 2.0, 4.0, 6.0]
    assert parse_range("-10:5:0") == [-10.0, -5.0, 0.0]
    assert parse_range("1,2.5, 7") == [1.0, 2.5, 7.0]
    assert parse_range("0:3:7") == [0.0, 3.0, 6.0]
    with pytest.raises(ValueError):
        parse_range("0:2")
    with pytest.raises(ValueError):
        parse_range("0:-1:5")
    with pytest.raises(ValueError):
        parse_range("0:0:5")


@pytest.mark.parametrize("text", [
    "", " ", ",", " , ", "0:nan:5", "nan:1:3", "0:1:inf", "-inf:1:0",
])
def test_parse_range_rejects_empty_and_nonfinite_grids(text):
    with pytest.raises(ValueError, match="empty|finite"):
        parse_range(text)


def test_parse_variants():
    cfg = reference_config()
    out = parse_variants(cfg, "base, K=2 ,M=16")
    assert [name for name, _ in out] == ["base", "K=2", "M=16"]
    assert out[0][1] == cfg
    assert out[1][1].K == 2
    assert out[2][1].M == 16
    with pytest.raises(ValueError):
        parse_variants(cfg, "f_c=1")
    with pytest.raises(ValueError):
        parse_variants(cfg, "garbage")


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SystemConfig)])
def test_parse_variants_accepts_exactly_the_count_fields(field):
    cfg = reference_config()
    if field in COUNT_FIELDS:
        assert parse_variants(cfg, f"{field}=2") == [(f"{field}=2", cfg.replace(**{field: 2}))]
    else:
        with pytest.raises(ValueError, match=f"variant field '{field}' is not an integer count"):
            parse_variants(cfg, f"{field}=2")


@pytest.mark.parametrize("text, message", [
    ("", "empty variant list"),
    (" , ", "empty variant list"),
    ("base,base", "variant 'base' is repeated"),
    ("K=2, M=16,K=2", "variant 'K=2' is repeated"),
])
def test_parse_variants_rejects_empty_or_repeated(text, message):
    with pytest.raises(ValueError, match=message):
        parse_variants(reference_config(), text)


# ----------------------------------------------------------------------
# scenes
# ----------------------------------------------------------------------

def test_snap_to_grid_idempotent():
    cfg = reference_config()
    snapped = snap_to_grid(4.7, 1.1, 0.21, cfg)
    assert snap_to_grid(*snapped, cfg) == pytest.approx(snapped)


def test_reference_scene_structure():
    cfg = reference_config(K=2)
    scene = reference_scene(cfg)
    assert len(scene) == 3
    # all targets sit exactly on the recovery grid with unit recovered gain
    for t in scene:
        rs, vs, ts = snap_to_grid(t.r, t.v, t.theta, cfg)
        assert (t.r, t.v, t.theta) == pytest.approx((rs, vs, ts))
        assert abs(t.alpha) * cfg.G == pytest.approx(1.0)
    # two scatterers share a cell, the third sits in a different one
    cells = [cell_index(t.r, cfg) for t in scene]
    assert cells[0] == cells[1] != cells[2]
    # the first two differ only in angle (one resolution cell apart): same
    # cell, same (velocity, range) row of Q angle columns, adjacent columns
    (g0, f0), (g1, f1) = (physical_to_grid(t.r, t.v, t.theta, cfg) for t in scene[:2])
    assert g0 == g1 and f0 // cfg.Q == f1 // cfg.Q and abs(f0 - f1) == 1


# ----------------------------------------------------------------------
# hit rate
# ----------------------------------------------------------------------

def test_hit_rate_high_snr_saturates():
    # the tiny config's OMP is a greedy failure on about 5 % of CPI draws
    # even without noise, so 20 hits of 20 would hold only by luck.  At
    # 30 dB it hits 1,888 of 2,000 trials; at a rate of 0.93, 2.8 standard
    # errors below that, fewer than 14 hits of 20 has probability 3e-4
    cfg = tiny_radar()
    pts = run_hit_rate(cfg, [30.0], trials=20, seed=0)
    assert pts[0].trials == 20
    assert pts[0].hits >= 14
    assert pts[0].hit_rate == pts[0].hits / 20
    assert pts[0].ci_low <= pts[0].hit_rate <= pts[0].ci_high


def test_hit_rate_worker_invariance():
    cfg = tiny_radar()
    a = run_hit_rate(cfg, [6.0, 30.0], trials=10, seed=3, workers=1)
    b = run_hit_rate(cfg, [6.0, 30.0], trials=10, seed=3, workers=3)
    assert a == b


def test_hit_rate_random_scene_and_bp():
    cfg = tiny_radar()
    pts = run_hit_rate(
        cfg, [30.0], trials=8, seed=1, scene_mode="random", n_targets=2, solver="bp"
    )
    assert pts[0].hit_rate >= 0.75
    with pytest.raises(ValueError):
        run_hit_rate(cfg, [10.0], trials=2, scene_mode="nope")
    with pytest.raises(ValueError):
        run_hit_rate(cfg, [10.0], trials=2, solver="nope")


def test_hit_rate_bp_empty_noise_ball_scores_miss(monkeypatch):
    # at 10 dB the reference scene's first cell has ||y|| below the noise
    # radius: BP returns the empty scene at once and the trial is a miss
    solve = frac.harness.bp_recover
    iterations = []

    def recording_bp(*args, **kwargs):
        sol = solve(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(frac.harness, "bp_recover", recording_bp)
    pts = run_hit_rate(reference_config(), [10.0], trials=1, seed=0, solver="bp")
    assert pts[0].hits == 0
    assert iterations and all(it == 0 for it in iterations)


def test_hit_rate_one_worker_runs_in_process(monkeypatch):
    # span tracing wraps module attributes, so with one worker every trial's
    # dictionary must be built through frac.harness in this process
    build = frac.harness.build_dictionary
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(frac.harness, "build_dictionary", counted)
    run_hit_rate(tiny_radar(), [10.0, 30.0], trials=5, seed=0, workers=1)
    assert len(calls) == 5


def test_hit_rate_omp_one_block_per_trial_and_cell(monkeypatch):
    # every SNR of a cell goes to one omp_recover call as a 2-D block, so
    # per-call timings of omp_recover measure one (trial, cell)
    solve = frac.harness.omp_recover
    shapes = []

    def counted(y, *args, **kwargs):
        shapes.append(np.shape(y))
        return solve(y, *args, **kwargs)

    monkeypatch.setattr(frac.harness, "omp_recover", counted)
    cfg = reference_config(K=2)
    snrs = [0.0, 10.0, 20.0]
    run_hit_rate(cfg, snrs, trials=3, seed=0, workers=1)
    cells = len({cell_index(t.r, cfg) for t in reference_scene(cfg)})
    assert cells == 2
    assert shapes == [(len(snrs), cfg.n1)] * (3 * cells)
    shapes.clear()
    run_hit_rate(cfg, snrs, trials=4, seed=0, scene_mode="random", n_targets=2, workers=1)
    assert shapes == [(len(snrs), cfg.n1)] * 4


def test_hit_rate_bp_skips_snrs_an_earlier_cell_missed(monkeypatch):
    # BP solves one snapshot at a time; at an SNR where the first cell is a
    # miss the second cell is not solved
    solve = frac.harness.bp_recover
    eps_seen = []

    def recording_bp(y, dic, eps=0.0, **kwargs):
        eps_seen.append(eps)
        return solve(y, dic, eps=eps, **kwargs)

    monkeypatch.setattr(frac.harness, "bp_recover", recording_bp)
    cfg = tiny_radar(M=8)
    assert len({cell_index(t.r, cfg) for t in reference_scene(cfg)}) == 2
    pts = run_hit_rate(cfg, [0.0, 30.0], trials=3, seed=0, solver="bp")
    assert [p.hits for p in pts] == [0, 3]
    eps_low, eps_high = (default_bp_eps(cfg, sigma_for_snr(cfg, s)) for s in (0.0, 30.0))
    assert eps_seen == pytest.approx([eps_low, eps_high, eps_high] * 3)


def test_hit_rate_trial_frees_its_dictionary(monkeypatch):
    # one trial per call: the previous trial's dictionary is released before
    # the next one is built, so only one is alive at a time
    import gc
    import weakref

    build = frac.harness.build_dictionary
    refs, alive = [], []

    def tracked(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        dic = build(*args, **kwargs)
        refs.append(weakref.ref(dic))
        return dic

    monkeypatch.setattr(frac.harness, "build_dictionary", tracked)
    run_hit_rate(tiny_radar(), [10.0, 30.0], trials=4, seed=0)
    assert alive == [0, 0, 0, 0]


@pytest.mark.parametrize("trials", [0, -1])
def test_hit_rate_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        run_hit_rate(tiny_radar(), [10.0], trials=trials)


@pytest.mark.parametrize("n_targets", [0, -1, 65, 5000])
def test_hit_rate_rejects_random_target_count_outside_grid(n_targets):
    cfg = tiny_radar()
    assert cfg.n2 == 64
    with pytest.raises(ValueError, match=f"n_targets {n_targets} outside"):
        run_hit_rate(cfg, [10.0], trials=2, scene_mode="random", n_targets=n_targets)


@pytest.mark.parametrize("scene_mode", [{}, dict(scene_mode="fixed")])
@pytest.mark.parametrize("n_targets", [3, 7, 0])
def test_hit_rate_fixed_scene_rejects_a_target_count(scene_mode, n_targets, monkeypatch):
    # the fixed scene always has 3 targets; a count used to be ignored
    monkeypatch.setattr(frac.harness, "_hit_rate_trial", _never_called)
    with pytest.raises(ValueError, match="n_targets only applies to scene_mode random"):
        run_hit_rate(tiny_radar(), [10.0], trials=2, n_targets=n_targets, **scene_mode)


def _never_called(*args, **kwargs):
    raise AssertionError("simulation started")


@pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("run, kwargs", [
    (run_hit_rate, dict(trials=1)),
    (run_comm_ber, dict(channels=1, draws=2)),
    (run_comm_rate, dict(channels=1, draws=2)),
])
def test_drivers_reject_a_nonfinite_snr(run, kwargs, snr, monkeypatch):
    # a NaN SNR used to give a hit rate of 0, BER rows or a NaN rate
    monkeypatch.setattr(frac.harness, "_hit_rate_trial", _never_called)
    monkeypatch.setattr(frac.harness.comm, "ber_curve", _never_called)
    monkeypatch.setattr(frac.harness.comm, "rate_curve", _never_called)
    cfg = tiny_radar() if run is run_hit_rate else tiny_comm()
    with pytest.raises(ValueError, match=r"snr_db_list: SNRs must be finite, got \[10.0, "):
        run(cfg, [10.0, snr], **kwargs)


@pytest.mark.parametrize("snr", [np.nan, np.inf])
def test_recovery_map_rejects_a_nonfinite_snr_before_drawing(snr, monkeypatch):
    # it used to fail after the draw, naming sigma_r
    monkeypatch.setattr(frac.harness, "random_selection_sequence", _never_called)
    cfg = tiny_radar()
    with pytest.raises(ValueError, match=f"snr_db must be finite, got {snr}"):
        run_recovery_map(cfg, reference_scene(cfg), snr_db=snr)


def test_hit_rate_random_scene_accepts_full_grid():
    cfg = tiny_radar()
    pts = run_hit_rate(cfg, [30.0], trials=1, scene_mode="random", n_targets=cfg.n2)
    assert pts[0].trials == 1


# ----------------------------------------------------------------------
# recovery map
# ----------------------------------------------------------------------

def _match_rows(true_rows, rec_rows):
    assert len(true_rows) == len(rec_rows)
    want = sorted((r["r_m"], r["v_mps"], r["theta_deg"]) for r in true_rows)
    got = sorted((r["r_m"], r["v_mps"], r["theta_deg"]) for r in rec_rows)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_recovery_map_direct_noiseless_exact():
    cfg = reference_config(K=2)
    scene = reference_scene(cfg)
    true_rows, rec_rows = run_recovery_map(
        cfg, scene, snr_db=None, solver="omp", full_chain=False
    )
    _match_rows(true_rows, rec_rows)
    for r in rec_rows:
        assert r["amp"] == pytest.approx(1.0, abs=1e-9)
        assert r["phase_rad"] == pytest.approx(0.0, abs=1e-9)


def test_recovery_map_full_chain_noiseless():
    # off the coarse centers the compressed cells keep a straddle loss, so
    # positions recover exactly while the refit gains drop below unity
    cfg = reference_config(K=2)
    scene = reference_scene(cfg)
    true_rows, rec_rows = run_recovery_map(cfg, scene, snr_db=None, solver="omp")
    _match_rows(true_rows, rec_rows)
    for r in rec_rows:
        assert 0.5 < r["amp"] <= 1.0


def test_recovery_map_direct_equals_full_chain():
    cfg = reference_config(K=2)
    scene = reference_scene(cfg)
    _, rec_a = run_recovery_map(cfg, scene, snr_db=None, full_chain=True)
    _, rec_b = run_recovery_map(cfg, scene, snr_db=None, full_chain=False)
    # the two chains round differently, so OMP may pick the same atoms in
    # another order; the recovered grid points are what must agree
    assert len(rec_a) == len(scene)
    assert sorted(r["flat_index"] for r in rec_a) == sorted(r["flat_index"] for r in rec_b)


def test_recovery_map_dump_cube(tmp_path):
    cfg = tiny_radar()
    scene = reference_scene(cfg)
    path = tmp_path / "dump.frc"
    run_recovery_map(cfg, scene, snr_db=20.0, dump_cube_path=path)
    cube = load_cube(path)
    assert cube.cfg == cfg
    assert cube.data.shape == (cfg.N, cfg.K, cfg.Q_r, cfg.G)


def test_recovery_map_rejects_solver_before_simulating(tmp_path):
    cfg = tiny_radar()
    path = tmp_path / "dump.frc"
    with pytest.raises(ValueError, match="solver"):
        run_recovery_map(cfg, reference_scene(cfg), solver="lasso", dump_cube_path=path)
    assert not path.exists()


# ----------------------------------------------------------------------
# ambiguity / phase transition
# ----------------------------------------------------------------------

def test_run_ambiguity_axis():
    cfg = reference_config()
    rows = run_ambiguity(cfg, axis="velocity", points=11, extent=1.0)
    assert len(rows) == 11
    center = rows[5]
    assert center["df_velocity"] == pytest.approx(0.0)
    assert center["af_expected"] == pytest.approx(cfg.N * cfg.K * cfg.Q_r)
    assert "af_mc" not in rows[0]


def test_run_ambiguity_plane_with_mc():
    cfg = reference_config()
    rows = run_ambiguity(cfg, axis="range-angle", points=5, mc_cpis=20, seed=1)
    assert len(rows) == 25
    assert all("af_mc" in r for r in rows)
    with pytest.raises(ValueError):
        run_ambiguity(cfg, axis="bogus")


@pytest.mark.parametrize("kwargs, message", [
    (dict(points=0), "points must be at least 1, got 0"),
    (dict(points=-4), "points must be at least 1, got -4"),
    (dict(mc_cpis=-3), "mc_cpis must be nonnegative, got -3"),
])
def test_run_ambiguity_rejects_bad_counts(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_ambiguity(reference_config(), **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(extent=-1.0), "extent must be finite and nonnegative, got -1.0"),
    (dict(extent=0.0, points=3), "extent 0 holds one offset, so points must be 1, got 3"),
])
def test_run_ambiguity_rejects_a_window_that_is_no_window(kwargs, message):
    # both used to return rows: a reversed axis, or three copies of offset 0
    with pytest.raises(ValueError, match=message):
        run_ambiguity(reference_config(), **kwargs)


def test_run_ambiguity_queries_the_zero_offset_alone():
    cfg = reference_config()
    (row,) = run_ambiguity(cfg, axis="angle", points=1, extent=0.0, mc_cpis=5)
    assert row["df_angle"] == 0.0
    assert row["af_expected"] == pytest.approx(cfg.N * cfg.K * cfg.Q_r)
    assert row["af_mc"] == pytest.approx(cfg.N * cfg.K * cfg.Q_r)


def test_run_phase_transition_theory():
    cfg = reference_config()
    rows = run_phase_transition_theory(cfg, parse_variants(cfg, "base,N=16"))
    assert rows[0]["l_star"] == pytest.approx(13.038, abs=0.061)
    assert rows[1]["l_star"] == pytest.approx(6.519, abs=0.061)
    for r in rows:
        assert r["l_star_approx"] == pytest.approx(r["l_star"], rel=0.15)


def test_run_phase_transition_empirical_workers():
    cfg = tiny_radar()
    rows1, cross1 = run_phase_transition_empirical(cfg, [1, 10], trials=6, seed=0, workers=1)
    rows2, cross2 = run_phase_transition_empirical(cfg, [1, 10], trials=6, seed=0, workers=2)
    assert rows1 == rows2 and cross1 == cross2
    assert rows1[0]["success_rate"] >= 5 / 6
    assert rows1[1]["success_rate"] <= 1 / 6


@pytest.mark.parametrize("workers", [0, -4])
def test_drivers_reject_fewer_than_one_worker(workers, monkeypatch):
    # these used to run one worker quietly
    def never_called(*args, **kwargs):
        raise AssertionError("trial started")

    monkeypatch.setattr(frac.harness, "_hit_rate_trial", never_called)
    monkeypatch.setattr(frac.harness.phase_transition, "recovery_trial", never_called)
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_hit_rate(tiny_radar(), [10.0], trials=2, workers=workers)
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_phase_transition_empirical(tiny_radar(), [1], trials=2, workers=workers)


@pytest.mark.parametrize("l_values, message", [
    ([3, 3], "level 3 is repeated"),
    ([1, 2, 1], "level 1 is repeated"),
    ((2, 4, 2), "level 2 is repeated"),
    ([1, 2.5], "level 2.5 is not an integer"),
    ([], "l_values: the level list is empty"),
])
def test_run_phase_transition_rejects_repeated_or_fractional_levels(l_values, message):
    with pytest.raises(ValueError, match=message):
        run_phase_transition_empirical(tiny_radar(), l_values, trials=1)


def test_run_phase_transition_empirical_default_levels():
    cfg = tiny_radar()
    l_star = frac.phase_transition.solve_threshold(cfg.n1, cfg.n2).l_star
    rows, _ = run_phase_transition_empirical(cfg, trials=1)
    assert [r["l_sparse"] for r in rows] == _default_levels(l_star)
    assert _default_levels(l_star) == list(range(1, math.ceil(2 * l_star) + 1))
    assert _default_levels(0.4) == [1, 2, 3]


def test_run_phase_transition_one_worker_runs_in_process(monkeypatch):
    # span tracing wraps module attributes, so with one worker every trial
    # must call frac.phase_transition.recovery_trial in this process
    import frac.phase_transition

    trial = frac.phase_transition.recovery_trial
    calls = []

    def counted(cfg, l_sparse, rng):
        calls.append(l_sparse)
        return trial(cfg, l_sparse, rng)

    monkeypatch.setattr(frac.phase_transition, "recovery_trial", counted)
    run_phase_transition_empirical(tiny_radar(), [1, 2, 3], trials=2, seed=0, workers=1)
    assert calls == [1, 1, 2, 2, 3, 3]


# ----------------------------------------------------------------------
# comm
# ----------------------------------------------------------------------

def test_run_comm_ber_schemes():
    cfg = tiny_comm()
    pts = run_comm_ber(
        cfg, [8.0], channels=2, draws=20, schemes=("frac-ml", "frac-sod", "psk4-ml"),
        seed=0,
    )
    schemes = [p.scheme for p in pts]
    assert schemes == ["frac-ml", "frac-sod", "psk4-ml"]
    assert all(0.0 <= p.ber <= 1.0 for p in pts)


def test_run_comm_rate_schemes():
    cfg = tiny_comm()
    pts = run_comm_rate(
        cfg, [40.0], channels=2, draws=10, schemes=("frac-j2", "psk4"), seed=0
    )
    by = {p.scheme: p for p in pts}
    assert by["frac-j2"].rate_bits == pytest.approx(cfg.n_total_bits, abs=0.05)
    assert by["psk4"].rate_bits == pytest.approx(2.0, abs=0.05)
    with pytest.raises(ValueError):
        run_comm_rate(cfg, [0.0], channels=1, draws=2, schemes=("huh",))


@pytest.mark.parametrize("schemes", [
    ("frac-ML",), ("frac-xyz",), ("foo",), ("frac-ml", "foo"), ("psk64",), ("pskx-ml",),
    ("frac",), ("psk64-sd",),
])
def test_run_comm_ber_rejects_unknown_scheme(schemes):
    with pytest.raises(ValueError, match="unknown"):
        run_comm_ber(tiny_comm(), [0.0], channels=1, draws=2, schemes=schemes)


@pytest.mark.parametrize("schemes", [("frac-jx",), ("psk",), ("frac-j",)])
def test_run_comm_rate_rejects_unknown_scheme(schemes):
    with pytest.raises(ValueError, match="unknown rate scheme"):
        run_comm_rate(tiny_comm(), [0.0], channels=1, draws=2, schemes=schemes)


@pytest.mark.parametrize("run, schemes, message", [
    (run_comm_ber, ("frac-ml", "frac-ml"), "scheme 'frac-ml' is repeated"),
    (run_comm_ber, ("psk4-ml", "frac-sod", "psk4-ml"), "scheme 'psk4-ml' is repeated"),
    (run_comm_ber, (), "scheme list is empty"),
    (run_comm_rate, ("frac-j2", "frac-j2"), "scheme 'frac-j2' is repeated"),
    (run_comm_rate, (), "scheme list is empty"),
])
def test_run_comm_rejects_repeated_or_empty_schemes(run, schemes, message):
    with pytest.raises(ValueError, match=message):
        run(tiny_comm(), [0.0], channels=1, draws=2, schemes=schemes)


@pytest.mark.parametrize("run, kwargs", [
    (run_hit_rate, dict(trials=1)),
    (run_comm_ber, dict(channels=1, draws=2)),
    (run_comm_rate, dict(channels=1, draws=2)),
])
def test_drivers_reject_an_empty_snr_list(run, kwargs):
    cfg = tiny_radar() if run is run_hit_rate else tiny_comm()
    with pytest.raises(ValueError, match="SNR list is empty"):
        run(cfg, [], **kwargs)


# ----------------------------------------------------------------------
# one BLAS thread per driver
# ----------------------------------------------------------------------

needs_openblas = pytest.mark.skipif(not frac.harness._openblas(), reason="no OpenBLAS loaded")


def _blas_threads() -> list[int]:
    return [get() for _, get in frac.harness._openblas()]


def _blas_threads_in_worker(job) -> list[int]:
    return _blas_threads()


@pytest.fixture
def two_blas_threads(monkeypatch):
    """The caller runs OpenBLAS on 2 threads, so that a pin to 1 shows."""
    for name in frac.harness._BLAS_ENV:
        monkeypatch.delenv(name, raising=False)
    saved = frac.harness._set_blas_threads(2)
    yield
    for set_, n in saved:
        set_(n)


# each driver with a kernel it calls while it works
PINNED = [
    pytest.param(lambda: run_hit_rate(tiny_radar(), [10.0], trials=2),
                 frac.harness, "_hit_rate_trial", id="run_hit_rate"),
    pytest.param(lambda: run_phase_transition_empirical(tiny_radar(), [1, 2], trials=2),
                 frac.harness.phase_transition, "recovery_trial",
                 id="run_phase_transition_empirical"),
    pytest.param(lambda: frac.harness.run_phase_transition_sweep(
                     tiny_radar(), parse_variants(tiny_radar(), "base"), [1], trials=1),
                 frac.harness.phase_transition, "recovery_trial",
                 id="run_phase_transition_sweep"),
    pytest.param(lambda: run_comm_ber(tiny_comm(), [10.0], channels=1, draws=2),
                 frac.harness.comm, "ber_curve", id="run_comm_ber"),
    pytest.param(lambda: run_comm_rate(tiny_comm(), [10.0], channels=1, draws=2),
                 frac.harness.comm, "rate_curve", id="run_comm_rate"),
    pytest.param(lambda: run_ambiguity(tiny_radar(), points=3, mc_cpis=1),
                 frac.harness, "expected_af", id="run_ambiguity"),
    pytest.param(lambda: run_recovery_map(tiny_radar(), reference_scene(tiny_radar())),
                 frac.harness, "build_dictionary", id="run_recovery_map"),
]


@needs_openblas
@pytest.mark.parametrize("run, module, kernel", PINNED)
def test_drivers_run_on_one_blas_thread_and_restore_the_callers(
        run, module, kernel, two_blas_threads, monkeypatch):
    seen = []
    original = getattr(module, kernel)

    def spy(*args, **kwargs):
        seen.append(_blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, kernel, spy)
    run()
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert _blas_threads() == [2] * len(seen[0])


@needs_openblas
@pytest.mark.parametrize("run, module, kernel", PINNED)
def test_a_driver_that_raises_restores_the_callers_blas_threads(
        run, module, kernel, two_blas_threads, monkeypatch):
    def fails(*args, **kwargs):
        assert _blas_threads()[0] == 1
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(module, kernel, fails)
    with pytest.raises(RuntimeError, match="kernel failed"):
        run()
    assert set(_blas_threads()) == {2}


@needs_openblas
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_blas_thread_count_set_by_the_user_is_left_alone(name, two_blas_threads, monkeypatch):
    seen = []
    original = frac.harness.comm.ber_curve

    def spy(*args, **kwargs):
        seen.append(_blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setenv(name, "2")
    monkeypatch.setattr(frac.harness.comm, "ber_curve", spy)
    run_comm_ber(tiny_comm(), [10.0], channels=1, draws=2)
    assert seen and all(set(counts) == {2} for counts in seen)


@needs_openblas
def test_pool_workers_run_on_one_blas_thread(two_blas_threads):
    counts = frac.harness._map_trials(_blas_threads_in_worker, [0, 1], 2)
    assert all(set(c) == {1} for c in counts)
    assert set(_blas_threads()) == {2}


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_leaves_the_callers_environment_and_blas_threads(workers):
    env, threads = dict(os.environ), _blas_threads()
    run_hit_rate(tiny_radar(), [10.0], trials=4, workers=workers)
    run_phase_transition_empirical(tiny_radar(), [1, 2], trials=2, workers=workers)
    assert dict(os.environ) == env and _blas_threads() == threads


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

def test_resolution_report():
    rows = resolution_report(reference_config())
    row = rows[0]
    assert row["range_resolution_m"] == pytest.approx(1.5)
    assert row["velocity_resolution_mps"] == pytest.approx(1.0, abs=1e-2)
    assert row["angle_resolution_deg"] == pytest.approx(14.48, abs=0.01)
    assert row["coarse_cell_m"] == pytest.approx(12.0)
    assert row["max_range_m"] == pytest.approx(304.41, abs=0.01)


def test_hw_report_reference():
    cfg = reference_config()
    rows, formulas = hw_report(cfg)
    by = {r["quantity"]: r for r in rows}
    assert by["rf_modules"]["frac"] == 3
    assert by["rf_modules"]["benchmark"] == 8
    assert by["sampling_rate_hz"]["ratio"] == pytest.approx(8.0)
    assert by["samples_per_pri"]["ratio"] == pytest.approx(
        cfg.P * cfg.M / cfg.K
    )
    assert any("K + Q_r" in f for f in formulas)
