"""Acceptance gate.

Eleven end-to-end checks at full scale, one verdict line each.  These run
slower than the unit suite (the empirical phase transition alone takes a
few minutes on one core); run them with plain pytest, the verdict lines
bypass output capture.
"""

import math

import numpy as np
from scipy import integrate

from frac import phase_transition as pt
from frac.comm import (
    baseband_waveforms,
    build_psi,
    enumerate_symbols,
    ml_decode,
    sample_channel,
    sod_decode,
    transmit,
)
from frac.config import reference_config
from frac.harness import (
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
)
from frac.im_codec import decode, encode
from frac.radar_recovery import build_dictionary, grid_to_physical
from frac.radar_sim import (
    Target,
    cell_center,
    extract_cell,
    pulse_compress,
    simulate_cell_direct,
    simulate_fast_time,
)
from frac.im_codec import random_selection_sequence


def _verdict(capsys, num, label, ok, detail=""):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_bit_budgets(capsys):
    base = reference_config()
    wide = reference_config(K=2)
    ok = (
        (base.n_im_bits, base.n_pm_bits, base.n_total_bits) == (5, 1, 6)
        and (wide.n_im_bits, wide.n_pm_bits, wide.n_total_bits) == (7, 2, 9)
    )
    _verdict(capsys, 1, "bit budgets", ok,
             f"K=1 {base.n_total_bits} bits, K=2 {wide.n_total_bits} bits")


def test_criterion_02_resolutions(capsys):
    row = resolution_report(reference_config())[0]
    ok = (
        abs(row["range_resolution_m"] - 1.5) <= 1e-3
        and abs(row["velocity_resolution_mps"] - 1.0) <= 1e-2
        and abs(row["angle_resolution_deg"] - 14.48) <= 0.01
    )
    _verdict(capsys, 2, "resolutions", ok,
             f'{row["range_resolution_m"]:.4f} m, '
             f'{row["velocity_resolution_mps"]:.4f} m/s, '
             f'{row["angle_resolution_deg"]:.4f} deg')


def test_criterion_03_mc_ambiguity(capsys):
    cfg = reference_config()
    peak = cfg.N * cfg.K * cfg.Q_r
    worst = 0.0
    for axis in ("range", "velocity", "angle"):
        rows = run_ambiguity(cfg, axis=axis, points=64, extent=1.0,
                             mc_cpis=10_000, seed=3)
        dev = max(abs(r["af_mc"] - r["af_expected"]) for r in rows)
        worst = max(worst, dev)
    ok = worst <= 0.02 * peak
    _verdict(capsys, 3, "monte carlo ambiguity", ok,
             f"max |mc - closed form| = {worst / peak:.3%} of peak over 10^4 CPIs")


def test_criterion_04_threshold_table(capsys):
    cfg = reference_config()
    variants = parse_variants(cfg, "base,K=2,M=4,M=16,P=2,P=8,N=16,N=24")
    rows = run_phase_transition_theory(cfg, variants)
    want = [13.0, 30.2, 15.1, 11.4, 15.1, 11.4, 6.5, 9.8]
    got = [r["l_star"] for r in rows]
    ok = all(abs(g - w) <= 0.15 for g, w in zip(got, want)) and len(got) == 8
    _verdict(capsys, 4, "threshold table", ok,
             "L* = " + ", ".join(f"{g:.3f}" for g in got))


def test_criterion_05_empirical_phase_transition(capsys):
    cfg = reference_config(N=16)
    theory = pt.solve_threshold(cfg.n1, cfg.n2).l_star
    l_values = list(range(1, 14))
    rows, crossing = run_phase_transition_empirical(
        cfg, l_values, trials=200, seed=0, workers=1
    )
    rate = {r["l_sparse"]: r["success_rate"] for r in rows}
    ok = (
        crossing is not None
        and abs(crossing - theory) <= 0.2 * theory
        and rate[3] >= 0.95
        and rate[13] <= 0.10
    )
    shown = "censored" if crossing is None else f"{crossing:.2f}"
    _verdict(capsys, 5, "empirical phase transition", ok,
             f"crossing {shown} vs theory {theory:.2f}, "
             f"rate(3)={rate[3]:.2f}, rate(13)={rate[13]:.2f}")


def test_criterion_06_noiseless_scene_recovery(capsys):
    cfg = reference_config(K=2)
    scene = reference_scene(cfg)
    true_rows, rec_rows = run_recovery_map(
        cfg, scene, snr_db=None, solver="omp", full_chain=False
    )
    want = sorted((r["r_m"], r["v_mps"], r["theta_deg"]) for r in true_rows)
    got = sorted((r["r_m"], r["v_mps"], r["theta_deg"]) for r in rec_rows)
    ok = (
        len(rec_rows) == 3
        and np.allclose(got, want, atol=1e-9)
        and all(abs(r["amp"] - 1.0) <= 1e-9 for r in rec_rows)
        and all(abs(r["phase_rad"]) <= 1e-9 for r in rec_rows)
    )
    _verdict(capsys, 6, "noiseless scene recovery", ok,
             "3 of 3 targets exact (position, gain, phase)")


def test_criterion_07_hit_rate_curve(capsys):
    cfg = reference_config(K=2)
    snrs = [float(s) for s in range(0, 21, 2)]
    pts = run_hit_rate(cfg, snrs, trials=1000, seed=0)
    rates = [p.hit_rate for p in pts]
    monotone = all(b >= a for a, b in zip(rates, rates[1:]))
    high = all(p.hit_rate >= 0.99 for p in pts if p.snr_db >= 14.0)
    ok = monotone and high
    _verdict(capsys, 7, "hit rate curve", ok,
             f"monotone={monotone}, rate@14dB={rates[snrs.index(14.0)]:.3f}")


def test_criterion_08_hit_rate_orderings(capsys):
    def point(**kw):
        cfg = reference_config(**kw)
        return run_hit_rate(cfg, [10.0], trials=1000, seed=7,
                            scene_mode="random", n_targets=3)[0]

    k1, k2, m16 = point(K=1), point(K=2), point(M=16, K=2)

    def se_gap(a, b):
        se = math.sqrt(
            (a.hit_rate * (1 - a.hit_rate) + b.hit_rate * (1 - b.hit_rate))
            / a.trials
        )
        return abs(a.hit_rate - b.hit_rate) / se

    ok = (
        k2.hit_rate > k1.hit_rate
        and se_gap(k1, k2) > 3.0
        and k2.hit_rate > m16.hit_rate
        and se_gap(k2, m16) > 3.0
    )
    _verdict(capsys, 8, "hit rate orderings", ok,
             f"K=1 {k1.hit_rate:.3f} < K=2 {k2.hit_rate:.3f} > M=16 "
             f"{m16.hit_rate:.3f}; gaps {se_gap(k1, k2):.1f} and "
             f"{se_gap(k2, m16):.1f} SE")


def _snr_at_ber(points, level=1e-2):
    """Log-linear interpolation of the first downward crossing of `level`."""
    for (s0, b0), (s1, b1) in zip(points, points[1:]):
        if b0 >= level > b1 and b1 > 0.0:
            t = (math.log10(b0) - math.log10(level)) / (
                math.log10(b0) - math.log10(b1)
            )
            return s0 + t * (s1 - s0)
    raise AssertionError(f"no {level} crossing in {points}")


def test_criterion_09_comm_ber(capsys):
    cfg = reference_config()

    # noiseless: both decoders invert every word of the 6-bit alphabet
    symbols = enumerate_symbols(cfg)
    psi = build_psi(sample_channel(cfg, np.random.default_rng(11)), cfg)
    exact = 0
    for idx in range(symbols.n_words):
        y = transmit(symbols.E[:, idx], psi, sigma_c=0.0)
        if ml_decode(y, psi, symbols) == idx and sod_decode(y, psi, cfg, symbols) == idx:
            exact += 1
    noiseless_ok = exact == 2 ** cfg.n_total_bits

    snrs = [float(s) for s in range(0, 21, 2)]
    pts = run_comm_ber(cfg, snrs, channels=100, draws=100,
                       schemes=("frac-ml", "frac-sod", "psk64-ml"), seed=0)
    curve = {
        scheme: [(p.snr_db, p.ber) for p in pts if p.scheme == scheme]
        for scheme in ("frac-ml", "frac-sod", "psk64-ml")
    }
    trials_ok = all(p.messages >= 10_000 for p in pts)
    gap = _snr_at_ber(curve["frac-sod"]) - _snr_at_ber(curve["frac-ml"])
    gap_ok = 1.0 <= gap <= 3.0
    psk_ok = all(
        fm[1] < pk[1] for fm, pk in zip(curve["frac-ml"], curve["psk64-ml"])
    )
    ok = noiseless_ok and trials_ok and gap_ok and psk_ok
    _verdict(capsys, 9, "communications ber", ok,
             f"noiseless {exact}/64 exact, SOD-ML gap {gap:.2f} dB at 1e-2, "
             f"ML below 64-PSK at all {len(snrs)} points")


def test_criterion_10_achievable_rate(capsys):
    # narrowband convention: B = 200 kHz so one symbol spans U = 10 samples,
    # which keeps the Monte Carlo average over channel draws exact to < 0.1 bit
    cfg = reference_config(B=200e3, F_s_comm=200e3)
    snrs = [30.0, 35.0, 40.0]
    pts = run_comm_rate(cfg, snrs, channels=50, draws=40,
                        schemes=("frac-j2", "frac-j4"), seed=0)
    sat = {
        scheme: [p for p in pts if p.scheme == scheme]
        for scheme in ("frac-j2", "frac-j4")
    }
    cap = {"frac-j2": 6.0, "frac-j4": 7.0}
    sat_ok = all(
        abs(p.rate_bits - cap[s]) <= 0.1 for s in sat for p in sat[s]
    )
    bound_ok = all(
        p.rate_bits <= cap[s] + 3.0 * p.stderr + 1e-9 for s in sat for p in sat[s]
    )
    ok = sat_ok and bound_ok
    _verdict(capsys, 10, "achievable rate", ok,
             f"J=2 -> {sat['frac-j2'][0].rate_bits:.3f}, "
             f"J=4 -> {sat['frac-j4'][0].rate_bits:.3f} bits/symbol at 30 dB")


def test_criterion_11_property_suite(capsys):
    checks = []

    # codec: exhaustive round trip over both reference alphabets
    for cfg in (reference_config(), reference_config(K=2)):
        n = cfg.n_total_bits
        checks.append(all(
            decode(encode(format(w, f"0{n}b"), cfg), cfg) == format(w, f"0{n}b")
            for w in range(2 ** n)
        ))

    # dictionary columns match the echo generator
    cfg = reference_config(K=2)
    rng = np.random.default_rng(5)
    sels = random_selection_sequence(cfg, rng)
    dic = build_dictionary(sels, cfg)
    errs = []
    for _ in range(6):
        flat = int(rng.integers(dic.A.shape[1]))
        r, v, theta = grid_to_physical(flat, 2, cfg)
        snap = simulate_cell_direct(
            [Target(r=r, v=v, theta=theta)], sels, cfg, sigma_r=0.0, g=2
        )
        beta = cfg.G * np.exp(-4j * np.pi * r * cfg.f_c / cfg.c)
        errs.append(np.abs(snap.reshape(-1) - beta * dic.A[:, flat]).max() / cfg.G)
    checks.append(max(errs) <= 1e-9)

    # fast-time chain equals the direct cell model at the coarse center
    scene = [Target(r=cell_center(2, cfg), v=3.0, theta=0.2, alpha=0.5 - 1j)]
    cube = simulate_fast_time(scene, sels, cfg, sigma_r=0.0)
    a = extract_cell(pulse_compress(cube), 2)
    b = simulate_cell_direct(scene, sels, cfg, sigma_r=0.0, g=2)
    checks.append(np.abs(a - b).max() <= 1e-9 * np.abs(b).max())

    # closed-form transition integral against numerical quadrature
    for beta in (0.0, 0.7, 1.9, 3.3):
        quad, _ = integrate.quad(
            lambda t: 2.0 * (t - beta) * math.exp(-t * t / 2.0), beta, np.inf
        )
        checks.append(abs(pt.pt_integral(beta) - quad) <= 1e-8)

    # convolution operator against direct np.convolve columns
    ccfg = reference_config(B=4e6, F_s_comm=4e6)
    h = sample_channel(ccfg, np.random.default_rng(2))
    psi = build_psi(h, ccfg)
    S = baseband_waveforms(ccfg)
    err = 0.0
    for m in range(ccfg.M):
        for p in range(ccfg.P):
            for q_c in range(ccfg.Q_c):
                direct = np.convolve(S[m], h[p, q_c])[: ccfg.U]
                block = psi[q_c * ccfg.U: (q_c + 1) * ccfg.U, m * ccfg.P + p]
                err = max(err, np.abs(block - direct).max())
    checks.append(err <= 1e-12)

    ok = all(checks)
    _verdict(capsys, 11, "property suite", ok,
             f"{sum(checks)}/{len(checks)} property groups hold")
