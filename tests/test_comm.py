"""Downlink chain: waveforms, channel statistics, decoders, BER and rate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve
from scipy.special import logsumexp

from frac.comm import (
    ber_curve,
    baseband_waveforms,
    build_psi,
    channel_tap_power,
    enumerate_symbols,
    ml_decode,
    rate_curve,
    sample_channel,
    selection_to_symbol,
    sigma_for_comm_snr,
    sod_decode,
    symbol_to_selection,
    transmit,
)
from frac.comm import (
    _channel_gram,
    _decide,
    _gram_factors,
    _sod_groups,
    _symbol_gram,
    _waveform_correlations,
)
from frac.config import reference_config
from frac.im_codec import encode, random_selection_sequence


def reference_ml(y, psi, symbols):
    """Sample-domain minimum distance over the alphabet."""
    T = psi @ symbols.E
    scores = np.sum(np.abs(T) ** 2, axis=0) - 2.0 * np.real(T.conj().T @ y)
    return int(np.argmin(scores))


def detected_carriers(y, psi, cfg):
    """The K carriers with the largest normalized best-element response."""
    u = psi.conj().T @ y
    colnorm = np.sqrt(np.real(np.sum(np.abs(psi) ** 2, axis=0)))
    gv = (np.abs(u) / np.maximum(colnorm, 1e-300)).reshape(cfg.M, cfg.P)
    return tuple(sorted(int(i) for i in np.argsort(-gv.max(axis=1), kind="stable")[: cfg.K]))


def reference_sod(y, psi, cfg, symbols):
    """Sample-domain carrier-set detection, then ML over the detected set."""
    det = detected_carriers(y, psi, cfg)
    cand = [i for i, cs in enumerate(symbols.carrier_sets) if cs == det]
    if not cand:
        cand = list(range(symbols.n_words))
    T = psi @ symbols.E[:, cand]
    scores = np.sum(np.abs(T) ** 2, axis=0) - 2.0 * np.real(T.conj().T @ y)
    return int(cand[int(np.argmin(scores))])


def small_config(**overrides):
    """4 MHz sweep over 4 carriers: U = 200 samples, 16-word alphabet."""
    params = dict(M=4, P=2, Q_c=2, J=2, B=4.0e6, n_taps=4)
    params.update(overrides)
    return reference_config(**params)


@pytest.fixture(scope="module")
def cfg():
    return small_config()


@pytest.fixture(scope="module")
def h(cfg):
    return sample_channel(cfg, np.random.default_rng(100))


@pytest.fixture(scope="module")
def psi(cfg, h):
    return build_psi(h, cfg)


def test_waveforms_unit_modulus_and_orthogonal(cfg):
    S = baseband_waveforms(cfg)
    assert S.shape == (cfg.M, cfg.U)
    np.testing.assert_allclose(np.abs(S), 1.0, atol=1e-12)
    gram = S @ S.conj().T
    off = gram - np.diag(np.diag(gram))
    # U is a multiple of M, so the sub-band tones are exactly orthogonal
    assert cfg.U % cfg.M == 0
    assert np.abs(off).max() < 1e-8 * cfg.U
    np.testing.assert_allclose(np.diag(gram).real, cfg.U, rtol=1e-12)


def test_channel_tap_statistics(cfg):
    draws = [sample_channel(cfg, np.random.default_rng(s)) for s in range(400)]
    h = np.stack(draws)                                     # (400, P, Q_c, taps)
    assert h.shape[1:] == (cfg.P, cfg.Q_c, cfg.n_taps)
    var = np.mean(np.abs(h) ** 2, axis=(0, 1, 2))
    np.testing.assert_allclose(var, np.exp(-np.arange(cfg.n_taps)), rtol=0.1)
    assert channel_tap_power(cfg) == pytest.approx(np.exp(-np.arange(cfg.n_taps)).sum())


def test_build_psi_matches_direct_convolution(cfg):
    h = sample_channel(cfg, np.random.default_rng(1))
    S = baseband_waveforms(cfg)
    psi = build_psi(h, cfg)
    assert psi.shape == (cfg.Q_c * cfg.U, cfg.M * cfg.P)
    for m, p, qc in [(0, 0, 0), (2, 1, 1), (3, 0, 1)]:
        want = np.convolve(S[m], h[p, qc])[: cfg.U]
        got = psi[qc * cfg.U : (qc + 1) * cfg.U, m * cfg.P + p]
        np.testing.assert_allclose(got, want, atol=1e-10)
    with pytest.raises(ValueError):
        build_psi(h[:1], cfg)


def test_symbol_round_trip(cfg):
    rng = np.random.default_rng(2)
    for sel in random_selection_sequence(cfg, rng, n_pulses=20):
        e = selection_to_symbol(sel, cfg)
        assert np.count_nonzero(e) == cfg.K
        back = symbol_to_selection(e, cfg)
        assert set(zip(back.carriers, back.antennas)) == set(
            zip(sel.carriers, sel.antennas)
        )
        np.testing.assert_allclose(
            selection_to_symbol(back, cfg), e, atol=1e-12
        )


def test_symbol_example_word():
    # the 3-bit configuration: word "110" activates entry m*P + p = 3
    cfg3 = reference_config(M=2, K=1, P=2, J=2)
    e = selection_to_symbol(encode("110", cfg3), cfg3)
    want = np.zeros(4, dtype=complex)
    want[3] = 1.0
    np.testing.assert_array_equal(e, want)


def test_symbol_to_selection_rejects_bad(cfg):
    with pytest.raises(ValueError):
        symbol_to_selection(np.zeros(cfg.M * cfg.P), cfg)
    e = np.zeros(cfg.M * cfg.P, dtype=complex)
    e[0] = 0.5                                              # not unit modulus
    with pytest.raises(ValueError):
        symbol_to_selection(e, cfg)
    with pytest.raises(ValueError):
        symbol_to_selection(np.zeros(3), cfg)


def test_enumerate_symbols(cfg):
    symbols = enumerate_symbols(cfg)
    assert symbols.n_words == 1 << cfg.n_total_bits
    assert symbols.n_bits == cfg.n_total_bits
    assert symbols.E.shape == (cfg.M * cfg.P, symbols.n_words)
    # bit rows match the words, columns carry K active entries
    for i in (0, 5, symbols.n_words - 1):
        assert "".join(str(b) for b in symbols.bits[i]) == symbols.words[i]
        assert np.count_nonzero(symbols.E[:, i]) == cfg.K


def test_enumerate_symbols_caps_alphabet():
    big = reference_config(M=32, K=8, P=16, J=16)
    with pytest.raises(ValueError):
        enumerate_symbols(big)


def test_sigma_for_comm_snr(cfg):
    sigma = sigma_for_comm_snr(cfg, 7.0)
    lin = cfg.K * cfg.Q_c * cfg.U * channel_tap_power(cfg) / sigma**2
    assert 10 * math.log10(lin) == pytest.approx(7.0)


def test_transmit(cfg, psi):
    e = enumerate_symbols(cfg).E[:, 3]
    y0 = transmit(e, psi, 0.0)
    np.testing.assert_array_equal(y0, psi @ e)
    rng = np.random.default_rng(3)
    y1 = transmit(e, psi, 2.0, rng)
    noise = y1 - y0
    assert np.var(noise) == pytest.approx(4.0, rel=0.1)
    with pytest.raises(ValueError):
        transmit(e, psi, 1.0)


def test_noiseless_decoding_exhaustive(cfg, psi):
    symbols = enumerate_symbols(cfg)
    for idx in range(symbols.n_words):
        y = transmit(symbols.E[:, idx], psi, 0.0)
        assert ml_decode(y, psi, symbols) == idx
        assert sod_decode(y, psi, cfg, symbols) == idx


def _compare_with_reference(cfg, h, snr_db, draws, rng):
    """Gram-domain batch and public decoders against the sample-domain
    reference on one noise realization; returns the count of draws whose
    detected carrier set lies outside the alphabet."""
    symbols = enumerate_symbols(cfg)
    psi = build_psi(h, cfg)
    # the batch sees Gamma from the waveform correlations, as ber_curve does
    gamma = _channel_gram(h, _waveform_correlations(cfg), cfg)
    chol, colnorm = _gram_factors(gamma)
    GE, q = _symbol_gram(gamma, symbols)
    sigma = sigma_for_comm_snr(cfg, snr_db)
    t_idx = rng.integers(0, symbols.n_words, draws)
    direct_ml, direct_sod, single_ml, single_sod, zs = [], [], [], [], []
    outside = 0
    for t in t_idx:
        y = transmit(symbols.E[:, t], psi, sigma, rng)
        direct_ml.append(reference_ml(y, psi, symbols))
        direct_sod.append(reference_sod(y, psi, cfg, symbols))
        single_ml.append(ml_decode(y, psi, symbols))
        single_sod.append(sod_decode(y, psi, cfg, symbols))
        outside += detected_carriers(y, psi, cfg) not in symbols.carrier_sets
        w = y - psi @ symbols.E[:, t]
        # express Psi^H w in the chol basis so the batch sees the same noise
        zs.append(np.linalg.solve(chol, psi.conj().T @ w) / sigma)
    u = GE[:, t_idx] + sigma * (chol @ np.array(zs).T)
    dec = _decide(cfg, symbols, q, colnorm, u, ("ml", "sod"), _sod_groups(symbols))
    np.testing.assert_array_equal(dec["ml"], direct_ml)
    np.testing.assert_array_equal(dec["sod"], direct_sod)
    assert single_ml == direct_ml
    assert single_sod == direct_sod
    return outside


def test_gram_batch_matches_direct_decoders(cfg, h):
    # feed the Gram-domain batch the exact noise realization of the
    # sample-domain reference; decisions must agree decision-by-decision, and
    # the public decoders (batches of one) must agree too
    _compare_with_reference(cfg, h, 6.0, 40, np.random.default_rng(4))


def test_gram_batch_sod_falls_back_outside_alphabet():
    # C(6, 2) = 15 carrier pairs, 8 encodable: at low SNR some detected pairs
    # are outside the alphabet and SOD keeps the full-search decision
    cfg = small_config(M=6, K=2, P=4)
    h = sample_channel(cfg, np.random.default_rng(9))
    outside = _compare_with_reference(cfg, h, -4.0, 60, np.random.default_rng(10))
    assert outside > 0


def test_ber_curve_shape_and_determinism(cfg):
    pts = ber_curve(cfg, [0.0, 8.0], channels=3, draws=30, seed=5)
    schemes = {p.scheme for p in pts}
    assert schemes == {"frac-ml", "frac-sod"}
    assert len(pts) == 4
    again = ber_curve(cfg, [0.0, 8.0], channels=3, draws=30, seed=5)
    assert [(p.ber, p.bit_errors) for p in again] == [
        (p.ber, p.bit_errors) for p in pts
    ]


def test_ber_improves_with_snr_and_ml_beats_sod(cfg):
    pts = ber_curve(cfg, [0.0, 14.0], channels=8, draws=120, seed=6)
    by = {(p.scheme, p.snr_db): p for p in pts}
    assert by[("frac-ml", 0.0)].ber > by[("frac-ml", 14.0)].ber
    assert by[("frac-sod", 0.0)].ber > by[("frac-sod", 14.0)].ber
    # the restricted search can only lose against full ML
    for snr in (0.0, 14.0):
        assert by[("frac-ml", snr)].bit_errors <= by[("frac-sod", snr)].bit_errors


def test_rate_curve_bounds_and_saturation(cfg):
    pts = rate_curve(cfg, [-20.0, 0.0, 35.0], channels=4, draws=60, seed=7)
    cap = cfg.n_total_bits
    for p in pts:
        assert p.rate_bits <= cap + 1e-9
    vals = [p.rate_bits for p in pts]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] == pytest.approx(cap, abs=0.05)
    assert vals[0] < 1.0


def test_rate_curve_deterministic(cfg):
    a = rate_curve(cfg, [5.0], channels=2, draws=20, seed=8)
    b = rate_curve(cfg, [5.0], channels=2, draws=20, seed=8)
    assert a == b


# ----------------------------------------------------------------------
# channel Gram from waveform correlations
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    M=st.integers(1, 6),
    P=st.integers(1, 4),
    Q_c=st.integers(1, 3),
    U=st.integers(1, 40),
    n_taps=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
@example(M=1, P=1, Q_c=1, U=1, n_taps=1, seed=0)       # PSK baseline, one sample
@example(M=1, P=1, Q_c=4, U=5, n_taps=8, seed=1)       # PSK baseline, taps past the symbol
@example(M=3, P=2, Q_c=2, U=1, n_taps=4, seed=2)       # one sample, several taps
def test_channel_gram_matches_psi_gram(M, P, Q_c, U, n_taps, seed):
    # U comm samples per 50 us symbol
    cfg = reference_config(M=M, K=1, P=P, Q_c=Q_c, n_taps=n_taps, F_s_comm=(U + 0.5) / 50e-6)
    assert cfg.U == U
    h = sample_channel(cfg, np.random.default_rng(seed))
    psi = build_psi(h, cfg)
    S = baseband_waveforms(cfg)
    for m in range(M):
        for p in range(P):
            for qc in range(Q_c):
                np.testing.assert_allclose(psi[qc * U:(qc + 1) * U, m * P + p],
                                           np.convolve(S[m], h[p, qc])[:U], atol=1e-12)
    want = psi.conj().T @ psi
    got = _channel_gram(h, _waveform_correlations(cfg), cfg)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# The Monte Carlo bodies that built Psi for every channel, kept as the
# reference the Gram-from-correlations path must reproduce.

def reference_psi(h, cfg):
    S = baseband_waveforms(cfg)
    out = fftconvolve(S[:, None, None, :], h[None, :, :, :], axes=-1)[..., : cfg.U]
    return np.ascontiguousarray(
        out.transpose(2, 3, 0, 1).reshape(cfg.Q_c * cfg.U, cfg.M * cfg.P)
    )


def reference_draw_channel(cfg, symbols, draws, rng):
    psi = reference_psi(sample_channel(cfg, rng), cfg)
    gamma = psi.conj().T @ psi
    chol, colnorm = _gram_factors(gamma)
    t_idx = rng.integers(0, symbols.n_words, draws)
    noise_unit = (
        rng.standard_normal((gamma.shape[0], draws))
        + 1j * rng.standard_normal((gamma.shape[0], draws))
    ) / math.sqrt(2.0)
    GE, q = _symbol_gram(gamma, symbols)
    return GE, q, colnorm, t_idx, chol @ noise_unit


def reference_ber_curve(cfg, snr_db_list, channels, draws, decoders, seed):
    """(scheme, snr, bit errors, stderr) per point, one decision call per SNR."""
    symbols = enumerate_symbols(cfg)
    groups = _sod_groups(symbols)
    errs = {d: np.zeros(len(snr_db_list), dtype=np.int64) for d in decoders}
    per_channel = {d: np.zeros((channels, len(snr_db_list))) for d in decoders}
    nbits = symbols.n_bits
    for ch in range(channels):
        GE, q, colnorm, t_idx, noise = reference_draw_channel(
            cfg, symbols, draws, np.random.default_rng([seed, 7001, ch])
        )
        for si, snr in enumerate(snr_db_list):
            u = GE[:, t_idx] + sigma_for_comm_snr(cfg, snr) * noise
            dec = _decide(cfg, symbols, q, colnorm, u, decoders, groups)
            for name, d_idx in dec.items():
                nerr = int(np.sum(symbols.bits[t_idx] != symbols.bits[d_idx]))
                errs[name][si] += nerr
                per_channel[name][ch, si] = nerr / (draws * nbits)
    return [
        (name, snr, int(errs[name][si]),
         float(np.std(per_channel[name][:, si], ddof=1) / math.sqrt(channels)))
        for name in decoders for si, snr in enumerate(snr_db_list)
    ]


def reference_rate_curve(cfg, snr_db_list, channels, draws, seed):
    """(snr, rate, stderr) per point, one scipy log-sum-exp per SNR."""
    symbols = enumerate_symbols(cfg)
    nE = symbols.n_words
    per_channel = np.zeros((channels, len(snr_db_list)))
    for ch in range(channels):
        GE, q, _, t_idx, noise = reference_draw_channel(
            cfg, symbols, draws, np.random.default_rng([seed, 7101, ch])
        )
        S = symbols.E.conj().T @ GE
        d2 = q[:, None] + q[None, :] - 2.0 * np.real(S)
        proj = symbols.E.conj().T @ noise
        for si, snr in enumerate(snr_db_list):
            sigma = sigma_for_comm_snr(cfg, snr)
            rv = np.real(proj) * sigma
            dt = d2[t_idx, :].T + 2.0 * (rv[t_idx, np.arange(draws)][None, :] - rv)
            lse = logsumexp(-dt / (sigma * sigma), axis=0)
            per_channel[ch, si] = float(np.mean(math.log2(nE) - lse / math.log(2.0)))
    return [
        (snr, float(np.mean(per_channel[:, si])),
         float(np.std(per_channel[:, si], ddof=1) / math.sqrt(channels)))
        for si, snr in enumerate(snr_db_list)
    ]


@pytest.mark.parametrize("overrides, decoders, seed", [
    ({}, ("ml", "sod"), 11),
    (dict(M=6, K=2, P=4), ("sod", "ml"), 12),               # SOD falls back
    (dict(M=1, K=1, P=1, J=16), ("ml",), 13),               # PSK baseline
    (dict(n_taps=12, Q_c=1), ("ml", "sod"), 14),
])
def test_ber_curve_matches_psi_reference(overrides, decoders, seed):
    cfg = small_config(**overrides)
    snrs = [-4.0, 0.0, 4.0, 8.0, 12.0]
    pts = ber_curve(cfg, snrs, channels=5, draws=40, decoders=decoders, seed=seed)
    want = reference_ber_curve(cfg, snrs, 5, 40, decoders, seed)
    assert [(p.scheme, p.snr_db, p.bit_errors) for p in pts] == [
        (f"frac-{name}", snr, n) for name, snr, n, _ in want
    ]
    assert sum(n for *_, n, _ in want) > 0
    np.testing.assert_allclose([p.stderr for p in pts], [se for *_, se in want],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("overrides, seed", [
    ({}, 21),
    (dict(J=4), 22),
    (dict(M=1, K=1, P=1, J=8), 23),
])
def test_rate_curve_matches_psi_reference(overrides, seed):
    cfg = small_config(**overrides)
    snrs = [-10.0, 0.0, 10.0]
    pts = rate_curve(cfg, snrs, channels=4, draws=30, seed=seed)
    want = reference_rate_curve(cfg, snrs, 4, 30, seed)
    assert [p.snr_db for p in pts] == [snr for snr, _, _ in want]
    np.testing.assert_allclose([p.rate_bits for p in pts], [r for _, r, _ in want],
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose([p.stderr for p in pts], [se for *_, se in want],
                               rtol=1e-9, atol=1e-12)


# ----------------------------------------------------------------------
# bad arguments
# ----------------------------------------------------------------------

@pytest.mark.parametrize("decoders", [("ML",), ("ml", "xyz"), ("",)])
def test_ber_curve_rejects_unknown_decoder(cfg, decoders):
    with pytest.raises(ValueError, match="unknown decoder"):
        ber_curve(cfg, [0.0], channels=1, draws=2, decoders=decoders)


@pytest.mark.parametrize("curve", [ber_curve, rate_curve])
@pytest.mark.parametrize("channels, draws, message", [
    (0, 5, "channels must be at least 1, got 0"),
    (-2, 5, "channels must be at least 1, got -2"),
    (2, 0, "draws must be at least 1, got 0"),
    (2, -1, "draws must be at least 1, got -1"),
])
def test_curves_reject_nonpositive_counts(cfg, curve, channels, draws, message):
    with pytest.raises(ValueError, match=message):
        curve(cfg, [0.0], channels=channels, draws=draws)
