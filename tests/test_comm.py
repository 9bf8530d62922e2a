"""Downlink chain: waveforms, channel statistics, decoders, BER and rate."""

import math

import numpy as np
import pytest

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
from frac.comm import _decide, _gram_factors, _sod_groups, _symbol_gram
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
def psi(cfg):
    h = sample_channel(cfg, np.random.default_rng(100))
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


def _compare_with_reference(cfg, psi, snr_db, draws, rng):
    """Gram-domain batch and public decoders against the sample-domain
    reference on one noise realization; returns the count of draws whose
    detected carrier set lies outside the alphabet."""
    symbols = enumerate_symbols(cfg)
    gamma, chol, colnorm = _gram_factors(psi)
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


def test_gram_batch_matches_direct_decoders(cfg, psi):
    # feed the Gram-domain batch the exact noise realization of the
    # sample-domain reference; decisions must agree decision-by-decision, and
    # the public decoders (batches of one) must agree too
    _compare_with_reference(cfg, psi, 6.0, 40, np.random.default_rng(4))


def test_gram_batch_sod_falls_back_outside_alphabet():
    # C(6, 2) = 15 carrier pairs, 8 encodable: at low SNR some detected pairs
    # are outside the alphabet and SOD keeps the full-search decision
    cfg = small_config(M=6, K=2, P=4)
    psi = build_psi(sample_channel(cfg, np.random.default_rng(9)), cfg)
    outside = _compare_with_reference(cfg, psi, -4.0, 60, np.random.default_rng(10))
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
