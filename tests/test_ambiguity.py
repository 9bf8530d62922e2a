"""Ambiguity kernels: peaks, nulls, the closed-form mean, MC convergence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frac.im_codec
from frac.ambiguity import dirichlet, expected_af, instantaneous_af, mc_mean_af
from frac.config import reference_config
from frac.im_codec import random_selection_sequence


@pytest.fixture(scope="module")
def cfg():
    return reference_config()


def test_dirichlet_integer_points():
    np.testing.assert_allclose(dirichlet(8, [0.0, 1.0, -2.0]), 8.0)
    np.testing.assert_allclose(dirichlet(5, 3.0), 5.0)


def test_dirichlet_nulls_and_values():
    # exact nulls at multiples of 1/L, and a known interior value
    L = 8
    xs = np.arange(1, L) / L
    np.testing.assert_allclose(dirichlet(L, xs), 0.0, atol=1e-9)
    x = 0.3
    assert dirichlet(L, x) == pytest.approx(np.sin(L * np.pi * x) / np.sin(np.pi * x))


def test_dirichlet_periodicity():
    xs = np.linspace(-0.49, 0.49, 21)
    np.testing.assert_allclose(dirichlet(7, xs), dirichlet(7, xs + 1.0), atol=1e-9)


def test_instantaneous_peak_and_modulus(cfg):
    sels = random_selection_sequence(cfg, np.random.default_rng(0))
    chi0 = instantaneous_af(cfg, sels, 0.0, 0.0, 0.0)
    assert chi0 == pytest.approx(cfg.N * cfg.K * cfg.Q_r)
    # |chi| never exceeds the peak
    rng = np.random.default_rng(1)
    offs = rng.uniform(-0.5, 0.5, size=(3, 40))
    vals = np.abs(instantaneous_af(cfg, sels, *offs))
    assert vals.max() <= cfg.N * cfg.K * cfg.Q_r + 1e-9


def test_instantaneous_conjugate_symmetry(cfg):
    sels = random_selection_sequence(cfg, np.random.default_rng(2))
    offs = np.random.default_rng(3).uniform(-0.5, 0.5, size=(3, 16))
    chi_p = instantaneous_af(cfg, sels, *offs)
    chi_m = instantaneous_af(cfg, sels, *(-offs))
    np.testing.assert_allclose(chi_m, chi_p.conj(), atol=1e-9)


def test_instantaneous_rejects_selections_off_the_config(cfg):
    # K=2 rows used to fail inside numpy's broadcasting, and an M=16 draw
    # inside a reshape; both now stop at the fit check
    for other, message in ((cfg.replace(K=2), r"shape \(32, 2\)"),
                           (cfg.replace(M=16), r"carrier indices span .* range\(0, 8\)")):
        sels = random_selection_sequence(other, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            instantaneous_af(cfg, sels, 0.0, 0.0, 0.0)


def test_expected_af_peak_and_nulls(cfg):
    assert expected_af(cfg, 0.0, 0.0, 0.0) == pytest.approx(cfg.N * cfg.K * cfg.Q_r)
    # first nulls along each axis at 1/M, 1/N, 1/(P*Q_r)
    assert expected_af(cfg, 1.0 / cfg.M, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert expected_af(cfg, 0.0, 1.0 / cfg.N, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert expected_af(cfg, 0.0, 0.0, 1.0 / cfg.Q) == pytest.approx(0.0, abs=1e-9)


def test_expected_af_known_value(cfg):
    # separable product at a sixteenth of the range axis
    x = 1.0 / 16.0
    want = (
        (cfg.K / (cfg.M * cfg.P))
        * abs(np.sin(cfg.M * np.pi * x) / np.sin(np.pi * x))
        * cfg.N
        * cfg.Q
    )
    assert expected_af(cfg, x, 0.0, 0.0) == pytest.approx(want)
    assert want == pytest.approx(41.00666, abs=1e-4)


def test_mc_mean_matches_closed_form(cfg):
    rng = np.random.default_rng(10)
    pts = np.linspace(-0.5, 0.5, 17)
    zeros = np.zeros_like(pts)
    got = np.abs(mc_mean_af(cfg, pts, zeros, zeros, n_cpi=3000, rng=rng))
    want = expected_af(cfg, pts, zeros, zeros)
    peak = cfg.N * cfg.K * cfg.Q_r
    assert np.max(np.abs(got - want)) < 0.03 * peak


def test_mc_velocity_axis_is_exact(cfg):
    # selection randomness never enters the velocity axis, so the MC mean
    # matches the closed form to roundoff with any number of draws
    pts = np.linspace(-0.45, 0.45, 9)
    zeros = np.zeros_like(pts)
    got = np.abs(mc_mean_af(cfg, zeros, pts, zeros, n_cpi=3, rng=np.random.default_rng(0)))
    np.testing.assert_allclose(got, expected_af(cfg, zeros, pts, zeros), atol=1e-8)


def test_mc_error_shrinks_with_draws(cfg):
    # sixteen times the draws should cut the range-axis deviation well
    # below half
    pts = np.linspace(-0.45, 0.45, 9)
    zeros = np.zeros_like(pts)
    want = expected_af(cfg, pts, zeros, zeros)

    def dev(n_cpi, seed):
        got = np.abs(
            mc_mean_af(cfg, pts, zeros, zeros, n_cpi=n_cpi, rng=np.random.default_rng(seed))
        )
        return np.sqrt(np.mean((got - want) ** 2))

    coarse = np.mean([dev(250, s) for s in range(4)])
    fine = np.mean([dev(4000, s) for s in range(4)])
    assert fine < coarse / 2.0


def test_mc_chunking_covers_all_draws(cfg):
    # at zero offset every CPI contributes exactly the peak, so any chunk
    # split must average to the peak exactly; a chunk-accounting slip would
    # show up as a scale error
    peak = cfg.N * cfg.K * cfg.Q_r
    for chunk in (64, 7, 1):
        got = mc_mean_af(
            cfg, 0.0, 0.0, 0.0, n_cpi=64, rng=np.random.default_rng(5), chunk=chunk
        )
        assert got == pytest.approx(peak, abs=1e-9)


@pytest.mark.parametrize("n_cpi, chunk, message", [
    (0, None, "n_cpi"),
    (-2, 4, "n_cpi"),
    (8, 0, "chunk"),
    (8, -1, "chunk"),
])
def test_mc_rejects_bad_counts_before_drawing(cfg, n_cpi, chunk, message):
    # chunk=0 used to loop forever and n_cpi=0 to return nan
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        mc_mean_af(cfg, 0.0, 0.0, 0.0, n_cpi=n_cpi, rng=rng, chunk=chunk)
    assert rng.bit_generator.state == state


def test_mc_deterministic_for_fixed_seed(cfg):
    pts = np.linspace(-0.4, 0.4, 5)
    zeros = np.zeros_like(pts)
    a = mc_mean_af(cfg, pts, zeros, zeros, n_cpi=32, rng=np.random.default_rng(5), chunk=8)
    b = mc_mean_af(cfg, pts, zeros, zeros, n_cpi=32, rng=np.random.default_rng(5), chunk=8)
    np.testing.assert_array_equal(a, b)


def test_mean_of_instantaneous_matches_expected(cfg):
    # averaging explicit CPI draws reproduces the closed form, tying the
    # two implementations together
    rng = np.random.default_rng(8)
    pts = np.array([0.05, 0.11, 0.21])
    zeros = np.zeros_like(pts)
    acc = np.zeros(pts.size, dtype=complex)
    n_draws = 1500
    for _ in range(n_draws):
        sels = random_selection_sequence(cfg, rng)
        acc += instantaneous_af(cfg, sels, pts, zeros, zeros)
    got = np.abs(acc / n_draws)
    want = expected_af(cfg, pts, zeros, zeros)
    np.testing.assert_allclose(got, want, atol=0.05 * cfg.N * cfg.K * cfg.Q_r)


def test_resolutions_reference(cfg):
    assert cfg.range_resolution == pytest.approx(1.5)
    assert cfg.velocity_resolution == pytest.approx(cfg.wavelength / (2 * cfg.N * cfg.T_0))
    assert math.degrees(cfg.angle_resolution) == pytest.approx(14.4775, abs=1e-3)


def _dense_mc_mean_af(cfg, df_r, df_v, df_t, n_cpi, rng, chunk=None):
    """Reference: one exp per CPI, pulse, slot and point over a (chunk, N, K,
    points) phase tensor, drawing the selections as mc_mean_af does."""
    df_r, df_v, df_t = np.broadcast_arrays(
        np.asarray(df_r, dtype=float), np.asarray(df_v, dtype=float), np.asarray(df_t, dtype=float)
    )
    shape = df_r.shape
    pts_r, pts_v, pts_t = df_r.reshape(-1), df_v.reshape(-1), df_t.reshape(-1)
    npts = pts_r.size
    if chunk is None:
        chunk = max(1, (1 << 24) // max(1, cfg.N * cfg.K * npts))
    qr_factor = np.exp(-2j * np.pi * np.arange(cfg.Q_r)[:, None] * pts_t[None, :]).sum(axis=0)
    n_phase = np.arange(cfg.N)[:, None] * pts_v[None, :]
    acc = np.zeros(npts, dtype=np.complex128)
    done = 0
    while done < n_cpi:
        c = min(chunk, n_cpi - done)
        m_sel = np.argsort(rng.random((c, cfg.N, cfg.M)), axis=-1)[..., : cfg.K]
        p_sel = np.argsort(rng.random((c, cfg.N, cfg.P)), axis=-1)[..., : cfg.K]
        phase = (
            m_sel[..., None] * pts_r
            + (cfg.Q_r * p_sel[..., None]) * pts_t
            + n_phase[None, :, None, :]
        )
        acc += np.exp(-2j * np.pi * phase).sum(axis=(1, 2)).sum(axis=0)
        done += c
    return ((acc / n_cpi) * qr_factor).reshape(shape)


def _loop_instantaneous_af(cfg, selections, df_r, df_v, df_t):
    """Reference: the defining sum over pulses n, slots k and receivers q_r."""
    m_idx, p_idx = selections.carriers, selections.antennas
    chi = 0.0
    for n in range(cfg.N):
        for k in range(cfg.K):
            for q in range(cfg.Q_r):
                chi = chi + np.exp(-2j * np.pi * (
                    m_idx[n, k] * df_r + n * df_v + (cfg.Q_r * p_idx[n, k] + q) * df_t
                ))
    return chi


_SMALL_CONFIGS = st.fixed_dictionaries({
    "N": st.sampled_from([2, 4, 8]),
    "M": st.sampled_from([2, 3, 4]),
    "K": st.integers(1, 2),
    "P": st.sampled_from([2, 4]),
    "Q_r": st.integers(1, 2),
})


@st.composite
def _offset_grids(draw):
    """A cut along one axis or a plane over two, with the others at zero."""
    points = draw(st.integers(1, 9))
    extent = draw(st.floats(0.1, 2.0))
    offs = np.linspace(-extent / 2.0, extent / 2.0, points)
    axes = draw(st.sampled_from([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]))
    grid = [np.zeros(1)] * 3
    if len(axes) == 1:
        grid[axes[0]] = offs
    else:
        grid[axes[0]] = offs[:, None]
        grid[axes[1]] = offs[None, :] + draw(st.floats(-0.5, 0.5))
    return grid


@given(_SMALL_CONFIGS, _offset_grids(), st.integers(1, 40),
       st.sampled_from([None, 1, 3, 7, 64]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mc_matches_dense_reference(params, grid, n_cpi, chunk, seed):
    cfg = reference_config(**params)
    got = mc_mean_af(cfg, *grid, n_cpi=n_cpi, rng=np.random.default_rng(seed), chunk=chunk)
    want = _dense_mc_mean_af(cfg, *grid, n_cpi=n_cpi, rng=np.random.default_rng(seed),
                             chunk=chunk)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * cfg.N * cfg.K * cfg.Q_r)


@given(_SMALL_CONFIGS, _offset_grids(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_instantaneous_matches_loop_reference(params, grid, seed):
    cfg = reference_config(**params)
    sels = random_selection_sequence(cfg, np.random.default_rng(seed))
    got = instantaneous_af(cfg, sels, *grid)
    want = np.broadcast_to(_loop_instantaneous_af(cfg, sels, *grid), got.shape)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * cfg.N * cfg.K * cfg.Q_r)


def test_mc_peak_memory_at_criterion_03_size(cfg):
    # criterion 03's cut: 64 points and 10^4 CPIs; a phase tensor over
    # CPIs, pulses and points would take hundreds of MiB
    pts = np.linspace(-0.5, 0.5, 64)
    zeros = np.zeros_like(pts)
    tracemalloc.start()
    try:
        mc_mean_af(cfg, pts, zeros, zeros, n_cpi=10_000, rng=np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_mc_peak_memory_at_one_point(cfg):
    # at one point the default chunk takes all 4*10^4 CPIs at once; holding
    # their (CPI, N, M) and (CPI, N, P) keys and argsorts peaked at 157 MiB,
    # while the carrier picks and one block of keys take a few MiB
    z = np.zeros(1)
    tracemalloc.start()
    try:
        mc_mean_af(cfg, z + 0.1, z, z, n_cpi=40_000, rng=np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("block", [1, 7, 64])
def test_key_blocks_do_not_change_the_draws(cfg, monkeypatch, block):
    # Generator.random fills sequentially, so drawing the keys in blocks of
    # any size leaves every seeded draw as it is
    pts = np.linspace(-0.4, 0.4, 3)
    zeros = np.zeros_like(pts)
    whole = mc_mean_af(cfg, pts, zeros, zeros, n_cpi=50, rng=np.random.default_rng(9), chunk=20)
    sels = random_selection_sequence(cfg, np.random.default_rng(9))
    monkeypatch.setattr(frac.im_codec, "_KEY_BLOCK", block)
    blocked = mc_mean_af(cfg, pts, zeros, zeros, n_cpi=50, rng=np.random.default_rng(9), chunk=20)
    np.testing.assert_array_equal(blocked, whole)
    assert random_selection_sequence(cfg, np.random.default_rng(9)) == sels
