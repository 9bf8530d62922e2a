"""Echo synthesis: the two generation paths, noise bookkeeping, cube files."""

import json
import struct

import numpy as np
import pytest

from frac.config import reference_config
from frac.im_codec import SelectionSequence, random_selection_sequence
from frac.radar_recovery import build_dictionary
from frac.radar_sim import (
    Target,
    cell_center,
    cell_index,
    extract_cell,
    load_cube,
    pulse_compress,
    save_cube,
    sigma_for_snr,
    simulate_cell_direct,
    simulate_fast_time,
    unit_echo_alpha,
    validate_target,
)


@pytest.fixture(scope="module")
def cfg():
    return reference_config(K=2)


@pytest.fixture(scope="module")
def selections(cfg):
    return random_selection_sequence(cfg, np.random.default_rng(42))


def _grid_scene(cfg):
    """Three scatterers at the center of cell 2, on the fine grids."""
    lam = cfg.wavelength
    dv = lam / (2.0 * cfg.N * cfg.T_0)
    dsin = lam / (cfg.Q * cfg.d_r)
    g = 2
    r0 = cell_center(g, cfg)
    return [
        Target(r=r0, v=0.0, theta=0.0, alpha=0.7 - 0.2j),
        Target(r=r0, v=3.0 * dv, theta=np.arcsin(2.0 * dsin), alpha=0.5j),
        Target(r=r0, v=-2.0 * dv, theta=np.arcsin(-dsin), alpha=1.0),
    ], g


def test_cell_index_rounding(cfg):
    w = cfg.coarse_cell_width
    assert cell_index(0.0, cfg) == 0
    assert cell_index(0.49 * w, cfg) == 0
    assert cell_index(0.51 * w, cfg) == 1
    assert cell_index(3.0 * w, cfg) == 3
    assert cell_center(3, cfg) == pytest.approx(3.0 * w)


def test_validate_target(cfg):
    with pytest.raises(ValueError):
        validate_target(Target(r=-1.0, v=0, theta=0), cfg)
    with pytest.raises(ValueError):
        validate_target(Target(r=cfg.range_max + 1, v=0, theta=0), cfg)
    v_unamb = cfg.wavelength / (4 * cfg.T_0)
    with pytest.warns(UserWarning):
        validate_target(Target(r=10.0, v=1.5 * v_unamb, theta=0), cfg)


def test_paths_agree_noiseless(cfg, selections):
    scene, g = _grid_scene(cfg)
    cube = simulate_fast_time(scene, selections, cfg, sigma_r=0.0)
    snap_a = extract_cell(pulse_compress(cube), g)
    snap_b = simulate_cell_direct(scene, selections, cfg, sigma_r=0.0, g=g)
    assert type(snap_a) is type(snap_b) is np.ndarray
    assert snap_a.shape == snap_b.shape == (cfg.N, cfg.K, cfg.Q_r)
    scale = np.abs(snap_b).max()
    np.testing.assert_allclose(snap_a, snap_b, atol=1e-10 * scale)


def test_off_center_range_leaks_by_dirichlet_factor(cfg, selections):
    # off the coarse center the beat tone is off-bin: the compressed cell
    # equals the idealized direct snapshot times the Dirichlet leak factor
    delta_r = 0.5 * cfg.range_resolution
    scene = [Target(r=cell_center(1, cfg) + delta_r, v=0, theta=0)]
    g = cell_index(scene[0].r, cfg)
    cube = simulate_fast_time(scene, selections, cfg, sigma_r=0.0)
    snap_a = extract_cell(pulse_compress(cube), g)
    snap_b = simulate_cell_direct(scene, selections, cfg, sigma_r=0.0, g=g)
    delta = delta_r / cfg.coarse_cell_width
    leak = np.exp(-2j * np.pi * delta * np.arange(cfg.G) / cfg.G).sum() / cfg.G
    np.testing.assert_allclose(snap_a, snap_b * leak, atol=1e-10)


def test_unit_echo_alpha(cfg, selections):
    r = cell_center(3, cfg)
    scene = [Target(r=r, v=0.0, theta=0.0, alpha=unit_echo_alpha(r, 0.3, cfg))]
    snap = simulate_cell_direct(scene, selections, cfg, sigma_r=0.0, g=3)
    # zero velocity/angle at the cell center leaves a constant snapshot
    np.testing.assert_allclose(snap, np.exp(0.3j), atol=1e-12)


def test_pulse_compression_gain(cfg, selections):
    scene = [Target(r=cell_center(2, cfg), v=0.0, theta=0.0)]
    cube = simulate_fast_time(scene, selections, cfg, sigma_r=0.0)
    crrp = pulse_compress(cube)
    peak = np.abs(crrp.data[0, 0, 0, :])
    assert peak[2] == pytest.approx(cfg.G * abs(scene[0].alpha), rel=1e-12)
    mask = np.ones(cfg.G, dtype=bool)
    mask[2] = False
    assert peak[mask].max() < 1e-9 * peak[2]


def test_noise_variance_cell_domain(cfg, selections):
    sigma = 2.0
    rng = np.random.default_rng(1)
    cube = simulate_fast_time([], selections, cfg, sigma_r=sigma, rng=rng)
    crrp = pulse_compress(cube)
    var = np.var(crrp.data)
    assert var == pytest.approx(sigma**2, rel=0.05)
    # before compression each fast-time sample carries sigma^2 / G
    assert np.var(cube.data) == pytest.approx(sigma**2 / cfg.G, rel=0.05)


def test_direct_noise_variance(cfg, selections):
    sigma = 0.5
    snap = simulate_cell_direct(
        [], selections, cfg, sigma_r=sigma, rng=np.random.default_rng(2), g=0
    )
    assert np.var(snap) == pytest.approx(sigma**2, rel=0.1)


def test_sigma_for_snr(cfg):
    sigma = sigma_for_snr(cfg, 10.0)
    lin = cfg.N * cfg.K * cfg.Q_r / sigma**2
    assert 10 * np.log10(lin) == pytest.approx(10.0)


def test_noise_requires_rng(cfg, selections):
    with pytest.raises(ValueError):
        simulate_fast_time([], selections, cfg, sigma_r=1.0)
    with pytest.raises(ValueError):
        simulate_cell_direct([], selections, cfg, sigma_r=1.0, g=0)


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_noise_rejects_a_sigma_that_is_no_std(cfg, selections, sigma):
    # a negative or nan sigma_r used to add no noise without a message
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sigma_r must be finite and nonnegative"):
        simulate_fast_time([], selections, cfg, sigma_r=sigma, rng=rng)
    with pytest.raises(ValueError, match="sigma_r must be finite and nonnegative"):
        simulate_cell_direct([], selections, cfg, sigma_r=sigma, rng=rng, g=0)
    # nothing was drawn
    assert rng.random() == np.random.default_rng(0).random()


def test_direct_rejects_wrong_cell(cfg, selections):
    scene = [Target(r=cell_center(2, cfg), v=0, theta=0)]
    with pytest.raises(ValueError):
        simulate_cell_direct(scene, selections, cfg, sigma_r=0.0, g=5)
    with pytest.raises(ValueError):
        simulate_cell_direct([], selections, cfg, sigma_r=0.0)


def test_selection_count_checked(cfg, selections):
    with pytest.raises(ValueError):
        simulate_fast_time([], selections[:-1], cfg, sigma_r=0.0)


def test_snapshot_flatten_order(cfg, selections):
    snap = simulate_cell_direct(
        _grid_scene(cfg)[0], selections, cfg, sigma_r=0.0, g=2
    )
    flat = snap.reshape(-1)
    n, k, q = 5, 1, 1
    assert flat[n * cfg.K * cfg.Q_r + k * cfg.Q_r + q] == snap[n, k, q]


def test_cube_save_load_round_trip(cfg, selections, tmp_path):
    scene, g = _grid_scene(cfg)
    cube = simulate_fast_time(
        scene, selections, cfg, sigma_r=0.1, rng=np.random.default_rng(9)
    )
    path = tmp_path / "cube.frc"
    save_cube(path, cube)
    back = load_cube(path)
    assert type(back).__name__ == "FastTimeCube"
    np.testing.assert_array_equal(back.data, cube.data)
    assert back.cfg == cfg
    assert back.selections == cube.selections
    assert back.sigma_r == cube.sigma_r

    crrp = pulse_compress(cube)
    path2 = tmp_path / "crrp.frc"
    save_cube(path2, crrp)
    back2 = load_cube(path2)
    assert type(back2).__name__ == "CrrpCube"
    np.testing.assert_array_equal(back2.data, crrp.data)


def test_cube_load_rejects_truncated_payload(cfg, selections, tmp_path):
    scene, _ = _grid_scene(cfg)
    cube = simulate_fast_time(scene, selections, cfg, sigma_r=0.0)
    path = tmp_path / "cube.frc"
    save_cube(path, cube)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ValueError, match=f"cube.frc.*{16 * cube.data.size} bytes"):
        load_cube(path)


def test_cube_load_rejects_unknown_kind(cfg, selections, tmp_path):
    scene, _ = _grid_scene(cfg)
    cube = simulate_fast_time(scene, selections, cfg, sigma_r=0.0)
    path = tmp_path / "cube.frc"
    save_cube(path, cube)
    raw = path.read_bytes()
    assert raw.count(b'"kind": "fast_time"') == 1
    path.write_bytes(raw.replace(b'"kind": "fast_time"', b'"kind": "slow_time"'))
    with pytest.raises(ValueError, match="slow_time"):
        load_cube(path)


def test_cube_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.frc"
    path.write_bytes(b"not a cube at all")
    with pytest.raises(ValueError):
        load_cube(path)


def test_selections_must_fit_the_config(cfg, selections):
    # K=1 rows against K=2, and an M=16 draw against M=8: every consumer of
    # the row model stops at one ValueError instead of a numpy error or a
    # dictionary built from carriers the config does not have
    narrow = random_selection_sequence(cfg.replace(K=1), np.random.default_rng(0))
    wide = random_selection_sequence(cfg.replace(M=16), np.random.default_rng(0))
    assert wide.carriers.max() >= cfg.M
    scene = [Target(r=cell_center(2, cfg), v=0.0, theta=0.0)]
    for sels, message in ((narrow, r"shape \(32, 1\).*\(32, 2\)"),
                          (wide, r"carrier indices span .* range\(0, 8\)")):
        with pytest.raises(ValueError, match=message):
            build_dictionary(sels, cfg)
        with pytest.raises(ValueError, match=message):
            simulate_fast_time(scene, sels, cfg, sigma_r=0.0)
        with pytest.raises(ValueError, match=message):
            simulate_cell_direct(scene, sels, cfg, sigma_r=0.0, g=2)
    bad_antenna = SelectionSequence(selections.carriers, selections.antennas + cfg.P,
                                    selections.phases)
    with pytest.raises(ValueError, match="antenna indices"):
        build_dictionary(bad_antenna, cfg)
    with pytest.raises(TypeError, match="SelectionSequence"):
        build_dictionary(list(selections), cfg)


def test_cube_domains_checked(cfg, selections):
    scene, g = _grid_scene(cfg)
    cube = simulate_fast_time(scene, selections, cfg, sigma_r=0.0)
    crrp = pulse_compress(cube)
    with pytest.raises(ValueError, match="FastTimeCube"):
        pulse_compress(crrp)
    with pytest.raises(ValueError, match="CrrpCube"):
        extract_cell(cube, g)


def _edit_header(path, edit):
    """Rewrite a cube file's JSON header through ``edit``; keep the payload."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen:])


def test_cube_file_format_is_pinned(cfg, selections, tmp_path):
    # magic, little-endian uint64 header length, JSON header with one
    # {carriers, antennas, phases} record of lists per pulse, then (re, im)
    # float64 pairs in C order
    cube = simulate_fast_time(_grid_scene(cfg)[0], selections, cfg, sigma_r=0.0)
    assert cube.selections is selections
    header = {
        "kind": "fast_time",
        "dims": [cfg.N, cfg.K, cfg.Q_r, cfg.G],
        "config_hash": cfg.config_hash(),
        "sigma_r": 0.0,
        "config": cfg.to_dict(),
        "selections": [
            {"carriers": list(s.carriers), "antennas": list(s.antennas),
             "phases": list(s.phases)}
            for s in selections
        ],
    }
    blob = json.dumps(header).encode()
    payload = np.stack([cube.data.real, cube.data.imag], axis=-1).astype("<f8").tobytes()
    want = b"FRACCUBE" + struct.pack("<Q", len(blob)) + blob + payload
    path = tmp_path / "cube.frc"
    save_cube(path, cube)
    assert path.read_bytes() == want
    back = load_cube(path)
    assert back.selections == selections and back.selections[3] == selections[3]


def test_cube_load_rejects_dims_off_the_config(cfg, selections, tmp_path):
    cube = simulate_fast_time([], selections, cfg, sigma_r=0.0)
    path = tmp_path / "cube.frc"
    save_cube(path, cube)
    # the same sample count, so the payload length still matches
    dims = [2 * cfg.N, cfg.K // 2, cfg.Q_r, cfg.G]
    _edit_header(path, lambda h: h.update(dims=dims))
    with pytest.raises(ValueError, match=r"cube\.frc: dims \[64, 1, 2, 25\]"):
        load_cube(path)


def test_cube_load_rejects_selections_off_the_config(cfg, selections, tmp_path):
    cube = simulate_fast_time([], selections, cfg, sigma_r=0.0)
    path = tmp_path / "cube.frc"
    save_cube(path, cube)

    def far_carrier(h):
        h["selections"][4]["carriers"][0] = 99

    _edit_header(path, far_carrier)
    with pytest.raises(ValueError, match=r"cube\.frc: carrier indices .* range\(0, 8\)"):
        load_cube(path)

    def repeated_antenna(h):
        h["selections"][4]["antennas"] = [1, 1]

    save_cube(path, cube)
    _edit_header(path, repeated_antenna)
    with pytest.raises(ValueError, match=r"cube\.frc: antenna indices repeat within pulse 4"):
        load_cube(path)


@pytest.mark.parametrize("where, key", [
    ("header", "dims"),
    ("header", "config"),
    ("header", "config_hash"),
    ("header", "sigma_r"),
    ("header", "selections"),
    ("selection 4", "carriers"),
    ("selection 4", "antennas"),
    ("selection 4", "phases"),
])
def test_cube_load_names_a_missing_field(cfg, selections, tmp_path, where, key):
    # a header without the field used to fail with a bare KeyError
    cube = simulate_fast_time([], selections, cfg, sigma_r=0.0)
    path = tmp_path / "cube.frc"
    save_cube(path, cube)

    def drop(h):
        del (h if where == "header" else h["selections"][4])[key]

    _edit_header(path, drop)
    with pytest.raises(ValueError, match=rf"cube\.frc: {where} has no '{key}' field"):
        load_cube(path)
