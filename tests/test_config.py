"""Parameter derivation, validation, and serialization round trips."""

import dataclasses
import math

import pytest

from frac.config import (
    COUNT_FIELDS,
    REFERENCE_C,
    SPEED_OF_LIGHT,
    ConfigError,
    SystemConfig,
    reference_config,
)


def test_reference_derived_values():
    cfg = reference_config()
    assert cfg.delta_f == pytest.approx(12.5e6)
    assert cfg.kappa == pytest.approx(12.5e6 / 50.0e-6)
    assert cfg.wavelength == pytest.approx(REFERENCE_C / 77.0e9)
    assert cfg.coarse_cell_width == pytest.approx(12.0)
    assert cfg.range_resolution == pytest.approx(1.5)
    assert cfg.G == 25
    assert cfg.U == 5000
    assert cfg.Q == 8
    assert cfg.n1 == 32 * 1 * 2
    assert cfg.n2 == 32 * 8 * 4 * 2
    assert cfg.d_r == pytest.approx(cfg.wavelength / 2.0)
    assert cfg.d_t == pytest.approx(cfg.Q_r * cfg.d_r)
    assert cfg.f_s_comm == pytest.approx(cfg.B)


def test_reference_resolutions():
    cfg = reference_config()
    assert cfg.velocity_resolution == pytest.approx(
        cfg.wavelength / (2.0 * 32 * 60.88e-6)
    )
    assert math.degrees(cfg.angle_resolution) == pytest.approx(
        math.degrees(math.asin(0.25))
    )
    assert cfg.range_max == pytest.approx(304.4097408)


def test_bit_budget_reference():
    assert reference_config().bit_budget() == (5, 1, 6)
    assert reference_config(K=2).bit_budget() == (7, 2, 9)


@pytest.mark.parametrize(
    "M,K,P,J",
    [(8, 1, 4, 2), (8, 2, 4, 2), (8, 2, 4, 4), (16, 2, 8, 2), (12, 3, 6, 8)],
)
def test_bit_budget_matches_logs(M, K, P, J):
    cfg = reference_config(M=M, K=K, P=P, J=J)
    n_car = math.floor(math.log2(math.comb(M, K)))
    n_ant = math.floor(math.log2(math.comb(P, K)))
    n_perm = math.floor(math.log2(math.factorial(K)))
    assert cfg.n_im_bits == n_car + n_ant + n_perm
    assert cfg.n_pm_bits == K * int(math.log2(J))
    assert cfg.n_total_bits == cfg.n_im_bits + cfg.n_pm_bits


def test_bit_groups_layout():
    # (carrier set, antenna set, pairing, PSK): M=8, K=2, P=4, J=4 gives
    # floor(log2 28), floor(log2 6), log2 2! and log2 4 per PSK group
    cfg = reference_config(K=2, J=4)
    assert cfg.bit_groups == (4, 2, 1, 2)
    assert cfg.n_im_bits == 7
    assert cfg.n_pm_bits == 2 * 2
    assert reference_config().bit_groups == (3, 2, 0, 1)


def test_sampling_rate_range_consistency():
    base = reference_config()
    # r_max alone must reproduce the rate, and giving both consistent
    # values must pass validation
    from_r = reference_config(F_s_radar=None, r_max=base.range_max)
    assert from_r.f_s_radar == pytest.approx(416.68e3)
    both = reference_config(r_max=base.range_max)
    assert both.G == base.G


def test_speed_of_light_default():
    cfg = SystemConfig(F_s_radar=416.68e3)
    assert cfg.c == SPEED_OF_LIGHT
    assert reference_config().c == REFERENCE_C


@pytest.mark.parametrize(
    "overrides",
    [
        dict(K=5),                      # K > min(M, P)
        dict(J=3),                      # not a power of two
        dict(J=1),
        dict(N=0),
        dict(M=-2),
        dict(T_p=70e-6),                # longer than the PRI
        dict(B=0.0),
        dict(F_s_radar=None),           # neither rate nor range
        dict(r_max=100.0),              # inconsistent with F_s_radar
        dict(d_R=-1e-3),
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        reference_config(**overrides)


@pytest.mark.parametrize("name", ["N", "M", "K", "P", "Q_r", "Q_c", "J", "n_taps"])
def test_validation_rejects_bool_counts(name):
    # bool is a subclass of int, so True would otherwise pass as 1
    with pytest.raises(ConfigError, match=f"{name} must be a positive integer"):
        reference_config(**{name: True})


def test_count_fields_are_the_integer_fields_but_the_seed():
    ints = [f.name for f in dataclasses.fields(SystemConfig) if f.type == "int"]
    assert ints[-1] == "seed"
    assert COUNT_FIELDS == tuple(ints[:-1])


def test_from_dict_rejects_unknown_fields():
    d = reference_config().to_dict()
    d["bandwidth"] = 1.0
    with pytest.raises(ConfigError):
        SystemConfig.from_dict(d)


def test_json_round_trip():
    cfg = reference_config(K=2, J=4, seed=7)
    again = SystemConfig.from_json(cfg.to_json())
    assert again == cfg
    assert SystemConfig.from_dict(cfg.to_dict()) == cfg


def test_from_json_rejects_non_object():
    with pytest.raises(ConfigError):
        SystemConfig.from_json("[1, 2]")
    with pytest.raises(ConfigError):
        SystemConfig.from_json("{not json")


def test_replace_and_hash():
    cfg = reference_config()
    other = cfg.replace(K=2)
    assert other.K == 2 and cfg.K == 1
    assert cfg.config_hash() != other.config_hash()
    assert cfg.config_hash() == reference_config().config_hash()
    assert len(cfg.config_hash()) == 12


def test_angle_resolution_undefined_for_tiny_aperture():
    cfg = reference_config(P=1, Q_r=1, K=1)
    with pytest.raises(ConfigError):
        cfg.angle_resolution
