"""Radar echo synthesis for the FMCW index-modulation transmitter.

Snapshot row (n, k, q_r) is pulse n's k-th carrier m, with frequency ratio
xi = (f_c + m delta_f) / f_c, seen by virtual element Q_r p + q_r; its
steering phase is m f_r + xi (n f_v + (Q_r p + q_r) f_theta).  That row
model, :func:`steering_rows`, drives both generation paths below and the
recovery dictionary.

Two generation paths are provided and agree exactly for scenes whose ranges
sit at coarse-cell centers:

* :func:`simulate_fast_time` builds the de-chirped fast-time cube sample by
  sample and :func:`pulse_compress` integrates it into coarse range cells
  with an (unnormalized) inverse DFT;
* :func:`simulate_cell_direct` writes the post-compression snapshot of one
  coarse cell directly.

A CPI's selections enter as one :class:`~frac.im_codec.SelectionSequence`,
checked against the config, and a cube keeps it.  A cell snapshot, from
either path (:func:`extract_cell` or :func:`simulate_cell_direct`), is a
plain (N, K, Q_r) array; ``reshape(-1)`` gives the recovery vector, whose
index is n*K*Q_r + k*Q_r + q_r.

Fast-time samples are placed at multiples of T_p / G (the G ADC samples span
the chirp), so a scatterer at the center of cell g lands exactly on IDFT bin
g for every g; off-center ranges straddle bins and leak, which is physical.

Noise convention: ``sigma_r`` is the per-sample noise standard deviation in
the pulse-compressed (cell) domain.  ``simulate_fast_time`` therefore injects
variance sigma_r**2 / G per fast-time sample, since the unnormalized IDFT
scales noise variance by G.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .im_codec import SelectionSequence, _check_fit

__all__ = [
    "Target",
    "FastTimeCube",
    "CrrpCube",
    "steering_rows",
    "cell_index",
    "cell_center",
    "validate_target",
    "unit_echo_alpha",
    "sigma_for_snr",
    "simulate_fast_time",
    "pulse_compress",
    "extract_cell",
    "simulate_cell_direct",
    "save_cube",
    "load_cube",
]

_CUBE_MAGIC = b"FRACCUBE"


@dataclass(frozen=True)
class Target:
    """Point scatterer: range [m], radial velocity [m/s], azimuth [rad]."""

    r: float
    v: float
    theta: float
    alpha: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class _Cube:
    """Samples of shape (N, K, Q_r, G), with the CPI's selections as drawn."""

    data: np.ndarray
    selections: SelectionSequence
    cfg: SystemConfig
    sigma_r: float


class FastTimeCube(_Cube):
    """De-chirped samples; the last axis is fast time."""


class CrrpCube(_Cube):
    """Pulse-compressed samples; the last axis is the coarse cell."""


def cell_index(r: float, cfg: SystemConfig) -> int:
    """Coarse cell containing range r: nearest multiple of c/(2 delta_f)."""
    return int(np.floor(r / cfg.coarse_cell_width + 0.5))

def cell_center(g: int, cfg: SystemConfig) -> float:
    return g * cfg.coarse_cell_width

def validate_target(t: Target, cfg: SystemConfig) -> None:
    """Range must lie in [0, r_max); model-assumption strains only warn."""
    if not 0.0 <= t.r < cfg.range_max:
        raise ValueError(
            f"target range {t.r} m outside [0, {cfg.range_max:.6g}) m"
        )
    v_unamb = cfg.wavelength / (4.0 * cfg.T_0)
    if abs(t.v) > v_unamb:
        warnings.warn(
            f"velocity {t.v} m/s beyond the unambiguous span +-{v_unamb:.4g} m/s; "
            "the echo aliases in Doppler",
            stacklevel=2,
        )
    # range migration over the CPI should stay far below a coarse cell
    if abs(t.v) * cfg.N * cfg.T_0 > 0.05 * cfg.coarse_cell_width:
        warnings.warn(
            f"target moves {abs(t.v) * cfg.N * cfg.T_0:.4g} m within one CPI, "
            "straining the stationary-envelope assumption",
            stacklevel=2,
        )

def sigma_for_snr(cfg: SystemConfig, snr_db: float) -> float:
    """Cell-domain noise std for a radar SNR of N*K*Q_r / sigma**2."""
    return float(np.sqrt(cfg.n1 / 10.0 ** (snr_db / 10.0)))

def unit_echo_alpha(r: float, phase: float, cfg: SystemConfig) -> complex:
    """Reflectivity whose post-compression amplitude is exactly exp(1j*phase).

    Pulse compression gains G and the two-way carrier phase rotates by
    -4*pi*r*f_c/c, so this pre-compensates both.
    """
    return np.exp(1j * (phase + 4.0 * np.pi * r * cfg.f_c / cfg.c)) / cfg.G


def steering_rows(selections: SelectionSequence, cfg: SystemConfig):
    """Row model of one CPI: (m, xi, n, virt), each of shape (N, K, Q_r).

    Entry (n, k, q_r) holds the carrier index m, its frequency ratio xi, the
    pulse index n and the virtual element Q_r p + q_r of that snapshot row.
    """
    _check_fit(selections, cfg)
    m_idx, p_idx = selections.carriers, selections.antennas     # (N, K)
    shape = (cfg.N, cfg.K, cfg.Q_r)
    xi = (cfg.f_c + m_idx * cfg.delta_f) / cfg.f_c
    virt = cfg.Q_r * p_idx[:, :, None] + np.arange(cfg.Q_r)
    return (
        np.broadcast_to(m_idx[:, :, None], shape),
        np.broadcast_to(xi[:, :, None], shape),
        np.broadcast_to(np.arange(cfg.N)[:, None, None], shape),
        virt,
    )


def _target_phase_terms(t: Target, cfg: SystemConfig):
    """(alpha_tilde, f_r_full, f_v, f_theta) for one scatterer.

    f_r_full = 2 r delta_f / c is the per-carrier range frequency before the
    integer cell part is stripped; f_v and f_theta are the slow-time and
    virtual-array frequencies.
    """
    alpha_tilde = t.alpha * np.exp(-4j * np.pi * t.r * cfg.f_c / cfg.c)
    f_r_full = 2.0 * t.r * cfg.delta_f / cfg.c
    f_v = 2.0 * t.v * cfg.T_0 * cfg.f_c / cfg.c
    f_theta = cfg.f_c * cfg.d_r * np.sin(t.theta) / cfg.c
    return alpha_tilde, f_r_full, f_v, f_theta


def _add_noise(data: np.ndarray, sigma_r: float, std: float, rng) -> None:
    """Add complex Gaussian noise, ``std`` per real part, in place when sigma_r > 0;
    a negative or non-finite sigma_r is rejected before anything is drawn."""
    if not 0.0 <= sigma_r < math.inf:
        raise ValueError(f"sigma_r must be finite and nonnegative, got {sigma_r}")
    if sigma_r > 0.0:
        if rng is None:
            raise ValueError("rng is required when sigma_r > 0")
        data += std * (rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape))


def simulate_fast_time(
    scene: list[Target],
    selections: SelectionSequence,
    cfg: SystemConfig,
    sigma_r: float,
    rng: np.random.Generator | None = None,
) -> FastTimeCube:
    """De-chirped fast-time cube (N, K, Q_r, G) for a scene."""
    m, xi, n, virt = (a[..., None] for a in steering_rows(selections, cfg))
    for t in scene:
        validate_target(t, cfg)
    gt = np.arange(cfg.G)

    data = np.zeros((cfg.N, cfg.K, cfg.Q_r, cfg.G), dtype=np.complex128)
    for t in scene:
        alpha_tilde, f_r_full, f_v, f_theta = _target_phase_terms(t, cfg)
        # beat tone 2*kappa*r*T_fast/c = f_r_full/G, since kappa*T_p = delta_f
        phase = (
            f_r_full / cfg.G * gt
            + m * f_r_full
            + xi * (f_v * n + f_theta * virt)
        )
        data += alpha_tilde * np.exp(-2j * np.pi * phase)
    _add_noise(data, sigma_r, np.sqrt(sigma_r**2 / cfg.G / 2.0), rng)
    return FastTimeCube(data=data, selections=selections, cfg=cfg, sigma_r=sigma_r)


def pulse_compress(cube: FastTimeCube) -> CrrpCube:
    """Unnormalized IDFT over fast time: y[g] = sum_gt ytilde[gt] e^{+2j pi gt g / G}."""
    if not isinstance(cube, FastTimeCube):
        raise ValueError(f"pulse_compress takes a FastTimeCube, got {type(cube).__name__}")
    data = cube.cfg.G * np.fft.ifft(cube.data, axis=-1)
    return CrrpCube(
        data=data, selections=cube.selections, cfg=cube.cfg, sigma_r=cube.sigma_r
    )


def extract_cell(crrp: CrrpCube, g: int) -> np.ndarray:
    """Coarse cell g of a pulse-compressed cube, shape (N, K, Q_r)."""
    if not isinstance(crrp, CrrpCube):
        raise ValueError(f"extract_cell takes a CrrpCube, got {type(crrp).__name__}")
    if not 0 <= g < crrp.cfg.G:
        raise ValueError(f"cell {g} out of range(0, {crrp.cfg.G})")
    return np.ascontiguousarray(crrp.data[..., g])


def simulate_cell_direct(
    scene: list[Target],
    selections: SelectionSequence,
    cfg: SystemConfig,
    sigma_r: float,
    rng: np.random.Generator | None = None,
    g: int | None = None,
) -> np.ndarray:
    """Post-compression snapshot of one coarse cell, shape (N, K, Q_r),
    written directly.

    Every target must fall in cell ``g`` (defaults to the cell of the first
    target).
    """
    if g is None:
        if not scene:
            raise ValueError("g is required for an empty scene")
        g = cell_index(scene[0].r, cfg)
    if not 0 <= g < cfg.G:
        raise ValueError(f"cell {g} out of range(0, {cfg.G})")
    m, xi, n, virt = steering_rows(selections, cfg)
    data = np.zeros((cfg.N, cfg.K, cfg.Q_r), dtype=np.complex128)
    for t in scene:
        validate_target(t, cfg)
        if cell_index(t.r, cfg) != g:
            raise ValueError(
                f"target at {t.r} m falls in cell {cell_index(t.r, cfg)}, not {g}"
            )
        alpha_tilde, f_r_full, f_v, f_theta = _target_phase_terms(t, cfg)
        beta = cfg.G * alpha_tilde
        delta_r = t.r - cell_center(g, cfg)
        f_r = 2.0 * delta_r * cfg.delta_f / cfg.c
        phase = m * f_r + xi * (f_v * n + f_theta * virt)
        data += beta * np.exp(-2j * np.pi * phase)
    _add_noise(data, sigma_r, sigma_r / np.sqrt(2.0), rng)
    return data


# ----------------------------------------------------------------------
# cube files: 8-byte magic, uint64 header length, JSON header, then the
# samples as little-endian float64 pairs (re, im) in C order
# ----------------------------------------------------------------------

def save_cube(path, cube: FastTimeCube | CrrpCube) -> None:
    kind = "fast_time" if isinstance(cube, FastTimeCube) else "crrp"
    header = {
        "kind": kind,
        "dims": list(cube.data.shape),
        "config_hash": cube.cfg.config_hash(),
        "sigma_r": cube.sigma_r,
        "config": cube.cfg.to_dict(),
        "selections": [
            {"carriers": m, "antennas": p, "phases": ph}
            for m, p, ph in zip(cube.selections.carriers.tolist(),
                                cube.selections.antennas.tolist(),
                                cube.selections.phases.tolist())
        ],
    }
    blob = json.dumps(header).encode()
    flat = np.empty(cube.data.size * 2, dtype="<f8")
    flat[0::2] = cube.data.real.reshape(-1)
    flat[1::2] = cube.data.imag.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(_CUBE_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(flat.tobytes())

def _field(record: dict, key: str, path, where: str = "header"):
    """``record[key]``, or a ValueError naming the file and the missing field."""
    try:
        return record[key]
    except KeyError:
        raise ValueError(f"{path}: {where} has no {key!r} field") from None

def load_cube(path) -> FastTimeCube | CrrpCube:
    with open(path, "rb") as fh:
        if fh.read(len(_CUBE_MAGIC)) != _CUBE_MAGIC:
            raise ValueError(f"{path} is not a cube file")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen))
        raw = fh.read()
    cls = {"fast_time": FastTimeCube, "crrp": CrrpCube}.get(header.get("kind"))
    if cls is None:
        raise ValueError(f"{path}: unknown cube kind {header.get('kind')!r}")
    dims = tuple(_field(header, "dims", path))
    expected = 16 * math.prod(dims)
    if len(raw) != expected:
        raise ValueError(
            f"{path}: payload holds {len(raw)} bytes, expected {expected} bytes for dims {dims}"
        )
    payload = np.frombuffer(raw, dtype="<f8")
    data = (payload[0::2] + 1j * payload[1::2]).reshape(dims)
    cfg = SystemConfig.from_dict(_field(header, "config", path))
    if cfg.config_hash() != _field(header, "config_hash", path):
        raise ValueError(f"{path}: config hash mismatch")
    if dims != (cfg.N, cfg.K, cfg.Q_r, cfg.G):
        raise ValueError(
            f"{path}: dims {list(dims)} do not match (N, K, Q_r, G) = "
            f"{[cfg.N, cfg.K, cfg.Q_r, cfg.G]} of its config"
        )
    sigma_r = _field(header, "sigma_r", path)
    rows = _field(header, "selections", path)
    columns = [np.array([_field(s, key, path, f"selection {n}") for n, s in enumerate(rows)])
               for key in ("carriers", "antennas", "phases")]
    try:
        selections = SelectionSequence(*columns)
        _check_fit(selections, cfg)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return cls(data=data, selections=selections, cfg=cfg, sigma_r=sigma_r)
