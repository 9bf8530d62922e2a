"""Ambiguity function of the index-modulated CPI.

The instantaneous ambiguity function of one CPI's carrier/antenna draw is

    chi(df_r, df_v, df_t) = sum_{n,k,q_r} exp(-2j pi (m_{n,k} df_r
                              + n df_v + (Q_r p_{n,k} + q_r) df_t))

over normalized frequency offsets.  Averaged over uniform selections its
magnitude factors into three Dirichlet kernels,

    |E chi| = (K / (M P)) |D_M(df_r)| |D_N(df_v)| |D_{P Q_r}(df_t)|,

whose first nulls at 1/M, 1/N and 1/(P Q_r) set the range, velocity and
angle resolutions.

The phasor separates, so a sum of chi over CPIs needs only C[n,m,p], how often pulse n drew (m,p):
    sum chi = sum_n E_v[n] sum_{m,p} C[n,m,p] E_r[m] E_t[p]   (times the q_r sum).
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .im_codec import SelectionSequence, _check_fit, _key_blocks, _key_picks

__all__ = [
    "dirichlet",
    "instantaneous_af",
    "expected_af",
    "mc_mean_af",
]

# treat |sin(pi x)| below this as the removable singularity of the kernel
_SING_GUARD = 1e-12


def dirichlet(L: int, x) -> np.ndarray:
    """Periodic kernel sin(L pi x) / sin(pi x); equals L at integer x."""
    x = np.asarray(x, dtype=float)
    den = np.sin(np.pi * x)
    num = np.sin(L * np.pi * x)
    near = np.abs(den) < _SING_GUARD
    safe = np.where(near, 1.0, den)
    out = np.where(near, float(L), num / safe)
    return out


def _offsets(df_r, df_v, df_t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.broadcast_arrays(
        np.asarray(df_r, dtype=float),
        np.asarray(df_v, dtype=float),
        np.asarray(df_t, dtype=float),
    )


def _pair_counts(
    cfg: SystemConfig, n: np.ndarray, m_sel: np.ndarray, p_sel: np.ndarray
) -> np.ndarray:
    """Flat C[n, m, p] from (rows, K) carrier and antenna draws paired by slot,
    row r being pulse ``n[r]``."""
    flat = (n[:, None] * cfg.M + m_sel) * cfg.P + p_sel
    return np.bincount(flat.reshape(-1), minlength=cfg.N * cfg.M * cfg.P)


def _chi_from_counts(
    cfg: SystemConfig, counts: np.ndarray, df_r: np.ndarray, df_v: np.ndarray, df_t: np.ndarray
) -> np.ndarray:
    """sum_{n,m,p} C[n,m,p] E_v[n] E_r[m] E_t[p] times the q_r sum, at each
    offset of the same-shape arrays."""
    shape = df_r.shape
    pts_r, pts_v, pts_t = df_r.reshape(-1), df_v.reshape(-1), df_t.reshape(-1)

    def table(count: int, step: int, pts: np.ndarray) -> np.ndarray:
        return np.exp(-2j * np.pi * (step * np.arange(count))[:, None] * pts[None, :])

    e_rt = table(cfg.M, 1, pts_r)[:, None, :] * table(cfg.P, cfg.Q_r, pts_t)[None, :, :]
    per_pulse = counts.reshape(cfg.N, cfg.M * cfg.P) @ e_rt.reshape(cfg.M * cfg.P, -1)
    chi = (table(cfg.N, 1, pts_v) * per_pulse).sum(axis=0)
    chi *= table(cfg.Q_r, 1, pts_t).sum(axis=0)
    return chi.reshape(shape)


def instantaneous_af(
    cfg: SystemConfig,
    selections: SelectionSequence,
    df_r,
    df_v,
    df_t,
) -> np.ndarray:
    """Complex chi of one CPI at broadcastable offset arrays."""
    _check_fit(selections, cfg)
    counts = _pair_counts(cfg, np.arange(cfg.N), selections.carriers, selections.antennas)
    return _chi_from_counts(cfg, counts, *_offsets(df_r, df_v, df_t))


def expected_af(cfg: SystemConfig, df_r, df_v, df_t) -> np.ndarray:
    """|E chi| over uniform selections (closed form; peak value N K Q_r)."""
    df_r, df_v, df_t = _offsets(df_r, df_v, df_t)
    val = (
        (cfg.K / (cfg.M * cfg.P))
        * np.abs(dirichlet(cfg.M, df_r))
        * np.abs(dirichlet(cfg.N, df_v))
        * np.abs(dirichlet(cfg.P * cfg.Q_r, df_t))
    )
    return val


def mc_mean_af(
    cfg: SystemConfig,
    df_r,
    df_v,
    df_t,
    n_cpi: int,
    rng: np.random.Generator,
    chunk: int | None = None,
) -> np.ndarray:
    """Complex mean of chi over ``n_cpi`` independent uniform selection draws."""
    if n_cpi < 1:
        raise ValueError(f"n_cpi must be at least 1, got {n_cpi}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    df_r, df_v, df_t = _offsets(df_r, df_v, df_t)
    if chunk is None:
        # the chunk sets how the draws split into rng calls, so the rule is
        # part of the seeded sample: each chunk draws all its carrier keys,
        # then all its antenna keys, through the radar draw's key sampler
        chunk = max(1, (1 << 24) // max(1, cfg.N * cfg.K * df_r.size))
    counts = np.zeros(cfg.N * cfg.M * cfg.P, dtype=np.int64)
    done = 0
    while done < n_cpi:
        c = min(chunk, n_cpi - done)
        rows = c * cfg.N
        # only the (rows, K) carrier picks, in the narrowest dtype that holds
        # a carrier index, are held until the antenna keys come; those are
        # counted block by block
        m_sel = _key_picks(rng, rows, cfg.M, cfg.K, dtype=np.min_scalar_type(cfg.M - 1))
        for lo, p_sel in _key_blocks(rng, rows, cfg.P, cfg.K):
            hi = lo + len(p_sel)
            counts += _pair_counts(cfg, np.arange(lo, hi) % cfg.N, m_sel[lo:hi], p_sel)
        done += c
    return _chi_from_counts(cfg, counts, df_r, df_v, df_t) / n_cpi
