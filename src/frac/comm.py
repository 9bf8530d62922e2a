"""Communication receiver: multipath channel, ML and reduced-complexity decoding.

One pulse carries the symbol vector e of length M*P holding K unit-modulus
entries: block m, offset p is active when sub-carrier m is radiated from
transmit element p.  The downlink receiver sees

    y = Psi e + w,   Psi in C^{Q_c U x M P},

where column m*P + p of Psi stacks, over the Q_c receive antennas, the
chirped sub-band waveform s_m convolved with that antenna's multipath
response from element p.  Taps are i.i.d. CN(0, e^{-i}).

Decisions and Monte Carlo statistics are computed in the Gram domain: with
Gamma = Psi^H Psi, the matched-filter bank output is u = Gamma e + omega
with omega ~ CN(0, sigma^2 Gamma), and every ML/subspace decision and the
mutual-information estimator depend on y only through u and symbol energies.
This removes the Q_c U sample dimension from the inner loop (and, for the
rate estimator, cancels the ||w||^2 term analytically, which otherwise
dominates the estimator variance at large U).

The Monte Carlo curves never form Psi.  Gamma is a quadratic form of the
channel taps in the waveform correlations

    R[m, i, m', i'] = sum_{u < U} conj(s_m[u - i]) s_m'[u - i']

(samples before u = i are zero), which do not depend on the channel:

    Gamma[(m, p), (m', p')] = sum_q sum_{i, i'} conj(h[p, q, i]) h[p', q, i'] R[m, i, m', i'].

R is built once per curve, so a channel costs M^2 n_taps P Q_c (n_taps + P)
products, independent of U, instead of a Q_c U x M P matrix.  Psi itself is
only built for the single-shot path (:func:`transmit`, :func:`ml_decode`,
:func:`sod_decode`).

The alphabet of the curves (:func:`enumerate_symbols`) maps words to
selections through the arithmetic codec of :func:`frac.im_codec.encode`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .im_codec import PulseSelection, encode

__all__ = [
    "SymbolSet",
    "BerPoint",
    "RatePoint",
    "baseband_waveforms",
    "sample_channel",
    "build_psi",
    "selection_to_symbol",
    "symbol_to_selection",
    "enumerate_symbols",
    "sigma_for_comm_snr",
    "transmit",
    "ml_decode",
    "sod_decode",
    "ber_curve",
    "rate_curve",
]

# symbol enumeration is dense in 2**n_total_bits; refuse absurd alphabets
MAX_ALPHABET_BITS = 16
# decoders ber_curve can run
DECODERS = ("ml", "sod")


@dataclass(frozen=True)
class SymbolSet:
    """All encodable per-pulse symbols, columns in bit-string order."""

    E: np.ndarray                 # (M*P, n_words) complex
    words: tuple[str, ...]
    bits: np.ndarray              # (n_words, n_bits) uint8
    carrier_sets: tuple[tuple[int, ...], ...]

    @property
    def n_words(self) -> int:
        return self.E.shape[1]

    @property
    def n_bits(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True)
class BerPoint:
    scheme: str
    snr_db: float
    messages: int
    bit_errors: int
    ber: float
    stderr: float


@dataclass(frozen=True)
class RatePoint:
    scheme: str
    snr_db: float
    rate_bits: float
    stderr: float


def baseband_waveforms(cfg: SystemConfig) -> np.ndarray:
    """Sampled sub-band chirps, shape (M, U): s_m[u] = e^{j pi kappa t^2 + 2j pi m df t}."""
    t = np.arange(cfg.U) / cfg.f_s_comm
    chirp = np.exp(1j * np.pi * cfg.kappa * t * t)
    tones = np.exp(2j * np.pi * cfg.delta_f * np.outer(np.arange(cfg.M), t))
    return chirp[None, :] * tones


def sample_channel(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Multipath taps h[p, q_c, i] ~ CN(0, e^{-i}), shape (P, Q_c, n_taps)."""
    std = np.exp(-0.5 * np.arange(cfg.n_taps))
    z = rng.standard_normal((cfg.P, cfg.Q_c, cfg.n_taps, 2))
    return (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0) * std


def channel_tap_power(cfg: SystemConfig) -> float:
    """Total mean tap energy sum_i e^{-i}."""
    return float(np.exp(-np.arange(cfg.n_taps)).sum())


def sigma_for_comm_snr(cfg: SystemConfig, snr_db: float) -> float:
    """Noise std for SNR = K Q_c U (sum_i e^{-i}) / sigma^2."""
    lin = 10.0 ** (snr_db / 10.0)
    return math.sqrt(cfg.K * cfg.Q_c * cfg.U * channel_tap_power(cfg) / lin)


def _shifted_waveforms(cfg: SystemConfig) -> np.ndarray:
    """Zero-filled delayed chirps X[m, i, u] = s_m[u - i] (0 for u < i), shape (M, n_taps, U)."""
    S = baseband_waveforms(cfg)
    X = np.zeros((cfg.M, cfg.n_taps, cfg.U), dtype=np.complex128)
    for i in range(min(cfg.n_taps, cfg.U)):
        X[:, i, i:] = S[:, : cfg.U - i]
    return X


def build_psi(h: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Observation matrix (Q_c U, M P); column m*P + p is h[p, q_c] * s_m stacked over q_c."""
    if h.shape != (cfg.P, cfg.Q_c, cfg.n_taps):
        raise ValueError(f"channel shape {h.shape} != {(cfg.P, cfg.Q_c, cfg.n_taps)}")
    X = _shifted_waveforms(cfg)
    out = np.tensordot(h, X, axes=([2], [1]))              # (p, q_c, m, u)
    # (p, q_c, m, u) -> rows (q_c, u), cols (m, p)
    return np.ascontiguousarray(
        out.transpose(1, 3, 2, 0).reshape(cfg.Q_c * cfg.U, cfg.M * cfg.P)
    )


def _waveform_correlations(cfg: SystemConfig) -> np.ndarray:
    """R[(m, i), (m', i')] = sum_u conj(s_m[u - i]) s_m'[u - i'], shape (M n_taps, M n_taps)."""
    X = _shifted_waveforms(cfg).reshape(cfg.M * cfg.n_taps, cfg.U)
    return X.conj() @ X.T


def _channel_gram(h: np.ndarray, corr: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Gamma = Psi^H Psi of channel ``h`` from the waveform correlations ``corr``."""
    M, P, Q, T = cfg.M, cfg.P, cfg.Q_c, cfg.n_taps
    # Z[m, i, m', p', q] = sum_i' R[m, i, m', i'] h[p', q, i']
    Z = corr.reshape(M * T * M, T) @ h.transpose(2, 0, 1).reshape(T, P * Q)
    # per m: Gamma[m, p, (m', p')] = sum_{q, i} conj(h[p, q, i]) Z[m, i, m', p', q]
    Z = Z.reshape(M, T, M * P, Q).transpose(0, 3, 1, 2).reshape(M, Q * T, M * P)
    return (h.conj().reshape(P, Q * T) @ Z).reshape(M * P, M * P)


def selection_to_symbol(sel: PulseSelection, cfg: SystemConfig) -> np.ndarray:
    """Sparse symbol vector of length M*P with K unit-modulus entries."""
    e = np.zeros(cfg.M * cfg.P, dtype=np.complex128)
    for m, p, phi in zip(sel.carriers, sel.antennas, sel.phases):
        if not (0 <= m < cfg.M and 0 <= p < cfg.P):
            raise ValueError(f"selection ({m}, {p}) outside {cfg.M} x {cfg.P}")
        e[m * cfg.P + p] = np.exp(1j * phi)
    return e


def symbol_to_selection(e: np.ndarray, cfg: SystemConfig, atol: float = 1e-9) -> PulseSelection:
    """Inverse of :func:`selection_to_symbol` (canonical antenna-sorted pairing)."""
    e = np.asarray(e).reshape(-1)
    if e.shape[0] != cfg.M * cfg.P:
        raise ValueError(f"symbol length {e.shape[0]} != {cfg.M * cfg.P}")
    nz = np.flatnonzero(np.abs(e) > atol)
    if nz.size != cfg.K:
        raise ValueError(f"symbol has {nz.size} active entries, K={cfg.K}")
    if not np.allclose(np.abs(e[nz]), 1.0, atol=1e-6):
        raise ValueError("active symbol entries must be unit modulus")
    pairs = sorted(((int(i) % cfg.P, int(i) // cfg.P) for i in nz))
    antennas = tuple(p for p, _ in pairs)
    carriers = tuple(m for _, m in pairs)
    if len(set(carriers)) != cfg.K or len(set(antennas)) != cfg.K:
        raise ValueError("active entries must use distinct carriers and antennas")
    phases = tuple(float(np.angle(e[m * cfg.P + p])) for p, m in pairs)
    return PulseSelection(carriers=carriers, antennas=antennas, phases=phases)


def enumerate_symbols(cfg: SystemConfig) -> SymbolSet:
    """Symbol vectors of every encodable word, in bit-string (integer) order."""
    nbits = cfg.n_total_bits
    if nbits > MAX_ALPHABET_BITS:
        raise ValueError(f"alphabet of 2^{nbits} symbols exceeds the enumeration cap")
    n = 1 << nbits
    E = np.empty((cfg.M * cfg.P, n), dtype=np.complex128)
    words = []
    bits = np.empty((n, nbits), dtype=np.uint8)
    carrier_sets = []
    for idx in range(n):
        word = format(idx, f"0{nbits}b")
        sel = encode(word, cfg)
        E[:, idx] = selection_to_symbol(sel, cfg)
        words.append(word)
        bits[idx] = np.frombuffer(word.encode(), dtype=np.uint8) - ord("0")
        carrier_sets.append(tuple(sorted(sel.carriers)))
    return SymbolSet(E=E, words=tuple(words), bits=bits, carrier_sets=tuple(carrier_sets))


def transmit(
    e: np.ndarray, psi: np.ndarray, sigma_c: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """One received pulse y = Psi e + CN(0, sigma_c^2 I)."""
    y = psi @ e
    if sigma_c > 0.0:
        if rng is None:
            raise ValueError("rng is required when sigma_c > 0")
        y = y + sigma_c / math.sqrt(2.0) * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
    return y


def ml_decode(y: np.ndarray, psi: np.ndarray, symbols: SymbolSet) -> int:
    """Exhaustive minimum-distance decision; ties break to the lowest index."""
    return _decode_one(y, psi, None, symbols, "ml")


def sod_decode(y: np.ndarray, psi: np.ndarray, cfg: SystemConfig, symbols: SymbolSet) -> int:
    """Two-stage decision: matched-filter carrier-set detection, then restricted ML.

    Stage one normalizes the per-(carrier, element) matched filters and keeps
    the K carriers with the largest best-element response; stage two runs the
    ML metric over the symbols using exactly that carrier set.  If the
    detected set is not encodable the search falls back to the full alphabet.
    """
    return _decode_one(y, psi, cfg, symbols, "sod")


def _decode_one(y, psi, cfg, symbols: SymbolSet, decoder: str) -> int:
    """One received pulse through the Gram-domain decisions, as a batch of one."""
    psi_h = psi.conj().T
    gamma = psi_h @ psi
    _, q = _symbol_gram(gamma, symbols)
    colnorm = np.sqrt(np.real(np.diag(gamma)))
    u = (psi_h @ y)[:, None]
    return int(_decide(cfg, symbols, q, colnorm, u, (decoder,), _sod_groups(symbols))[decoder][0])


# ----------------------------------------------------------------------
# Gram-domain Monte Carlo
# ----------------------------------------------------------------------

def _gram_factors(gamma: np.ndarray):
    """(Cholesky factor, column norms) of Gamma, with a tiny PD jitter."""
    n = gamma.shape[0]
    jitter = 1e-12 * float(np.real(np.trace(gamma))) / max(n, 1)
    chol = np.linalg.cholesky(gamma + jitter * np.eye(n))
    colnorm = np.sqrt(np.real(np.diag(gamma)))
    return chol, colnorm


def _symbol_gram(gamma: np.ndarray, symbols: SymbolSet):
    """(Gamma E, symbol energies e^H Gamma e = ||Psi e||^2) over the alphabet."""
    GE = gamma @ symbols.E
    return GE, np.real(np.einsum("ij,ij->j", symbols.E.conj(), GE))


def _draw_channel(
    cfg: SystemConfig, symbols: SymbolSet, corr: np.ndarray, draws: int,
    rng: np.random.Generator,
):
    """One channel and its draws: (Gamma E, energies, column norms, t_idx, noise).

    ``corr`` is :func:`_waveform_correlations` of ``cfg``.  ``noise`` column d
    is chol @ z_d for a standard complex normal z_d, which matches
    Psi^H w / sigma in distribution.
    """
    gamma = _channel_gram(sample_channel(cfg, rng), corr, cfg)
    chol, colnorm = _gram_factors(gamma)
    t_idx = rng.integers(0, symbols.n_words, draws)
    noise_unit = (
        rng.standard_normal((gamma.shape[0], draws))
        + 1j * rng.standard_normal((gamma.shape[0], draws))
    ) / math.sqrt(2.0)
    GE, q = _symbol_gram(gamma, symbols)
    return GE, q, colnorm, t_idx, chol @ noise_unit


def _sod_groups(symbols: SymbolSet) -> dict:
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, cs in enumerate(symbols.carrier_sets):
        groups.setdefault(cs, []).append(i)
    return groups


def _decide(
    cfg: SystemConfig | None,
    symbols: SymbolSet,
    q: np.ndarray,
    colnorm: np.ndarray,
    u: np.ndarray,
    decoders: tuple[str, ...],
    groups: dict,
) -> dict[str, np.ndarray]:
    """ML and SOD decisions from matched-filter outputs, one column of u per draw.

    Column d of ``u`` is Psi^H y_d; the ML metric of symbol e is
    e^H Gamma e - 2 Re e^H u, which is ||y - Psi e||^2 less a term common to
    all symbols.  SOD keeps the full-search decision for draws whose detected
    carrier set is outside the alphabet.  ``cfg`` is only read for SOD.
    """
    scores = q[:, None] - 2.0 * np.real(symbols.E.conj().T @ u)
    full = np.argmin(scores, axis=0)
    out: dict[str, np.ndarray] = {}
    if "ml" in decoders:
        out["ml"] = full
    if "sod" in decoders:
        gv = (np.abs(u) / np.maximum(colnorm, 1e-300)[:, None]).reshape(cfg.M, cfg.P, -1)
        best = gv.max(axis=1)                               # (M, draws)
        keys = np.sort(np.argsort(-best, axis=0, kind="stable")[: cfg.K], axis=0)
        decisions = full.copy()
        for key, cand in groups.items():
            cols = np.flatnonzero(np.all(keys == np.asarray(key)[:, None], axis=0))
            if cols.size:
                sub = scores[np.ix_(cand, cols)]
                decisions[cols] = np.asarray(cand)[np.argmin(sub, axis=0)]
        out["sod"] = decisions
    return out


def _check_counts(channels: int, draws: int) -> None:
    for name, value in (("channels", channels), ("draws", draws)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def ber_curve(
    cfg: SystemConfig,
    snr_db_list,
    channels: int,
    draws: int,
    decoders: tuple[str, ...] = ("ml", "sod"),
    seed: int = 0,
    scheme_prefix: str = "frac",
) -> list[BerPoint]:
    """Bit error rate by Monte Carlo over channels x draws per SNR point.

    Noise draws are shared across SNR points (scaled by sigma), so each curve
    is monotone up to channel-sampling error.  One decision call per channel
    covers every SNR point.
    """
    _check_counts(channels, draws)
    for name in decoders:
        if name not in DECODERS:
            raise ValueError(
                f"unknown decoder {name!r} in scheme {scheme_prefix}-{name}; "
                f"expected one of {', '.join(DECODERS)}"
            )
    symbols = enumerate_symbols(cfg)
    groups = _sod_groups(symbols)
    corr = _waveform_correlations(cfg)
    snr_db_list = [float(s) for s in snr_db_list]
    sigmas = np.array([sigma_for_comm_snr(cfg, snr) for snr in snr_db_list])
    n_snr = len(snr_db_list)
    nbits = symbols.n_bits
    # bit errors per decoder, channel and SNR point
    nerr = {d: np.zeros((channels, n_snr), dtype=np.int64) for d in decoders}
    for ch in range(channels):
        GE, q, colnorm, t_idx, noise = _draw_channel(
            cfg, symbols, corr, draws, np.random.default_rng([seed, 7001, ch])
        )
        # column si * draws + d is draw d at SNR point si
        u = (GE[:, None, t_idx] + sigmas[None, :, None] * noise[:, None, :]).reshape(
            GE.shape[0], n_snr * draws
        )
        sent = symbols.bits[t_idx]
        for name, d_idx in _decide(cfg, symbols, q, colnorm, u, decoders, groups).items():
            got = symbols.bits[d_idx.reshape(n_snr, draws)]
            nerr[name][ch] = np.sum(got != sent[None], axis=(1, 2))
    out = []
    for name in decoders:
        per_channel = nerr[name] / (draws * nbits)
        for si, snr in enumerate(snr_db_list):
            errs = int(nerr[name][:, si].sum())
            se = float(np.std(per_channel[:, si], ddof=1) / math.sqrt(channels)) if channels > 1 else 0.0
            out.append(
                BerPoint(
                    scheme=f"{scheme_prefix}-{name}",
                    snr_db=snr,
                    messages=channels * draws,
                    bit_errors=errs,
                    ber=errs / (channels * draws * nbits),
                    stderr=se,
                )
            )
    return out


def rate_curve(
    cfg: SystemConfig,
    snr_db_list,
    channels: int,
    draws: int,
    seed: int = 0,
    scheme: str = "frac",
) -> list[RatePoint]:
    """Achievable rate (mutual information, bits/pulse) of the discrete alphabet.

    Per draw the estimator is log2 |E| - log2 sum_e exp(-(||Psi(e_t - e)||^2
    + 2 Re<w, Psi(e_t - e)>)/sigma^2); the transmitted term of the sum is
    exactly 1, so the estimate never exceeds log2 |E| and needs no ||w||^2
    bookkeeping.
    """
    _check_counts(channels, draws)
    symbols = enumerate_symbols(cfg)
    corr = _waveform_correlations(cfg)
    snr_db_list = [float(s) for s in snr_db_list]
    sigmas = np.array([sigma_for_comm_snr(cfg, snr) for snr in snr_db_list])[:, None, None]
    nE = symbols.n_words
    per_channel = np.zeros((channels, len(snr_db_list)))
    for ch in range(channels):
        GE, q, _, t_idx, noise = _draw_channel(
            cfg, symbols, corr, draws, np.random.default_rng([seed, 7101, ch])
        )
        S = symbols.E.conj().T @ GE                         # (nE, nE)
        d2 = q[:, None] + q[None, :] - 2.0 * np.real(S)     # pairwise ||Psi(ei-ej)||^2
        rv = np.real(symbols.E.conj().T @ noise) * sigmas   # (snr, nE, draws)
        dt = d2[t_idx, :].T + 2.0 * (rv[:, t_idx, np.arange(draws)][:, None, :] - rv)
        # log-sum-exp over the alphabet, every SNR point at once
        a = -dt / (sigmas * sigmas)
        peak = a.max(axis=1)
        lse = np.log(np.exp(a - peak[:, None, :]).sum(axis=1)) + peak
        per_channel[ch] = np.mean(math.log2(nE) - lse / math.log(2.0), axis=1)
    out = []
    for si, snr in enumerate(snr_db_list):
        se = float(np.std(per_channel[:, si], ddof=1) / math.sqrt(channels)) if channels > 1 else 0.0
        out.append(
            RatePoint(
                scheme=scheme,
                snr_db=snr,
                rate_bits=float(np.mean(per_channel[:, si])),
                stderr=se,
            )
        )
    return out
