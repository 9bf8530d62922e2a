"""System parameters for the FMCW index-modulation radar-communications simulator.

A single frozen :class:`SystemConfig` carries every quantity the waveform,
radar, and communication chains need.  Raw fields mirror the knobs a designer
actually chooses (element counts, bandwidth, timing); everything else (carrier
spacing, chirp rate, grids, bit budget) is derived on demand so the two can
never drift apart.

Exactly one of ``F_s_radar`` / ``r_max`` must be supplied (or both, if
consistent): each determines the other through

    F_s_radar = 2 * r_max * delta_f / (c * T_0)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299792458.0  # m/s

# Reference parameter set used throughout the batch experiments.  The rounded
# propagation speed keeps the derived range grid on round values (12 m coarse
# cells, 1.5 m resolution); override c for SI-exact work.
REFERENCE_C = 3.0e8  # m/s

# The count fields of SystemConfig (every integer field but the seed), in field order.
COUNT_FIELDS = ("N", "M", "K", "P", "Q_r", "Q_c", "J", "n_taps")


class ConfigError(ValueError):
    """Raised when a parameter set is inconsistent or out of range."""


def _floor_int(x: float) -> int:
    # Guard against values like 9.999999999999998 that are an exact integer
    # up to float rounding.
    return int(math.floor(x + 1e-9))


@dataclass(frozen=True)
class SystemConfig:
    """Full parameter set; construct directly or via :meth:`from_dict`.

    Counts
    ------
    N : pulses per coherent processing interval
    M : size of the sub-carrier pool
    K : active sub-carriers (= active transmit antennas) per pulse
    P : transmit antenna elements
    Q_r : radar receive elements
    Q_c : communication receive antennas
    J : PSK constellation order (power of two)
    n_taps : multipath taps in the communication channel
    """

    N: int = 32
    M: int = 8
    K: int = 1
    P: int = 4
    Q_r: int = 2
    Q_c: int = 4
    J: int = 2
    n_taps: int = 8
    f_c: float = 77.0e9      # carrier start frequency [Hz]
    B: float = 100.0e6       # total sweep bandwidth [Hz]
    T_0: float = 60.88e-6    # pulse repetition interval [s]
    T_p: float = 50.0e-6     # chirp duration [s]
    F_s_radar: float | None = None   # radar ADC rate [Hz]
    r_max: float | None = None       # maximum unambiguous range [m]
    d_R: float | None = None         # receive element spacing [m]; default lambda/2
    F_s_comm: float | None = None    # communication sampling rate [Hz]; default B
    c: float = SPEED_OF_LIGHT        # propagation speed [m/s]
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        for name in COUNT_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.K > min(self.M, self.P):
            raise ConfigError(
                f"K={self.K} exceeds min(M, P)={min(self.M, self.P)}; "
                "each active carrier needs its own antenna"
            )
        if self.J < 2 or (self.J & (self.J - 1)) != 0:
            raise ConfigError(f"J must be a power of two >= 2, got {self.J}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("f_c", "B", "T_0", "T_p", "c"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")
        if self.T_p > self.T_0 * (1 + 1e-12):
            raise ConfigError(f"T_p={self.T_p} exceeds the PRI T_0={self.T_0}")
        for name in ("F_s_radar", "r_max", "d_R", "F_s_comm"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ConfigError(f"{name} must be positive and finite when given, got {v!r}")
        if self.F_s_radar is None and self.r_max is None:
            raise ConfigError("one of F_s_radar or r_max is required")
        # finite fields can still overflow or underflow what derives from them
        for name, v in (("delta_f", self.delta_f), ("f_s_radar", self.f_s_radar),
                        ("range_max", self.range_max),
                        ("range_resolution", self.range_resolution),
                        ("coarse_cell_width", self.coarse_cell_width),
                        ("velocity_resolution", self.velocity_resolution),
                        ("T_0 * F_s_radar", self.T_0 * self.f_s_radar),
                        ("T_p * F_s_comm", self.T_p * self.f_s_comm)):
            if not 0 < v < math.inf:
                raise ConfigError(f"derived {name} must be positive and finite, got {v!r}")
        if self.F_s_radar is not None and self.r_max is not None:
            implied = 2.0 * self.r_max * self.delta_f / (self.c * self.T_0)
            if abs(implied - self.F_s_radar) > 1e-6 * self.F_s_radar:
                raise ConfigError(
                    f"F_s_radar={self.F_s_radar:.6g} Hz inconsistent with "
                    f"r_max={self.r_max:.6g} m (implies {implied:.6g} Hz)"
                )
        if self.n_total_bits < 1:
            raise ConfigError("configuration carries no information bits")
        if self.G < 1:
            raise ConfigError("T_0 * F_s_radar must cover at least one sample")
        if self.U < 1:
            raise ConfigError("T_p * F_s_comm must cover at least one sample")

    # ------------------------------------------------------------------
    # derived waveform quantities
    # ------------------------------------------------------------------

    @property
    def delta_f(self) -> float:
        """Sub-carrier spacing B / M [Hz]."""
        return self.B / self.M

    @property
    def kappa(self) -> float:
        """Chirp rate delta_f / T_p [Hz/s]."""
        return self.delta_f / self.T_p

    @property
    def wavelength(self) -> float:
        return self.c / self.f_c

    @property
    def d_r(self) -> float:
        """Receive element spacing [m] (lambda/2 unless overridden)."""
        return self.d_R if self.d_R is not None else self.wavelength / 2.0

    @property
    def d_t(self) -> float:
        """Transmit element spacing Q_r * d_r [m] (yields a filled virtual array)."""
        return self.Q_r * self.d_r

    @property
    def f_s_radar(self) -> float:
        """Radar ADC rate [Hz], from r_max when not given directly."""
        if self.F_s_radar is not None:
            return self.F_s_radar
        return 2.0 * self.r_max * self.delta_f / (self.c * self.T_0)

    @property
    def range_max(self) -> float:
        """Maximum unambiguous range [m], from F_s_radar when not given."""
        if self.r_max is not None:
            return self.r_max
        return self.F_s_radar * self.c * self.T_0 / (2.0 * self.delta_f)

    @property
    def f_s_comm(self) -> float:
        """Communication receiver sampling rate [Hz] (defaults to B)."""
        return self.F_s_comm if self.F_s_comm is not None else self.B

    @property
    def G(self) -> int:
        """Fast-time samples per pulse, floor(T_0 * F_s_radar)."""
        return _floor_int(self.T_0 * self.f_s_radar)

    @property
    def U(self) -> int:
        """Communication samples per pulse, floor(T_p * F_s_comm)."""
        return _floor_int(self.T_p * self.f_s_comm)

    @property
    def coarse_cell_width(self) -> float:
        """Coarse range cell width c / (2 delta_f) [m]."""
        return self.c / (2.0 * self.delta_f)

    @property
    def Q(self) -> int:
        """Virtual array size P * Q_r (angle grid size)."""
        return self.P * self.Q_r

    @property
    def n1(self) -> int:
        """Measurements per coarse-cell snapshot, N * K * Q_r."""
        return self.N * self.K * self.Q_r

    @property
    def n2(self) -> int:
        """Recovery grid columns per coarse cell, N * M * P * Q_r."""
        return self.N * self.M * self.Q

    # ------------------------------------------------------------------
    # information bits
    # ------------------------------------------------------------------

    @property
    def bit_groups(self) -> tuple[int, int, int, int]:
        """Widths of a pulse word's groups: (carrier set, antenna set,
        pairing, PSK), floor(log2) of C(M,K), C(P,K), K! and J.  The word
        carries one PSK group per selected carrier, K in all."""
        return (
            math.comb(self.M, self.K).bit_length() - 1,
            math.comb(self.P, self.K).bit_length() - 1,
            math.factorial(self.K).bit_length() - 1,
            self.J.bit_length() - 1,
        )

    @property
    def n_im_bits(self) -> int:
        """Index-modulation bits per pulse (carrier set, antenna set, pairing)."""
        return sum(self.bit_groups[:3])

    @property
    def n_pm_bits(self) -> int:
        """Phase-modulation bits per pulse, K * log2(J)."""
        return self.K * self.bit_groups[3]

    @property
    def n_total_bits(self) -> int:
        return self.n_im_bits + self.n_pm_bits

    def bit_budget(self) -> tuple[int, int, int]:
        """(n_im, n_pm, n_total) bits carried by one pulse."""
        return (self.n_im_bits, self.n_pm_bits, self.n_total_bits)

    # ------------------------------------------------------------------
    # resolutions
    # ------------------------------------------------------------------

    @property
    def range_resolution(self) -> float:
        """c / (2 M delta_f) [m]."""
        return self.c / (2.0 * self.M * self.delta_f)

    @property
    def velocity_resolution(self) -> float:
        """lambda / (2 N T_0) [m/s]."""
        return self.wavelength / (2.0 * self.N * self.T_0)

    @property
    def angle_resolution(self) -> float:
        """arcsin(lambda / (P Q_r d_r)) [rad]."""
        arg = self.wavelength / (self.Q * self.d_r)
        if arg > 1.0:
            raise ConfigError(f"angle resolution undefined: lambda/(P*Q_r*d_R) = {arg:.4g} > 1")
        return math.asin(arg)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "SystemConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(d, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(d)

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)

    def config_hash(self) -> str:
        """Short stable digest of the raw fields, for output provenance headers."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


def reference_config(**overrides) -> SystemConfig:
    """The reference parameter set used by the batch experiments.

    77 GHz carrier, 100 MHz sweep over M = 8 sub-carriers, N = 32 pulses,
    K = 1 active carrier on P = 4 transmit / Q_r = 2 receive elements,
    416.68 kHz ADC rate.  c is pinned to 3e8 m/s so the derived grid lands
    on round values (1.5 m range resolution, 12 m coarse cells).
    """
    params = dict(
        N=32, M=8, K=1, P=4, Q_r=2, Q_c=4, J=2, n_taps=8,
        f_c=77.0e9, B=100.0e6, T_0=60.88e-6, T_p=50.0e-6,
        F_s_radar=416.68e3, c=REFERENCE_C,
    )
    params.update(overrides)
    return SystemConfig(**params)
