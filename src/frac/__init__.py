"""FMCW MIMO dual-function radar-communications simulator.

The transmitter hops K of M sub-band chirps across K of P antenna elements
each pulse (index modulation) with J-ary phase modulation on top; the
package simulates the radar echo chain, sparse scene recovery, ambiguity
and phase-transition analysis, and the downlink communication receivers.
"""

__version__ = "0.1.0"

from .config import ConfigError, SystemConfig, reference_config
from .im_codec import MappingTable, PulseSelection, decode, encode, random_selection_sequence
from .radar_sim import (
    Target,
    pulse_compress,
    sigma_for_snr,
    simulate_cell_direct,
    simulate_fast_time,
)
from .radar_recovery import (
    NonConvergenceError,
    bp_recover,
    build_dictionary,
    grid_to_physical,
    omp_recover,
    physical_to_grid,
)
from .ambiguity import expected_af, instantaneous_af
from .phase_transition import approx_threshold, pt_integral, solve_threshold
from .comm import (
    baseband_waveforms,
    build_psi,
    enumerate_symbols,
    ml_decode,
    sample_channel,
    sod_decode,
)

__all__ = [
    "__version__",
    "ConfigError",
    "SystemConfig",
    "reference_config",
    "MappingTable",
    "PulseSelection",
    "decode",
    "encode",
    "random_selection_sequence",
    "Target",
    "pulse_compress",
    "sigma_for_snr",
    "simulate_cell_direct",
    "simulate_fast_time",
    "NonConvergenceError",
    "bp_recover",
    "build_dictionary",
    "grid_to_physical",
    "omp_recover",
    "physical_to_grid",
    "expected_af",
    "instantaneous_af",
    "approx_threshold",
    "pt_integral",
    "solve_threshold",
    "baseband_waveforms",
    "build_psi",
    "enumerate_symbols",
    "ml_decode",
    "sample_channel",
    "sod_decode",
]
