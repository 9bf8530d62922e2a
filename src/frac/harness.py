"""Batch experiment drivers behind the command-line interface.

Every run is deterministic for a given seed: trial t draws from
``np.random.default_rng([seed, tag, t])`` where the tag separates
experiments, so results do not depend on worker count or chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial, wraps

import numpy as np

from . import comm, phase_transition
from .ambiguity import expected_af, mc_mean_af
from .config import COUNT_FIELDS, SystemConfig
from .im_codec import random_selection_sequence
from .radar_recovery import (
    NonConvergenceError,
    build_dictionary,
    bp_recover,
    default_bp_eps,
    grid_to_physical,
    omp_recover,
    physical_to_grid,
    recovered_targets,
)
from .radar_sim import (
    Target,
    cell_index,
    extract_cell,
    pulse_compress,
    sigma_for_snr,
    simulate_cell_direct,
    simulate_fast_time,
    unit_echo_alpha,
)

__all__ = [
    "HitRatePoint",
    "parse_variants",
    "reference_scene",
    "snap_to_grid",
    "run_hit_rate",
    "run_recovery_map",
    "run_ambiguity",
    "run_phase_transition_theory",
    "run_phase_transition_empirical",
    "run_phase_transition_sweep",
    "run_comm_ber",
    "run_comm_rate",
    "resolution_report",
    "hw_report",
]

_TAG_HIT = 101
_TAG_MAP = 211

# the variables by which a user sets OpenBLAS's thread count: when one is
# set, the drivers leave the count alone
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@cache
def _openblas() -> tuple:
    """(set, get) thread-count functions of each OpenBLAS loaded in this
    process, read from /proc/self/maps on the first call; empty without one
    (MKL, Accelerate, or no /proc)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((set_, get))
                break
    return tuple(found)


def _set_blas_threads(n: int) -> list:
    """Set every loaded OpenBLAS to ``n`` threads unless the user chose a
    count through the environment; returns (set, previous count) pairs."""
    import os

    if any(name in os.environ for name in _BLAS_ENV):
        return []
    saved = [(set_, get()) for set_, get in _openblas()]
    for set_, _ in saved:
        set_(n)
    return saved


def _one_blas_thread(fn):
    """Run the driver ``fn`` on one BLAS thread and restore the caller's count.

    Its products are small (a 32 x 1024 dictionary, 32 x 32 Grams): a second
    thread costs about twice the CPU per trial for little or no gain in wall
    time, and takes the core that a second pool worker would use.  The count
    belongs to the process: drivers that overlap in several threads each
    restore the count they found when they started.
    """
    @wraps(fn)
    def pinned(*args, **kwargs):
        saved = _set_blas_threads(1)
        try:
            return fn(*args, **kwargs)
        finally:
            for set_, n in reversed(saved):
                set_(n)
    return pinned


@dataclass(frozen=True)
class HitRatePoint:
    snr_db: float
    trials: int
    hits: int
    hit_rate: float
    ci_low: float
    ci_high: float


def parse_variants(cfg: SystemConfig, variants: str) -> list[tuple[str, SystemConfig]]:
    """Comma list of 'base' or 'FIELD=INT' entries into labeled configs.

    The list must be non-empty and name no variant twice.
    """
    out = []
    try:
        for item in filter(None, (s.strip() for s in variants.split(","))):
            field, eq, val = (s.strip() for s in item.partition("="))
            if any(item == name for name, _ in out):
                raise ValueError(f"variant {item!r} is repeated")
            if item == "base":
                out.append(("base", cfg))
            elif not eq:
                raise ValueError(f"variant must be 'base' or FIELD=VALUE, got {item!r}")
            elif field not in COUNT_FIELDS:
                raise ValueError(f"variant field {field!r} is not an integer count")
            else:
                out.append((item, cfg.replace(**{field: int(val)})))
        if not out:
            raise ValueError(f"empty variant list {variants!r}")
    except ValueError as e:
        # a bad value or an invalid config, too, is an error of this list
        raise ValueError(f"variants: {e}") from None
    return out


def snap_to_grid(r: float, v: float, theta: float, cfg: SystemConfig) -> tuple[float, float, float]:
    """Physical triple of the nearest recovery grid point."""
    g, flat = physical_to_grid(r, v, theta, cfg)
    return grid_to_physical(flat, g, cfg)


def reference_scene(cfg: SystemConfig) -> list[Target]:
    """Three-scatterer benchmark scene, snapped to the recovery grid.

    Two targets share range and velocity one angle-resolution cell apart; the
    third sits in the next coarse range cell.  Unit amplitudes are
    pre-compensated so recovered gains are exactly 1.
    """
    theta3 = cfg.angle_resolution
    triples = [
        (4.5, 1.0, 0.0),
        (4.5, 1.0, theta3),
        (6.0, 2.0, theta3),
    ]
    out = []
    for r, v, theta in triples:
        rs, vs, ts = snap_to_grid(r, v, theta, cfg)
        out.append(Target(r=rs, v=vs, theta=ts, alpha=unit_echo_alpha(rs, 0.0, cfg)))
    return out


def _scene_truth(scene: list[Target], cfg: SystemConfig) -> dict[int, set[int]]:
    """Flat grid indices of a scene grouped by coarse cell."""
    truth: dict[int, set[int]] = {}
    for t in scene:
        g, flat = physical_to_grid(t.r, t.v, t.theta, cfg)
        truth.setdefault(g, set()).add(flat)
    return truth


def _random_grid_scene(
    cfg: SystemConfig, n_targets: int, rng: np.random.Generator, cell: int = 1
) -> list[Target]:
    """Distinct on-grid targets in one coarse cell with random phases.

    Cell 1 keeps every fine-range offset at a positive absolute range for
    any configuration.
    """
    flats = rng.choice(cfg.n2, size=n_targets, replace=False)
    out = []
    for flat in flats:
        r, v, theta = grid_to_physical(int(flat), cell, cfg)
        phase = 2.0 * np.pi * rng.random()
        out.append(Target(r=r, v=v, theta=theta, alpha=unit_echo_alpha(r, phase, cfg)))
    return out


def _hit_rate_trial(cfg: SystemConfig, sigmas: np.ndarray, rng: np.random.Generator,
                    fixed_scene: list[Target] | None, n_targets: int, solver: str) -> np.ndarray:
    """Hits of one trial, one bool per noise level in ``sigmas``."""
    selections = random_selection_sequence(cfg, rng)
    scene = fixed_scene if fixed_scene is not None else _random_grid_scene(cfg, n_targets, rng)
    dic = build_dictionary(selections, cfg)
    ok = np.ones(len(sigmas), dtype=bool)
    for g, flats in sorted(_scene_truth(scene, cfg).items()):
        cell_scene = [t for t in scene if cell_index(t.r, cfg) == g]
        clean = simulate_cell_direct(cell_scene, selections, cfg, 0.0, g=g)
        noise = (
            rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        ) / math.sqrt(2.0)
        # one snapshot per SNR: row s is clean + sigma_s * noise
        Y = clean.reshape(-1) + sigmas[:, None] * noise.reshape(-1)
        if solver == "omp":
            scenes = omp_recover(Y, dic, n_targets=len(cell_scene))
            ok &= [set(sol.support) == flats for sol in scenes]
            continue
        # one BP solve per SNR that every earlier cell got right
        for si in np.flatnonzero(ok):
            try:
                sol = bp_recover(Y[si], dic, eps=default_bp_eps(cfg, sigmas[si]))
                top = np.argsort(-np.abs(sol.coeffs))[:len(cell_scene)]
                found = set(sol.support[i] for i in top)
            except NonConvergenceError:
                found = set()
            ok[si] = found == flats
    return ok


def _hit_rate_chunk(cfg: SystemConfig, snr_db_list: list[float], seed: int, scene_mode: str,
                    n_targets: int, solver: str, chunk: tuple[int, int]) -> np.ndarray:
    trial_lo, trial_hi = chunk
    fixed_scene = reference_scene(cfg) if scene_mode == "fixed" else None
    sigmas = np.array([sigma_for_snr(cfg, snr) for snr in snr_db_list])
    hits = np.zeros(len(snr_db_list), dtype=np.int64)
    for trial in range(trial_lo, trial_hi):
        rng = np.random.default_rng([seed, _TAG_HIT, trial])
        # one trial per call, so its dictionary is freed before the next is built
        hits += _hit_rate_trial(cfg, sigmas, rng, fixed_scene, n_targets, solver)
    return hits


def _wilson(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@_one_blas_thread
def run_hit_rate(
    cfg: SystemConfig,
    snr_db_list,
    trials: int,
    seed: int = 0,
    scene_mode: str = "fixed",
    n_targets: int | None = None,
    solver: str = "omp",
    workers: int = 1,
) -> list[HitRatePoint]:
    """Exact grid-triple recovery probability per SNR.

    A trial is a hit only when every scatterer's (velocity, range, angle)
    grid triple is recovered in its coarse cell.  Selections, scene and noise
    shape are drawn once per trial and shared across the SNR grid.  A random
    scene has ``n_targets`` targets, 3 by default; the fixed scene always has
    3 and takes no count.
    """
    if scene_mode not in ("fixed", "random"):
        raise ValueError(f"scene_mode must be 'fixed' or 'random', got {scene_mode!r}")
    if solver not in ("omp", "bp"):
        raise ValueError(f"solver must be 'omp' or 'bp', got {solver!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if scene_mode == "fixed" and n_targets is not None:
        raise ValueError("n_targets only applies to scene_mode random; "
                         "the fixed scene has 3 targets")
    n_targets = 3 if n_targets is None else n_targets
    if scene_mode == "random" and not 1 <= n_targets <= cfg.n2:
        raise ValueError(f"n_targets {n_targets} outside [1, n2={cfg.n2}]")
    snr_db_list = _snr_list(snr_db_list)
    chunk = partial(_hit_rate_chunk, cfg, snr_db_list, seed, scene_mode, n_targets, solver)
    hits = np.sum(_map_trials(chunk, _chunk_args(trials, workers), workers), axis=0)
    return [HitRatePoint(snr, trials, int(h), h / trials, *_wilson(int(h), trials))
            for snr, h in zip(snr_db_list, hits)]


def _snr_list(snr_db_list) -> list[float]:
    """The SNR grid as finite floats; an empty grid would give a table with
    no rows, and a NaN SNR a curve of misses."""
    snrs = [float(s) for s in snr_db_list]
    if not snrs:
        raise ValueError("snr_db_list: the SNR list is empty")
    if not all(map(math.isfinite, snrs)):
        raise ValueError(f"snr_db_list: SNRs must be finite, got {snrs}")
    return snrs


def _chunk_args(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) trial ranges to share among ``workers`` processes."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1 or trials <= workers:
        return [(0, trials)]
    size = (trials + workers - 1) // workers
    return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def _map_trials(fn, jobs: list, workers: int) -> list:
    """``fn`` over every job: inline for one worker, else in one process pool.

    Workers are spawned, not forked, since the BLAS library may already run
    threads in this process, and each sets its own BLAS to one thread as it
    starts.  The pool modules are imported only here, so a one-worker run
    never loads them.
    """
    if workers == 1 or len(jobs) == 1:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn,
                             initializer=_set_blas_threads, initargs=(1,)) as pool:
        return list(pool.map(fn, jobs))


@_one_blas_thread
def run_recovery_map(
    cfg: SystemConfig,
    scene: list[Target],
    snr_db: float | None = None,
    solver: str = "omp",
    seed: int = 0,
    full_chain: bool = True,
    dump_cube_path=None,
):
    """Recover a scene once; returns (true_rows, recovered_rows) in physical units."""
    if solver not in ("omp", "bp"):
        raise ValueError(f"solver must be 'omp' or 'bp', got {solver!r}")
    if snr_db is not None and not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    if dump_cube_path is not None and not full_chain:
        raise ValueError("a cube is only dumped from the full fast-time chain, not --direct")
    rng = np.random.default_rng([seed, _TAG_MAP])
    selections = random_selection_sequence(cfg, rng)
    sigma = 0.0 if snr_db is None else sigma_for_snr(cfg, snr_db)
    cells: dict[int, list[Target]] = {}
    for t in scene:
        cells.setdefault(cell_index(t.r, cfg), []).append(t)

    snapshots = {}
    if full_chain:
        cube = simulate_fast_time(scene, selections, cfg, sigma, rng)
        if dump_cube_path is not None:
            from .radar_sim import save_cube

            save_cube(dump_cube_path, cube)
        crrp = pulse_compress(cube)
        for g in cells:
            snapshots[g] = extract_cell(crrp, g)
    else:
        for g, cell_scene in cells.items():
            snapshots[g] = simulate_cell_direct(cell_scene, selections, cfg, sigma, rng, g=g)

    dic = build_dictionary(selections, cfg)
    recovered = []
    for g in sorted(cells):
        y = snapshots[g].reshape(-1)
        if solver == "omp":
            sol = omp_recover(y, dic, n_targets=len(cells[g]))
        else:
            sol = bp_recover(y, dic, eps=default_bp_eps(cfg, sigma))
        recovered.extend(recovered_targets(sol, g, dic))

    true_rows = [
        {
            "kind": "true",
            "r_m": t.r,
            "v_mps": t.v,
            "theta_deg": math.degrees(t.theta),
            "amp": abs(t.alpha),
            "phase_rad": float(np.angle(t.alpha)),
            "cell": cell_index(t.r, cfg),
            "flat_index": "",
        }
        for t in scene
    ]
    rec_rows = [
        {
            "kind": "recovered",
            "r_m": rt.r,
            "v_mps": rt.v,
            "theta_deg": math.degrees(rt.theta),
            "amp": abs(rt.beta),
            "phase_rad": float(np.angle(rt.beta)),
            "cell": rt.cell,
            "flat_index": rt.flat_index,
        }
        for rt in recovered
    ]
    return true_rows, rec_rows


@_one_blas_thread
def run_ambiguity(
    cfg: SystemConfig,
    axis: str = "range",
    points: int = 129,
    extent: float = 1.0,
    mc_cpis: int = 0,
    seed: int = 0,
) -> list[dict]:
    """Expected ambiguity cut (and optional Monte Carlo mean) along one axis
    or over a two-axis plane, in normalized frequency offsets."""
    if points < 1:
        raise ValueError(f"points must be at least 1, got {points}")
    if mc_cpis < 0:
        raise ValueError(f"mc_cpis must be nonnegative, got {mc_cpis}")
    if not math.isfinite(extent) or extent < 0:
        raise ValueError(f"extent must be finite and nonnegative, got {extent}")
    if extent == 0 and points > 1:
        raise ValueError(f"extent 0 holds one offset, so points must be 1, got {points}")
    axes = {"range": 0, "velocity": 1, "angle": 2}
    names = axis.split("-")
    if len(names) > 2 or len(set(names)) < len(names) or not set(names) <= set(axes):
        raise ValueError(
            f"axis must be one of {list(axes)} or a pair of two of them like "
            f"'range-velocity', got {axis!r}"
        )
    offs = np.linspace(-extent / 2.0, extent / 2.0, points)
    queries = np.zeros((3,) + (points,) * len(names))
    for name, grid in zip(names, np.meshgrid(*[offs] * len(names), indexing="ij")):
        queries[axes[name]] = grid
    columns = {"df_range": queries[0], "df_velocity": queries[1], "df_angle": queries[2],
               "af_expected": expected_af(cfg, *queries)}
    if mc_cpis > 0:
        rng = np.random.default_rng([seed, 307])
        columns["af_mc"] = np.abs(mc_mean_af(cfg, *queries, n_cpi=mc_cpis, rng=rng))
    values = zip(*(c.reshape(-1).tolist() for c in columns.values()))
    return [dict(zip(columns, row)) for row in values]


def run_phase_transition_theory(
    cfg: SystemConfig, variants: list[tuple[str, SystemConfig]]
) -> list[dict]:
    rows = []
    for name, vcfg in variants:
        sol = phase_transition.solve_threshold(vcfg.n1, vcfg.n2)
        apx = phase_transition.approx_threshold(vcfg.n1, vcfg.n2)
        rows.append(
            {
                "variant": name,
                "n1": vcfg.n1,
                "n2": vcfg.n2,
                "l_star": sol.l_star,
                "beta_star": sol.beta_star,
                "l_star_approx": apx.l_star,
            }
        )
    return rows


def _pt_chunk(cfg: SystemConfig, seed: int, job: tuple[int, int, int]) -> int:
    l_sparse, trial_lo, trial_hi = job
    ok = 0
    for trial in range(trial_lo, trial_hi):
        rng = np.random.default_rng([seed, l_sparse, trial])
        ok += phase_transition.recovery_trial(cfg, l_sparse, rng)
    return ok


def _default_levels(l_star: float) -> list[int]:
    """Sparsity levels 1..max(3, ceil(2 L*)): the transition and as far again."""
    return list(range(1, max(3, math.ceil(l_star * 2.0)) + 1))


def _check_levels(cfg: SystemConfig, l_values, where: str = "") -> None:
    """Levels must be distinct integers in [1, n2]: a repeated level would
    run and be written twice.  ``where`` ends each message."""
    if not l_values:
        raise ValueError(f"l_values: the level list is empty{where}")
    for i, l in enumerate(l_values):
        if not 1 <= l <= cfg.n2:
            raise ValueError(f"l_values: sparsity level {l:g} outside [1, n2={cfg.n2}]{where}")
        if l != int(l):
            raise ValueError(f"l_values: sparsity level {l:g} is not an integer{where}")
        if l in l_values[:i]:
            raise ValueError(f"l_values: sparsity level {l:g} is repeated{where}")


@_one_blas_thread
def run_phase_transition_empirical(
    cfg: SystemConfig,
    l_values: list[int] | None = None,
    trials: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> tuple[list[dict], float | None]:
    """Success curve of equality basis pursuit and its 0.6 crossing.

    Trial t at sparsity L draws from ``default_rng([seed, L, t])``, so the
    curve does not depend on the worker count.  The crossing is None when the
    curve does not cross 0.6 within ``l_values``.  Without ``l_values`` the
    levels run from 1 to twice the theoretical threshold L*, and at least to 3.
    """
    if l_values is None:
        l_values = _default_levels(phase_transition.solve_threshold(cfg.n1, cfg.n2).l_star)
    _check_levels(cfg, l_values)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    l_values = [int(l) for l in l_values]
    chunks = _chunk_args(trials, workers)
    jobs = [(l, lo, hi) for l in l_values for lo, hi in chunks]
    parts = _map_trials(partial(_pt_chunk, cfg, seed), jobs, workers)
    oks = [sum(parts[i:i + len(chunks)]) for i in range(0, len(parts), len(chunks))]
    rows = [
        {"l_sparse": l, "trials": trials, "successes": ok, "success_rate": ok / trials}
        for l, ok in zip(l_values, oks)
    ]
    return rows, phase_transition.crossing(l_values, [r["success_rate"] for r in rows])


def run_phase_transition_sweep(
    cfg: SystemConfig,
    variants: list[tuple[str, SystemConfig]],
    l_values: list[int] | None = None,
    trials: int = 100,
    workers: int = 1,
) -> tuple[list[dict], dict]:
    """:func:`run_phase_transition_empirical` of each variant that
    :func:`parse_variants` made from ``cfg``, with the variant's seed.

    Returns one row per variant and level, and per variant its
    ``theory_l_star`` and ``empirical_crossing``.  Every variant's levels are
    checked before the first trial runs.
    """
    l_star = {name: phase_transition.solve_threshold(v.n1, v.n2).l_star for name, v in variants}
    levels = {name: _default_levels(l) if l_values is None else l_values
              for name, l in l_star.items()}
    for name, vcfg in variants:
        _check_levels(vcfg, levels[name], f" in variant {name!r}")
    rows, summary = [], {}
    for name, vcfg in variants:
        vrows, crossing = run_phase_transition_empirical(
            vcfg, levels[name], trials, seed=vcfg.seed, workers=workers)
        rows += [{"variant": name, **r} for r in vrows]
        summary[name] = {"theory_l_star": l_star[name], "empirical_crossing": crossing}
    return rows, summary


def _psk_baseline(cfg: SystemConfig, order: int) -> SystemConfig:
    """Single-waveform wideband PM baseline: one carrier spanning B, one element."""
    return cfg.replace(M=1, P=1, K=1, J=order)


def _check_schemes(schemes) -> None:
    """Reject an empty or repeated scheme list: it would run a curve twice
    or write a table with no rows."""
    if not schemes:
        raise ValueError("the scheme list is empty")
    seen = set()
    for s in schemes:
        if s in seen:
            raise ValueError(f"scheme {s!r} is repeated")
        seen.add(s)


@_one_blas_thread
def run_comm_ber(
    cfg: SystemConfig,
    snr_db_list,
    channels: int,
    draws: int,
    schemes=("frac-ml", "frac-sod", "psk64-ml"),
    seed: int = 0,
) -> list[comm.BerPoint]:
    """BER of each scheme: ``frac-<decoder>`` or ``psk<order>-<decoder>``."""
    snr_db_list = _snr_list(snr_db_list)
    _check_schemes(schemes)
    frac_decoders, psk = [], []
    for s in schemes:
        name, _, dec = s.partition("-")
        if name == "frac" and dec:
            frac_decoders.append(dec)
        elif name.startswith("psk") and name[3:].isdigit() and dec:
            psk.append((name, int(name[3:]), dec))
        else:
            raise ValueError(
                f"unknown BER scheme {s!r}; expected frac-<decoder> or psk<order>-<decoder>"
            )
    out: list[comm.BerPoint] = []
    if frac_decoders:
        out.extend(
            comm.ber_curve(
                cfg, snr_db_list, channels, draws,
                decoders=tuple(frac_decoders), seed=seed, scheme_prefix="frac",
            )
        )
    for name, order, dec in psk:
        out.extend(
            comm.ber_curve(
                _psk_baseline(cfg, order), snr_db_list, channels, draws,
                decoders=(dec,), seed=seed, scheme_prefix=name,
            )
        )
    return out


@_one_blas_thread
def run_comm_rate(
    cfg: SystemConfig,
    snr_db_list,
    channels: int,
    draws: int,
    schemes=("frac-j2", "frac-j4"),
    seed: int = 0,
) -> list[comm.RatePoint]:
    """Rate of each scheme: ``frac-j<J>`` or ``psk<order>``."""
    snr_db_list = _snr_list(snr_db_list)
    _check_schemes(schemes)
    out: list[comm.RatePoint] = []
    for s in schemes:
        if s.startswith("frac-j") and s[6:].isdigit():
            scfg = cfg.replace(J=int(s[6:]))
        elif s.startswith("psk") and s[3:].isdigit():
            scfg = _psk_baseline(cfg, int(s[3:]))
        else:
            raise ValueError(f"unknown rate scheme {s!r}; expected frac-j<J> or psk<order>")
        out.extend(comm.rate_curve(scfg, snr_db_list, channels, draws, seed=seed, scheme=s))
    return out


def resolution_report(cfg: SystemConfig) -> list[dict]:
    return [
        {
            "range_resolution_m": cfg.range_resolution,
            "velocity_resolution_mps": cfg.velocity_resolution,
            "angle_resolution_deg": math.degrees(cfg.angle_resolution),
            "coarse_cell_m": cfg.coarse_cell_width,
            "max_range_m": cfg.range_max,
            "velocity_span_mps": cfg.wavelength / (2.0 * cfg.T_0),
        }
    ]


def hw_report(cfg: SystemConfig) -> tuple[list[dict], list[str]]:
    """Hardware cost versus a full-band virtual MIMO benchmark, with formulas."""
    frac_rf = cfg.K + cfg.Q_r
    bench_rf = cfg.P * cfg.Q_r
    frac_fs = cfg.f_s_radar
    bench_fs = cfg.M * cfg.f_s_radar
    frac_samp = cfg.K * cfg.Q_r * cfg.G
    bench_samp = cfg.P * cfg.Q_r * cfg.M * cfg.G
    rows = [
        {"quantity": "rf_modules", "frac": frac_rf, "benchmark": bench_rf,
         "ratio": bench_rf / frac_rf},
        {"quantity": "sampling_rate_hz", "frac": frac_fs, "benchmark": bench_fs,
         "ratio": bench_fs / frac_fs},
        {"quantity": "samples_per_pri", "frac": frac_samp, "benchmark": bench_samp,
         "ratio": bench_samp / frac_samp},
    ]
    formulas = [
        f"rf_modules: frac = K + Q_r = {cfg.K} + {cfg.Q_r} = {frac_rf}; "
        f"benchmark = P * Q_r = {cfg.P} * {cfg.Q_r} = {bench_rf}",
        f"sampling_rate: frac = F_s = {frac_fs:.6g} Hz; "
        f"benchmark = M * F_s = {cfg.M} * {frac_fs:.6g} = {bench_fs:.6g} Hz",
        f"samples_per_pri: frac = K * Q_r * G = {cfg.K} * {cfg.Q_r} * {cfg.G} = {frac_samp}; "
        f"benchmark = P * Q_r * M * G = {cfg.P} * {cfg.Q_r} * {cfg.M} * {cfg.G} = {bench_samp}",
        f"sample ratio benchmark/frac = P * M / K = {bench_samp / frac_samp:.6g}",
    ]
    return rows, formulas
