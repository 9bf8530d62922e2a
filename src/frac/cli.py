"""Command line interface: batch experiments writing CSV (or JSON) results.

Exit codes: 0 on success, 2 for configuration/validation problems, 3 when an
iterative solver fails to converge.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

from . import __version__, harness
from .config import ConfigError, SystemConfig, reference_config
from .im_codec import MappingTable, decode, encode
from .radar_recovery import NonConvergenceError
from .radar_sim import Target

# the flag of each driver parameter that an error message may name
_FLAGS = {
    "axis": "--axis", "points": "--points", "extent": "--extent", "mc_cpis": "--mc",
    "variants": "--variants", "l_values": "--l-values", "trials": "--trials",
    "workers": "--workers", "snr_db_list": "--snr", "snr_db": "--snr", "scene_mode": "--scene",
    "n_targets": "--n-targets", "channels": "--channels", "draws": "--draws",
}


def _flag_message(text: str) -> str:
    """``text`` with each driver parameter it names as a word turned into its
    flag.  A name in a quoted or path-like token is user input and stays, and
    so does a name followed by a number: it quotes a value ("n_targets 0")."""
    import re  # only an error needs it

    return re.sub(rf"(?<![\w'\"./-])({'|'.join(_FLAGS)})(?![\w'\"./-]| -?\d)",
                  lambda m: _FLAGS[m[1]], text)


def _common_parser() -> argparse.ArgumentParser:
    """The flags every subcommand takes: --out, --config and one override
    flag per SystemConfig field."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    grp = common.add_argument_group(
        "configuration",
        "base values come from the built-in reference set or --config; "
        "individual flags override either",
    )
    grp.add_argument("--config", metavar="JSON", help="JSON file with config fields")
    for f in dataclasses.fields(SystemConfig):
        # the counts and the seed default to integers; every other field is
        # a float or None
        kind = int if isinstance(f.default, int) else float
        grp.add_argument(f"--{f.name}", type=kind, default=None, help=f"override {f.name}")
    return common


def _load_config(args: argparse.Namespace) -> SystemConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = SystemConfig.from_json(fh.read())
    else:
        cfg = reference_config()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(SystemConfig)
                 if getattr(args, f.name) is not None}
    if overrides:
        # overriding one of the paired fields drops the other in the same
        # replace call, otherwise the stale partner wins or validation
        # rejects the intermediate state
        if "F_s_radar" in overrides and "r_max" not in overrides:
            overrides["r_max"] = None
        if "r_max" in overrides and "F_s_radar" not in overrides:
            overrides["F_s_radar"] = None
        cfg = cfg.replace(**overrides)
    return cfg


def parse_range(text: str) -> list[float]:
    """Grids: 'start:step:stop' (inclusive stop) or a comma list.

    The grid must be non-empty, and a range's bounds and step finite; the
    drivers check the values.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ValueError(f"range bounds and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        if n < 1:
            raise ValueError(f"empty range {text!r}")
        return [start + i * step for i in range(n)]
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return values


def _grid(name: str, text: str) -> list[float]:
    """The grid for driver parameter ``name``; a bad grid is an error naming it."""
    try:
        return parse_range(text)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def _write(args, text: str) -> None:
    """Write ``text`` to --out, or to stdout without it."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(args, cfg: SystemConfig, fieldnames: list[str], rows: list[dict],
               comments: list[str] | None = None) -> None:
    buf = io.StringIO()
    buf.write(f"# frac {__version__}\n")
    buf.write(f"# config_hash: {cfg.config_hash()}\n")
    for line in comments or []:
        buf.write(f"# {line}\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k, "")) for k in fieldnames})
    _write(args, buf.getvalue())


def _write_points(args, cfg: SystemConfig, points: list, comments: list[str]) -> None:
    """One CSV row per result point, one column per field of its dataclass."""
    _write_csv(args, cfg, [f.name for f in dataclasses.fields(points[0])],
               [dataclasses.asdict(p) for p in points], comments)


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".10g")
    return v


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_encode(args, cfg: SystemConfig) -> None:
    mapping = MappingTable.load(args.mapping, cfg) if args.mapping else None
    sel = encode(args.bits, cfg, mapping)
    payload = {
        "bits": args.bits,
        "carriers": list(sel.carriers),
        "antennas": list(sel.antennas),
        "phases_rad": list(sel.phases),
        "xi": list(sel.xi(cfg)),
        "decoded": decode(sel, cfg, mapping),
        "bit_budget": {
            "im": cfg.n_im_bits, "pm": cfg.n_pm_bits, "total": cfg.n_total_bits,
        },
        "config_hash": cfg.config_hash(),
    }
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_ambiguity(args, cfg: SystemConfig) -> None:
    rows = harness.run_ambiguity(
        cfg, axis=args.axis, points=args.points, extent=args.extent,
        mc_cpis=args.mc, seed=cfg.seed,
    )
    _write_csv(args, cfg, list(rows[0]), rows,
               comments=[f"axis: {args.axis}", f"mc_cpis: {args.mc}"])


def _cmd_phase_transition(args, cfg: SystemConfig) -> None:
    variants = harness.parse_variants(cfg, args.variants)
    # the empirical flags default to None, so the sweep's defaults apply
    given = {name: getattr(args, name) for name in ("l_values", "trials", "workers")
             if getattr(args, name) is not None}
    if args.mode == "theory":
        if given:
            raise ValueError(f"{', '.join(given)} only apply to --mode empirical")
        rows = harness.run_phase_transition_theory(cfg, variants)
        comments = []
    else:
        if "l_values" in given:
            given["l_values"] = _grid("l_values", given["l_values"])
        rows, summary = harness.run_phase_transition_sweep(cfg, variants, **given)
        comments = [f"crossing(0.6): {json.dumps(summary, sort_keys=True)}"]
    _write_csv(args, cfg, list(rows[0]), rows, comments)


def _cmd_hit_rate(args, cfg: SystemConfig) -> None:
    points = harness.run_hit_rate(
        cfg, _grid("snr_db_list", args.snr), trials=args.trials, seed=cfg.seed,
        scene_mode=args.scene, n_targets=args.n_targets,
        solver=args.solver, workers=args.workers,
    )
    _write_points(args, cfg, points, [f"scene: {args.scene}", f"solver: {args.solver}"])


def _read_scene(path, cfg: SystemConfig) -> list[Target]:
    from .radar_sim import unit_echo_alpha

    targets = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        need = {"r_m", "v_mps", "theta_deg", "amp", "phase_rad"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ConfigError(
                f"scene file needs columns {sorted(need)}, got {reader.fieldnames}"
            )
        for row in reader:
            r = float(row["r_m"])
            amp = float(row["amp"])
            phase = float(row["phase_rad"])
            # the file stores the post-compression gain; unit_echo_alpha
            # pre-compensates the compression gain and two-way carrier phase
            alpha = amp * unit_echo_alpha(r, phase, cfg)
            targets.append(
                Target(r=r, v=float(row["v_mps"]),
                       theta=math.radians(float(row["theta_deg"])), alpha=alpha)
            )
    return targets


def _cmd_recovery_map(args, cfg: SystemConfig) -> None:
    scene = _read_scene(args.scene_file, cfg) if args.scene_file else harness.reference_scene(cfg)
    true_rows, rec_rows = harness.run_recovery_map(
        cfg, scene, snr_db=args.snr, solver=args.solver, seed=cfg.seed,
        full_chain=not args.direct, dump_cube_path=args.dump_cube,
    )
    fields = ["kind", "r_m", "v_mps", "theta_deg", "amp", "phase_rad", "cell", "flat_index"]
    _write_csv(args, cfg, fields, true_rows + rec_rows,
               comments=[f"solver: {args.solver}",
                         f"snr_db: {'noiseless' if args.snr is None else args.snr}"])


def _cmd_comm_ber(args, cfg: SystemConfig) -> None:
    points = harness.run_comm_ber(
        cfg, _grid("snr_db_list", args.snr), channels=args.channels, draws=args.draws,
        schemes=args.schemes, seed=cfg.seed,
    )
    _write_points(args, cfg, points, [f"channels: {args.channels}", f"draws: {args.draws}"])


def _cmd_comm_rate(args, cfg: SystemConfig) -> None:
    points = harness.run_comm_rate(
        cfg, _grid("snr_db_list", args.snr), channels=args.channels, draws=args.draws,
        schemes=args.schemes, seed=cfg.seed,
    )
    _write_points(args, cfg, points, [f"channels: {args.channels}", f"draws: {args.draws}"])


def _cmd_resolution_report(args, cfg: SystemConfig) -> None:
    rows = harness.resolution_report(cfg)
    _write_csv(args, cfg, list(rows[0]), rows)


def _cmd_hw_report(args, cfg: SystemConfig) -> None:
    rows, formulas = harness.hw_report(cfg)
    _write_csv(args, cfg, list(rows[0]), rows, comments=formulas)


def _schemes(text: str) -> tuple[str, ...]:
    """A --schemes value: the comma list's non-blank names."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _workers(text: str) -> int:
    """A --workers value: an integer count of processes, at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frac",
        description="FMCW index-modulation radar-communications batch experiments",
    )
    parser.add_argument("--version", action="version", version=f"frac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand shares one parser of the common flags
    add = functools.partial(sub.add_parser, parents=[_common_parser()])

    p = add("encode", help="map a bit word to a transmit selection")
    p.add_argument("--bits", required=True, help="binary word of n_total_bits")
    p.add_argument("--mapping", help="JSON mapping-table file overriding the codec")
    p.set_defaults(func=_cmd_encode)

    p = add("ambiguity", help="expected ambiguity cuts and planes")
    p.add_argument("--axis", default="range",
                   help="range | velocity | angle | pair like range-velocity")
    p.add_argument("--points", type=int, default=129)
    p.add_argument("--extent", type=float, default=1.0,
                   help="width of the normalized offset window")
    p.add_argument("--mc", type=int, default=0,
                   help="CPIs for a Monte Carlo mean column (0 = closed form only)")
    p.set_defaults(func=_cmd_ambiguity)

    p = add("phase-transition", help="basis-pursuit sparsity limits")
    p.add_argument("--mode", choices=("theory", "empirical"), default="theory")
    p.add_argument("--variants", default="base,K=2,M=4,M=16,P=2,P=8,N=16,N=24",
                   help="comma list of 'base' or FIELD=VALUE configs")
    p.add_argument("--l-values", default=None,
                   help="sparsity grid (range syntax); default 1..2*l_star")
    p.add_argument("--trials", type=int, default=None,
                   help="trials per sparsity level (empirical; default 100)")
    p.add_argument("--workers", type=_workers, default=None,
                   help="parallel worker processes (empirical; default 1)")
    p.set_defaults(func=_cmd_phase_transition)

    p = add("radar-hit-rate", help="exact grid-triple recovery vs SNR")
    p.add_argument("--snr", default="0:2:20", help="SNR grid in dB (start:step:stop)")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--scene", choices=("fixed", "random"), default="fixed")
    p.add_argument("--n-targets", type=int, default=None,
                   help="targets per random scene (default 3)")
    p.add_argument("--solver", choices=("omp", "bp"), default="omp")
    p.add_argument("--workers", type=_workers, default=1, help="parallel worker processes")
    p.set_defaults(func=_cmd_hit_rate)

    p = add("recovery-map", help="recover one scene and dump the map")
    p.add_argument("--scene-file", help="CSV with r_m,v_mps,theta_deg,amp,phase_rad")
    p.add_argument("--snr", type=float, default=None, help="radar SNR in dB (default noiseless)")
    p.add_argument("--solver", choices=("omp", "bp"), default="omp")
    p.add_argument("--direct", action="store_true",
                   help="skip the fast-time chain and write cell snapshots directly")
    p.add_argument("--dump-cube", help="write the fast-time cube to this path")
    p.set_defaults(func=_cmd_recovery_map)

    p = add("comm-ber", help="bit error rate of the downlink receivers")
    p.add_argument("--snr", default="0:2:20")
    p.add_argument("--channels", type=int, default=100)
    p.add_argument("--draws", type=int, default=100, help="messages per channel")
    p.add_argument("--schemes", type=_schemes, default="frac-ml,frac-sod,psk64-ml")
    p.set_defaults(func=_cmd_comm_ber)

    p = add("comm-rate", help="achievable rate of the discrete alphabet")
    p.add_argument("--snr", default="-10:5:30")
    p.add_argument("--channels", type=int, default=100)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--schemes", type=_schemes, default="frac-j2,frac-j4")
    p.set_defaults(func=_cmd_comm_rate)

    p = add("resolution-report", help="resolutions and spans")
    p.set_defaults(func=_cmd_resolution_report)

    p = add("hw-report", help="hardware cost versus wideband MIMO")
    p.set_defaults(func=_cmd_hw_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args, _load_config(args))
        return 0
    except (ValueError, OSError) as e:
        print(f"frac: error: {_flag_message(str(e))}", file=sys.stderr)
        return 2
    except NonConvergenceError as e:
        print(f"frac: solver did not converge: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
