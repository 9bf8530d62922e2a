"""In-memory spans around the public functions of each frac layer.

Spans are recorded from outside the program.  Each target below is a module
attribute at the name its caller looks up (``frac.harness.build_dictionary``
is what ``run_hit_rate`` calls), replaced for the traced repeats by a
wrapper that notes start, end, parent span and a few counts read from the
arguments or the result.  Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from dataclasses import dataclass, field


def _dictionary_counts(args, out) -> dict:
    rows, cols = out.A.shape
    return {"mib": rows * cols * out.A.itemsize / 2**20}


def _bp_counts(args, out) -> dict:
    return {"iterations": out.iterations, "cap_hits": int(out.iterations >= args["max_iter"])}


def _trial_counts(args, out) -> dict:
    return {"successes": int(out)}


def _mc_counts(args, out) -> dict:
    return {"cpi_points": int(args["n_cpi"]) * out.size}


def _channel_counts(args, out) -> dict:
    return {"channels": int(args["channels"])}


# (module, attribute, layer, span name, counts taken from (arguments, result))
TARGETS = (
    ("frac.harness", "run_hit_rate", "harness", "run_hit_rate", None),
    ("frac.harness", "run_phase_transition_empirical", "harness", "run_phase_transition", None),
    ("frac.harness", "run_comm_ber", "harness", "run_comm_ber", None),
    ("frac.harness", "run_comm_rate", "harness", "run_comm_rate", None),
    ("frac.harness", "run_ambiguity", "harness", "run_ambiguity", None),
    ("frac.harness", "random_selection_sequence", "im_codec", "selection_draw", None),
    ("frac.phase_transition", "random_selection_sequence", "im_codec", "selection_draw", None),
    ("frac.comm", "encode", "im_codec", "encode", None),
    ("frac.harness", "simulate_cell_direct", "radar_sim", "cell_sim", None),
    ("frac.harness", "build_dictionary", "radar_recovery", "dictionary", _dictionary_counts),
    ("frac.phase_transition", "build_dictionary", "radar_recovery", "dictionary",
     _dictionary_counts),
    ("frac.harness", "omp_recover", "radar_recovery", "omp", None),
    ("frac.harness", "bp_recover", "radar_recovery", "bp", _bp_counts),
    ("frac.phase_transition", "bp_recover", "radar_recovery", "bp", _bp_counts),
    ("frac.phase_transition", "recovery_trial", "phase_transition", "recovery_trial",
     _trial_counts),
    ("frac.phase_transition", "solve_threshold", "phase_transition", "solve_threshold", None),
    ("frac.harness", "expected_af", "ambiguity", "expected_af", None),
    ("frac.harness", "mc_mean_af", "ambiguity", "mc_mean_af", _mc_counts),
    ("frac.comm", "build_psi", "comm", "psi", None),
    ("frac.comm", "enumerate_symbols", "comm", "symbols", None),
    ("frac.comm", "ber_curve", "comm", "ber_curve", _channel_counts),
    ("frac.comm", "rate_curve", "comm", "rate_curve", _channel_counts),
)

# every layer a span can belong to; "cli" is the root span around main()
LAYERS = ("cli", "harness", "im_codec", "radar_sim", "radar_recovery", "phase_transition",
          "ambiguity", "comm")


@contextlib.contextmanager
def patched(replacements):
    """Swap module attributes for the body: ``(module, attribute, factory)``
    where ``factory(original)`` returns the replacement."""
    saved = []
    try:
        for mod_name, attr, factory in replacements:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, factory(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


@dataclass
class Span:
    layer: str
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, name: str, counts=None):
        sig = inspect.signature(fn) if counts is not None else None

        def traced(*args, **kwargs):
            span = Span(layer, name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counts(bound.arguments, out)
            return out

        return traced

    def installed(self):
        """Context in which every target records spans into this tracer."""
        return patched(
            (mod, attr, lambda orig, l=layer, n=name, c=counts: self.wrap(orig, l, n, c))
            for mod, attr, layer, name, counts in TARGETS
        )

    def self_times(self) -> list[float]:
        """Each span's duration less the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        return [
            {"layer": s.layer, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, **s.counts}
            for s in self.spans
        ]


_UNITS = {"_ms": "ms", "_ms_per_channel": "ms", "_ms_per_trial": "ms",
          "_ms_per_invocation": "ms", "_mib": "MiB", "_us_per_iteration": "us",
          "_ns_per_cpi_point": "ns", "_pct": "%", "_s": "s"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name; plain counts read "count"."""
    return next((u for suffix, u in _UNITS.items() if metric.endswith(suffix)), "count")


def layer_metrics(tracer: Tracer, wall_s: float, repeats: int, trials: int,
                  invocations: int) -> dict[str, float]:
    """Per-layer figures over ``repeats`` traced repeats of ``wall_s`` seconds
    in total.  A per-call figure of a layer the workload never calls reads 0."""
    selfs = tracer.self_times()
    calls: dict[str, list[Span]] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for s, st in zip(tracer.spans, selfs):
        key = f"{s.layer}.{s.name}"
        calls.setdefault(key, []).append(s)
        self_by_name[key] = self_by_name.get(key, 0.0) + st
        self_by_layer[s.layer] += st

    def ms_per_call(key):
        spans = calls.get(key, [])
        return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def total(key, count):
        return sum(s.counts.get(count, 0) for s in calls.get(key, []))

    bp = calls.get("radar_recovery.bp", [])
    bp_iters = total("radar_recovery.bp", "iterations")
    mc_points = total("ambiguity.mc_mean_af", "cpi_points")
    ber_channels = total("comm.ber_curve", "channels")
    rate_channels = total("comm.rate_curve", "channels")
    out = {
        "im_codec.selection_draw_ms": ms_per_call("im_codec.selection_draw"),
        "radar_sim.cell_sim_ms": ms_per_call("radar_sim.cell_sim"),
        "radar_recovery.dictionary_ms": ms_per_call("radar_recovery.dictionary"),
        "radar_recovery.dictionary_mib": max(
            (s.counts["mib"] for s in calls.get("radar_recovery.dictionary", [])), default=0.0),
        "radar_recovery.omp_ms": ms_per_call("radar_recovery.omp"),
        "radar_recovery.omp_calls_per_trial": len(calls.get("radar_recovery.omp", [])) / trials,
        "radar_recovery.bp_ms": ms_per_call("radar_recovery.bp"),
        "radar_recovery.bp_iterations_mean": bp_iters / len(bp) if bp else 0.0,
        "radar_recovery.bp_us_per_iteration": (
            1e6 * sum(s.duration for s in bp) / bp_iters if bp_iters else 0.0),
        "radar_recovery.bp_cap_hits": total("radar_recovery.bp", "cap_hits") / repeats,
        "phase_transition.successes": (
            total("phase_transition.recovery_trial", "successes") / repeats),
        "ambiguity.mc_ns_per_cpi_point": (
            1e9 * sum(s.duration for s in calls.get("ambiguity.mc_mean_af", [])) / mc_points
            if mc_points else 0.0),
        "comm.psi_ms": ms_per_call("comm.psi"),
        "comm.symbols_ms": ms_per_call("comm.symbols"),
        "comm.ber_decide_ms_per_channel": (
            1e3 * self_by_name.get("comm.ber_curve", 0.0) / ber_channels
            if ber_channels else 0.0),
        "comm.rate_ms_per_channel": (
            1e3 * self_by_name.get("comm.rate_curve", 0.0) / rate_channels
            if rate_channels else 0.0),
        "harness.self_ms_per_trial": 1e3 * self_by_layer["harness"] / trials,
        "cli.self_ms_per_invocation": 1e3 * self_by_layer["cli"] / invocations,
    }
    for layer in LAYERS:
        out[f"{layer}.share_pct"] = 100.0 * self_by_layer[layer] / wall_s
    out["trace.accounted_pct"] = 100.0 * sum(selfs) / wall_s
    return out
