"""Run one workload in this process and print its result as one JSON line.

Started by run.py with the BLAS thread variables removed from the
environment and ``src`` on PYTHONPATH.  Each repeat runs the workload's
fixed list of invocations through ``frac.cli.main`` back to back (a closed
loop with one client).  The first repeat warms the process up, gives the
reference CSV output and feeds the checks; the timed repeats that follow
must reproduce that output exactly.  Fresh interpreters for ``setup_s`` are
started between repeats, while this process waits.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REPORTS = os.path.join(HERE, "reports")
FRESH_STARTS = 3
FRESH_TIMEOUT_S = 120

RUN_CODE = "import sys\nfrom frac.cli import main\nsys.exit(main(sys.argv[1:]))"
IMPORT_CODE = ("import time\nt = time.perf_counter()\nimport frac.cli\n"
               "print(time.perf_counter() - t)")


def blas_threads() -> int:
    """Threads OpenBLAS will use here, read from the loaded library (0 when
    no OpenBLAS is loaded)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


class Runner:
    """Runs repeats of one workload and keeps the reference output."""

    def __init__(self, workload: workloads.Workload, main) -> None:
        self.workload = workload
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.reference: list[str] | None = None
        self.errors: list[str] = []       # invocations that failed
        self.mismatches: list[str] = []   # outputs that differ from repeat 1

    def _invoke(self, main, argv) -> tuple[str, bool]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                ok = main(list(argv)) == 0
            except Exception as exc:  # a crash counts as a failed invocation
                print(repr(exc), file=err)
                ok = False
        if not ok:
            self.errors.append(f"{' '.join(argv)}: {err.getvalue().strip()[-300:]}")
        return out.getvalue(), ok

    def repeat(self, main=None) -> tuple[float, float]:
        """One pass over the invocations; returns (wall s, CPU s)."""
        main = main or self.main
        texts = []
        t0, c0 = time.perf_counter(), time.process_time()
        for inv in self.workload.invocations:
            texts.append(self._invoke(main, inv.argv))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if self.reference is None:
            self.reference = [text for text, _ in texts]
        for (text, ok), ref, inv in zip(texts, self.reference, self.workload.invocations):
            self.attempted += 1
            if not ok or text != ref:
                self.failed += 1
                if ok:
                    self.mismatches.append(f"{' '.join(inv.argv)}: output differs from repeat 1")
        return wall, cpu

    def fresh_start(self, code: str, argv=()) -> tuple[float, str]:
        """Wall time of a new interpreter running ``code``; returns its stdout."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, timeout=FRESH_TIMEOUT_S)
        wall = time.perf_counter() - t0
        self.attempted += 1
        if proc.returncode != 0 or not proc.stdout:
            self.failed += 1
            self.errors.append(f"fresh start {' '.join(argv)}: exit {proc.returncode} "
                               f"{proc.stderr.strip()[-300:]}")
        return wall, proc.stdout


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def more(walls: list[float], seconds: float) -> bool:
    """Whether another repeat fits in ``seconds``; there is always one."""
    return not walls or sum(walls) * (len(walls) + 1) / len(walls) <= seconds


def measure(runner: Runner, seconds: float) -> dict:
    """Timed repeats for about ``seconds``; a fresh start of the one-trial
    invocation after each, up to FRESH_STARTS in all."""
    wl = runner.workload
    setups = [runner.fresh_start(RUN_CODE, wl.setup)[0]]
    walls, cpus = [], []
    while more(walls, seconds):
        wall, cpu = runner.repeat()
        walls.append(wall)
        cpus.append(cpu)
        if len(setups) < FRESH_STARTS:
            setups.append(runner.fresh_start(RUN_CODE, wl.setup)[0])
    while len(setups) < FRESH_STARTS:
        setups.append(runner.fresh_start(RUN_CODE, wl.setup)[0])
    rate = [wl.trials / w for w in walls]
    cpu_ms = [1e3 * c / wl.trials for c in cpus]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"trials_per_s": rate, "cpu_ms_per_trial": cpu_ms, "setup_s": setups,
               "repeat_wall_s": walls}
    metrics = {
        "trials_per_s": {"value": statistics.median(rate), "unit": "trials/s"},
        "cpu_ms_per_trial": {"value": statistics.median(cpu_ms), "unit": "ms"},
        "peak_rss_mib": {"value": peak, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    return {"metrics": metrics, "samples": samples,
            "summary": {k: quartiles(v) for k, v in samples.items()}}


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Untraced and traced repeats in turn for about ``seconds``; fresh
    ``import frac.cli`` starts in between."""
    wl = runner.workload
    tracer = spans.Tracer()
    traced_main = tracer.wrap(runner.main, "cli", "main")
    imports = []
    plain, traced = [], []
    while more([a + b for a, b in zip(plain, traced)], seconds):
        # alternate which of the pair runs first, so drift does not bias the overhead
        for traced_turn in (False, True) if len(plain) % 2 == 0 else (True, False):
            if traced_turn:
                with tracer.installed():
                    traced.append(runner.repeat(traced_main)[0])
            else:
                plain.append(runner.repeat()[0])
        if len(imports) < FRESH_STARTS:
            imports.append(runner.fresh_start(IMPORT_CODE)[1])
    while len(imports) < FRESH_STARTS:
        imports.append(runner.fresh_start(IMPORT_CODE)[1])
    imports = [float(text) for text in imports if text]
    layer = spans.layer_metrics(tracer, sum(traced), len(traced), wl.trials * len(traced),
                                len(wl.invocations) * len(traced))
    layer["setup.import_s"] = statistics.median(imports)
    layer["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    layer["env.blas_threads"] = blas_threads()
    metrics = {name: {"value": value, "unit": spans.unit(name)} for name, value in layer.items()}
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced, "import_s": imports}
    return {"metrics": metrics, "samples": samples, "spans": tracer.dump()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    from frac.cli import main as frac_main

    wl = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(wl, frac_main)
    found: dict = {}
    with checks.capture(wl.name, found):
        runner.repeat()
    if runner.failed:
        problems = ["the reference repeat has failed invocations; outputs not checked"]
    else:
        outputs = [checks.parse_csv(text) for text in runner.reference]
        problems = checks.CHECKS[wl.name](wl, outputs, found)

    result = (measure_traced if args.trace else measure)(runner, args.seconds)
    problems += runner.mismatches
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "invocations": [" ".join(inv.argv) for inv in wl.invocations],
        "trials_per_repeat": wl.trials, "attempted": runner.attempted,
        "failed": runner.failed, "errors": runner.errors, "problems": problems,
        "captured": found,
        "environment": environment(), **result,
    }
    os.makedirs(REPORTS, exist_ok=True)
    path = os.path.join(REPORTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    for line in runner.errors:
        print(f"failed: {line}", file=sys.stderr)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
