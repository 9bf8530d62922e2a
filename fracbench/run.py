"""Benchmark entry point: run one workload of the frac CLI and print one JSON line.

    python3 fracbench/run.py --workload radar_hit_omp --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The program runs as shipped: the BLAS
thread variables are removed from its environment, so OpenBLAS picks its
own thread count, and ``src`` is put on PYTHONPATH.  The workload itself
runs in worker.py, in a child process that gets that environment; see
README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 170
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_THREAD_LIMIT",
)


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    # let frac's bytecode be cached in the checkout, as an installed package's is
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "frac", "cli.py")):
        print(f"run.py: no frac sources under {SRC}", file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # own process group, so a timeout also ends the worker's fresh interpreters
    proc = subprocess.Popen(cmd, env=program_env(), process_group=0)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
