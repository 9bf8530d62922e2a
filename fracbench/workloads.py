"""The four workloads: fixed lists of CLI invocations built from a seed.

Every invocation receives the workload seed as ``--seed``; nothing in a list
depends on how fast the program runs.  ``trials`` is the number of trials an
invocation performs (see README.md for the definition per workload), and
``setup`` is the one-trial invocation a fresh interpreter times for
``setup_s``.  Config fields that a check needs are passed explicitly so the
checks read them from the invocation rather than from the program.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    trials: int

    def flag(self, name: str) -> str:
        i = self.argv.index(f"--{name}")
        return self.argv[i + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    setup: tuple[str, ...]

    @property
    def trials(self) -> int:
        return sum(inv.trials for inv in self.invocations)


def _inv(seed: int, trials: int, *argv) -> Invocation:
    return Invocation(tuple(str(a) for a in argv) + ("--seed", str(seed)), trials)


# trials per invocation, chosen so one repeat takes about 3 s on 2 cores
HIT_FIXED_TRIALS = 20
HIT_RANDOM_TRIALS = 30
PT_TRIALS_PER_LEVEL = 3
PT_LEVELS = 13
BER_CHANNELS = 40
RATE_CHANNELS = 200
AF_CUT_CPIS = 4000
AF_PLANE_POINTS = 25
AF_PLANE_CPIS = 1000


def radar_hit_omp(seed: int) -> Workload:
    fixed = ("radar-hit-rate", "--scene", "fixed", "--K", 2, "--snr", "0:2:20")
    random = ("radar-hit-rate", "--scene", "random", "--n-targets", 3, "--snr", 10)
    return Workload(
        "radar_hit_omp",
        (
            _inv(seed, HIT_FIXED_TRIALS, *fixed, "--trials", HIT_FIXED_TRIALS),
            _inv(seed, HIT_RANDOM_TRIALS, *random, "--K", 1, "--trials", HIT_RANDOM_TRIALS),
            _inv(seed, HIT_RANDOM_TRIALS, *random, "--K", 2, "--trials", HIT_RANDOM_TRIALS),
            _inv(seed, HIT_RANDOM_TRIALS, *random, "--M", 16, "--K", 2,
                 "--trials", HIT_RANDOM_TRIALS),
        ),
        _inv(seed, 1, *fixed, "--trials", 1).argv,
    )


def phase_transition_bp(seed: int) -> Workload:
    base = ("phase-transition", "--mode", "empirical", "--variants", "base",
            "--N", 16, "--M", 8, "--K", 1, "--P", 4, "--Q_r", 2)
    return Workload(
        "phase_transition_bp",
        (_inv(seed, PT_LEVELS * PT_TRIALS_PER_LEVEL, *base, "--l-values", f"1:1:{PT_LEVELS}",
              "--trials", PT_TRIALS_PER_LEVEL),),
        _inv(seed, 1, *base, "--l-values", 3, "--trials", 1).argv,
    )


def comm_ber_rate(seed: int) -> Workload:
    alphabet = ("--M", 8, "--K", 1, "--P", 4)
    ber = ("comm-ber", *alphabet, "--J", 2, "--snr", "0:2:20", "--draws", 100,
           "--schemes", "frac-ml,frac-sod,psk64-ml")
    rate = ("comm-rate", *alphabet, "--B", "200e3", "--F_s_comm", "200e3",
            "--snr", "30,35,40", "--draws", 40, "--schemes", "frac-j2,frac-j4")
    # a trial is one channel of one ber_curve/rate_curve call: comm-ber makes
    # one call for the frac schemes and one for psk64, comm-rate one per scheme
    return Workload(
        "comm_ber_rate",
        (
            _inv(seed, 2 * BER_CHANNELS, *ber, "--channels", BER_CHANNELS),
            _inv(seed, 2 * RATE_CHANNELS, *rate, "--channels", RATE_CHANNELS),
        ),
        _inv(seed, 1, *ber, "--channels", 1).argv,
    )


def ambiguity_mc(seed: int) -> Workload:
    base = ("ambiguity", "--N", 32, "--M", 8, "--K", 1, "--P", 4, "--Q_r", 2, "--extent", 1)
    # the 25 x 25 plane holds the zero offset; 64-point cuts do not
    cuts = tuple(
        _inv(seed, AF_CUT_CPIS, *base, "--axis", axis, "--points", 64, "--mc", AF_CUT_CPIS)
        for axis in ("range", "velocity", "angle")
    )
    plane = _inv(seed, AF_PLANE_CPIS, *base, "--axis", "range-velocity",
                 "--points", AF_PLANE_POINTS, "--mc", AF_PLANE_CPIS)
    return Workload(
        "ambiguity_mc",
        cuts + (plane,),
        _inv(seed, 1, *base, "--axis", "range", "--points", 64, "--mc", 1).argv,
    )


WORKLOADS = {
    f.__name__: f for f in (radar_hit_omp, phase_transition_bp, comm_ber_rate, ambiguity_mc)
}
