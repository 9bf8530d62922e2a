"""Checks of each workload's outputs, made apart from the program.

Every expected value is recomputed here from first principles (steering
phases, Dirichlet kernels as geometric sums, the phase-transition integral by
quadrature, the alphabet size by counting) or is a property the method must
have.  A statistical claim is tested as a one-sided hypothesis at level
``ALPHA``: the claim is the null hypothesis, and the check fails only when
the data contradict it at that level, so a correct program fails a check on
a given seed with probability at most ``ALPHA``.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import inspect
import json
import math
import random
import statistics
from dataclasses import dataclass

from spans import patched

ALPHA = 1e-3
Z_ALPHA = statistics.NormalDist().inv_cdf(1.0 - ALPHA)

# entries per dictionary compared with the steering model
DICT_SAMPLES = 512
DICT_TOL = 1e-9


@dataclass(frozen=True)
class Output:
    """One invocation's CSV: header comments and rows of strings."""

    comments: tuple[str, ...]
    rows: tuple[dict, ...]


def parse_csv(text: str) -> Output:
    lines = text.splitlines()
    comments = tuple(line[2:] for line in lines if line.startswith("# "))
    body = [line for line in lines if not line.startswith("#")]
    return Output(comments, tuple(csv.DictReader(body)))


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(0, k + 1))


def binom_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return 1.0 - binom_cdf(k - 1, n, p) if k > 0 else 1.0


def fisher_below(h_a: int, n_a: int, h_b: int, n_b: int) -> float:
    """One-sided Fisher exact p-value that success rate a is below rate b:
    P(X <= h_a) with X hypergeometric given the pooled number of successes."""
    total, hits = n_a + n_b, h_a + h_b
    denom = math.comb(total, n_a)
    return sum(
        math.comb(hits, x) * math.comb(total - hits, n_a - x)
        for x in range(max(0, hits - n_b), h_a + 1)
    ) / denom


# ----------------------------------------------------------------------
# independent models
# ----------------------------------------------------------------------

def steering_entry(cfg, selections, row: int, col: int) -> complex:
    """Dictionary entry from the signal model: pulse n radiates carrier m_k
    from element p_k, read by receive element q_r, against grid point
    (velocity, fine range, angle) on centered frequency grids."""
    n, rem = divmod(row, cfg.K * cfg.Q_r)
    k, q_r = divmod(rem, cfg.Q_r)
    Q = cfg.P * cfg.Q_r
    n_t, rem = divmod(col, cfg.M * Q)
    m, q = divmod(rem, Q)
    carrier = selections[n].carriers[k]
    element = selections[n].antennas[k]
    xi = (cfg.f_c + carrier * cfg.B / cfg.M) / cfg.f_c
    f_v, f_r, f_t = n_t / cfg.N - 0.5, m / cfg.M - 0.5, q / Q - 0.5
    phase = carrier * f_r + xi * n * f_v + xi * (cfg.Q_r * element + q_r) * f_t
    return cmath.exp(-2j * math.pi * phase)


def geometric_kernel(length: int, x: float) -> float:
    """|sum_{l < length} exp(-2 pi i l x)|, the Dirichlet kernel as a sum."""
    return abs(sum(cmath.exp(-2j * math.pi * l * x) for l in range(length)))


def tail_integral(beta: float, points: int = 4001, span: float = 14.0) -> float:
    """int_beta^inf (u - beta)^2 u exp(-u^2/2) du by Simpson's rule on
    [beta, beta + span]; the integrand beyond is below 1e-40."""
    import numpy as np

    u = beta + np.linspace(0.0, span, points)
    w = np.where(np.arange(points) % 2, 4.0, 2.0)
    w[0] = w[-1] = 1.0
    return float(np.dot(w, (u - beta) ** 2 * u * np.exp(-u * u / 2.0))) * span / (points - 1) / 3.0


def _golden(f, lo: float, hi: float, tol: float = 1e-7) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while b - a > tol:
        c, d = b - g * (b - a), a + g * (b - a)
        if f(c) < f(d):
            b = d
        else:
            a = c
    return f((a + b) / 2.0)


def transition_sparsity(n1: int, n2: int) -> float:
    """L* solving n1 = min_beta 1/2 {L (2 + beta^2) + (n2 - L) I(beta)} by
    bisection on L; the required count grows with L."""
    def need(l_sparse):
        return _golden(
            lambda b: 0.5 * (l_sparse * (2.0 + b * b) + (n2 - l_sparse) * tail_integral(b)),
            0.0, 8.0)

    lo, hi = 1e-6, float(n1)
    while hi - lo > 1e-7 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if need(mid) < n1 else (lo, mid)
    return 0.5 * (lo + hi)


def alphabet_bits(M: int, K: int, P: int, J: int) -> int:
    """log2 of the symbol alphabet: whole bits of carrier sets, element sets
    and pairings, plus K phases of log2 J bits."""
    def whole_bits(count):
        return count.bit_length() - 1
    return (whole_bits(math.comb(M, K)) + whole_bits(math.comb(P, K))
            + whole_bits(math.factorial(K)) + K * whole_bits(J))


# ----------------------------------------------------------------------
# captures: quantities the CLI does not print, read during the reference
# repeat from the same public functions the spans wrap
# ----------------------------------------------------------------------

def _capture_dictionaries(found: dict):
    found.update(dictionaries=0, max_dev=0.0)

    def factory(original):
        def build(selections, cfg, *args, **kwargs):
            dic = original(selections, cfg, *args, **kwargs)
            rng = random.Random(found["dictionaries"])
            rows, cols = dic.A.shape
            for _ in range(DICT_SAMPLES):
                r, c = rng.randrange(rows), rng.randrange(cols)
                dev = abs(complex(dic.A[r, c]) - steering_entry(cfg, selections, r, c))
                found["max_dev"] = max(found["max_dev"], dev)
            found["dictionaries"] += 1
            return dic
        return build

    return patched([("frac.harness", "build_dictionary", factory)])


def _capture_bp_residuals(found: dict):
    """For each converged equality solve, ||Az - y|| for the returned scene
    against the bound the method implies.  The ADMM stopping rule leaves
    ||b - z|| and ||Ab - y|| each at most tol max(1, ||y||); the scene then
    drops entries of z below support_threshold max|z|, which moves Az by at
    most ||A||_2 support_threshold max|z| sqrt(dropped entries)."""
    import numpy as np

    found.update(converged=0, max_residual_over_bound=0.0, max_relative_residual=0.0)

    def factory(original):
        sig = inspect.signature(original)

        def solve(*args, **kwargs):
            sol = original(*args, **kwargs)
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            a = a.arguments
            if a["eps"] == 0.0 and sol.iterations < a["max_iter"]:
                A = a["dic"].A
                y = np.asarray(a["y"]).reshape(-1)
                y_norm = float(np.linalg.norm(y))
                a_norm = float(np.linalg.norm(A, 2))
                dropped = A.shape[1] - len(sol.support)
                bound = ((a_norm + 1.0) * a["tol"] * max(1.0, y_norm)
                         + a_norm * a["support_threshold"] * float(np.abs(sol.coeffs).max())
                         * dropped ** 0.5)
                resid = float(np.linalg.norm(A @ sol.dense() - y))
                found["converged"] += 1
                found["max_residual_over_bound"] = max(found["max_residual_over_bound"],
                                                       resid / bound)
                found["max_relative_residual"] = max(found["max_relative_residual"],
                                                     resid / y_norm)
            return sol
        return solve

    return patched([("frac.phase_transition", "bp_recover", factory)])


CAPTURES = {
    "radar_hit_omp": _capture_dictionaries,
    "phase_transition_bp": _capture_bp_residuals,
}


def capture(workload: str, found: dict):
    make = CAPTURES.get(workload)
    return make(found) if make else contextlib.nullcontext()


# ----------------------------------------------------------------------
# per-workload checks: each returns a list of failure messages
# ----------------------------------------------------------------------

def _hits(row) -> tuple[int, int]:
    return int(row["hits"]), int(row["trials"])


def check_radar_hit_omp(wl, outs, found) -> list[str]:
    fails = []
    if found["dictionaries"] == 0:
        fails.append("no dictionary was built")
    if found["max_dev"] > DICT_TOL:
        fails.append(f"dictionary deviates from the steering model by {found['max_dev']:.3g}")
    sweep = sorted(outs[0].rows, key=lambda r: float(r["snr_db"]))
    for row in sweep:
        h, n = _hits(row)
        if float(row["snr_db"]) >= 14.0 and binom_cdf(h, n, 0.99) < ALPHA:
            fails.append(f"hit rate {h}/{n} at {row['snr_db']} dB contradicts >= 0.99")
    for lo, hi in zip(sweep, sweep[1:]):
        if fisher_below(*_hits(hi), *_hits(lo)) < ALPHA:
            fails.append(f"hit rate falls from {lo['snr_db']} to {hi['snr_db']} dB")
    if fisher_below(*_hits(sweep[0]), *_hits(sweep[-1])) >= ALPHA:
        fails.append("hit rate does not rise from the lowest to the highest SNR")
    k1, k2, m16 = (_hits(o.rows[0]) for o in outs[1:4])
    if fisher_below(*k2, *k1) < ALPHA:
        fails.append(f"at 10 dB K=2 ({k2[0]}/{k2[1]}) falls below K=1 ({k1[0]}/{k1[1]})")
    if fisher_below(*k2, *m16) < ALPHA:
        fails.append(f"at 10 dB K=2 ({k2[0]}/{k2[1]}) falls below M=16 ({m16[0]}/{m16[1]})")
    return fails


def _pooled(rows, keep) -> tuple[int, int]:
    sel = [r for r in rows if keep(int(r["l_sparse"]))]
    return sum(int(r["successes"]) for r in sel), sum(int(r["trials"]) for r in sel)


def check_phase_transition_bp(wl, outs, found) -> list[str]:
    fails = []
    inv = wl.invocations[0]
    N, M, K, P, Q_r = (int(inv.flag(f)) for f in ("N", "M", "K", "P", "Q_r"))
    l_star = transition_sparsity(N * K * Q_r, N * M * P * Q_r)
    rows = outs[0].rows
    summary = next(c for c in outs[0].comments if c.startswith("crossing(0.6): "))
    program_l_star = json.loads(summary.split(": ", 1)[1])["base"]["theory_l_star"]
    if abs(program_l_star - l_star) > 1e-4 * l_star:
        fails.append(f"program L* {program_l_star:.6f} differs from quadrature {l_star:.6f}")
    # success falls with L, so p(3) >= 0.95 bounds every level up to 3
    s, n = _pooled(rows, lambda l: l <= 3)
    if binom_cdf(s, n, 0.95) < ALPHA:
        fails.append(f"{s}/{n} successes at L <= 3 contradict a rate near 1 at L=3")
    s, n = _pooled(rows, lambda l: l == 13)
    if binom_sf(s, n, 0.10) < ALPHA:
        fails.append(f"{s}/{n} successes at L=13 contradict a rate near 0")
    # a 0.6 crossing within 20 % of L* means p >= 0.6 below 0.8 L*, <= 0.6 above 1.2 L*
    s, n = _pooled(rows, lambda l: l <= 0.8 * l_star)
    if n and binom_cdf(s, n, 0.6) < ALPHA:
        fails.append(f"{s}/{n} successes below 0.8 L* put the 0.6 crossing under 0.8 L*")
    s, n = _pooled(rows, lambda l: l >= 1.2 * l_star)
    if n and binom_sf(s, n, 0.6) < ALPHA:
        fails.append(f"{s}/{n} successes above 1.2 L* put the 0.6 crossing over 1.2 L*")
    if found["converged"] == 0:
        fails.append("no equality solve converged")
    if found["max_residual_over_bound"] > 1.0:
        fails.append("a converged solve has ||Az - y|| above its stopping-rule bound, by "
                     f"{found['max_residual_over_bound']:.3g} x")
    return fails


def _curves(rows, value: str) -> dict[str, list[tuple[float, float, float]]]:
    out: dict[str, list] = {}
    for r in rows:
        out.setdefault(r["scheme"], []).append(
            (float(r["snr_db"]), float(r[value]), float(r["stderr"])))
    return {k: sorted(v) for k, v in out.items()}


def _exceeds(a, b) -> bool:
    """Is point a above point b, each (snr, value, stderr), by more than
    Z_ALPHA standard errors of the difference?"""
    se = math.hypot(a[2], b[2])
    return a[1] - b[1] > Z_ALPHA * se if se > 0 else a[1] > b[1]


def check_comm_ber_rate(wl, outs, found) -> list[str]:
    fails = []
    ber = _curves(outs[0].rows, "ber")
    for scheme, pts in ber.items():
        for lo, hi in zip(pts, pts[1:]):
            if _exceeds(hi, lo):
                fails.append(f"{scheme} BER rises from {lo[0]} to {hi[0]} dB")
        if not _exceeds(pts[0], pts[-1]):
            fails.append(f"{scheme} BER does not fall from {pts[0][0]} to {pts[-1][0]} dB")
    for ml, psk in zip(ber["frac-ml"], ber["psk64-ml"]):
        if _exceeds(ml, psk):
            fails.append(f"frac-ml BER above psk64-ml at {ml[0]} dB")
    inv = wl.invocations[1]
    M, K, P = (int(inv.flag(f)) for f in ("M", "K", "P"))
    for scheme, pts in _curves(outs[1].rows, "rate_bits").items():
        cap = alphabet_bits(M, K, P, int(scheme.split("-j", 1)[1]))
        for snr, rate, se in pts:
            if rate > cap + 1e-6:
                fails.append(f"{scheme} rate {rate} above log2|alphabet| = {cap} at {snr} dB")
            if 30.0 <= snr <= 40.0 and _exceeds((snr, cap - 0.1, 0.0), (snr, rate, se)):
                fails.append(f"{scheme} rate {rate} not saturated at {cap} bits at {snr} dB")
    return fails


def check_ambiguity_mc(wl, outs, found) -> list[str]:
    fails = []
    inv = wl.invocations[0]
    N, M, K, P, Q_r = (int(inv.flag(f)) for f in ("N", "M", "K", "P", "Q_r"))
    peak = N * K * Q_r
    worst_closed, worst_mc, zero_rows = 0.0, 0.0, []
    for out in outs:
        for r in out.rows:
            x_r, x_v, x_t = (float(r[k]) for k in ("df_range", "df_velocity", "df_angle"))
            want = (K / (M * P) * geometric_kernel(M, x_r) * geometric_kernel(N, x_v)
                    * geometric_kernel(P * Q_r, x_t))
            af, mc = float(r["af_expected"]), float(r["af_mc"])
            worst_closed = max(worst_closed, abs(af - want))
            worst_mc = max(worst_mc, abs(mc - af))
            if x_r == x_v == x_t == 0.0:
                zero_rows.append((af, mc))
    if worst_closed > 1e-8 * peak:
        fails.append(f"af_expected differs from the geometric sums by {worst_closed:.3g}")
    if not zero_rows:
        fails.append("no zero-offset row")
    for af, mc in zero_rows:
        if af != peak or abs(mc - peak) > 1e-9 * peak:
            fails.append(f"zero-offset peak {af} / {mc} is not N K Q_r = {peak}")
    if worst_mc > 0.02 * peak:
        fails.append(f"Monte Carlo mean off the closed form by {worst_mc / peak:.2%} of peak")
    return fails


CHECKS = {
    "radar_hit_omp": check_radar_hit_omp,
    "phase_transition_bp": check_phase_transition_bp,
    "comm_ber_rate": check_comm_ber_rate,
    "ambiguity_mc": check_ambiguity_mc,
}
