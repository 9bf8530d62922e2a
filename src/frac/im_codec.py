"""Index-modulation codec: message bits <-> per-pulse transmit selections.

Each pulse carries a fixed-length word split into four groups, in order:

    [carrier-set bits][antenna-set bits][pairing bits][PSK bits]

The carrier-set group selects K of M sub-carriers through the lexicographic
rank of the sorted subset; the antenna-set group does the same for K of P
transmit elements; the pairing group is the Lehmer rank of the permutation
assigning carriers to antennas; each of the K PSK groups is the index of a
J-ary phase.  Group widths are floor(log2 C(M,K)), floor(log2 C(P,K)),
floor(log2 K!) and K*log2(J) (``SystemConfig.bit_groups``), so some
subsets/permutations are unreachable whenever the counts are not powers of
two.

Unranking is arithmetic (no tables), so large M and P cost O(K log M) work.

A CPI's selections are one :class:`SelectionSequence` of (N, K) arrays, the
only form the radar chain takes; a :class:`PulseSelection` is one pulse at
the codec and downlink boundary.  Radar-only operation draws a CPI at once
(:func:`random_selection_sequence`): the K smallest of a pulse's uniform random
keys, in increasing order, give an ordered K-subset of carriers and one of
antennas, paired by slot.
Encoded message words stack into one::

    pulses = [encode(word, cfg) for word in words]
    sels = SelectionSequence([p.carriers for p in pulses], [p.antennas for p in pulses],
                             [p.phases for p in pulses])
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, SystemConfig

__all__ = [
    "PulseSelection",
    "MappingTable",
    "comb_rank",
    "comb_unrank",
    "perm_rank",
    "perm_unrank",
    "encode",
    "decode",
    "SelectionSequence",
    "random_selection_sequence",
]


@dataclass(frozen=True)
class PulseSelection:
    """Transmit choice for one pulse.

    ``carriers[k]`` is the sub-carrier index radiated from element
    ``antennas[k]`` with phase ``phases[k]`` (radians); the pairing order
    is what carries the permutation bits.  ``antennas`` is kept sorted.
    """

    carriers: tuple[int, ...]
    antennas: tuple[int, ...]
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.carriers)
        if len(self.antennas) != k or len(self.phases) != k:
            raise ValueError("carriers, antennas and phases must have equal length")
        if len(set(self.carriers)) != k or len(set(self.antennas)) != k:
            raise ValueError("carrier and antenna indices must be distinct")

    def xi(self, cfg: SystemConfig) -> np.ndarray:
        """Carrier-dependent frequency ratios (f_c + m * delta_f) / f_c."""
        m = np.asarray(self.carriers, dtype=float)
        return (cfg.f_c + m * cfg.delta_f) / cfg.f_c


# ----------------------------------------------------------------------
# combinatorial (un)ranking
# ----------------------------------------------------------------------

def comb_rank(subset: tuple[int, ...], n: int) -> int:
    """Lexicographic rank of a sorted k-subset of range(n)."""
    k = len(subset)
    if list(subset) != sorted(set(subset)):
        raise ValueError(f"subset must be sorted and distinct, got {subset}")
    if subset and not (0 <= subset[0] and subset[-1] < n):
        raise ValueError(f"subset {subset} out of range(0, {n})")
    rank = 0
    prev = -1
    for i, c in enumerate(subset):
        for x in range(prev + 1, c):
            rank += math.comb(n - x - 1, k - i - 1)
        prev = c
    return rank

def comb_unrank(rank: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`comb_rank`: the rank-th k-subset of range(n)."""
    total = math.comb(n, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for C({n},{k})={total}")
    out = []
    x = 0
    r = rank
    for i in range(k):
        while True:
            block = math.comb(n - x - 1, k - i - 1)
            if r < block:
                out.append(x)
                x += 1
                break
            r -= block
            x += 1
    return tuple(out)

def perm_rank(perm: tuple[int, ...]) -> int:
    """Lehmer (lexicographic) rank of a permutation of range(k)."""
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation of range({k}): {perm}")
    rank = 0
    for i in range(k):
        smaller = sum(1 for j in range(i + 1, k) if perm[j] < perm[i])
        rank += smaller * math.factorial(k - 1 - i)
    return rank

def perm_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`perm_rank`: the rank-th permutation of range(k)."""
    total = math.factorial(k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for {k}! = {total}")
    pool = list(range(k))
    out = []
    r = rank
    for i in range(k):
        f = math.factorial(k - 1 - i)
        idx, r = divmod(r, f)
        out.append(pool.pop(idx))
    return tuple(out)


# ----------------------------------------------------------------------
# explicit mapping-table override
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MappingTable:
    """Explicit word -> selection table overriding the arithmetic codec.

    The table must be a bijection over all 2**n_total_bits words; decode is
    reverse lookup.  File format (JSON)::

        {"bits_per_word": 3,
         "entries": {"110": {"carriers": [1], "antennas": [1], "pm_indices": [0]}}}
    """

    bits_per_word: int
    entries: dict = field(repr=False)

    def __post_init__(self) -> None:
        expected = 1 << self.bits_per_word
        if len(self.entries) != expected:
            raise ConfigError(
                f"mapping table has {len(self.entries)} entries, needs {expected}"
            )
        seen = set()
        for word, sel in self.entries.items():
            if len(word) != self.bits_per_word or set(word) - {"0", "1"}:
                raise ConfigError(f"bad word {word!r} in mapping table")
            key = (sel.carriers, sel.antennas, sel.phases)
            if key in seen:
                raise ConfigError(f"mapping table is not injective at word {word!r}")
            seen.add(key)

    @classmethod
    def load(cls, path, cfg: SystemConfig) -> "MappingTable":
        with open(path) as fh:
            raw = json.load(fh)
        nbits = int(raw["bits_per_word"])
        if nbits != cfg.n_total_bits:
            raise ConfigError(
                f"mapping table carries {nbits} bits/word, config carries "
                f"{cfg.n_total_bits}"
            )
        entries = {}
        for word, spec in raw["entries"].items():
            pm = [int(j) for j in spec["pm_indices"]]
            if any(not 0 <= j < cfg.J for j in pm):
                raise ConfigError(f"PM index out of range in word {word!r}")
            sel = PulseSelection(
                carriers=tuple(int(m) for m in spec["carriers"]),
                antennas=tuple(int(p) for p in spec["antennas"]),
                phases=tuple(2.0 * math.pi * j / cfg.J for j in pm),
            )
            _check_selection(sel, cfg)
            entries[word] = sel
        return cls(bits_per_word=nbits, entries=entries)

    def encode(self, bits: str) -> PulseSelection:
        try:
            return self.entries[bits]
        except KeyError:
            raise ValueError(f"word {bits!r} not in mapping table") from None

    def decode(self, sel: PulseSelection) -> str:
        for word, cand in self.entries.items():
            if (
                cand.carriers == sel.carriers
                and cand.antennas == sel.antennas
                and np.allclose(cand.phases, sel.phases, atol=1e-12)
            ):
                return word
        raise ValueError(f"selection {sel} not present in mapping table")


def _check_selection(sel: PulseSelection, cfg: SystemConfig) -> None:
    if len(sel.carriers) != cfg.K:
        raise ValueError(f"selection has {len(sel.carriers)} entries, K={cfg.K}")
    if any(not 0 <= m < cfg.M for m in sel.carriers):
        raise ValueError(f"carrier index out of range(0, {cfg.M}): {sel.carriers}")
    if any(not 0 <= p < cfg.P for p in sel.antennas):
        raise ValueError(f"antenna index out of range(0, {cfg.P}): {sel.antennas}")


def _check_fit(selections: SelectionSequence, cfg: SystemConfig) -> None:
    """Raise unless ``selections`` is one CPI of ``cfg``: (N, K) arrays with
    carriers in range(M) and antennas in range(P)."""
    if not isinstance(selections, SelectionSequence):
        raise TypeError(f"selections must be a SelectionSequence, not {type(selections).__name__}")
    shape = selections.carriers.shape
    if shape != (cfg.N, cfg.K):
        raise ValueError(f"selections have shape {shape}, the config needs ({cfg.N}, {cfg.K})")
    for name, a, size in (("carrier", selections.carriers, cfg.M),
                          ("antenna", selections.antennas, cfg.P)):
        if a.min() < 0 or a.max() >= size:
            raise ValueError(f"{name} indices span {a.min()}..{a.max()}, outside range(0, {size})")


# ----------------------------------------------------------------------
# arithmetic codec
# ----------------------------------------------------------------------

def _split_word(bits: str, cfg: SystemConfig) -> tuple[int, int, int, list[int]]:
    if len(bits) != cfg.n_total_bits or set(bits) - {"0", "1"}:
        raise ValueError(
            f"expected a {cfg.n_total_bits}-bit binary word, got {bits!r}"
        )
    n_car, n_ant, n_perm, j_bits = cfg.bit_groups
    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        val = int(bits[pos:pos + width], 2) if width else 0
        pos += width
        return val

    car_rank = take(n_car)
    ant_rank = take(n_ant)
    perm_rank_ = take(n_perm)
    pm = [take(j_bits) for _ in range(cfg.K)]
    return car_rank, ant_rank, perm_rank_, pm

def encode(bits: str, cfg: SystemConfig, mapping: MappingTable | None = None) -> PulseSelection:
    """Map one n_total_bits word to a transmit selection."""
    if mapping is not None:
        return mapping.encode(bits)
    car_rank, ant_rank, prank, pm = _split_word(bits, cfg)
    carriers_sorted = comb_unrank(car_rank, cfg.M, cfg.K)
    antennas = comb_unrank(ant_rank, cfg.P, cfg.K)
    pi = perm_unrank(prank, cfg.K)
    carriers = tuple(carriers_sorted[pi[k]] for k in range(cfg.K))
    phases = tuple(2.0 * math.pi * j / cfg.J for j in pm)
    return PulseSelection(carriers=carriers, antennas=antennas, phases=phases)

def decode(sel: PulseSelection, cfg: SystemConfig, mapping: MappingTable | None = None) -> str:
    """Inverse of :func:`encode`; raises ValueError for unreachable selections."""
    if mapping is not None:
        return mapping.decode(sel)
    _check_selection(sel, cfg)
    n_car, n_ant, n_perm, j_bits = cfg.bit_groups

    carriers_sorted = tuple(sorted(sel.carriers))
    car_rank = comb_rank(carriers_sorted, cfg.M)
    ant_rank = comb_rank(sel.antennas, cfg.P)
    pi = tuple(carriers_sorted.index(m) for m in sel.carriers)
    prank = perm_rank(pi)
    pm = []
    for phi in sel.phases:
        j = int(round(phi * cfg.J / (2.0 * math.pi))) % cfg.J
        if abs(phi - 2.0 * math.pi * j / cfg.J) > 1e-9:
            raise ValueError(f"phase {phi!r} is not on the {cfg.J}-PSK grid")
        pm.append(j)

    for name, val, width in (
        ("carrier set", car_rank, n_car),
        ("antenna set", ant_rank, n_ant),
        ("pairing", prank, n_perm),
    ):
        if val >= (1 << width):
            raise ValueError(
                f"{name} rank {val} is unreachable with {width} bits"
            )
    word = (
        format(car_rank, f"0{n_car}b") if n_car else ""
    ) + (
        format(ant_rank, f"0{n_ant}b") if n_ant else ""
    ) + (
        format(prank, f"0{n_perm}b") if n_perm else ""
    )
    for j in pm:
        word += format(j, f"0{j_bits}b") if j_bits else ""
    return word


# ----------------------------------------------------------------------
# random draws
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SelectionSequence:
    """A CPI's selections as read-only (n_pulses, K) arrays, one row per pulse.

    Row n is what ``self[n]`` returns as a :class:`PulseSelection`: carrier
    ``carriers[n, k]`` radiated from element ``antennas[n, k]`` with phase
    ``phases[n, k]`` (radians); a slice keeps the arrays.  The constructor
    copies arrays or nested sequences of one 2-D shape, and rejects
    non-integer indices and a carrier or antenna repeated within a pulse.
    """

    carriers: np.ndarray
    antennas: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        carriers, antennas = np.asarray(self.carriers), np.asarray(self.antennas)
        phases = np.array(self.phases, dtype=float)
        if carriers.ndim != 2 or not carriers.shape == antennas.shape == phases.shape:
            raise ValueError(
                "carriers, antennas and phases must be 2-D arrays of one shape, got "
                f"{carriers.shape}, {antennas.shape} and {phases.shape}"
            )
        for name, a in (("carrier", carriers), ("antenna", antennas)):
            if a.dtype.kind not in "iu":
                raise ValueError(f"{name} indices must be integers, got dtype {a.dtype}")
            # a row of distinct indices matches itself only on the diagonal
            same = a[:, :, None] == a[:, None, :]
            if np.count_nonzero(same) != a.size:
                n = int(np.flatnonzero(same.sum(axis=(1, 2)) > a.shape[1])[0])
                raise ValueError(f"{name} indices repeat within pulse {n}: {a[n].tolist()}")
        arrays = (carriers.astype(np.int64), antennas.astype(np.int64), phases)
        for name, a in zip(("carriers", "antennas", "phases"), arrays):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.carriers)

    def __getitem__(self, index):
        arrays = (self.carriers, self.antennas, self.phases)
        if isinstance(index, slice):
            return SelectionSequence(*(a[index] for a in arrays))
        n = operator.index(index)
        return PulseSelection(*(tuple(a[n].tolist()) for a in arrays))

    def __iter__(self):
        return (self[n] for n in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelectionSequence):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in ("carriers", "antennas", "phases"))

    __hash__ = None


# random keys drawn at once: bounds the keys, and the index block a pick of
# k >= 2 sorts into, to 2 MiB each
_KEY_BLOCK = 1 << 18


def _key_blocks(rng: np.random.Generator, rows: int, width: int, k: int):
    """Yield ``(lo, picks)``: the positions of the k smallest keys of each row
    of ``rng.random((rows, width))`` in increasing key order, one (b, k) block
    of rows at a time; found by argmin when k = 1, by argsort otherwise.

    Each row's picks are a uniformly random ordered k-subset of
    range(width).  ``Generator.random`` fills sequentially, so neither the
    doubles nor the picks depend on the block size.
    """
    step = max(1, _KEY_BLOCK // width)
    for lo in range(0, rows, step):
        keys = rng.random((min(step, rows - lo), width))
        if k == 1:
            yield lo, np.argmin(keys, axis=-1)[:, None]
        else:
            yield lo, np.argsort(keys, axis=-1)[:, :k]


def _key_picks(rng: np.random.Generator, rows: int, width: int, k: int,
               dtype=np.int64) -> np.ndarray:
    """All (rows, k) picks of :func:`_key_blocks`, stored as ``dtype``."""
    out = np.empty((rows, k), dtype=dtype)
    for lo, picks in _key_blocks(rng, rows, width, k):
        out[lo:lo + len(picks)] = picks
    return out


def random_selection_sequence(
    cfg: SystemConfig,
    rng: np.random.Generator,
    n_pulses: int | None = None,
) -> SelectionSequence:
    """Draw one selection per pulse for a CPI.

    Every K-subset, pairing and phase is equally likely, i.e. the radar sees
    the full selection space including combinations the codec cannot reach.
    The draw takes the carrier keys (n, M), then the antenna keys (n, P),
    then the PSK indices (n, K); the two picks are paired by slot and each
    pulse is sorted by antenna.
    """
    try:
        n = cfg.N if n_pulses is None else operator.index(n_pulses)
    except TypeError:
        raise ValueError(f"n_pulses must be an integer, got {n_pulses!r}") from None
    if n < 0:
        raise ValueError(f"n_pulses must be non-negative, got {n}")
    m_sel = _key_picks(rng, n, cfg.M, cfg.K)
    p_sel = _key_picks(rng, n, cfg.P, cfg.K)
    pm = rng.integers(0, cfg.J, (n, cfg.K))
    order = np.argsort(p_sel, axis=-1)
    return SelectionSequence(
        carriers=np.take_along_axis(m_sel, order, axis=-1),
        antennas=np.take_along_axis(p_sel, order, axis=-1),
        phases=2.0 * math.pi * pm / cfg.J,
    )
