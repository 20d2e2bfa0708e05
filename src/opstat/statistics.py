"""Coordinate, block and composite statistics on ordered set partitions.

The ten coordinate statistics classify, for each element i, every other
block by side (left/right of i's block), by the kind of element compared
(opener/closer) and by size (smaller/bigger than i).  The name encodes the
combination: e.g. ``ros`` counts blocks to the *right* whose *opener* is
*smaller*, ``lcb`` blocks to the *left* whose *closer* is *bigger*.  All
aggregate statistics are sums of coordinate values over the elements.

With L and R the numbers of blocks left and right of i's block, four counts
determine the other six coordinates of i:

    lob = L - los    lcb = L - lcs    lsb = los - lcs = lcb - lob
    rob = R - ros    rcb = R - rcs    rsb = ros - rcs = rcb - rob

Three functions compare an element with the other blocks' openers and
closers, each with its own role:

* ``coord_stats`` counts all ten coordinates literally; it is the reference
  the tests compare the other two against.
* ``aggregate_profile`` is the kernel: it takes the four counts per element
  and returns every coordinate sum, restriction, block statistic and linear
  composite of one partition.  ``stat``, ``stat_restricted`` and
  ``composite`` read from it.
* ``six_composites`` is the fast path for the six Euler-Mahonian composites
  that the exhaustive checks sum over.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Union

from .core import OrderedSetPartition, Trace

__all__ = [
    "CoordStats",
    "COORD_NAMES",
    "STAT_NAMES",
    "coord_stats",
    "coordinate_table",
    "stat",
    "stat_restricted",
    "block_relation",
    "binv",
    "bdes_set",
    "bmaj",
    "trace_rsb",
    "trace_ros",
    "composite",
    "six_composites",
    "aggregate_profile",
    "resolve_stat",
]

COORD_NAMES = ("los", "ros", "lob", "rob", "lcs", "rcs", "lcb", "rcb", "lsb", "rsb")


@dataclass(frozen=True)
class CoordStats:
    los: int
    ros: int
    lob: int
    rob: int
    lcs: int
    rcs: int
    lcb: int
    rcb: int
    lsb: int
    rsb: int

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COORD_NAMES}


def coord_stats(pi: OrderedSetPartition, i: int) -> CoordStats:
    """The ten coordinate statistics of element i.

    Every block contributes through its opener (minimum) and closer
    (maximum), so the counts reduce to block-level comparisons.
    """
    if not 1 <= i <= pi.n:
        raise ValueError(f"element {i} outside 1..{pi.n}")
    pos_i = pi.block_index[i]
    los = ros = lob = rob = lcs = rcs = lcb = rcb = lsb = rsb = 0
    for pos, block in enumerate(pi.blocks, start=1):
        if pos == pos_i:
            continue
        opener, closer = block[0], block[-1]
        left = pos < pos_i
        if opener < i:
            if left:
                los += 1
            else:
                ros += 1
        else:
            if left:
                lob += 1
            else:
                rob += 1
        if closer < i:
            if left:
                lcs += 1
            else:
                rcs += 1
        else:
            if left:
                lcb += 1
            else:
                rcb += 1
        if opener < i < closer:
            if left:
                lsb += 1
            else:
                rsb += 1
    return CoordStats(los, ros, lob, rob, lcs, rcs, lcb, rcb, lsb, rsb)


def coordinate_table(pi: OrderedSetPartition) -> dict[str, list[int]]:
    """Rows of per-element coordinate values, elements taken in block order
    (the order they appear in the written partition)."""
    rows: dict[str, list[int]] = {name: [] for name in COORD_NAMES}
    for block in pi.blocks:
        for el in block:
            values = coord_stats(pi, el).as_dict()
            for name in COORD_NAMES:
                rows[name].append(values[name])
    return rows


# ---------------------------------------------------------------------------
# Block statistics (shared by partitions and traces)
# ---------------------------------------------------------------------------

PartitionLike = Union[OrderedSetPartition, Trace]


def _block_bounds(obj: PartitionLike) -> list[tuple[int, float]]:
    """(opener, effective closer) per block; an active trace block closes at
    +infinity."""
    if isinstance(obj, Trace):
        return [
            (block[0], math.inf if flag else block[-1])
            for block, flag in zip(obj.blocks, obj.active)
        ]
    return [(block[0], block[-1]) for block in obj.blocks]


def block_relation(pi: PartitionLike, i: int, j: int) -> bool:
    """Whether block i dominates block j: min(B_i) > max(B_j)."""
    bounds = _block_bounds(pi)
    if not (1 <= i <= len(bounds) and 1 <= j <= len(bounds)):
        raise ValueError("block index out of range")
    return bounds[i - 1][0] > bounds[j - 1][1]


def binv(pi: PartitionLike) -> int:
    """Number of pairs i < j with block i dominating block j."""
    bounds = _block_bounds(pi)
    return sum(
        1
        for a in range(len(bounds))
        for b in range(a + 1, len(bounds))
        if bounds[a][0] > bounds[b][1]
    )


def bdes_set(pi: PartitionLike) -> set[int]:
    """Positions i with block i dominating block i+1."""
    bounds = _block_bounds(pi)
    return {a + 1 for a in range(len(bounds) - 1) if bounds[a][0] > bounds[a + 1][1]}


def bmaj(pi: PartitionLike) -> int:
    return sum(bdes_set(pi))


def trace_rsb(t: Trace, i: int) -> int:
    """Active blocks strictly right of i's block whose opener is below i."""
    pos = t.block_index(i)
    return sum(
        1
        for j in range(pos, t.k)
        if t.active[j] and t.blocks[j][0] < i
    )


def trace_ros(t: Trace, i: int) -> int:
    """Blocks strictly right of the block containing i."""
    return t.k - t.block_index(i)


# ---------------------------------------------------------------------------
# The per-partition kernel: aggregates, restrictions and composites
# ---------------------------------------------------------------------------

def _coord_counts(bounds: list[tuple[int, int]], pos: int, i: int) -> tuple[int, int, int, int]:
    """(los, ros, lcs, rcs) of element i, which lies in block ``pos``
    (0-based) of a partition with block ``bounds``; a closer below i
    implies an opener below i."""
    los = ros = lcs = rcs = 0
    for opener, closer in bounds[:pos]:
        if opener < i:
            los += 1
            if closer < i:
                lcs += 1
    for opener, closer in bounds[pos + 1:]:
        if opener < i:
            ros += 1
            if closer < i:
                rcs += 1
    return los, ros, lcs, rcs


def _coordinates(los: int, ros: int, lcs: int, rcs: int, left: int, right: int) -> tuple[int, ...]:
    """The ten coordinates, in ``COORD_NAMES`` order, from the four counts
    and the numbers of blocks to the left and right."""
    return (los, ros, left - los, right - ros, lcs, rcs, left - lcs, right - rcs, los - lcs, ros - rcs)


# the block statistics and composites in ``aggregate_profile``
_COMPOSITES = (
    "binv", "bmaj", "bdes", "cbinv", "cbmaj",
    "mak", "makp", "cinvlsb", "cmajlsb", "inv", "maj", "cls", "opb", "sb",
)

_SIGMA_STATS: dict[str, Callable[[OrderedSetPartition], int]] = {
    "invsigma": lambda pi: pi.standard_form()[1].inversion_number(),
    "majsigma": lambda pi: pi.standard_form()[1].major_index(),
}

STAT_NAMES = tuple(COORD_NAMES) + tuple(sorted((*_COMPOSITES, *_SIGMA_STATS)))
_OS_KEYS = tuple(f"{name}_os" for name in COORD_NAMES)
_TC_KEYS = tuple(f"{name}_tc" for name in COORD_NAMES)


def aggregate_profile(pi: OrderedSetPartition) -> dict[str, int]:
    """Every linear statistic of pi in one pass: the ten coordinate sums,
    their twenty restrictions ``<name>_os``/``<name>_tc`` to the
    opener-or-singleton and transient-or-closer elements, the block
    statistics (binv, bmaj, bdes, cbinv, cbmaj) and the composites (mak,
    makp, cinvlsb, cmajlsb, inv, maj, cls, opb, sb).

    The test suite compares it exhaustively at small n with sums of the
    reference ``coord_stats``.
    """
    bounds = _block_bounds(pi)
    k = len(bounds)
    # per class, one row (los, ros, lcs, rcs, left, right) per element; the
    # coordinates are linear in the row, so they are derived from its sums
    rows: tuple[list, list] = ([], [])
    for pos, block in enumerate(pi.blocks):
        for j, i in enumerate(block):
            rows[j > 0].append((*_coord_counts(bounds, pos, i), pos, k - 1 - pos))
    os_values = _coordinates(*map(sum, zip((0,) * 6, *rows[0])))
    tc_values = _coordinates(*map(sum, zip((0,) * 6, *rows[1])))
    out = dict(zip(_OS_KEYS, os_values))
    out.update(zip(_TC_KEYS, tc_values))
    out.update(zip(COORD_NAMES, map(operator.add, os_values, tc_values)))
    choose2 = k * (k - 1) // 2
    descents = bdes_set(pi)
    out["binv"] = binv(pi)
    out["bmaj"] = sum(descents)
    out["bdes"] = len(descents)
    out["cbinv"] = choose2 - out["binv"]
    out["cbmaj"] = choose2 - out["bmaj"]
    out["mak"] = out["ros"] + out["lcs"]
    out["makp"] = out["lob"] + out["rcb"]
    out["cinvlsb"] = out["lsb"] + out["cbinv"] + choose2
    out["cmajlsb"] = out["lsb"] + out["cbmaj"] + choose2
    out["inv"] = out["rsb_os"] + out["binv"]
    out["maj"] = out["rsb_os"] + out["bmaj"]
    out["cls"] = out["lcs"] + out["rcs"]
    out["opb"] = out["lob"] + out["rob"]
    out["sb"] = out["lsb"] + out["rsb"]
    return out


def stat_restricted(pi: OrderedSetPartition, name: str, cls: str) -> int:
    """Restrict a coordinate-sum statistic to the opener/singleton elements
    ("OS") or to the transient/closer elements ("TC")."""
    if name not in COORD_NAMES:
        raise ValueError(f"not a coordinate statistic: {name}")
    if cls.upper() not in ("OS", "TC"):
        raise ValueError(f"restriction class must be OS or TC, got {cls!r}")
    return aggregate_profile(pi)[f"{name}_{cls.lower()}"]


def resolve_stat(name: str) -> Callable[[OrderedSetPartition], int]:
    """Look up a statistic evaluator by name, case-insensitively.

    "INV"/"MAJ" (and any case variant of inv/maj) mean the partition
    statistics rsb_OS + bInv and rsb_OS + bMaj; the permutation-derived
    statistics inv(sigma)/maj(sigma) are addressed as "invsigma"/"majsigma".
    The exact spellings "Inv" and "Maj" are kept for the latter pair.
    """
    if name in ("Inv", "Maj"):
        return _SIGMA_STATS["invsigma" if name == "Inv" else "majsigma"]
    low = "makp" if name.lower() == "mak'" else name.lower()
    if low in _SIGMA_STATS:
        return _SIGMA_STATS[low]
    if low in STAT_NAMES or low in _OS_KEYS or low in _TC_KEYS:
        return lambda pi: aggregate_profile(pi)[low]
    raise ValueError(f"unknown statistic: {name!r}")


def stat(pi: OrderedSetPartition, name: str) -> int:
    """Evaluate a named statistic; coordinate names are summed over all
    elements, e.g. stat(pi, "ros") = ros_1 + ... + ros_n."""
    return resolve_stat(name)(pi)


def composite(pi: OrderedSetPartition, name: str) -> int:
    """Evaluate one of the composed statistics (mak, makp, cinvlsb, ...)."""
    if name not in ("Inv", "Maj") and name.lower() not in (*_COMPOSITES, *_SIGMA_STATS, "mak'"):
        raise ValueError(f"unknown composite statistic: {name!r}")
    return resolve_stat(name)(pi)


def six_composites(pi: OrderedSetPartition) -> tuple[int, int, int, int, int, int]:
    """(mak+bInv, makp+bInv, cinvLSB, mak+bMaj, makp+bMaj, cmajLSB) computed
    in one pass straight from the coordinate definitions.

    This is the hot path of the exhaustive equidistribution checks; it is
    compared element-by-element against the one-statistic evaluators in the
    test suite.
    """
    blocks = pi.blocks
    k = len(blocks)
    bounds = [(b[0], b[-1]) for b in blocks]
    pos_of = pi.block_index
    ros = lcs = lob = rcb = lsb = 0
    for i in range(1, pi.n + 1):
        pos_i = pos_of[i]
        for pos, (opener, closer) in enumerate(bounds, start=1):
            if pos == pos_i:
                continue
            if pos < pos_i:
                if closer < i:
                    lcs += 1
                if opener > i:
                    lob += 1
                elif closer > i:
                    lsb += 1
            else:
                if opener < i:
                    ros += 1
                if closer > i:
                    rcb += 1
    b_inv = sum(
        1 for a in range(k) for b in range(a + 1, k) if bounds[a][0] > bounds[b][1]
    )
    b_maj = sum(a + 1 for a in range(k - 1) if bounds[a][0] > bounds[a + 1][1])
    choose2 = k * (k - 1) // 2
    mak = ros + lcs
    makp = lob + rcb
    return (
        mak + b_inv,
        makp + b_inv,
        lsb + (choose2 - b_inv) + choose2,
        mak + b_maj,
        makp + b_maj,
        lsb + (choose2 - b_maj) + choose2,
    )
