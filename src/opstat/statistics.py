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

Three counters compare elements with the other blocks' openers and closers:

* ``coord_stats`` counts all ten coordinates of one element literally; it
  is the reference the tests compare the kernel against.
* ``_pair_counts`` is the kernel.  It visits each pair of blocks once and
  returns los, ros, lcs and rcs summed over all elements and over the
  openers, plus bMaj and bDes.  Every other statistic is linear in that
  tuple: the six other coordinates by the identities above (summed, L and
  R become sum(pos * |B|) and its complement, and C(k,2) each over the
  openers), bInv as rcs over the openers, TC as all minus OS.
  ``aggregate_profile`` maps it to every coordinate sum, restriction, block
  statistic and composite, and ``stat``, ``stat_restricted`` and
  ``composite`` read from the profile; ``transport_side`` maps it straight
  to what one side of a transport check compares (the six Euler-Mahonian
  composites, rsb_TC, INV and MAJ), and ``six_composites``, the first six of
  those, is the reference for the pair-table kernel.
* ``table_composites`` is the pair-table kernel for sums over whole
  families.  A pair of blocks adds the same terms to every block order
  that puts the same one of the two on the left, so one table per set of
  blocks holds, for each block, the prefix sums of those terms over every
  subset of the other blocks.  Each block order then costs one table
  lookup and one addition per block.  The thm3.2 and thm3.4 sweeps read
  it, and the tests compare it with ``six_composites``.

``binv``, ``bdes_set`` and ``bmaj`` compare blocks by definition; they are
the reference for the kernel's block statistics and also accept traces,
whose active blocks close at infinity.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect
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
    "table_composites",
    "transport_side",
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

def _pair_counts(blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """(los, ros, lcs, rcs) summed over all elements, the same four summed
    over the openers (block minima), then bMaj and bDes.

    Each pair of blocks is visited once: the elements of the left block see
    the right block's opener and closer on their right, and vice versa.
    Blocks are sorted, so each count of one side is one ``bisect``.
    """
    los = ros = lcs = rcs = los_os = ros_os = lcs_os = rcs_os = 0
    for a, left in enumerate(blocks, start=1):
        lo, lc, size = left[0], left[-1], len(left)
        for right in blocks[a:]:
            ro, rc = right[0], right[-1]
            ros += size - bisect(left, ro)
            rcs += size - bisect(left, rc)
            los += len(right) - bisect(right, lo)
            lcs += len(right) - bisect(right, lc)
            if lo > ro:
                ros_os += 1
            else:
                los_os += 1
            if lo > rc:
                rcs_os += 1
            elif ro > lc:
                lcs_os += 1
    b_maj = b_des = 0
    for a in range(1, len(blocks)):
        if blocks[a - 1][0] > blocks[a][-1]:
            b_maj += a
            b_des += 1
    return los, ros, lcs, rcs, los_os, ros_os, lcs_os, rcs_os, b_maj, b_des


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
    los, ros, lcs, rcs, los_os, ros_os, lcs_os, rcs_os, b_maj, b_des = _pair_counts(pi.blocks)
    k = pi.k
    choose2 = k * (k - 1) // 2
    # the j-th opener has j - 1 blocks on its left and k - j on its right;
    # summed over all elements, a block's position counts once per element
    left = sum(pos * len(block) for pos, block in enumerate(pi.blocks))
    os_values = _coordinates(los_os, ros_os, lcs_os, rcs_os, choose2, choose2)
    all_values = _coordinates(los, ros, lcs, rcs, left, (k - 1) * pi.n - left)
    out = dict(zip(_OS_KEYS, os_values))
    out.update(zip(_TC_KEYS, map(operator.sub, all_values, os_values)))
    out.update(zip(COORD_NAMES, all_values))
    out["binv"] = rcs_os  # an opener above another block's closer lies above that whole block
    out["bmaj"] = b_maj
    out["bdes"] = b_des
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
    """(mak+bInv, makp+bInv, cinvLSB, mak+bMaj, makp+bMaj, cmajLSB), the
    six Euler-Mahonian composites; the reference for ``table_composites``."""
    return transport_side(pi)[:6]


def transport_side(pi: OrderedSetPartition) -> tuple[int, ...]:
    """The six composites of ``six_composites``, then rsb_TC, INV and MAJ:
    everything one side of a transport check compares, read off one kernel
    call without building the profile.

    mak = ros + lcs, makp = lob + rcb = (k-1)n - los - rcs, lsb = los - lcs,
    bInv = rcs over the openers, rsb = ros - rcs (so rsb_TC is that of all
    elements minus that of the openers), INV = rsb_OS + bInv = ros over the
    openers and MAJ = rsb_OS + bMaj.
    """
    los, ros, lcs, rcs, _, ros_os, _, b_inv, b_maj, _ = _pair_counts(pi.blocks)
    k = pi.k
    choose2 = k * (k - 1) // 2
    mak = ros + lcs
    makp = (k - 1) * pi.n - los - rcs
    lsb = los - lcs
    rsb_os = ros_os - b_inv
    return (
        mak + b_inv,
        makp + b_inv,
        lsb + (choose2 - b_inv) + choose2,
        mak + b_maj,
        makp + b_maj,
        lsb + (choose2 - b_maj) + choose2,
        ros - rcs - rsb_os,
        ros_os,
        rsb_os + b_maj,
    )


# ---------------------------------------------------------------------------
# The pair-table kernel: one table per set of blocks, O(k) per block order
# ---------------------------------------------------------------------------

def _pair_terms(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, int, int, int]:
    """What ``_pair_counts`` adds to ros+lcs, los+rcs, los-lcs and bInv
    (rcs over the openers) for the pair with ``left`` left of ``right``."""
    size = len(left)
    ros = size - bisect(left, right[0])
    rcs = size - bisect(left, right[-1])
    los = len(right) - bisect(right, left[0])
    lcs = len(right) - bisect(right, left[-1])
    return ros + lcs, los + rcs, los - lcs, int(left[0] > right[-1])


def _pair_table(blocks: tuple[tuple[int, ...], ...]) -> tuple[dict, int]:
    """Map each block B_j to (W_j, 2^j), where W_j[mask] is the sum of
    ``_pair_terms(B_i, B_j)`` over the blocks B_i with bit i set in
    ``mask``, and return it with the field width.

    The four terms are packed into one integer, ``width`` bits each.  No
    field can carry into the next: over any block order, each sums to less
    than 2nk.  W_j doubles once per block: the masks with bit i set are
    those without it plus B_i's term, so the table takes O(k 2^k) additions.
    """
    k = len(blocks)
    width = (2 * k * sum(map(len, blocks))).bit_length()
    index = {}
    for j, right in enumerate(blocks):
        row = [0]
        for i, left in enumerate(blocks):
            term = 0
            if i != j:
                a, b, c, d = _pair_terms(left, right)
                term = a | b << width | c << 2 * width | d << 3 * width
            row += [w + term for w in row]
        index[right] = (row, 1 << j)
    return index, width


# the table of the last partition read; block orders of one set of blocks share it
_table: tuple[dict, int] = ({}, 0)


def table_composites(pi: OrderedSetPartition) -> tuple[int, int, int, int, int, int]:
    """``six_composites(pi)`` read from the pair table of pi's blocks.

    The table of the last partition read is kept and rebuilt only when one
    of pi's blocks is not in it, so the k! block orders of one set of blocks
    share one table wherever they come in the family.  Every term is a sum
    over pairs of pi's own blocks, so any table that holds them all gives
    the same answer.  bMaj is read from the k - 1 adjacent pairs.
    """
    global _table
    index, width = _table
    blocks = pi.blocks
    mask = total = b_maj = pos = opener = 0
    for block in blocks:
        entry = index.get(block)
        if entry is None:
            _table = _pair_table(blocks)
            return table_composites(pi)
        row, bit = entry
        total += row[mask]
        mask |= bit
        if opener > block[-1]:
            b_maj += pos
        opener = block[0]
        pos += 1
    field = (1 << width) - 1
    mak = total & field
    makp = (pos - 1) * pi.n - (total >> width & field)
    lsb = total >> 2 * width & field
    b_inv = total >> 3 * width
    twice_choose2 = pos * (pos - 1)
    return (
        mak + b_inv,
        makp + b_inv,
        lsb + twice_choose2 - b_inv,
        mak + b_maj,
        makp + b_maj,
        lsb + twice_choose2 - b_maj,
    )
