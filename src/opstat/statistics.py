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

Five counters compare elements with the other blocks' openers and closers:

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
  composites, rsb_TC, INV and MAJ), and ``six_composites`` is the first six
  of those.
* ``rcb_lsb_rows`` gives rcb and lsb, which is all eq2.3 reads, for every
  standard form of [n] into k blocks without building one: it keeps
  running totals while the forms grow one element at a time
  (``families.set_partitions`` with ``fields``).  The tests compare it with
  the profile.
* ``table_side`` is the pair-table kernel for sums over whole families.  A
  pair of blocks adds the same terms to every block order that puts the
  same one of the two on the left, so one table per set of blocks holds,
  for each block, the prefix sums of those terms over every subset of the
  other blocks.  Each block order then costs one table lookup and one
  addition per block.  The terms come from one matrix per set of blocks
  (``_pair_matrix``) that reads each unordered pair once for both of its
  orders: four bisects and two comparisons with one block on the left,
  and with the other on the left the same four counts in another order
  and the other block's two comparisons.  Each field is a signed sum of
  those reads, so the terms are packed straight from them by one
  coefficient per read.  ``table_side`` reads all of ``transport_side``,
  one object at a time, off the tables of the last two sets of blocks it
  read: thm3.3's ordered partitions and their images under upsilon, and
  rearrangement classes read it, and thm3.5 checks beta's MAJ on each
  member's side.  The tests compare it with ``transport_side``, and the
  matrix with a reference that reads one ordered pair at a time.
* ``block_order_totals`` sums the same tables over every block order of a
  standard form at once, for the sums over all of OP(n,k)
  (``families.ordered_set_partitions`` with ``fields``).  The rows of
  one standard form go into one flat list, after them the adjacent pairs
  of blocks weighted by their position (bMaj and maj sigma), built only
  when the fields read one, and each order's total is ``sum`` over a
  tuple of cell indices into it, so the k! totals are summed in C and a
  ``Counter`` counts them with no Python frame per order;
  ``unpack_totals`` reads each distinct total once.  A caller names the
  fields its keys read, and only those are packed, so orders that agree
  on them share one total.  The packing coefficients depend on the fields
  and the field width alone, and the cell tuples on the number m of
  trailing blocks they cover, at most six; both are kept in a
  ``functools.cache``, so one sweep builds them once.  A loop over the
  first k - m blocks writes each prefix into a sub-table of the blocks
  left.  The benchmark (``bench/run.py``) empties those caches before
  every pass, as a fresh process starts without them, so building them
  counts in the measured time.  The tests compare the kernel with
  ``table_side``, one object at a time.

``binv``, ``bdes_set`` and ``bmaj`` compare blocks by definition; they are
the reference for the kernel's block statistics.
"""
from __future__ import annotations

import itertools
import operator
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

from .core import OrderedSetPartition

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
    "composite",
    "six_composites",
    "table_side",
    "transport_side",
    "aggregate_profile",
    "rcb_lsb_rows",
    "resolve_stat",
    "ORDER_FIELDS",
    "block_order_totals",
    "unpack_totals",
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
# Block statistics
# ---------------------------------------------------------------------------

def block_relation(pi: OrderedSetPartition, i: int, j: int) -> bool:
    """Whether block i dominates block j: min(B_i) > max(B_j)."""
    blocks = pi.blocks
    if not (1 <= i <= len(blocks) and 1 <= j <= len(blocks)):
        raise ValueError("block index out of range")
    return blocks[i - 1][0] > blocks[j - 1][-1]


def binv(pi: OrderedSetPartition) -> int:
    """Number of pairs i < j with block i dominating block j."""
    blocks = pi.blocks
    return sum(
        1
        for a in range(len(blocks))
        for b in range(a + 1, len(blocks))
        if blocks[a][0] > blocks[b][-1]
    )


def bdes_set(pi: OrderedSetPartition) -> set[int]:
    """Positions i with block i dominating block i+1."""
    blocks = pi.blocks
    return {a + 1 for a in range(len(blocks) - 1) if blocks[a][0] > blocks[a + 1][-1]}


def bmaj(pi: OrderedSetPartition) -> int:
    return sum(bdes_set(pi))


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


# The last _TAIL elements of each standard form are placed by plain
# recursion that appends every row to one list, so a row costs no generator
# frame; a list holds the at most k**_TAIL completions of one state.
_TAIL = 4


def rcb_lsb_rows(n: int, k: int) -> Iterator[tuple[int, int]]:
    """(rcb, lsb), summed over all elements, of each standard form of [n]
    into k blocks, in ``families.set_partitions`` order, from totals kept
    while the forms grow one element at a time; no partition is built.
    ``aggregate_profile`` is the reference.

    rcb counts the pairs (x, B) with B right of x's block and x below B's
    closer, lsb those with B left of x's block and x between B's opener and
    closer.  Such a pair is counted when B's last element first passes x:
    when element i joins block B, whose last element so far is l, the
    elements strictly between l and i lie in other blocks, and those left
    of B add to rcb, those right of B to lsb.  A new block is the rightmost
    and passes every earlier element: it adds i - 1 to rcb.
    """
    if n == 0 or not 0 < k <= n:
        return iter([(0, 0)] if n == k == 0 else [])
    sizes: list[int] = []
    last: list[int] = []
    ante: list[int] = []
    rows: list[tuple[int, int]] = []
    append = rows.append

    def fill(i: int, rcb: int, lsb: int) -> None:
        if i < n:
            for rcb_i, lsb_i in _rcb_lsb_choices(sizes, last, ante, i, rcb, lsb, n, k):
                fill(i + 1, rcb_i, lsb_i)
        elif len(sizes) == k:  # element n joins a block, as in _rcb_lsb_choices
            left = 0
            lsb += n - 1
            for size, before, ell in zip(sizes, ante, last):
                between = left - before
                append((rcb + between, lsb - ell - between))
                left += size
        else:  # or opens the k-th
            append((rcb + n - 1, lsb))

    def chunks(i: int, rcb: int, lsb: int) -> Iterator[list[tuple[int, int]]]:
        if i + _TAIL > n:
            fill(i, rcb, lsb)
            yield rows
            # chain asks for the next list only once this one is drained
            rows.clear()
        else:
            for rcb_i, lsb_i in _rcb_lsb_choices(sizes, last, ante, i, rcb, lsb, n, k):
                yield from chunks(i + 1, rcb_i, lsb_i)

    return itertools.chain.from_iterable(chunks(1, 0, 0))


def _rcb_lsb_choices(
    sizes: list[int], last: list[int], ante: list[int], i: int, rcb: int, lsb: int, n: int, k: int
) -> Iterator[tuple[int, int]]:
    """The rcb and lsb after each block that element i can take, joins in
    block order, then a new block, with the blocks updated in place while
    the totals are out.  Block j has ``sizes[j]`` elements, the last of
    them ``last[j]``, and ``ante[j]`` elements lay in blocks left of it when
    that one arrived.  A choice is skipped when the elements after i could
    not open the blocks that are still missing."""
    m = len(sizes)
    if m + n - i >= k:
        left = 0  # the elements in blocks left of block j
        for j in range(m):
            size, ell, before = sizes[j], last[j], ante[j]
            # the elements between ell and i that lie left of block j
            between = left - before
            sizes[j], last[j], ante[j] = size + 1, i, left
            yield rcb + between, lsb + i - 1 - ell - between
            sizes[j], last[j], ante[j] = size, ell, before
            left += size
    if m < k:
        sizes.append(1)
        last.append(i)
        ante.append(i - 1)
        yield rcb + i - 1, lsb
        sizes.pop()
        last.pop()
        ante.pop()


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
    six Euler-Mahonian composites: the first six entries of
    ``transport_side``."""
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
    return _side(ros + lcs, (k - 1) * pi.n - los - rcs, los - lcs, b_inv, b_maj, ros - rcs, ros_os, k)


def _side(mak: int, makp: int, lsb: int, b_inv: int, b_maj: int, rsb: int, inv: int, k: int) -> tuple[int, ...]:
    """The ``transport_side`` tuple of a partition with k blocks from its
    mak, makp, lsb, bInv, bMaj, rsb and INV (ros over the openers)."""
    twice_choose2 = k * (k - 1)
    rsb_os = inv - b_inv
    return (
        mak + b_inv,
        makp + b_inv,
        lsb + twice_choose2 - b_inv,
        mak + b_maj,
        makp + b_maj,
        lsb + twice_choose2 - b_maj,
        rsb - rsb_os,
        inv,
        rsb_os + b_maj,
    )


# ---------------------------------------------------------------------------
# The pair-table kernel: one table per set of blocks, O(k) per block order
# ---------------------------------------------------------------------------

# A pair of blocks, A left of B, is read as six numbers: ros and rcs, the
# elements of A above B's opener and above B's closer; los and lcs, those of
# B above A's opener and above A's closer; and whether A's opener lies above
# B's closer and above B's opener.  With B left of A the same pair reads
# (los, lcs, ros, rcs) and the two comparisons of B's opener.  Each pair
# field is a signed sum of the reads: mak = ros + lcs, los + rcs,
# lsb = los - lcs, bInv, rsb = ros - rcs and INV = ros over the openers.
_PAIR_READS = {
    "mak": (1, 0, 0, 1, 0, 0),
    "los+rcs": (0, 1, 1, 0, 0, 0),
    "lsb": (0, 0, 1, -1, 0, 0),
    "binv": (0, 0, 0, 0, 1, 0),
    "rsb": (1, -1, 0, 0, 0, 0),
    "inv": (0, 0, 0, 0, 0, 1),
}
PAIR_FIELDS = tuple(_PAIR_READS)

# The fields that ``block_order_totals`` reads off adjacent blocks, each the
# sum of the positions j at which block j dominates block j + 1 (bMaj) or
# has the larger opener (maj sigma, the major index of the class
# permutation): the two comparisons of the pair reads.
_ADJACENT_READS = {
    "bmaj": (1, 0),
    "majsigma": (0, 1),
}
ORDER_FIELDS = PAIR_FIELDS + tuple(_ADJACENT_READS)


@cache
def _packing(fields: tuple[str, ...], width: int) -> tuple[tuple[int, ...], tuple[int, int] | None]:
    """The coefficient of each of the six pair reads in the packed
    ``fields``, field s at shift s * width, then those of the two
    comparisons in the adjacent fields, or None when ``fields`` reads no
    adjacent pair."""

    def coefficients(reads: dict, count: int) -> tuple[int, ...]:
        return tuple(
            sum(reads[f][r] << s * width for s, f in enumerate(fields) if f in reads) for r in range(count)
        )

    adjacent = coefficients(_ADJACENT_READS, 2)
    return coefficients(_PAIR_READS, 6), adjacent if any(adjacent) else None


def _pair_matrix(blocks: tuple[tuple[int, ...], ...], fields: tuple[str, ...], width: int) -> list[list[int]]:
    """The pair terms of ``fields``, packed as ``_packing`` packs them:
    entry [i][j] is what B_i left of B_j adds, and the diagonal is 0.

    Each pair of blocks is read once, for both of its orders.  Blocks are
    sorted, so each count is one ``bisect``.
    """
    c_ros, c_rcs, c_los, c_lcs, c_dominates, c_above = _packing(fields, width)[0]
    terms = [[0] * len(blocks) for _ in blocks]
    for a, left in enumerate(blocks):
        lo, lc, size = left[0], left[-1], len(left)
        row = terms[a]
        for b in range(a + 1, len(blocks)):
            right = blocks[b]
            ro, rc = right[0], right[-1]
            ros = size - bisect(left, ro)
            rcs = size - bisect(left, rc)
            los = len(right) - bisect(right, lo)
            lcs = len(right) - bisect(right, lc)
            row[b] = (
                ros * c_ros + rcs * c_rcs + los * c_los + lcs * c_lcs + (lo > rc) * c_dominates + (lo > ro) * c_above
            )
            terms[b][a] = (
                los * c_ros + lcs * c_rcs + ros * c_los + rcs * c_lcs + (ro > lc) * c_dominates + (ro > lo) * c_above
            )
    return terms


def _pair_rows(terms: list[list[int]]) -> list[list[int]]:
    """W_j for each block B_j, where W_j[mask] is the sum of the packed
    terms of B_i left of B_j (``_pair_matrix``) over the blocks B_i with bit
    i set in ``mask``.

    W_j doubles once per block: the masks with bit i set are those without
    it plus B_i's term, so the rows take O(k 2^k) additions.
    """
    rows = []
    for column in zip(*terms):
        row = [0]
        for term in column:
            row += [w + term for w in row]
        rows.append(row)
    return rows


def _field_width(n: int, k: int) -> int:
    """The bits of one packed field.  No field can carry into the next:
    over any block order of k blocks of [n], each sums to less than 2nk."""
    return (2 * k * n).bit_length()


def _pair_table(blocks: tuple[tuple[int, ...], ...]) -> tuple[dict, int]:
    """Map each block B_j to (W_j, 2^j), with W_j from ``_pair_rows`` over
    all six ``PAIR_FIELDS``, the first lowest, and return it with the field
    width."""
    width = _field_width(sum(map(len, blocks)), len(blocks))
    rows = _pair_rows(_pair_matrix(blocks, PAIR_FIELDS, width))
    return {block: (row, 1 << j) for j, (block, row) in enumerate(zip(blocks, rows))}, width


# The tables of the last two sets of blocks read, the more recent first:
# a partition and an image with other blocks keep one each.
_side_tables: tuple[tuple[dict, int], tuple[dict, int]] = (({}, 0), ({}, 0))


def table_side(pi: OrderedSetPartition) -> tuple[int, ...]:
    """``transport_side(pi)`` read from the pair table of pi's blocks.

    The tables of the last two sets of blocks read are kept, and a new one
    replaces the one read less recently, so the k! block orders of one set
    of blocks share one table, also between reads of another set.  Every
    term is a sum over pairs of pi's own blocks, so any table that holds
    them all gives the same answer.  bMaj is read from the k - 1 adjacent
    pairs; the last two fields give rsb_TC = (ros - rcs) - rsb_OS and
    INV = ros over the openers, with rsb_OS = INV - bInv and
    MAJ = rsb_OS + bMaj.
    """
    global _side_tables
    newer, older = _side_tables
    index, width = newer
    blocks = pi.blocks
    mask = total = b_maj = pos = opener = 0
    for block in blocks:
        entry = index.get(block)
        if entry is None:
            if all(map(older[0].__contains__, blocks)):
                _side_tables = older, newer
            else:
                _side_tables = _pair_table(blocks), newer
            return table_side(pi)
        row, bit = entry
        total += row[mask]
        mask |= bit
        if opener > block[-1]:
            b_maj += pos
        opener = block[0]
        pos += 1
    field = (1 << width) - 1
    return _side(
        total & field,
        (pos - 1) * pi.n - (total >> width & field),
        total >> 2 * width & field,
        total >> 3 * width & field,
        b_maj,
        total >> 4 * width & field,
        total >> 5 * width,
        pos,
    )


# ---------------------------------------------------------------------------
# Every block order of one standard form at once
# ---------------------------------------------------------------------------

# The orders of at most this many trailing blocks have cached cells, so the
# cache holds at most 6! = 720 tuples per layout whatever k is; a longer
# order runs one sub-table per prefix of its first k - 6 blocks.
_SUFFIX_BLOCKS = 6


@cache
def _suffix_cells(m: int, adjacent: bool) -> tuple[tuple[int, ...], ...]:
    """For each order of m blocks, in ``itertools.permutations`` order, the
    indices of the sub-table cells that its total sums.

    A sub-table of m blocks holds W_j[mask] at j 2^m + mask, then m head
    slots, one per first block, then, when ``adjacent``, the cell of block i
    left of block j at position q (1 <= q < m) at ((q - 1) m + i) m + j past
    the heads.  An order reads its head slot, the W-cell of each block on
    the mask of those before it, and, when ``adjacent``, its m - 1 adjacent
    pairs.
    """
    heads = m << m
    pairs = heads + m
    # one int object per index, shared by every tuple
    index = list(range(pairs + (m - 1) * m * m if adjacent else pairs))
    out = []
    for order in itertools.permutations(range(m)):
        cells = [heads + order[0]]
        mask = 0
        for j in order:
            cells.append(j << m | mask)
            mask |= 1 << j
        if adjacent:
            cells += [pairs + ((q - 1) * m + order[q - 1]) * m + order[q] for q in range(1, m)]
        out.append(tuple(map(index.__getitem__, cells)))
    return tuple(out)


def _order_totals(blocks: tuple[tuple[int, ...], ...], fields: Sequence[str], width: int) -> Iterator[Iterator[int]]:
    """The packed ``fields`` of every block order of ``blocks``, in
    ``itertools.permutations`` order, as one run of totals per ordered
    prefix of the first k - m blocks, m = min(k, ``_SUFFIX_BLOCKS``).

    Each run is a ``map`` that sums the cached suffix cells over one
    sub-table, so no Python frame runs per order.  The sub-table of the
    blocks left after a prefix holds their W-cells on the prefix mask and
    their position-weighted adjacent pairs; it is built once per set of
    remaining blocks, and each prefix writes its own total, plus its last
    block's adjacent pair, into the head slots.  Consume each run before
    asking for the next: the next prefix rewrites the head slots.
    """
    k = len(blocks)
    m = min(k, _SUFFIX_BLOCKS)
    start = k - m
    rows = _pair_rows(_pair_matrix(blocks, fields, width))
    weights = _packing(fields, width)[1]
    adjacent = weights and [
        [(left[0] > right[-1]) * weights[0] + (left[0] > right[0]) * weights[1] for right in blocks] for left in blocks
    ]
    cells = _suffix_cells(m, bool(adjacent))
    heads = m << m
    tables: dict[int, list[int]] = {}
    for prefix in itertools.permutations(range(k), start):
        mask = total = 0
        for q, j in enumerate(prefix):
            total += rows[j][mask] + (q * adjacent[prefix[q - 1]][j] if q and adjacent else 0)
            mask |= 1 << j
        rest = [j for j in range(k) if not mask >> j & 1]
        table = tables.get(mask)
        if table is None:
            if mask:
                masks = [mask]
                for j in rest:
                    masks += [e | 1 << j for e in masks]
                table = [rows[j][e] for j in rest for e in masks]
            else:
                # no prefix: the masks run over range(2**k), so the rows lie end to end
                table = list(itertools.chain.from_iterable(rows))
            table += [0] * m
            if adjacent:
                table += [q * adjacent[i][j] for q in range(start + 1, k) for i in rest for j in rest]
            tables[mask] = table
        for slot, j in enumerate(rest, start=heads):
            table[slot] = total + (start * adjacent[prefix[-1]][j] if prefix and adjacent else 0)
        yield map(sum, map(map, itertools.repeat(table.__getitem__), cells))


def block_order_totals(
    forms: Iterable[OrderedSetPartition], n: int, k: int, fields: Sequence[str]
) -> Iterator[int]:
    """One packed total per block order of the standard forms ``forms``
    (partitions of [n] into k blocks), each form's orders in
    ``itertools.permutations`` order.  ``fields`` are names in
    ``ORDER_FIELDS``: the ``PAIR_FIELDS``, summed over the pairs of blocks,
    and bmaj and majsigma, read off adjacent blocks.

    The totals are summed in C and built no partition; count them, then
    read each distinct total once with ``unpack_totals``.
    """
    unknown = [f for f in fields if f not in ORDER_FIELDS]
    if unknown:
        raise ValueError(f"unknown block order field {unknown[0]!r}; known: {', '.join(ORDER_FIELDS)}")
    return itertools.chain.from_iterable(_form_totals(forms, n, k, tuple(fields), _field_width(n, k)))


def _form_totals(
    forms: Iterable[OrderedSetPartition], n: int, k: int, fields: Sequence[str], width: int
) -> Iterator[Iterator[int]]:
    for std in forms:
        if (std.n, std.k) != (n, k):
            raise ValueError(f"block orders of [{n}] into {k} blocks cannot take {std.to_text()!r}")
        yield from _order_totals(std.blocks, fields, width)


def unpack_totals(totals: Counter, n: int, k: int, fields: Sequence[str]) -> Counter:
    """The counts of ``block_order_totals`` keyed by the values of
    ``fields``, each distinct total read once."""
    width = _field_width(n, k)
    field = (1 << width) - 1
    return Counter({
        tuple(total >> slot * width & field for slot in range(len(fields))): count
        for total, count in totals.items()
    })
