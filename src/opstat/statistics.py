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

One read table and two kernels compute every other statistic:

* ``coord_stats`` counts all ten coordinates of one element literally; it
  is the reference the tests compare the kernels against.
* ``_FORMS`` maps each statistic name to its coefficients over thirteen
  reads (``_READS``), ten per pair of blocks and three per pair of
  adjacent blocks, written once as signed sums of names.  A field is any
  signed sum of names, such as ``"mak+binv"``; ``_packing`` packs fields
  into one coefficient per read, and as fields are byte-wide, ``struct``
  decodes a packed total in one call.
* ``_read_sums`` is the per-partition kernel: it visits each pair of
  blocks once and returns the thirteen sums.  ``field_values`` reads any
  fields off one call of it, and ``aggregate_profile``, ``stat``,
  ``stat_restricted`` and ``six_composites`` are ``field_values`` of their
  forms.
* ``_pair_matrix`` is the pair-table kernel: it reads the ten pair reads
  of each unordered pair of blocks once for both of its orders and packs
  the pair terms of any fields from them.  A pair adds the same terms to
  every block order that puts the same one of the two on the left, so one
  table per set of blocks holds, for each block, the prefix sums of those
  terms over every subset of the other blocks, and each block order costs
  one table lookup and one addition per block.  ``order_reader`` builds
  the table of one set of blocks and returns a reader of any order of any
  of them, the adjacent reads taken from adjacent blocks, that hands a
  partition with another block to ``field_values``.  A transport sweep
  owns one reader per set of blocks it sweeps.  The tests compare the
  readers with ``field_values``, and the matrix with a reference that
  reads one ordered pair at a time.
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
  on them share one total.  bDes has no position weight, so a field that
  reads it is refused.  The packing depends on the fields and the field
  width alone, and the cell tuples on the number m of trailing blocks
  they cover, at most six; both are kept in a ``functools.cache``, so one
  sweep builds them once.  A loop over the first k - m blocks writes each
  prefix into a sub-table of the blocks left.  The benchmark
  (``bench/run.py``) empties those caches before every pass, as a fresh
  process starts without them, so building them counts in the measured
  time.  The tests compare the kernel with the per-object references, one
  order at a time.
* ``rcb_lsb_rows`` gives rcb and lsb, which is all eq2.3 reads, for every
  standard form of [n] into k blocks without building one: it keeps
  running totals while the forms grow one element at a time
  (``families.set_partitions`` with ``fields``).  The tests compare it with
  the profile.

``binv``, ``bdes_set`` and ``bmaj`` compare blocks by definition; they are
the reference for the kernel's block statistics.
"""
from __future__ import annotations

import itertools
import operator
import struct
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

from .core import OrderedSetPartition

__all__ = [
    "CoordStats",
    "COORD_NAMES",
    "coord_stats",
    "coordinate_table",
    "stat",
    "stat_restricted",
    "block_relation",
    "binv",
    "bdes_set",
    "bmaj",
    "six_composites",
    "field_values",
    "order_reader",
    "aggregate_profile",
    "rcb_lsb_rows",
    "resolve_stat",
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
# The read table: every statistic is a linear form over thirteen reads
# ---------------------------------------------------------------------------

# A pair of blocks, A left of B, with openers a0, b0 and closers ac, bc, is
# read as ten numbers: los and lcs, the elements of B above a0 and above ac;
# ros and rcs, those of A above b0 and above bc; C = 1, which sums to
# C(k,2), as L and R do over the openers; ros_os = [a0 > b0],
# lcs_os = [b0 > ac] and rcs_os = [a0 > bc], three of the same coordinates
# of the openers; and L = |B| and R = |A|, which summed over the pairs are
# L and R of the identities above summed over the elements.  Adjacent
# blocks at positions j and j + 1 give three more: bmaj = j [a0 > bc],
# majsigma = j [a0 > b0] and bdes = [a0 > bc].
_READS = ("los", "ros", "lcs", "rcs", "C", "ros_os", "lcs_os", "rcs_os", "L", "R", "bmaj", "majsigma", "bdes")
_BMAJ, _MAJSIGMA, _BDES = 10, 11, 12  # the adjacent reads, after the pair reads

# Every other statistic, as a signed sum of reads and of names defined above
# it.  Of two openers one lies above the other, an opener above another
# block's closer lies above that whole block, and the class permutation
# lists the openers' ranks in block order.
_DEFINITIONS = (
    ("lob", "L-los"), ("rob", "R-ros"), ("lcb", "L-lcs"), ("rcb", "R-rcs"), ("lsb", "los-lcs"), ("rsb", "ros-rcs"),
    ("los_os", "C-ros_os"), ("lob_os", "C-los_os"), ("rob_os", "C-ros_os"),
    ("lcb_os", "C-lcs_os"), ("rcb_os", "C-rcs_os"), ("lsb_os", "los_os-lcs_os"), ("rsb_os", "ros_os-rcs_os"),
    *((f"{name}_tc", f"{name}-{name}_os") for name in COORD_NAMES),
    ("binv", "rcs_os"), ("cbinv", "C-binv"), ("cbmaj", "C-bmaj"),
    ("mak", "ros+lcs"), ("makp", "lob+rcb"), ("cinvlsb", "lsb+cbinv+C"), ("cmajlsb", "lsb+cbmaj+C"),
    ("inv", "rsb_os+binv"), ("maj", "rsb_os+bmaj"), ("cls", "lcs+rcs"), ("opb", "lob+rob"), ("sb", "lsb+rsb"),
    ("invsigma", "ros_os"),
)


def _form(field: str, names: dict[str, tuple[int, ...]] | None = None) -> tuple[int, ...]:
    """The coefficients over ``_READS`` of a signed sum of statistic names,
    such as ``"mak+binv"``, the names looked up in ``names`` (``_FORMS``)."""
    names = _FORMS if names is None else names
    total = (0,) * len(_READS)
    for term in field.replace("-", "+-").split("+"):
        name = term.removeprefix("-")
        form = names.get(name)
        if form is None:
            raise ValueError(f"unknown statistic {name!r} in {field!r}")
        total = tuple(map(operator.sub if term.startswith("-") else operator.add, total, form))
    return total


def _forms() -> dict[str, tuple[int, ...]]:
    names = {read: tuple(int(r == s) for s in range(len(_READS))) for r, read in enumerate(_READS)}
    for name, field in _DEFINITIONS:
        names[name] = _form(field, names)
    return {name: form for name, form in names.items() if name not in ("C", "L", "R")}


# each statistic name, its coefficient per read
_FORMS = _forms()

# the block statistics and composites in ``aggregate_profile``
_COMPOSITES = (
    "binv", "bmaj", "bdes", "cbinv", "cbmaj",
    "mak", "makp", "cinvlsb", "cmajlsb", "inv", "maj", "cls", "opb", "sb",
)
_PROFILE = (*(f"{name}_{cls}" for cls in ("os", "tc") for name in COORD_NAMES), *COORD_NAMES, *_COMPOSITES)

_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


@cache
def _packing(fields: tuple[str, ...], width: int) -> tuple[tuple[int, ...], Callable, int]:
    """The coefficient of each read in the packed ``fields``, signed sums of
    names with field s at shift s * width, and the decoder of a packed
    total: fields are byte-wide, so one ``struct`` unpack of its bytes
    reads them all, and the number of those bytes."""
    forms = [_form(field) for field in fields]
    coefficients = tuple(sum(form[r] << s * width for s, form in enumerate(forms)) for r in range(len(_READS)))
    layout = struct.Struct(f"<{len(fields)}{_STRUCT_CODES[width]}")
    return coefficients, layout.unpack, layout.size


def _field_width(n: int, k: int) -> int:
    """The bits of one packed field, a whole number of bytes.  No field can
    borrow from or carry into the next: on any partition of [n] into
    k <= n blocks, each statistic and each field packed here sums to at
    least 0 and less than 2nk, as no coordinate sum exceeds (k-1)n and no
    block statistic C(k,2)."""
    return max(8, 1 << ((2 * k * n).bit_length() - 1).bit_length())


# ---------------------------------------------------------------------------
# The per-partition kernel: aggregates, restrictions and composites
# ---------------------------------------------------------------------------

def _read_sums(blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The thirteen reads, in ``_READS`` order, summed over the pairs and
    the adjacent pairs of blocks.

    Each pair of blocks is visited once.  Blocks are sorted, so each count
    of one side is one ``bisect``.
    """
    los = ros = lcs = rcs = ros_os = lcs_os = rcs_os = n = right = 0
    k = len(blocks)
    for a, left in enumerate(blocks, start=1):
        lo, lc, size = left[0], left[-1], len(left)
        n += size
        right += size * (k - a)
        for other in blocks[a:]:
            oo, oc = other[0], other[-1]
            los += len(other) - bisect(other, lo)
            ros += size - bisect(left, oo)
            lcs += len(other) - bisect(other, lc)
            rcs += size - bisect(left, oc)
            if lo > oo:
                ros_os += 1
                if lo > oc:
                    rcs_os += 1
            elif oo > lc:
                lcs_os += 1
    b_maj = maj_sigma = b_des = 0
    for j in range(1, k):
        opener, after = blocks[j - 1][0], blocks[j]
        if opener > after[0]:
            maj_sigma += j
            if opener > after[-1]:
                b_maj += j
                b_des += 1
    return (
        los, ros, lcs, rcs, k * (k - 1) // 2, ros_os, lcs_os, rcs_os, (k - 1) * n - right, right,
        b_maj, maj_sigma, b_des,
    )


def field_values(pi: OrderedSetPartition, fields: tuple[str, ...]) -> tuple[int, ...]:
    """The values of ``fields``, signed sums of names such as ``"mak+binv"``,
    on pi, packed from one kernel call and decoded at once, modulo
    2^(8 size): a faulty kernel's field outside its range reads as a wrong
    value, which the checks report, not as an error."""
    coefficients, unpack, size = _packing(fields, _field_width(pi.n, pi.k))
    total = sum(map(operator.mul, _read_sums(pi.blocks), coefficients))
    return unpack((total & ~(-1 << 8 * size)).to_bytes(size, "little"))


def aggregate_profile(pi: OrderedSetPartition) -> dict[str, int]:
    """Every linear statistic of pi in one pass: the ten coordinate sums,
    their twenty restrictions ``<name>_os``/``<name>_tc`` to the
    opener-or-singleton and transient-or-closer elements, the block
    statistics (binv, bmaj, bdes, cbinv, cbmaj) and the composites (mak,
    makp, cinvlsb, cmajlsb, inv, maj, cls, opb, sb).

    The test suite compares it exhaustively at small n with sums of the
    reference ``coord_stats``.
    """
    return dict(zip(_PROFILE, field_values(pi, _PROFILE)))


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
    return field_values(pi, (f"{name}_{cls.lower()}",))[0]


def resolve_stat(name: str) -> Callable[[OrderedSetPartition], int]:
    """Look up a statistic evaluator by name, case-insensitively.

    "INV"/"MAJ" (and any case variant of inv/maj) mean the partition
    statistics rsb_OS + bInv and rsb_OS + bMaj; the permutation-derived
    statistics inv(sigma)/maj(sigma) are addressed as "invsigma"/"majsigma".
    The exact spellings "Inv" and "Maj" are kept for the latter pair.
    """
    low = {"Inv": "invsigma", "Maj": "majsigma"}.get(name) or name.lower()
    fields = ("makp" if low == "mak'" else low,)
    if fields[0] not in _FORMS:
        raise ValueError(f"unknown statistic: {name!r}")
    return lambda pi: field_values(pi, fields)[0]


def stat(pi: OrderedSetPartition, name: str) -> int:
    """Evaluate a named statistic; coordinate names are summed over all
    elements, e.g. stat(pi, "ros") = ros_1 + ... + ros_n."""
    return resolve_stat(name)(pi)


_SIX = ("mak+binv", "makp+binv", "cinvlsb", "mak+bmaj", "makp+bmaj", "cmajlsb")


def six_composites(pi: OrderedSetPartition) -> tuple[int, int, int, int, int, int]:
    """(mak+bInv, makp+bInv, cinvLSB, mak+bMaj, makp+bMaj, cmajLSB), the
    six Euler-Mahonian composites."""
    return field_values(pi, _SIX)


# ---------------------------------------------------------------------------
# The pair-table kernel: one table per set of blocks, O(k) per block order
# ---------------------------------------------------------------------------

def _pair_matrix(blocks: tuple[tuple[int, ...], ...], fields: tuple[str, ...], width: int) -> list[list[int]]:
    """The pair terms of ``fields``, packed as ``_packing`` packs them:
    entry [i][j] is what B_i left of B_j adds, and the diagonal is 0.

    Each pair of blocks is read once, for both of its orders: with the other
    block on the left, los trades places with ros, lcs with rcs and L with
    R, and the comparisons are those of the other opener.  Blocks are
    sorted, so each count is one ``bisect``.
    """
    coefficients = _packing(fields, width)[0]
    c_los, c_ros, c_lcs, c_rcs, c_pair, c_above, c_lcs_os, c_rcs_os, c_left, c_right = coefficients[:_BMAJ]
    terms = [[0] * len(blocks) for _ in blocks]
    for a, left in enumerate(blocks):
        lo, lc, size = left[0], left[-1], len(left)
        row = terms[a]
        for b in range(a + 1, len(blocks)):
            right = blocks[b]
            ro, rc, other = right[0], right[-1], len(right)
            los = other - bisect(right, lo)
            ros = size - bisect(left, ro)
            lcs = other - bisect(right, lc)
            rcs = size - bisect(left, rc)
            forward = los * c_los + ros * c_ros + lcs * c_lcs + rcs * c_rcs + other * c_left + size * c_right + c_pair
            backward = ros * c_los + los * c_ros + rcs * c_lcs + lcs * c_rcs + size * c_left + other * c_right + c_pair
            row[b] = forward + (lo > ro) * c_above + (ro > lc) * c_lcs_os + (lo > rc) * c_rcs_os
            terms[b][a] = backward + (ro > lo) * c_above + (lo > rc) * c_lcs_os + (ro > lc) * c_rcs_os
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


def order_reader(
    blocks: tuple[tuple[int, ...], ...], fields: tuple[str, ...]
) -> Callable[[OrderedSetPartition], tuple[int, ...]]:
    """A reader of ``fields`` on any order of any of ``blocks``, built on
    one pair table of them; it gives ``field_values(rho, fields)``.

    Every term is a sum over pairs of rho's own blocks, so the table of any
    set of blocks that holds them all gives it: each block of rho adds its
    row's cell on the mask of the blocks left of it, and the adjacent reads
    come from the k - 1 adjacent pairs.  A partition with a block outside
    ``blocks`` is read by ``field_values``.
    """
    width = _field_width(sum(map(len, blocks)), len(blocks))
    coefficients, unpack, size = _packing(fields, width)
    c_bmaj, c_majsigma, c_bdes = coefficients[_BMAJ:]
    rows = _pair_rows(_pair_matrix(blocks, fields, width))
    table = {block: (row, 1 << j) for j, (block, row) in enumerate(zip(blocks, rows))}
    get = table.get

    def read(rho: OrderedSetPartition) -> tuple[int, ...]:
        mask = total = b_maj = maj_sigma = b_des = pos = opener = 0
        for block in rho.blocks:
            entry = get(block)
            if entry is None:
                return field_values(rho, fields)
            row, bit = entry
            total += row[mask]
            mask |= bit
            if opener > block[0]:
                maj_sigma += pos
                if opener > block[-1]:
                    b_maj += pos
                    b_des += 1
            opener = block[0]
            pos += 1
        total += b_maj * c_bmaj + maj_sigma * c_majsigma + b_des * c_bdes
        return unpack(total.to_bytes(size, "little"))

    return read


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
    coefficients = _packing(fields, width)[0]
    c_bmaj, c_majsigma = coefficients[_BMAJ], coefficients[_MAJSIGMA]
    adjacent = (c_bmaj or c_majsigma) and [
        [(left[0] > right[-1]) * c_bmaj + (left[0] > right[0]) * c_majsigma for right in blocks] for left in blocks
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
    ``itertools.permutations`` order.  ``fields`` are signed sums of
    statistic names, such as ``"mak+binv"``: their pair reads are summed
    over the pairs of blocks, and bmaj and majsigma read off adjacent
    blocks.  bdes is read per partition only, so a field that reads it is
    refused.

    The totals are summed in C and built no partition; count them, then
    read each distinct total once with ``unpack_totals``.
    """
    for field in fields:
        if _form(field)[_BDES]:
            raise ValueError(f"block order field {field!r} reads bdes, which is read per partition only")
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
    _, unpack, size = _packing(tuple(fields), _field_width(n, k))
    return Counter({unpack(total.to_bytes(size, "little")): count for total, count in totals.items()})
