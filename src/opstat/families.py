"""Exhaustive generators for the families the distribution identities sum
over, plus the rearrangement bijection ``beta`` driven by subdiagonal
integer vectors.

Generators stream in a fixed deterministic order so that any failure report
is reproducible.  The partition generators build their objects with the
unchecked ``OrderedSetPartition._trusted``, because each object is valid by
construction: ``set_partitions`` grows every block of [n] in increasing
order, and ``ordered_set_partitions``, ``sigma_partitions`` and
``rearrangements`` reorder the blocks of a partition that is already valid.
``beta`` reorders the blocks of its standard form too: it inserts them
whole, in opener order, each at the gap its entry of c names.
``ordered_set_partitions`` can also give each block order as an int that
packs its statistics (``statistics.block_order_totals``), so a sum over
OP(n,k) is still drawn from its family without building a partition.
Likewise ``set_partitions`` can give each standard form as its (rcb, lsb)
(``statistics.rcb_lsb_rows``), grown element by element as the forms are.

Ordered-partition families refuse n above a desk-scale limit (default 12,
overridable through the environment variable ``OPSTAT_MAX_N`` or an
explicit flag): the family sizes grow like k! times the Stirling numbers
and nothing past desk scale is exhaustively checkable.  A check on one
class, whose ground set can be small while its k! orders are not, is also
refused above ``DESK_COUNT_DEFAULT`` objects, and a sum over OP(n,k) above
``DESK_ORDERS_DEFAULT`` block orders, and the closed forms above n =
``TABLE_MAX_N``.
"""
from __future__ import annotations

import itertools
import os
from functools import cache
from math import factorial
from typing import Iterator, Sequence

from .core import OrderedSetPartition, PartitionType, Permutation, _decimal
from . import paths
# ``psi_inv`` is imported for the benchmark's tracer (bench/tracing.py),
# which wraps it under this module's name; ``beta_inv`` reads ``_labels``
from .paths import LatticePath, PathDiagram, _labels, psi_inv
from .statistics import block_order_totals, rcb_lsb_rows

__all__ = [
    "DeskScaleError",
    "set_partitions",
    "ordered_set_partitions",
    "sigma_partitions",
    "partitions_of_type",
    "rearrangements",
    "permutations",
    "words",
    "path_diagrams",
    "compositions",
    "subdiagonal_vectors",
    "stirling2",
    "fubini",
    "beta",
    "beta_inv",
    "desk_scale_limit",
]

DESK_SCALE_DEFAULT = 12
# The most objects that a check on one class (thm3.5 on a partition, eq1.1
# and doubleton on a composition) enumerates without allow_large.  A class
# of k blocks has k! orders: thm3.5 takes about 3 s at k = 8 and 25 s at
# k = 9, within the limit; k = 10 has 3,628,800 orders, past it.
DESK_COUNT_DEFAULT = 10**6
# The most block orders that a sum over OP(n,k) (thm3.2, thm3.4, eq5.8,
# eq9.2) draws without allow_large.  thm3.2 runs 1.1 to 1.3 * 10**6 orders
# a second at n = 9 and 10 (2 cores, Python 3.11), so this is 75 to 90 s:
# every k at n <= 10 fits, the largest being 8! S(10, 8) ~ 3.0 * 10**7,
# and k = 6 at n = 12, 6! S(12, 6) ~ 9.5 * 10**8, does not.
DESK_ORDERS_DEFAULT = 10**8
# The largest n to which ``opstat table`` and zezh fill the closed-form
# recursions without allow_large.  The S_pq table takes 0.3-0.4 s and 28 MiB
# at n = 22 with --json, zezh 0.1-0.17 s and 21 MiB at (n, k) = (40, 20) and
# 3-5 s and 118 MiB at (80, 40) (one process each, 2 cores, Python 3.11).
TABLE_MAX_N = 22


class DeskScaleError(ValueError):
    """Raised when an exhaustive family is requested beyond desk scale."""


def desk_scale_limit() -> int:
    raw = os.environ.get("OPSTAT_MAX_N")
    if raw is None:
        return DESK_SCALE_DEFAULT
    try:
        return _decimal(raw)
    except ValueError:
        raise ValueError(f"OPSTAT_MAX_N is not a decimal number: {raw!r}") from None


def _check_scale(n: int, allow_large: bool) -> None:
    limit = desk_scale_limit()
    if n > limit and not allow_large:
        raise DeskScaleError(
            f"n={n} exceeds the desk-scale limit {limit}; "
            "set OPSTAT_MAX_N or pass --allow-large (allow_large=True) to override"
        )


def _check_count(count: int, allow_large: bool, limit: int) -> None:
    if count > limit and not allow_large:
        raise DeskScaleError(
            f"{count} objects exceed the desk-scale count limit {limit}; "
            "pass --allow-large (allow_large=True) to override"
        )


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def _stirling2_row(n: int, k: int) -> list[int]:
    """S(n, 0), ..., S(n, k) for n >= 0: one row updated in place by
    S(m, j) = S(m-1, j-1) + j S(m-1, j) for m = 1, ..., n, so that no call
    recurses and a large n costs O(nk) steps, not stack depth."""
    row = [1] + [0] * k
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = row[j - 1] + j * row[j]
        row[0] = 0
    return row


@cache
def stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _stirling2_row(n, k)[k]


def fubini(n: int) -> int:
    """Number of ordered set partitions of [n]."""
    if n < 0:
        return 0
    return sum(factorial(k) * s for k, s in enumerate(_stirling2_row(n, n)))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def set_partitions(
    n: int, k: int | None = None, fields: Sequence[str] | None = None
) -> Iterator[OrderedSetPartition] | Iterator[tuple[int, int]]:
    """Standard-form partitions of [n] (into k blocks when k is given), in
    lexicographic order of their block-index words.

    With ``fields=("rcb", "lsb")`` (k is then required), each standard form
    comes as its (rcb, lsb) from ``statistics.rcb_lsb_rows``, in the same
    order, and no partition is built.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if fields is None:
        return _standard_forms(n, k)
    if k is None:
        raise ValueError("rcb and lsb rows need k")
    if tuple(fields) != ("rcb", "lsb"):
        raise ValueError(f"set partitions give the fields ('rcb', 'lsb') only, got {tuple(fields)}")
    return rcb_lsb_rows(n, k)


def _standard_forms(n: int, k: int | None) -> Iterator[OrderedSetPartition]:
    if n == 0:
        if k in (None, 0):
            yield OrderedSetPartition(0, ())
        return
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[OrderedSetPartition]:
        if k is not None and len(blocks) + (n - i + 1) < k:
            return
        if i > n:
            if k is None or len(blocks) == k:
                yield OrderedSetPartition._trusted(n, tuple(map(tuple, blocks)))
            return
        for j in range(len(blocks)):
            blocks[j].append(i)
            yield from rec(i + 1)
            blocks[j].pop()
        if k is None or len(blocks) < k:
            blocks.append([i])
            yield from rec(i + 1)
            blocks.pop()

    yield from rec(1)


def permutations(k: int) -> Iterator[Permutation]:
    """All permutations of [k], one-line images in lexicographic order."""
    for images in itertools.permutations(range(1, k + 1)):
        yield Permutation(images)


def ordered_set_partitions(
    n: int, k: int | None = None, allow_large: bool = False, fields: Sequence[str] | None = None
) -> Iterator[OrderedSetPartition] | Iterator[int]:
    """All ordered set partitions of [n] (with k blocks when k is given):
    standard forms in generator order, block orders lexicographic.

    With ``fields``, signed sums of statistic names such as
    ``"mak+binv"`` (k is then required), each block order comes as its
    values of those fields packed into one int by
    ``statistics.block_order_totals``, and no partition is built;
    ``statistics.unpack_totals`` reads the counted totals.
    """
    _check_scale(n, allow_large)
    if fields is None:
        return _block_orders(n, k)
    if k is None:
        raise ValueError("packed block orders need k")
    return block_order_totals(set_partitions(n, k), n, k, fields)


def _block_orders(n: int, k: int | None) -> Iterator[OrderedSetPartition]:
    return itertools.chain.from_iterable(map(rearrangements, set_partitions(n, k)))


def sigma_partitions(n: int, k: int, sigma: Permutation) -> Iterator[OrderedSetPartition]:
    """The sigma-class: every standard form rearranged by sigma."""
    if sigma.size != k:
        raise ValueError(f"sigma acts on {sigma.size} blocks, expected {k}")
    for std in set_partitions(n, k):
        yield std.rearranged(sigma)


def partitions_of_type(lam: PartitionType, allow_large: bool = False) -> Iterator[OrderedSetPartition]:
    """Ordered partitions with the given type.  The type belongs to the
    block set, so these are the rearrangements of the standard forms of
    that type, in the order of ``ordered_set_partitions``."""
    _check_scale(lam.n, allow_large)
    for std in set_partitions(lam.n, lam.k):
        if std.partition_type() == lam:
            yield from rearrangements(std)


def rearrangements(pi: OrderedSetPartition) -> Iterator[OrderedSetPartition]:
    """The k! reorderings of the blocks of pi, pi.rearranged(sigma) for each
    sigma in ``permutations(k)`` order (pi's own order is the reference)."""
    for blocks in itertools.permutations(pi.blocks):
        yield OrderedSetPartition._trusted(pi.n, blocks)


def words(parts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct rearrangements of the word 1^{n_1} 2^{n_2} ... k^{n_k},
    lexicographically."""
    if any(p < 0 for p in parts):
        raise ValueError("composition parts must be nonnegative")
    counts = [int(p) for p in parts]
    total = sum(counts)
    word: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == total:
            yield tuple(word)
            return
        for letter in range(1, len(counts) + 1):
            if counts[letter - 1]:
                counts[letter - 1] -= 1
                word.append(letter)
                yield from rec()
                word.pop()
                counts[letter - 1] += 1

    return rec()


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into positive parts."""
    if total == 0:
        yield ()
        return

    def rec(remaining: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(1, remaining + 1):
            acc.append(part)
            yield from rec(remaining - part, acc)
            acc.pop()

    yield from rec(total, [])


def _paths(n: int, k: int) -> Iterator[tuple[str, ...]]:
    """All step sequences of depth k and length n, lexicographic in the
    step order D < E < N < O at each position."""

    def rec(steps: list[str], x: int, y: int, remaining: int) -> Iterator[tuple[str, ...]]:
        east_needed = k - x
        # every remaining descent is an east-ish step, so y can never exceed
        # the east-ish budget; both must also fit in the remaining steps
        if east_needed < 0 or east_needed > remaining or y > east_needed:
            return
        if remaining == 0:
            if y == 0:
                yield tuple(steps)
            return
        if y > 0 and east_needed > 0:
            steps.append("D")
            yield from rec(steps, x + 1, y - 1, remaining - 1)
            steps.pop()
        if east_needed > 0:
            steps.append("E")
            yield from rec(steps, x + 1, y, remaining - 1)
            steps.pop()
        steps.append("N")
        yield from rec(steps, x, y + 1, remaining - 1)
        steps.pop()
        if y > 0:
            steps.append("O")
            yield from rec(steps, x, y, remaining - 1)
            steps.pop()

    yield from rec([], 0, 0, n)


def path_diagrams(n: int, k: int, allow_large: bool = False) -> Iterator[PathDiagram]:
    """All path diagrams of depth k and length n."""
    _check_scale(n, allow_large)
    for steps in _paths(n, k):
        path = LatticePath(steps)
        for labels in itertools.product(*(range(bound + 1) for bound in path.bounds)):
            yield PathDiagram(path, labels)


def subdiagonal_vectors(k: int) -> Iterator[tuple[int, ...]]:
    """All (c_1, ..., c_k) with 0 <= c_j <= j-1; there are k! of them."""
    return itertools.product(*(range(j) for j in range(1, k + 1)))


# ---------------------------------------------------------------------------
# The rearrangement bijection beta
# ---------------------------------------------------------------------------

def beta(pi0: OrderedSetPartition, c: Sequence[int]) -> OrderedSetPartition:
    """Rearrange a standard-form partition so that the block entering at the
    j-th opener/singleton lands at the gap relabelled c_j.  The resulting
    block order realises MAJ = c_1 + ... + c_k.

    Transients and closers never leave their block, so whole blocks stand in
    for the trace, held on ``paths``' masks: when a block opens, an earlier
    block is active exactly when its closer exceeds the new opener, and
    those that are no longer active close by the close rule.  A block placed
    directly left of a complete block sets that block's special bit, by the
    insert rule, and the bit stays: no block descent is read off the blocks.
    The rules are looked up on ``paths`` at each call, as its decoders do.
    """
    if not pi0.is_standard():
        raise ValueError("beta expects a standard-form partition")
    if len(c) != pi0.k:
        raise ValueError(f"need one entry per block: {pi0.k}")
    # standard form: the j-th block's opener is the j-th opener/singleton
    for j, c_j in enumerate(c, start=1):
        if type(c_j) is not int:  # a float or a bool is not an entry
            raise ValueError(f"entry c_{j} must be an integer, got {c_j!r}")
        if not 0 <= c_j <= j - 1:
            raise ValueError(f"entry c_{j}={c_j} outside 0..{j - 1}")
    order: list[tuple[int, ...]] = []
    active = special = 0  # over the positions of order
    for r, (block, c_j) in enumerate(zip(pi0.blocks, c)):
        opener = block[0]
        closed = 0  # the active blocks whose closer lies below this opener
        rest = active
        while rest:
            bit = rest & -rest
            if order[bit.bit_length() - 1][-1] < opener:
                closed |= bit
            rest ^= bit
        if closed:
            active, special = paths._close(active, special, closed)
        pos = paths._gap(special, r, c_j)
        order.insert(pos, block)
        active, special = paths._insert(active, special, r, pos, len(block) > 1)
    return OrderedSetPartition._trusted(pi0.n, tuple(order))


def beta_inv(pi: OrderedSetPartition) -> tuple[int, ...]:
    """Recover the subdiagonal vector: c_j, psi_inv's j-th N/E label, is the
    rsb at the j-th opener plus the growth of bMaj across its trace step."""
    return tuple(label for step, label in _labels(pi, by_gap_rank=False) if step == "N" or step == "E")
