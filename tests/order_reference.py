"""The per-object references for ``statistics.block_order_totals``: one
block order's values of the order fields, read off its ``table_side``, and
the pair terms and rows of its table, read one ordered pair at a time."""
from bisect import bisect

from opstat.core import OrderedSetPartition
from opstat.statistics import PAIR_FIELDS, bmaj, table_side


def order_row(pi: OrderedSetPartition, fields) -> tuple[int, ...]:
    """The values of ``fields`` (names in ``statistics.ORDER_FIELDS``) on
    one block order, from its ``table_side`` and its blocks."""
    a, _, _, c, d, cm, rsb_tc, inv, _ = table_side(pi)
    k, b_maj = pi.k, bmaj(pi)
    b_inv = a - c + b_maj
    values = {
        "mak": c - b_maj,
        "los+rcs": (k - 1) * pi.n - d + b_maj,
        "lsb": cm - k * (k - 1) + b_maj,
        "binv": b_inv,
        "rsb": rsb_tc + inv - b_inv,
        "inv": inv,
        "bmaj": b_maj,
        "majsigma": sum(j for j in range(1, k) if pi.blocks[j - 1][0] > pi.blocks[j][0]),
    }
    return tuple(values[f] for f in fields)


def pair_terms(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """What the pair with ``left`` left of ``right`` adds to each of
    ``statistics.PAIR_FIELDS``: ros+lcs, los+rcs, los-lcs, bInv (rcs over
    the openers), ros-rcs and ros over the openers."""
    size = len(left)
    ros = size - bisect(left, right[0])
    rcs = size - bisect(left, right[-1])
    los = len(right) - bisect(right, left[0])
    lcs = len(right) - bisect(right, left[-1])
    return ros + lcs, los + rcs, los - lcs, int(left[0] > right[-1]), ros - rcs, int(left[0] > right[0])


def packed_pair_term(left: tuple[int, ...], right: tuple[int, ...], fields, width: int) -> int:
    """``pair_terms`` of the pair with ``left`` left of ``right``, the
    pair fields among ``fields`` packed at ``width`` bits each."""
    terms = pair_terms(left, right)
    return sum(terms[PAIR_FIELDS.index(f)] << s * width for s, f in enumerate(fields) if f in PAIR_FIELDS)


def pair_rows(blocks, fields, width: int) -> list[list[int]]:
    """W_j for each block B_j: W_j[mask] sums the packed terms of B_i left
    of B_j over the blocks B_i with bit i set in ``mask``."""
    rows = []
    for j, right in enumerate(blocks):
        row = [0]
        for i, left in enumerate(blocks):
            term = packed_pair_term(left, right, fields, width) if i != j else 0
            row += [w + term for w in row]
        rows.append(row)
    return rows
