"""The per-object references for the statistic forms and the pair-table
kernels: every named statistic of one partition by definition, the values
of fields (signed sums of names) on one block order, and the pair terms and
rows of its table, read one ordered pair at a time."""
import re
from functools import cache
from math import comb
from operator import add, mul

from opstat.core import OrderedSetPartition
from opstat.statistics import COORD_NAMES, _FORMS, bdes_set, binv, bmaj, coord_stats

_OS_NAMES = tuple(f"{name}_os" for name in COORD_NAMES)
_TC_NAMES = tuple(f"{name}_tc" for name in COORD_NAMES)


def reference_stats(pi: OrderedSetPartition) -> dict[str, int]:
    """Every name of ``statistics._FORMS`` on pi: coordinate sums of
    ``coord_stats`` over all elements, the openers-or-singletons and the
    rest, the block statistics by definition, the composites as the paper
    defines them, and inv and maj of the class permutation of pi's
    standard form."""
    lam = pi.partition_type()
    opener_like = lam.openers | lam.singletons
    sums = {True: [0] * len(COORD_NAMES), False: [0] * len(COORD_NAMES)}
    for i in range(1, pi.n + 1):
        opens = i in opener_like
        sums[opens] = list(map(add, sums[opens], vars(coord_stats(pi, i)).values()))
    out = dict(zip(_OS_NAMES, sums[True]))
    out.update(zip(_TC_NAMES, sums[False]))
    out.update(zip(COORD_NAMES, map(add, sums[True], sums[False])))
    choose2 = comb(pi.k, 2)
    out.update(binv=binv(pi), bmaj=bmaj(pi), bdes=len(bdes_set(pi)))
    out.update(cbinv=choose2 - out["binv"], cbmaj=choose2 - out["bmaj"])
    out.update(
        mak=out["ros"] + out["lcs"],
        makp=out["lob"] + out["rcb"],
        cinvlsb=out["lsb"] + out["cbinv"] + choose2,
        cmajlsb=out["lsb"] + out["cbmaj"] + choose2,
        inv=out["rsb_os"] + out["binv"],
        maj=out["rsb_os"] + out["bmaj"],
        cls=out["lcs"] + out["rcs"],
        opb=out["lob"] + out["rob"],
        sb=out["lsb"] + out["rsb"],
    )
    sigma = pi.standard_form()[1]
    out.update(invsigma=sigma.inversion_number(), majsigma=sigma.major_index())
    return out


@cache
def terms(field: str) -> tuple[tuple[int, str], ...]:
    """The signed names of a field such as ``"mak+binv"``."""
    parts = re.split(r"([+-])", field)
    return tuple((1 if sign == "+" else -1, name) for sign, name in zip(("+", *parts[1::2]), parts[::2]))


def field_values(values: dict[str, int], fields) -> tuple[int, ...]:
    """The values of ``fields``, signed sums of statistic names, from the
    values of the names."""
    return tuple(sum(sign * values[name] for sign, name in terms(field)) for field in fields)


def order_row(pi: OrderedSetPartition, fields) -> tuple[int, ...]:
    """The values of ``fields`` on one block order, from
    ``reference_stats``."""
    return field_values(reference_stats(pi), fields)


def pair_reads(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """The ten pair reads of ``left`` left of ``right``, counted by
    definition: the elements of the right block above the left one's opener
    and closer, those of the left block above the right one's opener and
    closer, 1, whether the left opener lies above the right one, whether
    the right opener lies above the left closer and the left opener above
    the right closer, and the sizes of the right and the left block."""
    lo, lc, ro, rc = left[0], left[-1], right[0], right[-1]
    return (
        sum(y > lo for y in right),
        sum(x > ro for x in left),
        sum(y > lc for y in right),
        sum(x > rc for x in left),
        1,
        int(lo > ro),
        int(ro > lc),
        int(lo > rc),
        len(right),
        len(left),
    )


def packed_pair_term(left: tuple[int, ...], right: tuple[int, ...], fields, width: int) -> int:
    """What the pair with ``left`` left of ``right`` adds to each of
    ``fields``, by the coefficients of their pair reads in
    ``statistics._FORMS``, packed at ``width`` bits each."""
    reads = pair_reads(left, right)
    return sum(sum(map(mul, _pair_form(field), reads)) << s * width for s, field in enumerate(fields))


@cache
def _pair_form(field: str) -> tuple[int, ...]:
    """The coefficients of a field over the ten pair reads."""
    return tuple(sum(sign * _FORMS[name][r] for sign, name in terms(field)) for r in range(10))


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
