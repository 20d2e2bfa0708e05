"""The per-object reference for ``statistics.block_order_totals``: one
block order's values of the order fields, read off its ``table_side``."""
from opstat.core import OrderedSetPartition
from opstat.statistics import bmaj, table_side


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
