"""The paper's traces, kept for the tests only.  A trace is a pair (blocks,
active): the blocks of an ordered partition restricted to [i], left to
right, and a flag per block that is set while the block still has elements
above i.  An active block behaves as if it closed at infinity.

The package keeps each trace as two int masks (``paths._gap``, ``_insert``
and ``_close``).  This module gives what those masks are checked against:
the restriction itself, the gap order and the masks by sets and sorts,
block insertion, bMaj, rsb and ros by definition, and the trace text of the
worked examples ("6 11 ∞/3 5 7/1 4 10 ∞/9/2 8")."""
from opstat.core import OrderedSetPartition
from opstat.paths import _gap

INFINITY = "∞"  # the marker of an active block in trace text


def restrict(pi: OrderedSetPartition, i: int):
    """pi restricted to [i]: each block cut to its elements up to i, the
    empty ones dropped, and a block active when it goes on past i."""
    blocks, active = [], []
    for block in pi.blocks:
        kept = tuple(el for el in block if el <= i)
        if kept:
            blocks.append(kept)
            active.append(block[-1] > i)
    return tuple(blocks), tuple(active)


def parse_trace(text: str):
    blocks, active = [], []
    for part in text.split("/"):
        tokens = part.split()
        flag = tokens[-1] == INFINITY
        blocks.append(tuple(int(t) for t in tokens[:len(tokens) - flag]))
        active.append(flag)
    return tuple(blocks), tuple(active)


def trace_text(blocks, active) -> str:
    return "/".join(
        " ".join(map(str, block)) + (f" {INFINITY}" if flag else "")
        for block, flag in zip(blocks, active)
    )


def with_block(blocks, active, pos: int, element: int, opens: bool = False):
    """The trace with a new block {element} at gap pos, 0 = leftmost; the
    block is active when it opens."""
    return (
        (*blocks[:pos], (element,), *blocks[pos:]),
        (*active[:pos], opens, *active[pos:]),
    )


def trace_bdes_set(blocks, active) -> set[int]:
    """Positions j with block j dominating block j+1; an active block
    closes at infinity, so no block dominates it."""
    return {
        j for j in range(1, len(blocks))
        if not active[j] and blocks[j - 1][0] > blocks[j][-1]
    }


def trace_bmaj(blocks, active) -> int:
    return sum(trace_bdes_set(blocks, active))


def _position(blocks, i: int) -> int:
    return next(j for j, block in enumerate(blocks) if i in block)


def trace_rsb(blocks, active, i: int) -> int:
    """Active blocks strictly right of i's block whose opener is below i."""
    return sum(
        1 for j in range(_position(blocks, i) + 1, len(blocks))
        if active[j] and blocks[j][0] < i
    )


def trace_ros(blocks, active, i: int) -> int:
    """Blocks strictly right of i's block."""
    return len(blocks) - 1 - _position(blocks, i)


def insertion_positions_by_sets(blocks, active) -> tuple[int, ...]:
    """The gap relabelling (a_0, ..., a_r) built from two sets and two
    sorts, gap j sitting left of block j and gap r at the right end: the
    reference for ``paths._gap``."""
    r = len(blocks)
    act = {j for j in range(r) if active[j]}
    desc = trace_bdes_set(blocks, active)
    special = sorted(act | desc, reverse=True)
    rest = sorted(set(range(r)) - act - desc)
    return (r, *special, *rest)


def masks_by_sets(blocks, active) -> tuple[int, int]:
    """The active and special masks of a trace, from the sets of
    ``insertion_positions_by_sets``: bit j for block j and the gap left of
    it."""
    act = {j for j in range(len(blocks)) if active[j]}
    return sum(1 << j for j in act), sum(1 << j for j in act | trace_bdes_set(blocks, active))


def gap_order(blocks, active) -> tuple[int, ...]:
    """(a_0, ..., a_r) as the encoders read it: ``paths._gap`` on the
    special mask of ``masks_by_sets``."""
    special = masks_by_sets(blocks, active)[1]
    return tuple(_gap(special, len(blocks), label) for label in range(len(blocks) + 1))
