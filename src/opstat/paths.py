"""Lattice paths, labelled path diagrams and the bijections built on them.

A path of depth k and length n walks from (0,0) to (k,0) through North
(0,1), East (1,0), South-East (1,-1) and Null (0,0) steps, never dipping
below the x-axis; Null steps require positive height.  Serialized step
letters: N (North), E (East), D (South-East, "down"), O (Null, "loop").

A path diagram attaches an integer label to every step, bounded by the
step's coordinates.  Two different slot conventions turn diagrams into
ordered set partitions:

* ``phi`` numbers the gaps between the blocks of the partial partition
  right-to-left and grows the partition by plain positional insertion;
* ``psi`` renumbers the gaps so that inserting a new block at the gap
  labelled l raises (active blocks to the right) + (block major index)
  by exactly l.

Both are bijections; composing them and the label-transport involution
``varphi`` yields the maps ``xi_map``, ``upsilon`` and ``theta_map``.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .core import (
    OrderedSetPartition,
    PartitionType,
    Permutation,
    Trace,
    from_d_code,
)

__all__ = [
    "LatticePath",
    "PathDiagram",
    "step_word",
    "phi",
    "phi_inv",
    "psi",
    "psi_inv",
    "insertion_labels",
    "trace_with_block",
    "varphi",
    "g_map",
    "diagram_permutation",
    "gamma_sigma",
    "xi_map",
    "upsilon",
    "upsilon_inv",
    "theta_map",
]

NORTH, EAST, SOUTH_EAST, NULL = "N", "E", "D", "O"
_STEP_CHARS = {NORTH, EAST, SOUTH_EAST, NULL}


@dataclass(frozen=True)
class LatticePath:
    """Step sequence of a path of depth k = #E + #D and length n = #steps."""

    steps: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        x = y = 0
        for i, step in enumerate(self.steps, start=1):
            if step not in _STEP_CHARS:
                raise ValueError(f"bad step {step!r} at position {i}")
            if step == NORTH:
                y += 1
            elif step == EAST:
                x += 1
            elif step == SOUTH_EAST:
                x += 1
                y -= 1
                if y < 0:
                    raise ValueError(f"path dips below the axis at step {i}")
            else:
                if y == 0:
                    raise ValueError(f"null step at height 0 (step {i})")
        if y != 0:
            raise ValueError("path does not return to height 0")

    @classmethod
    def parse(cls, text: str) -> LatticePath:
        return cls(tuple(text.strip().upper()))

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def k(self) -> int:
        return sum(1 for s in self.steps if s in (EAST, SOUTH_EAST))

    @cached_property
    def points(self) -> tuple[tuple[int, int], ...]:
        """The n+1 visited points, starting at (0, 0)."""
        pts = [(0, 0)]
        x = y = 0
        for step in self.steps:
            if step == NORTH:
                y += 1
            elif step == EAST:
                x += 1
            elif step == SOUTH_EAST:
                x += 1
                y -= 1
            pts.append((x, y))
        return tuple(pts)

    def x(self, i: int) -> int:
        """Abscissa of step i (coordinates of the step's starting point)."""
        return self.points[i - 1][0]

    def y(self, i: int) -> int:
        """Height of step i (ordinate of the step's starting point)."""
        return self.points[i - 1][1]

    def to_text(self) -> str:
        return "".join(self.steps)

    def __str__(self) -> str:
        return self.to_text()

    def to_json(self) -> dict:
        return {"steps": self.to_text()}

    def step_positions(self, kind: str) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.steps, start=1) if s == kind)

    def partition_type(self) -> PartitionType:
        """North steps play strict openers, South-East strict closers,
        East singletons and Null transients."""
        return PartitionType(
            frozenset(self.step_positions(NORTH)),
            frozenset(self.step_positions(SOUTH_EAST)),
            frozenset(self.step_positions(EAST)),
            frozenset(self.step_positions(NULL)),
        )

    @classmethod
    def from_type(cls, lam: PartitionType) -> LatticePath:
        kind_of = {}
        for i in lam.openers:
            kind_of[i] = NORTH
        for i in lam.closers:
            kind_of[i] = SOUTH_EAST
        for i in lam.singletons:
            kind_of[i] = EAST
        for i in lam.transients:
            kind_of[i] = NULL
        return cls(tuple(kind_of[i] for i in range(1, lam.n + 1)))

    def reverse(self) -> LatticePath:
        """Read the steps backwards, exchanging North and South-East."""
        swap = {NORTH: SOUTH_EAST, SOUTH_EAST: NORTH, EAST: EAST, NULL: NULL}
        return LatticePath(tuple(swap[s] for s in reversed(self.steps)))

    def associated_permutation(self) -> Permutation:
        """Pair the j-th North step, starting at height t, with the first
        later South-East step starting at height t+1."""
        norths = self.step_positions(NORTH)
        souths = self.step_positions(SOUTH_EAST)
        images = []
        for o in norths:
            t = self.y(o)
            for j, c in enumerate(souths, start=1):
                if c > o and self.y(c) == t + 1:
                    images.append(j)
                    break
            else:
                raise AssertionError("unbalanced path passed validation")
        return Permutation(tuple(images))


def step_word(pi: OrderedSetPartition) -> str:
    """The step letters of the path of pi's type, read off the blocks in one
    pass: N at strict openers, D at strict closers, E at singletons and O
    at transients.  Equal to ``LatticePath.from_type(pi.partition_type())``
    as text, without building or validating the type."""
    steps = [NULL] * pi.n
    for block in pi.blocks:
        if len(block) == 1:
            steps[block[0] - 1] = EAST
        else:
            steps[block[0] - 1] = NORTH
            steps[block[-1] - 1] = SOUTH_EAST
    return "".join(steps)


@dataclass(frozen=True)
class PathDiagram:
    """A path together with one label per step.  Null and South-East labels
    range over 0..height-1, North and East labels over 0..abscissa+height."""

    path: LatticePath
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.path.n:
            raise ValueError("one label per step required")
        x = y = 0  # the starting point of step i
        for i, (step, label) in enumerate(zip(self.path.steps, self.labels), start=1):
            if step in (NULL, SOUTH_EAST):
                bound = y - 1
            else:
                bound = x + y
            if not 0 <= label <= bound:
                raise ValueError(
                    f"label {label} at step {i} ({step}) outside 0..{bound}"
                )
            if step == NORTH:
                y += 1
            elif step == EAST:
                x += 1
            elif step == SOUTH_EAST:
                x += 1
                y -= 1

    @property
    def n(self) -> int:
        return self.path.n

    @property
    def k(self) -> int:
        return self.path.k

    @classmethod
    def parse(cls, text: str) -> PathDiagram:
        """Parse "NNNOOEDDED 0,0,2,1,2,3,2,0,1,0" (":" also separates)."""
        body = text.strip().replace(":", " ")
        parts = body.split()
        if len(parts) == 1:
            steps, label_part = parts[0], ""
        else:
            steps, label_part = parts[0], " ".join(parts[1:])
        labels = tuple(int(t) for t in label_part.replace(",", " ").split()) if label_part else ()
        return cls(LatticePath.parse(steps), labels)

    def to_text(self) -> str:
        return f"{self.path.to_text()} {','.join(str(v) for v in self.labels)}"

    def __str__(self) -> str:
        return self.to_text()

    def to_json(self) -> dict:
        return {"steps": self.path.to_text(), "labels": list(self.labels)}


# ---------------------------------------------------------------------------
# Shared trace-growing machinery
# ---------------------------------------------------------------------------

def _active_index_from_right(active: list[bool], m: int) -> int:
    """Index of the active block having exactly m active blocks to its right."""
    count = 0
    for idx in range(len(active) - 1, -1, -1):
        if active[idx]:
            if count == m:
                return idx
            count += 1
    raise ValueError(f"no active block with {m} active blocks to its right")


def _insertion_positions(blocks: list[list[int]], active: list[bool]) -> tuple[int, ...]:
    """Gap relabelling (a_0, ..., a_r) of the r+1 insertion positions.

    Position j sits left of block j+1 (position r is the right end); it is
    special when block j+1 is active or when blocks j and j+1 form a block
    descent.  a_0 is the right end, a_1 > ... > a_t the special positions,
    and the rest follow in increasing order.  Inserting a new block at
    position a_l raises rsb + bMaj by exactly l.
    """
    r = len(blocks)
    act = {j for j in range(r) if active[j]}
    desc = {
        j
        for j in range(1, r)
        if not active[j] and blocks[j - 1][0] > blocks[j][-1]
    }
    special = sorted(act | desc, reverse=True)
    rest = sorted(set(range(r)) - act - desc)
    return (r, *special, *rest)


def insertion_labels(t: Trace) -> tuple[int, ...]:
    """Public form of the gap relabelling, for an explicit trace."""
    return _insertion_positions([list(b) for b in t.blocks], list(t.active))


def trace_with_block(t: Trace, position: int, element: int, active: bool = False) -> Trace:
    """Insert a new block {element} (optionally active) at a gap position,
    0 = leftmost, k = rightmost."""
    if not 0 <= position <= t.k:
        raise ValueError(f"position {position} outside 0..{t.k}")
    blocks = list(t.blocks)
    flags = list(t.active)
    blocks.insert(position, (element,))
    flags.insert(position, active)
    return Trace(tuple(blocks), tuple(flags))


def _grow(builder_blocks, builder_active, step, label, i, by_gap_rank):
    """Extend a partial partition by one element.

    N/E create a block at a gap; O/D join the active block with ``label``
    active blocks to its right.  ``by_gap_rank`` chooses between plain
    right-to-left gap numbering (phi) and the descent-sensitive relabelling
    (psi) for the N/E case.
    """
    if step in (NORTH, EAST):
        if by_gap_rank:
            pos = len(builder_blocks) - label
        else:
            pos = _insertion_positions(builder_blocks, builder_active)[label]
        builder_blocks.insert(pos, [i])
        builder_active.insert(pos, step == NORTH)
    else:
        idx = _active_index_from_right(builder_active, label)
        builder_blocks[idx].append(i)
        if step == SOUTH_EAST:
            builder_active[idx] = False


def _run_encoding(h: PathDiagram, by_gap_rank: bool) -> OrderedSetPartition:
    blocks: list[list[int]] = []
    active: list[bool] = []
    for i, (step, label) in enumerate(zip(h.path.steps, h.labels), start=1):
        _grow(blocks, active, step, label, i, by_gap_rank)
    assert not any(active)
    return OrderedSetPartition.from_blocks(blocks, n=h.n)


def _read_labels(pi: OrderedSetPartition, by_gap_rank: bool) -> PathDiagram:
    """Inverse of ``_run_encoding``: grow the traces of pi and record, per
    element, the step and the label with which ``_grow`` puts it where pi
    has it.

    A new block goes to the gap left of the trace blocks that follow it in
    pi; its label is that gap's rank from the right (phi) or its index in
    ``_insertion_positions`` (psi).  Any other element's label is the number
    of active blocks right of its block.
    """
    blocks: list[list[int]] = []
    active: list[bool] = []
    order: list[int] = []  # pi's block index of each trace block, increasing
    steps, labels = [], []
    for i in range(1, pi.n + 1):
        b = pi.block_index[i]
        block = pi.blocks[b - 1]
        if i == block[0]:
            pos = bisect_left(order, b)
            if by_gap_rank:
                labels.append(len(blocks) - pos)
            else:
                labels.append(_insertion_positions(blocks, active).index(pos))
            steps.append(NORTH if len(block) > 1 else EAST)
            order.insert(pos, b)
            blocks.insert(pos, [i])
            active.insert(pos, len(block) > 1)
        else:
            idx = bisect_left(order, b)
            labels.append(sum(active[idx + 1:]))
            blocks[idx].append(i)
            if i == block[-1]:
                steps.append(SOUTH_EAST)
                active[idx] = False
            else:
                steps.append(NULL)
    return PathDiagram(LatticePath(tuple(steps)), tuple(labels))


# ---------------------------------------------------------------------------
# phi: right-to-left gap numbering
# ---------------------------------------------------------------------------

def phi(h: PathDiagram) -> OrderedSetPartition:
    """Decode a path diagram by numbering the gaps of the partial partition
    l, ..., 1, 0 from left to right and the active blocks likewise.

    The resulting partition has the same type as the path, and the labels
    record ros_i at openers/singletons and rsb_i elsewhere.
    """
    return _run_encoding(h, by_gap_rank=True)


def phi_inv(pi: OrderedSetPartition) -> PathDiagram:
    """Inverse of ``phi``: the path is read off the type; the labels are
    ros_i at openers/singletons and rsb_i elsewhere."""
    return _read_labels(pi, by_gap_rank=True)


# ---------------------------------------------------------------------------
# psi: descent-sensitive gap relabelling
# ---------------------------------------------------------------------------

def psi(h: PathDiagram) -> OrderedSetPartition:
    """Decode a path diagram inserting new blocks at the gap whose relabelled
    number equals the step label (see ``insertion_labels``)."""
    return _run_encoding(h, by_gap_rank=False)


def psi_inv(pi: OrderedSetPartition) -> PathDiagram:
    """Inverse of ``psi``: at the j-th opener/singleton the label is
    rsb_i plus the growth of the block major index since the previous
    opener/singleton; elsewhere it is rsb_i."""
    return _read_labels(pi, by_gap_rank=False)


# ---------------------------------------------------------------------------
# The label-transport involution and the relabelling maps
# ---------------------------------------------------------------------------

def _os_positions(path: LatticePath) -> tuple[int, ...]:
    return tuple(i for i, s in enumerate(path.steps, start=1) if s in (NORTH, EAST))


def varphi(h: PathDiagram) -> PathDiagram:
    """Involution on path diagrams over the path reversal.

    Opener/singleton labels are copied in order, transient labels are
    reversed, and South-East labels travel along the North/South-East
    pairing of the associated permutation.  Both label sums (over N/E and
    over O/D steps) are preserved.
    """
    w = h.path
    wb = w.reverse()
    gamma = h.labels
    sigma = w.associated_permutation()
    r = sigma.size

    os_w, os_wb = _os_positions(w), _os_positions(wb)
    t_w, t_wb = w.step_positions(NULL), wb.step_positions(NULL)
    c_w, c_wb = w.step_positions(SOUTH_EAST), wb.step_positions(SOUTH_EAST)

    xi = [0] * h.n
    for m, pos in enumerate(os_wb):
        xi[pos - 1] = gamma[os_w[m] - 1]
    u = len(t_w)
    for m, pos in enumerate(t_wb, start=1):
        xi[pos - 1] = gamma[t_w[u - m] - 1]
    for m, pos in enumerate(c_wb, start=1):
        xi[pos - 1] = gamma[c_w[sigma(r + 1 - m) - 1] - 1]
    return PathDiagram(wb, tuple(xi))


def diagram_permutation(h: PathDiagram) -> Permutation:
    """The permutation whose d-code is the opener/singleton label sequence.
    ``phi`` sends the diagram into that permutation's sigma-class."""
    return from_d_code(tuple(h.labels[i - 1] for i in _os_positions(h.path)))


def g_map(h: PathDiagram, sigma: Permutation) -> PathDiagram:
    """Overwrite the opener/singleton labels with the d-code of sigma,
    leaving all other labels alone.  Applying ``g_map`` with the diagram's
    own permutation undoes any such overwrite."""
    positions = _os_positions(h.path)
    if sigma.size != len(positions):
        raise ValueError(
            f"permutation size {sigma.size} != number of opener/singleton steps {len(positions)}"
        )
    d = sigma.d_code()
    labels = list(h.labels)
    for j, pos in enumerate(positions):
        labels[pos - 1] = d[j]
    return PathDiagram(h.path, tuple(labels))


def gamma_sigma(pi: OrderedSetPartition, sigma: Permutation) -> OrderedSetPartition:
    """Send a standard-form partition to the sigma-class partition with the
    same type, preserving (cls, opb, sb) and rsb over transients/closers."""
    if not pi.is_standard():
        raise ValueError("gamma_sigma expects a standard-form partition")
    return phi(g_map(phi_inv(pi), sigma))


# ---------------------------------------------------------------------------
# Composed bijections
# ---------------------------------------------------------------------------

def xi_map(pi: OrderedSetPartition) -> OrderedSetPartition:
    """Involution conjugating ``varphi`` through ``phi``; complements the
    type, preserves rsb over transients/closers and the class permutation's
    inversion number, and swaps the statistics cls and opb."""
    return phi(varphi(phi_inv(pi)))


def upsilon(pi: OrderedSetPartition) -> OrderedSetPartition:
    """Bijection carrying inversion-like statistics to major-like ones:
    MAJ(upsilon(pi)) = INV(pi), with the type and rsb_TC preserved."""
    return psi(phi_inv(pi))


def upsilon_inv(pi: OrderedSetPartition) -> OrderedSetPartition:
    return phi(psi_inv(pi))


def theta_map(pi: OrderedSetPartition) -> OrderedSetPartition:
    """Involution conjugating ``varphi`` through ``psi``; complements the
    type and preserves rsb_TC and MAJ."""
    return psi(varphi(psi_inv(pi)))
