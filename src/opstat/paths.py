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

The encoders and their inverses build objects that are valid by
construction, so they skip validation through the private ``_trusted``
constructors; the validating constructors are the tests' oracle.  The
inverses count labels off a state list (each of pi's blocks unseen, active
or complete), and the decoders take an O/D step's block from a
left-to-right list of the active blocks, replaying no trace.

The diagram ``varphi`` returns is validated.  ``varphi`` collects the labels
and the North/South-East pairing in one pass over the diagram and writes
the image in one pass over the reversed steps, and
``LatticePath.associated_permutation`` pairs the steps in one stack pass,
as brackets are matched.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    OrderedSetPartition,
    PartitionType,
    Permutation,
    Trace,
    _decimal,
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
_UNSEEN, _ACTIVE, _COMPLETE = 0, 1, 2  # the states of a block while a partition is read


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
    def _trusted(cls, steps: tuple[str, ...]) -> LatticePath:
        """Unchecked constructor for a step tuple known to be a valid path,
        e.g. the step word of a partition's type."""
        path = object.__new__(cls)
        object.__setattr__(path, "steps", steps)
        return path

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
        return LatticePath(_reversed_steps(self.steps))

    def associated_permutation(self) -> Permutation:
        """Pair the j-th North step, starting at height t, with the first
        later South-East step starting at height t+1.

        Read as brackets, that South-East step is the North step's match,
        so one stack pass pairs them all.
        """
        images: list[int] = []
        unmatched: list[int] = []  # indices into images of open North steps
        souths = 0
        for step in self.steps:
            if step == NORTH:
                unmatched.append(len(images))
                images.append(0)
            elif step == SOUTH_EAST:
                souths += 1
                images[unmatched.pop()] = souths
        return Permutation(tuple(images))


_REVERSED_STEP = {NORTH: SOUTH_EAST, SOUTH_EAST: NORTH, EAST: EAST, NULL: NULL}


def _reversed_steps(steps: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(_REVERSED_STEP[s] for s in reversed(steps))


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

    @classmethod
    def _trusted(cls, path: LatticePath, labels: tuple[int, ...]) -> PathDiagram:
        """Unchecked constructor for labels known to lie within their steps'
        bounds, e.g. those that ``phi_inv`` and ``psi_inv`` read off a
        partition."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "path", path)
        object.__setattr__(diagram, "labels", labels)
        return diagram

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
        if not parts:
            raise ValueError(f"no steps in diagram text: {text!r}")
        labels = tuple(_decimal(t) for t in " ".join(parts[1:]).replace(",", " ").split())
        return cls(LatticePath.parse(parts[0]), labels)

    def to_text(self) -> str:
        return f"{self.path.to_text()} {','.join(str(v) for v in self.labels)}"

    def __str__(self) -> str:
        return self.to_text()

    def to_json(self) -> dict:
        return {"steps": self.path.to_text(), "labels": list(self.labels)}


# ---------------------------------------------------------------------------
# Shared trace-growing machinery
# ---------------------------------------------------------------------------

def _insertion_positions(blocks: list[list[int]] | list[tuple[int, ...]], active: list[bool]) -> tuple[int, ...]:
    """Gap relabelling (a_0, ..., a_r) of the r+1 insertion positions.

    Position j sits left of block j+1 (position r is the right end); it is
    special when block j+1 is active or when blocks j and j+1 form a block
    descent.  a_0 is the right end, a_1 > ... > a_t the special positions,
    and the rest follow in increasing order.  Inserting a new block at
    position a_l raises rsb + bMaj by exactly l.
    """
    r = len(blocks)
    special = [r]  # the right end, then the special positions, decreasing
    rest = []
    for j in range(r):
        if active[j] or (j and blocks[j - 1][0] > blocks[j][-1]):
            special.insert(1, j)
        else:
            rest.append(j)
    return (*special, *rest)


def insertion_labels(t: Trace) -> tuple[int, ...]:
    """Public form of the gap relabelling, for an explicit trace."""
    return _insertion_positions(list(t.blocks), list(t.active))


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


def _run_encoding(h: PathDiagram, by_gap_rank: bool) -> OrderedSetPartition:
    """Decode h.  An N/E label names the gap of the new block: it counts the
    gaps right of it (phi) or indexes ``_insertion_positions`` (psi).  An O/D
    label l names ``open_blocks[-1 - l]``, the active block with l active
    blocks right of it."""
    blocks: list[list[int]] = []  # the trace, left to right
    active: list[bool] = []
    open_blocks: list[list[int]] = []  # the active blocks, left to right
    for i, (step, label) in enumerate(zip(h.path.steps, h.labels), start=1):
        if step == NORTH or step == EAST:
            pos = len(blocks) - label if by_gap_rank else _insertion_positions(blocks, active)[label]
            block = [i]
            if step == NORTH:
                open_blocks.insert(active[:pos].count(True), block)
            blocks.insert(pos, block)
            active.insert(pos, step == NORTH)
        else:
            block = open_blocks[-1 - label]
            block.append(i)
            if step == SOUTH_EAST:
                del open_blocks[-1 - label]
                active[blocks.index(block)] = False  # the blocks are disjoint
    assert not open_blocks
    # each block grew in increasing order and every element of [n] went
    # into one block, so the blocks are a sorted partition of [n]
    return OrderedSetPartition._trusted(h.n, tuple(map(tuple, blocks)))


def _read_labels(pi: OrderedSetPartition, by_gap_rank: bool) -> PathDiagram:
    """Inverse of ``_run_encoding``, on the steps ``step_word(pi)``.  With
    ``state`` holding each of pi's blocks unseen, active or complete, a label
    counts the blocks right of the element's block in pi that are created
    (phi, at an opener or singleton) or active (elsewhere).  psi's opener
    labels index ``_insertion_positions`` of the trace, held as pi's whole
    blocks: it reads each block's first element and the last of complete
    blocks only.  The labels lie within their steps' bounds, so the diagram
    is built unchecked.
    """
    word = step_word(pi)
    owner = [0] * pi.n  # pi's block index of each element
    for b, block in enumerate(pi.blocks):
        for el in block:
            owner[el - 1] = b
    state = [_UNSEEN] * pi.k
    trace: list[tuple[int, ...]] = []  # psi only
    active: list[bool] = []
    labels = []
    for step, b in zip(word, owner):
        if step == NORTH or step == EAST:
            if by_gap_rank:
                right = state[b + 1:]
                labels.append(len(right) - right.count(_UNSEEN))
            else:
                pos = b - state[:b].count(_UNSEEN)  # block b's position in the trace
                labels.append(_insertion_positions(trace, active).index(pos))
                trace.insert(pos, pi.blocks[b])
                active.insert(pos, step == NORTH)
            state[b] = _ACTIVE if step == NORTH else _COMPLETE
        else:
            labels.append(state[b + 1:].count(_ACTIVE))
            if step == SOUTH_EAST:
                if not by_gap_rank:
                    active[b - state[:b].count(_UNSEEN)] = False
                state[b] = _COMPLETE
    return PathDiagram._trusted(LatticePath._trusted(tuple(word)), tuple(labels))


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

    Read on the steps of h, the image reverses the order in which the N/E
    labels are read, leaves each transient label on its step and moves each
    South-East label onto its matching North step.  One pass over h
    collects the N/E labels and the pairing, and one pass over the reversed
    steps writes the image, which is validated.
    """
    steps = h.path.steps
    os_labels = []  # the labels of the N/E steps, in order
    moved = list(h.labels)  # each North step takes its South-East's label
    unmatched = []  # the open North steps
    for i, (step, label) in enumerate(zip(steps, h.labels)):
        if step == NORTH or step == EAST:
            os_labels.append(label)
            if step == NORTH:
                unmatched.append(i)
        elif step == SOUTH_EAST:
            moved[unmatched.pop()] = label
    # the reversed path reads h's South-East and East steps as its N/E steps
    os_iter = iter(os_labels)
    labels = tuple(
        next(os_iter) if step == SOUTH_EAST or step == EAST else moved[i]
        for i, step in zip(reversed(range(len(steps))), reversed(steps))
    )
    return PathDiagram(LatticePath(_reversed_steps(steps)), labels)


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
