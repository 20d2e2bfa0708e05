"""Lattice paths, labelled path diagrams and the bijections built on them.

A path of depth k and length n walks from (0,0) to (k,0) through North
(0,1), East (1,0), South-East (1,-1) and Null (0,0) steps, never dipping
below the x-axis; Null steps require positive height.  Serialized step
letters: N (North), E (East), D (South-East, "down"), O (Null, "loop").

A path diagram attaches an integer label to every step, bounded by the
step's coordinates: ``LatticePath.bounds``, from the one walk over the
steps that also checks the path and gives its points.  Two different slot
conventions turn diagrams into ordered set partitions:

* ``phi`` numbers the gaps between the blocks of the partial partition
  right-to-left and grows the partition by plain positional insertion;
* ``psi`` renumbers the gaps so that inserting a new block at the gap
  labelled l raises (active blocks to the right) + (block major index)
  by exactly l.

Both are bijections; composing them and the label-transport involution
``varphi`` yields the maps ``xi_map``, ``upsilon`` and ``theta_map``.

The encoders run on a stream of (step, label) pairs: ``_labels`` reads
``phi_inv``'s or ``psi_inv``'s pairs off a partition and ``_place`` places
any stream of pairs as ``phi`` or ``psi`` does.  The composed maps feed one
into the other, through ``varphi``'s ``_transport`` for xi and theta, and
build no path diagram.  Both hold their state, as ``families.beta`` does,
in two int masks, an active flag per block and a special flag per gap, kept
by two local rules (see "Shared trace-growing machinery"), so no block's
contents are read to place a block.  ``_gap`` is the one ordering of psi's
gaps.  What they build is valid by construction and goes through the
unchecked ``_trusted`` constructors; the validating ones are the tests'
oracle.  ``_transport`` checks each label it writes against its step's
bound: on a diagram's labels, all that ``PathDiagram`` would check.
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
    "varphi",
    "g_map",
    "diagram_permutation",
    "gamma_sigma",
    "xi_map",
    "upsilon",
    "theta_map",
]

NORTH, EAST, SOUTH_EAST, NULL = "N", "E", "D", "O"
_MOVES = {NORTH: (0, 1), EAST: (1, 0), SOUTH_EAST: (1, -1), NULL: (0, 0)}
# the step of each class of a ``PartitionType``, in ``as_tuple`` order
_TYPE_STEPS = (NORTH, SOUTH_EAST, EAST, NULL)


@dataclass(frozen=True)
class LatticePath:
    """Step sequence of a path of depth k = #E + #D and length n = #steps."""

    steps: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        self._walk  # refuses an invalid path

    @cached_property
    def _walk(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """``points`` and ``bounds``, from one pass that refuses a path that
        dips below the axis, takes a Null step at height 0 or ends off it."""
        points, bounds = [(0, 0)], []
        x = y = 0  # the starting point of step i
        for i, step in enumerate(self.steps, start=1):
            if step not in _MOVES:
                raise ValueError(f"bad step {step!r} at position {i}")
            if step == NORTH or step == EAST:
                bounds.append(x + y)
            elif y:
                bounds.append(y - 1)
            elif step == NULL:
                raise ValueError(f"null step at height 0 (step {i})")
            else:
                raise ValueError(f"path dips below the axis at step {i}")
            dx, dy = _MOVES[step]
            x += dx
            y += dy
            points.append((x, y))
        if y:
            raise ValueError("path does not return to height 0")
        return tuple(points), tuple(bounds)

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
        return self.points[-1][0]

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        """The n+1 visited points, starting at (0, 0)."""
        return self._walk[0]

    @property
    def bounds(self) -> tuple[int, ...]:
        """Each step's largest label: y - 1 on O/D steps and x + y on N/E
        steps, where (x, y) is the step's starting point."""
        return self._walk[1]

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
        return PartitionType(*(frozenset(self.step_positions(kind)) for kind in _TYPE_STEPS))

    @classmethod
    def from_type(cls, lam: PartitionType) -> LatticePath:
        kind_of = {}
        for kind, members in zip(_TYPE_STEPS, lam.as_tuple()):
            kind_of.update(dict.fromkeys(members, kind))
        return cls(tuple(kind_of[i] for i in range(1, lam.n + 1)))

    def reverse(self) -> LatticePath:
        """Read the steps backwards, exchanging North and South-East."""
        return LatticePath(tuple(_REVERSED_STEP[s] for s in reversed(self.steps)))

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


def _read_diagram(text: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The upper-cased steps and the labels of diagram text such as
    "NNNOOEDDED 0,0,2,1,2,3,2,0,1,0": the step letters end at a space or a
    ":", and spaces, commas and ":" separate the labels.  ``PathDiagram`` and
    ``motzkin.MotzkinDiagram`` parse their text with it."""
    parts = text.replace(":", " ").split()
    if not parts:
        raise ValueError(f"no steps in diagram text: {text!r}")
    return tuple(parts[0].upper()), tuple(_decimal(t) for t in " ".join(parts[1:]).replace(",", " ").split())


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
        for i, (step, label, bound) in enumerate(zip(self.path.steps, self.labels, self.path.bounds), start=1):
            if type(label) is not int:  # a float or a bool is not a label
                raise ValueError(f"a label must be an integer, got {label!r} at step {i}")
            if not 0 <= label <= bound:
                raise ValueError(f"label {label} at step {i} ({step}) outside 0..{bound}")

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
        """Parse "NNNOOEDDED 0,0,2,1,2,3,2,0,1,0" (see ``_read_diagram``)."""
        steps, labels = _read_diagram(text)
        return cls(LatticePath(steps), labels)

    def to_text(self) -> str:
        return f"{self.path.to_text()} {','.join(str(v) for v in self.labels)}"

    def __str__(self) -> str:
        return self.to_text()

    def to_json(self) -> dict:
        return {"steps": self.path.to_text(), "labels": list(self.labels)}


# ---------------------------------------------------------------------------
# Shared trace-growing machinery
# ---------------------------------------------------------------------------
#
# A trace is a partition cut to the elements placed so far; a block is
# active while elements of it are still to come.  The encoders hold a trace
# as two int masks: bit p of ``active`` is set when block p is active, and
# bit p of ``special`` when the gap left of block p is special, that is when
# block p is active or blocks p-1 and p form a block descent.  Two local
# rules keep the masks, so no block's contents are read to place a block:
#
# * insert at gap pos: the bits at pos and above move up by one; the block
#   right of the new one, if any, becomes special (it is active, or complete
#   with a closer below the new opener); the new block is active and special
#   exactly when it opens (an N step);
# * close a block (a D step): it loses its active and special bits, because
#   its closer exceeds its left neighbour's opener.
#
# A descent bit never changes once its pair forms: inserting between the two
# blocks removes the pair, and the contents of a complete block are final.
# ``_gap`` reads psi's gap off the special mask; phi's gap is counted from
# the right end, so phi never reads that mask, but both decoders and
# ``families.beta`` keep the masks by the two rules, indexed by trace
# position.  ``_labels`` indexes them by pi's blocks, whose created ones
# are the trace in pi's order, so there an insertion moves no bit.  These
# three are looked up on this module at each call, by ``families.beta`` too,
# so one plant reaches every user.

def _gap(special: int, r: int, label: int) -> int:
    """The gap position a_label of a trace with r blocks and the special
    gaps ``special``: a_0 = r is the right end, a_1 > ... > a_t are the t
    special gaps and the rest follow in increasing order.  Inserting a new
    block at a_l raises rsb + bMaj by exactly l."""
    if not label:
        return r
    t = special.bit_count()
    if label <= t:
        skip = t - label  # the special gaps left of a_label
    else:
        special ^= (1 << r) - 1  # the non-special gaps
        skip = label - 1 - t
    for _ in range(skip):
        special &= special - 1
    return (special & -special).bit_length() - 1


def _insert(active: int, special: int, r: int, pos: int, opens: bool) -> tuple[int, int]:
    """The masks after a new block enters a trace of r blocks at gap pos."""
    low = (1 << pos) - 1
    active = active & low | (active & ~low) << 1
    special = special & low | (special & ~low) << 1
    if pos < r:
        special |= 2 << pos
    if opens:
        return active | 1 << pos, special | 1 << pos
    return active, special


def _close(active: int, special: int, closed: int) -> tuple[int, int]:
    """The masks after the blocks of the mask ``closed`` close."""
    return active & ~closed, special & ~closed


def _place(pairs, n: int, by_gap_rank: bool) -> OrderedSetPartition:
    """Place the (step, label) pairs of a path diagram on [n], the i-th
    pair taking element i.  An N/E label names the gap of the new block: it
    counts the gaps right of it (phi) or is read by ``_gap`` (psi).  An O/D
    label l names the active block with l active blocks right of it."""
    blocks: list[list[int]] = []  # the trace, left to right
    active = special = 0  # over the trace's positions
    for i, (step, label) in enumerate(pairs, start=1):
        if step == NORTH or step == EAST:
            r = len(blocks)
            pos = r - label if by_gap_rank else _gap(special, r, label)
            active, special = _insert(active, special, r, pos, step == NORTH)
            blocks.insert(pos, [i])
        else:
            mask = active
            if label:  # label 0, the usual one, needs no range
                for _ in range(label):
                    mask &= (1 << mask.bit_length() - 1) - 1  # drop the rightmost active block
            pos = mask.bit_length() - 1
            blocks[pos].append(i)
            if step == SOUTH_EAST:
                active, special = _close(active, special, 1 << pos)
    assert not active
    # each block grew in increasing order and every element of [n] went
    # into one block, so the blocks are a sorted partition of [n]
    return OrderedSetPartition._trusted(n, tuple(map(tuple, blocks)))


def _labels(pi: OrderedSetPartition, by_gap_rank: bool):
    """The (step, label) pairs that ``_place`` turns back into pi, element
    by element.  The masks run over pi's block indices: the trace's blocks
    are the ``created`` ones, in pi's order.  At an opener or singleton of
    block b the label counts the created blocks right of b (phi), or is the
    rank of the gap left of c, the next created block right of b, in
    ``_gap``'s order (psi): 0 when there is no c, 1 + the special gaps right
    of c when c's gap is special, and 1 + t + the non-special gaps left of c
    otherwise.  Elsewhere it counts the active blocks right of b.  Each label
    lies within its step's bounds.
    """
    steps = [NULL] * pi.n  # step_word(pi), read in the pass that fills owner
    owner = [0] * pi.n  # 1 << b for each element of pi's block b
    for b, block in enumerate(pi.blocks):
        bit = 1 << b
        for el in block:
            owner[el - 1] = bit
        if len(block) == 1:
            steps[block[0] - 1] = EAST
        else:
            steps[block[0] - 1] = NORTH
            steps[block[-1] - 1] = SOUTH_EAST
    created = active = special = 0
    for step, bit in zip(steps, owner):
        if step == NORTH or step == EAST:
            right = created & -bit  # b itself is not created yet
            if by_gap_rank:
                yield step, right.bit_count()
            elif right:
                c = right & -right
                if special & c:
                    yield step, 1 + (special & -(c << 1)).bit_count()
                else:
                    yield step, 1 + special.bit_count() + (created & ~special & c - 1).bit_count()
                special |= c
            else:
                yield step, 0
            created |= bit
            if step == NORTH:
                active |= bit
                special |= bit
        else:
            yield step, (active & -bit).bit_count() - 1
            if step == SOUTH_EAST:
                active, special = _close(active, special, bit)


def _diagram(pairs) -> PathDiagram:
    """The diagram of pairs whose labels lie within their steps' bounds."""
    steps, labels = tuple(zip(*pairs)) or ((), ())  # no pairs: the empty diagram
    return PathDiagram._trusted(LatticePath._trusted(steps), labels)


# ---------------------------------------------------------------------------
# phi: right-to-left gap numbering
# ---------------------------------------------------------------------------

def phi(h: PathDiagram) -> OrderedSetPartition:
    """Decode a path diagram by numbering the gaps of the partial partition
    l, ..., 1, 0 from left to right and the active blocks likewise.

    The resulting partition has the same type as the path, and the labels
    record ros_i at openers/singletons and rsb_i elsewhere.
    """
    return _place(zip(h.path.steps, h.labels), h.n, by_gap_rank=True)


def phi_inv(pi: OrderedSetPartition) -> PathDiagram:
    """Inverse of ``phi``: the path is read off the type; the labels are
    ros_i at openers/singletons and rsb_i elsewhere."""
    return _diagram(_labels(pi, by_gap_rank=True))


# ---------------------------------------------------------------------------
# psi: descent-sensitive gap relabelling
# ---------------------------------------------------------------------------

def psi(h: PathDiagram) -> OrderedSetPartition:
    """Decode a path diagram inserting new blocks at the gap whose relabelled
    number equals the step label (see ``_gap``)."""
    return _place(zip(h.path.steps, h.labels), h.n, by_gap_rank=False)


def psi_inv(pi: OrderedSetPartition) -> PathDiagram:
    """Inverse of ``psi``: at the j-th opener/singleton the label is
    rsb_i plus the growth of the block major index since the previous
    opener/singleton; elsewhere it is rsb_i."""
    return _diagram(_labels(pi, by_gap_rank=False))


# ---------------------------------------------------------------------------
# The label-transport involution and the relabelling maps
# ---------------------------------------------------------------------------

def _os_positions(path: LatticePath) -> tuple[int, ...]:
    return tuple(i for i, s in enumerate(path.steps, start=1) if s in (NORTH, EAST))


def _transport(pairs: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """``varphi`` on the (step, label) pairs of a diagram, in order.

    Read on the input's steps, the image reverses the order of the N/E
    labels, leaves each transient label on its step and moves each
    South-East label onto its matching North step.  One pass collects the
    N/E labels and the pairing, and one pass over the reversed steps writes
    the image and checks each label against its step's bound.  No label
    fits a South-East or Null step at height 0, so this also keeps the path
    off the axis's underside and, as more North than South-East steps
    reverse into a path that ends below the axis, brings it back to 0.
    """
    os_labels = []  # the labels of the N/E steps, in order
    moved = [0] * len(pairs)  # each North step takes its South-East's label
    unmatched = []  # the open North steps
    for i, (step, label) in enumerate(pairs):
        if step == NORTH or step == EAST:
            os_labels.append(label)
            if step == NORTH:
                unmatched.append(i)
        elif step == SOUTH_EAST:
            moved[unmatched.pop()] = label
    os_labels.reverse()  # popped from the end, so taken in reading order
    image = []
    x = y = 0  # the starting point of the step written
    for i, (step, label) in zip(reversed(range(len(pairs))), reversed(pairs)):
        # the reversed path reads the South-East and East steps as its N/E steps
        if step == SOUTH_EAST:
            step, label, bound = NORTH, os_labels.pop(), x + y
            y += 1
        elif step == EAST:
            label, bound = os_labels.pop(), x + y
            x += 1
        elif step == NORTH:
            step, label, bound = SOUTH_EAST, moved[i], y - 1
            x += 1
            y -= 1
        else:
            bound = y - 1
        if not 0 <= label <= bound:
            raise ValueError(f"label {label} at step {len(image) + 1} ({step}) outside 0..{bound}")
        image.append((step, label))
    return image


def varphi(h: PathDiagram) -> PathDiagram:
    """Involution on path diagrams over the path reversal.

    Opener/singleton labels are copied in order, transient labels are
    reversed, and South-East labels travel along the North/South-East
    pairing of the associated permutation.  Both label sums (over N/E and
    over O/D steps) are preserved.  ``_transport`` checks the image.
    """
    return _diagram(_transport(list(zip(h.path.steps, h.labels))))


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
    return _place(_transport(list(_labels(pi, by_gap_rank=True))), pi.n, by_gap_rank=True)


def upsilon(pi: OrderedSetPartition) -> OrderedSetPartition:
    """``psi`` after ``phi_inv``, carrying inversion-like statistics to
    major-like ones: MAJ(upsilon(pi)) = INV(pi), type and rsb_TC kept."""
    return _place(_labels(pi, by_gap_rank=True), pi.n, by_gap_rank=False)


def theta_map(pi: OrderedSetPartition) -> OrderedSetPartition:
    """Involution conjugating ``varphi`` through ``psi``; complements the
    type and preserves rsb_TC and MAJ."""
    return _place(_transport(list(_labels(pi, by_gap_rank=False))), pi.n, by_gap_rank=False)
