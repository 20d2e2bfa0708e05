"""Motzkin-path encoding of unordered (standard-form) set partitions and the
label-transport involution built on it.

Each element draws one step: strict openers rise (U), strict closers fall
(D), singletons and transients stay flat (F).  The label of a step records
one plus the number of still-open blocks left of the element's block, which
is 1 + lsb_i; rising steps always carry label 1.  Heights count the open
blocks, so the labels are bounded by the step height (falling/flat-transient)
or height + 1 (flat-singleton).

The four maps are views of the path-diagram bijections of ``paths``.
Reversing the blocks of a standard form lands in the sigma-class of
w0 = k...1, where every block right of a new block already exists: each
North/East label of ``phi_inv`` is at its maximum x + y, and an O/D label
counts the open blocks left of the element's block in the standard form.
So a diagram of that class is a labelled Motzkin path (Flajolet, 1980),
``varphi`` keeps it in the class, and each map below is a composition over
``paths`` through ``_motzkin``/``_path_diagram``, the one conversion
between the two forms.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import OrderedSetPartition
from .paths import (
    EAST,
    NORTH,
    NULL,
    SOUTH_EAST,
    LatticePath,
    PathDiagram,
    _read_diagram,
    phi,
    phi_inv,
    varphi,
    xi_map,
)

__all__ = [
    "MotzkinDiagram",
    "motzkin_encode",
    "motzkin_decode",
    "motzkin_g",
    "lambda_map",
]

UP, FLAT, DOWN = "U", "F", "D"
_STEPS = {UP, FLAT, DOWN}


@dataclass(frozen=True)
class MotzkinDiagram:
    """A Motzkin path (steps U/F/D, heights >= 0, closed) with 1-based step
    labels: U steps carry 1, D steps 1..h, F steps 1..h+1, where h is the
    height at which the step starts."""

    steps: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.steps) != len(self.labels):
            raise ValueError("one label per step required")
        h = 0
        for i, (step, label) in enumerate(zip(self.steps, self.labels), start=1):
            if step not in _STEPS:
                raise ValueError(f"bad step {step!r} at position {i}")
            if step == UP:
                if label != 1:
                    raise ValueError(f"rising step {i} must carry label 1")
                h += 1
            elif step == DOWN:
                if not 1 <= label <= h:
                    raise ValueError(f"label {label} at falling step {i} outside 1..{h}")
                h -= 1
            else:
                if not 1 <= label <= h + 1:
                    raise ValueError(f"label {label} at flat step {i} outside 1..{h + 1}")
        if h != 0:
            raise ValueError("path does not return to height 0")

    @property
    def n(self) -> int:
        return len(self.steps)

    def to_text(self) -> str:
        return f"{''.join(self.steps)} {','.join(str(v) for v in self.labels)}"

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def parse(cls, text: str) -> MotzkinDiagram:
        return cls(*_read_diagram(text))

    def to_json(self) -> dict:
        return {"steps": "".join(self.steps), "labels": list(self.labels)}


def _motzkin(h: PathDiagram) -> MotzkinDiagram:
    """Read a diagram of the w0-class as a Motzkin path: N -> U (label 1),
    E -> F (label height + 1), and O -> F, D -> D with the label raised by 1."""
    steps = []
    labels = []
    height = 0
    for step, label in zip(h.path.steps, h.labels):
        if step == NORTH:
            steps.append(UP)
            labels.append(1)
            height += 1
        elif step == EAST:
            steps.append(FLAT)
            labels.append(height + 1)
        else:
            steps.append(DOWN if step == SOUTH_EAST else FLAT)
            labels.append(label + 1)
            height -= step == SOUTH_EAST
    return MotzkinDiagram(tuple(steps), tuple(labels))


def _path_diagram(d: MotzkinDiagram) -> PathDiagram:
    """Inverse of ``_motzkin``: a flat label of height + 1 is a singleton (E),
    and each N/E step takes its maximum label x + y, the number of N/E steps
    before it."""
    steps = []
    labels = []
    height = created = 0
    for step, label in zip(d.steps, d.labels):
        if step == UP or (step == FLAT and label == height + 1):
            steps.append(NORTH if step == UP else EAST)
            labels.append(created)
            created += 1
            height += step == UP
        else:
            steps.append(SOUTH_EAST if step == DOWN else NULL)
            labels.append(label - 1)
            height -= step == DOWN
    return PathDiagram(LatticePath(tuple(steps)), tuple(labels))


def _rev(pi: OrderedSetPartition, caller: str) -> OrderedSetPartition:
    """``pi``'s blocks reversed; a refusal names the map ``caller``."""
    if not pi.is_standard():
        raise ValueError(f"{caller} expects a standard-form partition")
    return OrderedSetPartition._trusted(pi.n, pi.blocks[::-1])


def motzkin_encode(pi: OrderedSetPartition) -> MotzkinDiagram:
    """Encode a standard-form partition as a labelled Motzkin path:
    ``phi_inv`` of the reversed blocks."""
    return _motzkin(phi_inv(_rev(pi, "motzkin_encode")))


def motzkin_decode(d: MotzkinDiagram) -> OrderedSetPartition:
    """Inverse of ``motzkin_encode``: the standard form of ``phi``."""
    return phi(_path_diagram(d)).standard_form()[0]


def motzkin_g(d: MotzkinDiagram) -> MotzkinDiagram:
    """Reverse the path and transport the labels: ``varphi`` read on Motzkin
    paths.  Flat labels travel with their step, and each falling step's
    label moves onto the reversed copy of its matching rising step.
    Applying the map twice restores the diagram."""
    return _motzkin(varphi(_path_diagram(d)))


def lambda_map(pi: OrderedSetPartition) -> OrderedSetPartition:
    """Involution on standard-form partitions exchanging the statistics mak
    (= ros + lcs) and rcb while preserving lcb and the block count: the
    standard form of ``xi_map`` of the reversed blocks."""
    return xi_map(_rev(pi, "lambda_map")).standard_form()[0]
