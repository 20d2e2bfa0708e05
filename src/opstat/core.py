"""Fundamental combinatorial objects: ordered set partitions, partition
types, permutations with their two codes, and words.

Elements are 1-based throughout: the ground set of size n is {1, ..., n}.
Block positions inside a partition are 1-based as well.  All values are
immutable after construction and every operation is a pure function.

The public constructors validate: ``Permutation(...)``,
``OrderedSetPartition(...)``, ``from_blocks`` and ``parse`` reject anything
that is not a permutation or a partition of [n] into sorted blocks, each a
tuple or a list, and any size, image or element not of type ``int``.  The
private ``_trusted`` constructors skip that check and are only called on
values that are valid by construction: ``rearranged`` and ``standard_form``
reorder the blocks of a validated partition (and ``standard_form`` ranks
them into a permutation), the generators in ``families`` reorder such
blocks or build sorted blocks of [n] themselves, and ``families.beta``
reorders the validated blocks of its standard form.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

__all__ = [
    "Permutation",
    "OrderedSetPartition",
    "PartitionType",
    "from_d_code",
    "inversion_number",
    "major_index",
    "doubleton_partition",
    "decompose_doubleton",
]

def _decimal(token: str) -> int:
    """The value of a token of ASCII digits.  ``int`` alone would also take
    a sign, '_' between digits and the digits of other scripts."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """A bijection on {1, ..., k}, stored in one-line notation.

    >>> Permutation((5, 4, 1, 3, 2)).inversion_number()
    8
    """

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        for image in self.images:
            if type(image) is not int:  # a float or a bool is not an image
                raise ValueError(f"an image must be an integer, got {image!r}")
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """Unchecked constructor for a tuple known to be a permutation."""
        sigma = object.__new__(cls)
        object.__setattr__(sigma, "images", images)
        return sigma

    @property
    def size(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, k: int) -> Permutation:
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def parse(cls, text: str) -> Permutation:
        """Parse "5 4 1 3 2" (separated) or "54132" (compact, single digits)."""
        text = text.strip()
        if re.search(r"[\s,]", text):
            return cls(tuple(_decimal(tok) for tok in re.split(r"[\s,]+", text) if tok))
        return cls(tuple(_decimal(ch) for ch in text))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def one_line(self) -> str:
        return " ".join(str(v) for v in self.images)

    def __str__(self) -> str:
        return self.one_line()

    def inverse(self) -> Permutation:
        inv = [0] * self.size
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def descent_set(self) -> set[int]:
        """Positions i with images[i] > images[i+1] (1-based)."""
        return {i for i in range(1, self.size) if self.images[i - 1] > self.images[i]}

    def inversion_number(self) -> int:
        return inversion_number(self.images)

    def major_index(self) -> int:
        return sum(self.descent_set())

    def lehmer_code(self) -> tuple[int, ...]:
        """c_i = number of j > i with images[j] < images[i]; sums to inv."""
        w = self.images
        return tuple(
            sum(1 for j in range(i + 1, self.size) if w[j] < w[i]) for i in range(self.size)
        )

    def d_code(self) -> tuple[int, ...]:
        """d_i = number of entries smaller than i to the right of i's position.

        The d-code permutes the Lehmer code: d_i = c at position inverse(i),
        and satisfies 0 <= d_i <= i - 1.
        """
        code = self.lehmer_code()
        inv = self.inverse()
        return tuple(code[inv(i) - 1] for i in range(1, self.size + 1))

    def to_json(self) -> dict:
        return {"images": list(self.images)}


def from_d_code(code: Sequence[int]) -> Permutation:
    """Inverse of ``Permutation.d_code``: insert values 1..k so that value i
    has exactly d_i smaller values to its right."""
    word: list[int] = []
    for i, d in enumerate(code, start=1):
        if not 0 <= d <= i - 1:
            raise ValueError(f"d-code entry {d} at position {i} out of range 0..{i - 1}")
        word.insert(len(word) - d, i)
    return Permutation(tuple(word))


# ---------------------------------------------------------------------------
# Word statistics
# ---------------------------------------------------------------------------

def inversion_number(word: Sequence[int]) -> int:
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


def major_index(word: Sequence[int]) -> int:
    return sum(i for i in range(1, len(word)) if word[i - 1] > word[i])


# ---------------------------------------------------------------------------
# Partition types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionType:
    """The 4-way classification of the letters of a partition of [n]:
    strict openers, strict closers, singletons and transients."""

    openers: frozenset[int]
    closers: frozenset[int]
    singletons: frozenset[int]
    transients: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "openers", frozenset(self.openers))
        object.__setattr__(self, "closers", frozenset(self.closers))
        object.__setattr__(self, "singletons", frozenset(self.singletons))
        object.__setattr__(self, "transients", frozenset(self.transients))
        total = len(self.openers) + len(self.closers) + len(self.singletons) + len(self.transients)
        union = self.openers | self.closers | self.singletons | self.transients
        if len(union) != total:
            raise ValueError("type classes are not pairwise disjoint")
        if union != frozenset(range(1, total + 1)):
            raise ValueError("type classes do not cover 1..n")
        if len(self.openers) != len(self.closers):
            raise ValueError("strict openers and strict closers differ in number")

    @property
    def n(self) -> int:
        return (
            len(self.openers) + len(self.closers) + len(self.singletons) + len(self.transients)
        )

    @property
    def k(self) -> int:
        """Number of blocks of any partition with this type."""
        return len(self.openers) + len(self.singletons)

    def complement(self) -> PartitionType:
        """Replace every element i by n+1-i and swap the opener/closer roles."""
        n = self.n
        flip = lambda s: frozenset(n + 1 - i for i in s)
        return PartitionType(flip(self.closers), flip(self.openers),
                             flip(self.singletons), flip(self.transients))

    def as_tuple(self) -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]:
        return (self.openers, self.closers, self.singletons, self.transients)

    def to_json(self) -> dict:
        return {
            "openers": sorted(self.openers),
            "closers": sorted(self.closers),
            "singletons": sorted(self.singletons),
            "transients": sorted(self.transients),
        }

    def __str__(self) -> str:
        fmt = lambda s: "{" + ",".join(str(i) for i in sorted(s)) + "}"
        return f"({fmt(self.openers)},{fmt(self.closers)},{fmt(self.singletons)},{fmt(self.transients)})"


# ---------------------------------------------------------------------------
# Ordered set partitions
# ---------------------------------------------------------------------------

_BLOCK_SPLIT = re.compile(r"[\s,]+")


def _element(el: object) -> int:
    """``el``, refused before it is compared unless it is an ``int``."""
    if type(el) is not int:  # a float or a bool is not an element
        raise ValueError(f"an element must be an integer, got {el!r}")
    return el


def _sequence(value: object, what: str) -> tuple:
    """``value`` as a tuple, refused unless it is a tuple or a list."""
    if not isinstance(value, (tuple, list)):
        raise ValueError(f"{what} must be a tuple or a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class OrderedSetPartition:
    """A sequence of disjoint nonempty blocks whose union is {1, ..., n}.

    Blocks store their elements sorted increasingly; the order *of* the
    blocks is significant.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.n) is not int:  # a float or a bool is not a size
            raise ValueError(f"n must be an integer, got {self.n!r}")
        object.__setattr__(self, "blocks", tuple(_sequence(b, "a block") for b in _sequence(self.blocks, "blocks")))
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block, key=_element):
                raise ValueError(f"block not sorted: {block}")
            for el in block:
                if not 1 <= el <= self.n:
                    raise ValueError(f"element {el} outside 1..{self.n}")
                if el in seen:
                    raise ValueError(f"duplicate element {el}")
                seen.add(el)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"elements missing from partition: {missing}")

    @classmethod
    def _trusted(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> OrderedSetPartition:
        """Unchecked constructor for blocks known to be sorted, nonempty and
        to partition [n], e.g. the blocks of a validated partition in
        another order."""
        pi = object.__new__(cls)
        object.__setattr__(pi, "n", n)
        object.__setattr__(pi, "blocks", blocks)
        return pi

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int | None = None) -> OrderedSetPartition:
        normalized = tuple(tuple(sorted(_sequence(b, "a block"), key=_element)) for b in blocks)
        if n is None:
            n = max((el for b in normalized for el in b), default=0)
        return cls(n, normalized)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> OrderedSetPartition:
        """Parse the canonical slash form, e.g. "6 8/5/1 4 7/3 9/2".

        Braces and commas are tolerated on input: "{6,8},{5}" parses the same.
        """
        cleaned = text.strip()
        if "{" in cleaned or "}" in cleaned:
            parts = re.findall(r"\{([^{}]*)\}", cleaned)
            leftover = re.sub(r"\{[^{}]*\}", "", cleaned).strip(" ,/")
            if leftover or not parts:
                raise ValueError(f"malformed braced partition text: {text!r}")
        else:
            parts = cleaned.split("/")
        if not cleaned:
            raise ValueError(f"no blocks in partition text: {text!r}")
        blocks = []
        for part in parts:
            toks = [t for t in _BLOCK_SPLIT.split(part.strip()) if t]
            if not toks:
                raise ValueError("empty block")
            blocks.append([_decimal(t) for t in toks])
        return cls.from_blocks(blocks, n=n)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def to_text(self) -> str:
        return "/".join(" ".join(str(el) for el in block) for block in self.blocks)

    def __str__(self) -> str:
        return self.to_text()

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @cached_property
    def block_index(self) -> dict[int, int]:
        """Element -> 1-based position of its block."""
        return {el: j for j, block in enumerate(self.blocks, start=1) for el in block}

    def partition_type(self) -> PartitionType:
        openers, closers, singles, trans = set(), set(), set(), set()
        for block in self.blocks:
            if len(block) == 1:
                singles.add(block[0])
            else:
                openers.add(block[0])
                closers.add(block[-1])
                trans.update(block[1:-1])
        return PartitionType(frozenset(openers), frozenset(closers),
                             frozenset(singles), frozenset(trans))

    def is_standard(self) -> bool:
        mins = [b[0] for b in self.blocks]
        return mins == sorted(mins)

    def standard_form(self) -> tuple[OrderedSetPartition, Permutation]:
        """Sort the blocks, which sorts them by minima, as disjoint blocks
        differ there; also return the permutation sigma with
        self = B_{sigma(1)}/.../B_{sigma(k)} in terms of the sorted blocks."""
        sorted_blocks = tuple(sorted(self.blocks))
        rank = {block: m for m, block in enumerate(sorted_blocks, start=1)}
        sigma = Permutation._trusted(tuple(map(rank.__getitem__, self.blocks)))
        return OrderedSetPartition._trusted(self.n, sorted_blocks), sigma

    def rearranged(self, sigma: Permutation) -> OrderedSetPartition:
        """Block sequence B_{sigma(1)}, ..., B_{sigma(k)}."""
        if sigma.size != self.k:
            raise ValueError(f"permutation size {sigma.size} != block count {self.k}")
        blocks = self.blocks
        return OrderedSetPartition._trusted(self.n, tuple(blocks[m - 1] for m in sigma.images))


# ---------------------------------------------------------------------------
# Doubleton partitions built from a composition
# ---------------------------------------------------------------------------

def doubleton_partition(parts: Sequence[int]) -> OrderedSetPartition:
    """The standard-form partition of [2(n_1+...+n_k)] whose blocks are the
    doubletons {2N_{i-1}+j, 2N_{i-1}+n_i+j} for 1 <= i <= k, 1 <= j <= n_i.

    Zero parts are allowed and contribute nothing.
    """
    if any(p < 0 for p in parts):
        raise ValueError("composition parts must be nonnegative")
    blocks: list[tuple[int, int]] = []
    offset = 0  # 2 * (n_1 + ... + n_{i-1})
    for size in parts:
        for j in range(1, size + 1):
            blocks.append((offset + j, offset + size + j))
        offset += 2 * size
    return OrderedSetPartition(offset, tuple(blocks))


def _classify_doubleton(block: tuple[int, ...], parts: Sequence[int]) -> int:
    """Letter class i of a doubleton block of ``doubleton_partition(parts)``."""
    offset = 0
    for i, size in enumerate(parts, start=1):
        if offset < block[0] <= offset + size:
            if len(block) == 2 and block[1] == block[0] + size:
                return i
            break
        offset += 2 * size
    raise ValueError(f"block {block} is not a doubleton of the composition {tuple(parts)}")


def decompose_doubleton(
    pi: OrderedSetPartition, parts: Sequence[int]
) -> tuple[tuple[int, ...], tuple[OrderedSetPartition, ...]]:
    """Split a rearrangement of ``doubleton_partition(parts)`` into the word
    of letter classes and the per-class partitions.

    Each class-i partition is relabelled order-preservingly onto its own
    ground set [2*n_i], so it is a rearrangement of ``doubleton_partition((n_i,))``.
    The relabelling changes no order-based statistic.
    """
    letters = tuple(_classify_doubleton(block, parts) for block in pi.blocks)
    counts = [0] * (len(parts) + 1)
    for c in letters:
        counts[c] += 1
    for i, size in enumerate(parts, start=1):
        if counts[i] != size:
            raise ValueError("not a rearrangement of the doubleton partition")
    offset = 0
    components = []
    for i, size in enumerate(parts, start=1):
        blocks = [
            tuple(el - offset for el in block)
            for letter, block in zip(letters, pi.blocks)
            if letter == i
        ]
        components.append(OrderedSetPartition(2 * size, tuple(blocks)) if size else
                          OrderedSetPartition(0, ()))
        offset += 2 * size
    return letters, tuple(components)
