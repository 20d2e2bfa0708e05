"""Exact sparse Laurent polynomials in the four variables p, q, t, x, the
classical q-analogues, and the Stirling/Eulerian recursions needed by the
distribution identities.

Coefficients are arbitrary-precision integers and exponents may be negative;
all arithmetic is exact.  Polynomials are immutable and hashable; a
constant equals, and hashes as, its coefficient.

A product of two polynomials is one dict update per pair of terms
(``_schoolbook_mul``).

``pq_factorial`` and ``s_hat_pq`` are read off ``q_factorial`` and
``stirling_q`` at q/p, and cached alike.  The other five closed-form
recursions fill on one packed layout, ``_Layout``: there a monomial factor
is a shift, [k]_q and [k]_{p,q} are k shifts and a sum is an integer
addition.  A missing cell is filled without recursion (``_fill``): every
missing cell it reaches is computed a row at a time, keeping as integers
only the cells of the row below still to be read, and unpacked once into
the dict of cells that the recursion owns; ``fill`` does the same for a
whole table in one pass.
The slot width is set once per fill from the largest value at p = q = 1,
which bounds every coefficient since none is negative.  ``verify_zezh``
builds both of its sides as integers on one layout, decides equality on the
integers, and unpacks them for the report.  ``tests/qpoly_reference.py``
keeps the recursions in polynomial arithmetic, as the reference.

A polynomial is written from its terms in descending order of exponent
vectors; one read off a layout holds them in ascending order, so they are
reversed, not sorted.  ``to_text`` writes each term with factor strings made
once per variable and exponent, and ``to_json_text`` writes
``json.dumps(to_json())`` a term at a time.  The reference writers,
term by term from sorted terms, are in ``tests/qpoly_reference.py``.
"""
from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial, wraps
from itertools import compress, product, repeat
from math import comb, prod
from operator import add, eq, lshift, mul, or_, sub
from typing import Callable, Iterable, Mapping, Sequence, Union

__all__ = [
    "LaurentPolynomial",
    "TruncatedSeries",
    "ZERO",
    "ONE",
    "P",
    "Q",
    "T",
    "X",
    "q_int",
    "pq_int",
    "q_factorial",
    "pq_factorial",
    "gauss_binomial",
    "pochhammer",
    "stirling_pq",
    "stirling_q",
    "stirling_tilde",
    "s_hat_pq",
    "s_hat_closed_form",
    "carlitz_aq",
    "subs_q_to_q_over_p",
    "verify_zezh",
    "verify_q_frobenius",
    "distribution",
]

VARS = ("p", "q", "t", "x")
Exponents = tuple[int, int, int, int]


def _var_index(name: str) -> int:
    """The exponent slot of variable ``name``."""
    if name not in VARS:
        raise ValueError(f"unknown variable {name!r}; the variables are {', '.join(VARS)}")
    return VARS.index(name)


class LaurentPolynomial:
    """Integer-coefficient polynomial in p, q, t, x with integer (possibly
    negative) exponents, stored sparsely as {exponent vector: coefficient}."""

    __slots__ = ("_terms", "_hash", "_span")

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        data: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != 4 or not all(type(e) is int for e in exps):
                    raise ValueError(f"exponent vector must be 4 integers (p, q, t, x), got {exps!r}")
                if type(coeff) is not int:
                    raise ValueError(f"a coefficient must be an integer, got {coeff!r}")
                if coeff:
                    data[exps] = data.get(exps, 0) + coeff
        object.__setattr__(self, "_terms", {e: c for e, c in data.items() if c})
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_span", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("LaurentPolynomial is immutable")

    def __reduce__(self):  # __slots__ + frozen setattr need explicit pickling
        return (LaurentPolynomial, (self._terms,))

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> LaurentPolynomial:
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def monomial(cls, coeff: int, ep: int = 0, eq: int = 0, et: int = 0, ex: int = 0) -> LaurentPolynomial:
        return cls({(ep, eq, et, ex): coeff})

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> LaurentPolynomial:
        exps = [0, 0, 0, 0]
        exps[_var_index(name)] = exp
        return cls({tuple(exps): 1})

    # -- basic protocol -----------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.constant(int(other))  # a bool as its int, as 1 == True
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self is other or self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            terms = self._terms
            # a constant equals its coefficient, so hashes as it (zero as 0)
            h = hash(terms.get((0, 0, 0, 0), 0)) if terms.keys() <= {(0, 0, 0, 0)} else hash(frozenset(terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def _coerce(value) -> LaurentPolynomial:
        if isinstance(value, LaurentPolynomial):
            return value
        if isinstance(value, int):
            return LaurentPolynomial.constant(int(value))
        raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> LaurentPolynomial:
        other = self._coerce(other)
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self) -> LaurentPolynomial:
        return _poly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> LaurentPolynomial:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> LaurentPolynomial:
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> LaurentPolynomial:
        return _poly(_schoolbook_mul(self._terms, self._coerce(other)._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPolynomial:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries and transforms ----------------------------------------------

    def truncate(self, var: str, order: int) -> LaurentPolynomial:
        """Drop all terms with exponent of ``var`` above ``order``."""
        idx = _var_index(var)
        return LaurentPolynomial({e: c for e, c in self._terms.items() if e[idx] <= order})

    def map_exponents(self, fn: Callable[[Exponents], Exponents]) -> LaurentPolynomial:
        terms: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            key = fn(exps)
            terms[key] = terms.get(key, 0) + coeff
        return LaurentPolynomial(terms)

    def evaluate(self, p: int = 1, q: int = 1, t: int = 1, x: int = 1) -> int:
        """Exact integer evaluation; a negative exponent requires its value
        to be 1 or -1."""
        values = (p, q, t, x)
        total = 0
        for exps, coeff in self._terms.items():
            prod = coeff
            for value, exp in zip(values, exps):
                if exp < 0 and value not in (1, -1):
                    raise ValueError("negative exponent at a non-unit value")
                prod *= value ** exp if exp >= 0 else value ** (-exp)
            total += prod
        return total

    # -- rendering ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Terms in descending lexicographic order of exponent vectors."""
        if self._span is not None:  # read off a layout, so in ascending order
            return list(reversed(self._terms.items()))
        return sorted(self._terms.items(), reverse=True)  # exponent vectors are unique

    def to_text(self) -> str:
        """The terms in :meth:`sorted_terms` order, as in ``3*p^2*q - q + 1``:
        a coefficient other than 1 and -1, or a constant, written before the
        monomial's factors, and a term's sign as its separator, the first
        term's only when negative."""
        if not self._terms:
            return "0"
        fp, fq, ft, fx = _FACTORS
        text = " + ".join([f"{coeff}{fp[a]}{fq[b]}{ft[c]}{fx[d]}" for (a, b, c, d), coeff in self.sorted_terms()])
        # " 1*p^2 + -1*q + 3" -> " p^2 - q + 3": a negative coefficient's sign
        # moves into its separator, and a unit coefficient before a factor goes
        return (" " + text).replace("+ -", "- ").replace(" 1*", " ").replace(" -1*", " -")[1:]

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_text()!r})"

    def to_json(self) -> list[list[int]]:
        return [[coeff, *exps] for exps, coeff in self.sorted_terms()]

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json())``, written term by term."""
        terms = [f"[{coeff}, {a}, {b}, {c}, {d}]" for (a, b, c, d), coeff in self.sorted_terms()]
        return f"[{', '.join(terms)}]"


class _Factors(dict):
    """The factor ``*v^e`` of one variable v by exponent e, made on first
    use: empty at e = 0 and ``*v`` at e = 1."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def __missing__(self, exp: int) -> str:
        text = self[exp] = "" if exp == 0 else f"*{self.name}" if exp == 1 else f"*{self.name}^{exp}"
        return text


_FACTORS = tuple(map(_Factors, VARS))


def _poly(terms: dict[Exponents, int], span: tuple | None = None) -> LaurentPolynomial:
    """A polynomial on ``terms`` as they are: well-formed exponent vectors
    and no zero coefficient.  ``span`` is what :func:`_span` would find, when
    it is known; only a polynomial read off a layout knows it, and its terms
    are in ascending order of exponent vectors, which :meth:`sorted_terms`
    relies on."""
    out = LaurentPolynomial.__new__(LaurentPolynomial)
    object.__setattr__(out, "_terms", terms)
    object.__setattr__(out, "_hash", None)
    object.__setattr__(out, "_span", span)
    return out


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

Terms = dict[Exponents, int]


def _schoolbook_mul(a_terms: Terms, b_terms: Terms) -> Terms:
    """The product, by one dict update per pair of terms."""
    terms: Terms = {}
    for e1, c1 in a_terms.items():
        for e2, c2 in b_terms.items():
            exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            new = terms.get(exps, 0) + c1 * c2
            if new:
                terms[exps] = new
            else:
                del terms[exps]
    return terms


# ---------------------------------------------------------------------------
# Packed layout (Kronecker substitution)
# ---------------------------------------------------------------------------

# unsigned machine integers by size in bytes
_CODES = {array(code).itemsize: code for code in "BHIQ"}
_WORD = 8  # bytes per word of a slot wider than a machine integer, read as "Q"
assert array("Q").itemsize == _WORD


def _slot_width(bound: int) -> int:
    """Bytes per slot for coefficients from 0 to ``bound``: a machine
    integer's size where one is that wide, else whole 8-byte words, so that
    every slot converts at C speed."""
    need = (bound.bit_length() + 7) // 8
    return next((size for size in sorted(_CODES) if size >= need), -(-need // _WORD) * _WORD)


def _little_endian(slots: array) -> array:
    """Swap ``slots`` between machine and little-endian byte order (the
    same swap either way)."""
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


class _Layout:
    """Polynomials with no negative coefficient over an exponent box as
    integers (Kronecker substitution; Harvey 2009): the coefficient of the
    exponent vector e sits in a ``width``-byte slot at the mixed-radix
    index, under the box's sizes, of e minus an origin (the box's least
    vector unless another is given), the last variable varying fastest.  A product of polynomials is
    then a product of integers, a monomial factor a shift by
    :meth:`offset` and a sum an addition, while every coefficient met stays
    within ``bound`` and no exponent strays from its origin by as much as
    the box's size.  The width is the least that holds the bound (see
    :func:`_slot_width`).  A slot refuses a negative coefficient when it is
    written."""

    __slots__ = ("box", "strides", "width")

    def __init__(self, box: Sequence[range], bound: int):
        self.box = tuple(box)
        sizes = list(map(len, self.box))
        if len(sizes) != len(VARS) or not all(sizes):
            raise ValueError(f"an exponent box needs one nonempty range per variable, got {box!r}")
        self.strides = (sizes[1] * sizes[2] * sizes[3], sizes[2] * sizes[3], sizes[3], 1)
        self.width = _slot_width(bound)

    def offset(self, exps: Sequence[int]) -> int:
        """The shift, in bits, that multiplies by the monomial ``exps``."""
        return 8 * self.width * sum(map(mul, exps, self.strides))

    def write(self, terms: Terms, origin: Sequence[int], columns: Sequence[Sequence[int]] | None) -> int:
        """``terms`` packed with exponent vector ``origin`` in slot 0.
        ``columns`` are the exponents by variable, as ``zip(*terms)`` gives
        them, or None when the terms fill the box from ``origin`` to their
        last exponent vector in order (see :func:`_span`)."""
        values = terms.values()
        if columns is None:  # the terms fill the box from origin to their last vector, in order
            spread = [v for v, (a, b) in enumerate(zip(origin, next(reversed(terms)))) if a != b]
            if len(spread) > 1 or spread and self.strides[spread[0]] != 1:
                columns = list(zip(*terms))
        if columns is not None:
            index, base = None, 0
            for column, o, stride, r in zip(columns, origin, self.strides, self.box):
                if len(r) > 1:  # a variable the box does not span adds nothing
                    term = column if stride == 1 else map(mul, column, repeat(stride))
                    index, base = term if index is None else map(add, index, term), base + o * stride
            index = [0] * len(terms) if index is None else list(map(sub, index, repeat(base)))
            values = [0] * (max(index) + 1)
            deque(map(values.__setitem__, index, terms.values()), 0)
        code = _CODES.get(self.width)
        if code:
            data = _little_endian(array(code, values)).tobytes()
        else:  # whole words; either way a negative coefficient is refused
            data = b"".join(map(partial(int.to_bytes, length=self.width, byteorder="little"), values))
        return int.from_bytes(data, "little")

    def read(self, packed: int, origin: Sequence[int] | None = None) -> tuple[Terms, list[range]]:
        """The nonzero coefficients of ``packed``, whose slot 0 holds the
        exponent vector ``origin`` (the box's least by default), by exponent
        vector, and the box they were read from: the layout's sizes from
        ``origin``, cut after the last value of the first variable that has
        a nonzero coefficient."""
        sizes = list(map(len, self.box))
        slots = -(-packed.bit_length() // (8 * self.width))
        sizes[0] = min(sizes[0], -(-slots // self.strides[0]))
        box = [range(o, o + size) for o, size in zip(origin or [r.start for r in self.box], sizes)]
        data = packed.to_bytes(sizes[0] * self.strides[0] * self.width, "little")
        code = _CODES.get(self.width)
        if code:
            coeffs = _little_endian(array(code, data))
        else:
            words = self.width // _WORD
            low = _little_endian(array("Q", data))
            coeffs = low[words - 1::words]
            for i in range(words - 2, -1, -1):
                coeffs = list(map(or_, map(lshift, coeffs, repeat(8 * _WORD)), low[i::words]))
        return dict(zip(compress(product(*box), coeffs), filter(None, coeffs))), box

    def poly(self, packed: int, origin: Sequence[int] | None = None, last: Sequence[int] | None = None,
             total: int | None = None) -> LaurentPolynomial:
        """:meth:`read` as a polynomial that keeps its span (see
        :func:`_span`): ``origin`` to ``last`` if the latter is given,
        else the box read, and ``total``, its value at 1, if known."""
        terms, box = self.read(packed, origin)
        if not terms:
            return ZERO
        origin, last = [r.start for r in box], last or [r[-1] for r in box]
        full = len(terms) == prod(b - a + 1 for a, b in zip(origin, last))
        return _poly(terms, (origin, last, full, total))


def _span(poly: LaurentPolynomial) -> tuple[Sequence[int], Sequence[int], list | None, int]:
    """For a nonzero ``poly`` with no negative coefficient: least and
    greatest exponent vectors bounding its terms; the terms' exponents by
    variable, or None when the terms are every vector of the box between
    the two, in order; and its value at 1.  A polynomial read off a layout
    knows these; any other is scanned."""
    terms = poly._terms
    if poly._span:
        origin, last, full, total = poly._span
        return origin, last, None if full else list(zip(*terms)), sum(terms.values()) if total is None else total
    first, last = next(iter(terms)), next(reversed(terms))
    box = [range(a, b + 1) for a, b in zip(first, last)]
    if prod(map(len, box)) == len(terms) and all(map(eq, terms, product(*box))):
        return first, last, None, sum(terms.values())
    columns = list(zip(*terms))
    return list(map(min, columns)), list(map(max, columns)), columns, sum(terms.values())


# A sum of parts, each a monomial times a product of polynomials with no
# negative coefficient.
Part = tuple[Exponents, Sequence[LaurentPolynomial]]


def _packed_sums(*sides: Sequence[Part]) -> tuple[_Layout, list[int]]:
    """Each side, a sum of parts, as an integer on one layout,
    with the least exponent vector of any part in slot 0.  The box is the
    union of the parts' boxes, and the bound the largest side's sum of the
    products of its factors' values at 1, which no coefficient of a product
    or of a partial sum exceeds, since none is negative."""
    spans = []  # per nonzero part: side, factors with their spans, least and greatest exponents
    for s, side in enumerate(sides):
        for monomial, factors in side:
            if all(factors):
                written = [(factor._terms, *_span(factor)) for factor in factors]
                lo = list(map(sum, zip(monomial, *(w[1] for w in written))))
                hi = list(map(sum, zip(monomial, *(w[2] for w in written))))
                spans.append((s, written, lo, hi, prod(w[4] for w in written)))
    if not spans:
        return _Layout([range(1)] * len(VARS), 0), [0] * len(sides)
    start = list(map(min, zip(*(span[2] for span in spans))))
    stop = map(max, zip(*(span[3] for span in spans)))
    bound = max(sum(span[4] for span in spans if span[0] == s) for s in range(len(sides)))
    layout = _Layout([range(a, b + 1) for a, b in zip(start, stop)], bound)
    totals = [0] * len(sides)
    for s, written, lo, _, _ in spans:
        packed = prod(layout.write(terms, origin, columns) for terms, origin, _, columns, _ in written)
        totals[s] += packed << layout.offset(list(map(sub, lo, start)))
    return layout, totals


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial.constant(1)
P = LaurentPolynomial.variable("p")
Q = LaurentPolynomial.variable("q")
T = LaurentPolynomial.variable("t")
X = LaurentPolynomial.variable("x")


def subs_q_to_q_over_p(poly: LaurentPolynomial) -> LaurentPolynomial:
    """Replace q by q/p, i.e. each q-exponent also subtracts from p's.  The
    map of exponent vectors is injective, so it merges no terms."""
    return _poly({(a - b, b, c, d): coeff for (a, b, c, d), coeff in poly._terms.items()})


# ---------------------------------------------------------------------------
# Cached recursions
# ---------------------------------------------------------------------------

# The body of a recursion in n, its first argument, returns the value of a
# base case or the parts of the cell: pairs (monomials, args), each the sum
# over the monomials of the monomial times the cell ``args`` of row n - 1.
Cell = tuple
Parts = list[tuple[Sequence[Exponents], Cell]]


def _recursion(body: Callable[..., LaurentPolynomial | Parts]):
    """A recursion whose ``body`` gives base values and parts (see
    ``Parts``), with a dict of the cells it has computed.  A missing cell is
    filled by :func:`_fill`, without recursion, so any n is in reach;
    ``fill(cells)`` on the result fills the given cells and those they reach
    in one pass, and ``cache_clear()`` empties the dict, ``cells``."""
    cells: dict[Cell, LaurentPolynomial] = {}
    signature = inspect.signature(body)

    @wraps(body)
    def cached(*args, **kwargs):
        if kwargs:  # the cell under its positional arguments, which fills use
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        if args not in cells:
            _fill(body, cells, [args])
        return cells[args]

    cached.cells = cells
    cached.cache_clear = cells.clear
    cached.fill = partial(_fill, body, cells)
    return cached


def _fill(body, cells: dict[Cell, LaurentPolynomial], targets: Iterable[Cell]) -> None:
    """Store in ``cells`` the cells ``targets`` of one row and every cell
    they reach.  Walking down, every cell they reach is looked up, and those
    missing are expanded into their parts until a stored cell or a base case
    is met.  Then the missing cells are filled upwards, a row at a time, as
    integers on one layout, keeping only the cells of the row below still to
    be read: a monomial factor is a shift and a sum an addition.  Each is
    unpacked once and stored.  The layout's sizes are the largest extent of
    any cell and its width holds the largest value at 1, which bounds every
    coefficient since none is negative; each cell is packed from its least
    exponents."""
    rows = []  # from the targets down: (cells to fill with their parts, known cells)
    level = dict.fromkeys(targets)
    while level:
        parts, known = {}, {}
        for args in level:
            value = cells.get(args)
            if value is None:
                value = body(*args)
                if not isinstance(value, LaurentPolynomial):
                    parts[args] = value
                    continue
                cells[args] = value
            known[args] = value
        rows.append((parts, known))
        level = dict.fromkeys(below for cell in parts.values() for _, below in cell)
    # least and greatest exponents and value at 1 of each nonzero cell, upwards
    spans = {}
    for parts, known in reversed(rows):
        for args, value in known.items():
            if value:
                spans[args] = _span(value)
        for args, cell in parts.items():
            live = [(monomials, below) for monomials, below in cell if below in spans]
            if live:
                lo = map(min, zip(*(map(add, spans[b][0], map(min, zip(*m))) for m, b in live)))
                hi = map(max, zip(*(map(add, spans[b][1], map(max, zip(*m))) for m, b in live)))
                spans[args] = (tuple(lo), tuple(hi), None, sum(len(m) * spans[b][3] for m, b in live))
            parts[args] = live
    if not spans or len(rows) == 1:  # no cell to fill, or each reads only zeros
        for parts, _ in rows:
            cells.update(dict.fromkeys(parts, ZERO))
        return
    extent = [max(hi[v] - lo[v] + 1 for lo, hi, _, _ in spans.values()) for v in range(len(VARS))]
    layout = _Layout([range(size) for size in extent], max(span[3] for span in spans.values()))
    readers = Counter(below for parts, _ in rows for cell in parts.values() for _, below in cell)
    packed = {}
    for parts, known in reversed(rows):
        below, packed = packed, {}
        for args, value in known.items():
            if args in readers:  # a nonzero cell that a cell above reads
                origin, _, columns, _ = spans[args]
                packed[args] = layout.write(value._terms, origin, columns)
        for args, cell in parts.items():
            if not cell:
                cells[args] = ZERO
                continue
            origin, last, _, total = spans[args]
            packed[args] = sum(
                below[b] << layout.offset(list(map(sub, map(add, spans[b][0], m), origin)))
                for monomials, b in cell for m in monomials
            )
            cells[args] = layout.poly(packed[args], origin, last, total)
            for _, b in cell:  # a cell below is dropped once its last reader has it
                readers[b] -= 1
                if not readers[b]:
                    del below[b]


# ---------------------------------------------------------------------------
# q-analogues
# ---------------------------------------------------------------------------

def _powers(var: str, start: int, stop: int) -> list[Exponents]:
    """The exponent vectors of var^start, ..., var^(stop-1)."""
    idx = _var_index(var)
    return [(0,) * idx + (e,) + (0,) * (len(VARS) - 1 - idx) for e in range(start, stop)]


def _pq_powers(k: int) -> list[Exponents]:
    """The exponent vectors of the terms of [k]_{p,q}."""
    return [(k - 1 - i, i, 0, 0) for i in range(k)]


def q_int(k: int, var: str = "q") -> LaurentPolynomial:
    """[k] = 1 + v + ... + v^(k-1) in the chosen variable."""
    if k < 0:
        raise ValueError("q-integer of a negative argument")
    return LaurentPolynomial(dict.fromkeys(_powers(var, 0, k), 1))


def pq_int(k: int) -> LaurentPolynomial:
    """[k]_{p,q} = p^(k-1) + p^(k-2) q + ... + q^(k-1); symmetric in p, q."""
    if k < 0:
        raise ValueError("pq-integer of a negative argument")
    return LaurentPolynomial(dict.fromkeys(_pq_powers(k), 1))


@_recursion
def q_factorial(k: int, var: str = "q") -> LaurentPolynomial:
    """[k]_v! = [k]_v [k-1]_v!."""
    if k < 0:
        raise ValueError("factorial of a negative argument")
    if k == 0:
        return ONE
    return [(_powers(var, 0, k), (k - 1, var))]


@_recursion
def pq_factorial(k: int) -> LaurentPolynomial:
    """[k]_{p,q}! = p^C(k,2) [k]_{q/p}!, since [j]_{p,q} = p^(j-1) [j]_{q/p}."""
    factorial = q_factorial(k)  # refuses a negative k before comb does
    return LaurentPolynomial.variable("p", comb(k, 2)) * subs_q_to_q_over_p(factorial)


def pochhammer(n: int, x: LaurentPolynomial = X, q: LaurentPolynomial = Q) -> LaurentPolynomial:
    """(x; q)_n = (1 - x)(1 - xq) ... (1 - xq^(n-1))."""
    if n < 0:
        raise ValueError("pochhammer of a negative length")
    result = ONE
    power = ONE
    for _ in range(n):
        result = result * (ONE - x * power)
        power = power * q
    return result


@_recursion
def gauss_binomial(n: int, k: int) -> LaurentPolynomial:
    """The q-binomial coefficient, via the Pascal-type recursion."""
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return [(_powers("q", 0, 1), (n - 1, k - 1)), (_powers("q", k, k + 1), (n - 1, k))]


# ---------------------------------------------------------------------------
# Stirling and Eulerian recursions
# ---------------------------------------------------------------------------

@_recursion
def stirling_pq(n: int, k: int) -> LaurentPolynomial:
    """S_{p,q}(n,k) = p^(k-1) S(n-1,k-1) + [k]_{p,q} S(n-1,k)."""
    if n == 0 and k == 0:
        return ONE
    if k <= 0 or k > n:
        return ZERO
    return [(_powers("p", k - 1, k), (n - 1, k - 1)), (_pq_powers(k), (n - 1, k))]


@_recursion
def stirling_q(n: int, k: int) -> LaurentPolynomial:
    """S_q(n,k): the p = q, q = 1 specialisation of S_{p,q}, computed by its
    own recursion S_q(n,k) = q^(k-1) S_q(n-1,k-1) + [k]_q S_q(n-1,k)."""
    if n == 0 and k == 0:
        return ONE
    if k <= 0 or k > n:
        return ZERO
    return [(_powers("q", k - 1, k), (n - 1, k - 1)), (_powers("q", 0, k), (n - 1, k))]


def stirling_tilde(n: int, k: int) -> LaurentPolynomial:
    """The companion normalisation q^(-C(k,2)) S_q(n,k) (a genuine polynomial)."""
    return stirling_q(n, k).map_exponents(
        lambda e: (e[0], e[1] - comb(k, 2), e[2], e[3])
    )


@_recursion
def s_hat_pq(n: int, k: int) -> LaurentPolynomial:
    """The Laurent variant with recursion q^(k-1) S(n-1,k-1) + p^(-n) [k]_{p,q} S(n-1,k), read
    off its solution p^(C(k,2) - C(n-k+1,2) - (n-k)) S_{q/p}(n,k), :func:`s_hat_closed_form`."""
    return ZERO if k < 0 or k > n else s_hat_closed_form(n, k)


def s_hat_closed_form(n: int, k: int) -> LaurentPolynomial:
    """p^(C(k,2) - C(n-k+1,2) - (n-k)) S_{q/p}(n,k), for 0 <= k <= n."""
    shift = comb(k, 2) - comb(n - k + 1, 2) - (n - k)
    return LaurentPolynomial.variable("p", shift) * subs_q_to_q_over_p(stirling_q(n, k))


@_recursion
def carlitz_aq(n: int, k: int) -> LaurentPolynomial:
    """Carlitz q-Eulerian numbers: the maj generating function of the
    permutations of [n] with exactly k descents.

    A(n,k) = q^k [n-k] A(n-1,k-1) + [k+1] A(n-1,k); A(0,0) = 1.
    """
    if n == 0:
        return ONE if k == 0 else ZERO
    if k < 0 or k >= n:
        return ZERO
    return [(_powers("q", k, n), (n - 1, k - 1)), (_powers("q", 0, k + 1), (n - 1, k))]


# ---------------------------------------------------------------------------
# Truncated power series in x
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedSeries:
    """A Laurent polynomial kept only up to x^order; multiplication and
    inversion re-truncate.  Division is defined only when the x-free part is
    the constant 1 or -1."""

    poly: LaurentPolynomial
    order: int

    def __post_init__(self):
        if any(exps[3] < 0 for exps in self.poly.terms):
            raise ValueError("series terms cannot carry negative x-exponents")
        object.__setattr__(self, "poly", self.poly.truncate("x", self.order))

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        order = min(self.order, other.order)
        return TruncatedSeries(self.poly + other.poly, order)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        order = min(self.order, other.order)
        return TruncatedSeries(self.poly - other.poly, order)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        order = min(self.order, other.order)
        return TruncatedSeries((self.poly * other.poly).truncate("x", order), order)

    def inverse(self) -> TruncatedSeries:
        head = LaurentPolynomial(
            {e: c for e, c in self.poly.terms.items() if e[3] == 0}
        )
        if head not in (ONE, -ONE):
            raise ValueError("series is not a unit: x-free part must be +-1")
        c = 1 if head == ONE else -1
        tail = LaurentPolynomial.constant(c) - self.poly  # pure x-positive part
        result = ZERO
        power = ONE
        for _ in range(self.order + 1):
            result = result + power
            power = (power * tail * c).truncate("x", self.order)
            if power.is_zero():
                break
        return TruncatedSeries(result * c, self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return self.poly.truncate("x", order) == other.poly.truncate("x", order)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def verify_zezh(n: int, k: int) -> tuple[bool, LaurentPolynomial, LaurentPolynomial]:
    """Check [k]_q! S_q(n,k) = sum_m q^(k(k-m)) C_q(n-m, n-k) A_q(n, m-1)
    exactly; returns (equal, lhs, rhs).  Both sides are integers on one
    packed layout, compared as integers and unpacked for the report, once
    if they are equal."""
    if not n >= k >= 1:
        raise ValueError("need n >= k >= 1")
    layout, (lhs, rhs) = _packed_sums(
        [((0, 0, 0, 0), [q_factorial(k), stirling_q(n, k)])],
        [((0, k * (k - m), 0, 0), [gauss_binomial(n - m, n - k), carlitz_aq(n, m - 1)]) for m in range(1, k + 1)],
    )
    equal = lhs == rhs
    side = layout.poly(lhs)
    return equal, side, side if equal else layout.poly(rhs)


def verify_q_frobenius(n: int, order: int) -> bool:
    """Compare sum_k [k]_q! S_q(n,k) x^k / (x;q)_{k+1} with
    sum_{k>=1} [k]_q^n x^k as series in x truncated at the given order."""
    if n < 1 or order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    lhs = TruncatedSeries(ZERO, order)
    for k in range(1, n + 1):
        numer = TruncatedSeries(
            q_factorial(k) * stirling_q(n, k) * LaurentPolynomial.variable("x", k), order
        )
        denom = TruncatedSeries(pochhammer(k + 1), order)
        lhs = lhs + numer * denom.inverse()
    rhs = ZERO
    for k in range(1, order + 1):
        rhs = rhs + q_int(k) ** n * LaurentPolynomial.variable("x", k)
    return lhs == TruncatedSeries(rhs, order)


# ---------------------------------------------------------------------------
# Distribution polynomials
# ---------------------------------------------------------------------------

Weight = tuple[Union[str, Callable], str]


def distribution(family: Iterable, weights: Sequence[Weight]) -> LaurentPolynomial:
    """Sum, over the family, of the monomial prod_var var^stat(object).

    ``weights`` maps statistics to variables, e.g. [("mak", "p"), ("lsb", "q")].
    A statistic is a name understood by :func:`opstat.statistics.resolve_stat`
    or any callable.  The family is only streamed, never materialised.
    """
    if not weights:
        raise ValueError("at least one (statistic, variable) weight required")
    from .statistics import resolve_stat

    resolved = [
        (stat if callable(stat) else resolve_stat(stat), _var_index(var))
        for stat, var in weights
    ]

    def exponents(obj) -> Exponents:
        exps = [0, 0, 0, 0]
        for fn, idx in resolved:
            exps[idx] += fn(obj)
        return tuple(exps)

    return LaurentPolynomial(Counter(map(exponents, family)))
