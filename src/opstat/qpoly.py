"""Exact sparse Laurent polynomials in the four variables p, q, t, x, the
classical q-analogues, and the Stirling/Eulerian recursions needed by the
distribution identities.

Coefficients are arbitrary-precision integers and exponents may be negative;
all arithmetic is exact.  Polynomials are immutable and hashable.

A product takes one of three routes:

- monomial: if either factor has one term, shift the other's exponents and
  scale its coefficients;
- dense (Kronecker substitution; Schoenhage 1982, Harvey 2009): if the
  product's exponent box has at most len(a) * len(b) slots, pack each factor
  into one integer with a fixed-width slot per exponent vector of the box,
  multiply the two integers, and read the product's coefficients off the
  slots.  The rule keeps the dense route from touching more slots than the
  schoolbook touches pairs;
- schoolbook: otherwise, one dict update per pair of terms.
  ``_schoolbook_mul`` is also the reference the tests hold the other routes
  to.

The recursions are ``functools.cache`` functions that fill lower rows first
when called at a large n, so they never recurse more than a few dozen rows
deep.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cache, wraps
from itertools import compress, product
from math import comb, prod
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

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        data: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != 4 or not all(isinstance(e, int) for e in exps):
                    raise ValueError(f"exponent vector must be 4 integers (p, q, t, x), got {exps!r}")
                if coeff:
                    data[exps] = data.get(exps, 0) + coeff
        object.__setattr__(self, "_terms", {e: c for e, c in data.items() if c})
        object.__setattr__(self, "_hash", None)

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
            other = LaurentPolynomial.constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    @staticmethod
    def _coerce(value) -> LaurentPolynomial:
        if isinstance(value, LaurentPolynomial):
            return value
        if isinstance(value, int):
            return LaurentPolynomial.constant(value)
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
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        object.__setattr__(out, "_terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    __radd__ = __add__

    def __neg__(self) -> LaurentPolynomial:
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        object.__setattr__(out, "_terms", {e: -c for e, c in self._terms.items()})
        object.__setattr__(out, "_hash", None)
        return out

    def __sub__(self, other) -> LaurentPolynomial:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> LaurentPolynomial:
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> LaurentPolynomial:
        a, b = self._terms, self._coerce(other)._terms
        if not (a and b):
            terms = {}
        elif len(a) == 1 or len(b) == 1:
            terms = _monomial_mul(a, b) if len(a) == 1 else _monomial_mul(b, a)
        else:
            box = _dense_box(a, b)
            terms = _schoolbook_mul(a, b) if box is None else _kronecker_mul(a, b, box)
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        object.__setattr__(out, "_terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

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
        return sorted(self._terms.items(), reverse=True)  # exponent vectors are unique

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = [
                name if exp == 1 else f"{name}^{exp}"
                for name, exp in zip(VARS, exps)
                if exp != 0
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_text()!r})"

    def to_json(self) -> list[list[int]]:
        return [[coeff, *exps] for exps, coeff in self.sorted_terms()]


# ---------------------------------------------------------------------------
# Multiplication routes
# ---------------------------------------------------------------------------

Terms = dict[Exponents, int]
# signed machine integers by size in bytes
_SIGNED_CODES = {array(code).itemsize: code for code in "bhiq"}


def _monomial_mul(mono: Terms, other: Terms) -> Terms:
    """Shift every exponent of ``other`` by the one term of ``mono`` and
    scale its coefficients; nothing can cancel."""
    ((e, c),) = mono.items()
    return {(e[0] + f[0], e[1] + f[1], e[2] + f[2], e[3] + f[3]): c * d for f, d in other.items()}


def _schoolbook_mul(a_terms: Terms, b_terms: Terms) -> Terms:
    """The product by one dict update per pair of terms: the reference for
    the other routes and the route for sparse products."""
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


def _dense_box(a_terms: Terms, b_terms: Terms) -> list[range] | None:
    """The product's exponent box, one range per variable, or None when the
    box has more slots than the schoolbook has pairs of terms."""
    box = [
        range(min(ea) + min(eb), max(ea) + max(eb) + 1)
        for ea, eb in zip(zip(*a_terms), zip(*b_terms))
    ]
    return box if prod(map(len, box)) <= len(a_terms) * len(b_terms) else None


def _slot_width(bound: int) -> int:
    """Bytes per slot for coefficients up to ``bound`` in absolute value:
    enough for the bound and a sign bit, rounded up to a machine integer's
    size where one is that wide, so that slots convert at C speed."""
    need = bound.bit_length() // 8 + 1
    return next((size for size in sorted(_SIGNED_CODES) if size >= need), need)


def _slot_list(terms: Terms, strides: tuple[int, ...], count: int) -> list[int]:
    """``count`` slots holding each coefficient at the mixed-radix index of
    its exponent vector minus the least one, under ``strides``."""
    s0, s1, s2, _ = strides
    l0, l1, l2, l3 = (min(e) for e in zip(*terms))
    base = l0 * s0 + l1 * s1 + l2 * s2 + l3
    values = [0] * count
    for (e0, e1, e2, e3), c in terms.items():
        values[e0 * s0 + e1 * s1 + e2 * s2 + e3 - base] = c
    return values


def _little_endian(slots: array) -> array:
    """Swap ``slots`` between machine and little-endian byte order (the
    same swap either way)."""
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _pack(values: list[int], width: int, top: int) -> int:
    """sum_i values[i] * 256^(width * i); ``top`` has the top bit of every
    slot set."""
    if width in _SIGNED_CODES:
        data = _little_endian(array(_SIGNED_CODES[width], values)).tobytes()
    else:
        data = b"".join(v.to_bytes(width, "little", signed=True) for v in values)
    packed = int.from_bytes(data, "little")
    # read unsigned, a slot's top bit counts 2^(bits-1) instead of -2^(bits-1)
    return packed - ((packed & top) << 1)


def _unpack(packed: int, width: int, top: int) -> Sequence[int]:
    """The inverse of :func:`_pack`, slot by slot."""
    # Adding 2^(bits-1) to every slot makes each one nonnegative, so no slot
    # borrows from the next; flipping each top bit then takes the bias off
    # again and leaves each slot in two's complement.
    data = ((packed + top) ^ top).to_bytes((top.bit_length() + 7) // 8, "little")
    if width in _SIGNED_CODES:
        return _little_endian(array(_SIGNED_CODES[width], data))
    return [int.from_bytes(data[i:i + width], "little", signed=True) for i in range(0, len(data), width)]


def _kronecker_mul(a_terms: Terms, b_terms: Terms, box: list[range]) -> Terms:
    """The product as one big-integer multiplication (Kronecker
    substitution): each factor becomes an integer with one ``width``-byte
    slot per exponent vector of ``box``, the last variable varying fastest,
    and the product's slots are its coefficients.  No coefficient exceeds
    max|a| * sum|b|, so ``width`` bytes hold it with a sign bit and no slot
    spills into the next."""
    sizes = [len(r) for r in box]
    strides = (sizes[1] * sizes[2] * sizes[3], sizes[2] * sizes[3], sizes[3], 1)
    count = sizes[0] * strides[0]
    width = _slot_width(max(map(abs, a_terms.values())) * sum(map(abs, b_terms.values())))
    top = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    a, b = (_pack(_slot_list(terms, strides, count), width, top) for terms in (a_terms, b_terms))
    coeffs = _unpack(a * b, width, top)
    return dict(zip(compress(product(*box), coeffs), filter(None, coeffs)))


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial.constant(1)
P = LaurentPolynomial.variable("p")
Q = LaurentPolynomial.variable("q")
T = LaurentPolynomial.variable("t")
X = LaurentPolynomial.variable("x")


def subs_q_to_q_over_p(poly: LaurentPolynomial) -> LaurentPolynomial:
    """Replace q by q/p, i.e. each q-exponent also subtracts from p's."""
    return poly.map_exponents(lambda e: (e[0] - e[1], e[1], e[2], e[3]))


# ---------------------------------------------------------------------------
# Cached recursions
# ---------------------------------------------------------------------------

_FILL_STRIDE = 32


def _row_cache(row_cells: Callable[..., list[tuple]]):
    """``functools.cache`` for a recursion in n (the first argument) that
    reads only row n - 1.  A call made from outside the recursion first
    evaluates, in increasing n, the cells of every ``_FILL_STRIDE``-th row
    below it that it depends on (``row_cells(m, *args)`` lists those of row
    m), so the recursion never runs more than ``_FILL_STRIDE`` rows deep,
    however large n is.  Below ``_FILL_STRIDE`` rows it is plain ``cache``."""

    def decorate(fn):
        filling = False

        @cache
        @wraps(fn)
        def cached(n, *rest):
            nonlocal filling
            if not filling and n > _FILL_STRIDE:
                filling = True
                try:
                    for m in range(_FILL_STRIDE, n, _FILL_STRIDE):
                        for cell in row_cells(m, n, *rest):
                            cached(*cell)
                finally:
                    filling = False
            return fn(n, *rest)

        return cached

    return decorate


def _pascal_cells(m: int, n: int, k: int) -> list[tuple[int, int]]:
    """The cells (m, j) that (n, k) reaches through (n-1, k-1) and (n-1, k)."""
    return [(m, j) for j in range(max(0, k - n + m), min(m, k) + 1)]


# ---------------------------------------------------------------------------
# q-analogues
# ---------------------------------------------------------------------------

def q_int(k: int, var: str = "q") -> LaurentPolynomial:
    """[k] = 1 + v + ... + v^(k-1) in the chosen variable."""
    if k < 0:
        raise ValueError("q-integer of a negative argument")
    idx = _var_index(var)
    terms = {}
    for i in range(k):
        exps = [0, 0, 0, 0]
        exps[idx] = i
        terms[tuple(exps)] = 1
    return LaurentPolynomial(terms)


def pq_int(k: int) -> LaurentPolynomial:
    """[k]_{p,q} = p^(k-1) + p^(k-2) q + ... + q^(k-1); symmetric in p, q."""
    if k < 0:
        raise ValueError("pq-integer of a negative argument")
    return LaurentPolynomial({(k - 1 - i, i, 0, 0): 1 for i in range(k)})


@_row_cache(lambda m, k, var="q": [(m, var)])
def q_factorial(k: int, var: str = "q") -> LaurentPolynomial:
    if k < 0:
        raise ValueError("factorial of a negative argument")
    if k == 0:
        return ONE
    return q_factorial(k - 1, var) * q_int(k, var)


@_row_cache(lambda m, k: [(m,)])
def pq_factorial(k: int) -> LaurentPolynomial:
    if k < 0:
        raise ValueError("factorial of a negative argument")
    if k == 0:
        return ONE
    return pq_factorial(k - 1) * pq_int(k)


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


@_row_cache(_pascal_cells)
def gauss_binomial(n: int, k: int) -> LaurentPolynomial:
    """The q-binomial coefficient, via the Pascal-type recursion."""
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return gauss_binomial(n - 1, k - 1) + LaurentPolynomial.variable("q", k) * gauss_binomial(n - 1, k)


# ---------------------------------------------------------------------------
# Stirling and Eulerian recursions
# ---------------------------------------------------------------------------

@_row_cache(_pascal_cells)
def stirling_pq(n: int, k: int) -> LaurentPolynomial:
    """S_{p,q}(n,k) = p^(k-1) S(n-1,k-1) + [k]_{p,q} S(n-1,k)."""
    if n == 0 and k == 0:
        return ONE
    if k <= 0 or k > n:
        return ZERO
    return (
        LaurentPolynomial.variable("p", k - 1) * stirling_pq(n - 1, k - 1)
        + pq_int(k) * stirling_pq(n - 1, k)
    )


@_row_cache(_pascal_cells)
def stirling_q(n: int, k: int) -> LaurentPolynomial:
    """S_q(n,k): the p = q, q = 1 specialisation of S_{p,q}, computed by its
    own recursion S_q(n,k) = q^(k-1) S_q(n-1,k-1) + [k]_q S_q(n-1,k)."""
    if n == 0 and k == 0:
        return ONE
    if k <= 0 or k > n:
        return ZERO
    return (
        LaurentPolynomial.variable("q", k - 1) * stirling_q(n - 1, k - 1)
        + q_int(k) * stirling_q(n - 1, k)
    )


def stirling_tilde(n: int, k: int) -> LaurentPolynomial:
    """The companion normalisation q^(-C(k,2)) S_q(n,k) (a genuine polynomial)."""
    return stirling_q(n, k).map_exponents(
        lambda e: (e[0], e[1] - comb(k, 2), e[2], e[3])
    )


@_row_cache(_pascal_cells)
def s_hat_pq(n: int, k: int) -> LaurentPolynomial:
    """The Laurent variant with recursion
    q^(k-1) S(n-1,k-1) + p^(-n) [k]_{p,q} S(n-1,k)."""
    if n == 0 and k == 0:
        return ONE
    if k <= 0 or k > n:
        return ZERO
    return (
        LaurentPolynomial.variable("q", k - 1) * s_hat_pq(n - 1, k - 1)
        + LaurentPolynomial.variable("p", -n) * pq_int(k) * s_hat_pq(n - 1, k)
    )


def s_hat_closed_form(n: int, k: int) -> LaurentPolynomial:
    """p^(C(k,2) - C(n-k+1,2) - (n-k)) S_{q/p}(n,k), which s_hat_pq equals."""
    shift = comb(k, 2) - comb(n - k + 1, 2) - (n - k)
    return LaurentPolynomial.variable("p", shift) * subs_q_to_q_over_p(stirling_q(n, k))


@_row_cache(_pascal_cells)
def carlitz_aq(n: int, k: int) -> LaurentPolynomial:
    """Carlitz q-Eulerian numbers: the maj generating function of the
    permutations of [n] with exactly k descents.

    A(n,k) = q^k [n-k] A(n-1,k-1) + [k+1] A(n-1,k); A(0,0) = 1.
    """
    if n == 0:
        return ONE if k == 0 else ZERO
    if k < 0 or k >= n:
        return ZERO
    return (
        LaurentPolynomial.variable("q", k) * q_int(n - k) * carlitz_aq(n - 1, k - 1)
        + q_int(k + 1) * carlitz_aq(n - 1, k)
    )


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
    exactly; returns (equal, lhs, rhs)."""
    if not n >= k >= 1:
        raise ValueError("need n >= k >= 1")
    lhs = q_factorial(k) * stirling_q(n, k)
    rhs = ZERO
    for m in range(1, k + 1):
        rhs = rhs + (
            LaurentPolynomial.variable("q", k * (k - m))
            * gauss_binomial(n - m, n - k)
            * carlitz_aq(n, m - 1)
        )
    return lhs == rhs, lhs, rhs


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
