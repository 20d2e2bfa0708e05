"""Exact sparse Laurent polynomials in the four variables p, q, t, x, the
classical q-analogues, and the Stirling/Eulerian recursions needed by the
distribution identities.

Coefficients are arbitrary-precision integers and exponents may be negative;
all arithmetic is exact.  Polynomials are immutable and hashable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
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
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
Exponents = tuple[int, int, int, int]


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
        exps[_VAR_INDEX[name]] = exp
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
        other = self._coerce(other)
        terms: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                new = terms.get(exps, 0) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    del terms[exps]
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
        idx = _VAR_INDEX[var]
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
        return sorted(self._terms.items(), key=lambda item: item[0], reverse=True)

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
# q-analogues
# ---------------------------------------------------------------------------

def q_int(k: int, var: str = "q") -> LaurentPolynomial:
    """[k] = 1 + v + ... + v^(k-1) in the chosen variable."""
    if k < 0:
        raise ValueError("q-integer of a negative argument")
    idx = _VAR_INDEX[var]
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


@cache
def q_factorial(k: int, var: str = "q") -> LaurentPolynomial:
    if k < 0:
        raise ValueError("factorial of a negative argument")
    if k == 0:
        return ONE
    return q_factorial(k - 1, var) * q_int(k, var)


@cache
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


@cache
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

@cache
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


@cache
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


@cache
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


@cache
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


def _tally(family: Iterable, keys: Callable, slots: int, check: Callable | None = None) -> tuple[list[dict], str | None]:
    """Stream ``family`` once.  Counter j counts the objects by the j-th of
    the ``slots`` keys in ``keys(obj)``; ``check(obj)`` runs on each object
    until it first returns something other than None, which is returned
    beside the counters."""
    counters: list[dict] = [{} for _ in range(slots)]
    first = None
    for obj in family:
        for counter, key in zip(counters, keys(obj)):
            counter[key] = counter.get(key, 0) + 1
        if check is not None and first is None:
            first = check(obj)
    return counters, first


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
        (stat if callable(stat) else resolve_stat(stat), _VAR_INDEX[var])
        for stat, var in weights
    ]

    def exponents(obj) -> tuple[Exponents]:
        exps = [0, 0, 0, 0]
        for fn, idx in resolved:
            exps[idx] += fn(obj)
        return (tuple(exps),)

    (counts,), _ = _tally(family, exponents, 1)
    return LaurentPolynomial(counts)
