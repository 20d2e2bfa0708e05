import importlib.util
import json
import sys
from itertools import product
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opstat import qpoly
from opstat.families import ordered_set_partitions, permutations, set_partitions, stirling2
from opstat.qpoly import (
    ONE,
    P,
    Q,
    X,
    ZERO,
    LaurentPolynomial,
    TruncatedSeries,
    carlitz_aq,
    distribution,
    gauss_binomial,
    pochhammer,
    pq_factorial,
    pq_int,
    q_factorial,
    q_int,
    s_hat_closed_form,
    s_hat_pq,
    stirling_pq,
    stirling_q,
    stirling_tilde,
    subs_q_to_q_over_p,
    verify_q_frobenius,
    verify_zezh,
)

import qpoly_reference

exponents = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)
)
polynomials = st.dictionaries(exponents, st.integers(-9, 9), max_size=6).map(
    LaurentPolynomial
)


# ---------------------------------------------------------------------------
# Ring behaviour
# ---------------------------------------------------------------------------

@given(polynomials, polynomials)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polynomials, polynomials)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=60)
@given(polynomials, polynomials, polynomials)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polynomials)
def test_additive_inverse(a):
    assert a - a == ZERO
    assert a + 0 == a
    assert a * 1 == a
    assert a * 0 == ZERO


@given(polynomials, st.integers(0, 4))
def test_powers_match_repeated_product(a, n):
    expected = ONE
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


def test_zero_coefficients_never_stored():
    poly = LaurentPolynomial({(1, 0, 0, 0): 1}) - P
    assert poly.is_zero()
    assert poly.terms == {}


def test_exponent_vectors_must_be_four_integers():
    with pytest.raises(ValueError, match="4 integers"):
        LaurentPolynomial({(1, 2): 1})
    with pytest.raises(ValueError, match="4 integers"):
        LaurentPolynomial({(1, 2, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="4 integers"):
        LaurentPolynomial({(1, 2, 0, 0.5): 1})


@pytest.mark.parametrize("terms,message", [
    ({(True, 0, 0, 0): 1}, "4 integers"),  # kept as True, and written as True, not JSON
    ({(0, 0, False, 0): 1}, "4 integers"),
    ({(0, 0, 0, 0): 1.5}, "coefficient must be an integer"),
    ({(0, 0, 0, 0): 2.0}, "coefficient must be an integer"),
    ({(0, 0, 0, 0): True}, "coefficient must be an integer"),
    ({(0, 1, 0, 0): "3"}, "coefficient must be an integer"),
], ids=["True exponent", "False exponent", "float", "whole float", "bool", "str"])
def test_a_bool_exponent_or_a_coefficient_that_is_not_an_int_is_refused(terms, message):
    with pytest.raises(ValueError, match=message):
        LaurentPolynomial(terms)


def test_a_constant_hashes_as_its_coefficient():
    # equal objects hash alike, so a constant polynomial finds its int
    for c in (0, 3, -1, 2**200):
        poly = LaurentPolynomial.constant(c)
        assert poly == c and hash(poly) == hash(c)
        assert poly in {c} and c in {poly}
        assert {c: "int"}[poly] == "int" and {poly: "poly"}[c] == "poly"
    assert ZERO in {0} and hash(ZERO) == hash(0)
    assert ONE - Q + Q in {1}
    assert len({ONE, 1, P, P + 0}) == 2
    # a bool in arithmetic or a comparison is its int, as in 1 == True
    assert ONE == True and P * True == P and (P + False).terms == {(1, 0, 0, 0): 1}


# ---------------------------------------------------------------------------
# Products: the one dict product, against written-out polynomials and laws
# ---------------------------------------------------------------------------

EDGE_COEFFS = [2**63 - 1, -(2**63), 255, 256, -255, -256, 2**200, -(2**200)]
coefficients = st.integers(-(2**200), 2**200) | st.integers(-300, 300) | st.sampled_from(EDGE_COEFFS)
# a box of 3 * 3 * 2 * 2 exponent vectors, negative in every variable, so
# that many products fill their box
box_polynomials = st.dictionaries(
    st.tuples(st.integers(-2, 0), st.integers(-1, 1), st.integers(-1, 0), st.integers(-1, 0)),
    coefficients,
    max_size=36,
).map(LaurentPolynomial)


def checked_product(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """a * b, checked to store no zero coefficient and to equal b * a."""
    result = a * b
    assert 0 not in result.terms.values()
    assert b * a == result
    return result


def nonnegative(poly: LaurentPolynomial) -> tuple[LaurentPolynomial, tuple[int, ...]]:
    """``poly`` shifted so that its least exponent of each variable is 0,
    if it was negative, and the shift."""
    low = tuple(min(0, *column) for column in zip(*poly.terms)) if poly else (0,) * 4
    return poly.map_exponents(lambda e: tuple(a - b for a, b in zip(e, low))), low


POINTS = [(2, 3, 5, 7), (-3, 1, -2, 11), (2**40 + 1, -(2**35), 3, -1)]


@settings(max_examples=300)
@given(box_polynomials | polynomials, box_polynomials | polynomials, box_polynomials | polynomials)
def test_product_laws(a, b, c):
    product_ab = checked_product(a, b)  # commutes
    assert a * (b + c) == product_ab + a * c
    # at integer points, once both factors and the product are shifted to
    # nonnegative exponents, the product's value is the product of values
    (a0, low_a), (b0, low_b) = nonnegative(a), nonnegative(b)
    shifted = product_ab.map_exponents(lambda e: tuple(x - y - z for x, y, z in zip(e, low_a, low_b)))
    for point in POINTS:
        assert shifted.evaluate(*point) == a0.evaluate(*point) * b0.evaluate(*point)


def edge_poly(coeff: int) -> LaurentPolynomial:
    """coeff * (1 + q): the middle coefficient of its product with (1 + q)
    is twice coeff, one bit past coeff."""
    return LaurentPolynomial({(0, 0, 0, 0): coeff, (0, 1, 0, 0): coeff})


def term(coeff: int, p: int = 0, q: int = 0, t: int = 0, x: int = 0) -> LaurentPolynomial:
    return LaurentPolynomial.monomial(coeff, p, q, t, x)


def separable(coeff: int, shift: tuple[int, ...], *factors: dict[int, int]) -> LaurentPolynomial:
    """coeff times the monomial ``shift`` times four one-variable
    polynomials, one per variable, each {exponent: coefficient}, written out
    term by term."""
    return LaurentPolynomial({
        tuple(s + e for s, (e, _) in zip(shift, terms)): coeff * prod(c for _, c in terms)
        for terms in product(*(f.items() for f in factors))
    })


def square(poly: dict[int, int]) -> dict[int, int]:
    """A one-variable polynomial of two terms, squared."""
    (e, c), (f, d) = poly.items()
    return {2 * e: c * c, e + f: 2 * c * d, 2 * f: d * d}


MIXED = LaurentPolynomial({(-1, -2, -1, -3): 5, (0, -1, -2, -1): -7, (-2, 0, 0, -2): 3, (-1, -1, -1, -1): -1})
MIXED_SQUARED = LaurentPolynomial({
    (-4, 0, 0, -4): 9, (-3, -2, -1, -5): 30, (-3, -1, -1, -3): -6, (-2, -4, -2, -6): 25, (-2, -3, -2, -4): -10,
    (-2, -2, -2, -2): 1, (-2, -1, -2, -3): -42, (-1, -3, -3, -4): -70, (-1, -2, -3, -2): 14, (0, -2, -4, -2): 49,
})
# (1 - p)(2 + q)(1 - t)(3 - x) / (pqtx): 16 signed terms filling the box {-1, 0}^4
FULL_FACTORS = ({-1: 1, 0: -1}, {-1: 2, 0: 1}, {-1: 1, 0: -1}, {-1: 3, 0: -1})
FULL = separable(1, (0, 0, 0, 0), *FULL_FACTORS)
FULL_SQUARED = separable(1, (0, 0, 0, 0), *map(square, FULL_FACTORS))
ONE_PLUS = {0: 1, 1: 2, 2: 1}  # (1 + v)^2
NONE = {0: 1}
# (p^2 - q^2)(1 + p)^2(1 + q)^2
SQUARES_IN_A_BOX = (
    separable(1, (2, 0, 0, 0), ONE_PLUS, ONE_PLUS, NONE, NONE) - separable(1, (0, 2, 0, 0), ONE_PLUS, ONE_PLUS, NONE, NONE)
)
PRODUCT_CASES = {
    # name: (a, b, a * b written out)
    "negative exponents in all four variables": (FULL, 3 - FULL, separable(3, (0, 0, 0, 0), *FULL_FACTORS) - FULL_SQUARED),
    "sparse, negative exponents in all four variables": (
        MIXED, MIXED - FULL,
        MIXED_SQUARED - sum((separable(c, e, *FULL_FACTORS) for e, c in MIXED.terms.items()), ZERO),
    ),
    "coefficients of 2^200": (
        2**200 - Q, -(2**200) + 3 * Q, term(-(2**400)) + term(2**202, q=1) + term(-3, q=2),
    ),
    "coefficients of 2^200 in four variables": (
        2**200 * FULL, FULL - 2**200,
        separable(2**200, (0, 0, 0, 0), *map(square, FULL_FACTORS)) - separable(2**400, (0, 0, 0, 0), *FULL_FACTORS),
    ),
    **{
        name: (edge_poly(a), edge_poly(b), separable(a * b, (0, 0, 0, 0), NONE, ONE_PLUS, NONE, NONE))
        for name, a, b in [
            ("2^63 - 1", 2**63 - 1, 1), ("-2^63", -(2**63), 1), ("255", 255, 1), ("-256 * (2^63 - 1)", -256, 2**63 - 1),
        ]
    },
    "256": (edge_poly(256), 1 - Q, term(256) + term(-256, q=2)),
    "(1 - q)(1 + q)": (1 - Q, 1 + Q, term(1) + term(-1, q=2)),
    "(p - q)(p + q)": (P - Q, P + Q, term(1, p=2) + term(-1, q=2)),
    "(p - q)(1 + p)(1 + q) times (p + q)(1 + p)(1 + q)": (
        (P - Q) * (1 + P) * (1 + Q), (P + Q) * (1 + P) * (1 + Q), SQUARES_IN_A_BOX,
    ),
    "(1 + p^50)(1 + q^50)": (1 + P**50, 1 + Q**50, term(1) + term(1, p=50) + term(1, q=50) + term(1, p=50, q=50)),
    "monomial on the left": (
        term(-3, p=-2, x=1), MIXED,
        LaurentPolynomial({(-3, -2, -1, -2): -15, (-2, -1, -2, 0): 21, (-4, 0, 0, -1): -9, (-3, -1, -1, 0): 3}),
    ),
    "monomial on the right": (
        MIXED, term(2**70, p=-1, q=2, t=-3, x=4),
        LaurentPolynomial({
            (-2, 0, -4, 1): 5 * 2**70, (-1, 1, -5, 3): -7 * 2**70, (-3, 2, -3, 2): 3 * 2**70, (-2, 1, -4, 3): -(2**70),
        }),
    ),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
def test_fixed_products_take_their_route(monkeypatch, name):
    # every product takes the one route, the dict product
    a, b, expected = PRODUCT_CASES[name]
    calls = []
    monkeypatch.setattr(qpoly, "_schoolbook_mul", lambda *args, mul=qpoly._schoolbook_mul: calls.append(1) or mul(*args))
    assert a * b == expected
    assert calls == [1]
    assert checked_product(a, b) == expected


def test_products_that_cancel():
    assert checked_product(1 - Q, 1 + Q) == term(1) + term(-1, q=2)
    assert checked_product(P - Q, P + Q) == term(1, p=2) + term(-1, q=2)
    box = (1 + P) * (1 + Q)
    assert checked_product((P - Q) * box, (P + Q) * box) == SQUARES_IN_A_BOX
    assert checked_product(1 - P * Q, 1 + P * Q + (P * Q) ** 2) == term(1) + term(-1, p=3, q=3)
    assert checked_product(edge_poly(-(2**63)), 1 - Q) == term(-(2**63)) + term(2**63, q=2)
    # (x; q)_n one factor at a time
    poly = ONE
    for i in range(8):
        poly = checked_product(poly, 1 - X * Q**i)
    assert poly == pochhammer(8)
    assert poly.evaluate(x=1) == 0
    assert poly.evaluate(q=3, x=2) == prod(1 - 2 * 3**i for i in range(8))


def test_products_with_integers_and_zero():
    a = MIXED
    assert 3 * a == a * 3 == a + a + a
    assert (-1) * a == -a
    assert 0 * a == a * 0 == ZERO * a == a * ZERO == ZERO
    assert ZERO * ZERO == ZERO
    assert 1 * a == a
    assert (3 * a).terms == {e: 3 * c for e, c in a.terms.items()}


def test_s_hat_products_sum_to_the_recursion():
    # q^(k-1) S_hat(n-1,k-1) + p^(-n) [k]_{p,q} S_hat(n-1,k), the recursion
    # that s_hat_pq's closed form solves, through Laurent factors
    for n in range(2, 10):
        for k in range(1, n):
            left = checked_product(LaurentPolynomial.variable("p", -n), pq_int(k))
            assert left == LaurentPolynomial({(k - 1 - i - n, i, 0, 0): 1 for i in range(k)})
            right = checked_product(LaurentPolynomial.variable("q", k - 1), s_hat_pq(n - 1, k - 1))
            assert checked_product(left, s_hat_pq(n - 1, k)) + right == s_hat_pq(n, k)


def test_slot_width_holds_the_bound():
    for bound in (0, 1, 127, 128, 255, 256, 2**15 - 1, 2**15, 2**31, 2**63 - 1, 2**63, 2**64, 2**200):
        width = qpoly._slot_width(bound)
        assert bound < 2 ** (8 * width)
        # a machine integer's size, else the fewest whole 8-byte words
        need = (bound.bit_length() + 7) // 8
        assert width == min((size for size in (1, 2, 4, 8) if size >= need), default=8 * -(-need // 8))


def test_pack_unpack_roundtrip():
    # the one writer and reader, for every slot width the layouts use
    for width in (1, 2, 4, 8, 16, 24, 32):
        top = 2 ** (8 * width) - 1
        values = [0, 1, top, 0, 5, 2, 7, top - 1, 3]
        box = [range(1), range(-3, -3 + len(values)), range(1), range(1)]
        layout = qpoly._Layout(box, top)
        assert layout.width == width
        terms = {(0, e, 0, 0): v for e, v in zip(box[1], values) if v}
        columns = list(zip(*terms))
        packed = layout.write(terms, (0, -3, 0, 0), columns)
        assert packed == sum(v * 256 ** (width * i) for i, v in enumerate(values))
        assert layout.read(packed)[0] == terms
        # coefficients in slot order, with no gap: the slots are the values
        dense = {(0, e, 0, 0): v or 9 for e, v in zip(box[1], values)}
        assert layout.read(layout.write(dense, (0, -3, 0, 0), None))[0] == dense
    # a gap-free box whose rows are not consecutive slots of the layout
    layout = qpoly._Layout([range(3), range(4), range(1), range(2)], 100)
    for box in ([range(2), range(1, 3), range(1), range(2)], [range(3), range(1), range(1), range(1)]):
        dense = {e: i + 1 for i, e in enumerate(product(*box))}
        origin = [r.start for r in box]
        assert layout.read(layout.write(dense, origin, None), origin)[0] == dense


def test_a_layout_is_never_one_bit_short_of_its_bound():
    box = [range(2)] * 4
    for width, wider in ((1, 2), (2, 4), (4, 8), (8, 16), (16, 24), (24, 32)):
        bound = 2 ** (8 * width) - 1
        assert qpoly._Layout(box, bound).width == width
        assert qpoly._Layout(box, bound + 1).width == wider
    with pytest.raises(ValueError, match="nonempty range per variable"):
        qpoly._Layout([range(2), range(0), range(1), range(1)], 1)


def test_an_unsigned_layout_refuses_a_negative_coefficient():
    box = [range(1), range(3), range(1), range(1)]
    for width in (1, 8, 16):
        layout = qpoly._Layout(box, 2 ** (8 * width - 1))
        assert layout.width == width
        for terms in ({(0, 0, 0, 0): 1, (0, 2, 0, 0): -1}, {(0, 0, 0, 0): 1, (0, 1, 0, 0): -1, (0, 2, 0, 0): 1}):
            with pytest.raises(OverflowError):
                layout.write(terms, (0, 0, 0, 0), list(zip(*terms)))


def test_row_cache_runs_past_the_recursion_limit():
    # the filler walks down and fills up without recursing, so any n is in reach
    n = sys.getrecursionlimit() * 3

    @qpoly._recursion
    def chain(n):
        return ONE if n == 0 else [(qpoly._powers("q", 1, 2), (n - 1,))]

    @qpoly._recursion
    def binomial(n, k):
        if k < 0 or k > n:
            return ZERO
        return ONE if k in (0, n) else [(qpoly._powers("q", 0, 1), (n - 1, k - 1)), (qpoly._powers("q", 0, 1), (n - 1, k))]

    @qpoly._recursion
    def vanishing(n):
        return ZERO if n == 0 else [(qpoly._powers("q", 1, 2), (n - 1,))]

    assert chain(n) == Q**n
    assert vanishing(n) == ZERO and len(vanishing.cells) == n + 1
    assert binomial(n, 3) == comb(n, 3)
    assert binomial(n, n - 2) == comb(n, 2)
    assert chain.__name__ == "chain" and len(binomial.cells) > 0


def test_closed_form_recursions_run_past_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    assert stirling_pq(n, 1) == ONE
    assert stirling_q(n, 1) == ONE
    assert s_hat_pq(n, 1) == LaurentPolynomial.variable("p", 1 - comb(n + 1, 2))
    assert carlitz_aq(n, 0) == ONE
    assert gauss_binomial(n, 1) == q_int(n)


@pytest.mark.parametrize("fn,n", [(q_factorial, 70), (pq_factorial, 40)])
def test_factorials_fill_the_cells_their_recursion_reads(fn, n):
    # the fill and the recursion must call with the same arguments, or
    # the filled cells are never read; pq_factorial reads its one cell off
    # q_factorial's, so only q_factorial fills a row per k
    q_factorial.cache_clear()
    fn.cache_clear()
    fn(n)
    assert len(q_factorial.cells) == n + 1
    assert len(fn.cells) == (n + 1 if fn is q_factorial else 1)


def test_pq_factorial_refuses_a_negative_argument():
    pq_factorial.cache_clear()
    with pytest.raises(ValueError, match="^factorial of a negative argument$"):
        pq_factorial(-1)
    assert pq_factorial.cells == {}


def test_recursions_keep_their_names_and_caches():
    for fn in (q_factorial, pq_factorial, gauss_binomial, stirling_pq, stirling_q, s_hat_pq, carlitz_aq):
        assert getattr(qpoly, fn.__name__) is fn
        assert fn.__module__ == "opstat.qpoly"
        fn.cache_clear()
        assert fn.cells == {}


RECURSIONS = (gauss_binomial, stirling_pq, stirling_q, s_hat_pq, carlitz_aq)


def clear_recursions():
    for fn in RECURSIONS + (q_factorial, pq_factorial):
        fn.cache_clear()


def test_the_benchmark_empties_every_recursion(monkeypatch):
    # bench/run.py clears every cache of the package before each pass, also
    # under its tracing wrappers: a warm recursion would time as a gain
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    tracer = run.Tracer()
    for traced in (False, True):
        if traced:
            tracer.install()
        try:
            # looked up on the module, so through the wrappers when traced
            qpoly.q_factorial(6)
            qpoly.pq_factorial(6)
            for fn in RECURSIONS:
                getattr(qpoly, fn.__name__)(6, 3)
            assert all(fn.cells for fn in RECURSIONS + (q_factorial, pq_factorial))
            run.clear_caches()
        finally:
            tracer.uninstall()
        assert all(fn.cells == {} for fn in RECURSIONS + (q_factorial, pq_factorial))


@pytest.mark.parametrize("fn", RECURSIONS, ids=lambda fn: fn.__name__)
def test_recursions_match_the_reference(fn):
    # every cell at n <= 14, past both ends of each row, filled cold in
    # three orders: row by row, top row first, and one pass for the table
    reference = getattr(qpoly_reference, fn.__name__)
    cells = [(n, k) for n in range(15) for k in range(-1, n + 2)]
    for order in (cells, cells[::-1], None):
        clear_recursions()
        if order is None:
            fn.fill([(14, k) for k in range(-1, 16)])
            order = cells
        for n, k in order:
            assert fn(n, k) == reference(n, k), (n, k)


@pytest.mark.parametrize("fn,var", [(q_factorial, "q"), (q_factorial, "t"), (pq_factorial, None)])
def test_factorials_match_the_reference(fn, var):
    reference = getattr(qpoly_reference, fn.__name__)
    args = () if var is None else (var,)
    top = 14 if var else 40  # pq_factorial is read off q_factorial, cheaply
    for order in (range(top + 1), range(top, -1, -1)):
        clear_recursions()
        for k in order:
            assert fn(k, *args) == reference(k, *args), k


def test_stirling_pq_matches_the_reference_at_22():
    clear_recursions()
    for k in range(23):
        assert stirling_pq(22, k) == qpoly_reference.stirling_pq(22, k), k


def test_s_hat_pq_matches_the_reference_with_negative_p_exponents():
    clear_recursions()
    for n in range(23):
        for k in range(n + 1):
            poly = s_hat_pq(n, k)
            assert poly == qpoly_reference.s_hat_pq(n, k), (n, k)
            assert k in (0, n) or min(e[0] for e in poly.terms) < 0


def test_fill_caches_the_cells_its_targets_reach():
    clear_recursions()
    stirling_q.fill([(12, k) for k in range(13)])
    # and the zero cells (n, n + 1) that the diagonal reads
    assert len(stirling_q.cells) == sum(n + 1 for n in range(13)) + 12
    # reading every cell reached never calls the body, here a counted twin
    calls = []

    def body(n, k):
        calls.append((n, k))
        return stirling_q.__wrapped__(n, k)

    twin = qpoly._recursion(body)
    twin.fill([(12, k) for k in range(13)])
    assert twin.cells.keys() == stirling_q.cells.keys()
    calls.clear()
    assert [twin(n, k) for n in range(13) for k in range(n + 1)] == [
        qpoly_reference.stirling_q(n, k) for n in range(13) for k in range(n + 1)
    ]
    assert calls == []


def test_a_cell_keeps_the_span_it_was_filled_with():
    # a cell read off a layout carries its exact least and greatest exponents,
    # so writing it again needs no scan
    clear_recursions()
    stirling_pq.fill([(12, k) for k in range(13)])
    for n in range(1, 13):
        for k in range(1, n + 1):
            poly = stirling_pq(n, k)
            origin, last, full, total = poly._span
            columns = list(zip(*poly.terms))
            assert (list(origin), list(last)) == ([min(c) for c in columns], [max(c) for c in columns])
            assert total == stirling2(n, k)
            assert full == (len(poly.terms) == prod(b - a + 1 for a, b in zip(origin, last)))


def test_recursions_take_their_arguments_by_keyword():
    assert q_factorial(5, var="t") == q_factorial(5, "t") == qpoly_reference.q_factorial(5, "t")
    assert stirling_pq(n=6, k=3) == qpoly_reference.stirling_pq(6, 3)
    with pytest.raises(TypeError):
        stirling_q(4, k=2, m=1)


def test_text_rendering():
    assert (2 * P + Q).to_text() == "2*p + q"
    assert (P ** 2 - 1).to_text() == "p^2 - 1"
    assert LaurentPolynomial.variable("p", -2).to_text() == "p^-2"
    assert ZERO.to_text() == "0"


def test_json_rendering():
    assert (2 * P + Q).to_json() == [[2, 1, 0, 0, 0], [1, 0, 1, 0, 0]]
    assert (2 * P + Q).to_json_text() == "[[2, 1, 0, 0, 0], [1, 0, 1, 0, 0]]"
    assert ZERO.to_json_text() == "[]"


def assert_rendered_as_the_reference(poly: LaurentPolynomial) -> None:
    assert poly.sorted_terms() == qpoly_reference.sorted_terms(poly)
    assert poly.to_text() == qpoly_reference.to_text(poly)
    assert poly.to_json_text() == qpoly_reference.to_json_text(poly)
    assert poly.to_json_text() == json.dumps(poly.to_json())


# every variable with negative, one-digit and two-digit exponents, and
# coefficients of every size and sign, 1 and -1 among them
rendered_polynomials = st.dictionaries(
    st.tuples(*[st.integers(-12, 12)] * 4),
    st.sampled_from([1, -1, 10, -10, 11, -11]) | coefficients,
    max_size=8,
).map(LaurentPolynomial)


@settings(max_examples=300)
@given(rendered_polynomials | polynomials | box_polynomials)
@example(ZERO)
@example(ONE)
@example(-ONE)
@example(LaurentPolynomial.constant(-12))
@example(-P - 1)
@example(LaurentPolynomial({(-1, 1, -11, 1): -1, (0, 0, 0, 0): 1, (0, -1, 0, 0): 21}))
def test_writers_match_the_reference(poly):
    assert_rendered_as_the_reference(poly)


def test_writers_match_the_reference_on_every_recursion_cell():
    # cells read off the packed layout, whose terms are already in order
    clear_recursions()
    cells = [fn(n, k) for fn in RECURSIONS for n in range(15) for k in range(n + 1)]
    cells += [q_factorial(k, var) for var in ("q", "t") for k in range(15)]
    cells += [pq_factorial(k) for k in range(15)]
    assert sum(cell._span is not None for cell in cells) > len(cells) // 2
    for cell in cells:
        assert_rendered_as_the_reference(cell)


def test_evaluate():
    assert (P * Q ** 2 + 3).evaluate(p=2, q=3) == 21
    with pytest.raises(ValueError):
        LaurentPolynomial.variable("p", -1).evaluate(p=2)
    assert LaurentPolynomial.variable("p", -1).evaluate(p=1) == 1


# ---------------------------------------------------------------------------
# q-analogues
# ---------------------------------------------------------------------------

def test_q_int_and_factorial():
    assert q_int(3) == 1 + Q + Q ** 2
    assert q_factorial(0) == ONE
    assert q_factorial(3) == 1 + 2 * Q + 2 * Q ** 2 + Q ** 3
    with pytest.raises(ValueError):
        q_int(-1)


def test_pq_int():
    assert pq_int(2) == P + Q
    assert pq_int(1) == ONE
    # symmetric under exchanging p and q
    for k in range(6):
        poly = pq_int(k)
        swapped = poly.map_exponents(lambda e: (e[1], e[0], e[2], e[3]))
        assert poly == swapped


def test_pq_factorial_symmetric():
    for k in range(6):
        poly = pq_factorial(k)
        swapped = poly.map_exponents(lambda e: (e[1], e[0], e[2], e[3]))
        assert poly == swapped


def test_pochhammer():
    assert pochhammer(0) == ONE
    assert pochhammer(2) == (1 - X) * (1 - X * Q)


def test_gauss_binomial_values():
    assert gauss_binomial(4, 2) == 1 + Q + 2 * Q ** 2 + Q ** 3 + Q ** 4
    assert gauss_binomial(3, 5) == ZERO
    # specialises to the binomial coefficient at q = 1
    for n in range(8):
        for k in range(n + 1):
            assert gauss_binomial(n, k).evaluate() == comb(n, k)


# ---------------------------------------------------------------------------
# Stirling recursions
# ---------------------------------------------------------------------------

def test_stirling_pq_small_values():
    assert stirling_pq(2, 1) == ONE
    assert stirling_pq(2, 2) == P
    assert stirling_pq(3, 2) == P + P * Q + P ** 2
    assert stirling_pq(0, 0) == ONE
    assert stirling_pq(3, 0) == ZERO


def test_stirling_pq_diagonal():
    for n in range(1, 8):
        assert stirling_pq(n, n) == LaurentPolynomial.variable("p", comb(n, 2))


def test_stirling_pq_counts_at_one():
    for n in range(9):
        for k in range(n + 1):
            assert stirling_pq(n, k).evaluate() == stirling2(n, k)


def test_stirling_q_is_specialised_stirling_pq():
    # S_q sets p = q, q = 1 in S_{p,q}
    for n in range(8):
        for k in range(n + 1):
            specialised = stirling_pq(n, k).map_exponents(
                lambda e: (0, e[0], e[2], e[3])
            )
            assert stirling_q(n, k) == specialised


def test_stirling_tilde_normalisation():
    for n in range(9):
        for k in range(n + 1):
            shift = LaurentPolynomial.variable("q", comb(k, 2))
            assert stirling_q(n, k) == shift * stirling_tilde(n, k)


def test_wachs_white_distribution():
    # sum over standard partitions of p^rcb q^lsb
    assert distribution(set_partitions(4, 2), [("rcb", "p"), ("lsb", "q")]) == stirling_pq(4, 2)


def test_s_hat_small_values():
    assert s_hat_pq(1, 1) == ONE
    assert s_hat_pq(2, 1) == LaurentPolynomial.variable("p", -2)


def test_s_hat_closed_form_relation():
    for n in range(7):
        for k in range(n + 1):
            assert s_hat_pq(n, k) == s_hat_closed_form(n, k)


def test_q_over_p_substitution():
    assert subs_q_to_q_over_p(Q) == LaurentPolynomial({(-1, 1, 0, 0): 1})
    assert subs_q_to_q_over_p(P * Q) == ONE * Q  # p * q/p
    assert subs_q_to_q_over_p(P ** 3) == P ** 3


def test_q_over_p_substitution_matches_the_exponent_map():
    # the substitution builds its terms unchecked; map_exponents merges equal
    # exponent vectors and drops zero coefficients, so the two agree only if
    # the map of exponent vectors is injective
    by_map = lambda poly: poly.map_exponents(lambda e: (e[0] - e[1], e[1], e[2], e[3]))
    for k in range(41):
        assert pq_factorial(k) == P ** comb(k, 2) * by_map(q_factorial(k))
    for n in range(23):
        for k in range(n + 1):
            shift = comb(k, 2) - comb(n - k + 1, 2) - (n - k)
            assert s_hat_closed_form(n, k) == LaurentPolynomial.variable("p", shift) * by_map(stirling_q(n, k))


# ---------------------------------------------------------------------------
# Eulerian numbers and the two closing identities
# ---------------------------------------------------------------------------

def test_carlitz_small_values():
    assert carlitz_aq(2, 1) == Q
    for n in range(1, 7):
        assert carlitz_aq(n, 0) == ONE
        assert carlitz_aq(n, n) == ZERO


def test_carlitz_matches_brute_force():
    for n in range(1, 6):
        by_descents = {}
        for sigma in permutations(n):
            d = len(sigma.descent_set())
            by_descents.setdefault(d, []).append(sigma.major_index())
        for k in range(n):
            counts = {}
            for m in by_descents.get(k, []):
                counts[(0, m, 0, 0)] = counts.get((0, m, 0, 0), 0) + 1
            assert carlitz_aq(n, k) == LaurentPolynomial(counts)


def test_carlitz_row_sums_are_q_factorials():
    for n in range(1, 8):
        total = ZERO
        for k in range(n):
            total = total + carlitz_aq(n, k)
        assert total == q_factorial(n)


def test_zezh_smallest_cases():
    ok, lhs, rhs = verify_zezh(2, 1)
    assert ok and lhs == ONE
    ok, lhs, rhs = verify_zezh(3, 3)
    assert ok
    assert lhs == q_factorial(3) * stirling_q(3, 3)


def test_zezh_exhaustive_small():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert verify_zezh(n, k)[0]


def test_q_frobenius():
    assert verify_q_frobenius(1, 3)
    assert verify_q_frobenius(2, 5)
    assert verify_q_frobenius(3, 6)


def test_q_frobenius_eulerian_form():
    # the right side also equals sum_sigma x^(1+des) q^maj / (x;q)_{n+1}
    n, order = 3, 6
    numer = ZERO
    for k in range(n):
        numer = numer + carlitz_aq(n, k) * LaurentPolynomial.variable("x", k + 1)
    series = TruncatedSeries(numer, order) * TruncatedSeries(
        pochhammer(n + 1), order
    ).inverse()
    rhs = ZERO
    for k in range(1, order + 1):
        rhs = rhs + q_int(k) ** n * LaurentPolynomial.variable("x", k)
    assert series == TruncatedSeries(rhs, order)


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------

def test_series_inverse():
    series = TruncatedSeries(pochhammer(3), 5)
    product = series * series.inverse()
    assert product == TruncatedSeries(ONE, 5)


def test_series_inverse_requires_unit():
    with pytest.raises(ValueError):
        TruncatedSeries(2 * ONE + X, 4).inverse()
    with pytest.raises(ValueError):
        TruncatedSeries((1 - Q) + X, 4).inverse()


def test_series_negative_unit():
    series = TruncatedSeries(-ONE + X, 4)
    assert series * series.inverse() == TruncatedSeries(ONE, 4)


def test_series_rejects_negative_x_powers():
    with pytest.raises(ValueError, match="negative x-exponents"):
        TruncatedSeries(LaurentPolynomial.variable("x", -1), 4)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def test_distribution_empty_family():
    assert distribution([], [("mak", "p")]) == ZERO


def test_distribution_requires_weights():
    with pytest.raises(ValueError):
        distribution([], [])


def test_distribution_euler_mahonian_example():
    from opstat.statistics import binv, composite

    lhs = distribution(
        ordered_set_partitions(4, 2),
        [(lambda pi: composite(pi, "mak") + binv(pi), "p"), ("cinvlsb", "q")],
    )
    rhs = LaurentPolynomial.variable("q", comb(2, 2)) * pq_factorial(2) * stirling_pq(4, 2)
    assert lhs == rhs


def test_distribution_counts_at_one():
    poly = distribution(ordered_set_partitions(4, 2), [("mak", "p")])
    assert poly.evaluate() == factorial(2) * stirling2(4, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: LaurentPolynomial.variable("z"),
        lambda: Q.truncate("z", 2),
        lambda: q_int(3, "z"),
        lambda: distribution(ordered_set_partitions(3), [("mak", "z")]),
    ],
    ids=["variable", "truncate", "q_int", "distribution"],
)
def test_an_unknown_variable_is_refused_by_name(call):
    with pytest.raises(ValueError, match=r"unknown variable 'z'; the variables are p, q, t, x"):
        call()
