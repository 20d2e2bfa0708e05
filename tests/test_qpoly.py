import json
import sys
from itertools import product
from math import comb, factorial, prod

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
from opstat.qpoly import _schoolbook_mul

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


# ---------------------------------------------------------------------------
# Multiplication routes: every product against the schoolbook reference
# ---------------------------------------------------------------------------

EDGE_COEFFS = [2**63 - 1, -(2**63), 255, 256, -255, -256, 2**200, -(2**200)]
coefficients = st.integers(-(2**200), 2**200) | st.integers(-300, 300) | st.sampled_from(EDGE_COEFFS)
# a box of 3 * 3 * 2 * 2 exponent vectors, negative in every variable, so
# that many products fill their box and take the dense route
box_polynomials = st.dictionaries(
    st.tuples(st.integers(-2, 0), st.integers(-1, 1), st.integers(-1, 0), st.integers(-1, 0)),
    coefficients,
    max_size=36,
).map(LaurentPolynomial)


def assert_schoolbook_product(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    result = a * b
    assert result.terms == _schoolbook_mul(a.terms, b.terms)
    assert 0 not in result.terms.values()
    return result


@settings(max_examples=300)
@given(box_polynomials | polynomials, box_polynomials | polynomials)
def test_product_matches_schoolbook(a, b):
    assert_schoolbook_product(a, b)


def edge_poly(coeff: int) -> LaurentPolynomial:
    """coeff * (1 + q): the middle coefficient of its product with (1 + q)
    is twice coeff, one bit past coeff."""
    return coeff * (1 + Q)


MIXED = LaurentPolynomial({(-1, -2, -1, -3): 5, (0, -1, -2, -1): -7, (-2, 0, 0, -2): 3, (-1, -1, -1, -1): -1})
# (1 - p)(2 + q)(1 - t)(3 - x) / (pqtx): 16 signed terms filling the box {-1, 0}^4
FULL = LaurentPolynomial({
    (i - 1, j - 1, k - 1, m - 1): (-1) ** (i + k) * (2 - j) * (3 - 4 * m)
    for i, j, k, m in product((0, 1), repeat=4)
})
ROUTE_CASES = {
    # name: (a, b, expected route)
    "negative exponents in all four variables": (FULL, 3 - FULL, "kronecker"),
    "sparse, negative exponents in all four variables": (MIXED, MIXED - FULL, "schoolbook"),
    "coefficients of 2^200": (2**200 - Q, -(2**200) + 3 * Q, "kronecker"),
    "coefficients of 2^200 in four variables": (2**200 * FULL, FULL - 2**200, "kronecker"),
    "2^63 - 1": (edge_poly(2**63 - 1), 1 + Q, "kronecker"),
    "-2^63": (edge_poly(-(2**63)), 1 + Q, "kronecker"),
    "255": (edge_poly(255), 1 + Q, "kronecker"),
    "256": (edge_poly(256), 1 - Q, "kronecker"),
    "-256 * (2^63 - 1)": (edge_poly(-256), edge_poly(2**63 - 1), "kronecker"),
    "(1 - q)(1 + q)": (1 - Q, 1 + Q, "kronecker"),
    "(p - q)(p + q)": (P - Q, P + Q, "schoolbook"),
    "(p - q)(1 + p)(1 + q) times (p + q)(1 + p)(1 + q)": ((P - Q) * (1 + P) * (1 + Q), (P + Q) * (1 + P) * (1 + Q), "kronecker"),
    "(1 + p^50)(1 + q^50)": (1 + P**50, 1 + Q**50, "schoolbook"),
    "monomial on the left": (LaurentPolynomial.monomial(-3, -2, 0, 0, 1), MIXED, "monomial"),
    "monomial on the right": (MIXED, LaurentPolynomial.monomial(2**70, -1, 2, -3, 4), "monomial"),
}


def routes_taken(monkeypatch, a: LaurentPolynomial, b: LaurentPolynomial) -> tuple[LaurentPolynomial, list[str]]:
    """a * b, and the multiplication routes it called."""
    taken = []
    with monkeypatch.context() as patch:
        for route in ("monomial", "kronecker", "schoolbook"):
            fn = getattr(qpoly, f"_{route}_mul")
            patch.setattr(qpoly, f"_{route}_mul", lambda *args, fn=fn, route=route: taken.append(route) or fn(*args))
        result = a * b
    return result, taken


@pytest.mark.parametrize("name", sorted(ROUTE_CASES))
def test_fixed_products_take_their_route(monkeypatch, name):
    a, b, route = ROUTE_CASES[name]
    result, taken = routes_taken(monkeypatch, a, b)
    assert taken == [route]
    assert result.terms == _schoolbook_mul(a.terms, b.terms)
    assert b * a == result


def test_each_route_is_taken(monkeypatch):
    taken = set()
    for a, b, _ in ROUTE_CASES.values():
        taken.update(routes_taken(monkeypatch, a, b)[1])
    assert taken == {"monomial", "kronecker", "schoolbook"}


def test_products_that_cancel():
    assert assert_schoolbook_product(1 - Q, 1 + Q) == 1 - Q**2
    assert assert_schoolbook_product(P - Q, P + Q) == P**2 - Q**2
    box = (1 + P) * (1 + Q)
    assert assert_schoolbook_product((P - Q) * box, (P + Q) * box) == (P**2 - Q**2) * box * box
    assert assert_schoolbook_product(1 - P * Q, 1 + P * Q + (P * Q) ** 2) == 1 - (P * Q) ** 3
    assert assert_schoolbook_product(edge_poly(-(2**63)), 1 - Q) == -(2**63) * (1 - Q**2)
    # (x; q)_n one factor at a time
    poly = ONE
    for i in range(8):
        poly = assert_schoolbook_product(poly, 1 - X * Q**i)
    assert poly == pochhammer(8)
    assert poly.evaluate(x=1) == 0


def test_products_with_integers_and_zero():
    a = MIXED
    assert 3 * a == a * 3 == a + a + a
    assert (-1) * a == -a
    assert 0 * a == a * 0 == ZERO * a == a * ZERO == ZERO
    assert ZERO * ZERO == ZERO
    assert 1 * a == a
    assert (3 * a).terms == {e: 3 * c for e, c in a.terms.items()}


def test_s_hat_products_match_schoolbook():
    # p^(-n) [k]_{p,q} S_hat(n-1,k): a Laurent factor whose box the rule
    # may send to the schoolbook
    for n in range(2, 10):
        for k in range(1, n):
            left = assert_schoolbook_product(LaurentPolynomial.variable("p", -n), pq_int(k))
            assert_schoolbook_product(left, s_hat_pq(n - 1, k))
            assert_schoolbook_product(LaurentPolynomial.variable("q", k - 1), s_hat_pq(n - 1, k - 1))


def test_slot_width_holds_the_bound_and_a_sign_bit():
    for bound in (1, 127, 128, 255, 2**15 - 1, 2**15, 2**31, 2**63 - 1, 2**63, 2**64, 2**200):
        for signed in (True, False):
            width = qpoly._slot_width(bound, signed)
            assert bound < 2 ** (8 * width - signed)
            # a machine integer's size, else the fewest whole 8-byte words
            need = (bound.bit_length() + signed + 7) // 8
            assert width == min((size for size in (1, 2, 4, 8) if size >= need), default=8 * -(-need // 8))


def test_pack_unpack_roundtrip():
    # the one writer and reader, for every slot width the layouts use
    for width in (1, 2, 4, 8, 16, 24, 32):
        for signed in (True, False):
            top = 2 ** (8 * width - signed) - 1
            values = [0, 1, top, 0, 5, 2] + ([-1, -top - 1, -5] if signed else [7, top - 1, 3])
            box = [range(1), range(-3, -3 + len(values)), range(1), range(1)]
            layout = qpoly._Layout(box, top, signed, width)
            terms = {(0, e, 0, 0): v for e, v in zip(box[1], values) if v}
            columns = list(zip(*terms))
            packed = layout.write(terms, (0, -3, 0, 0), columns)
            assert packed == sum(v * 256 ** (width * i) for i, v in enumerate(values))
            assert layout.read(packed)[0] == terms
            # coefficients in slot order, with no gap: the slots are the values
            dense = {(0, e, 0, 0): v or 9 for e, v in zip(box[1], values)}
            assert layout.read(layout.write(dense, (0, -3, 0, 0), None))[0] == dense
    # a gap-free box whose rows are not consecutive slots of the layout
    layout = qpoly._Layout([range(3), range(4), range(1), range(2)], 100, False)
    for box in ([range(2), range(1, 3), range(1), range(2)], [range(3), range(1), range(1), range(1)]):
        dense = {e: i + 1 for i, e in enumerate(product(*box))}
        origin = [r.start for r in box]
        assert layout.read(layout.write(dense, origin, None), origin)[0] == dense


def test_a_layout_one_bit_short_of_its_bound_is_refused():
    box = [range(2)] * 4
    for signed in (True, False):
        for width in (1, 2, 4, 8, 16, 24):
            bound = 2 ** (8 * width - signed) - 1
            assert qpoly._Layout(box, bound, signed, width).width == width
            with pytest.raises(ValueError, match="cannot hold coefficients"):
                qpoly._Layout(box, bound + 1, signed, width)
    with pytest.raises(ValueError, match="cannot hold coefficients"):
        qpoly._Layout(box, 1, True, 3)  # no machine integer and not whole words
    with pytest.raises(ValueError, match="nonempty range per variable"):
        qpoly._Layout([range(2), range(0), range(1), range(1)], 1)


def test_an_unsigned_layout_refuses_a_negative_coefficient():
    box = [range(1), range(3), range(1), range(1)]
    for width in (1, 8, 16):
        layout = qpoly._Layout(box, 2 ** (8 * width - 1), False, width)
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

    assert chain(n) == Q**n
    assert binomial(n, 3) == comb(n, 3)
    assert binomial(n, n - 2) == comb(n, 2)
    assert chain.__name__ == "chain" and binomial.cache_info().currsize > 0


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
    # the filled cells are never read
    fn.cache_clear()
    fn(n)
    assert fn.cache_info().currsize == n + 1


def test_recursions_keep_their_names_and_caches():
    for fn in (q_factorial, pq_factorial, gauss_binomial, stirling_pq, stirling_q, s_hat_pq, carlitz_aq):
        assert getattr(qpoly, fn.__name__) is fn
        assert fn.__module__ == "opstat.qpoly"
        fn.cache_clear()
        assert fn.cache_info().currsize == 0


RECURSIONS = (gauss_binomial, stirling_pq, stirling_q, s_hat_pq, carlitz_aq)


def clear_recursions():
    for fn in RECURSIONS + (q_factorial, pq_factorial):
        fn.cache_clear()


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
    for order in (range(15), range(14, -1, -1)):
        clear_recursions()
        for k in order:
            assert fn(k, *args) == reference(k, *args), k


def test_stirling_pq_matches_the_reference_at_22():
    clear_recursions()
    for k in range(23):
        assert stirling_pq(22, k) == qpoly_reference.stirling_pq(22, k), k


def test_s_hat_pq_matches_the_reference_with_negative_p_exponents():
    clear_recursions()
    for n in range(13):
        for k in range(n + 1):
            poly = s_hat_pq(n, k)
            assert poly == qpoly_reference.s_hat_pq(n, k), (n, k)
            assert k in (0, n) or min(e[0] for e in poly.terms) < 0


def test_fill_caches_the_cells_its_targets_reach():
    clear_recursions()
    stirling_q.fill([(12, k) for k in range(13)])
    # and the zero cells (n, n + 1) that the diagonal reads
    assert stirling_q.cache_info().currsize == sum(n + 1 for n in range(13)) + 12
    before = stirling_q.cache_info().misses
    assert [stirling_q(n, k) for n in range(13) for k in range(n + 1)] == [
        qpoly_reference.stirling_q(n, k) for n in range(13) for k in range(n + 1)
    ]
    assert stirling_q.cache_info().misses == before


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
    assert json.loads(poly.to_json_text()) == poly.to_json()


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
