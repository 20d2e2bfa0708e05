from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_text_rendering():
    assert (2 * P + Q).to_text() == "2*p + q"
    assert (P ** 2 - 1).to_text() == "p^2 - 1"
    assert LaurentPolynomial.variable("p", -2).to_text() == "p^-2"
    assert ZERO.to_text() == "0"


def test_json_rendering():
    assert (2 * P + Q).to_json() == [[2, 1, 0, 0, 0], [1, 0, 1, 0, 0]]


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
