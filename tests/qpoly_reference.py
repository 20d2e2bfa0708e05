"""The reference for the packed recursions of ``opstat.qpoly``: each
recursion written with ``LaurentPolynomial`` arithmetic, one cell from the
two below it, as the package computed them before they were packed."""
from functools import cache

from opstat.qpoly import ONE, ZERO, LaurentPolynomial, pq_int, q_int


def _power(var: str, exp: int) -> LaurentPolynomial:
    return LaurentPolynomial.variable(var, exp)


@cache
def q_factorial(k: int, var: str = "q") -> LaurentPolynomial:
    return ONE if k == 0 else q_factorial(k - 1, var) * q_int(k, var)


@cache
def pq_factorial(k: int) -> LaurentPolynomial:
    return ONE if k == 0 else pq_factorial(k - 1) * pq_int(k)


@cache
def gauss_binomial(n: int, k: int) -> LaurentPolynomial:
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return gauss_binomial(n - 1, k - 1) + _power("q", k) * gauss_binomial(n - 1, k)


@cache
def stirling_pq(n: int, k: int) -> LaurentPolynomial:
    if n == 0 and k == 0:
        return ONE
    if k <= 0 or k > n:
        return ZERO
    return _power("p", k - 1) * stirling_pq(n - 1, k - 1) + pq_int(k) * stirling_pq(n - 1, k)


@cache
def stirling_q(n: int, k: int) -> LaurentPolynomial:
    if n == 0 and k == 0:
        return ONE
    if k <= 0 or k > n:
        return ZERO
    return _power("q", k - 1) * stirling_q(n - 1, k - 1) + q_int(k) * stirling_q(n - 1, k)


@cache
def s_hat_pq(n: int, k: int) -> LaurentPolynomial:
    if n == 0 and k == 0:
        return ONE
    if k <= 0 or k > n:
        return ZERO
    return _power("q", k - 1) * s_hat_pq(n - 1, k - 1) + _power("p", -n) * pq_int(k) * s_hat_pq(n - 1, k)


@cache
def carlitz_aq(n: int, k: int) -> LaurentPolynomial:
    if n == 0:
        return ONE if k == 0 else ZERO
    if k < 0 or k >= n:
        return ZERO
    return _power("q", k) * q_int(n - k) * carlitz_aq(n - 1, k - 1) + q_int(k + 1) * carlitz_aq(n - 1, k)
