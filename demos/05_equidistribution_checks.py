#!/usr/bin/env python3
"""Exhaustive verification of the distribution identities at desk scale.

Each check enumerates a finite family, folds the statistics into an exact
two- or three-variable polynomial, and compares against the closed form.
"""
from opstat import ordered_set_partitions
from opstat.qpoly import distribution, pq_factorial, stirling_pq, LaurentPolynomial
from opstat.statistics import binv, stat
from opstat.verify import verify

print("The flagship identity: summing p^(mak+bInv) q^cinvLSB over all")
print("ordered partitions of [n] with k blocks gives q^C(k,2) [k]_pq! S_pq(n,k).\n")

n, k = 5, 3
lhs = distribution(
    ordered_set_partitions(n, k),
    [(lambda pi: stat(pi, "mak") + binv(pi), "p"), ("cinvlsb", "q")],
)
rhs = LaurentPolynomial.variable("q", k * (k - 1) // 2) * pq_factorial(k) * stirling_pq(n, k)
print(f"n={n}, k={k}:")
print(f"  enumerated: {lhs.to_text()}")
print(f"  closed form: {rhs.to_text()}")
print(f"  equal: {lhs == rhs}\n")

print("The verification harness packages these comparisons:\n")
for theorem, params in [
    ("thm3.2", dict(n=6, k=3)),
    ("thm3.4", dict(n=6, k=3)),
    ("thm3.1", dict(n=6, k=3, sigma="231")),
    ("thm3.3", dict(n=6, k=3)),
    ("thm3.5", dict(pi="1 4/2 3/5")),
    ("eq2.3", dict(n=7, k=3)),
    ("eq5.8", dict(n=6, k=3)),
    ("eq9.2", dict(n=6, k=3)),
    ("eq1.1", dict(parts=(2, 2, 1))),
    ("doubleton", dict(parts=(2, 1, 1))),
    ("zezh", dict(n=7, k=4)),
]:
    print(" ", verify(theorem, **params))

print("\nEvery identity is also checked across full parameter ranges in the")
print("acceptance suite: pytest tests/test_acceptance.py -s")
