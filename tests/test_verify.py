import importlib
import json
from math import factorial

import pytest

from opstat.core import OrderedSetPartition
from opstat.families import DeskScaleError, beta, stirling2
from opstat.qpoly import LaurentPolynomial, q_factorial
from opstat.verify import THEOREM_IDS, run_task, verify


def test_unknown_id():
    with pytest.raises(ValueError, match="unknown theorem id"):
        verify("thm9.9", n=3, k=2)


def test_missing_parameter_is_named():
    with pytest.raises(ValueError, match="missing parameter k"):
        verify("thm3.2", n=3)


def test_unknown_parameter_is_named():
    with pytest.raises(ValueError, match="unknown parameter bogus"):
        verify("zezh", n=3, k=2, bogus=1)
    assert verify("zezh", n=3, k=2, allow_large=True).passed


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)])
def test_em_identities_small(n, k):
    assert verify("thm3.2", n=n, k=k).passed
    assert verify("thm3.4", n=n, k=k).passed


def test_thm31_all_sigmas_small():
    from opstat.families import permutations

    for n in range(1, 6):
        for k in range(1, min(n, 3) + 1):
            for sigma in permutations(k):
                report = verify("thm3.1", n=n, k=k, sigma=sigma)
                assert report.passed, str(report)


def test_thm33_small():
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert verify("thm3.3", n=n, k=k).passed


def test_thm35_worked_example():
    report = verify("thm3.5", pi="1 4/2 3/5")
    assert report.passed
    assert report.rhs == q_factorial(3)


def test_thm35_fails_when_beta_maps_to_one_rearrangement(monkeypatch):
    pi0 = OrderedSetPartition.parse("1 4/2 3/5")
    fixed = OrderedSetPartition.parse("2 3/5/1 4")
    monkeypatch.setattr(importlib.import_module("opstat.verify"), "beta", lambda pi, c: fixed)
    report = verify("thm3.5", pi=pi0)
    assert not report.passed and report.to_json()["pass"] is False
    assert report.counterexample


def test_thm35_fails_when_beta_leaves_the_class(monkeypatch):
    # beta of another standard form with the same type realises the same MAJ
    # and round-trips through beta_inv; only class membership tells them apart
    pi0 = OrderedSetPartition.parse("1 3/2 4")
    other = OrderedSetPartition.parse("1 4/2 3")
    assert other.partition_type() == pi0.partition_type()
    monkeypatch.setattr(importlib.import_module("opstat.verify"), "beta", lambda pi, c: beta(other, c))
    report = verify("thm3.5", pi=pi0)
    assert not report.passed
    assert report.counterexample == "beta((0, 0)) leaves the rearrangement class at 1 4/2 3"


def test_trefinements_build_sigma_once_per_object(monkeypatch):
    calls = []
    standard_form = OrderedSetPartition.standard_form
    monkeypatch.setattr(
        OrderedSetPartition, "standard_form", lambda pi: calls.append(pi) or standard_form(pi)
    )
    n, k = 5, 3
    assert verify("eq5.8", n=n, k=k).passed
    assert len(calls) == factorial(k) * stirling2(n, k)
    calls.clear()
    assert verify("eq9.2", n=n, k=k).passed
    assert calls == []


# Planted defects: each test breaks one piece of a transport check and
# expects the check to fail with the first violating object.

_TARGET = OrderedSetPartition.parse("4/1 3/2")  # n = 4, k = 3, sigma = 3 1 2
_ROS, _ROS_OS, _BMAJ = 1, 5, 8  # entries of the kernel tuple


def _kernel_off_by_one(monkeypatch, index):
    """Raise entry ``index`` of the block-pair kernel by one on _TARGET only."""
    statistics = importlib.import_module("opstat.statistics")
    kernel = statistics._pair_counts

    def planted(blocks):
        counts = kernel(blocks)
        if blocks == _TARGET.blocks:
            counts = counts[:index] + (counts[index] + 1,) + counts[index + 1:]
        return counts

    monkeypatch.setattr(statistics, "_pair_counts", planted)


def _assert_fails_at(report, counterexample):
    assert not report.passed and report.to_json()["pass"] is False
    assert report.counterexample == counterexample


def test_thm33_fails_when_upsilon_returns_its_input(monkeypatch):
    monkeypatch.setattr(importlib.import_module("opstat.verify"), "upsilon", lambda pi: pi)
    _assert_fails_at(verify("thm3.3", n=4, k=3), "triple transport fails: 1 2/4/3 -> 1 2/4/3")


def test_thm31_fails_when_xi_returns_its_input(monkeypatch):
    monkeypatch.setattr(importlib.import_module("opstat.verify"), "xi_map", lambda pi: pi)
    _assert_fails_at(
        verify("thm3.1", n=4, k=3, sigma="312"), "triple swap fails: 4/1 2/3 -> 4/1 2/3"
    )


@pytest.mark.parametrize(
    "theorem,params,index,counterexample",
    [
        ("thm3.1", dict(n=4, k=3, sigma="312"), _ROS, "triple swap fails: 4/1 3/2 -> 3/1/2 4"),
        ("thm3.1", dict(n=4, k=3, sigma="312"), _ROS_OS, "rsb_TC changes: 4/1 3/2 -> 3/1/2 4"),
        ("thm3.3", dict(n=4, k=3), _ROS, "triple transport fails: 1 3/4/2 -> 4/1 3/2"),
        ("thm3.3", dict(n=4, k=3), _ROS_OS, "rsb_TC changes: 1 3/4/2 -> 4/1 3/2"),
        ("thm3.5", dict(pi=_TARGET), _ROS_OS, "MAJ(beta((0, 0, 1))) != 1 at 4/1 3/2"),
    ],
)
def test_transport_checks_fail_when_the_kernel_is_off_by_one(
    monkeypatch, theorem, params, index, counterexample
):
    _kernel_off_by_one(monkeypatch, index)
    _assert_fails_at(verify(theorem, **params), counterexample)


def test_thm31_fails_when_the_rhs_is_multiplied_by_q(monkeypatch):
    # the transport still holds, so the only witness is the polynomial pair
    from opstat.qpoly import stirling_pq

    q = LaurentPolynomial.variable("q")
    monkeypatch.setattr(
        importlib.import_module("opstat.verify"), "stirling_pq", lambda n, k: q * stirling_pq(n, k)
    )
    report = verify("thm3.1", n=4, k=3, sigma="312")
    assert not report.passed and report.to_json()["pass"] is False
    assert report.detail == "identity or transport failure"
    assert report.counterexample is None
    assert report.lhs * q == report.rhs


def test_thm33_names_the_type_of_a_per_type_mismatch(monkeypatch):
    # with the upsilon check off, a bMaj raised on one object leaves only the
    # per-type comparison to catch it
    verify_module = importlib.import_module("opstat.verify")
    monkeypatch.setattr(verify_module, "_upsilon_violation", lambda *args: None)
    assert verify("thm3.3", n=4, k=3).passed
    _kernel_off_by_one(monkeypatch, _BMAJ)
    _assert_fails_at(verify("thm3.3", n=4, k=3), "type ({1},{3},{2,4},{})")


def test_eq11_smallest():
    report = verify("eq1.1", parts=(1, 1))
    assert report.passed
    assert report.lhs == 1 + LaurentPolynomial.variable("q")


def test_eq23_and_refinements():
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert verify("eq2.3", n=n, k=k).passed
            assert verify("eq5.8", n=n, k=k).passed
            assert verify("eq9.2", n=n, k=k).passed


def test_zezh_diagonal_reduces_to_factorial():
    report = verify("zezh", n=4, k=4)
    assert report.passed
    from opstat.qpoly import stirling_q

    assert report.lhs == q_factorial(4) * stirling_q(4, 4)


def test_doubleton_small():
    for parts in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]:
        assert verify("doubleton", parts=parts).passed


def test_report_json_schema():
    report = verify("thm3.2", n=3, k=2)
    payload = report.to_json()
    assert payload["theorem"] == "thm3.2"
    assert payload["pass"] is True
    assert isinstance(payload["lhs"], str) and isinstance(payload["rhs"], str)
    json.dumps(payload)  # serialisable


def test_run_task_entry_point():
    report = run_task(("zezh", {"n": 3, "k": 2}))
    assert report.passed


def test_all_ids_are_runnable():
    params = {
        "thm3.1": dict(n=3, k=2, sigma="21"),
        "thm3.2": dict(n=3, k=2),
        "thm3.3": dict(n=3, k=2),
        "thm3.4": dict(n=3, k=2),
        "thm3.5": dict(pi="1 2/3"),
        "eq1.1": dict(parts=(1, 2)),
        "eq2.3": dict(n=3, k=2),
        "eq5.8": dict(n=3, k=2),
        "eq9.2": dict(n=3, k=2),
        "zezh": dict(n=3, k=2),
        "doubleton": dict(parts=(1, 1)),
    }
    assert set(params) == set(THEOREM_IDS)
    for theorem, kwargs in params.items():
        assert verify(theorem, **kwargs).passed


def test_desk_scale_guard_sizes_partition_and_composition_checks():
    # the guard reads the ground set: n of pi, sum(parts) letters of a
    # word, 2 * sum(parts) elements of a doubleton partition
    with pytest.raises(DeskScaleError):
        verify("thm3.5", pi="/".join(map(str, range(1, 15))))
    with pytest.raises(DeskScaleError):
        verify("eq1.1", parts=(9, 9, 9))
    with pytest.raises(DeskScaleError):
        verify("doubleton", parts=(7,))
    assert verify("doubleton", parts=(7,), allow_large=True).passed


def test_distribution_merge_is_order_independent():
    # partial distribution polynomials from family chunks merge associatively
    from opstat.families import ordered_set_partitions
    from opstat.qpoly import distribution

    members = list(ordered_set_partitions(5, 2))
    chunks = [members[0::3], members[1::3], members[2::3]]
    weights = [("mak", "p"), ("cinvlsb", "q")]
    parts = [distribution(chunk, weights) for chunk in chunks]
    merged_forward = parts[0] + parts[1] + parts[2]
    merged_backward = parts[2] + (parts[1] + parts[0])
    assert merged_forward == merged_backward == distribution(members, weights)


def test_comparator_reports_counterexamples():
    # feed the harness a bogus claim by checking a class against the wrong
    # closed form: [k]_q! over a class whose blocks interleave is fine, so
    # instead check that a deliberately perturbed polynomial comparison fails
    report = verify("thm3.5", pi="1 3/2 4")
    assert report.passed
    assert report.lhs == q_factorial(2)
    assert not (report.lhs == q_factorial(2) + 1)
