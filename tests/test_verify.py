import importlib
import json
import random
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


# Planted defects in the distribution comparisons: each plant is seen by one
# compared LHS slot only, so a check that drops that slot's comparison passes
# it.  Where the report displays another slot, the displayed pair stays equal.

_Q = LaurentPolynomial.variable("q")
_VERIFY = "opstat.verify"


def _plant(monkeypatch, name, target, change):
    """Make ``opstat.verify.<name>`` return ``change(value)`` at ``target``."""
    module = importlib.import_module(_VERIFY)
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda obj: change(original(obj)) if obj == target else original(obj)
    )


def _stand_in(monkeypatch, generator, member, stand_in):
    """Make the family generator ``opstat.verify.<generator>`` yield
    ``stand_in`` where it would yield ``member``."""
    module = importlib.import_module(_VERIFY)
    original = getattr(module, generator)
    monkeypatch.setattr(
        module, generator, lambda *args: (stand_in if x == member else x for x in original(*args))
    )


def _bump(index):
    """Raise entry ``index`` of a tuple or a profile dict by one."""
    if isinstance(index, str):
        return lambda profile: {**profile, index: profile[index] + 1}
    return lambda values: values[:index] + (values[index] + 1,) + values[index + 1:]


def _swap(monkeypatch, key, x, y):
    """Exchange the profile entry ``key`` of partitions ``x`` and ``y``."""
    from opstat.statistics import aggregate_profile

    x, y = OrderedSetPartition.parse(x), OrderedSetPartition.parse(y)
    value_x, value_y = aggregate_profile(x)[key], aggregate_profile(y)[key]
    _plant(monkeypatch, "aggregate_profile", x, lambda profile: {**profile, key: value_y})
    _plant(monkeypatch, "aggregate_profile", y, lambda profile: {**profile, key: value_x})


def _parsed(text):
    return OrderedSetPartition.parse(text)


_DOUBLETON = _parsed("5 6/1 3/2 4")  # a rearrangement of doubleton_partition((2, 1))
_INV, _MAJ = 7, 8  # entries of transport_side
_SLOT_PLANTS = [
    # id, parameters, plant, whether the plant reaches the displayed LHS
    ("thm3.2", dict(n=4, k=3), lambda mp: _plant(mp, "table_composites", _TARGET, _bump(0)), True),
    ("thm3.2", dict(n=4, k=3), lambda mp: _plant(mp, "table_composites", _TARGET, _bump(1)), False),
    ("thm3.4", dict(n=4, k=3), lambda mp: _plant(mp, "table_composites", _TARGET, _bump(3)), True),
    ("thm3.4", dict(n=4, k=3), lambda mp: _plant(mp, "table_composites", _TARGET, _bump(4)), False),
    ("eq2.3", dict(n=4, k=3), lambda mp: _plant(mp, "aggregate_profile", _parsed("1 3/2/4"), _bump("rcb")), True),
    ("eq9.2", dict(n=4, k=3), lambda mp: _plant(mp, "aggregate_profile", _TARGET, _bump("cls")), True),
    ("eq9.2", dict(n=4, k=3), lambda mp: _plant(mp, "aggregate_profile", _TARGET, _bump("opb")), False),
    # the two partitions share rsb_TC, sb and inv (maj) of the class
    # permutation, so only the slot pairing the swapped entry with maj (inv)
    # sees the swap
    ("eq5.8", dict(n=4, k=3), lambda mp: _swap(mp, "cls", "1 2/4/3", "2 3/4/1"), True),
    ("eq5.8", dict(n=4, k=3), lambda mp: _swap(mp, "cls", "1 2/4/3", "2 3/1/4"), False),
    ("eq5.8", dict(n=4, k=3), lambda mp: _swap(mp, "opb", "1 2/4/3", "2 3/4/1"), False),
    ("eq5.8", dict(n=4, k=3), lambda mp: _swap(mp, "opb", "1 2/4/3", "2 3/1/4"), False),
    ("eq1.1", dict(parts=(2, 1)), lambda mp: _plant(mp, "inversion_number", (2, 1, 1), lambda v: v + 1), True),
    ("eq1.1", dict(parts=(2, 1)), lambda mp: _plant(mp, "major_index", (2, 1, 1), lambda v: v + 1), False),
    ("doubleton", dict(parts=(2, 1)), lambda mp: _plant(mp, "transport_side", _DOUBLETON, _bump(_MAJ)), True),
    ("doubleton", dict(parts=(2, 1)), lambda mp: _plant(mp, "transport_side", _DOUBLETON, _bump(_INV)), False),
    # a duplicate stands in for a sigma-class member that differs from it
    # only in mak+bInv (mak'+bInv); the xi transport holds on both
    ("thm3.1", dict(n=4, k=2, sigma="21"),
     lambda mp: _stand_in(mp, "sigma_partitions", _parsed("2 3/1 4"), _parsed("3/1 2 4")), True),
    ("thm3.1", dict(n=4, k=2, sigma="21"),
     lambda mp: _stand_in(mp, "sigma_partitions", _parsed("2 3/1 4"), _parsed("2/1 3 4")), False),
    # a duplicate stands in for a class member with the same INV (MAJ);
    # beta still covers the class
    ("thm3.5", dict(pi="1 3/2/4"),
     lambda mp: _stand_in(mp, "rearrangements", _parsed("2/1 3/4"), _parsed("1 3/4/2")), True),
    ("thm3.5", dict(pi="1 3/2/4"),
     lambda mp: _stand_in(mp, "rearrangements", _parsed("4/2/1 3"), _parsed("1 3/4/2")), False),
]


@pytest.mark.parametrize(
    "theorem,params,plant,shown",
    _SLOT_PLANTS,
    ids=[f"{theorem}-{i}" for i, (theorem, *_) in enumerate(_SLOT_PLANTS)],
)
def test_distribution_checks_fail_when_one_slot_is_off(monkeypatch, theorem, params, plant, shown):
    assert verify(theorem, **params).passed
    plant(monkeypatch)
    report = verify(theorem, **params)
    assert not report.passed and report.to_json()["pass"] is False
    assert report.counterexample is None
    assert (report.lhs != report.rhs) is shown


_RHS_TIMES_Q = [
    # id, parameters, the name on opstat.verify whose value the RHS takes
    ("thm3.2", dict(n=4, k=3), "stirling_pq"),
    ("thm3.4", dict(n=4, k=3), "stirling_pq"),
    ("eq2.3", dict(n=4, k=3), "stirling_pq"),
    ("eq5.8", dict(n=4, k=3), "stirling_pq"),
    ("eq9.2", dict(n=4, k=3), "stirling_pq"),
    ("eq1.1", dict(parts=(2, 1)), "_q_multinomial"),
]


@pytest.mark.parametrize("theorem,offset", [("thm3.2", 0), ("thm3.4", 3)])
def test_em_sweeps_see_one_raised_pair_table_entry_in_slot_0_only(monkeypatch, theorem, offset):
    # mak, for 4 left of 1 3 only: the table of 4/1 3/2 adds it to the three
    # block orders that put 4 left of 1 3, and mak' does not read it
    statistics = importlib.import_module("opstat.statistics")
    terms = statistics._pair_terms

    def planted(left, right):
        mak, *rest = terms(left, right)
        return (mak + 1, *rest) if (left, right) == ((4,), (1, 3)) else (mak, *rest)

    monkeypatch.setattr(statistics, "_pair_terms", planted)
    monkeypatch.setattr(statistics, "_table", ({}, 0))  # no table built before the plant
    (mak_slot, makp_slot), _ = importlib.import_module(_VERIFY)._em_sweep(offset, 4, 3)
    assert mak_slot[0] != mak_slot[1]
    assert makp_slot[0] == makp_slot[1]
    report = verify(theorem, n=4, k=3)
    assert not report.passed and report.to_json()["pass"] is False
    assert report.counterexample is None
    assert report.lhs != report.rhs


def test_em_sweep_counts_match_the_reference_kernel():
    from opstat.families import ordered_set_partitions
    from opstat.qpoly import _tally
    from opstat.statistics import six_composites

    module = importlib.import_module(_VERIFY)
    for n in range(1, 8):
        for k in range(1, n + 1):
            reference, _ = _tally(
                map(six_composites, ordered_set_partitions(n, k)),
                lambda c: module._em_pair(0, c) + module._em_pair(3, c),
                4,
            )
            for offset, expected in ((0, reference[:2]), (3, reference[2:])):
                pairs, _ = module._em_sweep(offset, n, k)
                assert [lhs for lhs, _ in pairs] == [LaurentPolynomial(c) for c in expected]


def test_em_reports_do_not_depend_on_the_family_order(monkeypatch):
    # each object is read from the table of its own blocks, whether or not
    # the block orders of one standard form come together
    module = importlib.import_module(_VERIFY)
    original = module.ordered_set_partitions
    cases = [(theorem, k) for theorem in ("thm3.2", "thm3.4") for k in range(1, 7)]
    expected = [verify(theorem, n=6, k=k).to_json() for theorem, k in cases]

    def shuffled(*args, **kwargs):
        family = list(original(*args, **kwargs))
        random.Random(0).shuffle(family)
        return iter(family)

    monkeypatch.setattr(module, "ordered_set_partitions", shuffled)
    assert [verify(theorem, n=6, k=k).to_json() for theorem, k in cases] == expected


@pytest.mark.parametrize("theorem,params,name", _RHS_TIMES_Q)
def test_distribution_checks_fail_when_the_rhs_is_multiplied_by_q(monkeypatch, theorem, params, name):
    module = importlib.import_module(_VERIFY)
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: _Q * original(*args))
    report = verify(theorem, **params)
    assert not report.passed and report.counterexample is None
    assert report.lhs * _Q == report.rhs


def test_doubleton_fails_when_the_word_side_is_multiplied_by_q(monkeypatch):
    # both word distributions gain a factor q, so the RHS does
    module = importlib.import_module(_VERIFY)
    word_pair = module._word_pair
    monkeypatch.setattr(
        module, "_word_pair", lambda w: tuple((p, q + 1, t, r) for p, q, t, r in word_pair(w))
    )
    report = verify("doubleton", parts=(2, 1))
    assert not report.passed and report.counterexample is None
    assert report.lhs * _Q == report.rhs


def test_doubleton_names_the_first_split_failure(monkeypatch):
    _plant(monkeypatch, "major_index", (2, 1, 1), lambda v: v + 1)
    assert not verify("eq1.1", parts=(2, 1)).passed
    _assert_fails_at(
        verify("doubleton", parts=(2, 1)), "block stats differ from word stats at 5 6/1 3/2 4"
    )


@pytest.mark.parametrize("side,name", [("lhs", "stirling_q"), ("rhs", "carlitz_aq")])
def test_zezh_fails_when_one_side_is_multiplied_by_q(monkeypatch, side, name):
    # the plant reaches the recursion's own calls, so its cache holds
    # planted values until it is cleared
    qpoly = importlib.import_module("opstat.qpoly")
    original = getattr(qpoly, name)
    try:
        with monkeypatch.context() as m:
            m.setattr(qpoly, name, lambda n, k: _Q * original(n, k))
            report = verify("zezh", n=4, k=2)
    finally:
        original.cache_clear()
    assert not report.passed and report.counterexample is None
    assert report.lhs != report.rhs
    assert report.to_json()[side] != verify("zezh", n=4, k=2).to_json()[side]
    assert verify("zezh", n=4, k=2).passed


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


@pytest.mark.parametrize(
    "theorem,parts", [("eq1.1", ()), ("eq1.1", (0,)), ("doubleton", ()), ("doubleton", (0, 0))]
)
def test_composition_checks_refuse_an_empty_sum(theorem, parts):
    # one empty word or partition would "pass" without checking anything
    with pytest.raises(ValueError, match="parts must have a positive sum"):
        verify(theorem, parts=parts)


def test_zero_parts_inside_a_composition_are_allowed():
    assert verify("eq1.1", parts=(2, 0, 1)).passed
    assert verify("doubleton", parts=(1, 0, 1)).passed


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
