import importlib
import importlib.util
import itertools
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from order_reference import order_row

from opstat.core import OrderedSetPartition, Permutation
from opstat.families import DeskScaleError, beta, permutations, set_partitions, stirling2
from opstat.paths import upsilon, xi_map
from opstat.qpoly import Q, LaurentPolynomial, q_factorial
from opstat.statistics import field_values, order_reader
from opstat.verify import (
    _UPSILON_FIELDS,
    _XI_FIELDS,
    THEOREM_IDS,
    VerificationReport,
    _upsilon_violation,
    _xi_violation,
    run_task,
    verify,
)


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
    # from each c, but never a member of pi0's class, so the round trip
    # fails at the class's first member
    pi0 = OrderedSetPartition.parse("1 3/2 4")
    other = OrderedSetPartition.parse("1 4/2 3")
    assert other.partition_type() == pi0.partition_type()
    monkeypatch.setattr(importlib.import_module("opstat.verify"), "beta", lambda pi, c: beta(other, c))
    report = verify("thm3.5", pi=pi0)
    assert not report.passed
    assert report.counterexample == "beta_inv round-trip fails at 1 3/2 4: beta gives 1 4/2 3"


def test_thm35_runs_the_reader_beta_and_beta_inv_once_per_member(monkeypatch):
    # the round trip and the MAJ check run inside the fold, on the row that
    # it reads off the class's one reader, so no member is built or read a
    # second time
    module = importlib.import_module("opstat.verify")
    calls = Counter()
    for name in ("beta", "beta_inv"):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _name=name, _fn=original: calls.update([_name]) or _fn(*args)
        )
    _count_reads(monkeypatch, calls)
    assert verify("thm3.5", pi="1 4/2 3/5/6").passed
    assert calls == {"order_reader": 1, "read": 24, "beta": 24, "beta_inv": 24}  # 4!


@pytest.mark.parametrize(
    "c,reason", [((0, 0, 5), "entry c_3=5 outside 0..2"), ((0, 0), "need one entry per block: 3")]
)
def test_thm35_names_the_member_whose_beta_inv_beta_refuses(monkeypatch, capsys, c, reason):
    # beta's own argument check refuses the vector: that member is the
    # counterexample, and the CLI reports a failed check, not invalid input
    from opstat.cli import main

    module = importlib.import_module("opstat.verify")
    rho = _parsed("2 3/1 4/5")  # the third member in rearrangement order
    beta_inv = module.beta_inv
    monkeypatch.setattr(module, "beta_inv", lambda pi: c if pi == rho else beta_inv(pi))
    _assert_fails_at(verify("thm3.5", pi="1 4/2 3/5"), f"beta refuses beta_inv(2 3/1 4/5) = {c}: {reason}")
    assert main(["verify", "thm3.5", "--pi", "1 4/2 3/5"]) == 2
    captured = capsys.readouterr()
    assert "counterexample: beta refuses beta_inv(2 3/1 4/5)" in captured.out
    assert captured.err == ""


def test_trefinements_build_sigma_once_per_object(monkeypatch):
    # both read inv and maj of the class permutation off the blocks, so
    # neither builds a standard form at all
    calls = []
    standard_form = OrderedSetPartition.standard_form
    monkeypatch.setattr(
        OrderedSetPartition, "standard_form", lambda pi: calls.append(pi) or standard_form(pi)
    )
    n, k = 5, 3
    assert verify("eq5.8", n=n, k=k).passed
    assert calls == []
    assert verify("eq9.2", n=n, k=k).passed
    assert calls == []


def _trefinement_keys(pi):
    """The eq5.8 and eq9.2 keys of pi as their sweeps key them, from pi's
    reference row of each id's fields."""
    module = importlib.import_module(_VERIFY)
    keys = []
    for theorem in ("eq5.8", "eq9.2"):
        fields, positions = module._op_fields(module._OP_SUMS[theorem][0])
        keys.append(module._slot_keys(positions)(order_row(pi, fields)))
    return keys


def _reference_trefinement_keys(pi, *t_stats):
    """The same keys from the profile and the named t statistics."""
    from opstat.statistics import aggregate_profile, stat

    prof = aggregate_profile(pi)
    q_weight = prof["sb"] - prof["rsb_tc"]
    return [
        (prof[p_stat] + prof["rsb_tc"], q_weight, stat(pi, t_stat), 0)
        for p_stat in ("cls", "opb")
        for t_stat in t_stats
    ]


def test_trefinement_keys_match_profile_and_class_permutation_exhaustive():
    # every ordered partition with n <= 6: the eq5.8/eq9.2 keys of the rows
    # that their sweeps count against the profile and the standard form's
    # permutation
    from opstat.families import ordered_set_partitions

    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            eq58, eq92 = _trefinement_keys(pi)
            assert eq58 == _reference_trefinement_keys(pi, "invsigma", "majsigma")
            assert eq92 == _reference_trefinement_keys(pi, "maj")


# Planted defects: each test breaks one piece of a transport check and
# expects the check to fail with the first violating object.

_TARGET = OrderedSetPartition.parse("4/1 3/2")  # n = 4, k = 3, sigma = 3 1 2
_ROS, _ROS_OS, _BMAJ = 1, 5, 10  # entries of the kernel's reads


def _kernel_off_by_one(monkeypatch, index):
    """Raise entry ``index`` of the block-pair kernel by one on _TARGET only.
    The sweeps that read sides from a pair table (the readers that
    ``order_reader`` on opstat.verify builds) see the same raised entry: at
    _TARGET each reader defers to ``field_values``, which reads the planted
    kernel."""
    statistics = importlib.import_module("opstat.statistics")
    kernel = statistics._read_sums

    def planted(blocks):
        reads = kernel(blocks)
        if blocks == _TARGET.blocks:
            reads = reads[:index] + (reads[index] + 1,) + reads[index + 1:]
        return reads

    monkeypatch.setattr(statistics, "_read_sums", planted)
    _plant_reader(monkeypatch, _TARGET)


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


def test_thm31_runs_xi_once_per_class_member(monkeypatch):
    # a member with image rho != pi runs xi at pi and at rho, and rho's own
    # check then runs none; a fixed point runs xi once
    from opstat.families import permutations

    module = importlib.import_module(_VERIFY)
    xi_map = module.xi_map
    calls = []
    monkeypatch.setattr(module, "xi_map", lambda pi: calls.append(pi) or xi_map(pi))
    for sigma in permutations(3):
        calls.clear()
        assert verify("thm3.1", n=5, k=3, sigma=sigma).passed
        assert len(calls) == 25  # S(5,3), the size of each sigma-class


def test_thm31_fails_when_xi_is_not_an_involution(monkeypatch):
    # xi fixes the image of the class's first member, so that member's
    # image passes the triple swap, rsb_TC and class checks but does not
    # map back
    module = importlib.import_module(_VERIFY)
    xi_map = module.xi_map
    rho = xi_map(_parsed("5/1 2 3/4"))
    assert rho == _parsed("3 4 5/1/2")
    monkeypatch.setattr(module, "xi_map", lambda pi: pi if pi == rho else xi_map(pi))
    _assert_fails_at(verify("thm3.1", n=5, k=3, sigma="312"), "not an involution at 5/1 2 3/4")


def test_thm31_tests_the_class_of_a_recorded_partner(monkeypatch):
    # 2/4/1 3, outside the class, stands in for 4/1 3/2, and xi exchanges it
    # with the member 3/1/2 4, whose side is its side with mak and mak'
    # swapped.  The stand-in's check passes and records 3/1/2 4, so the
    # class of the stand-in is tested when 3/1/2 4 comes
    module = importlib.import_module(_VERIFY)
    stand_in, rho = _parsed("2/4/1 3"), _parsed("3/1/2 4")
    _stand_in(monkeypatch, "sigma_partitions", _parsed("4/1 3/2"), stand_in)
    xi_map = module.xi_map
    swapped = {stand_in: rho, rho: stand_in}
    monkeypatch.setattr(module, "xi_map", lambda pi: swapped.get(pi) or xi_map(pi))
    _assert_fails_at(
        verify("thm3.1", n=4, k=3, sigma="312"), "image leaves the sigma-class: 3/1/2 4 -> 2/4/1 3"
    )


def test_thm33_reads_the_step_word_once_per_object_and_once_per_form(monkeypatch):
    # once for each standard form's type, which its block orders share, and
    # once for each object's image under upsilon
    module = importlib.import_module(_VERIFY)
    step_word = module.step_word
    calls = []
    monkeypatch.setattr(module, "step_word", lambda pi: calls.append(pi) or step_word(pi))
    assert verify("thm3.3", n=5, k=3).passed
    assert len(calls) == 150 + 25  # 3! S(5,3) ordered partitions, S(5,3) forms
    first = next(set_partitions(5, 3))
    assert calls[:2] == [first, module.upsilon(first)]


def test_thm33_reads_every_side_from_the_pair_table(monkeypatch):
    # pi's side and its image's, twice per object, off one reader per
    # standard form, which hands only the images with other blocks to
    # field_values
    from opstat.families import ordered_set_partitions

    module = importlib.import_module(_VERIFY)
    statistics = importlib.import_module("opstat.statistics")
    calls = Counter()
    _count_reads(monkeypatch, calls)
    for owner in (module, statistics):
        original = owner.field_values
        monkeypatch.setattr(
            owner, "field_values", lambda pi, fields, _fn=original: calls.update(["field_values"]) or _fn(pi, fields)
        )
    moved = sum(set(upsilon(pi).blocks) != set(pi.blocks) for pi in ordered_set_partitions(5, 3))
    assert 0 < moved < 150
    assert verify("thm3.3", n=5, k=3).passed
    assert calls == {"order_reader": 25, "read": 2 * 150, "field_values": moved}  # S(5,3) forms


def test_thm33_sees_a_raised_bmaj_triple_at_one_image(monkeypatch):
    # the image's own row carries the raised entry too, but its check reads
    # only the bInv triple of it; so the transport names _TARGET only if
    # the image's side is read through the reader, and else the per-type
    # counts name a type
    module = importlib.import_module(_VERIFY)
    image = module.upsilon(_TARGET)
    assert image != _TARGET
    _plant_reader(monkeypatch, image, _bump(3))
    _assert_fails_at(verify("thm3.3", n=4, k=3), f"triple transport fails: {_TARGET} -> {image}")


def test_thm33_checks_every_object_not_every_distinct_row(monkeypatch):
    # the plant fails only at an object whose row an earlier, passing object
    # already has, so a fold that checked each distinct row once would pass
    from opstat.families import ordered_set_partitions
    from opstat.paths import step_word

    module = importlib.import_module(_VERIFY)
    seen = set()
    for repeat in ordered_set_partitions(4, 3):
        row = (step_word(repeat), *field_values(repeat, _UPSILON_FIELDS))
        if row in seen:
            break
        seen.add(row)
    else:
        pytest.fail("no two ordered partitions of [4] into 3 blocks share a row")
    upsilon_violation = module._upsilon_violation
    monkeypatch.setattr(
        module,
        "_upsilon_violation",
        lambda pi, row, read: f"planted at {pi}" if pi == repeat else upsilon_violation(pi, row, read),
    )
    _assert_fails_at(verify("thm3.3", n=4, k=3), f"planted at {repeat}")


def test_thm33_sees_two_special_gaps_swapped_in_psi(monkeypatch):
    # psi's relabelling with a_1 and a_2 exchanged wherever the trace has at
    # least two special gaps: at n = 5, k = 2 does not see it and k = 3 does
    paths = importlib.import_module("opstat.paths")
    gap = paths._gap

    def planted(special, r, label):
        if special.bit_count() >= 2 and label in (1, 2):
            label = 3 - label
        return gap(special, r, label)

    monkeypatch.setattr(paths, "_gap", planted)
    assert verify("thm3.3", n=5, k=2).passed
    _assert_fails_at(verify("thm3.3", n=5, k=3), "triple transport fails: 3 5/4/1 2 -> 4/3 5/1 2")


def test_the_benchmark_tracer_fits_the_package(monkeypatch):
    # bench/tracing.py wraps the names that the package's modules look up;
    # one that a module no longer has breaks a traced run at install
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_tracing", bench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    owners = [importlib.import_module(f"opstat.{name}") for name in tracing.LAYERS]
    owners += [OrderedSetPartition, LaurentPolynomial]
    tables = owners[0]._TABLES

    def attributes():
        return [dict(vars(owner)) for owner in owners] + [dict(tables)]

    before = attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = attributes()
        assert verify("thm3.3", n=4, k=3).passed
        assert verify("thm3.5", pi="1 3/2/4").passed
    finally:
        tracer.uninstall()
    calls = tracer.summary()
    assert calls["paths.upsilon"]["calls"] == 36 and calls["families.beta_inv"]["calls"] == 6
    replaced = [
        (name, value, after[name])
        for old, new, after in zip(before, installed, attributes())
        for name, value in old.items()
        if new[name] is not value
    ]
    assert {"psi_inv", "stat", "upsilon", "xi_map"} <= {name for name, _, _ in replaced}
    assert all(value is restored for _, value, restored in replaced)


def test_thm31_sees_the_insert_rule_leave_active_bits_in_place(monkeypatch):
    # the insert rule planted to shift the special bits only: the active
    # blocks at and right of the new block keep their old positions
    paths = importlib.import_module("opstat.paths")
    insert = paths._insert

    def planted(active, special, r, pos, opens):
        _, special = insert(active, special, r, pos, opens)
        return active | opens << pos, special

    monkeypatch.setattr(paths, "_insert", planted)
    _assert_fails_at(verify("thm3.1", n=4, k=3, sigma="312"), "triple swap fails: 4/1 3/2 -> 3/1 4/2")


@pytest.mark.parametrize(
    "theorem,params,counterexample",
    [
        ("thm3.3", dict(n=4, k=3), "triple transport fails: 2/4/1 3 -> 2/4/1 3"),
        ("thm3.3", dict(n=5, k=4), "triple transport fails: 2/1 3/5/4 -> 2/5/1 3/4"),
        ("thm3.3", dict(n=6, k=5), "triple transport fails: 2/1 3/4/6/5 -> 2/6/1 3/4/5"),
        ("thm3.5", dict(pi="1 3/2/4"), "MAJ(beta((0, 1, 1))) != 2 at 2/4/1 3"),
        ("thm3.5", dict(pi="1 2 4/3/5"), "MAJ(beta((0, 1, 1))) != 2 at 3/5/1 2 4"),
        ("thm3.5", dict(pi="1 2 3 5/4/6"), "MAJ(beta((0, 1, 1))) != 2 at 4/6/1 2 3 5"),
    ],
)
def test_transport_checks_see_a_closing_block_keep_its_special_gap(monkeypatch, theorem, params, counterexample):
    # the close rule planted to clear the active bit only: the closed block's
    # gap stays special, though its closer exceeds its left neighbour's opener.
    # beta and beta_inv both see the plant, so beta's round trip holds and
    # thm3.5 fails on MAJ
    paths = importlib.import_module("opstat.paths")
    monkeypatch.setattr(paths, "_close", lambda active, special, closed: (active & ~closed, special))
    _assert_fails_at(verify(theorem, **params), counterexample)


def test_thm35_sees_a_gap_rule_that_ignores_the_label(monkeypatch):
    # every new block planted at the right end: beta looks the rule up on
    # paths at each call, so it sends every vector to pi's own order
    monkeypatch.setattr(importlib.import_module("opstat.paths"), "_gap", lambda special, r, label: r)
    _assert_fails_at(verify("thm3.5", pi="1 3/2/4"), "beta_inv round-trip fails at 1 3/4/2: beta gives 1 3/2/4")


def test_thm33_reports_an_image_of_another_type():
    # a row whose type is not pi's: upsilon keeps the type, so its image's
    # step word differs from the row's, though the triples agree
    pi = OrderedSetPartition.parse("2/4/1 3")
    read = order_reader(pi.blocks, _UPSILON_FIELDS)
    row = ("EEEE", *read(pi))
    assert _upsilon_violation(pi, row, read) == f"type changes: {pi} -> {upsilon(pi)}"


def test_thm31_reports_an_image_outside_the_class_on_its_first_visit():
    # pi checked against a class it is not in: xi keeps pi's class, so the
    # image is outside the one named, and no partner has been recorded
    pi = OrderedSetPartition.parse("4/1 3/2")
    partners = {}
    message = _xi_violation(pi, Permutation.identity(3), field_values(pi, _XI_FIELDS), partners)
    assert message == f"image leaves the sigma-class: {pi} -> {xi_map(pi)}"
    assert partners == {}


def test_doubleton_sees_rsb_os_not_split(monkeypatch):
    verify_module = importlib.import_module(_VERIFY)
    profile = verify_module.aggregate_profile
    monkeypatch.setattr(verify_module, "aggregate_profile", lambda rho: {**profile(rho), "rsb_os": profile(rho)["rsb_os"] + 1})
    _assert_fails_at(verify("doubleton", parts=(1, 1)), "rsb_OS does not split at 1 2/3 4")


def test_doubleton_sees_a_class_factor_that_is_not_the_q_factorial(monkeypatch):
    # [p]_q! planted to be q times too big, so no class factor matches it
    monkeypatch.setattr(importlib.import_module(_VERIFY), "q_factorial", lambda k: q_factorial(k) * Q)
    _assert_fails_at(verify("doubleton", parts=(2, 1)), "class factor for part 2 is not [2]_q!")


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


def _plant_reader(monkeypatch, target, change=lambda values: values):
    """Make every reader that ``opstat.verify.order_reader`` builds defer
    to ``statistics.field_values`` at ``target`` and return ``change`` of
    the values it gives."""
    module = importlib.import_module(_VERIFY)
    statistics = importlib.import_module("opstat.statistics")
    original = module.order_reader

    def planted(blocks, fields):
        read = original(blocks, fields)
        return lambda pi: change(statistics.field_values(pi, fields)) if pi == target else read(pi)

    monkeypatch.setattr(module, "order_reader", planted)


def _count_reads(monkeypatch, calls):
    """Count in ``calls`` the readers that ``opstat.verify.order_reader``
    builds and the reads they make."""
    module = importlib.import_module(_VERIFY)
    original = module.order_reader

    def counted(blocks, fields):
        calls.update(["order_reader"])
        read = original(blocks, fields)
        return lambda pi: calls.update(["read"]) or read(pi)

    monkeypatch.setattr(module, "order_reader", counted)


def _stand_in(monkeypatch, generator, member, stand_in):
    """Make the family generator ``opstat.verify.<generator>`` yield
    ``stand_in`` where it would yield ``member``."""
    module = importlib.import_module(_VERIFY)
    original = getattr(module, generator)
    monkeypatch.setattr(
        module, generator, lambda *args: (stand_in if x == member else x for x in original(*args))
    )


def _plant_row(monkeypatch, target, change):
    """Make the (rcb, lsb) rows of ``opstat.verify.set_partitions`` give
    ``change(row)`` in place of the row of the standard form ``target``, at
    its index in ``set_partitions`` order."""
    module = importlib.import_module(_VERIFY)
    original = module.set_partitions
    index = list(original(target.n, target.k)).index(target)

    def planted(n, k=None, fields=None):
        rows = original(n, k, fields=fields)
        if fields is None or (n, k) != (target.n, target.k):
            return rows
        return (change(row) if at == index else row for at, row in enumerate(rows))

    monkeypatch.setattr(module, "set_partitions", planted)


def _bump(index):
    """Raise entry ``index`` of a tuple by one."""
    return lambda values: _add(values, index, 1)


def _plant_order(monkeypatch, target, field, delta):
    """Add ``delta`` to ``field`` of the block order ``target`` where the
    pair-table kernel packs it, in the totals of its standard form's
    block orders that ``statistics._order_totals`` gives."""
    statistics = importlib.import_module("opstat.statistics")
    original = statistics._order_totals
    std = target.standard_form()[0]
    index = list(itertools.permutations(std.blocks)).index(target.blocks)

    def planted(blocks, fields, width):
        runs = original(blocks, fields, width)
        if blocks != std.blocks or field not in fields:
            return runs
        totals = [total for run in runs for total in run]
        shift = width * fields.index(field)
        assert (totals[index] >> shift & (1 << width) - 1) + delta >= 0  # no borrow
        totals[index] += delta << shift
        return [totals]

    monkeypatch.setattr(statistics, "_order_totals", planted)


def _swap(monkeypatch, field, x, y):
    """Exchange ``field`` of partitions ``x`` and ``y`` in the kernel's
    totals: cls+rsb_TC or opb+rsb_TC, eq5.8's p weights."""
    (value_x,), (value_y,) = order_row(_parsed(x), (field,)), order_row(_parsed(y), (field,))
    _plant_order(monkeypatch, _parsed(x), field, value_y - value_x)
    _plant_order(monkeypatch, _parsed(y), field, value_x - value_y)


def _add(values, index, delta):
    return values[:index] + (values[index] + delta,) + values[index + 1:]


def _parsed(text):
    return OrderedSetPartition.parse(text)


_DOUBLETON = _parsed("5 6/1 3/2 4")  # a rearrangement of doubleton_partition((2, 1))
_INV, _MAJ = 0, 1  # entries of the rows of thm3.5 and doubleton
_SLOT_PLANTS = [
    # id, parameters, plant, the first slot the plant reaches, which the
    # report shows and names when it is not the first;
    # mak+bStat and mak'+bStat, each read by one slot
    ("thm3.2", dict(n=4, k=3), lambda mp: _plant_order(mp, _TARGET, "mak+binv", 1), 1),
    ("thm3.2", dict(n=4, k=3), lambda mp: _plant_order(mp, _TARGET, "makp+binv", 1), 2),
    ("thm3.4", dict(n=4, k=3), lambda mp: _plant_order(mp, _TARGET, "mak+bmaj", 1), 1),
    ("thm3.4", dict(n=4, k=3), lambda mp: _plant_order(mp, _TARGET, "makp+bmaj", 1), 2),
    # eq2.3's rows are (rcb, lsb)
    ("eq2.3", dict(n=4, k=3), lambda mp: _plant_row(mp, _parsed("1 3/2/4"), _bump(0)), 1),
    # likewise for cls+rsb_TC and opb+rsb_TC
    ("eq9.2", dict(n=4, k=3), lambda mp: _plant_order(mp, _TARGET, "cls+rsb_tc", 1), 1),
    ("eq9.2", dict(n=4, k=3), lambda mp: _plant_order(mp, _TARGET, "opb+rsb_tc", 1), 2),
    # the two partitions share rsb_TC, sb and inv (maj) of the class
    # permutation, so only the slot pairing the swapped cls (opb) with maj
    # (inv) sees the swap
    ("eq5.8", dict(n=4, k=3), lambda mp: _swap(mp, "cls+rsb_tc", "1 2/4/3", "2 3/4/1"), 1),
    ("eq5.8", dict(n=4, k=3), lambda mp: _swap(mp, "cls+rsb_tc", "1 2/4/3", "2 3/1/4"), 2),
    ("eq5.8", dict(n=4, k=3), lambda mp: _swap(mp, "opb+rsb_tc", "1 2/4/3", "2 3/4/1"), 3),
    ("eq5.8", dict(n=4, k=3), lambda mp: _swap(mp, "opb+rsb_tc", "1 2/4/3", "2 3/1/4"), 4),
    ("eq1.1", dict(parts=(2, 1)), lambda mp: _plant(mp, "inversion_number", (2, 1, 1), lambda v: v + 1), 1),
    ("eq1.1", dict(parts=(2, 1)), lambda mp: _plant(mp, "major_index", (2, 1, 1), lambda v: v + 1), 2),
    ("doubleton", dict(parts=(2, 1)), lambda mp: _plant_reader(mp, _DOUBLETON, _bump(_MAJ)), 1),
    ("doubleton", dict(parts=(2, 1)), lambda mp: _plant_reader(mp, _DOUBLETON, _bump(_INV)), 2),
    # a duplicate stands in for a sigma-class member that differs from it
    # only in mak+bInv (mak'+bInv); the xi transport holds on both
    ("thm3.1", dict(n=4, k=2, sigma="21"),
     lambda mp: _stand_in(mp, "sigma_partitions", _parsed("2 3/1 4"), _parsed("3/1 2 4")), 1),
    ("thm3.1", dict(n=4, k=2, sigma="21"),
     lambda mp: _stand_in(mp, "sigma_partitions", _parsed("2 3/1 4"), _parsed("2/1 3 4")), 2),
    # a duplicate stands in for a class member with the same INV (MAJ);
    # beta still covers the class
    ("thm3.5", dict(pi="1 3/2/4"),
     lambda mp: _stand_in(mp, "rearrangements", _parsed("2/1 3/4"), _parsed("1 3/4/2")), 1),
    ("thm3.5", dict(pi="1 3/2/4"),
     lambda mp: _stand_in(mp, "rearrangements", _parsed("4/2/1 3"), _parsed("1 3/4/2")), 2),
    # maj sigma is a field of eq5.8's rows alone, and only its two
    # (., maj sigma) slots pair with it
    ("eq5.8", dict(n=4, k=3), lambda mp: _plant_order(mp, _TARGET, "majsigma", 1), 2),
]


@pytest.mark.parametrize(
    "theorem,params,plant,slot",
    _SLOT_PLANTS,
    ids=[f"{theorem}-{i}" for i, (theorem, *_) in enumerate(_SLOT_PLANTS)],
)
def test_distribution_checks_fail_when_one_slot_is_off(monkeypatch, theorem, params, plant, slot):
    assert verify(theorem, **params).passed
    plant(monkeypatch)
    report = verify(theorem, **params)
    assert not report.passed and report.to_json()["pass"] is False
    assert report.counterexample is None
    assert report.lhs != report.rhs
    first = importlib.import_module(_VERIFY)._CHECKS[theorem].detail
    if slot == 1:
        assert report.detail == first
    else:
        assert report.detail.startswith(f"{first} in slot {slot} of ")


_RHS_TIMES_Q = [
    # id, parameters, the name on opstat.verify whose value the RHS takes
    ("thm3.2", dict(n=4, k=3), "stirling_pq"),
    ("thm3.4", dict(n=4, k=3), "stirling_pq"),
    ("eq2.3", dict(n=4, k=3), "stirling_pq"),
    ("eq5.8", dict(n=4, k=3), "stirling_pq"),
    ("eq9.2", dict(n=4, k=3), "stirling_pq"),
    ("eq1.1", dict(parts=(2, 1)), "_q_multinomial"),
]


def _plant_pair(monkeypatch, *raised):
    """Raise each field in ``raised`` by one in the packed term of 4 left of
    1 3 only, where ``statistics._pair_matrix`` packs it, in every matrix
    that reads that field of that pair."""
    statistics = importlib.import_module("opstat.statistics")
    original = statistics._pair_matrix

    def planted(blocks, fields, width):
        terms = original(blocks, fields, width)
        if (4,) in blocks and (1, 3) in blocks:
            for field in set(raised) & set(fields):
                terms[blocks.index((4,))][blocks.index((1, 3))] += 1 << fields.index(field) * width
        return terms

    monkeypatch.setattr(statistics, "_pair_matrix", planted)


@pytest.mark.parametrize("theorem,offset", [("thm3.2", 0), ("thm3.4", 3)])
def test_em_sweeps_see_one_raised_pair_table_entry_in_slot_0_only(monkeypatch, theorem, offset):
    # mak+bStat, for 4 left of 1 3 only: the table of 4/1 3/2 adds it to the
    # three block orders that put 4 left of 1 3, and the slot of mak'+bStat
    # does not read it
    _plant_pair(monkeypatch, "mak+binv", "mak+bmaj")
    (mak_slot, makp_slot), _ = importlib.import_module(_VERIFY)._CHECKS[theorem].sweep(n=4, k=3)
    assert mak_slot[0] != mak_slot[1]
    assert makp_slot[0] == makp_slot[1]
    report = verify(theorem, n=4, k=3)
    assert not report.passed and report.to_json()["pass"] is False
    assert report.counterexample is None
    assert report.lhs != report.rhs


def test_thm35_sees_one_raised_ros_os_field_of_the_pair_table(monkeypatch):
    # INV = ros over the openers, for 4 left of 1 3 only, and MAJ, which
    # reads it too: the table of 4/1 3/2 adds them to the three block
    # orders that put 4 left of 1 3, so INV and MAJ are one too high there,
    # and the first of them in rearrangement order, 2/4/1 3, is the
    # counterexample
    _plant_pair(monkeypatch, "inv", "maj")
    pairs, counterexample = importlib.import_module(_VERIFY)._thm35_sweep(_TARGET.standard_form()[0])
    assert all(lhs != rhs for lhs, rhs in pairs)
    _assert_fails_at(verify("thm3.5", pi=_TARGET), "MAJ(beta((0, 1, 2))) != 3 at 2/4/1 3")


def test_em_sweep_counts_match_the_reference_kernel():
    from collections import Counter

    from opstat.families import ordered_set_partitions
    from opstat.statistics import six_composites

    module = importlib.import_module(_VERIFY)
    for n in range(1, 8):
        for k in range(1, n + 1):
            # one key per object and slot, straight from the reference kernel:
            # (mak+bStat, cstatLSB) and (mak'+bStat, cstatLSB)
            keys = [
                ((a, ci, 0, 0), (b, ci, 0, 0), (c, cm, 0, 0), (d, cm, 0, 0))
                for a, b, ci, c, d, cm in map(six_composites, ordered_set_partitions(n, k))
            ]
            reference = [Counter(key[slot] for key in keys) for slot in range(4)]
            for theorem, expected in (("thm3.2", reference[:2]), ("thm3.4", reference[2:])):
                pairs, _ = module._CHECKS[theorem].sweep(n=n, k=k)
                assert [lhs for lhs, _ in pairs] == [LaurentPolynomial(c) for c in expected]


def _op_rows_match_the_per_object_reference(max_n):
    from order_reference import field_values, reference_stats

    from opstat.families import ordered_set_partitions
    from opstat.statistics import unpack_totals

    module = importlib.import_module(_VERIFY)
    field_sets = [module._op_fields(slots)[0] for slots, _ in module._OP_SUMS.values()]
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            expected = [Counter() for _ in field_sets]
            for pi in ordered_set_partitions(n, k):
                values = reference_stats(pi)
                for rows, fields in zip(expected, field_sets):
                    rows[field_values(values, fields)] += 1
            for rows, fields in zip(expected, field_sets):
                totals = Counter(ordered_set_partitions(n, k, fields=fields))
                assert unpack_totals(totals, n, k, fields) == rows


def test_op_sums_count_the_rows_of_the_per_object_reference():
    # every n <= 7 and every k: the rows that thm3.2, thm3.4, eq5.8 and
    # eq9.2 fold are those of the reference statistics, one per object
    assert set(importlib.import_module(_VERIFY)._OP_SUMS) == {"thm3.2", "thm3.4", "eq5.8", "eq9.2"}
    _op_rows_match_the_per_object_reference(7)


def test_op_sums_match_the_reference_through_the_prefix_loop(monkeypatch):
    # cached cells for the last two blocks only, so every k > 2 runs the
    # loop over prefixes and its sub-tables
    statistics = importlib.import_module("opstat.statistics")
    monkeypatch.setattr(statistics, "_SUFFIX_BLOCKS", 2)
    _op_rows_match_the_per_object_reference(6)


def test_op_sums_draw_one_item_per_block_order(monkeypatch):
    # the OP(n,k) ids draw every block order, and nothing else, from the
    # family generator, so counting its items counts the family
    from math import factorial

    from opstat.families import stirling2

    module = importlib.import_module(_VERIFY)
    original = module.ordered_set_partitions
    drawn = []

    def counted(*args, **kwargs):
        for item in original(*args, **kwargs):
            drawn.append(item)
            yield item

    def refused(*args, **kwargs):
        raise AssertionError("standard forms drawn outside the family")

    monkeypatch.setattr(module, "ordered_set_partitions", counted)
    monkeypatch.setattr(module, "set_partitions", refused)
    for theorem in module._OP_SUMS:
        for n, k in ((5, 3), (7, 7)):
            drawn.clear()
            assert verify(theorem, n=n, k=k).passed
            assert len(drawn) == factorial(k) * stirling2(n, k)


def test_em_reports_do_not_depend_on_the_family_order(monkeypatch):
    # the block orders of each standard form are counted from its own
    # table, in whatever order ordered_set_partitions draws the forms
    families = importlib.import_module("opstat.families")
    original = families.set_partitions
    cases = [(theorem, k) for theorem in ("thm3.2", "thm3.4") for k in range(1, 7)]
    expected = [verify(theorem, n=6, k=k).to_json() for theorem, k in cases]
    calls = []

    def shuffled(*args, **kwargs):
        family = list(original(*args, **kwargs))
        random.Random(0).shuffle(family)
        calls.append(args)
        return iter(family)

    monkeypatch.setattr(families, "set_partitions", shuffled)
    assert [verify(theorem, n=6, k=k).to_json() for theorem, k in cases] == expected
    assert len(calls) == len(cases)


@pytest.mark.parametrize("theorem,params,name", _RHS_TIMES_Q)
def test_distribution_checks_fail_when_the_rhs_is_multiplied_by_q(monkeypatch, theorem, params, name):
    module = importlib.import_module(_VERIFY)
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: _Q * original(*args))
    report = verify(theorem, **params)
    assert not report.passed and report.counterexample is None
    assert report.lhs * _Q == report.rhs


def test_doubleton_fails_when_the_word_side_is_multiplied_by_q(monkeypatch):
    # both word distributions gain a factor q, so the RHS does.  The plant
    # raises the words' (inv, maj) rows: the q-key map is shared with the
    # class side, where a raise would multiply the LHS by q too
    module = importlib.import_module(_VERIFY)
    word_inv_maj = module._word_inv_maj
    monkeypatch.setattr(module, "_word_inv_maj", lambda w: tuple(v + 1 for v in word_inv_maj(w)))
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
    # the plant is on the name verify_zezh reads its packed side from; the
    # recursion fills its own cells through its cache, so the cache is
    # cleared only as a guard
    qpoly = importlib.import_module("opstat.qpoly")
    original = getattr(qpoly, name)
    try:
        with monkeypatch.context() as m:
            m.setattr(qpoly, name, lambda n, k: _Q * original(n, k))
            report = verify("zezh", n=4, k=2)
            assert not qpoly.verify_zezh(4, 2)[0]  # the packed sides differ
    finally:
        original.cache_clear()
    assert not report.passed and report.counterexample is None
    assert report.lhs != report.rhs
    assert report.to_json()[side] != verify("zezh", n=4, k=2).to_json()[side]
    # a failing report renders each of its sides
    assert [report.to_json()[s] for s in ("lhs", "rhs")] == [report.lhs.to_text(), report.rhs.to_text()]
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


def test_eq23_passes_at_every_k_of_n_11():
    for k in range(1, 12):
        assert verify("eq2.3", n=11, k=k).passed


def test_eq23_fails_when_a_join_splits_its_elements_one_off(monkeypatch):
    # a join in a state of at least three blocks counts one element between
    # the block's last element and the new one left of the block, not right
    statistics = importlib.import_module("opstat.statistics")
    choices = statistics._rcb_lsb_choices

    def planted(sizes, last, ante, i, rcb, lsb, n, k):
        blocks = len(sizes)
        for rcb_i, lsb_i in choices(sizes, last, ante, i, rcb, lsb, n, k):
            joined = len(sizes) == blocks
            yield (rcb_i + 1, lsb_i - 1) if joined and blocks >= 3 else (rcb_i, lsb_i)

    sizes = [(n, k) for n in range(1, 7) for k in range(1, n + 1)]
    assert all(verify("eq2.3", n=n, k=k).passed for n, k in sizes)
    monkeypatch.setattr(statistics, "_rcb_lsb_choices", planted)
    failed = [(n, k) for n, k in sizes if not verify("eq2.3", n=n, k=k).passed]
    # element 4 is the first that can join one of three blocks before the last
    assert failed and min(failed) == (5, 3)


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


def test_report_json_renders_both_sides():
    p = LaurentPolynomial.variable("p")
    sides = lambda report: [report.to_json()[side] for side in ("lhs", "rhs")]
    assert sides(VerificationReport("zezh", {}, True, p + 1, 1 + p)) == ["p + 1", "p + 1"]
    assert sides(VerificationReport("zezh", {}, False, p + 1, p - 1)) == ["p + 1", "p - 1"]
    assert sides(VerificationReport("zezh", {}, False, p + 1)) == ["p + 1", None]
    assert sides(VerificationReport("zezh", {}, False, None, p)) == [None, "p"]
    assert sides(VerificationReport("zezh", {}, False)) == [None, None]


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


def _enumerated_tasks():
    """(id, params, family size) for every id that enumerates: n <= 5 at
    every k, every sigma of thm3.1, every standard form of thm3.5, and
    every composition with sum <= 4."""
    for n in range(1, 6):
        for k in range(1, n + 1):
            orders = math.factorial(k) * stirling2(n, k)
            for theorem in ("thm3.2", "thm3.3", "thm3.4", "eq5.8", "eq9.2"):
                yield theorem, dict(n=n, k=k), orders
            yield "eq2.3", dict(n=n, k=k), stirling2(n, k)
            for sigma in permutations(k):
                yield "thm3.1", dict(n=n, k=k, sigma=sigma), stirling2(n, k)
            for pi in set_partitions(n, k):
                yield "thm3.5", dict(pi=pi), math.factorial(k)
    for total in range(1, 5):
        for length in range(1, total + 1):
            for parts in itertools.product(range(1, total + 1), repeat=length):
                if sum(parts) == total:
                    words = math.factorial(total) // math.prod(map(math.factorial, parts))
                    yield "eq1.1", dict(parts=parts), words
                    yield "doubleton", dict(parts=parts), math.factorial(total)


def test_every_enumerated_sum_counts_its_family():
    # at p = q = t = 1 each side of every pair counts the family it sums
    module = importlib.import_module(_VERIFY)
    tasks = list(_enumerated_tasks())
    assert {theorem for theorem, _, _ in tasks} == set(THEOREM_IDS) - {"zezh"}
    for theorem, params, size in tasks:
        check, params = module._prepare(theorem, False, **params)
        pairs, counterexample = check.sweep(**params)
        assert counterexample is None, (theorem, params)
        for lhs, rhs in pairs:
            assert (lhs.evaluate(), rhs.evaluate()) == (size, size), (theorem, params)


def test_thm33_folds_every_object_past_its_first_counterexample(monkeypatch):
    module = importlib.import_module(_VERIFY)
    first = next(module.ordered_set_partitions(4, 2))
    calls = []

    def planted(pi, row, read):
        calls.append(pi)
        return f"planted at {pi}" if pi == first else None

    monkeypatch.setattr(module, "_upsilon_violation", planted)
    report = verify("thm3.3", n=4, k=2)
    assert not report.passed
    assert report.counterexample == f"planted at {first}"
    # the check stops at the first counterexample; the fold does not
    assert calls == [first]
    assert report.lhs.evaluate() == report.rhs.evaluate() == 2 * 7


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


def test_count_guard_sizes_class_checks_by_their_objects(monkeypatch):
    # arithmetic only: each family is replaced by one that fails the test
    # if it is ever started
    import dataclasses
    import math

    module = importlib.import_module(_VERIFY)

    def started(*args, **kwargs):
        raise AssertionError("the enumeration started")

    for name in ("rearrangements", "words", "doubleton_partition"):
        monkeypatch.setattr(module, name, started)
    singletons = OrderedSetPartition.parse("/".join(map(str, range(1, 13))))
    assert module._CHECKS["thm3.5"].count({"pi": singletons}) == math.factorial(12)
    assert module._CHECKS["eq1.1"].count({"parts": (3, 2, 0, 4)}) == math.factorial(9) // (6 * 2 * 24)
    assert module._CHECKS["doubleton"].count({"parts": (3, 2)}) == math.factorial(5)
    with pytest.raises(DeskScaleError, match="^479001600 objects exceed the desk-scale count limit 1000000;"):
        verify("thm3.5", pi=singletons)
    words = math.factorial(11) // 2**5  # 11 letters pass the ground-set guard
    with pytest.raises(DeskScaleError, match=f"^{words} objects exceed"):
        verify("eq1.1", parts=(2, 2, 2, 2, 2, 1))
    # 2 * 10 elements pass a raised ground-set limit, and 10! orders do not
    monkeypatch.setenv("OPSTAT_MAX_N", "20")
    with pytest.raises(DeskScaleError, match="^3628800 objects exceed"):
        verify("doubleton", parts=(10,))
    # allow_large passes both guards, and the stand-in sweep runs
    one = LaurentPolynomial.constant(1)
    stub = dataclasses.replace(module._CHECKS["thm3.5"], sweep=lambda pi: ([(one, one)], None))
    monkeypatch.setitem(module._CHECKS, "thm3.5", stub)
    assert verify("thm3.5", pi=singletons, allow_large=True).passed


def test_count_guard_sizes_op_sums_by_their_block_orders(monkeypatch):
    # arithmetic only: the family fails the test if it is ever started
    import dataclasses

    from opstat.families import DESK_COUNT_DEFAULT, DESK_ORDERS_DEFAULT

    module = importlib.import_module(_VERIFY)

    def started(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(module, "ordered_set_partitions", started)
    one = LaurentPolynomial.constant(1)
    for theorem in ("thm3.2", "thm3.4", "eq5.8", "eq9.2"):
        check = module._CHECKS[theorem]
        assert check.limit == DESK_ORDERS_DEFAULT == 10**8
        assert check.count({"n": 12, "k": 6}) == 720 * 1323652
        # every k at n <= 10 is admitted, the largest 8! S(10, 8)
        assert max(check.count({"n": n, "k": k}) for n in range(1, 11) for k in range(1, n + 1)) == 40320 * 750
        with pytest.raises(DeskScaleError, match="^953029440 objects exceed the desk-scale count limit 100000000;"):
            verify(theorem, n=12, k=6)
        # 6! S(9, 6) = 1,905,120 orders pass, and the stand-in sweep runs
        monkeypatch.setitem(module._CHECKS, theorem, dataclasses.replace(check, sweep=lambda n, k: ([(one, one)], None)))
        assert verify(theorem, n=9, k=6).passed
        assert verify(theorem, n=12, k=6, allow_large=True).passed
    # thm3.3 runs upsilon on every object, so it takes the class checks' limit
    check = module._CHECKS["thm3.3"]
    assert check.limit == DESK_COUNT_DEFAULT
    assert check.count({"n": 8, "k": 6}) == 720 * 266
    with pytest.raises(DeskScaleError, match="^1905120 objects exceed the desk-scale count limit 1000000;"):
        verify("thm3.3", n=9, k=6)


@pytest.mark.parametrize("raw", ["x", "1_0", "-5", ""])
def test_a_malformed_desk_scale_limit_is_refused_by_name(monkeypatch, raw):
    # int() would read "1_0" as 10 and "-5" as a limit below every n
    monkeypatch.setenv("OPSTAT_MAX_N", raw)
    with pytest.raises(ValueError, match=f"^OPSTAT_MAX_N is not a decimal number: {raw!r}$"):
        verify("zezh", n=3, k=2)


@pytest.mark.parametrize(
    "theorem,parts", [("eq1.1", ()), ("eq1.1", (0,)), ("doubleton", ()), ("doubleton", (0, 0))]
)
def test_composition_checks_refuse_an_empty_sum(theorem, parts):
    # one empty word or partition would "pass" without checking anything
    with pytest.raises(ValueError, match="parts must have a positive sum"):
        verify(theorem, parts=parts)


@pytest.mark.parametrize("theorem,params,name", [
    ("eq1.1", {"parts": (1.7, 1)}, "parts"),  # int() made it (1, 1), and a pass
    ("eq1.1", {"parts": (True, 1)}, "parts"),
    ("eq1.1", {"parts": "21"}, "parts"),
    ("thm3.2", {"n": True, "k": True}, "n"),  # passed as n = k = 1
    ("thm3.2", {"n": 3, "k": True}, "k"),
    ("thm3.2", {"n": 3.0, "k": 2}, "n"),  # a raw AttributeError
    ("thm3.2", {"n": "3", "k": 2}, "n"),  # a raw TypeError
    ("zezh", {"n": 3, "k": 2.0}, "k"),
    ("thm3.1", {"n": 3, "k": 2, "sigma": [True, 2]}, "sigma"),  # passed as the identity
    ("thm3.1", {"n": 3, "k": 2, "sigma": [2.0, 1]}, "sigma"),  # a raw TypeError
    ("thm3.1", {"n": 3, "k": 2, "sigma": 5}, "sigma"),  # a raw TypeError
    ("thm3.5", {"pi": 5}, "pi"),  # a raw AttributeError
    ("thm3.5", {"pi": ["1 2"]}, "pi"),  # a raw AttributeError
], ids=lambda value: value if isinstance(value, str) else "-".join(f"{k}={v!r}" for k, v in value.items()))
def test_a_parameter_that_is_not_an_int_is_refused_by_name(theorem, params, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        verify(theorem, **params)


def test_thm35_is_never_given_a_partition_of_floats():
    # from_blocks took 2.0 as an element, and thm3.5 then ended in a raw
    # TypeError while reading the partition's labels
    with pytest.raises(ValueError, match="must be an integer, got 2.0"):
        verify("thm3.5", pi=OrderedSetPartition.from_blocks([[1], [2.0]]))


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


def test_thm32_fails_when_cinvlsb_has_a_wrong_coefficient(monkeypatch, request):
    # cinvLSB = lsb + 2 C(k,2) - bInv, planted without its bInv: both slots
    # read the planted form, so the first is shown
    statistics = importlib.import_module("opstat.statistics")
    assert verify("thm3.2", n=4, k=3).passed
    form = list(statistics._FORMS["cinvlsb"])
    form[statistics._READS.index("rcs_os")] += 1
    monkeypatch.setitem(statistics._FORMS, "cinvlsb", tuple(form))
    # the packings of the planted form are dropped, before and after
    statistics._packing.cache_clear()
    request.addfinalizer(statistics._packing.cache_clear)
    report = verify("thm3.2", n=4, k=3)
    assert not report.passed and report.to_json()["pass"] is False
    assert report.counterexample is None
    assert report.lhs != report.rhs
    assert report.detail == "distribution mismatch"
