import hashlib
import itertools
from functools import cache
from math import factorial

import pytest
from trace_reference import insertion_positions_by_sets

from opstat.core import OrderedSetPartition, Permutation
from opstat.families import (
    DeskScaleError,
    beta,
    beta_inv,
    compositions,
    fubini,
    ordered_set_partitions,
    partitions_of_type,
    path_diagrams,
    permutations,
    rearrangements,
    set_partitions,
    sigma_partitions,
    stirling2,
    subdiagonal_vectors,
    words,
)
from opstat.statistics import stat


def test_counts_against_closed_forms():
    assert [fubini(n) for n in range(7)] == [1, 1, 3, 13, 75, 541, 4683]
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert sum(1 for _ in set_partitions(n, k)) == stirling2(n, k)


def test_ordered_counts():
    for n in range(1, 7):
        assert sum(1 for _ in ordered_set_partitions(n)) == fubini(n)
        for k in range(1, n + 1):
            count = sum(1 for _ in ordered_set_partitions(n, k))
            assert count == factorial(k) * stirling2(n, k)


def test_set_partitions_smallest():
    assert [pi.to_text() for pi in set_partitions(1, 1)] == ["1"]
    assert [pi.to_text() for pi in set_partitions(3, 2)] == ["1 2/3", "1 3/2", "1/2 3"]


def test_generators_are_deterministic_and_duplicate_free():
    first = list(ordered_set_partitions(4))
    second = list(ordered_set_partitions(4))
    assert first == second
    assert len(set(first)) == len(first)


def _standard_forms(n):
    """The set partitions of [n] from their restricted growth words in
    lexicographic order, built by the validating constructor."""
    forms = []
    for word in itertools.product(range(n), repeat=n):
        if all(word[i] <= max(word[:i], default=-1) + 1 for i in range(n)):
            blocks = tuple(
                tuple(i + 1 for i in range(n) if word[i] == b) for b in range(max(word) + 1)
            )
            forms.append(OrderedSetPartition(n, blocks))
    return forms


def _orders(pi):
    """Every block order of pi, in the order of itertools.permutations."""
    return [
        OrderedSetPartition(pi.n, tuple(pi.blocks[i] for i in order))
        for order in itertools.permutations(range(pi.k))
    ]


def _assert_yields(got, expected):
    assert got == expected
    for pi in got:
        rebuilt = OrderedSetPartition(pi.n, pi.blocks)
        assert pi == rebuilt and hash(pi) == hash(rebuilt)


def test_generators_match_validated_oracle_exhaustive():
    # the generators build their objects unchecked; each must be the object
    # the validating constructor builds, in the same place of the sequence
    for n in range(1, 7):
        standard = _standard_forms(n)
        _assert_yields(list(set_partitions(n)), standard)
        _assert_yields(list(ordered_set_partitions(n)), [pi for std in standard for pi in _orders(std)])
        for k in range(1, n + 1):
            stds = [std for std in standard if std.k == k]
            _assert_yields(list(set_partitions(n, k)), stds)
            _assert_yields(list(ordered_set_partitions(n, k)), [pi for std in stds for pi in _orders(std)])
            for std in stds:
                _assert_yields(list(rearrangements(std)), _orders(std))
                reversed_pi = _orders(std)[-1]
                _assert_yields(list(rearrangements(reversed_pi)), _orders(reversed_pi))
            if k <= 4:
                for images in itertools.permutations(range(1, k + 1)):
                    expected = [
                        OrderedSetPartition(n, tuple(std.blocks[i - 1] for i in images)) for std in stds
                    ]
                    _assert_yields(list(sigma_partitions(n, k, Permutation(images))), expected)


def test_rearrangement_class_worked_example():
    pi = OrderedSetPartition.parse("1 4/2 3/5")
    got = {rho.to_text() for rho in rearrangements(pi)}
    assert got == {
        "1 4/2 3/5",
        "1 4/5/2 3",
        "5/2 3/1 4",
        "2 3/1 4/5",
        "2 3/5/1 4",
        "5/1 4/2 3",
    }


def test_sigma_partitions_count_and_class():
    sigma = Permutation.parse("312")
    for n in (4, 5):
        members = list(sigma_partitions(n, 3, sigma))
        assert len(members) == stirling2(n, 3)
        assert all(pi.standard_form()[1] == sigma for pi in members)


def test_sigma_partitions_refuse_a_sigma_of_the_wrong_size():
    with pytest.raises(ValueError, match="^sigma acts on 3 blocks, expected 2$"):
        next(sigma_partitions(4, 2, Permutation.parse("312")))


def test_sigma_class_sizes_at_scale():
    # every sigma-class has exactly S(n,k) members, k <= 4, n <= 7
    for n in range(1, 8):
        for k in range(1, min(n, 4) + 1):
            for sigma in permutations(k):
                assert sum(1 for _ in sigma_partitions(n, k, sigma)) == stirling2(n, k)


def test_type_classes_partition_the_family():
    from collections import Counter

    for n in range(1, 7):
        counts = Counter()
        for pi in ordered_set_partitions(n):
            counts[pi.partition_type()] += 1
        assert sum(counts.values()) == fubini(n)
        for lam, size in counts.items():
            assert sum(1 for _ in partitions_of_type(lam)) == size


def test_partitions_of_type():
    lam = OrderedSetPartition.parse("1 3/2").partition_type()
    members = list(partitions_of_type(lam))
    assert {pi.to_text() for pi in members} == {"1 3/2", "2/1 3"}


def test_partitions_of_type_match_recorded_digest():
    # recorded when the types were filtered out of ordered_set_partitions
    types = list(dict.fromkeys(pi.partition_type() for n in range(1, 7) for pi in set_partitions(n)))
    assert len(types) == 196
    digest = hashlib.sha256()
    count = 0
    for lam in types:
        for pi in partitions_of_type(lam):
            digest.update(f"{lam} | {pi}\n".encode())
            count += 1
    assert count == 5316
    assert digest.hexdigest() == "1e2d6b80c3712e1c9bbd24e62886457c2a3a24c8f2e3341b4c82dc91c053e314"


def test_words_multiset_permutations():
    got = list(words((2, 1)))
    assert got == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert list(words(())) == [()]
    assert list(words((0, 1))) == [(2,)]


def test_compositions():
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert list(compositions(0)) == [()]


def test_path_diagram_counts_match_fubini():
    for n in range(1, 6):
        total = sum(sum(1 for _ in path_diagrams(n, k)) for k in range(1, n + 1))
        assert total == fubini(n)


def test_desk_scale_guard(monkeypatch):
    with pytest.raises(DeskScaleError):
        next(ordered_set_partitions(13))
    monkeypatch.setenv("OPSTAT_MAX_N", "13")
    assert next(ordered_set_partitions(13)) is not None
    monkeypatch.delenv("OPSTAT_MAX_N")
    assert next(ordered_set_partitions(13, allow_large=True)) is not None


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_zero_vector_has_maj_zero():
    for pi0 in set_partitions(5, 3):
        rho = beta(pi0, (0, 0, 0))
        assert stat(rho, "maj") == 0


def test_beta_realises_prescribed_maj():
    for pi0 in set_partitions(5, 3):
        for c in subdiagonal_vectors(3):
            assert stat(beta(pi0, c), "maj") == sum(c)


def test_beta_image_is_rearrangement_class():
    for k in range(1, 5):
        for pi0 in set_partitions(5, k):
            image = {beta(pi0, c) for c in subdiagonal_vectors(k)}
            assert image == set(rearrangements(pi0))


def test_beta_roundtrip_exhaustive():
    for k in range(1, 6):
        for pi0 in set_partitions(5, k):
            for c in subdiagonal_vectors(k):
                assert beta_inv(beta(pi0, c)) == c


def test_beta_validation():
    pi0 = OrderedSetPartition.parse("1 2/3")
    with pytest.raises(ValueError):
        beta(pi0, (0,))
    with pytest.raises(ValueError):
        beta(pi0, (0, 5))
    with pytest.raises(ValueError):
        beta(OrderedSetPartition.parse("3/1 2"), (0, 0))


@pytest.mark.parametrize("c, named", [((0, True), "c_2 must be an integer, got True"),
                                      ((0.0, 0), "c_1 must be an integer, got 0.0")])
def test_beta_takes_only_int_entries(c, named):
    with pytest.raises(ValueError, match=named):
        beta(OrderedSetPartition.parse("1 2/3"), c)


def _beta_per_call(pi0, c):
    """beta with the class's type, opener ranks and openers rebuilt on every
    call and each block found by a scan: the reference for ``beta``."""
    if not pi0.is_standard():
        raise ValueError("beta expects a standard-form partition")
    if len(c) != pi0.k:
        raise ValueError(f"need one entry per block: {pi0.k}")
    lam = pi0.partition_type()
    rank = {el: j for j, el in enumerate(sorted(lam.openers | lam.singletons), start=1)}
    opener_of = {el: block[0] for block in pi0.blocks for el in block}
    blocks, active = [], []
    for i in range(1, pi0.n + 1):
        if i in rank:
            c_j = c[rank[i] - 1]
            if not 0 <= c_j <= rank[i] - 1:
                raise ValueError(f"entry c_{rank[i]}={c_j} outside 0..{rank[i] - 1}")
            pos = insertion_positions_by_sets(blocks, active)[c_j]
            blocks.insert(pos, [i])
            active.insert(pos, i in lam.openers)
        else:
            idx = next(j for j, b in enumerate(blocks) if active[j] and b[0] == opener_of[i])
            blocks[idx].append(i)
            if i in lam.closers:
                active[idx] = False
    return OrderedSetPartition.from_blocks(blocks, n=pi0.n)


def test_beta_matches_the_per_call_reference_exhaustive():
    count = 0
    for n in range(8):
        for pi0 in set_partitions(n):
            for c in subdiagonal_vectors(pi0.k):
                assert beta(pi0, c) == _beta_per_call(pi0, c)
                count += 1
    assert count == sum(fubini(n) for n in range(8))


def test_beta_reads_the_plan_of_the_class_it_is_given():
    # classes A, B, A with one type, so a plan kept across classes would put
    # the wrong transients into the blocks; then A as another equal object
    a, b = OrderedSetPartition.parse("1 3/2 4/5"), OrderedSetPartition.parse("1 4/2 3/5")
    assert a.partition_type() == b.partition_type()
    copy_of_a = OrderedSetPartition.parse("1 3/2 4/5")
    assert copy_of_a == a and copy_of_a is not a
    for pi0 in (a, b, a, copy_of_a, b):
        for c in subdiagonal_vectors(3):
            rho = beta(pi0, c)
            assert rho == _beta_per_call(pi0, c)
            assert sorted(rho.blocks) == list(pi0.blocks)


@pytest.mark.parametrize(
    "pi0,c,message",
    [
        ("3/1 2", (0,), "beta expects a standard-form partition"),
        ("1 2/3", (0, 5, 0), "need one entry per block: 2"),
        ("1 2/3", (0, 5), "entry c_2=5 outside 0..1"),
        ("1/2/3", (1, 5, 9), "entry c_1=1 outside 0..0"),
        ("1/2/3", (0, 0, -1), "entry c_3=-1 outside 0..2"),
    ],
)
def test_beta_refuses_in_the_reference_order(pi0, c, message):
    pi0 = OrderedSetPartition.parse(pi0)
    # a plan kept for another class changes nothing
    beta(OrderedSetPartition.parse("1 2/3"), (0, 1))
    for rearrange in (beta, _beta_per_call):
        with pytest.raises(ValueError) as excinfo:
            rearrange(pi0, c)
        assert str(excinfo.value) == message


def test_beta_matches_recorded_digest():
    # recorded when beta replayed the trace one element at a time
    lines = [
        f"{pi0} | {c} | {beta(pi0, c)}"
        for n in range(8)
        for pi0 in set_partitions(n)
        for c in subdiagonal_vectors(pi0.k)
    ]
    assert len(lines) == 52610
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5b8a86e7896ce63073f2362dac785c485037db7aca4a07de328d5f7315dba1b0"


@cache
def _stirling2_by_recursion(n, k):
    """The recurrence, one call level per n: the reference for ``stirling2``."""
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    return _stirling2_by_recursion(n - 1, k - 1) + k * _stirling2_by_recursion(n - 1, k)


def test_stirling2_matches_the_recursion():
    for n in range(31):
        for k in range(-1, n + 2):
            assert stirling2(n, k) == _stirling2_by_recursion(n, k)
        assert fubini(n) == sum(factorial(k) * _stirling2_by_recursion(n, k) for k in range(n + 1))


def test_fubini_known_values():
    # OEIS A000670
    known = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]
    assert [fubini(n) for n in range(11)] == known


def test_stirling2_runs_past_the_recursion_limit():
    assert stirling2(1200, 2) == 2 ** 1199 - 1
