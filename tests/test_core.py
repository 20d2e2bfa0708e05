import itertools

import pytest
from trace_reference import restrict, trace_text

from opstat.core import (
    OrderedSetPartition,
    PartitionType,
    Permutation,
    decompose_doubleton,
    doubleton_partition,
    from_d_code,
    inversion_number,
    major_index,
)
from opstat.families import ordered_set_partitions, permutations, set_partitions


# ---------------------------------------------------------------------------
# Parsing and canonical form
# ---------------------------------------------------------------------------

def test_parse_roundtrip():
    pi = OrderedSetPartition.parse("6 8/5/1 4 7/3 9/2")
    assert pi.n == 9
    assert pi.k == 5
    assert pi.to_text() == "6 8/5/1 4 7/3 9/2"


def test_parse_normalizes_block_order():
    assert OrderedSetPartition.parse("8 6/5/7 1 4/9 3/2").to_text() == "6 8/5/1 4 7/3 9/2"


def test_parse_single_element():
    pi = OrderedSetPartition.parse("1")
    assert pi.blocks == ((1,),)


def test_parse_braces_and_commas():
    assert OrderedSetPartition.parse("{2,3},{1}").to_text() == "2 3/1"
    assert OrderedSetPartition.parse("{1,4}{2,5}{3,6}").to_text() == "1 4/2 5/3 6"


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 2/2", "duplicate"),
        ("1//2", "empty block"),
        ("", "no blocks"),
        ("0 1", "outside"),
        # int() alone reads "1_0" as 10 and a fullwidth digit as 1
        ("1_0/2 3 4 5 6 7 8 9 1", "not a decimal number: '1_0'"),
        ("\uff11/2", "not a decimal number: '\uff11'"),
        ("-1/2", "not a decimal number: '-1'"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ValueError, match=message):
        OrderedSetPartition.parse(text)


def test_element_above_declared_n_rejected():
    with pytest.raises(ValueError, match="outside"):
        OrderedSetPartition.parse("1 5/2 3 4", n=4)


def test_missing_elements_rejected():
    with pytest.raises(ValueError, match="missing"):
        OrderedSetPartition.parse("1 3", n=3)


def test_partition_refuses_an_unsorted_block():
    # parse and from_blocks sort each block, so only the constructor sees one
    with pytest.raises(ValueError, match=r"^block not sorted: \(2, 1\)$"):
        OrderedSetPartition(3, ((2, 1), (3,)))


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: OrderedSetPartition.from_blocks([[1], [2.0]]), "2.0"),
        (lambda: OrderedSetPartition(2, ((1,), (2.0,))), "2.0"),
        (lambda: OrderedSetPartition(2, ((True,), (2,))), "True"),
        (lambda: OrderedSetPartition(True, ((1,),)), "True"),
        # refused by name before a block is sorted or n is inferred
        (lambda: OrderedSetPartition(2, ((1, "a"),)), "'a'"),
        (lambda: OrderedSetPartition.from_blocks([[1, "2"]]), "'2'"),
        (lambda: OrderedSetPartition.from_blocks([[1], ["2"]]), "'2'"),
    ],
    ids=["from_blocks-float", "float-element", "bool-element", "bool-n", "str-element", "from_blocks-str-element",
         "from_blocks-str-block"],
)
def test_partition_takes_only_int_sizes_and_elements(build, named):
    with pytest.raises(ValueError, match=f"must be an integer, got {named}"):
        build()


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: OrderedSetPartition(1, (1,)), "a block must be a tuple or a list, got 1"),
        (lambda: OrderedSetPartition(1, ("1",)), "a block must be a tuple or a list, got '1'"),
        (lambda: OrderedSetPartition(2, ({1, 2},)), r"a block must be a tuple or a list, got \{1, 2\}"),
        (lambda: OrderedSetPartition(1, 1), "blocks must be a tuple or a list, got 1"),
        (lambda: OrderedSetPartition.from_blocks([1, 2]), "a block must be a tuple or a list, got 1"),
        (lambda: OrderedSetPartition.from_blocks([[1], range(2, 3)]),
         r"a block must be a tuple or a list, got range\(2, 3\)"),
    ],
    ids=["int-block", "str-block", "set-block", "int-blocks", "from_blocks-int-block", "from_blocks-range-block"],
)
def test_partition_takes_only_tuple_or_list_blocks(build, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        build()


@pytest.mark.parametrize("blocks", [([1, 2],), [(1, 2)], [[1, 2]]], ids=["list-block", "list-blocks", "lists"])
def test_partition_stores_blocks_as_tuples(blocks):
    pi, expected = OrderedSetPartition(2, blocks), OrderedSetPartition(2, ((1, 2),))
    assert type(pi.blocks) is tuple and all(type(block) is tuple for block in pi.blocks)
    assert pi == expected and hash(pi) == hash(expected)


def test_json_shape():
    pi = OrderedSetPartition.parse("2 3/1")
    assert pi.to_json() == {"n": 3, "blocks": [[2, 3], [1]]}


# ---------------------------------------------------------------------------
# Standard form and sigma-classes
# ---------------------------------------------------------------------------

def test_standard_form_worked_example():
    pi = OrderedSetPartition.parse("6 8/5/1 4 7/3 9/2")
    std, sigma = pi.standard_form()
    assert std.to_text() == "1 4 7/2/3 9/5/6 8"
    assert sigma.images == (5, 4, 1, 3, 2)
    assert std.rearranged(sigma) == pi


def test_standard_form_single_block():
    pi = OrderedSetPartition.parse("1 2 3")
    std, sigma = pi.standard_form()
    assert std == pi
    assert sigma == Permutation.identity(1)


def test_standard_form_reversed_blocks():
    std, sigma = OrderedSetPartition.parse("3/2/1").standard_form()
    assert std.to_text() == "1/2/3"
    assert sigma.images == (3, 2, 1)


def test_standard_form_idempotent():
    for pi in set_partitions(5):
        std, sigma = pi.standard_form()
        assert std == pi and sigma == Permutation.identity(pi.k)


def test_standard_form_matches_validated_rebuild_exhaustive():
    # both results are built unchecked; each must equal, and hash like, what
    # the validating constructors build from its fields; n = 0 is the empty
    # partition
    for n in range(7):
        for pi in ordered_set_partitions(n):
            pi = OrderedSetPartition(pi.n, pi.blocks)
            std, sigma = pi.standard_form()
            rebuilt_std = OrderedSetPartition(std.n, std.blocks)
            rebuilt_sigma = Permutation(sigma.images)
            assert std == rebuilt_std and hash(std) == hash(rebuilt_std)
            assert sigma == rebuilt_sigma and hash(sigma) == hash(rebuilt_sigma)
            assert std.is_standard() and std.rearranged(sigma) == pi


def test_rearranged_rejects_wrong_size():
    pi = OrderedSetPartition.parse("1 4/2 3/5")
    for sigma in (Permutation.identity(2), Permutation.identity(4)):
        with pytest.raises(ValueError, match="permutation size"):
            pi.rearranged(sigma)


# ---------------------------------------------------------------------------
# Types and complements
# ---------------------------------------------------------------------------

def test_type_worked_example():
    lam = OrderedSetPartition.parse("3 5/2 4 6/1/7 8").partition_type()
    assert lam.openers == frozenset({2, 3, 7})
    assert lam.closers == frozenset({5, 6, 8})
    assert lam.singletons == frozenset({1})
    assert lam.transients == frozenset({4})


def test_type_all_singletons():
    lam = OrderedSetPartition.parse("1/2/3").partition_type()
    assert lam.as_tuple() == (frozenset(), frozenset(), frozenset({1, 2, 3}), frozenset())


def test_type_second_example():
    lam = OrderedSetPartition.parse("6 8/5/1 4 7/3 9/2").partition_type()
    assert lam.as_tuple() == (
        frozenset({1, 3, 6}),
        frozenset({7, 8, 9}),
        frozenset({2, 5}),
        frozenset({4}),
    )


def test_type_partitions_ground_set():
    for pi in set_partitions(6):
        lam = pi.partition_type()
        union = lam.openers | lam.closers | lam.singletons | lam.transients
        assert union == frozenset(range(1, 7))
        assert len(lam.openers) == len(lam.closers)


def test_type_validation():
    with pytest.raises(ValueError, match="disjoint"):
        PartitionType(frozenset({1}), frozenset({2}), frozenset({1}), frozenset())
    with pytest.raises(ValueError, match="differ in number"):
        PartitionType(frozenset({1}), frozenset(), frozenset({2}), frozenset())


def test_complement_worked_example():
    lam = PartitionType(
        frozenset({1, 2, 3}), frozenset({7, 8, 10}), frozenset({6, 9}), frozenset({4, 5})
    )
    assert lam.n == 10
    bar = lam.complement()
    assert bar.as_tuple() == (
        frozenset({1, 3, 4}),
        frozenset({8, 9, 10}),
        frozenset({2, 5}),
        frozenset({6, 7}),
    )


def test_complement_fixed_point():
    lam = PartitionType(frozenset(), frozenset(), frozenset({1}), frozenset())
    assert lam.complement() == lam


def test_complement_involution():
    for pi in set_partitions(8):
        lam = pi.partition_type()
        assert lam.complement().complement() == lam


# ---------------------------------------------------------------------------
# Traces: the restrictions of the tests' reference
# ---------------------------------------------------------------------------

def test_trace_worked_example():
    pi = OrderedSetPartition.parse("3 5 7/1 4 10/9/6/2 8")
    assert trace_text(*restrict(pi, 7)) == "3 5 7/1 4 ∞/6/2 ∞"


def test_trace_zero_is_empty():
    pi = OrderedSetPartition.parse("3 5 7/1 4 10/9/6/2 8")
    assert restrict(pi, 0) == ((), ())


def test_trace_restriction_drops_empty_blocks():
    pi = OrderedSetPartition.parse("6 8/5/1 4 7/3 9/2")
    assert trace_text(*restrict(pi, 5)) == "5/1 4 ∞/3 ∞/2"


def test_trace_full_is_partition():
    for pi in set_partitions(5):
        blocks, active = restrict(pi, pi.n)
        assert not any(active)
        assert blocks == pi.blocks


# ---------------------------------------------------------------------------
# Permutation codes
# ---------------------------------------------------------------------------

def test_lehmer_code_worked_example():
    sigma = Permutation.parse("86347521")
    assert sigma.lehmer_code() == (7, 5, 2, 2, 3, 2, 1, 0)
    assert sigma.d_code() == (0, 1, 2, 2, 2, 5, 3, 7)


def test_codes_of_identity():
    assert Permutation.identity(4).lehmer_code() == (0, 0, 0, 0)
    assert Permutation.identity(4).d_code() == (0, 0, 0, 0)


def test_d_code_second_example():
    assert Permutation.parse("43152").d_code() == (0, 0, 2, 3, 1)


def test_code_roundtrips_exhaustive():
    for k in range(7):
        for sigma in permutations(k):
            assert from_d_code(sigma.d_code()) == sigma


def test_code_sums_are_inversions():
    for k in range(7):
        for sigma in permutations(k):
            inv = sigma.inversion_number()
            assert sum(sigma.lehmer_code()) == inv
            assert sum(sigma.d_code()) == inv


def test_code_range_validation():
    with pytest.raises(ValueError):
        from_d_code((0, 2))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


@pytest.mark.parametrize("images, named", [((1.0, 2), "1.0"), ((2, True), "True")])
def test_permutation_takes_only_int_images(images, named):
    with pytest.raises(ValueError, match=f"must be an integer, got {named}"):
        Permutation(images)


@pytest.mark.parametrize("text", ["\uff12\uff11", "2 \uff11", "1_0 1 2 3 4 5 6 7 8 9"])
def test_permutation_parse_takes_only_ascii_decimal_tokens(text):
    with pytest.raises(ValueError, match="not a decimal number"):
        Permutation.parse(text)


# ---------------------------------------------------------------------------
# Word statistics
# ---------------------------------------------------------------------------

def test_word_stats_example():
    word = (2, 1, 3, 3, 1)
    assert (inversion_number(word), major_index(word)) == (4, 5)


def test_word_stats_increasing():
    word = (1, 2, 3, 4)
    assert (inversion_number(word), major_index(word)) == (0, 0)


def test_word_stats_empty():
    assert (inversion_number(()), major_index(())) == (0, 0)


def test_s3_maj_inv_equidistribution():
    inv_counts = {}
    maj_counts = {}
    for sigma in permutations(3):
        inv_counts[sigma.inversion_number()] = inv_counts.get(sigma.inversion_number(), 0) + 1
        maj_counts[sigma.major_index()] = maj_counts.get(sigma.major_index(), 0) + 1
    # [3]_q! = 1 + 2q + 2q^2 + q^3
    assert inv_counts == {0: 1, 1: 2, 2: 2, 3: 1}
    assert maj_counts == inv_counts


# ---------------------------------------------------------------------------
# Doubleton partitions
# ---------------------------------------------------------------------------

def recombine_doubleton(word, components, parts) -> OrderedSetPartition:
    """Inverse of ``decompose_doubleton``."""
    offsets = list(itertools.accumulate((2 * p for p in parts), initial=0))
    iters = [iter(c.blocks) for c in components]
    blocks = []
    for letter in word:
        block = next(iters[letter - 1])
        blocks.append(tuple(el + offsets[letter - 1] for el in block))
    return OrderedSetPartition(offsets[-1], tuple(blocks))


def test_doubleton_worked_example():
    pi = doubleton_partition((3, 2, 3))
    assert pi.to_text() == "1 4/2 5/3 6/7 9/8 10/11 14/12 15/13 16"


def test_doubleton_trivial():
    assert doubleton_partition((1,)).to_text() == "1 2"
    assert doubleton_partition((2, 1)).to_text() == "1 3/2 4/5 6"


def test_doubleton_zero_parts_contribute_nothing():
    assert doubleton_partition((0, 2, 0)) == doubleton_partition((2,))


def test_decompose_worked_example():
    parts = (3, 2, 3)
    pi = OrderedSetPartition.from_blocks(
        [(7, 9), (2, 5), (11, 14), (1, 4), (13, 16), (12, 15), (3, 6), (8, 10)]
    )
    word, components = decompose_doubleton(pi, parts)
    # the class word follows from the substitution rule: {3,6} is the third
    # class-1 doubleton and {8,10} the second class-2 one
    assert word == (2, 1, 3, 1, 3, 3, 1, 2)
    assert components[0].to_text() == "2 5/1 4/3 6"
    # classes 2 and 3 are relabelled onto their own ground sets
    assert components[1].to_text() == "1 3/2 4"
    assert components[2].to_text() == "1 4/3 6/2 5"
    assert recombine_doubleton(word, components, parts) == pi


def test_decompose_identity_word():
    parts = (2, 2)
    pi = doubleton_partition(parts)
    word, components = decompose_doubleton(pi, parts)
    assert word == (1, 1, 2, 2)
    assert all(c == doubleton_partition((2,)) for c in components)


def test_decompose_with_zero_parts():
    parts = (0, 2, 0)
    pi = doubleton_partition(parts)
    word, components = decompose_doubleton(pi, parts)
    assert word == (2, 2)
    assert [c.n for c in components] == [0, 4, 0]
    assert recombine_doubleton(word, components, parts) == pi


def test_decompose_rejects_foreign_partition():
    with pytest.raises(ValueError):
        decompose_doubleton(OrderedSetPartition.parse("1 2/3 4"), (2,))


def test_decompose_recombine_roundtrip_exhaustive():
    from opstat.families import rearrangements

    parts = (1, 1)
    for rho in rearrangements(doubleton_partition(parts)):
        word, components = decompose_doubleton(rho, parts)
        assert recombine_doubleton(word, components, parts) == rho
