import itertools
import math
from collections import Counter

import order_reference
import pytest
from order_reference import order_row, packed_pair_term, pair_rows
from trace_reference import parse_trace, trace_bdes_set, trace_bmaj, trace_ros, trace_rsb

from opstat.core import OrderedSetPartition
from opstat.families import ordered_set_partitions, rearrangements, set_partitions, stirling2
from opstat.paths import upsilon
from opstat.statistics import (
    COORD_NAMES,
    aggregate_profile,
    bdes_set,
    binv,
    block_order_totals,
    block_relation,
    bmaj,
    coord_stats,
    coordinate_table,
    field_values,
    order_reader,
    resolve_stat,
    six_composites,
    stat,
    stat_restricted,
    unpack_totals,
)
from opstat.verify import _INV_MAJ, _UPSILON_FIELDS, _XI_FIELDS

PI = OrderedSetPartition.parse("6 8/5/1 4 7/3 9/2")

# fields that read every pair read and both adjacent reads that a table
# packs: los, ros, lcs and rcs through the first five, ros_os, rcs_os and
# lcs_os through INV, bInv and lcs_os, C through cbinv, L and R through
# mak', then bMaj and maj sigma
EVERY_READ = ("mak", "los+rcs", "lsb", "binv", "rsb", "inv", "lcs_os", "cbinv", "makp", "bmaj", "majsigma")

# the fields that each transport check reads, and for a reader, which also
# reads bDes, EVERY_READ with it
CHECK_FIELDS = (_XI_FIELDS, _UPSILON_FIELDS, _INV_MAJ)
READER_FIELDS = (*CHECK_FIELDS, (*EVERY_READ, "bdes"))

# the full worked coordinate table, rows in element order 6 8 | 5 | 1 4 7 | 3 9 | 2
TABLE = {
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


def test_full_coordinate_table():
    assert coordinate_table(PI) == TABLE


def test_coord_column_5():
    cs = coord_stats(PI, 5)
    assert (cs.ros, cs.rcs, cs.lcb, cs.rsb) == (3, 1, 1, 2)
    assert (cs.lob, cs.los, cs.lcs, cs.rob, cs.rcb, cs.lsb) == (1, 0, 0, 0, 2, 0)


def test_coord_column_9():
    cs = coord_stats(PI, 9)
    assert (cs.los, cs.ros, cs.lcs, cs.rcs) == (3, 1, 3, 1)
    assert (cs.lcb, cs.rcb, cs.lsb, cs.rsb, cs.lob, cs.rob) == (0, 0, 0, 0, 0, 0)


def test_coord_single_element_partition():
    cs = coord_stats(OrderedSetPartition.parse("1"), 1)
    assert all(v == 0 for v in cs.as_dict().values())


def test_coord_element_out_of_range():
    with pytest.raises(ValueError):
        coord_stats(PI, 10)


def test_aggregates_from_table():
    assert stat(PI, "ros") == sum(TABLE["ros"]) == 17
    assert stat(PI, "lcs") == sum(TABLE["lcs"]) == 4
    assert stat(PI, "lsb") == stat(PI, "los") - stat(PI, "lcs") == 3


def test_single_block_lsb_zero():
    assert stat(OrderedSetPartition.parse("1 2 3"), "lsb") == 0


def test_restrictions_worked_example():
    assert stat_restricted(PI, "ros", "OS") == 8
    assert stat_restricted(PI, "rsb", "TC") == 3


def test_restrictions_split_total():
    for pi in ordered_set_partitions(5):
        for name in COORD_NAMES:
            assert (
                stat_restricted(pi, name, "OS") + stat_restricted(pi, name, "TC")
                == stat(pi, name)
            )


def test_restriction_validation():
    with pytest.raises(ValueError):
        stat_restricted(PI, "mak", "OS")
    with pytest.raises(ValueError):
        stat_restricted(PI, "ros", "middle")


def test_coordinate_decomposition_identity():
    # lsb_i = los_i - lcs_i = lcb_i - lob_i, and the right-hand mirror
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            for i in range(1, n + 1):
                cs = coord_stats(pi, i)
                assert cs.lsb == cs.los - cs.lcs == cs.lcb - cs.lob
                assert cs.rsb == cs.ros - cs.rcs == cs.rcb - cs.rob


# ---------------------------------------------------------------------------
# Block statistics
# ---------------------------------------------------------------------------

def test_block_relation_forced():
    pi = OrderedSetPartition.parse("3 4/1 2")
    assert block_relation(pi, 1, 2)


def test_block_relation_interleaved_incomparable():
    pi = OrderedSetPartition.parse("1 3/2")
    assert not block_relation(pi, 1, 2)
    assert not block_relation(pi, 2, 1)


def test_block_relation_pairs_of_worked_example():
    dominating = {
        (i, j)
        for i in range(1, 6)
        for j in range(1, 6)
        if i != j and block_relation(PI, i, j)
    }
    assert dominating == {(1, 2), (1, 5), (2, 5), (4, 5)}
    assert binv(PI) == 4


def test_binv_bmaj_reversed_chain():
    pi = OrderedSetPartition.parse("3/2/1")
    assert binv(pi) == 3
    assert bdes_set(pi) == {1, 2}
    assert bmaj(pi) == 3


def test_binv_zero_when_no_domination():
    assert binv(OrderedSetPartition.parse("1 3/2 4")) == 0


def test_bmaj_on_trace_with_active_blocks():
    t = parse_trace("6 11 ∞/3 5 7/1 4 10 ∞/9/2 8")
    assert trace_bdes_set(*t) == {4}
    assert trace_bmaj(*t) == 4


def test_block_statistic_bounds():
    # note bMaj <= bInv fails in general (e.g. 1/3/2), mirroring maj vs inv
    # on words; descent count <= bInv and both caps at C(k,2) do hold
    for pi in ordered_set_partitions(6):
        k = pi.k
        assert 0 <= bmaj(pi) <= math.comb(k, 2)
        assert len(bdes_set(pi)) <= binv(pi) <= math.comb(k, 2)


def test_trace_rsb_worked_example():
    t = parse_trace("3 5 7/1 4 ∞/6/2 ∞")
    assert trace_rsb(*t, 7) == 2
    assert trace_ros(*t, 7) == 3


def test_trace_rsb_no_active():
    t = parse_trace("1 2/3")
    assert all(trace_rsb(*t, i) == 0 for i in (1, 2, 3))


# ---------------------------------------------------------------------------
# Composite statistics
# ---------------------------------------------------------------------------

def test_composites_worked_example():
    assert stat(PI, "mak") == 17 + 4  # ros + lcs
    assert stat(PI, "makp") == 10 + 9  # lob + rcb
    assert stat(PI, "inv") == 8
    assert stat(PI, "Inv") == 8  # equals inv of sigma = 54132
    assert stat(PI, "inv") == stat_restricted(PI, "rsb", "OS") + binv(PI)
    assert stat(PI, "inv") == stat_restricted(PI, "ros", "OS")


def test_cinvlsb_single_block():
    assert stat(OrderedSetPartition.parse("1 2 3"), "cinvlsb") == 0


def test_name_resolution():
    assert resolve_stat("MAK")(PI) == stat(PI, "mak")
    assert resolve_stat("mak'")(PI) == stat(PI, "makp")
    assert resolve_stat("cinvLSB")(PI) == stat(PI, "cinvlsb")
    assert resolve_stat("ros_os")(PI) == 8
    with pytest.raises(ValueError):
        resolve_stat("dez")


def test_big_and_sigma_statistics_agree_for_inv():
    # INV = rsb_OS + bInv collapses to the class permutation's inversions
    for pi in ordered_set_partitions(6):
        assert stat(pi, "inv") == stat(pi, "invsigma")
        assert binv(pi) == stat_restricted(pi, "rcs", "OS")
        assert stat(pi, "inv") == stat_restricted(pi, "ros", "OS")


def test_positional_statistics_via_type():
    # cls, opb and sb depend only on openers/closers as positions in [n]
    for pi in ordered_set_partitions(6):
        openers = sorted(b[0] for b in pi.blocks)
        closers = sorted(b[-1] for b in pi.blocks)
        n, k = pi.n, pi.k
        lam = pi.partition_type()
        assert stat(pi, "cls") == sum(n - i for i in closers)
        assert stat(pi, "opb") == sum(i - 1 for i in openers)
        assert stat(pi, "sb") == (
            sum(lam.closers) - sum(lam.openers) + k - n
        )


def test_functional_identities():
    # mak + bInv = cls + rsb_TC + Inv, and friends
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            prof = aggregate_profile(pi)
            inv_s = stat(pi, "invsigma")
            k = pi.k
            assert stat(pi, "mak") + prof["binv"] == prof["cls"] + prof["rsb_tc"] + inv_s
            assert stat(pi, "makp") + prof["binv"] == prof["opb"] + prof["rsb_tc"] + inv_s
            assert stat(pi, "cinvlsb") == k * (k - 1) + prof["sb"] - prof["rsb_tc"] - inv_s


def test_six_composites_matches_definitions():
    for n in range(1, 6):
        for pi in ordered_set_partitions(n):
            expected = (
                stat(pi, "mak") + binv(pi),
                stat(pi, "makp") + binv(pi),
                stat(pi, "cinvlsb"),
                stat(pi, "mak") + bmaj(pi),
                stat(pi, "makp") + bmaj(pi),
                stat(pi, "cmajlsb"),
            )
            assert six_composites(pi) == expected


def test_invariant_sweep_n7():
    # one pass over all ordered partitions of [7]: the functional identities,
    # the opener-restriction collapses, and the positional formulas
    for pi in ordered_set_partitions(7):
        prof = aggregate_profile(pi)
        six = six_composites(pi)
        inv_s = pi.standard_form()[1].inversion_number()
        k, n = pi.k, pi.n
        assert prof["binv"] == prof["rcs_os"]
        assert prof["inv"] == prof["ros_os"] == inv_s
        assert six[0] == prof["cls"] + prof["rsb_tc"] + inv_s
        assert six[1] == prof["opb"] + prof["rsb_tc"] + inv_s
        assert six[2] == k * (k - 1) + prof["sb"] - prof["rsb_tc"] - inv_s
        assert prof["cls"] == sum(n - b[-1] for b in pi.blocks)
        assert prof["opb"] == sum(b[0] - 1 for b in pi.blocks)
        lam = pi.partition_type()
        assert prof["sb"] == sum(lam.closers) - sum(lam.openers) + k - n


def test_profile_and_fast_path_match_reference_exhaustive():
    # every coordinate sum and OS/TC restriction of the profile against sums
    # of the ten-counter reference over the element class, its block
    # statistics against the block-pair definitions, and six_composites
    # against the profile, on all ordered partitions with n <= 6
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            prof = aggregate_profile(pi)
            lam = pi.partition_type()
            opener_like = lam.openers | lam.singletons
            rows = {i: coord_stats(pi, i).as_dict() for i in range(1, n + 1)}
            for name in COORD_NAMES:
                os_sum = sum(rows[i][name] for i in opener_like)
                tc_sum = sum(rows[i][name] for i in rows if i not in opener_like)
                assert prof[name] == os_sum + tc_sum
                assert prof[f"{name}_os"] == os_sum
                assert prof[f"{name}_tc"] == tc_sum
            assert prof["binv"] == binv(pi)
            assert prof["bmaj"] == bmaj(pi)
            assert prof["bdes"] == len(bdes_set(pi))
            assert six_composites(pi) == (
                prof["mak"] + prof["binv"],
                prof["makp"] + prof["binv"],
                prof["cinvlsb"],
                prof["mak"] + prof["bmaj"],
                prof["makp"] + prof["bmaj"],
                prof["cmajlsb"],
            )


def test_field_values_match_profile_and_reference_exhaustive():
    # the fields of the transport checks, each a side of one, against
    # six_composites and the profile, and against sums of the ten-counter
    # reference and the block-pair definitions, on all ordered partitions
    # with n <= 6
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            side = field_values(pi, (*_UPSILON_FIELDS, *_INV_MAJ))
            prof = aggregate_profile(pi)
            assert side == (*six_composites(pi), prof["rsb_tc"], prof["inv"], prof["maj"])
            assert field_values(pi, _XI_FIELDS) == (*side[:3], side[6])

            lam = pi.partition_type()
            opener_like = lam.openers | lam.singletons
            rows = {i: coord_stats(pi, i) for i in range(1, n + 1)}
            total = lambda f, elements=rows: sum(f(rows[i]) for i in elements)
            choose2 = math.comb(pi.k, 2)
            mak = total(lambda c: c.ros + c.lcs)
            makp = total(lambda c: c.lob + c.rcb)
            lsb = total(lambda c: c.lsb)
            rsb_os = total(lambda c: c.rsb, opener_like)
            rsb_tc = total(lambda c: c.rsb, set(rows) - opener_like)
            b_inv, b_maj = binv(pi), bmaj(pi)
            assert side == (
                mak + b_inv,
                makp + b_inv,
                lsb + (choose2 - b_inv) + choose2,
                mak + b_maj,
                makp + b_maj,
                lsb + (choose2 - b_maj) + choose2,
                rsb_tc,
                rsb_os + b_inv,
                rsb_os + b_maj,
            )


def test_rcb_lsb_matches_the_profile_exhaustive():
    # every standard form for n <= 8 and every k, in set_partitions order:
    # one row per form, so S(n, k) rows, and none for k > n
    assert list(set_partitions(0, 0, fields=("rcb", "lsb"))) == [(0, 0)]
    for n in range(1, 9):
        for k in range(n + 2):
            rows = list(set_partitions(n, k, fields=("rcb", "lsb")))
            profiles = map(aggregate_profile, set_partitions(n, k))
            assert rows == [(prof["rcb"], prof["lsb"]) for prof in profiles]
            assert len(rows) == stirling2(n, k)


def test_rcb_lsb_rows_need_k_and_only_those_fields():
    with pytest.raises(ValueError, match="rcb and lsb rows need k"):
        set_partitions(3, fields=("rcb", "lsb"))
    for fields in (("rcb",), ("lsb", "rcb"), ("rcb", "lsb", "mak"), ("mak", "lsb")):
        with pytest.raises(ValueError, match=r"set partitions give the fields \('rcb', 'lsb'\) only"):
            set_partitions(3, 2, fields=fields)


def test_table_composites_match_six_composites_exhaustive():
    # every block order of every ordered partition with n <= 6: the six
    # composites are the first six fields that thm3.3's reader reads
    for n in range(1, 7):
        for std in set_partitions(n):
            read = order_reader(std.blocks, _UPSILON_FIELDS)
            for pi in rearrangements(std):
                assert read(pi)[:6] == six_composites(pi)


def test_order_reader_matches_field_values_exhaustive():
    # every block order of every ordered partition with n <= 6, then its
    # image under upsilon, as thm3.3 reads them: the reader of the standard
    # form's blocks gives field_values under the fields of each transport
    # check and under fields that read every read, bDes included
    for n in range(1, 7):
        for std in set_partitions(n):
            readers = [(order_reader(std.blocks, fields), fields) for fields in READER_FIELDS]
            for pi in rearrangements(std):
                for rho in (pi, upsilon(pi)):
                    for read, fields in readers:
                        assert read(rho) == field_values(rho, fields)


def test_a_reader_hands_a_partition_with_another_block_to_field_values(monkeypatch):
    # the table of 1 3/2 holds the blocks of 2/1 3 but not those of 1/2 3
    from opstat import statistics

    calls = []
    original = statistics.field_values
    monkeypatch.setattr(statistics, "field_values", lambda pi, fields: calls.append(pi) or original(pi, fields))
    read = order_reader(OrderedSetPartition.parse("1 3/2").blocks, EVERY_READ)
    own, other = OrderedSetPartition.parse("2/1 3"), OrderedSetPartition.parse("1/2 3")
    assert read(own) == order_row(own, EVERY_READ)
    assert calls == []
    assert read(other) == order_row(other, EVERY_READ)
    assert calls == [other]


def test_order_reader_refuses_a_table_past_its_limit(monkeypatch):
    # k 2^(k-1) cells for k blocks: with the limit one short of four
    # blocks' 32, three blocks still build a reader and four are refused
    # before any row is built
    from opstat import statistics

    def built(terms):
        raise AssertionError("a refused reader built its rows")

    three, four = OrderedSetPartition.parse("1/2/3"), OrderedSetPartition.parse("1/2/3/4")
    monkeypatch.setattr(statistics, "READER_MAX_CELLS", 4 * 2**3 - 1)
    assert order_reader(three.blocks, _INV_MAJ)(three) == field_values(three, _INV_MAJ)
    monkeypatch.setattr(statistics, "_pair_rows", built)
    with pytest.raises(ValueError, match=r"^a reader on 4 blocks needs 32 table cells, past the limit 31; its 4! orders"):
        order_reader(four.blocks, _INV_MAJ)
    # the limit itself admits 18 blocks and refuses 19, so thirty are
    # refused by their count, never built
    monkeypatch.undo()
    monkeypatch.setattr(statistics, "_pair_rows", built)
    assert 18 * 2**17 <= statistics.READER_MAX_CELLS < 19 * 2**18
    thirty = tuple((i,) for i in range(1, 31))
    with pytest.raises(ValueError, match=f"^a reader on 30 blocks needs {30 * 2**29} table cells"):
        order_reader(thirty, _UPSILON_FIELDS)


def test_order_reader_reads_any_table_that_holds_the_blocks():
    # a reader reads every order of its own blocks, and every order of those
    # of them that partition some [m], the empty partition included, as the
    # per-object reference does
    for text, orders in (("3/1/2", 1 + 1 + 2 + 6), ("1 4/2/3 5/6", 1 + 6 + 24), ("1 5/2/3 4/6/7", 1 + 6 + 24 + 120)):
        std = OrderedSetPartition.parse(text)
        for fields in READER_FIELDS:
            read = order_reader(std.blocks, fields)
            count = 0
            for size in range(std.k + 1):
                for blocks in itertools.permutations(std.blocks, size):
                    m = sum(map(len, blocks))
                    if {el for block in blocks for el in block} == set(range(1, m + 1)):
                        rho = OrderedSetPartition(m, blocks)
                        assert read(rho) == order_row(rho, fields)
                        count += 1
            assert count == orders


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_order_reader_matches_field_values_at_the_packing_extremes(order):
    # twelve singletons: the most blocks, and so the widest fields and the
    # largest table, for the ground sets that the desk-scale guard admits;
    # in decreasing order every pair is an inversion and a descent
    elements = range(1, 13) if order == "increasing" else range(12, 0, -1)
    pi = OrderedSetPartition.parse("/".join(map(str, elements)))
    for fields in READER_FIELDS:
        assert order_reader(pi.blocks, fields)(pi) == field_values(pi, fields)


def test_order_row_matches_the_profile_exhaustive():
    # the per-object reference of block_order_totals, field by field, on
    # the fields of every OP(n,k) sum and of the transport checks, against
    # the per-partition kernel
    from opstat.verify import _OP_SUMS, _op_fields

    field_sets = [_op_fields(slots)[0] for slots, _ in _OP_SUMS.values()] + [EVERY_READ]
    for n in range(1, 6):
        for pi in ordered_set_partitions(n):
            prof = aggregate_profile(pi)
            for fields in field_sets:
                expected = [
                    sum(
                        sign * (prof[name] if name in prof else stat(pi, name))
                        for sign, name in order_reference.terms(field)
                    )
                    for field in fields
                ]
                assert list(order_row(pi, fields)) == expected
            for fields in CHECK_FIELDS:
                assert order_row(pi, fields) == field_values(pi, fields)


def _order_rows(forms, n, k, fields):
    return unpack_totals(Counter(block_order_totals(forms, n, k, fields)), n, k, fields)


@pytest.mark.parametrize("suffix", [6, 2, 1])
def test_block_order_totals_match_the_per_object_reference(monkeypatch, suffix):
    # every field at once, and a projection that leaves gaps between the
    # fields it reads; suffix < k runs the loop over prefixes
    from opstat import statistics

    monkeypatch.setattr(statistics, "_SUFFIX_BLOCKS", suffix)
    for n in range(1, 7):
        for k in range(1, n + 1):
            for fields in (EVERY_READ, ("majsigma", "lsb", "bmaj")):
                expected = Counter(order_row(pi, fields) for pi in ordered_set_partitions(n, k))
                assert _order_rows(set_partitions(n, k), n, k, fields) == expected


def test_packed_block_orders_come_one_per_order_in_family_order():
    # ordered_set_partitions with fields gives each block order's packed
    # row where it gives the order itself
    from opstat import statistics

    fields = ("mak", "bmaj", "majsigma")
    for n, k in ((5, 3), (7, 7)):
        width = statistics._field_width(n, k)
        totals = list(ordered_set_partitions(n, k, fields=fields))
        orders = list(ordered_set_partitions(n, k))
        assert len(totals) == len(orders)
        for total, pi in zip(totals, orders):
            row = tuple(total >> slot * width & (1 << width) - 1 for slot in range(len(fields)))
            assert row == order_row(pi, fields)


def test_order_totals_come_in_permutations_order():
    # one standard form with k = 8 > 6: two-block prefixes, each with its
    # own head slots, in the order of itertools.permutations
    from opstat import statistics

    std = OrderedSetPartition.parse("1 9/2/3 10/4/5/6/7/8")
    width = statistics._field_width(std.n, std.k)
    runs = statistics._order_totals(std.blocks, EVERY_READ, width)
    totals = [total for run in runs for total in run]
    orders = list(itertools.permutations(std.blocks))
    assert len(totals) == len(orders) == math.factorial(8)
    field = (1 << width) - 1
    for index in range(0, len(orders), 101):
        pi = OrderedSetPartition._trusted(std.n, orders[index])
        row = tuple(totals[index] >> slot * width & field for slot in range(len(EVERY_READ)))
        assert row == order_row(pi, EVERY_READ)


def test_the_cell_cache_holds_only_suffix_orders():
    # an 8-block form reads the cells of 6-block suffixes, whatever k is
    from opstat import statistics

    statistics._suffix_cells.cache_clear()
    _order_rows([OrderedSetPartition.parse("1/2/3/4/5/6/7/8")], 8, 8, ("mak", "bmaj"))
    assert statistics._suffix_cells.cache_info().currsize == 1
    assert len(statistics._suffix_cells(statistics._SUFFIX_BLOCKS, True)) == math.factorial(6)


def test_the_layout_follows_the_suffix_size(monkeypatch):
    # one 7-block form under m = 6, then 2, then 6 again, with no cache
    # emptied between: each run reads the cells of its own m, and the
    # packing of the fields is built once
    from opstat import statistics

    std = OrderedSetPartition.parse("1 8/2/3 9/4/5/6/7")
    fields = ("mak", "lsb", "bmaj")
    width = statistics._field_width(std.n, std.k)
    field = (1 << width) - 1
    expected = [
        order_row(OrderedSetPartition._trusted(std.n, blocks), fields)
        for blocks in itertools.permutations(std.blocks)
    ]
    statistics._suffix_cells.cache_clear()
    statistics._packing.cache_clear()
    for suffix in (6, 2, 6):
        monkeypatch.setattr(statistics, "_SUFFIX_BLOCKS", suffix)
        totals = [total for run in statistics._order_totals(std.blocks, fields, width) for total in run]
        assert [tuple(t >> s * width & field for s in range(len(fields))) for t in totals] == expected
    assert statistics._suffix_cells.cache_info().currsize == 2
    assert statistics._packing.cache_info().currsize == 1


def test_pair_rows_read_both_orders_of_a_pair_as_the_ordered_reference():
    # each pair of blocks is read once for both of its orders; the reference
    # reads one ordered pair at a time, under the fields of every OP(n,k)
    # sum, those of the transport checks and fields that read every pair
    # read, in standard and reversed order
    import importlib

    from opstat import statistics

    verify = importlib.import_module("opstat.verify")
    field_sets = [verify._op_fields(slots)[0] for slots, _ in verify._OP_SUMS.values()]
    field_sets += [*CHECK_FIELDS, EVERY_READ]
    for n in range(1, 8):
        for std in set_partitions(n):
            width = statistics._field_width(n, std.k)
            for blocks in (std.blocks, std.blocks[::-1]):
                for fields in field_sets:
                    terms = statistics._pair_matrix(blocks, fields, width)
                    for i, left in enumerate(blocks):
                        for j, right in enumerate(blocks):
                            assert terms[i][j] == (packed_pair_term(left, right, fields, width) if i != j else 0)
                    assert statistics._pair_rows(terms) == pair_rows(blocks, fields, width)


def test_block_order_totals_refuse_unknown_fields_and_other_forms():
    # maj and signed sums of names are fields; an unknown name is not, nor
    # bdes, which no table holds
    assert list(block_order_totals(set_partitions(3, 2), 3, 2, ("maj", "mak+binv", "sb-rsb_tc")))
    for field in ("majx", "mak+", "mak++binv", "-mak"):
        with pytest.raises(ValueError, match=r"unknown statistic '\w*' in"):
            block_order_totals(set_partitions(3, 2), 3, 2, ("mak", field))
    for field in ("bdes", "mak-bdes"):
        with pytest.raises(ValueError, match=f"field '{field}' reads bdes, which is read per partition only"):
            block_order_totals(set_partitions(3, 2), 3, 2, ("mak", field))
    # another k, and another n of the same field width: (4, 3) and (5, 3)
    # both pack 8-bit fields
    from opstat import statistics

    assert statistics._field_width(4, 3) == statistics._field_width(5, 3) == 8
    for forms, other in (
        ([*set_partitions(3, 2), *set_partitions(3, 3)], "1/2/3"),
        ([*set_partitions(4, 3), *set_partitions(5, 3)], "1 2 3/4/5"),
    ):
        n, k = forms[0].n, forms[0].k
        with pytest.raises(ValueError, match=rf"block orders of \[{n}\] into {k} blocks cannot take '{other}'"):
            list(block_order_totals(forms, n, k, ("mak",)))
    with pytest.raises(ValueError, match="packed block orders need k"):
        ordered_set_partitions(3, fields=("mak",))


def test_aggregate_profile_matches_definitions():
    for n in range(1, 6):
        for pi in ordered_set_partitions(n):
            prof = aggregate_profile(pi)
            for name in COORD_NAMES:
                assert prof[name] == stat(pi, name)
            assert prof["ros_os"] == stat_restricted(pi, "ros", "OS")
            assert prof["rcs_os"] == stat_restricted(pi, "rcs", "OS")
            assert prof["rsb_os"] == stat_restricted(pi, "rsb", "OS")
            assert prof["rsb_tc"] == stat_restricted(pi, "rsb", "TC")
            assert prof["maj"] == stat(pi, "maj")


def test_every_form_equals_its_definition_exhaustive():
    # every name of the read table, as the dot product of its coefficients
    # with the kernel's reads, and through stat, against the coordinate
    # sums, the block statistics by definition and the class permutation,
    # on every ordered partition with n <= 6, the empty one included
    import operator

    from order_reference import reference_stats

    from opstat import statistics

    count = 0
    for n in range(7):
        for pi in ordered_set_partitions(n):
            expected = reference_stats(pi)
            assert set(expected) == set(statistics._FORMS)
            reads = statistics._read_sums(pi.blocks)
            for name, form in statistics._FORMS.items():
                assert sum(map(operator.mul, reads, form)) == expected[name] == stat(pi, name), name
            assert aggregate_profile(pi) == {name: expected[name] for name in aggregate_profile(pi)}
            count += 1
    assert count == 5317


def test_every_packed_form_stays_inside_its_field_exhaustive():
    # the premise of _field_width: every form of the read table, every field
    # that an OP(n,k) sum packs and every field that a transport check reads
    # sums to at least 0 and less than 2nk on every ordered partition with
    # n <= 7, so no packed field borrows from or carries into the next
    import importlib
    import operator

    from opstat import statistics

    verify = importlib.import_module("opstat.verify")
    fields = {field for slots, _ in verify._OP_SUMS.values() for slot in slots for field in slot}
    fields.update(itertools.chain.from_iterable(CHECK_FIELDS))
    forms = {statistics._form(field) for field in (*statistics._FORMS, *fields)}
    for n in range(1, 8):
        for k in range(1, n + 1):
            reads = set(map(statistics._read_sums, (pi.blocks for pi in ordered_set_partitions(n, k))))
            for form in forms:
                values = [sum(map(operator.mul, row, form)) for row in reads]
                assert 0 <= min(values) and max(values) < 2 * n * k
            assert 2 * n * k <= 1 << statistics._field_width(n, k)


def test_field_widths_are_whole_bytes():
    from opstat import statistics

    assert [statistics._field_width(n, 1) for n in (0, 1, 127, 128, 32767, 32768)] == [8, 8, 8, 16, 16, 32]
