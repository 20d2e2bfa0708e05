import math

import pytest

from opstat.core import OrderedSetPartition, Trace
from opstat.families import ordered_set_partitions, set_partitions
from opstat.statistics import (
    COORD_NAMES,
    aggregate_profile,
    bdes_set,
    binv,
    block_relation,
    bmaj,
    composite,
    coord_stats,
    coordinate_table,
    rcb_lsb,
    resolve_stat,
    six_composites,
    stat,
    stat_restricted,
    table_side,
    transport_side,
    trace_ros,
    trace_rsb,
)

PI = OrderedSetPartition.parse("6 8/5/1 4 7/3 9/2")

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
    t = Trace.parse("6 11 ∞/3 5 7/1 4 10 ∞/9/2 8")
    assert bdes_set(t) == {4}
    assert bmaj(t) == 4


def test_block_statistic_bounds():
    # note bMaj <= bInv fails in general (e.g. 1/3/2), mirroring maj vs inv
    # on words; descent count <= bInv and both caps at C(k,2) do hold
    for pi in ordered_set_partitions(6):
        k = pi.k
        assert 0 <= bmaj(pi) <= math.comb(k, 2)
        assert len(bdes_set(pi)) <= binv(pi) <= math.comb(k, 2)


def test_trace_rsb_worked_example():
    t = Trace.parse("3 5 7/1 4 ∞/6/2 ∞")
    assert trace_rsb(t, 7) == 2
    assert trace_ros(t, 7) == 3


def test_trace_rsb_no_active():
    t = Trace.parse("1 2/3")
    assert all(trace_rsb(t, i) == 0 for i in (1, 2, 3))


# ---------------------------------------------------------------------------
# Composite statistics
# ---------------------------------------------------------------------------

def test_composites_worked_example():
    assert composite(PI, "mak") == 17 + 4  # ros + lcs
    assert composite(PI, "makp") == 10 + 9  # lob + rcb
    assert composite(PI, "inv") == 8
    assert composite(PI, "Inv") == 8  # equals inv of sigma = 54132
    assert composite(PI, "inv") == stat_restricted(PI, "rsb", "OS") + binv(PI)
    assert composite(PI, "inv") == stat_restricted(PI, "ros", "OS")


def test_cinvlsb_single_block():
    assert composite(OrderedSetPartition.parse("1 2 3"), "cinvlsb") == 0


def test_name_resolution():
    assert resolve_stat("MAK")(PI) == composite(PI, "mak")
    assert resolve_stat("mak'")(PI) == composite(PI, "makp")
    assert resolve_stat("cinvLSB")(PI) == composite(PI, "cinvlsb")
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
        openers = sorted(pi.openers)
        closers = sorted(pi.closers)
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
            assert composite(pi, "mak") + prof["binv"] == prof["cls"] + prof["rsb_tc"] + inv_s
            assert composite(pi, "makp") + prof["binv"] == prof["opb"] + prof["rsb_tc"] + inv_s
            assert composite(pi, "cinvlsb") == k * (k - 1) + prof["sb"] - prof["rsb_tc"] - inv_s


def test_six_composites_matches_definitions():
    for n in range(1, 6):
        for pi in ordered_set_partitions(n):
            expected = (
                composite(pi, "mak") + binv(pi),
                composite(pi, "makp") + binv(pi),
                composite(pi, "cinvlsb"),
                composite(pi, "mak") + bmaj(pi),
                composite(pi, "makp") + bmaj(pi),
                composite(pi, "cmajlsb"),
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
        assert prof["cls"] == sum(n - i for i in pi.closers)
        assert prof["opb"] == sum(i - 1 for i in pi.openers)
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


def test_transport_side_matches_profile_and_reference_exhaustive():
    # the per-side tuple of the transport checks against six_composites and
    # the profile, and against sums of the ten-counter reference and the
    # block-pair definitions, on all ordered partitions with n <= 6
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            side = transport_side(pi)
            prof = aggregate_profile(pi)
            assert side == (*six_composites(pi), prof["rsb_tc"], prof["inv"], prof["maj"])

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
    # every block order for n <= 6, and the standard forms eq2.3 sums over
    # for n <= 8
    family = [pi for n in range(1, 7) for pi in ordered_set_partitions(n)]
    family += [pi for n in range(7, 9) for pi in set_partitions(n)]
    for pi in family:
        prof = aggregate_profile(pi)
        assert rcb_lsb(pi) == (prof["rcb"], prof["lsb"])


def test_table_composites_match_six_composites_exhaustive():
    # every block order of every ordered partition with n <= 6: the six
    # composites are the first six entries that table_side reads
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            assert table_side(pi)[:6] == six_composites(pi)


def test_table_side_matches_transport_side_exhaustive():
    # every block order of every ordered partition with n <= 6
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            assert table_side(pi) == transport_side(pi)


def test_table_side_reads_any_table_that_holds_the_blocks():
    # 1/2 and 2/1 are read from the table of 3/1/2, whose blocks include theirs
    from opstat import statistics

    big = OrderedSetPartition.parse("3/1/2")
    assert table_side(big) == transport_side(big)
    table = statistics._side_table
    for text in ("1/2", "2/1", "3/1/2", "2/3/1"):
        pi = OrderedSetPartition.parse(text)
        assert table_side(pi) == transport_side(pi)
        assert statistics._side_table is table
    for text in ("2 3/1", "1/2"):
        pi = OrderedSetPartition.parse(text)
        assert table_side(pi) == transport_side(pi)
        assert statistics._side_table is not table
        table = statistics._side_table


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_table_side_matches_transport_side_at_the_packing_extremes(order):
    # twelve singletons: the most blocks, and so the widest fields and the
    # largest table, for the ground sets that the desk-scale guard admits;
    # in decreasing order every pair is an inversion and a descent
    elements = range(1, 13) if order == "increasing" else range(12, 0, -1)
    pi = OrderedSetPartition.parse("/".join(map(str, elements)))
    assert table_side(pi) == transport_side(pi)


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
