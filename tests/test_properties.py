"""Randomised properties at sizes past the exhaustive range (n up to 12),
mirroring the exhaustive small-n checks."""
from hypothesis import given, settings
from hypothesis import strategies as st
from order_reference import order_row
from trace_reference import gap_order, restrict, trace_bmaj, trace_rsb, with_block

from opstat.core import OrderedSetPartition
from opstat.families import beta, beta_inv
from opstat.motzkin import lambda_map
from opstat.paths import (
    phi,
    phi_inv,
    psi,
    psi_inv,
    theta_map,
    upsilon,
    varphi,
    xi_map,
)
from opstat.statistics import (
    aggregate_profile,
    binv,
    bmaj,
    field_values,
    order_reader,
    six_composites,
    stat,
    stat_restricted,
)
from opstat.verify import _INV_MAJ, _OP_SUMS, _UPSILON_FIELDS, _XI_FIELDS


@st.composite
def partitions(draw, max_n: int = 12):
    n = draw(st.integers(1, max_n))
    blocks: list[list[int]] = []
    for i in range(1, n + 1):
        j = draw(st.integers(0, len(blocks)))
        if j == len(blocks):
            blocks.append([i])
        else:
            blocks[j].append(i)
    order = draw(st.permutations(range(len(blocks))))
    return OrderedSetPartition.from_blocks([blocks[j] for j in order])


@settings(max_examples=80)
@given(partitions())
def test_encoding_roundtrips(pi):
    assert phi(phi_inv(pi)) == pi
    assert psi(psi_inv(pi)) == pi


@settings(max_examples=80)
@given(partitions())
def test_varphi_involution_random(pi):
    h = phi_inv(pi)
    assert varphi(varphi(h)) == h


@settings(max_examples=60)
@given(partitions())
def test_xi_transport_random(pi):
    image = xi_map(pi)
    assert xi_map(image) == pi
    a, b, ci, *_ = six_composites(pi)
    a2, b2, ci2, *_ = six_composites(image)
    assert (a2, b2, ci2) == (b, a, ci)
    assert image.partition_type() == pi.partition_type().complement()
    assert image.standard_form()[1] == pi.standard_form()[1]
    assert stat_restricted(image, "rsb", "TC") == stat_restricted(pi, "rsb", "TC")


@settings(max_examples=60)
@given(partitions())
def test_upsilon_transport_random(pi):
    image = upsilon(pi)
    assert stat(image, "maj") == stat(pi, "inv")
    assert image.partition_type() == pi.partition_type()
    a, b, ci, *_ = six_composites(pi)
    *_, c2, d2, cm2 = six_composites(image)
    assert (c2, d2, cm2) == (a, b, ci)


@settings(max_examples=60)
@given(partitions())
def test_theta_transport_random(pi):
    image = theta_map(pi)
    assert theta_map(image) == pi
    assert stat(image, "maj") == stat(pi, "maj")
    assert image.partition_type() == pi.partition_type().complement()
    assert stat_restricted(image, "rsb", "TC") == stat_restricted(pi, "rsb", "TC")


@settings(max_examples=60)
@given(partitions())
def test_lambda_involution_random(pi):
    std = pi.standard_form()[0]
    image = lambda_map(std)
    assert lambda_map(image) == std
    assert image.k == std.k
    assert stat(std, "mak") == stat(image, "rcb")
    assert stat(std, "lcb") == stat(image, "lcb")


@settings(max_examples=60)
@given(partitions(), st.data())
def test_beta_roundtrip_random(pi, data):
    std = pi.standard_form()[0]
    c = tuple(data.draw(st.integers(0, j - 1)) for j in range(1, std.k + 1))
    image = beta(std, c)
    assert stat(image, "maj") == sum(c)
    assert beta_inv(image) == c
    assert image.standard_form()[0] == std


@settings(max_examples=60)
@given(partitions(), st.data())
def test_insertion_law_random(pi, data):
    i = data.draw(st.integers(0, pi.n - 1))
    t = restrict(pi, i)
    labels = gap_order(*t)
    level = data.draw(st.integers(0, len(labels) - 1))
    active = data.draw(st.booleans())
    base = trace_bmaj(*t)
    t2 = with_block(*t, labels[level], i + 1, active)
    assert trace_rsb(*t2, i + 1) + trace_bmaj(*t2) - base == level


@settings(max_examples=60)
@given(partitions())
def test_fast_paths_match_definitions_random(pi):
    prof = aggregate_profile(pi)
    assert prof["ros"] == stat(pi, "ros")
    assert prof["rsb_tc"] == stat_restricted(pi, "rsb", "TC")
    expected = (
        stat(pi, "mak") + binv(pi),
        stat(pi, "makp") + binv(pi),
        stat(pi, "cinvlsb"),
        stat(pi, "mak") + bmaj(pi),
        stat(pi, "makp") + bmaj(pi),
        stat(pi, "cmajlsb"),
    )
    assert six_composites(pi) == expected


@settings(max_examples=80)
@given(partitions(max_n=10))
def test_table_composites_random(pi):
    # the six composites are the first six fields that thm3.3's reader reads
    assert order_reader(pi.blocks, _UPSILON_FIELDS)(pi)[:6] == six_composites(pi)


@settings(max_examples=80)
@given(partitions(max_n=10))
def test_order_reader_random(pi):
    # a reader of pi's blocks reads pi and its image under upsilon as
    # field_values does, under the fields of each transport check
    image = upsilon(pi)
    for fields in (_XI_FIELDS, _UPSILON_FIELDS, _INV_MAJ):
        read = order_reader(pi.blocks, fields)
        assert read(pi) == field_values(pi, fields)
        assert read(image) == field_values(image, fields)


@settings(max_examples=60)
@given(partitions())
def test_every_packed_form_stays_inside_its_field_random(pi):
    # the premise of _field_width past the exhaustive range, up to the
    # desk-scale limit: every form of the read table, every field that an
    # OP(n,k) sum packs and every field that a transport check reads sums
    # to at least 0 and less than 2nk, by the per-object reference
    from opstat import statistics

    fields = {field for slots, _ in _OP_SUMS.values() for slot in slots for field in slot}
    fields.update(_XI_FIELDS, _UPSILON_FIELDS, _INV_MAJ)
    values = order_row(pi, (*statistics._FORMS, *sorted(fields)))
    assert 0 <= min(values) and max(values) < 2 * pi.n * pi.k <= 1 << statistics._field_width(pi.n, pi.k)


@settings(max_examples=80)
@given(partitions(max_n=10))
def test_trefinement_keys_random(pi):
    # the eq5.8/eq9.2 keys of the rows that their sweeps count against the
    # profile and the standard form's permutation
    from opstat.verify import _OP_SUMS, _op_fields, _slot_keys

    prof = aggregate_profile(pi)
    p_weights = [prof[name] + prof["rsb_tc"] for name in ("cls", "opb")]
    q_weight = prof["sb"] - prof["rsb_tc"]
    t_weights = (stat(pi, "invsigma"), stat(pi, "majsigma"))
    keys = {}
    for theorem in ("eq5.8", "eq9.2"):
        fields, positions = _op_fields(_OP_SUMS[theorem][0])
        keys[theorem] = _slot_keys(positions)(order_row(pi, fields))
    assert keys["eq5.8"] == [(p, q_weight, t, 0) for p in p_weights for t in t_weights]
    assert keys["eq9.2"] == [(p, q_weight, prof["maj"], 0) for p in p_weights]
