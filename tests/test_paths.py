import hashlib
import itertools
from bisect import bisect_left

import pytest
from trace_reference import (
    gap_order,
    insertion_positions_by_sets,
    masks_by_sets,
    parse_trace,
    restrict,
    trace_bmaj,
    trace_rsb,
    trace_text,
    with_block,
)

from opstat.core import OrderedSetPartition, PartitionType, Permutation
from opstat.families import (
    _paths,
    beta,
    fubini,
    ordered_set_partitions,
    path_diagrams,
    permutations,
    set_partitions,
    subdiagonal_vectors,
)
from opstat.paths import (
    EAST,
    NORTH,
    SOUTH_EAST,
    LatticePath,
    PathDiagram,
    _close,
    _gap,
    _insert,
    diagram_permutation,
    g_map,
    gamma_sigma,
    phi,
    phi_inv,
    psi,
    psi_inv,
    step_word,
    theta_map,
    upsilon,
    upsilon_inv,
    varphi,
    xi_map,
)
from opstat.statistics import bmaj, coord_stats, stat_restricted

# the running example: a depth-5 path of length 10 with its label sequence
RUN_PATH = LatticePath.parse("NNNOOEDDED")
RUN_LABELS = (0, 0, 2, 1, 2, 3, 2, 0, 1, 0)
RUN = PathDiagram(RUN_PATH, RUN_LABELS)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

def test_path_validation():
    with pytest.raises(ValueError, match="below the axis"):
        LatticePath.parse("DE")
    with pytest.raises(ValueError, match="height 0"):
        LatticePath.parse("OE")
    with pytest.raises(ValueError, match="return"):
        LatticePath.parse("NE")
    with pytest.raises(ValueError, match="bad step"):
        LatticePath.parse("NX")


def test_path_dimensions():
    assert RUN_PATH.n == 10
    assert RUN_PATH.k == 5


def test_path_type_worked_example():
    lam = RUN_PATH.partition_type()
    assert lam.as_tuple() == (
        frozenset({1, 2, 3}),
        frozenset({7, 8, 10}),
        frozenset({6, 9}),
        frozenset({4, 5}),
    )


def test_path_type_all_east():
    lam = LatticePath.parse("EEE").partition_type()
    assert lam.singletons == frozenset({1, 2, 3})


def test_path_from_type_roundtrip_exhaustive():
    for path in {h.path for h in path_diagrams(5, 3)}:
        assert LatticePath.from_type(path.partition_type()) == path


def test_path_from_type_rejects_bad_prefix():
    lam = PartitionType(frozenset({2}), frozenset({1}), frozenset(), frozenset())
    with pytest.raises(ValueError):
        LatticePath.from_type(lam)


def test_heights_worked_example():
    assert (RUN_PATH.x(7), RUN_PATH.y(7)) == (1, 3)  # step 7 starts at (1, 3)
    assert (RUN_PATH.x(1), RUN_PATH.y(1)) == (0, 0)


def test_heights_law_at_rises_and_flats():
    # the j-th North-or-East step starts on the antidiagonal x + y = j - 1
    for path in {h.path for h in path_diagrams(6, 3)}:
        rank = 0
        for i, step in enumerate(path.steps, start=1):
            if step in ("N", "E"):
                rank += 1
                assert path.x(i) + path.y(i) + 1 == rank


def test_associated_permutation_figure_example():
    w = LatticePath.parse("NNENDDNEDED")
    assert w.associated_permutation().images == (4, 2, 1, 3)


def test_associated_permutation_running_example():
    assert RUN_PATH.associated_permutation().images == (3, 2, 1)


def test_associated_permutation_single_pair():
    assert LatticePath.parse("ND").associated_permutation().images == (1,)


def test_reverse_running_example():
    rev = RUN_PATH.reverse()
    assert rev.to_text() == "NENNEOODDD"
    assert rev.partition_type() == RUN_PATH.partition_type().complement()


def test_reverse_associated_permutation_law():
    # pairing the reversed path inverts and reverses the original pairing
    for path in {h.path for h in path_diagrams(6, 3)}:
        sigma = path.associated_permutation()
        sigma_rev = path.reverse().associated_permutation()
        r = sigma.size
        inv = sigma.inverse()
        for j in range(1, r + 1):
            assert sigma_rev(j) == r + 1 - inv(r + 1 - j)


def test_reverse_involution_and_height_law():
    for path in {h.path for h in path_diagrams(6, 3)}:
        rev = path.reverse()
        assert rev.reverse() == path
        # the height of step i of the reverse is the ordinate of the point
        # the original reaches after n - i steps
        for i in range(1, path.n + 1):
            assert rev.y(i) == path.points[path.n + 1 - i][1]


# ---------------------------------------------------------------------------
# Path diagrams
# ---------------------------------------------------------------------------

def test_diagram_label_bounds():
    with pytest.raises(ValueError, match="outside"):
        PathDiagram(LatticePath.parse("ND"), (2, 0))
    with pytest.raises(ValueError, match="outside"):
        PathDiagram(LatticePath.parse("ND"), (0, 1))
    with pytest.raises(ValueError, match="one label"):
        PathDiagram(LatticePath.parse("ND"), (0,))


@pytest.mark.parametrize("labels, named", [((False,), "False at step 1"), ((0.0,), "0.0 at step 1")])
def test_diagram_takes_only_int_labels(labels, named):
    with pytest.raises(ValueError, match=f"must be an integer, got {named}"):
        PathDiagram(LatticePath.parse("E"), labels)


def test_diagram_text_roundtrip():
    assert PathDiagram.parse(RUN.to_text()) == RUN
    assert PathDiagram.parse("NNNOOEDDED:0,0,2,1,2,3,2,0,1,0") == RUN


@pytest.mark.parametrize("text", ["", "   ", " : "])
def test_diagram_parse_refuses_blank_text(text):
    with pytest.raises(ValueError) as excinfo:
        PathDiagram.parse(text)
    assert str(excinfo.value) == f"no steps in diagram text: {text!r}"


@pytest.mark.parametrize("labels", ["0,\uff10", "0_0,0"])
def test_diagram_parse_takes_only_ascii_decimal_labels(labels):
    with pytest.raises(ValueError, match="not a decimal number"):
        PathDiagram.parse(f"ND {labels}")


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------

def test_phi_worked_example():
    assert phi(RUN).to_text() == "6/3 5 7/1 4 10/9/2 8"


def test_phi_smallest():
    assert phi(PathDiagram(LatticePath.parse("ND"), (0, 0))).to_text() == "1 2"


def test_phi_preserves_type():
    for h in path_diagrams(6, 3):
        assert phi(h).partition_type() == h.path.partition_type()


def test_phi_label_law():
    # after decoding, labels are ros_i at openers/singletons, rsb_i elsewhere
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                pi = phi(h)
                lam = pi.partition_type()
                os = lam.openers | lam.singletons
                for i in range(1, n + 1):
                    cs = coord_stats(pi, i)
                    assert h.labels[i - 1] == (cs.ros if i in os else cs.rsb)


def test_phi_roundtrip_exhaustive():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                assert phi_inv(phi(h)) == h


def test_phi_is_onto():
    images = {phi(h) for h in path_diagrams(5, 3)}
    assert images == set(ordered_set_partitions(5, 3))


# ---------------------------------------------------------------------------
# psi and the insertion labelling
# ---------------------------------------------------------------------------

def test_psi_worked_example():
    assert psi(RUN).to_text() == "6/3 5 7/9/1 4 10/2 8"


def test_psi_all_east_appends_rightwards():
    h = PathDiagram(LatticePath.parse("EEEE"), (0, 0, 0, 0))
    assert psi(h).to_text() == "1/2/3/4"


def test_insertion_labels_worked_example():
    t = parse_trace("6 11 ∞/3 5 7/1 4 10 ∞/9/2 8")
    assert gap_order(*t) == (5, 4, 2, 0, 1, 3)


def test_insertion_labels_empty_trace():
    assert gap_order((), ()) == (0,)


INSERTED = {
    0: "6 11 ∞/3 5 7/1 4 10 ∞/9/2 8/12",
    1: "6 11 ∞/3 5 7/1 4 10 ∞/9/12/2 8",
    2: "6 11 ∞/3 5 7/12/1 4 10 ∞/9/2 8",
    3: "12/6 11 ∞/3 5 7/1 4 10 ∞/9/2 8",
    4: "6 11 ∞/12/3 5 7/1 4 10 ∞/9/2 8",
    5: "6 11 ∞/3 5 7/1 4 10 ∞/12/9/2 8",
}


def test_insertion_golden_table():
    t = parse_trace("6 11 ∞/3 5 7/1 4 10 ∞/9/2 8")
    labels = gap_order(*t)
    base = trace_bmaj(*t)
    assert base == 4
    for level, expected in INSERTED.items():
        t2 = with_block(*t, labels[level], 12)
        assert trace_text(*t2) == expected
        assert trace_rsb(*t2, 12) + trace_bmaj(*t2) - base == level


def test_insertion_law_everywhere():
    # inserting at the gap labelled l raises rsb + bMaj by exactly l, for
    # every trace of every small ordered partition, active or plain blocks
    for pi in ordered_set_partitions(5):
        for i in range(pi.n):
            t = restrict(pi, i)
            labels = gap_order(*t)
            base = trace_bmaj(*t)
            for level in range(len(labels)):
                for active in (False, True):
                    t2 = with_block(*t, labels[level], i + 1, active)
                    assert trace_rsb(*t2, i + 1) + trace_bmaj(*t2) - base == level


def test_psi_label_law():
    # label sums: over openers/singletons rsb_OS + bMaj, over the rest rsb_TC
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                pi = psi(h)
                lam = pi.partition_type()
                os = sorted(lam.openers | lam.singletons)
                os_sum = sum(h.labels[i - 1] for i in os)
                tc_sum = sum(h.labels)  - os_sum
                assert os_sum == stat_restricted(pi, "rsb", "OS") + bmaj(pi)
                assert tc_sum == stat_restricted(pi, "rsb", "TC")


def test_psi_inv_labels_match_trace_formula():
    # the paper's label of element i: rsb_i plus, at an opener/singleton,
    # the growth of bMaj between the trace at the previous opener/singleton
    # and the trace at i
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            lam = pi.partition_type()
            os = lam.openers | lam.singletons
            expected, prev = [], 0
            for i in range(1, n + 1):
                rsb = coord_stats(pi, i).rsb
                if i in os:
                    cur = trace_bmaj(*restrict(pi, i))
                    expected.append(rsb + cur - prev)
                    prev = cur
                else:
                    expected.append(rsb)
            assert psi_inv(pi).labels == tuple(expected)


def test_psi_roundtrip_exhaustive():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                assert psi_inv(psi(h)) == h


def test_psi_preserves_type_and_is_onto():
    images = set()
    for h in path_diagrams(5, 3):
        pi = psi(h)
        assert pi.partition_type() == h.path.partition_type()
        images.add(pi)
    assert images == set(ordered_set_partitions(5, 3))


# ---------------------------------------------------------------------------
# varphi
# ---------------------------------------------------------------------------

def test_varphi_worked_example():
    image = varphi(RUN)
    assert image.path.to_text() == "NENNEOODDD"
    assert image.labels == (0, 0, 2, 3, 1, 2, 1, 2, 0, 0)


def test_varphi_zero_opener_labels_copied():
    h = PathDiagram(LatticePath.parse("NDND"), (0, 0, 0, 0))
    image = varphi(h)
    lam = image.path.partition_type()
    for i in sorted(lam.openers | lam.singletons):
        assert image.labels[i - 1] == 0


def test_varphi_involution_and_sums():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                image = varphi(h)
                assert varphi(image) == h
                os_w = [i for i, s in enumerate(h.path.steps, 1) if s in "NE"]
                os_v = [i for i, s in enumerate(image.path.steps, 1) if s in "NE"]
                assert sum(h.labels[i - 1] for i in os_w) == sum(
                    image.labels[i - 1] for i in os_v
                )
                assert sum(h.labels) == sum(image.labels)


# ---------------------------------------------------------------------------
# g_map and gamma_sigma
# ---------------------------------------------------------------------------

def test_g_map_worked_example():
    h = PathDiagram(RUN_PATH, (0, 0, 0, 1, 2, 0, 2, 0, 0, 0))
    image = g_map(h, Permutation.parse("43152"))
    assert image.labels == (0, 0, 2, 1, 2, 3, 2, 0, 1, 0)
    assert image.path == RUN_PATH


def test_g_map_identity_zeroes_opener_labels():
    image = g_map(RUN, Permutation.identity(5))
    lam = RUN_PATH.partition_type()
    for i in sorted(lam.openers | lam.singletons):
        assert image.labels[i - 1] == 0


def test_g_map_inverse_relation():
    for h in path_diagrams(6, 3):
        tau = diagram_permutation(h)
        for sigma in permutations(3):
            assert g_map(g_map(h, sigma), tau) == h


def test_gamma_sigma_worked_example():
    pi = OrderedSetPartition.parse("1 5 7/2 4 10/3 8/6/9")
    sigma = Permutation.parse("43152")
    assert gamma_sigma(pi, sigma).to_text() == "6/3 5 7/1 4 10/9/2 8"


def test_gamma_sigma_identity_fixes_standard_forms():
    for pi in set_partitions(5):
        assert gamma_sigma(pi, Permutation.identity(pi.k)) == pi


def test_gamma_sigma_requires_standard_form():
    with pytest.raises(ValueError):
        gamma_sigma(OrderedSetPartition.parse("2/1"), Permutation.identity(2))


def test_gamma_sigma_lands_in_sigma_class_with_invariants():
    from opstat.statistics import stat

    for k in range(1, 5):
        for pi in set_partitions(6, k):
            _check_gamma_class(pi, k, stat)


def _check_gamma_class(pi, k, stat):
    for sigma in permutations(k):
        image = gamma_sigma(pi, sigma)
        assert image.standard_form()[1] == sigma
        assert image.partition_type() == pi.partition_type()
        for name in ("cls", "opb", "sb"):
            assert stat(image, name) == stat(pi, name)
        assert stat_restricted(image, "rsb", "TC") == stat_restricted(pi, "rsb", "TC")


# ---------------------------------------------------------------------------
# Composed bijections
# ---------------------------------------------------------------------------

def test_xi_worked_example():
    pi = OrderedSetPartition.parse("6/3 5 7/1 4 10/9/2 8")
    assert xi_map(pi).to_text() == "4 6 8/3 7 10/1 9/5/2"


def test_upsilon_worked_example():
    pi = OrderedSetPartition.parse("6/3 5 7/1 4 10/9/2 8")
    assert upsilon(pi).to_text() == "6/3 5 7/9/1 4 10/2 8"


def test_theta_worked_example():
    pi = OrderedSetPartition.parse("6/3 5 7/9/1 4 10/2 8")
    assert theta_map(pi).to_text() == "4 6 8/1 7 10/3 9/5/2"


def test_xi_theta_involutions():
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            assert xi_map(xi_map(pi)) == pi
            assert theta_map(theta_map(pi)) == pi


def test_upsilon_bijection_roundtrip():
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            assert upsilon_inv(upsilon(pi)) == pi


def test_upsilon_maj_equals_inv_exhaustive():
    from opstat.statistics import stat

    for pi in ordered_set_partitions(6):
        assert stat(upsilon(pi), "maj") == stat(pi, "inv")


def test_theta_complements_type_and_preserves_maj():
    from opstat.statistics import stat

    for pi in ordered_set_partitions(5):
        image = theta_map(pi)
        assert image.partition_type() == pi.partition_type().complement()
        assert stat(image, "maj") == stat(pi, "maj")
        assert stat_restricted(image, "rsb", "TC") == stat_restricted(pi, "rsb", "TC")


def test_xi_swaps_cls_opb():
    from opstat.statistics import stat

    for pi in ordered_set_partitions(5):
        image = xi_map(pi)
        assert stat(image, "cls") == stat(pi, "opb")
        assert stat(image, "opb") == stat(pi, "cls")
        assert stat(image, "invsigma") == stat(pi, "invsigma")
        assert stat_restricted(image, "rsb", "TC") == stat_restricted(pi, "rsb", "TC")


def test_step_word_is_the_path_of_the_type_exhaustive():
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            word = step_word(pi)
            assert word == LatticePath.from_type(pi.partition_type()).to_text()
            assert word == phi_inv(pi).path.to_text()


def test_diagram_label_bounds_match_step_coordinates():
    # on every lattice path with n <= 5, each step's label at -1, at its
    # bound and at bound + 1, the others 0: bound = y(i) - 1 on O/D steps and
    # x(i) + y(i) on N/E steps
    for n in range(1, 6):
        for steps in itertools.product("NEDO", repeat=n):
            try:
                path = LatticePath(steps)
            except ValueError:
                continue
            for i, step in enumerate(steps, start=1):
                bound = path.y(i) - 1 if step in "OD" else path.x(i) + path.y(i)
                for label in (-1, bound, bound + 1):
                    labels = [0] * n
                    labels[i - 1] = label
                    if 0 <= label <= bound:
                        assert PathDiagram(path, tuple(labels)).labels == tuple(labels)
                    else:
                        message = f"label {label} at step {i} ({step}) outside 0..{bound}"
                        with pytest.raises(ValueError) as excinfo:
                            PathDiagram(path, tuple(labels))
                        assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# Trusted encoder outputs and the one-pass gap relabelling, against the
# validating constructors and the set-and-sort relabelling
# ---------------------------------------------------------------------------

def test_encoder_inverses_build_what_the_validating_constructors_accept():
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            for encode in (phi_inv, psi_inv):
                h = encode(pi)
                assert h == PathDiagram(LatticePath(h.path.steps), h.labels)


def test_encoders_build_what_the_validating_constructors_accept():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                for decode in (phi, psi):
                    out = decode(h)
                    assert out == OrderedSetPartition.from_blocks(out.blocks, n=out.n)


# ---------------------------------------------------------------------------
# The state-count label reading and the open-block decoder, against the
# trace-replaying encoders
# ---------------------------------------------------------------------------

def _active_index_from_right(active: list[bool], m: int) -> int:
    """Index of the active block having exactly m active blocks to its right."""
    count = 0
    for idx in range(len(active) - 1, -1, -1):
        if active[idx]:
            if count == m:
                return idx
            count += 1
    raise ValueError(f"no active block with {m} active blocks to its right")


def _grow(builder_blocks, builder_active, step, label, i, by_gap_rank):
    """Extend a partial partition by one element.

    N/E create a block at a gap; O/D join the active block with ``label``
    active blocks to its right.  ``by_gap_rank`` chooses between plain
    right-to-left gap numbering (phi) and the descent-sensitive relabelling
    (psi) for the N/E case.
    """
    if step in (NORTH, EAST):
        if by_gap_rank:
            pos = len(builder_blocks) - label
        else:
            pos = insertion_positions_by_sets(builder_blocks, builder_active)[label]
        builder_blocks.insert(pos, [i])
        builder_active.insert(pos, step == NORTH)
    else:
        idx = _active_index_from_right(builder_active, label)
        builder_blocks[idx].append(i)
        if step == SOUTH_EAST:
            builder_active[idx] = False


def _run_encoding_by_replay(h: PathDiagram, by_gap_rank: bool) -> OrderedSetPartition:
    """The decoder that scans for each active block: the reference for
    ``phi`` and ``psi``."""
    blocks: list[list[int]] = []
    active: list[bool] = []
    for i, (step, label) in enumerate(zip(h.path.steps, h.labels), start=1):
        _grow(blocks, active, step, label, i, by_gap_rank)
    assert not any(active)
    # each block grew in increasing order and every element of [n] went
    # into one block, so the blocks are a sorted partition of [n]
    return OrderedSetPartition._trusted(h.n, tuple(map(tuple, blocks)))


def _read_labels_by_replay(pi: OrderedSetPartition, by_gap_rank: bool) -> PathDiagram:
    """Inverse of ``_run_encoding``: grow the traces of pi and record, per
    element, the step and the label with which ``_grow`` puts it where pi
    has it.

    The steps are ``step_word(pi)``.  A new block goes to the gap left of
    the trace blocks that follow it in pi; its label is that gap's rank from
    the right (phi) or its index in the set reference's gap order (psi).  Any
    other element's label is the number of active blocks right of its block.
    Every label lies within its step's bounds, so the diagram is built
    unchecked.
    """
    word = step_word(pi)
    owner = [0] * (pi.n + 1)  # pi's block index of each element
    for b, block in enumerate(pi.blocks):
        for el in block:
            owner[el] = b
    blocks: list[list[int]] = []
    active: list[bool] = []
    order: list[int] = []  # pi's block index of each trace block, increasing
    labels = []
    for i, step in enumerate(word, start=1):
        b = owner[i]
        pos = bisect_left(order, b)
        if step in (NORTH, EAST):
            if by_gap_rank:
                labels.append(len(blocks) - pos)
            else:
                labels.append(insertion_positions_by_sets(blocks, active).index(pos))
            order.insert(pos, b)
            blocks.insert(pos, [i])
            active.insert(pos, step == NORTH)
        else:
            labels.append(sum(active[pos + 1:]))
            blocks[pos].append(i)
            if step == SOUTH_EAST:
                active[pos] = False
    return PathDiagram._trusted(LatticePath._trusted(tuple(word)), tuple(labels))


def test_encoder_inverses_match_the_trace_replaying_reference():
    count = 0
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            assert phi_inv(pi) == _read_labels_by_replay(pi, by_gap_rank=True)
            assert psi_inv(pi) == _read_labels_by_replay(pi, by_gap_rank=False)
            count += 1
    assert count == 5316  # the ordered partitions with 1 <= n <= 6


def test_encoders_match_the_trace_replaying_reference():
    count = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                assert phi(h) == _run_encoding_by_replay(h, by_gap_rank=True)
                assert psi(h) == _run_encoding_by_replay(h, by_gap_rank=False)
                count += 1
    assert count == 5316  # as many path diagrams: phi is a bijection


# ---------------------------------------------------------------------------
# The mask step (``_gap``, the insert rule and the close rule), against the
# masks of traces grown from real blocks by the set reference
# ---------------------------------------------------------------------------

def _step_masks(masks, r, step, pos):
    """The masks after one step of a trace of r blocks: a new block at gap
    pos (N/E), or the block at position pos joined (O) or closed (D)."""
    if step in (NORTH, EAST):
        return _insert(*masks, r, pos, step == NORTH)
    if step == SOUTH_EAST:
        return _close(*masks, 1 << pos)
    return masks


def test_gap_matches_the_set_and_sort_reference():
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            for i in range(n + 1):
                t = restrict(pi, i)
                assert gap_order(*t) == insertion_positions_by_sets(*t)


def _replay_the_mask_step(by_gap_rank):
    """Grow the traces of every path diagram with n <= 6 under phi
    (``by_gap_rank``) or psi, keep the masks by the insert and close rules,
    and compare them with the set reference at every step."""
    count = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                blocks, active, masks = [], [], (0, 0)
                for i, (step, label) in enumerate(zip(h.path.steps, h.labels), start=1):
                    r = len(blocks)
                    if step not in (NORTH, EAST):
                        pos = _active_index_from_right(active, label)
                    elif by_gap_rank:
                        pos = r - label
                    else:
                        pos = insertion_positions_by_sets(blocks, active)[label]
                        assert _gap(masks[1], r, label) == pos
                    _grow(blocks, active, step, label, i, by_gap_rank)
                    masks = _step_masks(masks, r, step, pos)
                    assert masks == masks_by_sets(blocks, active)
                decode = phi if by_gap_rank else psi
                assert tuple(map(tuple, blocks)) == decode(h).blocks
                count += 1
    return count


def test_mask_step_follows_the_traces_that_psi_grows():
    assert _replay_the_mask_step(by_gap_rank=False) == 5316


def test_mask_step_follows_the_traces_that_phi_grows():
    # the special gaps belong to the trace, not to the encoding: on the
    # traces that phi grows by gap rank the rules keep them just as well
    assert _replay_the_mask_step(by_gap_rank=True) == 5316


def test_mask_step_follows_the_traces_that_psi_inv_reads():
    count = 0
    for n in range(1, 7):
        for pi in ordered_set_partitions(n):
            owner = {el: b for b, block in enumerate(pi.blocks) for el in block}
            blocks, active, masks = [], [], (0, 0)
            order = []  # pi's block index of each trace block, increasing
            h = psi_inv(pi)
            for i, (step, label) in enumerate(zip(h.path.steps, h.labels), start=1):
                r, pos = len(blocks), bisect_left(order, owner[i])
                if step in (NORTH, EAST):
                    assert insertion_positions_by_sets(blocks, active)[label] == pos
                    assert _gap(masks[1], r, label) == pos
                    order.insert(pos, owner[i])
                else:
                    assert _active_index_from_right(active, label) == pos
                _grow(blocks, active, step, label, i, by_gap_rank=False)
                masks = _step_masks(masks, r, step, pos)
                assert masks == masks_by_sets(blocks, active)
            assert tuple(map(tuple, blocks)) == pi.blocks
            count += 1
    assert count == 5316


def test_mask_step_follows_the_traces_that_beta_grows():
    count = 0
    for n in range(1, 7):
        for pi0 in set_partitions(n):
            word = step_word(pi0)
            opener_of = {el: block[0] for block in pi0.blocks for el in block}
            for c in subdiagonal_vectors(pi0.k):
                entries = iter(c)
                blocks, active, masks = [], [], (0, 0)
                for i, step in enumerate(word, start=1):
                    r = len(blocks)
                    if step in (NORTH, EAST):
                        c_j = next(entries)
                        pos = insertion_positions_by_sets(blocks, active)[c_j]
                        assert _gap(masks[1], r, c_j) == pos
                        blocks.insert(pos, [i])
                        active.insert(pos, step == NORTH)
                    else:
                        pos = next(j for j, b in enumerate(blocks) if b[0] == opener_of[i])
                        blocks[pos].append(i)
                        active[pos] = step != SOUTH_EAST
                    masks = _step_masks(masks, r, step, pos)
                    assert masks == masks_by_sets(blocks, active)
                assert tuple(map(tuple, blocks)) == beta(pi0, c).blocks
                count += 1
    assert count == sum(fubini(n) for n in range(1, 7))


# ---------------------------------------------------------------------------
# The one-pass varphi and the stack pairing, against the six-scan varphi and
# the nested-scan pairing; the encodings' outputs, against digests
# ---------------------------------------------------------------------------

def _positions(path, kinds):
    return tuple(i for i, s in enumerate(path.steps, start=1) if s in kinds)


def _associated_permutation_by_scans(path):
    """Each North step's South-East step found by a scan over all of them:
    the reference for ``LatticePath.associated_permutation``."""
    souths = _positions(path, "D")
    images = []
    for o in _positions(path, "N"):
        t = path.y(o)
        images.append(next(j for j, c in enumerate(souths, start=1) if c > o and path.y(c) == t + 1))
    return Permutation(tuple(images))


def _varphi_by_scans(h):
    """varphi from the step positions of the path and of its reverse, six
    scans in all: the reference for ``varphi``."""
    w = h.path
    wb = w.reverse()
    sigma = _associated_permutation_by_scans(w)
    r = sigma.size
    os_w, os_wb = _positions(w, "NE"), _positions(wb, "NE")
    t_w, t_wb = _positions(w, "O"), _positions(wb, "O")
    c_w, c_wb = _positions(w, "D"), _positions(wb, "D")
    xi = [0] * h.n
    for m, pos in enumerate(os_wb):
        xi[pos - 1] = h.labels[os_w[m] - 1]
    u = len(t_w)
    for m, pos in enumerate(t_wb, start=1):
        xi[pos - 1] = h.labels[t_w[u - m] - 1]
    for m, pos in enumerate(c_wb, start=1):
        xi[pos - 1] = h.labels[c_w[sigma(r + 1 - m) - 1] - 1]
    return PathDiagram(wb, tuple(xi))


def test_varphi_matches_the_six_scan_reference():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for h in path_diagrams(n, k):
                assert varphi(h) == _varphi_by_scans(h)


def test_associated_permutation_matches_the_nested_scan_reference():
    count = 0
    for n in range(9):
        for k in range(n + 1):
            for steps in _paths(n, k):
                path = LatticePath(steps)
                assert path.associated_permutation() == _associated_permutation_by_scans(path)
                count += 1
    assert count == 2056  # the paths of every depth with n <= 8


# SHA-256 of the concatenated stdout of `opstat map --xi|--upsilon|--theta <pi>`
# and `opstat encode --phi|--psi <pi>` over every ordered partition with
# 1 <= n <= 6, in generator order: each call prints the image's text and a
# newline.  Recorded before varphi became one pass.
ENCODING_DIGESTS = {
    xi_map: "0f4a504caefff2876803821c30250da5b7e02f394898be6438b610a30ccbeb9a",
    upsilon: "112012d7aada0d574263ab78816b9e82c51d99732408488b7da29de892989f32",
    theta_map: "f5b0219be6dd79fae271555e4448287eea51db777ada983b7ee377a7b4e33aeb",
    phi_inv: "5c7c73b7f700d58b835b7d28e9a1d85e24063d6f55758f993c7af1b587496f94",
    psi_inv: "6b87e53235702134a49256d3dc807cc5a5086793e7c02d377e34862c1a43fbbf",
}


@pytest.mark.parametrize("encoding", ENCODING_DIGESTS, ids=lambda f: f.__name__)
def test_encoding_outputs_match_recorded_digests(encoding):
    out = "".join(f"{encoding(pi).to_text()}\n" for n in range(1, 7) for pi in ordered_set_partitions(n))
    assert hashlib.sha256(out.encode()).hexdigest() == ENCODING_DIGESTS[encoding]
