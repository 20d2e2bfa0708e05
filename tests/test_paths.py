import itertools

import pytest

from opstat.core import OrderedSetPartition, PartitionType, Permutation, Trace
from opstat.families import (
    ordered_set_partitions,
    path_diagrams,
    permutations,
    set_partitions,
)
from opstat.paths import (
    LatticePath,
    PathDiagram,
    diagram_permutation,
    g_map,
    gamma_sigma,
    insertion_labels,
    phi,
    phi_inv,
    psi,
    psi_inv,
    step_word,
    theta_map,
    trace_with_block,
    upsilon,
    upsilon_inv,
    varphi,
    xi_map,
)
from opstat.statistics import bmaj, coord_stats, stat_restricted, trace_rsb

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


def test_diagram_text_roundtrip():
    assert PathDiagram.parse(RUN.to_text()) == RUN
    assert PathDiagram.parse("NNNOOEDDED:0,0,2,1,2,3,2,0,1,0") == RUN


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
    t = Trace.parse("6 11 ∞/3 5 7/1 4 10 ∞/9/2 8")
    assert insertion_labels(t) == (5, 4, 2, 0, 1, 3)


def test_insertion_labels_empty_trace():
    assert insertion_labels(Trace((), ())) == (0,)


INSERTED = {
    0: "6 11 ∞/3 5 7/1 4 10 ∞/9/2 8/12",
    1: "6 11 ∞/3 5 7/1 4 10 ∞/9/12/2 8",
    2: "6 11 ∞/3 5 7/12/1 4 10 ∞/9/2 8",
    3: "12/6 11 ∞/3 5 7/1 4 10 ∞/9/2 8",
    4: "6 11 ∞/12/3 5 7/1 4 10 ∞/9/2 8",
    5: "6 11 ∞/3 5 7/1 4 10 ∞/12/9/2 8",
}


def test_insertion_golden_table():
    t = Trace.parse("6 11 ∞/3 5 7/1 4 10 ∞/9/2 8")
    labels = insertion_labels(t)
    base = bmaj(t)
    assert base == 4
    for level, expected in INSERTED.items():
        t2 = trace_with_block(t, labels[level], 12)
        assert t2.to_text() == expected
        assert trace_rsb(t2, 12) + bmaj(t2) - base == level


def test_insertion_law_everywhere():
    # inserting at the gap labelled l raises rsb + bMaj by exactly l, for
    # every trace of every small ordered partition, active or plain blocks
    for pi in ordered_set_partitions(5):
        for i in range(pi.n):
            t = pi.trace(i)
            labels = insertion_labels(t)
            base = bmaj(t)
            for level in range(len(labels)):
                for active in (False, True):
                    t2 = trace_with_block(t, labels[level], i + 1, active)
                    assert trace_rsb(t2, i + 1) + bmaj(t2) - base == level


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
                    cur = bmaj(pi.trace(i))
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
