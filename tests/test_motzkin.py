import hashlib

import pytest

from opstat.core import OrderedSetPartition
from opstat.families import set_partitions
from opstat.motzkin import (
    MotzkinDiagram,
    lambda_map,
    motzkin_decode,
    motzkin_encode,
    motzkin_g,
)
from opstat.paths import LatticePath, PathDiagram
from opstat.statistics import stat

# the worked 15-element pair: applying the involution to FIG6 yields FIG7
FIG6 = OrderedSetPartition.parse("1 4 15/2 3/5 6/7 10 13/8/9 11/12 14")
FIG7 = OrderedSetPartition.parse("1 12 15/2 4/3 6 9/5 7/8/10 11/13 14")


def test_encode_worked_example():
    d = motzkin_encode(FIG6)
    assert "".join(d.steps) == "UUDFUDUFUFDUDDD"
    # the printed source's label row has a slip at position 10; the defining
    # rule (one plus the open blocks left of the element's block) gives 2
    # there, which is also the only value the involution tolerates
    assert d.labels == (1, 1, 2, 1, 1, 2, 1, 3, 1, 2, 3, 1, 2, 2, 1)


def test_encode_all_singletons():
    d = motzkin_encode(OrderedSetPartition.parse("1/2/3"))
    assert "".join(d.steps) == "FFF"
    assert d.labels == (1, 1, 1)


def test_encode_requires_standard_form():
    with pytest.raises(ValueError):
        motzkin_encode(OrderedSetPartition.parse("2/1"))


def test_decode_roundtrip_exhaustive():
    for n in range(1, 8):
        for pi in set_partitions(n):
            assert motzkin_decode(motzkin_encode(pi)) == pi


def test_diagram_validation():
    with pytest.raises(ValueError, match="label 0"):
        MotzkinDiagram(("U", "D"), (1, 0))
    with pytest.raises(ValueError, match="rising"):
        MotzkinDiagram(("U", "D"), (2, 1))
    with pytest.raises(ValueError, match="flat"):
        MotzkinDiagram(("F",), (3,))
    with pytest.raises(ValueError, match="return"):
        MotzkinDiagram(("U",), (1,))


@pytest.mark.parametrize("head, sep", [(" ", ","), (":", ","), (" ", " "), (":", ":"), (" : ", ", ")])
def test_diagram_parsers_take_the_same_separators(head, sep):
    # the steps end at a space or a ":", and spaces, commas and ":" separate
    # the labels, in path-diagram and Motzkin text alike
    path = PathDiagram(LatticePath.parse("NNNOOEDDED"), (0, 0, 2, 1, 2, 3, 2, 0, 1, 0))
    assert PathDiagram.parse("NNNOOEDDED" + head + sep.join(map(str, path.labels))) == path
    motzkin = MotzkinDiagram(tuple("UUDFUDUFUFDUDDD"), (1, 1, 2, 1, 1, 2, 1, 3, 1, 2, 3, 1, 2, 2, 1))
    assert MotzkinDiagram.parse("UUDFUDUFUFDUDDD" + head + sep.join(map(str, motzkin.labels))) == motzkin


def test_g_worked_example():
    image = motzkin_g(motzkin_encode(FIG6))
    assert "".join(image.steps) == "UUUDUFDFDUDFUDD"
    assert image.labels == (1, 1, 1, 2, 1, 2, 3, 3, 2, 1, 2, 1, 1, 2, 1)


def test_g_fixes_flat_diagrams():
    d = motzkin_encode(OrderedSetPartition.parse("1/2/3"))
    assert motzkin_g(d) == d


def test_g_involution_exhaustive():
    for n in range(1, 8):
        for pi in set_partitions(n):
            d = motzkin_encode(pi)
            assert motzkin_g(motzkin_g(d)) == d


def test_lambda_worked_example():
    image = lambda_map(FIG6)
    assert image == FIG7
    assert stat(FIG6, "mak") == 37 == stat(image, "rcb")
    assert stat(FIG6, "lcb") == 16 == stat(image, "lcb")


def test_lambda_fixes_singleton_partitions():
    pi = OrderedSetPartition.parse("1/2")
    assert lambda_map(pi) == pi


def test_lambda_involution_and_statistics():
    for n in range(1, 8):
        for pi in set_partitions(n):
            image = lambda_map(pi)
            assert image.k == pi.k
            assert image.is_standard()
            assert lambda_map(image) == pi
            assert stat(pi, "mak") == stat(image, "rcb")
            assert stat(image, "lcb") == stat(pi, "lcb")


def test_parse_reads_ascii_decimal_labels():
    assert MotzkinDiagram.parse("UD 1,1") == MotzkinDiagram(("U", "D"), (1, 1))
    for text in ("UD 1,+1", "UD 1,\uff11", "UD 1, 1_0"):
        with pytest.raises(ValueError, match="not a decimal number"):
            MotzkinDiagram.parse(text)


@pytest.mark.parametrize("text", ["", "   ", " : "])
def test_parse_refuses_blank_text(text):
    with pytest.raises(ValueError) as excinfo:
        MotzkinDiagram.parse(text)
    assert str(excinfo.value) == f"no steps in diagram text: {text!r}"


def test_maps_match_recorded_digest():
    # recorded when the maps still had their own decoder and label transport
    lines = []
    for n in range(9):
        for pi in set_partitions(n):
            d = motzkin_encode(pi)
            assert motzkin_decode(d) == pi
            lines.append(f"{pi} | {d} | {motzkin_g(d)} | {lambda_map(pi)}")
    assert len(lines) == 5296
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "637af637ce85f7a0cc39f6a9d43c75cd398c7ed890620bdb6f22cee3e6a305f3"
