"""The .bn parser, the emitter round-trip, and the evidence mini-language."""

import numpy as np
import pytest

from bordertree.bnformat import (
    emit_network,
    parse_evidence,
    parse_evidence_file,
    parse_network,
)
from bordertree.errors import BnFormatError, CycleError
from bordertree.randgen import random_dag

from conftest import fixture_path


def test_two_line_single_node():
    bn = parse_network("node A 2 f t\ncpt A 0.3 0.7\n")
    assert len(bn) == 1
    assert bn.variables[0].value_labels == ("f", "t")
    assert bn.cpts[0].values[bn.label_index(0, "t")] == pytest.approx(0.7)


def test_fixture_file_matches_table_scopes():
    with open(fixture_path("bn_a.bn"), encoding="utf-8") as fh:
        bn = parse_network(fh.read())
    assert bn.names(bn.ids) == ("A", "B", "C", "D", "F", "G", "H", "I", "J", "K", "L")
    for name, parents in [
        ("C", "AB"), ("D", "AB"), ("F", "AB"), ("H", "CD"),
        ("I", "DF"), ("J", "GH"), ("K", "HI"), ("L", "I"),
    ]:
        v = bn.id_of(name)
        assert bn.names(bn.parents[v]) == tuple(parents)
        assert bn.cpts[v].scope == tuple(sorted((v, *bn.parents[v])))
    assert bn.roots() == (bn.id_of("A"), bn.id_of("B"), bn.id_of("G"))


def test_unnormalized_row_names_variable_and_assignment():
    text = "node A 2 f t\nnode B 2 f t\nparents B A\ncpt A 0.5 0.5\ncpt B 0.4 0.5 0.2 0.8\n"
    with pytest.raises(BnFormatError, match="rows of B") as exc:
        parse_network(text)
    assert "A=f" in str(exc.value)


def test_unnormalized_row_blames_its_own_cpt_line():
    # "to" is a word of the message about X; the error still points at X's cpt.
    text = "node to 2 a b\nnode X 2 x0 x1\ncpt to 0.5 0.5\ncpt X 0.5 0.4\n"
    with pytest.raises(BnFormatError, match="rows of X") as exc:
        parse_network(text)
    assert exc.value.line == 4


@pytest.mark.parametrize(
    "text,match",
    [
        ("node A 2 f\ncpt A 1 0", "value labels"),
        ("node A 2 f t\nnode A 2 f t", "duplicate node"),
        ("node A 2 f t\nparents A Z\ncpt A 1 0", "unknown parent"),
        ("node A 2 f t\ncpt A 0.5 0.3 0.2", "expected 2 values"),
        ("node A 2 f t\nwhat A", "unknown directive"),
        ("node A 2 f t", "missing cpt"),
        ("node A 2 f t\ncpt A 0.5 x", "bad cpt number"),
        ("node A 2 f t\ncpt A -0.5 1.5", ">= 0"),
        # Names and labels that the evidence syntax could not name.
        ("node A 2 f t\nnode B, 2 f t", "line 2: node name 'B,'"),
        ("node A 2 f t\nnode B= 2 f t", "line 2: node name 'B='"),
        ("node A 2 f t\nnode X=1 2 f t", "line 2: node name 'X=1'"),
        ("node A 2 f t\nnode B 2 x|y z", r"line 2: node 'B': value label 'x\|y'"),
        ("node A 2 f t\nnode B 2 z,w y", "line 2: node 'B': value label 'z,w'"),
        # Each check's full text and line.
        ("node A 2 f t\nnode B 0\ncpt A 0.5 0.5", "^line 2: cardinality must be >= 1$"),
        ("node A 2 f f\ncpt A 0.5 0.5", "^line 1: node 'A': duplicate value labels$"),
        ("node A 3 f t\ncpt A 0.5 0.5", "^line 1: node 'A': expected 3 value labels, got 2$"),
        ("node A 2 f t\ncpt A nan 1", r"^line 2: cpt of 'A': entries must be finite and >= 0$"),
        ("node A 2 f t\n\ncpt A inf 0", r"^line 3: cpt of 'A': entries must be finite and >= 0$"),
        ("node A 2 f t\ncpt A -0.5 1.5", r"^line 2: cpt of 'A': entries must be finite and >= 0$"),
        (
            "node A 2 f t\nnode B 2 f t\nparents B A\ncpt A 0.5 0.5\ncpt B 0.5 0.5 0.6 0.5",
            "^line 5: cpt rows of B must sum to 1: got 1.1 at A=t$",
        ),
        (
            "node A 2 f t\nnode B 2 f t\nnode C 2 f t\nparents A C\nparents B A\nparents C B\n"
            "cpt A 0.5 0.5 0.5 0.5\ncpt B 0.5 0.5 0.5 0.5\ncpt C 0.5 0.5 0.5 0.5",
            "^directed cycle through A, B, C$",
        ),
    ],
)
def test_parse_errors(text, match):
    # A directed cycle is a CycleError, which names no line.
    error = CycleError if match.startswith("^directed cycle") else BnFormatError
    with pytest.raises(error, match=match):
        parse_network(text)


def test_parse_error_carries_line_number():
    with pytest.raises(BnFormatError) as exc:
        parse_network("node A 2 f t\ncpt A 0.5 0.3 0.2\n")
    assert exc.value.line == 2


def test_cycle_detected():
    text = (
        "node A 2 f t\nnode B 2 f t\n"
        "parents A B\nparents B A\n"
        "cpt A 0.5 0.5 0.5 0.5\ncpt B 0.5 0.5 0.5 0.5\n"
    )
    with pytest.raises(CycleError):
        parse_network(text)


def test_cpt_file_order_convention():
    # First parent most significant, child value index fastest.
    text = (
        "node A 2 a0 a1\nnode B 2 b0 b1\nnode C 2 c0 c1\n"
        "parents C A B\n"
        "cpt A 0.5 0.5\ncpt B 0.5 0.5\n"
        "cpt C 0.1 0.9 0.2 0.8 0.3 0.7 0.4 0.6\n"
    )
    bn = parse_network(text)
    c = bn.cpts[bn.id_of("C")]
    # entry (A=1, B=0, C=0) is the fifth value in the file
    assert c.values[1, 0, 0] == pytest.approx(0.3)
    assert c.values[0, 1, 1] == pytest.approx(0.8)


def test_round_trip_fixture_files():
    for name in ("bn_a.bn", "bn_c.bn", "polytree_b.bn"):
        with open(fixture_path(name), encoding="utf-8") as fh:
            text = fh.read()
        bn = parse_network(text)
        assert emit_network(parse_network(emit_network(bn))) == emit_network(bn)


def test_round_trip_random_networks(rng):
    for _ in range(20):
        bn = random_dag(rng, 3, 8, 3)
        text = emit_network(bn)
        bn2 = parse_network(text)
        assert emit_network(bn2) == text
        assert [v.name for v in bn2.variables] == [v.name for v in bn.variables]
        assert bn2.parents == bn.parents
        for v in bn.ids:
            np.testing.assert_array_equal(bn2.cpts[v].values, bn.cpts[v].values)


class TestEvidence:
    def test_hard_and_soft(self, bn_a):
        ev = parse_evidence("H=h0,D=d0|d2", bn_a)
        assert ev.allowed(bn_a.id_of("H")) == {0}
        assert ev.allowed(bn_a.id_of("D")) == {0, 2}
        assert ev.vars == (bn_a.id_of("H"), bn_a.id_of("D"))

    def test_full_range_not_stored(self, bn_a):
        ev = parse_evidence("H=h0|h1", bn_a)
        assert not ev
        assert ev.allowed(bn_a.id_of("H")) is None

    def test_unknown_names(self, bn_a):
        with pytest.raises(BnFormatError, match="unknown variable") as exc:
            parse_evidence("Z=z0", bn_a)
        assert str(exc.value) == "unknown variable name 'Z'"
        with pytest.raises(BnFormatError, match="unknown value") as exc:
            parse_evidence("H=nope", bn_a)
        assert str(exc.value) == "unknown value 'nope' for variable H"

    def test_malformed(self, bn_a):
        with pytest.raises(BnFormatError, match="X=label"):
            parse_evidence("H", bn_a)
        with pytest.raises(BnFormatError, match="empty value"):
            parse_evidence("H=", bn_a)
        with pytest.raises(BnFormatError, match="duplicate evidence"):
            parse_evidence("H=h0,H=h1", bn_a)

    def test_comma_form_names_no_line(self, bn_a):
        with pytest.raises(BnFormatError) as exc:
            parse_evidence("K=k1,H=h0,H=h1", bn_a)
        assert str(exc.value) == "duplicate evidence for 'H'"
        assert exc.value.line is None

    def test_repeat_after_full_range_is_a_duplicate(self, bn_a):
        # H=h0|h1 allows H's full range, which is not stored as evidence;
        # naming H again is still a repeat.
        with pytest.raises(BnFormatError, match="duplicate evidence for 'H'"):
            parse_evidence("H=h0|h1,H=h0", bn_a)
        with pytest.raises(BnFormatError, match="line 3: duplicate evidence for 'H'"):
            parse_evidence_file("H=h0|h1\n\nH=h0\n", bn_a)

    def test_file_errors_count_blank_and_comment_lines(self, bn_a):
        with pytest.raises(BnFormatError) as exc:
            parse_evidence_file("# obs\nH=h0\n\nK=nope\n", bn_a)
        assert str(exc.value) == "line 4: unknown value 'nope' for variable K"

    def test_file_form_with_comments(self, bn_a):
        ev = parse_evidence_file("# obs\nH=h0\n\nK=k1  # second\n", bn_a)
        assert ev.describe() == "H=h0,K=k1"
