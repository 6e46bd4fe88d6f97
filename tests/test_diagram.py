import pytest

from twinskein.diagram import (
    ARC_ARC,
    ARC_LOOP,
    ARC_SELF,
    Component,
    Diagram,
    DiagramError,
    LOOP_LOOP,
    LOOP_SELF,
    ParseError,
    Passage,
    TWIN,
    TWIN_ARC,
    classify_crossing,
    connected_blocks,
    normalize,
    parse,
    random_diagram,
    reverse_component,
    serialize,
    to_json,
    validate,
)

STD = "twin { arc A: ; arc B: ; }"


class TestParse:
    def test_standard_twin(self):
        d = parse(STD)
        assert d.mode == TWIN
        assert len(d.arcs()) == 2
        assert not d.crossings

    def test_kink(self):
        d = parse("twin { arc A: O1+ U1+ ; arc B: ; }")
        assert d.crossings == {1: 1}
        assert d.component("A").passages == (Passage(1, "O"), Passage(1, "U"))

    def test_missing_under_passage(self):
        with pytest.raises(DiagramError, match="role-pairing"):
            parse("twin { arc A: O1+ ; arc B: ; }")

    def test_sign_mismatch(self):
        with pytest.raises(DiagramError, match="conflicting sign"):
            parse("twin { arc A: O1+ U1- ; arc B: ; }")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("twin { arc A ; }")
        assert exc.value.line == 1

    def test_two_knot_mode(self):
        d = parse("knot { arc K: O1+ U1+ ; }")
        assert d.mode == "two_knot"

    def test_surgery_metadata(self):
        d = parse("twin { arc A: ; arc B: ; loop T: (0, 0/1) ; }")
        assert d.component("T").surgery == (0, 0, 1)

    def test_negative_surgery_integers(self):
        d = parse("twin { arc A: ; arc B: ; loop T: (-2, -1/3) ; }")
        assert d.component("T").surgery == (-2, -1, 3)
        assert "(-2, -1/3)" in serialize(d)

    def test_comments_and_whitespace(self):
        d = parse("# header\ntwin {\n  arc A: O1+  U1+ ;  # kink\n  arc B: ;\n}")
        assert d.crossings == {1: 1}

    def test_duplicate_label_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("twin { arc A: ; arc A: ; }")

    def test_mode_arc_count_enforced(self):
        with pytest.raises(DiagramError, match="mode-arcs"):
            parse("twin { arc A: ; }")


class TestSerialize:
    def test_standard_round_trip(self):
        assert serialize(parse(STD)) == STD

    def test_serialize_then_parse_is_stable(self, rng):
        for _ in range(50):
            d = random_diagram(rng)
            text = serialize(d)
            assert serialize(parse(text)) == text

    def test_normal_form_renumbers(self):
        d = parse("twin { arc A: O7- U9+ U7- O9+ ; arc B: ; }")
        assert serialize(d) == "twin { arc A: O1- U2+ U1- O2+ ; arc B: ; }"

    def test_surgery_round_trip(self):
        text = "twin { arc A: ; arc B: ; loop T: (0, 0/1) ; }"
        assert serialize(parse(text)) == text

    def test_json_mirror(self):
        d = parse("twin { arc A: O1+ U1+ ; arc B: ; loop T: (0, 0/1) ; }")
        j = to_json(d)
        assert j["mode"] == "twin"
        assert j["crossings"] == {"1": 1}
        assert j["components"][2]["surgery"] == [0, 0, 1]


class TestValidate:
    def test_standard_is_valid(self):
        assert validate(parse(STD)).ok

    def test_role_pairing(self):
        d = Diagram(TWIN, (
            Component(TWIN_ARC, "A", (Passage(1, "O"), Passage(1, "O"))),
            Component(TWIN_ARC, "B", ()),
        ), {1: 1})
        assert "role-pairing" in validate(d).codes()

    def test_surgery_on_arc(self):
        d = Diagram(TWIN, (
            Component(TWIN_ARC, "A", (), surgery=(0, 0, 1)),
            Component(TWIN_ARC, "B", ()),
        ), {})
        assert "surgery-on-arc" in validate(d).codes()

    def test_unknown_crossing(self):
        d = Diagram(TWIN, (
            Component(TWIN_ARC, "A", (Passage(3, "O"), Passage(3, "U"))),
            Component(TWIN_ARC, "B", ()),
        ), {})
        codes = validate(d).codes()
        assert "unknown-crossing" in codes


class TestClassify:
    def setup_method(self):
        self.d = parse(
            "twin { arc A: O1+ U1+ O2+ O3+ ; arc B: U2+ ; "
            "loop S: U3+ O4+ U4+ O5- ; loop T: U5- ; }")

    def test_categories(self):
        assert classify_crossing(self.d, 1) == ARC_SELF
        assert classify_crossing(self.d, 2) == ARC_ARC
        assert classify_crossing(self.d, 3) == ARC_LOOP
        assert classify_crossing(self.d, 4) == LOOP_SELF
        assert classify_crossing(self.d, 5) == LOOP_LOOP

    def test_unknown_id(self):
        with pytest.raises(DiagramError):
            classify_crossing(self.d, 99)

    def test_invariant_under_reversal_and_relabeling(self, rng):
        for _ in range(30):
            d = random_diagram(rng, two_arcs=True)
            cats = {c: classify_crossing(d, c) for c in d.crossings}
            comp = rng.choice(d.components)
            rev = reverse_component(d, comp.label)
            assert cats == {c: classify_crossing(rev, c) for c in rev.crossings}
            nd = normalize(d)
            # normalize renumbers in first-appearance order; recompute the map
            renum = {}
            for c in nd.components:
                for p in c.passages:
                    renum.setdefault(p.crossing, p.crossing)
            assert sorted(cats.values()) == sorted(
                classify_crossing(nd, c) for c in nd.crossings)


class TestReverse:
    def test_reverse_crossingless_loop(self):
        d = parse("twin { arc A: ; arc B: ; loop T: ; }")
        assert reverse_component(d, "T") == d

    def test_single_strand_reversal_flips_sign(self):
        d = parse("twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }")
        assert reverse_component(d, "T").crossings == {1: -1}

    def test_double_passage_keeps_sign(self):
        d = parse("twin { arc A: O1+ U2+ U1+ O2+ ; arc B: ; }")
        assert reverse_component(d, "A").crossings == {1: 1, 2: 1}

    def test_involution(self, rng):
        for _ in range(30):
            d = random_diagram(rng)
            for comp in d.components:
                assert reverse_component(
                    reverse_component(d, comp.label), comp.label) == d

    def test_preserves_validity_and_crossings(self, rng):
        for _ in range(30):
            d = random_diagram(rng)
            comp = rng.choice(d.components)
            rev = reverse_component(d, comp.label)
            assert validate(rev).ok
            assert set(rev.crossings) == set(d.crossings)

    def test_unknown_label(self):
        with pytest.raises(DiagramError):
            reverse_component(parse(STD), "Z")


class TestBlocks:
    def test_detached_loop(self):
        d = parse("twin { arc A: ; arc B: ; loop T: ; }")
        assert connected_blocks(d) == (("A",), ("B",), ("T",))

    def test_loop_crossing_arc(self):
        d = parse("twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }")
        assert ("A", "T") in connected_blocks(d)

    def test_loop_pair_block(self):
        d = parse("twin { arc A: ; arc B: ; loop S: O1+ ; loop T: U1+ ; }")
        blocks = connected_blocks(d)
        assert ("S", "T") in blocks

    def test_invariant_under_relabeling(self, rng):
        for _ in range(30):
            d = random_diagram(rng)
            a = connected_blocks(d)
            b = connected_blocks(normalize(d))
            assert sorted(map(sorted, a)) == sorted(map(sorted, b))
