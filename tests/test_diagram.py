import pytest

from twinskein.diagram import (
    ARC_ARC,
    ARC_LOOP,
    ARC_SELF,
    Component,
    Diagram,
    DiagramError,
    LOOP,
    LOOP_LOOP,
    LOOP_SELF,
    OVER,
    ParseError,
    Passage,
    TWIN,
    TWIN_ARC,
    TWO_KNOT,
    UNDER,
    classify_crossing,
    met_once,
    parse,
    random_diagram,
    reverse_component,
    serialize,
    validate,
)
from twinskein.moves import CanonicalForm
from twinskein.skein import TraceNode

STD = "twin { arc A: ; arc B: ; }"


def reference_normalize(d: Diagram) -> Diagram:
    """``normalize`` as ``serialize`` used it before the one-pass writer:
    the components in walk order, the crossings renumbered 1..n in
    first-appearance order, a crossing with no passage dropped."""
    comps = tuple(sorted(d.components, key=lambda c: (c.is_loop, c.label)))
    renum: dict[int, int] = {}
    for comp in comps:
        for p in comp.passages:
            renum.setdefault(p.crossing, len(renum) + 1)
    return Diagram(d.mode, tuple(
        Component(c.kind, c.label,
                  tuple(Passage(renum[p.crossing], p.role) for p in c.passages),
                  c.surgery)
        for c in comps), {renum[cid]: sign for cid, sign in d.crossings.items()
                          if cid in renum})


def reference_serialize(d: Diagram) -> str:
    """``serialize`` as it was before the one-pass writer: it built the
    whole ``reference_normalize`` diagram, then wrote each passage's token."""
    nd = reference_normalize(d)
    parts = ["twin" if nd.mode == TWIN else "knot", "{"]
    for comp in nd.components:
        parts += ["loop" if comp.is_loop else "arc", f"{comp.label}:"]
        for p in comp.passages:
            sign = nd.crossings[p.crossing]
            parts.append(f"{p.role}{p.crossing}{'+' if sign > 0 else '-'}")
        if comp.surgery is not None:
            g, b, a = comp.surgery
            parts.append(f"({g}, {b}/{a})")
        parts.append(";")
    parts.append("}")
    return " ".join(parts)


def scrambled(rng, d: Diagram) -> Diagram:
    """The diagram with its crossings renumbered at random below 10**6,
    a random surgery label on about half its loops, and its components
    shuffled."""
    ids = dict(zip(d.crossings, rng.sample(range(1, 10 ** 6 + 1),
                                           len(d.crossings))))
    comps = [Component(c.kind, c.label,
                       tuple(Passage(ids[p.crossing], p.role)
                             for p in c.passages),
                       (rng.randint(-3, 3), rng.randint(-5, 5),
                        rng.randint(1, 4))
                       if c.is_loop and rng.random() < 0.5 else None)
             for c in d.components]
    rng.shuffle(comps)
    return Diagram(d.mode, tuple(comps),
                   {ids[cid]: sign for cid, sign in d.crossings.items()})


def codes(d: Diagram) -> list[str]:
    return [v.code for v in validate(d).violations]


class TestParse:
    def test_standard_twin(self):
        d = parse(STD)
        assert d.mode == TWIN
        assert [c.kind for c in d.components] == [TWIN_ARC, TWIN_ARC]
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
        d = parse("twin { arc A: O1+ U1- ; arc B: ; }", strict=False)
        (v,) = validate(d).violations
        assert (v.code, v.location) == ("crossing-sign", "crossing 1")

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

    @pytest.mark.parametrize("text,line,token", [
        ("twin {\n  arc A: O\u00b2+ U2+ ;\n  arc B: ;\n}", 2, "O\u00b2"),
        ("twin { arc A: ; arc B: ;\n\n  loop T: (0, \u00b2/1) ; }", 3,
         "\u00b2"),
        ("twin {\n  arc A: O\u0663+ U3+ ;\n  arc B: ;\n}", 2, "O\u0663"),
        ("twin { arc A: ; arc B: ;\n\n  loop T: (0, \u0663/1) ; }", 3,
         "\u0663"),
    ], ids=["passage", "surgery", "passage-arabic-indic",
            "surgery-arabic-indic"])
    def test_superscript_digit_is_a_parse_error(self, text, line, token):
        # str.isdigit accepts a superscript two and an Arabic-Indic three,
        # and int() reads the three as 3; INT is ASCII digits only
        assert token[-1].isdigit()
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line
        assert exc.value.col == text.splitlines()[line - 1].index(token) + 1
        assert repr(token) in str(exc.value)

    @pytest.mark.parametrize("text,message,line,col", [
        pytest.param("twim { arc A: ; }",
                     "expected 'twin' or 'knot', found 'twim'", 1, 1,
                     id="head"),
        pytest.param("twin { arx A: ; }",
                     "expected 'arc' or 'loop', found 'arx'", 1, 8,
                     id="keyword"),
        pytest.param("twin { arc A: ; arc A: ; }",
                     "duplicate component label 'A'", 1, 21, id="duplicate"),
        pytest.param("twin { arc A: O1 ; arc B: ; }",
                     "passage 'O1' lacks a sign token", 1, 18, id="sign"),
        pytest.param("twin { arc ,: ; arc B: ; }",
                     "expected a label, found ','", 1, 12, id="label-comma"),
        pytest.param("twin { arc (: ; arc B: ; }",
                     "expected a label, found '('", 1, 12, id="label-paren"),
        pytest.param("twin { arc :: ; arc B: ; }",
                     "expected a label, found ':'", 1, 12, id="label-colon"),
        pytest.param("twin { arc {: ; arc B: ; }",
                     "expected a label, found '{'", 1, 12, id="label-brace"),
        pytest.param("twin { arc A ; }", "expected ':', found ';'", 1, 14,
                     id="expected-token"),
        pytest.param("twin { arc A: X1+ ; arc B: ; }",
                     "bad passage token 'X1'", 1, 15, id="passage"),
        pytest.param("twin { arc A: ; arc B: ; loop T: (0, x/1) ; }",
                     "expected integer, found 'x'", 1, 38, id="integer"),
        pytest.param("twin { arc A: ; arc B: ; } }", "trailing input '}'",
                     1, 28, id="trailing"),
        # an unexpected character is refused before any grammar rule
        pytest.param("twim { arc A: $ ; }", "unexpected character '$'",
                     1, 15, id="character"),
        # lines end wherever str.splitlines ends them, comments too
        pytest.param("# header\ntwin {\n  arc A: O1+ U1+ ;\n  arc B: X2+ ;\n}",
                     "bad passage token 'X2'", 4, 10, id="multi-line"),
        pytest.param("twin {\r\n  arc A: ;\r\n  arc B ;\r\n}",
                     "expected ':', found ';'", 3, 9, id="crlf"),
        pytest.param("# header\rtwin { # comment\r  arc A: ;\r  arc B: ; }\r}",
                     "trailing input '}'", 5, 1, id="lone-cr"),
        pytest.param("twin {\u2028arc A: ; # comment\x0c arc B: X1+ ; }",
                     "bad passage token 'X1'", 3, 9, id="other-line-breaks"),
        # once the input has ended, the error is at the last token
        pytest.param("", "unexpected end of input", 1, 1, id="end-empty"),
        pytest.param("twin", "unexpected end of input (wanted '{')", 1, 1,
                     id="end-wanted"),
        pytest.param("twin {\n  arc A: O1+ U1+ ;\n  arc B: O2",
                     "unexpected end of input", 3, 10, id="end-sign"),
        pytest.param("twin { arc A: ;\n  # the end\n",
                     "unexpected end of input", 1, 15, id="end-comment"),
        pytest.param("twin { arc A: ; arc B:",
                     "unexpected end of input (wanted ';')", 1, 22,
                     id="end-component"),
    ])
    def test_parse_error_names_the_refused_token(self, text, message, line,
                                                 col):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.line, exc.value.col) == (
            f"{message} (line {line}, column {col})", line, col)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("template,token,col", [
        ("twin { arc A: ON+ UN+ ; arc B: ; }", "ON", 15),
        ("twin { arc A: ; arc B: ; loop T: (0, N/1) ; }", "N", 38),
        ("twin { arc A: ; arc B: ; loop T: (-N, 0/1) ; }", "N", 36),
    ], ids=["passage", "surgery", "surgery-negative"])
    def test_integer_past_the_conversion_limit_is_a_parse_error(
            self, long_number, template, token, col, strict):
        # int() refuses it with a bare ValueError; the reader names the token
        token = token.replace("N", long_number)
        with pytest.raises(ParseError) as exc:
            parse(template.replace("N", long_number), strict=strict)
        assert (str(exc.value), exc.value.line, exc.value.col) == (
            f"integer too long in {token[:12]!r}... (5000 digits) "
            f"(line 1, column {col})", 1, col)

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

    def test_agrees_with_the_reference_writer(self, rng):
        for _ in range(2000):
            d = scrambled(rng, random_diagram(
                rng, max_crossings=rng.randint(0, 8),
                mode=rng.choice((TWIN, TWO_KNOT)), n_loops=rng.randint(0, 4),
                two_arcs=rng.random() < 0.5))
            text = serialize(d)
            assert text == reference_serialize(d)
            assert parse(text, strict=False) == reference_normalize(d)

    def test_passage_without_a_crossing_is_refused(self):
        d = Diagram(TWIN, (Component(TWIN_ARC, "A", (Passage(1, OVER),
                                                     Passage(1, UNDER))),
                           Component(TWIN_ARC, "B")), {})
        with pytest.raises(DiagramError, match=r"^passage references "
                           r"crossing 1 absent from the crossing map$"):
            serialize(d)

    def test_sign_other_than_one_is_refused(self):
        # the sign-0 crossing of a non-strict parse used to be written as -,
        # which reads back as a valid diagram nobody wrote
        d = parse("twin { arc A: O7+ U7- ; arc B: ; }", strict=False)
        with pytest.raises(DiagramError,
                           match=r"^crossing 7 has sign 0; a sign is \+1 or -1$"):
            serialize(d)


class TestRecords:
    @pytest.mark.parametrize("record, field", [
        (Passage(1, OVER), "role"),
        (Component(LOOP, "T"), "passages"),
        (parse(STD), "crossings"),
        (CanonicalForm(STD, 1), "sign"),
        (TraceNode(STD, 1), "value"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    def test_diagram_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(parse(STD))

    def test_passage_hashes_as_its_fields(self):
        assert hash(Passage(3, UNDER)) == hash((3, UNDER))


class TestValidate:
    def test_standard_is_valid(self):
        assert validate(parse(STD)).ok

    def test_role_pairing(self):
        d = Diagram(TWIN, (
            Component(TWIN_ARC, "A", (Passage(1, "O"), Passage(1, "O"))),
            Component(TWIN_ARC, "B", ()),
        ), {1: 1})
        assert "role-pairing" in codes(d)

    def test_surgery_on_arc(self):
        d = Diagram(TWIN, (
            Component(TWIN_ARC, "A", (), surgery=(0, 0, 1)),
            Component(TWIN_ARC, "B", ()),
        ), {})
        assert "surgery-on-arc" in codes(d)

    @pytest.mark.parametrize("sign", [0, 2, -7])
    def test_crossing_sign_other_than_one(self, sign):
        d = Diagram(TWIN, (
            Component(TWIN_ARC, "A", (Passage(1, "O"), Passage(2, "O"))),
            Component(TWIN_ARC, "B", ()),
            Component(LOOP, "T", (Passage(1, "U"), Passage(2, "U"))),
        ), {1: sign, 2: -1})
        (v,) = validate(d).violations
        assert (v.code, v.location) == ("crossing-sign", "crossing 1")
        assert str(sign) in v.message
        assert validate(d._replace(crossings={1: 1, 2: -1})).ok

    def test_unknown_crossing(self):
        d = Diagram(TWIN, (
            Component(TWIN_ARC, "A", (Passage(3, "O"), Passage(3, "U"))),
            Component(TWIN_ARC, "B", ()),
        ), {})
        assert "unknown-crossing" in codes(d)


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
            nd = parse(serialize(d))
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


class TestMetOnce:
    def test_met_once_matches_a_count(self, rng):
        # the count reverse_component and canonicalize each kept before
        for i in range(200):
            d = random_diagram(rng, n_loops=i % 4, two_arcs=i % 2 == 1)
            for comp in d.components:
                counts: dict[int, int] = {}
                for p in comp.passages:
                    counts[p.crossing] = counts.get(p.crossing, 0) + 1
                assert met_once(comp) == [
                    cid for cid, n in counts.items() if n == 1]
