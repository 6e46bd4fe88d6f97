import pytest

from twinskein.alexander import LinkCode, alexander_at_t_squared, conway
from twinskein.constructions import (
    ClassicalKnotCode,
    artin_spin,
    connect_sum_twin,
    table_knot,
    table_names,
    twin_closure,
)
from twinskein.diagram import (
    OVER,
    UNDER,
    DiagramError,
    Passage,
    parse,
    random_diagram,
    serialize,
    validate,
)
from twinskein.laurent import LaurentPoly
from twinskein.moves import is_unit_simplified, simplify
from twinskein.skein import evaluate

SPUN_TREFOIL_VALUE = LaurentPoly({-2: 1, 0: -1, 2: 1})


BUILDERS = [
    lambda passages, signs: ClassicalKnotCode(passages, signs),
    lambda passages, signs: LinkCode((passages, ()), signs),
]


class TestGaussRoles:
    """The knot code and the oracle's link code refuse the same bad codes."""

    @pytest.mark.parametrize("build", BUILDERS)
    def test_bad_codes_refused(self, build):
        over, under = Passage(1, OVER), Passage(1, UNDER)
        build((over, under), {1: 1})
        with pytest.raises(DiagramError, match="does not match"):
            build((over, under), {1: 1, 2: -1})
        with pytest.raises(DiagramError, match="once over and once under"):
            build((over, over), {1: 1})

    @pytest.mark.parametrize("build", BUILDERS)
    def test_codes_compare_by_value(self, build):
        over, under = Passage(1, OVER), Passage(1, UNDER)
        code = build((over, under), {1: 1})
        assert code == build((over, under), {1: 1})
        assert code != build((over, under), {1: -1})
        with pytest.raises(TypeError):
            hash(code)


class TestArtinSpin:
    def test_unknot_gives_standard_twin(self):
        tw = artin_spin(table_knot("unknot"))
        assert is_unit_simplified(simplify(tw)[0])
        assert serialize(tw) == "twin { arc A: ; arc B: ; }"

    def test_trefoil_value(self):
        tw = artin_spin(table_knot("3_1"))
        assert evaluate(tw).value == SPUN_TREFOIL_VALUE

    def test_cut_positions_agree(self):
        # every cut position of every resolving table knot gives one value
        for name in table_names():
            if name == "8_19":
                continue  # stalls under the descending heuristic at any cut
            k = table_knot(name)
            values = set()
            for cut in range(len(k.passages) + 1):
                r = evaluate(artin_spin(k, cut))
                assert r.resolved, (name, cut)
                values.add(r.value.pairs())
            assert len(values) == 1, name

    def test_cut_range_checked(self):
        with pytest.raises(DiagramError):
            artin_spin(table_knot("3_1"), cut_at=99)

    def test_output_is_valid(self):
        for name in ("3_1", "5_2", "6_3"):
            assert validate(artin_spin(table_knot(name))).ok


class TestTwinClosure:
    def test_empty_arc_gives_standard_twin(self):
        tw = twin_closure(parse("knot { arc K: ; }"))
        assert is_unit_simplified(simplify(tw)[0])

    def test_giller_example_closure_matches_fixture(self):
        from importlib import resources
        ge = parse((resources.files("twinskein") / "fixtures"
                    / "giller_ex.knot").read_text())
        tw = (resources.files("twinskein") / "fixtures"
              / "tw_giller.twin").read_text().strip()
        assert serialize(twin_closure(ge)) == tw

    def test_crossing_map_unchanged(self, rng):
        for _ in range(20):
            d = random_diagram(rng, mode="two_knot")
            out = twin_closure(d)
            assert out.crossings == d.crossings
            assert validate(out).ok

    def test_loops_carried_over(self):
        d = parse("knot { arc K: O1+ ; loop T: U1+ ; }")
        out = twin_closure(d)
        assert len(out.loops()) == 1

    def test_requires_two_knot(self):
        with pytest.raises(DiagramError):
            twin_closure(parse("twin { arc A: ; arc B: ; }"))


class TestConnectSum:
    def test_crossingless_input(self):
        out = connect_sum_twin(parse("knot { arc K: ; }"))
        assert len(out.crossings) == 0
        assert is_unit_simplified(simplify(out)[0])

    def test_quadruples_crossings(self):
        d = parse("knot { arc K: O1+ U2+ O3+ U1+ O2+ U3+ ; }")
        out = connect_sum_twin(d)
        assert len(out.crossings) == 12
        assert validate(out).ok

    def test_sign_pattern(self):
        d = parse("knot { arc K: O1- U2+ U1- O2+ ; }")
        out = connect_sum_twin(d)
        # each original crossing: two copies keep the sign, two mixed flip it
        from collections import Counter
        assert Counter(out.crossings.values()) == Counter(
            {1: 4, -1: 4})

    def test_random_inputs_validate(self, rng):
        for _ in range(20):
            d = random_diagram(rng, mode="two_knot", n_loops=0)
            out = connect_sum_twin(d)
            assert validate(out).ok
            assert len(out.crossings) == 4 * len(d.crossings)

    def test_rejects_loops(self):
        with pytest.raises(DiagramError):
            connect_sum_twin(parse("knot { arc K: O1+ ; loop T: U1+ ; }"))

    def test_doubled_band_retracts_under_welded_moves(self):
        # The forward-and-back parallel double of any arc retracts using
        # over-commutes and R1/R2 alone: adjacent mixed/plain pairs cancel
        # from the turn-around inward.  Documented behavior of this
        # crossingless-endpoint reading of the construction.
        d = connect_sum_twin(parse("knot { arc K: O1+ U2+ O3+ U1+ O2+ U3+ ; }"))
        assert is_unit_simplified(simplify(d)[0])


class TestKnotTable:
    def test_names_present(self):
        names = table_names()
        for required in ("unknot", "3_1", "4_1", "5_1", "5_2", "6_1", "6_2",
                         "6_3", "7_1", "7_2", "7_3", "7_5", "8_1", "8_19"):
            assert required in names

    def test_unknot_empty(self):
        assert table_knot("unknot").passages == ()

    def test_trefoil_code(self):
        k = table_knot("3_1")
        assert [(p.role, p.crossing) for p in k.passages] == [
            ("O", 1), ("U", 2), ("O", 3), ("U", 1), ("O", 2), ("U", 3)]
        assert conway(k) == LaurentPoly({0: 1, 2: 1})

    def test_figure_eight_oracle(self):
        assert conway(table_knot("4_1")) == LaurentPoly({0: 1, 2: -1})

    def test_unknown_name(self):
        with pytest.raises(DiagramError):
            table_knot("19_77")


class TestFintushelStern:
    @pytest.mark.parametrize("name", [n for n in
                                      ("unknot", "3_1", "4_1", "5_1", "5_2",
                                       "6_1", "6_2", "6_3", "7_1", "7_2",
                                       "7_3", "7_5")])
    def test_spin_matches_oracle(self, name):
        k = table_knot(name)
        r = evaluate(artin_spin(k))
        assert r.resolved
        assert r.value == alexander_at_t_squared(k)

    @pytest.mark.parametrize("word", [
        [1, 1, 1, -2, -2, -2],   # trefoil joined to its mirror
        [1, 1, 1, 2, 2, 2],      # trefoil joined to itself
    ])
    def test_spun_composite_knots(self, word):
        from twinskein.alexander import braid_closure_knot
        k = braid_closure_knot(word)
        r = evaluate(artin_spin(k))
        assert r.resolved
        assert r.value == alexander_at_t_squared(k)
        assert r.value == SPUN_TREFOIL_VALUE * SPUN_TREFOIL_VALUE
