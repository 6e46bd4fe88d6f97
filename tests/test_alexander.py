import random
from pathlib import Path

import pytest

from twinskein import alexander
from twinskein.alexander import (
    LinkCode,
    alexander_at_t_squared,
    braid_closure,
    braid_closure_knot,
    conway,
    diagram_to_link,
    is_classical,
    link_to_diagram,
)
from twinskein.acceptance import _SEED, _random_moves
from twinskein.constructions import (ClassicalKnotCode, check_gauss_roles,
                                    fixture_text, knot_code, table_knot)
from twinskein.diagram import OVER, UNDER, DiagramError, Passage, parse
from twinskein.laurent import LaurentPoly, SKEIN_MULTIPLIER
from twinskein.moves import (
    R1,
    R2,
    R3,
    apply_r1,
    apply_r2,
    apply_r3,
    find_r1_moves,
    find_r2_moves,
    find_r3_moves,
)

Z2 = LaurentPoly({2: 1})
ONE = LaurentPoly.one()

#: Conway polynomials of the bundled knots (classical table values).
NABLA = {
    "unknot": {0: 1},
    "3_1": {0: 1, 2: 1},
    "4_1": {0: 1, 2: -1},
    "5_1": {0: 1, 2: 3, 4: 1},
    "5_2": {0: 1, 2: 2},
    "6_1": {0: 1, 2: -2},
    "6_2": {0: 1, 2: -1, 4: -1},
    "6_3": {0: 1, 2: 1, 4: 1},
    "7_1": {0: 1, 2: 6, 4: 5, 6: 1},
    "7_2": {0: 1, 2: 3},
    "7_3": {0: 1, 2: 5, 4: 2},
    "7_5": {0: 1, 2: 4, 4: 2},
    "8_1": {0: 1, 2: -3},
    "8_19": {0: 1, 2: 5, 4: 5, 6: 1},
}


class TestConwayBaseCases:
    def test_unknot(self):
        assert conway(ClassicalKnotCode((), {})) == ONE

    def test_two_component_unlink(self):
        code = LinkCode(((), ()), {})
        assert conway(code) == LaurentPoly.zero()

    def test_trefoil(self):
        assert conway(table_knot("3_1")) == ONE + Z2

    def test_figure_eight(self):
        assert conway(table_knot("4_1")) == ONE - Z2

    def test_hopf_link(self):
        # positive Hopf link: closure of s1 s1 on two strands
        link = braid_closure([1, 1])
        assert conway(link) == LaurentPoly({1: 1})

    @pytest.mark.parametrize("name", sorted(NABLA))
    def test_table_pins(self, name):
        assert conway(table_knot(name)) == LaurentPoly(NABLA[name])


class TestConwayInvariance:
    def test_r_move_invariance_on_braid_closures(self):
        rng = random.Random(20240815)
        checked = 0
        while checked < 60:
            word = [rng.choice([1, -1, 2, -2, 3, -3])
                    for _ in range(rng.randint(3, 8))]
            link = braid_closure(word)
            base = conway(link)
            d = link_to_diagram(link)
            moved = d
            for _ in range(rng.randint(1, 3)):
                options = ([("r1", p) for p in find_r1_moves(moved)]
                           + [("r2", p) for p in find_r2_moves(moved)]
                           + [("r3", p) for p in find_r3_moves(moved)])
                if not options:
                    break
                kind, p = rng.choice(options)
                moved = {"r1": apply_r1, "r2": apply_r2,
                         "r3": apply_r3}[kind](moved, p)
            assert conway(diagram_to_link(moved)) == base
            checked += 1

    @pytest.mark.parametrize("name", sorted(NABLA))
    def test_cut_point_independence(self, name):
        k = table_knot(name)
        base = conway(k)
        n = len(k.passages)
        for cut in range(n):
            rotated = ClassicalKnotCode(
                k.passages[cut:] + k.passages[:cut], dict(k.crossings))
            assert conway(rotated) == base

    def test_an_empty_link_code_has_no_arc_to_open(self):
        with pytest.raises(DiagramError, match="empty link code"):
            link_to_diagram(LinkCode((), {}))


class TestAlexander:
    def test_unknot(self):
        assert alexander_at_t_squared(ClassicalKnotCode((), {})) == ONE

    def test_trefoil_in_u(self):
        # Delta_K(t^2) read with u = t: 1 + z^2 at z = u - u^-1, as the
        # conway command prints it
        assert alexander_at_t_squared(table_knot("3_1")).render("u") == \
            "u^-2 - 1 + u^2"

    def test_trefoil_at_t_squared(self):
        assert alexander_at_t_squared(table_knot("3_1")) == \
            LaurentPoly({-2: 1, 0: -1, 2: 1})

    def test_always_symmetric(self):
        for name in NABLA:
            assert alexander_at_t_squared(table_knot(name)).is_symmetric()


class TestConwayStructure:
    def test_nonnegative_exponents(self):
        for name in NABLA:
            nabla = conway(table_knot(name))
            assert nabla.min_exponent() >= 0

    def test_knot_constant_term_is_one(self):
        for name in NABLA:
            assert dict(conway(table_knot(name)).pairs()).get(0) == 1

    def test_split_link_is_zero(self):
        # braid closure of a word not mixing the strand pairs
        link = braid_closure([1, -1], strands=3)
        assert len(link.components) >= 2
        assert conway(link) == LaurentPoly.zero()


class TestBraidClosure:
    def test_trefoil_word(self):
        k = braid_closure_knot([1, 1, 1])
        assert conway(k) == ONE + Z2

    def test_multi_component_rejected_for_knot(self):
        with pytest.raises(DiagramError):
            braid_closure_knot([1, 1])

    def test_bad_letter(self):
        with pytest.raises(DiagramError):
            braid_closure([3], strands=2)


def random_gauss_codes(rng: random.Random, count: int):
    """Seeded random knot codes with 2 to 6 crossings: shuffled passages,
    random signs.  Most of them are not classical."""
    for _ in range(count):
        n = rng.randint(2, 6)
        passages = [Passage(c, role) for c in range(1, n + 1)
                    for role in (OVER, UNDER)]
        rng.shuffle(passages)
        yield passages, {c: rng.choice((1, -1)) for c in range(1, n + 1)}


class TestIsClassical:
    def test_table_knots(self):
        assert all(is_classical(table_knot(name)) for name in NABLA)

    def test_braid_closures(self):
        rng = random.Random(8)
        for _ in range(500):
            word = [rng.choice((1, -1)) * rng.randint(1, 4)
                    for _ in range(rng.randint(1, 12))]
            assert is_classical(braid_closure(word, 5)), word

    def test_moves_of_the_corpus_keep_a_closure_classical(self):
        # the moves of the corpus's conway-oracle case
        rng = random.Random(_SEED)
        moved = 0
        while moved < 100:
            word = [rng.choice([1, -1, 2, -2, 3, -3])
                    for _ in range(rng.randint(3, 8))]
            d, applied = _random_moves(rng,
                                       link_to_diagram(braid_closure(word)),
                                       (R1, R2, R3), rng.randint(1, 4))
            if applied:
                assert is_classical(diagram_to_link(d)), word
                moved += 1

    def test_giller_example_and_virtual_trefoil_are_not_classical(self):
        assert not is_classical(knot_code(parse(fixture_text(
            "giller_ex.knot"))))
        virtual_trefoil = (Passage(1, OVER), Passage(2, OVER),
                           Passage(1, UNDER), Passage(2, UNDER))
        assert not is_classical(ClassicalKnotCode(virtual_trefoil,
                                                  {1: 1, 2: 1}))

    def test_crossingless_codes_are_classical(self):
        assert is_classical(ClassicalKnotCode((), {}))
        assert is_classical(LinkCode(((), ()), {}))

    def test_separates_the_codes_whose_value_depends_on_the_base_point(self):
        dependent = 0
        for passages, signs in random_gauss_codes(random.Random(400), 400):
            values = {conway(ClassicalKnotCode(
                tuple(passages[r:] + passages[:r]), signs))
                for r in range(len(passages))}
            classical = is_classical(ClassicalKnotCode(tuple(passages),
                                                       signs))
            assert classical == (len(values) == 1), passages
            dependent += not classical
        assert dependent == 301


def reference_alexander(k: ClassicalKnotCode) -> LaurentPoly:
    """The Alexander polynomial at t^2 by the Conway recursion."""
    return conway(k).substitute(SKEIN_MULTIPLIER)


def mirror(k: ClassicalKnotCode) -> ClassicalKnotCode:
    """The planar reflection: every sign flipped, the roles kept."""
    return ClassicalKnotCode(k.passages,
                             {c: -s for c, s in k.crossings.items()})


def reverse(k: ClassicalKnotCode) -> ClassicalKnotCode:
    return ClassicalKnotCode(k.passages[::-1], dict(k.crossings))


class TestAlexanderMatrix:
    """The determinant of the Alexander matrix against the Conway
    recursion, exactly: same sign, same centre."""

    @pytest.mark.parametrize("name", sorted(NABLA))
    def test_table_knot_its_mirror_and_its_reverse(self, name):
        k = table_knot(name)
        value = alexander_at_t_squared(k)
        assert value == reference_alexander(k)
        for other in (mirror(k), reverse(k)):
            assert alexander_at_t_squared(other) == \
                reference_alexander(other) == value

    @pytest.mark.parametrize("n", range(1, 22, 2))
    def test_torus_knots_t_2_n(self, n):
        k = braid_closure_knot([1] * n)
        assert alexander_at_t_squared(k) == reference_alexander(k)

    @pytest.mark.parametrize("k", [4, 5, 7])
    def test_turks_head_knots(self, k):
        # the closure of (s1 s2^-1)^k is alternating, and its coefficients
        # grow exponentially with its 2k crossings (155 at k = 7), so an
        # integer base too small to hold them changes the value
        code = braid_closure_knot([1, -2] * k)
        assert alexander_at_t_squared(code) == reference_alexander(code)

    @pytest.mark.parametrize("word", [[1, 1, 1, -2, -2, -2],
                                      [1, 1, 1, 2, 2, 2]])
    def test_composite_knots(self, word):
        k = braid_closure_knot(word)
        assert alexander_at_t_squared(k) == reference_alexander(k)

    def test_seeded_braid_closures(self):
        # one-component closures of words on 2 to 5 strands, 1 to 14 letters
        rng = random.Random(31)
        lengths = set()
        checked = 0
        while checked < 500:
            strands = rng.randint(2, 5)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(1, 14))]
            link = braid_closure(word, strands)
            if len(link.components) > 1:
                continue
            k = ClassicalKnotCode(link.components[0], link.crossings)
            assert alexander_at_t_squared(k) == reference_alexander(k), word
            lengths.add(len(word))
            checked += 1
        assert lengths == set(range(1, 15))

    def test_refuses_the_giller_example(self):
        code = knot_code(parse(fixture_text("giller_ex.knot")))
        with pytest.raises(DiagramError, match="not classical"):
            alexander_at_t_squared(code)

    def test_refuses_every_code_that_is_not_classical(self):
        refused = 0
        for passages, signs in random_gauss_codes(random.Random(400), 400):
            code = ClassicalKnotCode(tuple(passages), signs)
            if is_classical(code):
                assert alexander_at_t_squared(code) == \
                    reference_alexander(code)
            else:
                with pytest.raises(DiagramError, match="not classical"):
                    alexander_at_t_squared(code)
                refused += 1
        assert refused == 301


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------

#: Rendered ``conway`` values of the cases below, recorded from the
#: string-keyed recursion that the signed-int recursion replaced.  Each line
#: is ``label<TAB>value``.  Regenerate (only on purpose) with
#: ``PYTHONPATH=src python tests/test_alexander.py > tests/conway_pins.tsv``.
PINS = Path(__file__).with_name("conway_pins.tsv")


def pinned_cases():
    """(label, code) pairs: 240 seeded braid closures on 2 to 5 strands,
    links included, then 120 seeded random Gauss codes with 2 to 6
    crossings at every rotation.  Most random codes are not classical."""
    rng = random.Random(14)
    for i in range(240):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 9))]
        yield f"braid {i}", braid_closure(word, strands)
    for i in range(120):
        n = rng.randint(2, 6)
        passages = [Passage(c, role) for c in range(1, n + 1)
                    for role in (OVER, UNDER)]
        rng.shuffle(passages)
        signs = {c: rng.choice((1, -1)) for c in range(1, n + 1)}
        for r in range(2 * n):
            yield (f"gauss {i} rotation {r}",
                   ClassicalKnotCode(tuple(passages[r:] + passages[:r]),
                                     dict(signs)))


class TestPinnedValues:
    def test_values_match_the_pinned_table(self):
        pinned = dict(line.split("\t")
                      for line in PINS.read_text(encoding="utf-8").splitlines())
        got = {label: conway(code).render("z")
               for label, code in pinned_cases()}
        assert got.keys() == pinned.keys()
        assert [k for k in got if got[k] != pinned[k]] == []

    def test_two_separate_trefoils_are_split(self):
        assert conway(braid_closure([1, 1, 1, 3, 3, 3])) == LaurentPoly.zero()

    def test_crossingless_component_is_split(self):
        k = table_knot("3_1")
        assert conway(LinkCode((k.passages, ()), dict(k.crossings))) == \
            LaurentPoly.zero()

    def test_every_node_passes_the_role_check(self, monkeypatch):
        nabla = alexander._nabla
        nodes = []

        def checked(comps, signs, memo):
            check_gauss_roles(
                tuple(tuple(Passage(abs(x), OVER if x > 0 else UNDER)
                            for x in comp) for comp in comps), signs)
            nodes.append(comps)
            return nabla(comps, signs, memo)

        monkeypatch.setattr(alexander, "_nabla", checked)
        for name in NABLA:
            conway(table_knot(name))
        for label, code in pinned_cases():
            if label.startswith("braid"):
                conway(code)
        assert len(nodes) > 1000


if __name__ == "__main__":
    for label, code in pinned_cases():
        print(f"{label}\t{conway(code).render('z')}")
