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
    link_to_diagram,
)
from twinskein.constructions import (ClassicalKnotCode, check_gauss_roles,
                                    table_knot)
from twinskein.diagram import OVER, UNDER, DiagramError, Passage
from twinskein.laurent import LaurentPoly
from twinskein.moves import (
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
