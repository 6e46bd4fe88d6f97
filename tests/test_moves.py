from dataclasses import replace
from itertools import permutations, product

import pytest

from twinskein.diagram import (
    DEFAULT_SURGERY,
    LOOP,
    TWIN,
    Component,
    Diagram,
    classify_crossing,
    normalize,
    parse,
    reverse_component,
    serialize,
    validate,
)
from twinskein.moves import (
    MoveError,
    apply_f_move,
    apply_r1,
    apply_r2,
    apply_r3,
    CanonicalForm,
    apply_welded_commute,
    canonicalize,
    find_r3_moves,
    is_split,
    is_standard_twin,
    simplify,
)

from conftest import random_diagram

STD = "twin { arc A: ; arc B: ; }"


class TestR1:
    def test_kink_removal(self):
        d = parse("twin { arc A: O1+ U1+ ; arc B: ; }")
        assert serialize(apply_r1(d, ("A", 0))) == STD

    def test_loop_kink_keeps_component(self):
        d = parse("twin { arc A: ; arc B: ; loop T: O1- U1- ; }")
        out = apply_r1(d, ("T", 0))
        assert serialize(out) == "twin { arc A: ; arc B: ; loop T: ; }"

    def test_non_adjacent_rejected(self):
        d = parse("twin { arc A: O1+ U2+ U1+ O2+ ; arc B: ; }")
        with pytest.raises(MoveError):
            apply_r1(d, ("A", 0))

    def test_loop_wrap_adjacency(self):
        d = parse("twin { arc A: O2+ U2+ ; arc B: ; loop T: U1- O3+ U3+ O1- ; }")
        out = apply_r1(d, ("T", 3))  # positions 3,0 wrap
        assert 1 not in out.crossings


class TestR2:
    def test_arc_loop_cancellation(self):
        d = parse("twin { arc A: O1+ O2- ; arc B: ; loop T: U2- U1+ ; }")
        out = apply_r2(d, ("A", 0))
        assert not out.crossings
        assert len(out.loops()) == 1

    def test_same_sign_rejected(self):
        d = parse("twin { arc A: O1+ O2+ ; arc B: ; loop T: U2+ U1+ ; }")
        with pytest.raises(MoveError):
            apply_r2(d, ("A", 0))

    def test_ids_gone_from_crossing_map(self):
        d = parse("twin { arc A: O1+ O2- U2- U1+ ; arc B: ; }")
        out = apply_r2(d, ("A", 0))
        assert out.crossings == {}

    def test_wrong_order_rejected(self):
        # partner pair in the same (not reversed) order, on an open arc
        d = parse("twin { arc A: O1+ O2- ; arc B: U1+ U2- ; }")
        with pytest.raises(MoveError):
            apply_r2(d, ("A", 0))

    def test_two_passage_loop_wraps_both_orders(self):
        # on a loop crossed exactly twice the cyclic order washes out
        d = parse("twin { arc A: O1+ O2- ; arc B: ; loop T: U1+ U2- ; }")
        assert not apply_r2(d, ("A", 0)).crossings


class TestWeldedCommute:
    def test_transposition(self):
        d = parse("twin { arc A: O1+ O2- U1+ U2- ; arc B: ; }")
        out = apply_welded_commute(d, ("A", 0))
        assert [p.crossing for p in out.component("A").passages] == [2, 1, 1, 2]
        assert out.crossings == d.crossings

    def test_under_passages_do_not_commute(self):
        d = parse("twin { arc A: O1+ O2- U1+ U2- ; arc B: ; }")
        with pytest.raises(MoveError):
            apply_welded_commute(d, ("A", 2))

    def test_involution(self):
        d = parse("twin { arc A: O1+ O2- U1+ U2- ; arc B: ; }")
        again = apply_welded_commute(apply_welded_commute(d, ("A", 0)), ("A", 0))
        assert again == d


class TestFMove:
    def test_removal_at_plus_marker(self):
        d = parse("twin { arc A: O1+ O2+ U2+ ; arc B: U1+ ; }")
        out = apply_f_move(d, 1)
        assert 1 not in out.crossings

    def test_opposite_markers_rejected(self):
        # A-side passage at the start, B-side at the end; both arcs long
        d = parse("twin { arc A: O1+ O3+ U3+ ; arc B: O2+ U2+ U1+ ; }")
        with pytest.raises(MoveError):
            apply_f_move(d, 1)

    def test_single_passage_arc_touches_both_markers(self):
        d = parse("twin { arc A: O1+ ; arc B: O2+ U2+ U1+ ; }")
        assert 1 not in apply_f_move(d, 1).crossings

    def test_self_crossing_rejected(self):
        d = parse("twin { arc A: O1+ U1+ ; arc B: ; }")
        with pytest.raises(MoveError):
            apply_f_move(d, 1)

    def test_minus_marker(self):
        d = parse("twin { arc A: O2+ U2+ O1+ ; arc B: U1+ ; }")
        out = apply_f_move(d, 1)
        assert 1 not in out.crossings


class TestR3:
    def test_braid_relation_instance(self):
        # closure of s1 s2 s1 with padding; slide preserves validity
        d = parse("knot { arc K: O1+ O2+ U1+ O3+ U2+ U3+ ; }")
        moves = find_r3_moves(d)
        assert moves
        out = apply_r3(d, moves[0])
        assert validate(out).ok
        assert out.crossings == d.crossings

    def test_no_triangle_rejected(self):
        d = parse("twin { arc A: O1+ U2+ O3+ U1+ O2+ U3+ ; arc B: ; }")
        for pos in [("A", i) for i in range(5)]:
            with pytest.raises(MoveError):
                apply_r3(d, pos)


class TestSimplify:
    def test_kink_to_standard(self):
        d = parse("twin { arc A: O1+ U1+ ; arc B: ; }")
        fixed, events = simplify(d)
        assert serialize(fixed) == STD
        assert [e.move_kind for e in events] == ["R1"]

    def test_crossingless_is_fixpoint(self):
        d = parse("twin { arc A: ; arc B: ; loop T: ; }")
        fixed, events = simplify(d)
        assert fixed == d and events == ()

    def test_commute_enabled_reduction(self):
        # nothing fires directly; an over-commute unlocks the collapse
        d = parse("twin { arc A: O1+ O2- O3+ U1+ U2- U3+ ; arc B: ; }")
        fixed, events = simplify(d)
        assert serialize(fixed) == STD
        assert "welded_commute" in [e.move_kind for e in events]

    def test_commute_enabled_r2(self):
        # the over-partners of the adjacent under-pair share a run but sit
        # in the wrong order; one commute unlocks the bigon
        d = parse("twin { arc A: O1+ O3+ O2- ; arc B: ; loop T: U1+ U3+ U2- ; }")
        fixed, events = simplify(d)
        kinds = [e.move_kind for e in events]
        assert kinds == ["welded_commute", "R2"]
        assert len(fixed.crossings) == 1

    def test_long_descending_arc_unknots(self):
        # needs a long chain of commutes; the run search finds it directly
        n = 12
        code = (" ".join(f"O{i}+" for i in range(1, n + 1)) + " "
                + " ".join(f"U{i}+" for i in range(1, n + 1)))
        fixed, _ = simplify(parse(f"twin {{ arc A: {code} ; arc B: ; }}"))
        assert serialize(fixed) == STD

    def test_descending_arc_unknots(self):
        # every self-crossing met over first: welded moves clear it
        d = parse("twin { arc A: O1+ O2+ O3+ U1+ U2+ U3+ ; arc B: ; }")
        fixed, _ = simplify(d)
        assert serialize(fixed) == STD

    def test_never_increases_crossings(self, rng):
        for _ in range(40):
            d = random_diagram(rng)
            fixed, _ = simplify(d)
            assert fixed.crossing_count() <= d.crossing_count()
            assert validate(fixed).ok

    def test_fixture_roots_are_fixpoints(self):
        from importlib import resources
        for name in ("tw_giller.twin", "tw_unknot_pair.twin"):
            text = (resources.files("twinskein") / "fixtures" / name).read_text()
            d = parse(text)
            fixed, events = simplify(d)
            assert events == ()
            assert fixed.crossing_count() == d.crossing_count()


class TestAuditTrail:
    def test_events_export_ordered_json(self):
        from twinskein.moves import events_to_json
        d = parse("twin { arc A: O1+ U1+ O2- U2- ; arc B: ; }")
        fixed, events = simplify(d)
        data = events_to_json(events)
        assert [e["move"] for e in data] == ["R1", "R1"]
        assert data[0]["crossings"] == [1]
        assert data[0]["position"] == ["A", 0]


class TestTerminalPredicates:
    def test_standard(self):
        assert is_standard_twin(parse(STD))

    def test_split_loop_is_not_standard(self):
        assert not is_standard_twin(parse("twin { arc A: ; arc B: ; loop T: ; }"))

    def test_kink_is_standard(self):
        assert is_standard_twin(parse("twin { arc A: O1+ U1+ ; arc B: ; }"))

    def test_split_detached_loop(self):
        assert is_split(parse("twin { arc A: ; arc B: ; loop T: ; }"))

    def test_linked_loop_not_split(self):
        d = parse("twin { arc A: O1+ O2+ ; arc B: ; loop T: U1+ U2+ ; }")
        assert not is_split(d)

    def test_loop_pair_split(self):
        d = parse("twin { arc A: ; arc B: ; loop S: O1+ ; loop T: U1+ ; }")
        assert is_split(d)

    def test_r2_linking_does_not_mask_splitness(self):
        d = parse("twin { arc A: O1+ O2- ; arc B: ; loop T: U2- U1+ ; }")
        assert is_split(d)


class TestCanonicalize:
    def test_standard_twin_sign(self):
        cf = canonicalize(parse(STD))
        assert cf.sign == 1
        assert cf.key == STD

    def test_loop_reversal_same_key_opposite_sign(self):
        d = parse("twin { arc A: O1+ O2+ ; arc B: ; loop T: U1+ U2+ ; }")
        rev = reverse_component(d, "T")
        a, b = canonicalize(d), canonicalize(rev)
        assert a.key == b.key
        assert a.sign == -b.sign

    def test_relabeling_invariance(self):
        d1 = parse("twin { arc A: O7+ U9- ; arc B: ; loop T: U7+ O9- ; }")
        d2 = normalize(d1)
        assert canonicalize(d1) == canonicalize(d2)

    def test_loop_rotation_invariance(self):
        from twinskein.diagram import rotate_loop
        d1 = parse("twin { arc A: O1+ O2+ O3+ ; arc B: ; loop T: U1+ U2+ U3+ ; }")
        for offset in range(1, 3):
            assert canonicalize(rotate_loop(d1, "T", offset)) == canonicalize(d1)

    def test_loop_order_invariance(self):
        d1 = parse("twin { arc A: O1+ O2+ ; arc B: ; loop S: U1+ ; loop T: U2+ ; }")
        d2 = parse("twin { arc A: O1+ O2+ ; arc B: ; loop S: U2+ ; loop T: U1+ ; }")
        assert canonicalize(d1).key == canonicalize(d2).key

    def test_random_relabel_and_reversal(self, rng):
        for _ in range(25):
            d = random_diagram(rng, max_crossings=4, n_loops=1)
            cf = canonicalize(d)
            assert cf == canonicalize(normalize(d))
            for loop in d.loops():
                rev = canonicalize(reverse_component(d, loop.label))
                assert rev.key == cf.key
                # A reversal-symmetric loop gives back the same diagram, in
                # which case the minimizer keeps sign +1 on both sides (and
                # the invariant of such a configuration is forced to vanish).
                assert rev.sign == -cf.sign or rev == cf


def brute_force_canonicalize(d: Diagram) -> CanonicalForm:
    """Reference canonical form: every candidate over loop reversal, order
    and rotation is built as a diagram and serialized in full; the least
    (key, reversals, rotations, order) wins."""
    arcs = sorted((c for c in d.components if c.is_arc), key=lambda c: c.label)
    arc_labels = (["A", "B"] if d.mode == TWIN else ["K"])[: len(arcs)]
    loops = [c for c in d.components if c.is_loop]
    best = None
    for rev_mask in range(1 << len(loops)):
        d_rev = d
        for li, lp in enumerate(loops):
            if rev_mask >> li & 1:
                d_rev = reverse_component(d_rev, lp.label)
        n_rev = bin(rev_mask).count("1")
        rev_arcs = sorted((c for c in d_rev.components if c.is_arc),
                          key=lambda c: c.label)
        rev_loops = {c.label: c for c in d_rev.components if c.is_loop}
        rot_ranges = [range(max(1, len(lp.passages))) for lp in loops]
        for perm in permutations(range(len(loops))):
            for rots in product(*(rot_ranges[i] for i in perm)):
                comps = [Component(c.kind, arc_labels[i], c.passages, c.surgery)
                         for i, c in enumerate(rev_arcs)]
                for k, (li, rot) in enumerate(zip(perm, rots), start=1):
                    lp = rev_loops[loops[li].label]
                    seq = lp.passages[rot:] + lp.passages[:rot]
                    comps.append(Component(LOOP, f"T{k:03d}", seq, lp.surgery))
                key = serialize(Diagram(d.mode, tuple(comps),
                                        dict(d_rev.crossings)))
                entry = (key, n_rev, rots, perm)
                if best is None or entry < best:
                    best = entry
    return CanonicalForm(best[0], -1 if best[1] % 2 else 1)


class TestCanonicalizeAgainstBruteForce:
    #: Ties between loops (identical, empty, reversal-symmetric) and surgery
    #: text, which sorts before a passage token.
    TIES = [
        "twin { arc A: O1+ O2+ ; arc B: ; loop S: U1+ ; loop T: U2+ ; }",
        "twin { arc A: ; arc B: ; loop S: ; loop T: (0, 0/1) ; loop U: ; }",
        "twin { arc A: O1+ ; arc B: ; loop S: U1+ (0, 0/1) ; loop T: ; }",
        "twin { arc A: O1+ O2- ; arc B: ; loop T: U2- U1+ ; }",
        "twin { arc A: ; arc B: ; loop S: O1+ U2- ; loop T: O2- U1+ ; }",
        "knot { arc K: O1+ U3+ ; loop T: O3+ U1+ (2, 1/3) ; }",
        "twin { arc A: O9+ O10- O11+ ; arc B: ; "
        "loop T: U9+ U10- ; loop S: U11+ O12- U12- ; }",
    ]

    @pytest.mark.parametrize("text", TIES)
    def test_ties_and_surgery(self, text):
        d = parse(text)
        assert canonicalize(d) == brute_force_canonicalize(d)

    def test_random_diagrams_with_up_to_three_loops(self, rng):
        kinds = set()
        surgeries = (None, DEFAULT_SURGERY, (2, 1, 3))
        for i in range(240):
            d = random_diagram(rng, max_crossings=5, n_loops=i % 4,
                               two_arcs=True)
            d = d.with_components(tuple(
                replace(c, surgery=rng.choice(surgeries)) if c.is_loop else c
                for c in d.components))
            kinds.update(classify_crossing(d, cid) for cid in d.crossings)
            assert canonicalize(d) == brute_force_canonicalize(d), serialize(d)
        assert {"loop_self", "loop_loop", "arc_loop"} <= kinds
