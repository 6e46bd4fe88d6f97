from dataclasses import replace
from itertools import permutations, product

import pytest

from twinskein.diagram import (
    DEFAULT_SURGERY,
    LOOP,
    TWIN,
    TWO_KNOT,
    Component,
    Diagram,
    classify_crossing,
    normalize,
    parse,
    random_diagram,
    reverse_component,
    serialize,
    validate,
)
from twinskein.moves import (
    F_MOVE,
    R1,
    R2,
    WELDED_COMMUTE,
    MoveError,
    MoveEvent,
    _adjacent_pairs,
    _commute_search,
    apply_f_move,
    apply_r1,
    apply_r2,
    apply_r3,
    CanonicalForm,
    apply_welded_commute,
    canonicalize,
    find_f_moves,
    find_r1_moves,
    find_r2_moves,
    find_r3_moves,
    is_split,
    is_standard_twin,
    simplify,
)

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


class TestPairPositions:
    """A move pointed at a position with no following passage is refused:
    an arc's last position, a negative one, a one-passage loop.  Each
    diagram would pass the move's own check if the position wrapped."""

    CASES = [
        (apply_r1, "twin { arc A: O1+ O2+ U2+ U1+ ; arc B: U4+ ; loop T: O4+ ; }"),
        (apply_r2, "twin { arc A: O1+ U3+ O3+ O2- ; arc B: U1+ U2- U4+ ; "
                   "loop T: O4+ ; }"),
        (apply_welded_commute,
         "twin { arc A: O1+ U2+ O3+ ; arc B: U1+ O2+ U3+ U4+ ; loop T: O4+ ; }"),
    ]

    @pytest.mark.parametrize("move, text", CASES)
    def test_no_pair_past_the_end(self, move, text):
        d = parse(text)
        last = len(d.component("A").passages) - 1
        for at in (("A", last), ("A", -1), ("T", 0)):
            with pytest.raises(MoveError):
                move(d, at)


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


def reference_f_moves(d: Diagram) -> list[int]:
    """Every crossing at which apply_f_move succeeds, found by trial."""
    out = []
    for cid in sorted(d.crossings):
        try:
            apply_f_move(d, cid)
        except MoveError:
            continue
        out.append(cid)
    return out


def reference_simplify(d: Diagram) -> tuple[Diagram, tuple[MoveEvent, ...]]:
    """simplify as a list-then-apply loop: list every enabled R1, R2 and F
    move, keep the first, and work out its crossings again to apply it."""

    def find_reduction(d):
        for kind, moves in ((R1, find_r1_moves(d)), (R2, find_r2_moves(d)),
                            (F_MOVE, reference_f_moves(d))):
            if moves:
                return kind, moves[0]
        return None

    def apply_reduction(d, kind, arg):
        if kind == F_MOVE:
            ci, pos = d.passage_slots(arg)[0]
            return (apply_f_move(d, arg),
                    MoveEvent(F_MOVE, (arg,), (d.components[ci].label, pos)))
        label, i = arg
        comp = d.component(label)
        a, b = [(a, b) for a, b in _adjacent_pairs(comp) if a == i][0]
        if kind == R1:
            return apply_r1(d, arg), MoveEvent(R1, (comp.passages[a].crossing,), arg)
        cids = (comp.passages[a].crossing, comp.passages[b].crossing)
        return apply_r2(d, arg), MoveEvent(R2, cids, arg)

    events = []
    while True:
        red = find_reduction(d)
        if red is not None:
            d, ev = apply_reduction(d, *red)
            events.append(ev)
            continue
        path = _commute_search(d)
        if path is None:
            break
        for pos in path:
            comp = d.component(pos[0])
            a, b = [(a, b) for a, b in _adjacent_pairs(comp) if a == pos[1]][0]
            cids = (comp.passages[a].crossing, comp.passages[b].crossing)
            d = apply_welded_commute(d, pos)
            events.append(MoveEvent(WELDED_COMMUTE, cids, pos))
        d, ev = apply_reduction(d, *find_reduction(d))
        events.append(ev)
    return d, tuple(events)


def _fixtures() -> list[Diagram]:
    from importlib import resources
    folder = resources.files("twinskein") / "fixtures"
    return [parse((folder / name).read_text())
            for name in ("tw_std.twin", "tw_split.twin", "tw_giller.twin",
                         "tw_unknot_pair.twin", "giller_ex.knot")]


class TestSimplifyAgainstReference:
    def test_random_twins_and_two_knots(self, rng):
        kinds = set()
        for i in range(300):
            d = random_diagram(rng, max_crossings=6,
                               mode=TWO_KNOT if i % 4 == 3 else TWIN,
                               n_loops=i % 3, two_arcs=i % 2 == 1)
            fixed, events = simplify(d)
            assert (fixed, events) == reference_simplify(d), serialize(d)
            kinds.update(e.move_kind for e in events)
        assert kinds == {R1, R2, F_MOVE, WELDED_COMMUTE}

    def test_fixtures(self):
        for d in _fixtures():
            assert simplify(d) == reference_simplify(d)


class TestFindFMoves:
    def test_fixtures(self):
        for d in _fixtures():
            assert find_f_moves(d) == reference_f_moves(d)

    def test_random_twins(self, rng):
        found = 0
        for i in range(300):
            d = random_diagram(rng, max_crossings=5, n_loops=i % 3,
                               two_arcs=True)
            assert find_f_moves(d) == reference_f_moves(d), serialize(d)
            found += len(find_f_moves(d))
        assert found

    def test_one_passage_arc_meets_both_markers_once(self):
        d = parse("twin { arc A: O1+ ; arc B: U1+ ; }")
        assert find_f_moves(d) == reference_f_moves(d) == [1]


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
