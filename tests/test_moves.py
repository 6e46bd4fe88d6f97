from itertools import permutations, product

import pytest

from twinskein import moves
from twinskein.constructions import artin_spin, table_knot, table_names
from twinskein.diagram import (
    DEFAULT_SURGERY,
    LOOP,
    OVER,
    TWIN,
    TWIN_ARC,
    TWO_KNOT,
    UNDER,
    Component,
    Diagram,
    DiagramError,
    classify_crossing,
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
    _commuted_reduction,
    _drop_crossings,
    _pair_walk,
    _partner,
    _r1_pairs,
    _r2_pairs,
    _round_walk,
    apply_f_move,
    apply_r1,
    apply_r2,
    apply_r3,
    CanonicalForm,
    apply_welded_commute,
    canonical_fingerprint,
    canonicalize,
    find_f_moves,
    find_r1_moves,
    find_r2_moves,
    find_r3_moves,
    is_split_simplified,
    is_unit_simplified,
    simplify,
)
from twinskein.skein import evaluate, switch_crossing

STD = "twin { arc A: ; arc B: ; }"


def _adjacent_pairs(comp: Component) -> list[tuple[int, int]]:
    """The component's adjacent position pairs (a, a + 1) in order; a loop
    of two or more passages wraps with (n - 1, 0)."""
    n = len(comp.passages)
    if comp.is_loop:
        return [(i, (i + 1) % n) for i in range(n)] if n > 1 else []
    return [(i, i + 1) for i in range(n - 1)]


def _other_slot(d: Diagram, crossing: int,
                not_slot: tuple[int, int]) -> tuple[int, int]:
    """The slot of ``crossing`` other than ``not_slot``, found by a search
    of its slots."""
    for s in d.slot_index().get(crossing, ()):
        if s != not_slot:
            return s
    raise AssertionError(f"crossing {crossing} has no second passage")


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
        # nothing fires directly; over-commutes would unlock the collapse,
        # so each kink drops in place and no commute is applied
        d = parse("twin { arc A: O1+ O2- O3+ U1+ U2- U3+ ; arc B: ; }")
        fixed, events = simplify(d)
        assert serialize(fixed) == STD
        assert [e.move_kind for e in events] == ["R1", "R1", "R1"]

    def test_commute_enabled_r2(self):
        # the over-partners of the adjacent under-pair share a run but sit
        # in the wrong order; one commute would unlock the bigon, which
        # drops in place
        d = parse("twin { arc A: O1+ O3+ O2- ; arc B: ; loop T: U1+ U3+ U2- ; }")
        fixed, events = simplify(d)
        assert [(e.move_kind, e.crossings) for e in events] == [(R2, (3, 2))]
        assert serialize(fixed) == "twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }"

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
            assert len(fixed.crossings) <= len(d.crossings)
            assert validate(fixed).ok

    def test_fixture_roots_are_fixpoints(self):
        from importlib import resources
        for name in ("tw_giller.twin", "tw_unknot_pair.twin"):
            text = (resources.files("twinskein") / "fixtures" / name).read_text()
            d = parse(text)
            fixed, events = simplify(d)
            assert events == ()
            assert len(fixed.crossings) == len(d.crossings)


def rotate_loop(d: Diagram, label: str, offset: int) -> Diagram:
    """Rotate a loop's cyclic passage sequence (a representation change only)."""
    idx = d.component_index(label)
    comp = d.components[idx]
    assert comp.is_loop, label
    ps = comp.passages
    if ps:
        offset %= len(ps)
        ps = ps[offset:] + ps[:offset]
    comps = d.components[:idx] + (comp._replace(passages=ps),) \
        + d.components[idx + 1:]
    return Diagram(d.mode, comps, dict(d.crossings))


def reference_f_moves(d: Diagram) -> list[int]:
    """Every crossing joining the two twin arcs whose passages are both the
    first, or both the last, of their arcs, found from its slots."""
    if d.mode != TWIN:
        return []
    out = []
    for cid in sorted(d.crossings):
        (c1, p1), (c2, p2) = d.slot_index()[cid]
        comp1, comp2 = d.components[c1], d.components[c2]
        if c1 == c2 or comp1.kind != TWIN_ARC or comp2.kind != TWIN_ARC:
            continue
        if (p1 == p2 == 0 or (p1 == len(comp1.passages) - 1
                               and p2 == len(comp2.passages) - 1)):
            out.append(cid)
    return out


def _reduce(d: Diagram) -> tuple[Diagram, MoveEvent] | None:
    """simplify's one-step reference: apply the first enabled
    crossing-removing move, scanning R1 then R2 then F, then the reductions
    that welded commutes enable; None when no such move is enabled."""
    for ci, a, cid in _r1_pairs(d):
        return (_drop_crossings(d, {cid}),
                MoveEvent(R1, (cid,), (d.components[ci].label, a)))
    for ci, a, x, y in _r2_pairs(d):
        return (_drop_crossings(d, {x, y}),
                MoveEvent(R2, (x, y), (d.components[ci].label, a)))
    fmoves = find_f_moves(d)
    found = (F_MOVE, (fmoves[0],)) if fmoves else _commuted_reduction(d)
    if found is None:
        return None
    kind, cids = found
    ci, pos = d.slot_index()[cids[0]][0]
    return (_drop_crossings(d, set(cids)),
            MoveEvent(kind, cids, (d.components[ci].label, pos)))


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
            ci, pos = d.slot_index()[arg][0]
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
        path = reference_commute_search(d)
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
        # simplify drops commute-enabled reductions in place, so its output
        # matches the commuting reference up to where a loop's text starts
        kinds = set()
        for i in range(300):
            d = random_diagram(rng, max_crossings=6,
                               mode=TWO_KNOT if i % 4 == 3 else TWIN,
                               n_loops=i % 3, two_arcs=i % 2 == 1)
            fixed, events = simplify(d)
            assert canonicalize(fixed) == \
                canonicalize(reference_simplify(d)[0]), serialize(d)
            kinds.update(e.move_kind for e in events)
        assert kinds == {R1, R2, F_MOVE}

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

    @pytest.mark.parametrize("scan", [find_f_moves, simplify])
    def test_a_lone_twin_arc_is_a_diagram_error(self, scan):
        d = parse("twin { arc A: O1+ U1+ ; }", strict=False)
        with pytest.raises(DiagramError, match=r"^a twin diagram must have "
                                               r"two arcs \(found 1\)$"):
            scan(d)


def reference_over_runs(comp: Component) -> list[list[int]]:
    """Maximal over-runs as a list of position lists, in run order."""
    n = len(comp.passages)
    over = [p.role == OVER for p in comp.passages]
    if not any(over):
        return []
    if comp.is_loop and all(over):
        return [list(range(n))]
    runs: list[list[int]] = []
    start = 0
    if comp.is_loop:
        start = next(i for i in range(n) if not over[i]) + 1
    cur: list[int] = []
    for k in range(n):
        pos = (start + k) % n if comp.is_loop else k
        if over[pos]:
            cur.append(pos)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    return runs


def reference_run_index(runs: list[list[int]], pos: int) -> int | None:
    for ri, run in enumerate(runs):
        if pos in run:
            return ri
    return None


def reference_shift_plan(label, run, src_idx, dst_idx):
    plan = []
    i = src_idx
    while i < dst_idx:
        plan.append((label, run[i]))
        i += 1
    while i > dst_idx:
        plan.append((label, run[i - 1]))
        i -= 1
    return plan


def reference_arrange_pair_plan(label, run, first_idx, second_idx):
    if first_idx < second_idx:
        return reference_shift_plan(label, run, first_idx, second_idx - 1)
    return reference_shift_plan(label, run, first_idx, second_idx)


def reference_commute_search(d: Diagram) -> list[tuple[str, int]] | None:
    """The commute search over runs kept as lists of position lists, each
    looked up by a scan, and keyed by component label."""
    if not moves.find_commute_moves(d):
        return None
    runs_by_comp = {c.label: reference_over_runs(c) for c in d.components}
    index = d.slot_index()

    for cid in sorted(d.crossings):
        slots = index.get(cid, ())
        if len(slots) != 2 or slots[0][0] != slots[1][0]:
            continue
        comp = d.components[slots[0][0]]
        n = len(comp.passages)
        p1, p2 = slots[0][1], slots[1][1]
        op, up = (p1, p2) if comp.passages[p1].role == OVER else (p2, p1)
        runs = runs_by_comp[comp.label]
        ri = reference_run_index(runs, op)
        if ri is None:
            continue
        run = runs[ri]
        src = run.index(op)
        after_end = (run[-1] + 1) % n if comp.is_loop else run[-1] + 1
        before_start = (run[0] - 1) % n if comp.is_loop else run[0] - 1
        if after_end == up and after_end < n:
            plan = reference_shift_plan(comp.label, run, src, len(run) - 1)
        elif 0 <= before_start == up:
            plan = reference_shift_plan(comp.label, run, src, 0)
        else:
            continue
        if plan:
            return plan

    for ci, comp in enumerate(d.components):
        for a, b in _adjacent_pairs(comp):
            pa, pb = comp.passages[a], comp.passages[b]
            if pa.role != UNDER or pb.role != UNDER:
                continue
            f, s = pa.crossing, pb.crossing
            if f == s or d.crossings[f] == d.crossings[s]:
                continue
            of_ci, of_p = _other_slot(d, f, (ci, a))
            os_ci, os_p = _other_slot(d, s, (ci, b))
            if of_ci != os_ci:
                continue
            ocomp = d.components[of_ci]
            runs = runs_by_comp[ocomp.label]
            ri = reference_run_index(runs, of_p)
            if ri is None or ri != reference_run_index(runs, os_p):
                continue
            run = runs[ri]
            plan = reference_arrange_pair_plan(ocomp.label, run,
                                               run.index(os_p), run.index(of_p))
            if plan:
                return plan

    if d.mode == TWIN:
        for cid in sorted(d.crossings):
            slots = index.get(cid, ())
            if len(slots) != 2:
                continue
            (c1, p1), (c2, p2) = slots
            comp1, comp2 = d.components[c1], d.components[c2]
            if c1 == c2 or comp1.kind != "twin_arc" or comp2.kind != "twin_arc":
                continue

            def reach(comp, pos, target):
                if pos == target:
                    return []
                if comp.passages[pos].role != OVER:
                    return None
                runs = runs_by_comp[comp.label]
                ri = reference_run_index(runs, pos)
                if ri is None or target not in runs[ri]:
                    return None
                run = runs[ri]
                return reference_shift_plan(comp.label, run, run.index(pos),
                                            run.index(target))

            for t1, t2 in ((0, 0), (len(comp1.passages) - 1,
                                    len(comp2.passages) - 1)):
                plan1 = reach(comp1, p1, t1)
                plan2 = reach(comp2, p2, t2)
                if plan1 is not None and plan2 is not None and (plan1 or plan2):
                    return plan1 + plan2
    return None


def reference_connected_blocks(d: Diagram) -> tuple[tuple[str, ...], ...]:
    """Union-find partition of the components: two components sharing a
    crossing land in the same block."""
    n = len(d.components)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    index = d.slot_index()
    for cid in d.crossings:
        slots = index.get(cid, ())
        if len(slots) == 2:
            union(slots[0][0], slots[1][0])

    blocks: dict[int, list[str]] = {}
    for i, comp in enumerate(d.components):
        blocks.setdefault(find(i), []).append(comp.label)
    return tuple(tuple(blocks[root]) for root in sorted(blocks))


def reference_is_split(d: Diagram) -> bool:
    """Split iff some union-find block holds no arc."""
    labels = {c.label: c for c in d.components}
    return any(not any(labels[lab].is_arc for lab in block)
               for block in reference_connected_blocks(d))


def _random_with_empty_loops(rng, i: int) -> Diagram:
    """Seeded random diagrams over 0-3 loops, both modes, ``two_arcs`` and
    up to 12 crossings; every fifth one gains an empty loop."""
    d = random_diagram(rng, max_crossings=1 + i % 12,
                       mode=TWO_KNOT if i % 4 == 3 else TWIN,
                       n_loops=i % 4, two_arcs=i % 3 == 0)
    if i % 5 == 0:
        d = d._replace(components=d.components + (Component(LOOP, "E", ()),))
    return d


def _asked(monkeypatch, run) -> list[Diagram]:
    """Every diagram simplify asks for a commute-enabled reduction while
    ``run()`` works."""
    seen = []
    search = moves._commuted_reduction

    def record(d):
        seen.append(d)
        return search(d)

    with monkeypatch.context() as patch:
        patch.setattr(moves, "_commuted_reduction", record)
        run()
    return seen


def _rotations_apart(x: Diagram, y: Diagram) -> bool:
    """Equal, except that a loop's passages may start elsewhere."""
    if (x.mode, x.crossings, len(x.components)) != \
            (y.mode, y.crossings, len(y.components)):
        return False
    for cx, cy in zip(x.components, y.components):
        if (cx.kind, cx.label, cx.surgery) != (cy.kind, cy.label, cy.surgery):
            return False
        ps, qs = cx.passages, cy.passages
        shifts = range(max(1, len(ps))) if cx.is_loop else (0,)
        if not any(ps[k:] + ps[:k] == qs for k in shifts):
            return False
    return True


def _remove(d: Diagram, event: MoveEvent) -> Diagram:
    """Remove the event's crossings with the public move of its kind, which
    checks that the move is enabled."""
    if event.move_kind == F_MOVE:
        return apply_f_move(d, event.crossings[0])
    move = {R1: apply_r1, R2: apply_r2}[event.move_kind]
    for comp in d.components:
        for a, b in _adjacent_pairs(comp):
            pair = {comp.passages[a].crossing, comp.passages[b].crossing}
            if pair == set(event.crossings):
                return move(d, (comp.label, a))
    raise AssertionError(f"{event} is not enabled")


def _witness(d: Diagram) -> str | None:
    """Check simplify's next step on a diagram with no plain R1, R2 or F
    move against the reference commute search: walking the reference plan,
    then removing the step's crossings with the public move, gives the
    step's diagram up to loop rotation.  The step's kind, or None when
    neither finds a reduction."""
    plan = reference_commute_search(d)
    red = _reduce(d)
    assert (plan is None) == (red is None), serialize(d)
    if red is None:
        return None
    step, event = red
    for at in plan:
        d = apply_welded_commute(d, at)
    assert _rotations_apart(_remove(d, event), step), serialize(d)
    return event.move_kind


class TestCommuteSearchAgainstReference:
    """simplify's commute-enabled reductions, witnessed by the reference
    search's commute plans."""

    def test_fixtures_and_their_engine_nodes(self, monkeypatch):
        fixtures = _fixtures()
        asked = _asked(monkeypatch, lambda: [evaluate(d) for d in fixtures])
        assert {R1, R2} <= {_witness(d) for d in asked}

    def test_random_diagrams(self, rng):
        kinds = []
        for i in range(3000):
            d = e = _random_with_empty_loops(rng, i)
            while (red := _reduce(e)) is not None:
                if not (find_r1_moves(e) or find_r2_moves(e)
                        or find_f_moves(e)):
                    kinds.append(_witness(e))
                e = red[0]
            assert e == simplify(d)[0]
            assert canonicalize(e) == canonicalize(reference_simplify(d)[0]), \
                serialize(d)
        assert len(kinds) >= 200
        assert set(kinds) == {R1, R2, F_MOVE}

    def test_plans_simplify_asks_for(self, rng, monkeypatch):
        diagrams = [_random_with_empty_loops(rng, i) for i in range(600)]
        asked = _asked(monkeypatch, lambda: [simplify(d) for d in diagrams])
        enabled = {_witness(d) for d in asked}
        assert enabled == {None, R1, R2, F_MOVE}


def _over_runs(comp: Component) -> dict[int, list[int]]:
    """Each over-passage position -> its maximal stretch of consecutive
    over-passages, as positions in run order (wrapping for loops; an
    all-over loop is one cyclic run).  All positions of one run share one
    list."""
    runs: dict[int, list[int]] = {}
    run: list[int] = []
    for pos, (_, role) in enumerate(comp.passages):
        if role == OVER:
            run.append(pos)
            runs[pos] = run
        elif run:
            run = []
    first = runs.get(0)
    if comp.kind == LOOP and run and first is not None and first is not run:
        # the last run wraps round into the first
        run.extend(first)
        for pos in first:
            runs[pos] = run
    return runs


def reference_commuted_reduction(d: Diagram) -> tuple | None:
    """``_commuted_reduction`` as three searches: the kinks read from the
    passages that flank each over-run, with their own wrap arithmetic, then
    a walk for the first bigon, then the endpoint slides."""
    comps = d.components
    runs = [_over_runs(c) for c in comps]
    index = d.slot_index()

    kinks = []
    for ci, comp in enumerate(comps):
        ps = comp.passages
        n = len(ps)
        loop = comp.kind == LOOP
        comp_runs = runs[ci]
        for pos, run in comp_runs.items():
            if pos != run[0]:
                continue  # each run once
            for q in (run[-1] + 1, run[0] - 1):
                if loop:
                    q %= n
                elif not 0 <= q < n:
                    continue
                cid, role = ps[q]
                if role == OVER:
                    continue  # an all-over loop
                oc, op = _partner(index, cid, ci, q)
                if oc == ci and comp_runs.get(op) is run:
                    kinks.append(cid)
    if kinks:
        return R1, (min(kinks),)

    signs = d.crossings
    for ci, a, b, x, rx, y, ry in _pair_walk(d):
        if rx == ry == UNDER and x != y and signs[x] != signs[y]:
            fc, fp = _partner(index, x, ci, a)
            sc, sp = _partner(index, y, ci, b)
            run = runs[fc].get(fp)
            if fc == sc and run is not None and runs[fc].get(sp) is run:
                return R2, (x, y)

    if d.mode == TWIN:
        c1, c2 = (ci for ci, c in enumerate(comps) if c.kind == TWIN_ARC)
        ends = ((0, 0), (len(comps[c1].passages) - 1,
                         len(comps[c2].passages) - 1))

        def reaches(ci: int, pos: int, target: int) -> bool:
            run = runs[ci].get(pos)
            return pos == target or (run is not None
                                     and runs[ci].get(target) is run)

        slides = []
        for p1, (cid, _) in enumerate(comps[c1].passages):
            ci, p2 = _partner(index, cid, c1, p1)
            if ci == c2 and any(reaches(c1, p1, t1) and reaches(c2, p2, t2)
                                for t1, t2 in ends):
                slides.append(cid)
        if slides:
            return F_MOVE, (min(slides),)
    return None


class TestCommutedReductionAgainstReference:
    """The one-pass run search gives the flank search's result on every
    diagram simplify asks about, the nodes of seeded evaluations included."""

    def test_seeded_diagrams_and_spun_cuts(self, rng, monkeypatch):
        diagrams = [_random_with_empty_loops(rng, i) for i in range(3000)]
        # evaluating reaches the switch chains, where the search nearly
        # always finds nothing
        twins = [d for d in diagrams if d.mode == TWIN and d.loops()][:300]
        spun = [artin_spin(code, cut)
                for code in map(table_knot, table_names())
                for cut in range(max(1, len(code.passages)))]
        assert (len(twins), len(spun)) == (300, 163)
        asked = _asked(monkeypatch, lambda: [simplify(d) for d in diagrams]
                       + [evaluate(d) for d in twins + spun])
        found = [reference_commuted_reduction(d) for d in asked]
        assert [_commuted_reduction(d) for d in asked] == found
        assert {f and f[0] for f in found} == {None, R1, R2, F_MOVE}


class TestCommutedReductionTable:
    """Hand-written diagrams with no plain R1, R2 or F move and an
    over-over pair, each pinned to its commute-enabled reduction."""

    #: (text, the reduction)
    CASES = [
        # an all-over loop is one cyclic run with no flank; the bigon's
        # over-passages sit two apart in it
        ("twin { arc A: U1+ U2- ; arc B: U3+ U4+ ; "
         "loop T: O1+ O3+ O2- O4+ ; }", (R2, (1, 2))),
        # the run O1 O3 wraps the loop's end, and U3 then U1 flank it
        ("twin { arc A: ; arc B: ; loop T: O3+ U1+ U3+ O1+ ; }", (R1, (1,))),
        # runs hold arc A's first and its last passage: slides of 1 at the
        # start marker and of 4 at the end one, then with 1 and 4 exchanged
        ("twin { arc A: O2+ O1+ U3+ O4- O5- ; arc B: U1+ U5- U2+ O3+ U4- ; }",
         (F_MOVE, (1,))),
        ("twin { arc A: O2+ O4+ U3+ O1- O5- ; arc B: U4+ U5- U2+ O3+ U1- ; }",
         (F_MOVE, (1,))),
        # a bigon across loop T's wrap pair (U2, U1), with O3 between the
        # over-passages of its run
        ("twin { arc A: O5+ U3+ ; arc B: U4+ ; loop S: O1+ O3+ O2- U5+ ; "
         "loop T: U1+ O4+ U2- ; }", (R2, (2, 1))),
        # kinks of 5, then of 2, in scan order: the least id wins
        ("twin { arc A: U5+ O6+ O5+ U2- O7+ O2- ; arc B: U6+ U7+ ; }",
         (R1, (2,))),
        # kinks of 5 and 6 and the bigon (1, 2): a kink wins
        ("twin { arc A: U1+ U2- ; arc B: U5+ O6+ O5+ U6+ U3+ U4+ ; "
         "loop S: O1+ O3+ O2- O4+ ; }", (R1, (5,))),
        # the bigon (2, 3) and a slide of 1 at the start marker: the bigon
        # wins
        ("twin { arc A: O2+ O1+ O3- U4+ ; arc B: U1+ O4+ U6- ; "
         "loop T: U2+ U3- O6- ; }", (R2, (2, 3))),
    ]

    @pytest.mark.parametrize("text, found", CASES)
    def test_pinned_reductions(self, text, found):
        d = parse(text)
        assert not (find_r1_moves(d) or find_r2_moves(d) or find_f_moves(d))
        assert _round_walk(d) == (None, True)
        assert _commuted_reduction(d) == reference_commuted_reduction(d) \
            == found


def _reference_pair_walk(d: Diagram) -> list[tuple]:
    """(ci, a, b, x, rx, y, ry) for each pair of the reference pair list."""
    return [(ci, a, b, *comp.passages[a], *comp.passages[b])
            for ci, comp in enumerate(d.components)
            for a, b in _adjacent_pairs(comp)]


def _walk_without_wrap(d: Diagram):
    """A broken pair walk that drops every loop's wrap pair."""
    return (site for site in _pair_walk(d) if site[2] != 0)


def _walk_wrapping_one_passage_loops(d: Diagram):
    """A broken pair walk that pairs a one-passage loop's passage with
    itself."""
    for ci, comp in enumerate(d.components):
        if comp.is_loop and len(comp.passages) == 1:
            x, rx = comp.passages[0]
            yield ci, 0, 0, x, rx, x, rx
        yield from (site for site in _pair_walk(d) if site[0] == ci)


class TestPairWalk:
    """The one pair walk under the move scans, and the partner lookup,
    against the reference pair list and slot search."""

    #: (text, every pair the walk yields)
    EDGES = [
        # one-passage loops and a one-passage arc have no pair
        ("twin { arc A: O1+ O2+ ; arc B: ; loop S: U1+ ; loop T: U2+ ; }",
         [(0, 0, 1, 1, OVER, 2, OVER)]),
        # a two-passage loop has both (0, 1) and its wrap pair (1, 0)
        ("twin { arc A: ; arc B: ; loop T: O1+ U1+ ; }",
         [(2, 0, 1, 1, OVER, 1, UNDER), (2, 1, 0, 1, UNDER, 1, OVER)]),
        ("twin { arc A: O1+ O2- ; arc B: ; loop T: U2- U1+ ; }",
         [(0, 0, 1, 1, OVER, 2, OVER), (2, 0, 1, 2, UNDER, 1, UNDER),
          (2, 1, 0, 1, UNDER, 2, UNDER)]),
        # a two-passage arc has no wrap pair
        ("knot { arc K: O1+ U1+ ; }", [(0, 0, 1, 1, OVER, 1, UNDER)]),
        # empty arcs and an empty loop
        ("twin { arc A: ; arc B: ; }", []),
        ("twin { arc A: ; arc B: ; loop T: ; }", []),
    ]

    @staticmethod
    def _mismatches(walk, diagrams) -> int:
        return sum(list(walk(d)) != _reference_pair_walk(d) for d in diagrams)

    @staticmethod
    def _seeded(rng) -> list[Diagram]:
        return [_random_with_empty_loops(rng, i) for i in range(2000)]

    @pytest.mark.parametrize("text, pairs", EDGES)
    def test_edge_cases(self, text, pairs):
        d = parse(text)
        assert list(_pair_walk(d)) == _reference_pair_walk(d) == pairs

    def test_seeded_diagrams_in_both_modes(self, rng):
        diagrams = self._seeded(rng)
        assert {d.mode for d in diagrams} == {TWIN, TWO_KNOT}
        assert self._mismatches(_pair_walk, diagrams) == 0

    def test_partner_is_the_other_slot(self, rng):
        checked = 0
        for d in _fixtures() + self._seeded(rng):
            index = d.slot_index()
            for ci, comp in enumerate(d.components):
                for pos, (cid, _) in enumerate(comp.passages):
                    assert _partner(index, cid, ci, pos) == \
                        _other_slot(d, cid, (ci, pos)), serialize(d)
                    checked += 1
        assert checked > 10000

    #: an unvalidated diagram whose crossing 1 is met once
    MET_ONCE = "twin { arc A: O1+ O2- U3+ ; arc B: U2- O3+ ; }"

    @pytest.mark.parametrize("scan", [find_r2_moves, find_r3_moves, simplify])
    def test_a_crossing_met_once_is_a_diagram_error(self, scan):
        d = parse(self.MET_ONCE, strict=False)
        with pytest.raises(DiagramError, match=r"^crossing 1 must have two "
                                               r"passages \(found 1\)$"):
            scan(d)

    def test_the_endpoint_search_names_a_crossing_met_once(self):
        # no kink or bigon search reads crossing 1's partner here
        d = parse("twin { arc A: O1+ ; arc B: ; }", strict=False)
        with pytest.raises(DiagramError, match=r"^crossing 1 must have two "
                                               r"passages \(found 1\)$"):
            _commuted_reduction(d)

    @pytest.mark.parametrize("broken", [_walk_without_wrap,
                                        _walk_wrapping_one_passage_loops])
    def test_the_check_catches_a_broken_walk(self, rng, broken):
        assert self._mismatches(broken, self._seeded(rng)) > 0


def _reference_over_pair(d: Diagram) -> bool:
    """Whether some adjacent pair is over-over, read off the pair list."""
    return any(comp.passages[a].role == comp.passages[b].role == OVER
               for comp in d.components for a, b in _adjacent_pairs(comp))


class TestRoundWalk:
    """simplify's round walk returns the R1 scan's first site, else the R2
    scan's first site, and, where that is no kink, the reference over-over
    verdict."""

    #: (text, (reduction, over-over pair, or None where a kink stops the
    #: walk before it reads every pair))
    EDGES = [
        # a one-passage loop
        ("twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }", (None, False)),
        # two-passage loops, whose pairs are (0, 1) and (1, 0): a kink, and
        # a bigon first met at the wrap pair (1, 0)
        ("twin { arc A: ; arc B: ; loop T: O1+ U1+ ; }",
         ((R1, 2, 0, (1,)), None)),
        ("twin { arc A: U3+ ; arc B: ; loop S: U1+ U2- ; "
         "loop T: O1+ O2- O3+ ; }", ((R2, 2, 1, (2, 1)), True)),
        # a kink and an over-over pair only across a loop's wrap
        ("twin { arc A: O2+ ; arc B: ; loop T: O1+ U2+ U1+ ; }",
         ((R1, 2, 2, (1,)), None)),
        ("twin { arc A: U1+ O2+ U3+ ; arc B: ; loop T: O1+ U2+ O3+ ; }",
         (None, True)),
        # an all-over loop
        ("twin { arc A: U1+ U2+ U3+ ; arc B: ; loop T: O1+ O2+ O3+ ; }",
         (None, True)),
        # empty arcs
        ("twin { arc A: ; arc B: ; }", (None, False)),
        ("twin { arc A: ; arc B: ; loop T: ; }", (None, False)),
        ("twin { arc A: ; arc B: ; loop S: O1+ U2- ; loop T: O2- U1+ ; }",
         (None, False)),
        # a bigon on arc A and a kink on a later loop: R1 comes first
        ("twin { arc A: O1+ O2- ; arc B: ; loop T: U2- U1+ ; "
         "loop S: O3+ U3+ ; }", ((R1, 3, 0, (3,)), None)),
        # kinks on two components: the earlier one wins
        ("twin { arc A: ; arc B: O1+ U1+ ; loop T: O2- U2- ; }",
         ((R1, 1, 0, (1,)), None)),
        # a bigon on arc A, then a kink only at loop T's wrap pair (3, 0)
        ("twin { arc A: O1+ O2- ; arc B: ; loop T: O3+ U2- U1+ U3+ ; }",
         ((R1, 2, 3, (3,)), None)),
    ]

    @staticmethod
    def _check(d: Diagram) -> tuple[tuple | None, bool]:
        found, over_pair = _round_walk(d)
        kink = next(_r1_pairs(d), None)
        bigon = next(_r2_pairs(d), None)
        if kink is not None:
            expected = R1, kink[0], kink[1], (kink[2],)
        elif bigon is not None:
            expected = R2, bigon[0], bigon[1], bigon[2:]
        else:
            expected = None
        assert found == expected, serialize(d)
        if found is None or found[0] != R1:
            assert over_pair == _reference_over_pair(d), serialize(d)
        return found, over_pair

    @pytest.mark.parametrize("text, verdicts", EDGES)
    def test_edge_cases(self, text, verdicts):
        found, over_pair = self._check(parse(text))
        if found is not None and found[0] == R1:
            over_pair = None
        assert (found, over_pair) == verdicts

    def test_seeded_diagrams_and_their_reductions(self, rng):
        seen = set()
        for i in range(2000):
            d = _random_with_empty_loops(rng, i)
            while True:
                found, over_pair = self._check(d)
                seen.add(over_pair if found is None else found[0])
                red = _reduce(d)
                if red is None:
                    break
                d = red[0]
        # a reduction of each kind, and no reduction both with and without
        # an over-over pair
        assert seen == {R1, R2, True, False}


class TestSplitAgainstReference:
    def test_loop_reached_through_another_loop_is_not_split(self):
        d = parse("twin { arc A: O1+ ; arc B: ; loop T: U2+ ; "
                  "loop S: U1+ O2+ ; }")
        assert not is_split_simplified(d) and not reference_is_split(d)
        assert not is_split_simplified(simplify(d)[0])

    def test_detached_loop_pair_beside_an_attached_loop_is_split(self):
        d = parse("twin { arc A: O1+ ; arc B: ; loop R: U1+ ; loop S: O2+ ; "
                  "loop T: U2+ ; }")
        assert is_split_simplified(d) and reference_is_split(d)
        assert is_split_simplified(simplify(d)[0])

    def test_fixtures_and_random_diagrams(self, rng):
        answers = set()
        diagrams = _fixtures() + [_random_with_empty_loops(rng, i)
                                  for i in range(2400)]
        for d in diagrams:
            for e in (d, simplify(d)[0]):
                split = is_split_simplified(e)
                assert split == reference_is_split(e), serialize(e)
                answers.add((bool(e.loops()), split))
        assert answers == {(False, False), (True, False), (True, True)}

    def test_a_switch_hands_on_the_verdict_of_its_parent(self, rng,
                                                         monkeypatch):
        diagrams = _fixtures() + [_random_with_empty_loops(rng, i)
                                  for i in range(600)]
        scans = []
        detached = moves._detached

        def counting(d):
            scans.append(d)
            return detached(d)

        monkeypatch.setattr(moves, "_detached", counting)
        answers = set()
        for d in diagrams:
            split = is_split_simplified(d)
            assert is_split_simplified(d) is vars(d)["_split"] is split
            for c in d.crossings:
                child = switch_crossing(d, c)
                assert is_split_simplified(child) is split
                assert split == reference_is_split(child), serialize(child)
            answers.add(split)
        assert scans == diagrams
        assert answers == {False, True}


class TestAuditTrail:
    def test_events_export_ordered_json(self):
        d = parse("twin { arc A: O1+ U1+ O2- U2- ; arc B: ; }")
        fixed, events = simplify(d)
        assert [e.move_kind for e in events] == ["R1", "R1"]
        assert [e.crossings for e in events] == [(1,), (2,)]
        assert [e.position for e in events] == [("A", 0), ("A", 0)]


class TestTerminalPredicates:
    def test_standard(self):
        assert is_unit_simplified(simplify(parse(STD))[0])

    def test_split_loop_is_not_standard(self):
        d = parse("twin { arc A: ; arc B: ; loop T: ; }")
        assert not is_unit_simplified(simplify(d)[0])

    def test_kink_is_standard(self):
        d = parse("twin { arc A: O1+ U1+ ; arc B: ; }")
        assert is_unit_simplified(simplify(d)[0])

    def test_split_detached_loop(self):
        d = parse("twin { arc A: ; arc B: ; loop T: ; }")
        assert is_split_simplified(simplify(d)[0])

    def test_linked_loop_not_split(self):
        d = parse("twin { arc A: O1+ O2+ ; arc B: ; loop T: U1+ U2+ ; }")
        assert not is_split_simplified(simplify(d)[0])

    def test_loop_pair_split(self):
        d = parse("twin { arc A: ; arc B: ; loop S: O1+ ; loop T: U1+ ; }")
        assert is_split_simplified(simplify(d)[0])

    def test_r2_linking_does_not_mask_splitness(self):
        d = parse("twin { arc A: O1+ O2- ; arc B: ; loop T: U2- U1+ ; }")
        assert is_split_simplified(simplify(d)[0])


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

    @pytest.mark.parametrize("text, message", [
        ("twin { arc A: ; arc B: ; arc C: O1+ U1+ ; }",
         r"^a twin diagram must have two arcs \(found 3\)$"),
        ("knot { arc K: ; arc L: O1+ U2+ O2+ U1+ ; }",
         r"^a two_knot diagram must have one arc \(found 2\)$"),
    ])
    def test_an_extra_arc_is_a_diagram_error(self, text, message):
        # not the key of the diagram without it
        with pytest.raises(DiagramError, match=message):
            canonicalize(parse(text, strict=False))

    def test_relabeling_invariance(self):
        d1 = parse("twin { arc A: O7+ U9- ; arc B: ; loop T: U7+ O9- ; }")
        d2 = parse(serialize(d1))
        assert canonicalize(d1) == canonicalize(d2)

    def test_loop_rotation_invariance(self):
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
            assert cf == canonicalize(parse(serialize(d)))
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

    #: Where comparing loop texts could go wrong: loop crossings numbered
    #: 10 and up (``O10+`` sorts before ``O2+``), empty and
    #: surgery-labelled loops (``(`` sorts before ``;``, both before a
    #: token), and first parts that tie between rotations of one loop or
    #: between loops.
    PRUNING = [
        "twin { arc A: O1+ O2+ O3+ O4+ O5+ O6+ O7+ O8+ O9+ ; arc B: ; "
        "loop S: U2+ U3+ ; loop T: U9+ O10- U10- ; loop U: U1+ U4+ U5+ "
        "U6+ U7+ U8+ ; }",
        "twin { arc A: O1+ O2+ O3+ O4+ O5+ O6+ O7+ O8+ O9+ ; arc B: ; "
        "loop S: U2+ O10+ U11- ; loop T: U10+ O11- U1+ ; loop U: U3+ U4+ "
        "U5+ U6+ U7+ U8+ U9+ ; }",
        "knot { arc K: O1- O2+ O3- O4+ O5- O6+ O7- O8+ O9- ; "
        "loop T: U1- U2+ U3- U4+ U5- O10+ U6+ U10+ U7- U8+ U9- ; }",
        "twin { arc A: O1+ ; arc B: ; loop S: (2, 1/3) ; "
        "loop T: U1+ (0, 0/1) ; loop U: ; loop V: (-1, 1/2) ; }",
        "twin { arc A: ; arc B: ; loop S: (0, 0/1) ; loop T: (0, 0/12) ; "
        "loop U: ; }",
        "twin { arc A: O1+ O2+ ; arc B: ; "
        "loop T: O3+ U3+ U1+ O4+ U4+ U2+ ; }",
        "twin { arc A: O1+ O2- ; arc B: ; loop S: U1+ O3+ U3+ ; "
        "loop T: U2- O4+ U4+ ; }",
        "twin { arc A: ; arc B: ; loop S: O1+ U2+ O3- U4- ; "
        "loop T: O2+ U1+ O4- U3- ; }",
        "twin { arc A: O5+ ; arc B: ; loop S: O1+ U1+ O2+ U2+ U5+ ; "
        "loop T: O3- U3- O4- U4- ; }",
    ]

    @pytest.mark.parametrize("text", PRUNING)
    def test_pruning_cases(self, text):
        d = parse(text)
        assert canonicalize(d) == brute_force_canonicalize(d)

    def test_random_diagrams_with_ten_or_more_crossings(self, rng):
        surgeries = (None, DEFAULT_SURGERY, (2, 1, 3))
        high = 0
        checked = 0
        while checked < 40:
            d = random_diagram(rng, max_crossings=12, n_loops=1 + checked % 2,
                               two_arcs=True)
            if len(d.crossings) < 10:
                continue
            checked += 1
            d = d._replace(components=tuple(
                c._replace(surgery=rng.choice(surgeries)) if c.is_loop else c
                for c in d.components))
            cf = canonicalize(d)
            assert cf == brute_force_canonicalize(d), serialize(d)
            loop_text = cf.key.split("loop", 1)[1:]
            high += any(tok[1:-1].isdigit() and int(tok[1:-1]) >= 10
                        for tok in "".join(loop_text).split())
        assert high >= 10

    def test_random_diagrams_with_up_to_three_loops(self, rng):
        kinds = set()
        surgeries = (None, DEFAULT_SURGERY, (2, 1, 3))
        for i in range(240):
            d = random_diagram(rng, max_crossings=5,
                               mode=TWO_KNOT if i % 8 >= 4 else TWIN,
                               n_loops=i % 4, two_arcs=True)
            d = d._replace(components=tuple(
                c._replace(surgery=rng.choice(surgeries)) if c.is_loop else c
                for c in d.components))
            kinds.update(classify_crossing(d, cid) for cid in d.crossings)
            assert canonicalize(d) == brute_force_canonicalize(d), serialize(d)
        assert {"loop_self", "loop_loop", "arc_loop"} <= kinds


def _renumbered(d: Diagram, rng) -> Diagram:
    """The same diagram with its crossings renumbered at random and its
    loops in a shuffled order."""
    ids = list(d.crossings)
    new_ids = rng.sample(range(1, 10 * len(ids) + 2), len(ids))
    renum = dict(zip(ids, new_ids))
    comps = [c._replace(passages=tuple(p._replace(crossing=renum[p.crossing])
                                       for p in c.passages))
             for c in d.components]
    arcs = [c for c in comps if c.is_arc]
    loops = [c for c in comps if c.is_loop]
    rng.shuffle(loops)
    return Diagram(d.mode, tuple(arcs + loops),
                   {renum[c]: s for c, s in d.crossings.items()})


class TestCanonicalFingerprint:
    def test_equal_keys_have_equal_fingerprints(self, rng):
        surgeries = (None, DEFAULT_SURGERY, (2, 1, 3))
        prints_by_key: dict[str, set] = {}
        for i in range(300):
            d = random_diagram(rng, max_crossings=5,
                               mode=TWO_KNOT if i % 4 == 3 else TWIN,
                               n_loops=i % 4, two_arcs=i % 2 == 1)
            d = d._replace(components=tuple(
                c._replace(surgery=rng.choice(surgeries)) if c.is_loop else c
                for c in d.components))
            variants = [d, _renumbered(d, rng)]
            moved = variants[-1]
            for loop in moved.loops():
                moved = rotate_loop(moved, loop.label,
                                    rng.randrange(max(1, len(loop.passages))))
                if rng.random() < 0.5:
                    moved = reverse_component(moved, loop.label)
                variants.append(moved)
            key = canonicalize(d).key
            for v in variants:
                assert canonicalize(v).key == key, serialize(v)
                prints_by_key.setdefault(key, set()).add(
                    canonical_fingerprint(v))
        assert all(len(fps) == 1 for fps in prints_by_key.values())
        # the fingerprint is coarser than the key, but not trivial
        distinct = {fp for fps in prints_by_key.values() for fp in fps}
        assert 50 < len(distinct) < len(prints_by_key)

    def test_signs_and_numbering_stay_out(self):
        d = parse("twin { arc A: O1+ O2- ; arc B: ; loop T: U2- U1+ ; }")
        flipped = parse("twin { arc A: O5- O7+ ; arc B: ; loop T: U7+ U5- ; }")
        assert canonical_fingerprint(d) == canonical_fingerprint(flipped)
        assert canonical_fingerprint(d) != canonical_fingerprint(
            parse("twin { arc A: O1+ U2- ; arc B: ; loop T: O2- U1+ ; }"))
