import json

import pytest

from twinskein.diagram import (
    DiagramError,
    parse,
    random_diagram,
    reverse_component,
)
from twinskein.laurent import LaurentPoly, SKEIN_MULTIPLIER
from twinskein.moves import (
    apply_r1,
    apply_r2,
    apply_r3,
    apply_welded_commute,
    canonicalize,
    find_commute_moves,
    find_r1_moves,
    find_r2_moves,
    find_r3_moves,
)
from twinskein.skein import (
    NoEligibleCrossing,
    SkeinConfig,
    SurgeryLabelError,
    UnsupportedLoopSmoothing,
    UnsupportedRibbonIntersection,
    choose_crossing,
    evaluate,
    export_trace,
    smooth_crossing,
    switch_crossing,
)

SPUN_TREFOIL_VALUE = LaurentPoly({-2: 1, 0: -1, 2: 1})
SPUN_TREFOIL = "twin { arc A: O1+ U2+ O3+ U1+ O2+ U3+ ; arc B: ; }"


class TestSwitch:
    def test_kink_sign_flips(self):
        d = parse("twin { arc A: O1+ U1+ ; arc B: ; }")
        out = switch_crossing(d, 1)
        assert out.crossings == {1: -1}
        assert [p.role for p in out.component("A").passages] == ["U", "O"]

    def test_involution(self):
        d = parse(SPUN_TREFOIL)
        assert switch_crossing(switch_crossing(d, 2), 2) == d

    def test_crossing_count_preserved(self):
        d = parse(SPUN_TREFOIL)
        assert switch_crossing(d, 1).crossing_count() == 3


class TestSmooth:
    def test_arc_self_splits_segment_into_loop(self):
        d = parse("twin { arc A: O1+ U2+ O3+ U1+ O2+ U3+ ; arc B: ; }")
        out = smooth_crossing(d, 2)
        arc = out.component("A")
        assert [(p.role, p.crossing) for p in arc.passages] == [("O", 1), ("U", 3)]
        (loop,) = out.loops()
        assert [(p.role, p.crossing) for p in loop.passages] == [("O", 3), ("U", 1)]
        assert loop.surgery == (0, 0, 1)

    def test_arc_loop_splices_empty_residue(self):
        d = parse("twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }")
        out = smooth_crossing(d, 1)
        assert not out.loops()
        assert out.component("A").passages == ()

    def test_arc_loop_rotation(self):
        d = parse("twin { arc A: O1+ ; arc B: ; loop T: O2+ U1+ U2+ ; }")
        out = smooth_crossing(d, 1)
        assert [(p.role, p.crossing) for p in out.component("A").passages] == \
            [("U", 2), ("O", 2)]

    def test_arc_arc_unsupported(self):
        d = parse("twin { arc A: O1+ ; arc B: U1+ ; }")
        with pytest.raises(UnsupportedRibbonIntersection):
            smooth_crossing(d, 1)

    def test_loop_loop_unsupported(self):
        d = parse("twin { arc A: ; arc B: ; loop S: O1+ ; loop T: U1+ ; }")
        with pytest.raises(UnsupportedLoopSmoothing):
            smooth_crossing(d, 1)


class TestChooseCrossing:
    def test_under_before_over_wins(self):
        d = parse(SPUN_TREFOIL)
        assert choose_crossing(d, "descending") == 2

    def test_fallback_first_eligible(self):
        d = parse("twin { arc A: O1+ O2+ U1+ U2+ ; arc B: ; }")
        assert choose_crossing(d, "descending") == 1

    def test_first_eligible_strategy(self):
        d = parse(SPUN_TREFOIL)
        assert choose_crossing(d, "first_eligible") == 1

    def test_only_arc_arc_raises(self):
        d = parse("twin { arc A: O1+ ; arc B: U1+ ; }")
        with pytest.raises(NoEligibleCrossing):
            choose_crossing(d, "descending")


class TestEvaluate:
    def test_standard_twin(self):
        r = evaluate(parse("twin { arc A: ; arc B: ; }"))
        assert r.value == LaurentPoly.one()

    def test_split(self):
        r = evaluate(parse("twin { arc A: ; arc B: ; loop T: ; }"))
        assert r.value == LaurentPoly.zero()

    def test_spun_trefoil_matches_hand_computation(self):
        # I = I(switch) + m * I(smooth) = 1 + m * (0 + m * 1) = 1 + m^2
        r = evaluate(parse(SPUN_TREFOIL), SkeinConfig(emit_trace=True))
        assert r.value == SPUN_TREFOIL_VALUE
        leaves = r.trace.leaves()
        assert sorted(n.terminal for n in leaves) == ["split", "standard",
                                                      "standard"]

    def test_two_knot_mode_unknotted_arc(self):
        r = evaluate(parse("knot { arc K: O1+ U1+ ; }"))
        assert r.value == LaurentPoly.one()

    def test_two_knot_mode_with_torus(self):
        # same engine and base cases; the linked torus carries one skein step
        r = evaluate(parse("knot { arc K: O1+ U3+ ; loop T: O3+ U1+ ; }"))
        assert r.value == SKEIN_MULTIPLIER

    def test_double_linked_torus_is_honestly_unresolvable(self):
        # two same-sign crossings between arc and loop: nontrivial welded
        # linking, and the switch chain cycles
        r = evaluate(parse("knot { arc K: O1+ O2+ ; loop T: U1+ U2+ ; }"),
                     SkeinConfig(depth_budget=16))
        assert not r.resolved
        assert r.unresolved_reason == "depth-budget-exceeded"

    def test_non_default_surgery_refused(self):
        d = parse("twin { arc A: ; arc B: ; loop T: (3, 1/2) ; }")
        with pytest.raises(SurgeryLabelError):
            evaluate(d)

    def test_default_surgery_accepted(self):
        d = parse("twin { arc A: ; arc B: ; loop T: (0, 0/1) ; }")
        assert evaluate(d).value == LaurentPoly.zero()

    def test_invalid_diagram_rejected(self):
        from twinskein.diagram import Component, Diagram, Passage
        bad = Diagram("twin", (
            Component("twin_arc", "A", (Passage(1, "O"), Passage(1, "O"))),
            Component("twin_arc", "B", ()),
        ), {1: 1})
        with pytest.raises(DiagramError):
            evaluate(bad)

    def test_unresolved_pairwise_only(self):
        # markers mixed, so the endpoint moves cannot clear the pairwise
        # crossings and no eligible crossing remains
        d = parse("twin { arc A: O1+ U2+ ; arc B: O2+ U1+ ; }")
        r = evaluate(d)
        assert not r.resolved
        assert "no-eligible-crossing" in r.unresolved_reason

    def test_pairwise_at_shared_markers_clears_by_endpoint_moves(self):
        d = parse("twin { arc A: O1+ U2+ ; arc B: U1+ O2+ ; }")
        assert evaluate(d).value == LaurentPoly.one()

    def test_unresolved_depth_budget(self):
        # a single arc-loop crossing switch-cycles forever
        d = parse("twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }")
        r = evaluate(d, SkeinConfig(depth_budget=8))
        assert not r.resolved
        assert r.unresolved_reason == "depth-budget-exceeded"

    def test_canonical_keys_only_where_memo_or_trace_reads_them(
            self, monkeypatch, rng):
        import twinskein.skein as skein
        from twinskein.moves import is_split_simplified, is_unit_simplified
        seen = []

        def counting(d):
            seen.append(d)
            return canonicalize(d)

        monkeypatch.setattr(skein, "canonicalize", counting)
        diagrams = [parse(SPUN_TREFOIL),
                    parse("twin { arc A: ; arc B: ; loop T: ; }"),
                    parse("twin { arc A: O1+ U3+ ; arc B: ; loop T: O3+ U1+ ; }")]
        diagrams += [random_diagram(rng, max_crossings=4) for _ in range(20)]
        for d in diagrams:
            evaluate(d, SkeinConfig(depth_budget=16))
        assert seen
        assert not any(is_split_simplified(f) or is_unit_simplified(f)
                       for f in seen)
        seen.clear()
        for d in diagrams:
            evaluate(d, SkeinConfig(depth_budget=16, use_memo=False))
        assert seen == []
        # with a trace every node is keyed, terminals included
        traced = [evaluate(d, SkeinConfig(emit_trace=True))
                  for d in diagrams[:2]]
        assert len(seen) == sum(r.stats.nodes_expanded for r in traced)

    def test_smooth_only_after_the_switch_branch_resolves(self, monkeypatch):
        import twinskein.skein as skein
        from importlib import resources
        calls = {"choose": 0, "smooth": 0}

        def counting_choose(d, strategy):
            calls["choose"] += 1
            return choose_crossing(d, strategy)

        def counting_smooth(d, cid):
            calls["smooth"] += 1
            return smooth_crossing(d, cid)

        monkeypatch.setattr(skein, "choose_crossing", counting_choose)
        monkeypatch.setattr(skein, "smooth_crossing", counting_smooth)
        text = (resources.files("twinskein") / "fixtures" / "tw_giller.twin") \
            .read_text()
        r = evaluate(parse(text), SkeinConfig(strategy="first_eligible"))
        assert r.unresolved_reason == "depth-budget-exceeded"
        assert calls["smooth"] < calls["choose"]

    def test_determinism(self):
        d = parse(SPUN_TREFOIL)
        r1 = evaluate(d, SkeinConfig(emit_trace=True))
        r2 = evaluate(d, SkeinConfig(emit_trace=True))
        assert r1.value == r2.value
        assert r1.stats == r2.stats
        assert export_trace(r1, "json") == export_trace(r2, "json")


def _resolvable(rng, **kwargs):
    """Generate random diagrams until one resolves under the default config."""
    for _ in range(500):
        d = random_diagram(rng, **kwargs)
        r = evaluate(d, SkeinConfig(depth_budget=24))
        if r.resolved:
            return d, r
    raise AssertionError("generator failed to find a resolvable diagram")


class TestProperties:
    def test_skein_identity(self, rng):
        # at a positive crossing: whole - switched = m * smoothed; at a
        # negative one the roles of whole and switched trade places
        checked = 0
        while checked < 30:
            d, _ = _resolvable(rng, max_crossings=4)
            from twinskein.skein import eligible_crossings
            eligible = eligible_crossings(d)
            if not eligible:
                continue
            c = eligible[0]
            whole = evaluate(d)
            sw = evaluate(switch_crossing(d, c))
            sm = evaluate(smooth_crossing(d, c))
            if not (whole.resolved and sw.resolved and sm.resolved):
                continue
            plus, minus = (whole, sw) if d.crossings[c] > 0 else (sw, whole)
            assert plus.value - minus.value == SKEIN_MULTIPLIER * sm.value
            checked += 1

    def test_move_invariance(self, rng):
        checked = 0
        while checked < 30:
            d, before = _resolvable(rng, max_crossings=4)
            moved = d
            for _ in range(3):
                r1 = find_r1_moves(moved)
                r2 = find_r2_moves(moved)
                oc = find_commute_moves(moved)
                r3 = find_r3_moves(moved)
                options = ([("r1", p) for p in r1] + [("r2", p) for p in r2]
                           + [("oc", p) for p in oc] + [("r3", p) for p in r3])
                if not options:
                    break
                kind, p = rng.choice(options)
                moved = {"r1": apply_r1, "r2": apply_r2,
                         "oc": apply_welded_commute, "r3": apply_r3}[kind](moved, p)
            after = evaluate(moved)
            if not after.resolved:
                continue
            assert after.value == before.value
            checked += 1

    def test_twin_values_symmetric(self, rng):
        # Proper twins (no torus component) have symmetric values; each torus
        # flips the parity, matching the sign rule under torus reversal.
        for _ in range(30):
            d, r = _resolvable(rng, max_crossings=4, n_loops=0)
            assert r.value.is_symmetric()

    def test_torus_bearing_values_antisymmetric(self, rng):
        checked = 0
        while checked < 20:
            d, r = _resolvable(rng, max_crossings=4, n_loops=1)
            if len(d.loops()) != 1:
                continue
            assert r.value == -LaurentPoly(
                {-e: c for e, c in r.value.pairs()})
            checked += 1

    def test_loop_reversal_sign_rule(self, rng):
        checked = 0
        while checked < 30:
            d, r = _resolvable(rng, max_crossings=4, n_loops=1)
            loops = d.loops()
            if not loops:
                continue
            rev = evaluate(reverse_component(d, loops[0].label))
            if not rev.resolved:
                continue
            assert rev.value == -r.value
            checked += 1

    def test_memo_soundness(self, rng):
        for _ in range(25):
            d, r = _resolvable(rng, max_crossings=4)
            off = evaluate(d, SkeinConfig(use_memo=False))
            assert off.value == r.value

    def test_signed_memo_lookup(self):
        # The memo stores the canonical representative's value; a diagram
        # reaching the same key through a loop reversal must come back
        # negated.  Drive the engine directly so the two evaluations share
        # one memo table.
        from twinskein.skein import _Engine
        d = parse("twin { arc A: O1+ U3+ ; arc B: ; loop T: O3+ U1+ ; }")
        engine = _Engine(SkeinConfig(emit_trace=True))
        v1, reason1, _ = engine.run(d, 0)
        assert reason1 is None and v1 == SKEIN_MULTIPLIER
        v2, reason2, node2 = engine.run(reverse_component(d, "T"), 0)
        assert reason2 is None and v2 == -SKEIN_MULTIPLIER
        assert node2.terminal == "memo" and node2.sign == -1
        assert engine.stats.memo_hits == 1


class TestTraceExport:
    def test_tw_giller_trace_shape(self):
        from importlib import resources
        text = (resources.files("twinskein") / "fixtures" / "tw_giller.twin") \
            .read_text()
        r = evaluate(parse(text), SkeinConfig(emit_trace=True))
        assert r.value == SPUN_TREFOIL_VALUE
        leaves = r.trace.leaves()
        assert len(leaves) == 4
        std = [n for n in leaves if n.terminal == "standard"]
        torus = [n for n in leaves if n.terminal != "standard"]
        assert len(std) == 2 and all(n.value == LaurentPoly.one() for n in std)
        assert len(torus) == 2 and all("loop" in n.key for n in torus)

    def test_single_terminal_node(self):
        r = evaluate(parse("twin { arc A: ; arc B: ; }"),
                     SkeinConfig(emit_trace=True))
        data = json.loads(export_trace(r, "json"))
        assert data["terminal"] == "standard"
        assert data["children"] == []

    def test_unresolved_trace_has_unresolved_leaf(self):
        d = parse("twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }")
        r = evaluate(d, SkeinConfig(depth_budget=4, emit_trace=True))
        assert any(n.terminal == "unresolved" for n in r.trace.leaves())

    def test_dot_output_is_a_digraph(self):
        r = evaluate(parse(SPUN_TREFOIL), SkeinConfig(emit_trace=True))
        dot = export_trace(r, "dot")
        assert dot.startswith("digraph skein {")
        assert 'label="switch"' in dot
        assert 'label="smooth x(-t^-1 + t)"' in dot

    def test_json_schema_keys(self):
        r = evaluate(parse(SPUN_TREFOIL), SkeinConfig(emit_trace=True))
        data = json.loads(export_trace(r, "json"))
        assert set(data) >= {"key", "sign", "crossing", "children"}
        edge = data["children"][0]
        assert set(edge) == {"edge", "node"}
        assert edge["edge"] in ("switch", "smooth")

    def test_trace_at_the_depth_ceiling_exports(self):
        from twinskein.skein import MAX_DEPTH_BUDGET
        d = parse("twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }")
        r = evaluate(d, SkeinConfig(depth_budget=MAX_DEPTH_BUDGET,
                                    emit_trace=True))
        assert r.stats.max_depth == MAX_DEPTH_BUDGET
        assert export_trace(r, "json").count('"switch"') == MAX_DEPTH_BUDGET
        assert export_trace(r, "dot").count("switch") == MAX_DEPTH_BUDGET
        with pytest.raises(ValueError):
            SkeinConfig(depth_budget=MAX_DEPTH_BUDGET + 1)

    def test_trace_absent_raises(self):
        r = evaluate(parse(SPUN_TREFOIL))
        with pytest.raises(DiagramError):
            export_trace(r, "json")
