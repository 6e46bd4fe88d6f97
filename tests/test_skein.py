import json
from collections import Counter

import pytest

from twinskein.alexander import alexander_at_t_squared, braid_closure_knot
from twinskein.constructions import artin_spin
from twinskein.diagram import (
    Diagram,
    DiagramError,
    KNOT_ARC,
    LOOP,
    TWIN,
    TWIN_ARC,
    TWO_KNOT,
    _build_slot_index,
    parse,
    random_diagram,
    reverse_component,
    serialize,
    walk_order,
)
from twinskein.laurent import LaurentPoly, SKEIN_MULTIPLIER
from twinskein.moves import (
    _detached,
    apply_r1,
    apply_r2,
    apply_r3,
    apply_welded_commute,
    canonicalize,
    find_commute_moves,
    find_r1_moves,
    find_r2_moves,
    find_r3_moves,
    is_split_simplified,
    is_unit_simplified,
    simplify,
)
from twinskein.skein import (
    MEMO,
    SPLIT,
    STANDARD,
    UNKNOTTED,
    UNRESOLVED,
    NoEligibleCrossing,
    SkeinConfig,
    SkeinStats,
    SurgeryLabelError,
    UnsupportedLoopSmoothing,
    UnsupportedRibbonIntersection,
    _Engine,
    _choice_walk,
    choose_crossing,
    eligible_crossings,
    evaluate,
    export_trace,
    smooth_crossing,
    switch_crossing,
)

SPUN_TREFOIL_VALUE = LaurentPoly({-2: 1, 0: -1, 2: 1})
SPUN_TREFOIL = "twin { arc A: O1+ U2+ O3+ U1+ O2+ U3+ ; arc B: ; }"
# a single arc-loop crossing: the engine switches it back and forth until the
# depth budget runs out
ONE_CROSSING_TWIN = "twin { arc A: O1+ ; arc B: ; loop T: U1+ ; }"


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
        assert len(switch_crossing(d, 1).crossings) == 3

    def test_untouched_components_are_kept(self):
        d = parse("twin { arc A: O1+ U2- ; arc B: O3+ ; "
                  "loop S: U1+ O2- ; loop T: U3+ ; }")
        out = switch_crossing(d, 1)
        assert [p.role for p in out.component("A").passages] == ["U", "U"]
        assert [p.role for p in out.component("S").passages] == ["O", "O"]
        for label in ("B", "T"):
            assert out.component(label) is d.component(label)


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

    def test_arc_loop_with_the_loop_listed_first(self):
        # the slots of the crossing come loop first, in scan order
        loop_first = parse("twin { loop T: O2+ U1+ U2+ ; arc A: O1+ ; "
                           "arc B: ; }")
        arc_first = parse("twin { arc A: O1+ ; arc B: ; "
                          "loop T: O2+ U1+ U2+ ; }")
        out = smooth_crossing(loop_first, 1)
        assert out == smooth_crossing(arc_first, 1)
        assert [(p.role, p.crossing) for p in out.component("A").passages] \
            == [("U", 2), ("O", 2)]

    def test_loop_loop_unsupported(self):
        d = parse("twin { arc A: ; arc B: ; loop S: O1+ ; loop T: U1+ ; }")
        with pytest.raises(UnsupportedLoopSmoothing):
            smooth_crossing(d, 1)


class TestChooseCrossing:
    def test_under_before_over_wins(self):
        d = parse(SPUN_TREFOIL)
        assert choose_crossing(d) == 2

    def test_fallback_first_eligible(self):
        d = parse("twin { arc A: O1+ O2+ U1+ U2+ ; arc B: ; }")
        assert choose_crossing(d) == 1

    def test_only_arc_arc_raises(self):
        d = parse("twin { arc A: O1+ ; arc B: U1+ ; }")
        with pytest.raises(NoEligibleCrossing):
            choose_crossing(d)


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

    @pytest.mark.parametrize("sign", [0, 2, -7])
    def test_crossing_sign_other_than_one_rejected(self, sign):
        d = parse(ONE_CROSSING_TWIN)
        with pytest.raises(DiagramError, match="crossing-sign"):
            evaluate(d._replace(crossings={1: sign}))

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
        r = evaluate(parse(ONE_CROSSING_TWIN), SkeinConfig(depth_budget=8))
        assert not r.resolved
        assert r.unresolved_reason == "depth-budget-exceeded"

    def test_canonical_keys_only_where_memo_or_trace_reads_them(
            self, monkeypatch, rng):
        import twinskein.skein as skein
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
        calls = {"choose": 0, "smooth": 0}

        def counting_choose(d):
            calls["choose"] += 1
            return choose_crossing(d)

        def counting_smooth(d, cid):
            calls["smooth"] += 1
            return smooth_crossing(d, cid)

        monkeypatch.setattr(skein, "choose_crossing", counting_choose)
        monkeypatch.setattr(skein, "smooth_crossing", counting_smooth)
        r = evaluate(parse(ONE_CROSSING_TWIN))
        assert r.unresolved_reason == "depth-budget-exceeded"
        assert calls["smooth"] < calls["choose"]

    def test_determinism(self):
        d = parse(SPUN_TREFOIL)
        r1 = evaluate(d, SkeinConfig(emit_trace=True))
        r2 = evaluate(d, SkeinConfig(emit_trace=True))
        assert r1.value == r2.value
        assert r1.stats == r2.stats
        assert export_trace(r1, "json") == export_trace(r2, "json")

    def test_stats_compare_by_value(self):
        assert SkeinStats(9, 1, 4) == SkeinStats(9, 1, 4)
        assert SkeinStats(9, 1, 4) != SkeinStats(9, 1, 5)


def _resolvable(rng, **kwargs):
    """Generate random diagrams until one resolves under the default config."""
    for _ in range(500):
        d = random_diagram(rng, **kwargs)
        r = evaluate(d, SkeinConfig(depth_budget=24))
        if r.resolved:
            return d, r
    raise AssertionError("generator failed to find a resolvable diagram")


def _fixture_diagrams() -> list[Diagram]:
    from importlib import resources
    folder = resources.files("twinskein") / "fixtures"
    return [parse((folder / name).read_text())
            for name in ("tw_std.twin", "tw_split.twin", "tw_giller.twin",
                         "tw_unknot_pair.twin", "giller_ex.knot")]


def _random_diagrams(rng, n: int) -> list[Diagram]:
    return [random_diagram(rng, max_crossings=5,
                           mode=TWO_KNOT if i % 4 == 3 else "twin",
                           n_loops=i % 3, two_arcs=i % 2 == 1)
            for i in range(n)]


def _scanned_slots(d: Diagram, crossing: int) -> tuple[tuple[int, int], ...]:
    """The slots of a crossing by a scan of every passage, as they were
    found before the index."""
    return tuple((ci, pi) for ci, comp in enumerate(d.components)
                 for pi, p in enumerate(comp.passages) if p.crossing == crossing)


def _evaluate_all(diagrams):
    for d in diagrams:
        for cfg in (SkeinConfig(depth_budget=16),
                    SkeinConfig(depth_budget=16, emit_trace=True)):
            try:
                evaluate(d, cfg)
            except DiagramError:
                pass


def _fact_holders(monkeypatch, rng) -> tuple[list[Diagram], Counter]:
    """Evaluate the fixtures, the one-crossing twin and 300 random diagrams
    as ``_evaluate_all`` does, and return every diagram that may hold a
    layout fact, once each, with the number of slot index builds per
    diagram id.  A diagram gets a fact where one is made
    or handed on: its slot index is built, it is a switched diagram, which
    inherits its parent's facts, or it is an output of ``simplify``, where
    the engine caches the crossing choice and the split verdict.  This sees
    every diagram however it was constructed.  Every recorded diagram is
    kept alive, so ids stay unique."""
    import twinskein.diagram as diagram
    import twinskein.skein as skein
    held: dict[int, Diagram] = {}
    builds: Counter = Counter()
    build = diagram._build_slot_index
    switch = skein.switch_crossing
    simplify_ = skein.simplify

    def recording_build(d):
        held[id(d)] = d
        builds[id(d)] += 1
        return build(d)

    def recording_switch(d, crossing):
        child = switch(d, crossing)
        held[id(child)] = child
        return child

    def recording_simplify(d):
        fixed, events = simplify_(d)
        held[id(fixed)] = fixed
        return fixed, events

    with monkeypatch.context() as patch:
        patch.setattr(diagram, "_build_slot_index", recording_build)
        patch.setattr(skein, "switch_crossing", recording_switch)
        patch.setattr(skein, "simplify", recording_simplify)
        _evaluate_all(_fixture_diagrams() + [parse(ONE_CROSSING_TWIN)]
                      + _random_diagrams(rng, 300))
    return list(held.values()), builds


class TestPassageIndex:
    def test_slots_match_a_scan_on_every_diagram_built(self, rng,
                                                       monkeypatch):
        built, _ = _fact_holders(monkeypatch, rng)
        assert len(built) > 1000
        for d in built:
            absent = max(d.crossings, default=0) + 1
            for cid in [*d.crossings, absent]:
                assert d.slot_index().get(cid, ()) == _scanned_slots(d, cid)

    def test_mutating_the_returned_slots_leaves_the_index_alone(self):
        d = parse(SPUN_TREFOIL)
        slots = list(d.slot_index()[2])
        slots.append((9, 9))
        slots.reverse()
        assert d.slot_index()[2] == _scanned_slots(d, 2) == ((0, 1), (0, 4))
        with pytest.raises(AttributeError):
            d.slot_index()[2].append((0, 0))
        assert d.slot_index()[2] == ((0, 1), (0, 4))
        assert 7 not in d.slot_index()

    def test_each_diagram_builds_its_index_at_most_once(self, rng,
                                                        monkeypatch):
        built, builds = _fact_holders(monkeypatch, rng)
        # indexed by a build or, after a switch, by the parent's index
        assert sum("_slot_index" in vars(d) for d in built) > 1000
        assert max(builds.values()) == 1

    def test_a_switch_hands_its_index_to_the_child(self, rng):
        switched = 0
        for d in _fixture_diagrams() + _random_diagrams(rng, 300):
            absent = max(d.crossings, default=0) + 1
            for c in d.crossings:
                child = switch_crossing(d, c)
                assert child.slot_index() is d.slot_index()
                for cid in [*child.crossings, absent]:
                    assert child.slot_index().get(cid, ()) \
                        == _scanned_slots(child, cid)
                switched += 1
        assert switched > 500


#: How each layout fact a diagram may cache is computed from scratch.
_LAYOUT_FACTS = {
    "_slot_index": _build_slot_index,
    "_choice_walk": _choice_walk,
    "_split": _detached,
}


def _cache_every_fact(d: Diagram) -> None:
    d.slot_index()
    try:
        choose_crossing(d)
    except NoEligibleCrossing:
        pass
    is_split_simplified(d)


def _assert_facts_are_its_own(d: Diagram) -> None:
    """Every entry of the diagram's ``__dict__`` is a layout fact, equal to
    the same fact computed on an uncached copy."""
    facts = vars(d)
    assert facts.keys() <= _LAYOUT_FACTS.keys()
    for name, fact in facts.items():
        assert fact == _LAYOUT_FACTS[name](Diagram(*d)), name


class TestLayoutFacts:
    def test_a_switch_hands_on_every_fact_and_each_is_the_childs_own(
            self, rng):
        switched = 0
        for d in _fixture_diagrams() + _random_diagrams(rng, 300):
            _cache_every_fact(d)
            assert vars(d).keys() == _LAYOUT_FACTS.keys()
            for c in d.crossings:
                child = switch_crossing(d, c)
                assert vars(child).keys() == _LAYOUT_FACTS.keys()
                _assert_facts_are_its_own(child)
                switched += 1
        assert switched > 500

    def test_every_diagram_the_engine_builds_holds_its_own_facts(
            self, rng, monkeypatch):
        built, _ = _fact_holders(monkeypatch, rng)
        for d in built:
            _assert_facts_are_its_own(d)
        assert sum("_choice_walk" in vars(d) for d in built) > 1000
        assert sum("_split" in vars(d) for d in built) > 1000

    def test_each_layout_computes_its_walk_and_split_verdict_at_most_once(
            self, rng, monkeypatch):
        """A layout here is a diagram and those switched from it, which
        share one slot index.  Unrelated diagrams of one layout, such as
        the bare arcs reached down two branches, compute their facts
        apart."""
        import twinskein.moves as moves
        import twinskein.skein as skein
        asked: Counter = Counter()
        computed: Counter = Counter()
        indexes = []  # keeps every index alive, so ids stay unique

        def counting(counter, name, fn):
            def wrapper(d):
                index = d.slot_index()
                indexes.append(index)
                counter[name, id(index)] += 1
                return fn(d)
            return wrapper

        monkeypatch.setattr(skein, "choose_crossing", counting(
            asked, "walk", choose_crossing))
        monkeypatch.setattr(skein, "is_split_simplified", counting(
            asked, "split", is_split_simplified))
        monkeypatch.setattr(skein, "_choice_walk", counting(
            computed, "walk", _choice_walk))
        monkeypatch.setattr(moves, "_detached", counting(
            computed, "split", _detached))
        for d in _spun_table() + _random_diagrams(rng, 300):
            evaluate(d)
        monkeypatch.undo()
        assert max(computed.values()) == 1
        # switched children inherit, so most asks compute nothing
        for name in ("walk", "split"):
            n_asked = sum(n for (fact, _), n in asked.items() if fact == name)
            n_computed = sum(1 for fact, _ in computed if fact == name)
            assert n_asked > 3 * n_computed > 1000


class _UngatedEngine(_Engine):
    """The engine as it was before lookups were gated by fingerprint: a key
    at every internal node whenever the memo or a trace is on.  Like the
    engine, it stores nothing at the root, whose entry no lookup reads."""

    def run(self, d, depth):
        fixed, _ = simplify(d)
        stats = self.stats
        stats.nodes_expanded += 1
        stats.max_depth = max(stats.max_depth, depth)
        cfg = self.cfg

        if is_split_simplified(fixed):
            value, terminal = LaurentPoly.zero(), SPLIT
        elif is_unit_simplified(fixed):
            value = LaurentPoly.one()
            terminal = STANDARD if fixed.mode == TWIN else UNKNOTTED
        else:
            terminal = None
        if terminal is not None:
            if not cfg.emit_trace:
                return value, None, None
            return value, None, self._node(canonicalize(fixed),
                                           terminal=terminal, value=value)

        cf = canonicalize(fixed) if cfg.use_memo or cfg.emit_trace else None
        if cfg.use_memo:
            stored = self.memo.get(cf.key)
            if stored is not None:
                stats.memo_hits += 1
                value = stored if cf.sign > 0 else -stored
                return value, None, self._node(cf, terminal=MEMO, value=value)
        if depth >= cfg.depth_budget:
            return None, "depth-budget-exceeded", self._node(
                cf, terminal=UNRESOLVED, reason="depth-budget-exceeded")
        try:
            cid = choose_crossing(fixed)
        except NoEligibleCrossing as exc:
            return None, f"no-eligible-crossing: {exc}", self._node(
                cf, terminal=UNRESOLVED, reason="no-eligible-crossing")

        s = fixed.crossings[cid]
        v1, r1, n1 = self.run(switch_crossing(fixed, cid), depth + 1)
        if r1 is not None:
            return None, r1, self._node(cf, crossing=cid, crossing_sign=s,
                                        children=(("switch", n1),))
        v2, r2, n2 = self.run(smooth_crossing(fixed, cid), depth + 1)
        children = (("switch", n1), ("smooth", n2))
        if r2 is not None:
            return None, r2, self._node(cf, crossing=cid, crossing_sign=s,
                                        children=children)
        contrib = cfg.multiplier * v2
        value = v1 + contrib if s > 0 else v1 - contrib
        if cfg.use_memo and depth:
            self.memo.setdefault(cf.key, value if cf.sign > 0 else -value)
        return value, None, self._node(cf, crossing=cid, crossing_sign=s,
                                       value=value, children=children)


def _outcome(engine_cls, d: Diagram, cfg: SkeinConfig):
    """(value, reason, stats, trace, memo entries in order) of one run, or
    the exception."""
    engine = engine_cls(cfg)
    try:
        value, reason, trace = engine.run(d, 0)
    except DiagramError as exc:
        return type(exc), str(exc)
    return value, reason, engine.stats, trace, list(engine.memo.items())


def _spun_table() -> list[Diagram]:
    from twinskein.constructions import artin_spin, table_knot, table_names
    out = []
    for name in table_names():
        code = table_knot(name)
        out += [artin_spin(code, cut_at=cut)
                for cut in range(max(1, len(code.passages)))]
    return out


def _reference_walk_order(d: Diagram):
    """The walk order as the engine built it before ``walk_order``."""
    arcs = sorted((c for c in d.components if c.is_arc), key=lambda c: c.label)
    loops = sorted((c for c in d.components if c.is_loop), key=lambda c: c.label)
    return arcs + loops


def _normal_form_order(d: Diagram):
    """The component order that ``serialize``'s normal form sorted by
    before ``walk_order``: the arcs, then the loops, each by label."""
    rank = {TWIN_ARC: 0, KNOT_ARC: 0, LOOP: 1}
    return sorted(d.components, key=lambda c: (rank[c.kind], c.label))


def _reference_choose_crossing(d: Diagram) -> int:
    """``choose_crossing`` as it was before the one walk: the eligible set,
    the role of each crossing where the walk first meets it, and the
    crossings in walk order."""
    eligible = set(eligible_crossings(d))
    if not eligible:
        raise NoEligibleCrossing(
            "no arc-self or arc-loop crossing remains (only pairwise or "
            "loop-internal crossings)")
    first_role: dict[int, str] = {}
    order: list[int] = []
    for comp in _reference_walk_order(d):
        for p in comp.passages:
            if p.crossing not in first_role:
                first_role[p.crossing] = p.role
                order.append(p.crossing)
    eligible_in_order = [cid for cid in order if cid in eligible]
    for cid in eligible_in_order:
        if first_role[cid] == "U":
            return cid
    return eligible_in_order[0]


def _choice(choose, d: Diagram):
    """The crossing ``choose`` picks, or the exception it raises."""
    try:
        return choose(d)
    except DiagramError as exc:
        return type(exc), str(exc)


class TestOneWalkChoice:
    def _engine_inputs(self, monkeypatch) -> list[Diagram]:
        """Every diagram the engine hands to choose_crossing while it
        evaluates the spun table."""
        import twinskein.skein as skein
        seen = []

        def recording(d):
            seen.append(d)
            return choose_crossing(d)

        monkeypatch.setattr(skein, "choose_crossing", recording)
        for d in _spun_table():
            evaluate(d)
        monkeypatch.undo()
        return seen

    def _random_inputs(self, rng) -> list[Diagram]:
        """300 seeded random diagrams with 0-3 loops, half with
        ``two_arcs``; every third one has its components shuffled under
        fresh labels, so the walk order is not the stored order."""
        out = []
        for i in range(300):
            d = random_diagram(rng, max_crossings=6,
                               mode=TWO_KNOT if i % 4 == 3 else TWIN,
                               n_loops=i % 4, two_arcs=i % 2 == 1)
            if i % 3 == 0:
                labels = rng.sample(["A", "B", "K", "T1", "T2", "S", "b"],
                                    len(d.components))
                comps = [c._replace(label=lab)
                         for c, lab in zip(d.components, labels)]
                rng.shuffle(comps)
                d = d._replace(components=tuple(comps))
            out.append(d)
        return out

    def test_picks_what_the_previous_choice_picked(self, rng, monkeypatch):
        engine = self._engine_inputs(monkeypatch)
        diagrams = _fixture_diagrams() + engine + self._random_inputs(rng)
        outcomes = set()
        for d in diagrams:
            assert walk_order(d) == _reference_walk_order(d) \
                == _normal_form_order(d)
            pick = _choice(choose_crossing, d)
            assert pick == _choice(_reference_choose_crossing, d), \
                serialize(d)
            if isinstance(pick, tuple):
                outcomes.add("raised")
                continue
            first_role: dict[int, str] = {}
            for comp in walk_order(d):
                for p in comp.passages:
                    first_role.setdefault(p.crossing, p.role)
            outcomes.add(first_role[pick])
        assert len(engine) > 1000
        # a pick met first under, the fallback and a refusal all occur
        assert outcomes == {"U", "O", "raised"}

    def test_picks_what_the_previous_choice_picked_on_switched_children(
            self, rng, monkeypatch):
        """Each child of a switch inherits its parent's walk.  Only valid
        diagrams are pinned: on an invalid one the walk, which classifies
        every crossing on the arcs, may refuse where the previous choice
        returned before it met the crossing missing from the map."""
        engine = self._engine_inputs(monkeypatch)
        outcomes = set()
        switched = 0
        for d in _fixture_diagrams() + engine + self._random_inputs(rng):
            _choice(choose_crossing, d)
            for c in d.crossings:
                child = switch_crossing(d, c)
                assert vars(child)["_choice_walk"] is vars(d)["_choice_walk"]
                pick = _choice(choose_crossing, child)
                assert pick == _choice(_reference_choose_crossing, child), \
                    serialize(child)
                switched += 1
                if isinstance(pick, tuple):
                    outcomes.add("raised")
                    continue
                first_role: dict[int, str] = {}
                for comp in walk_order(child):
                    for p in comp.passages:
                        first_role.setdefault(p.crossing, p.role)
                outcomes.add(first_role[pick])
        assert switched > 10000
        # a pick met first under, the fallback and a refusal all occur
        assert outcomes == {"U", "O", "raised"}


class TestGatedMemo:
    CONFIGS = (SkeinConfig(),
               SkeinConfig(depth_budget=24, emit_trace=True),
               SkeinConfig(depth_budget=24, emit_trace=True, use_memo=False))

    def test_matches_the_ungated_engine(self, rng):
        diagrams = (_fixture_diagrams() + [parse(ONE_CROSSING_TWIN)]
                    + _random_diagrams(rng, 300))
        cases = [(d, cfg) for d in diagrams for cfg in self.CONFIGS]
        cases += [(d, self.CONFIGS[0]) for d in _spun_table()]
        hits = traced = 0
        for d, cfg in cases:
            # trace nodes compare field by field, so equal traces export
            # equal JSON and DOT
            got = _outcome(_Engine, d, cfg)
            assert got == _outcome(_UngatedEngine, d, cfg), serialize(d)
            if len(got) == 5:
                hits += got[2].memo_hits
                traced += got[3] is not None
        assert hits > 100 and traced > 500

    def test_unresolved_run_writes_no_key(self, monkeypatch):
        import twinskein.skein as skein
        keyed = []

        def counting(d):
            keyed.append(d)
            return canonicalize(d)

        monkeypatch.setattr(skein, "canonicalize", counting)
        r = evaluate(parse(ONE_CROSSING_TWIN), SkeinConfig(depth_budget=8))
        assert r.unresolved_reason == "depth-budget-exceeded"
        assert r.stats.nodes_expanded == 9
        assert keyed == []


    def test_the_root_stores_nothing(self, monkeypatch):
        # the spun trefoil resolves two internal nodes, the root and one
        # below it; only the one below is keyed
        import twinskein.skein as skein
        from twinskein.constructions import artin_spin, table_knot
        keyed = []

        def counting(d):
            keyed.append(d)
            return canonicalize(d)

        monkeypatch.setattr(skein, "canonicalize", counting)
        r = evaluate(artin_spin(table_knot("3_1")))
        assert r.value == SPUN_TREFOIL_VALUE
        assert len(keyed) == 1


class TestFingerprintOnlyOnceStored:
    @staticmethod
    def _counting(monkeypatch) -> list[Diagram]:
        import twinskein.skein as skein
        from twinskein.moves import canonical_fingerprint
        printed = []

        def counting(d):
            printed.append(d)
            return canonical_fingerprint(d)

        monkeypatch.setattr(skein, "canonical_fingerprint", counting)
        return printed

    def test_none_where_nothing_is_stored(self, rng, monkeypatch):
        printed = self._counting(monkeypatch)
        r = evaluate(parse(ONE_CROSSING_TWIN))
        assert r.unresolved_reason == "depth-budget-exceeded"
        assert r.stats.nodes_expanded == 65
        assert printed == []
        for d in _fixture_diagrams() + _random_diagrams(rng, 300):
            try:
                evaluate(d, SkeinConfig(depth_budget=24, use_memo=False))
            except DiagramError:
                pass
        assert printed == []

    def test_at_most_one_a_node(self, rng, monkeypatch):
        printed = self._counting(monkeypatch)
        stored = 0
        for d in _random_diagrams(rng, 300) + _spun_table():
            engine = _Engine(SkeinConfig())
            before = len(printed)
            try:
                engine.run(d, 0)
            except DiagramError:
                continue
            # each memo entry was stored with a fingerprint
            assert len(engine.memo) <= len(printed) - before \
                <= engine.stats.nodes_expanded
            stored += len(engine.memo)
        assert stored > 500
        # every node simplifies to a diagram of its own, and ``printed``
        # keeps them all alive, so a repeat id is a node printed twice
        assert len({id(d) for d in printed}) == len(printed)


class TestMemoOnSpunTorusKnots:
    """No bundled fixture gets a memo hit; on the spun torus knot T(2, n)
    the memo is what keeps the tree linear."""

    @pytest.mark.parametrize("n,nodes", [(9, 17), (13, 25), (21, 41)])
    def test_2n_minus_1_nodes_with_the_memo(self, n, nodes):
        k = braid_closure_knot([1] * n)
        r = evaluate(artin_spin(k))
        assert r.stats.nodes_expanded == nodes == 2 * n - 1
        assert r.value == alexander_at_t_squared(k)

    def test_753_nodes_without_it(self):
        k = braid_closure_knot([1] * 13)
        r = evaluate(artin_spin(k), SkeinConfig(use_memo=False))
        assert r.stats.nodes_expanded == 753
        assert r.value == alexander_at_t_squared(k)


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

    def test_skein_identity_at_negative_root_crossings(self):
        # the unknot-pair twin's root: the engine switches crossing 3, and
        # crossing 2 is negative too; at a negative crossing
        # whole - switched = -m * smoothed
        d = _fixture_diagrams()[3]
        assert choose_crossing(d) == 3
        whole = evaluate(d).value
        for c in (2, 3):
            assert c in eligible_crossings(d) and d.crossings[c] == -1
            sw = evaluate(switch_crossing(d, c))
            sm = evaluate(smooth_crossing(d, c))
            assert sw.value == LaurentPoly.one()
            assert whole - sw.value == -(SKEIN_MULTIPLIER * sm.value)
            assert whole - sw.value != SKEIN_MULTIPLIER * sm.value

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
        # one memo table, at depth 1, since the root stores nothing.
        from twinskein.skein import _Engine
        d = parse("twin { arc A: O1+ U3+ ; arc B: ; loop T: O3+ U1+ ; }")
        engine = _Engine(SkeinConfig(emit_trace=True))
        v1, reason1, _ = engine.run(d, 1)
        assert reason1 is None and v1 == SKEIN_MULTIPLIER
        v2, reason2, node2 = engine.run(reverse_component(d, "T"), 1)
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
        r = evaluate(parse(ONE_CROSSING_TWIN),
                     SkeinConfig(depth_budget=4, emit_trace=True))
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
        r = evaluate(parse(ONE_CROSSING_TWIN),
                     SkeinConfig(depth_budget=MAX_DEPTH_BUDGET,
                                 emit_trace=True))
        assert r.stats.max_depth == MAX_DEPTH_BUDGET
        assert export_trace(r, "json").count('"switch"') == MAX_DEPTH_BUDGET
        assert export_trace(r, "dot").count("switch") == MAX_DEPTH_BUDGET
        with pytest.raises(ValueError):
            SkeinConfig(depth_budget=MAX_DEPTH_BUDGET + 1)

    def test_unknown_format_raises(self):
        r = evaluate(parse(SPUN_TREFOIL), SkeinConfig(emit_trace=True))
        with pytest.raises(ValueError, match="unknown trace format 'svg'"):
            export_trace(r, "svg")

    def test_trace_absent_raises(self):
        r = evaluate(parse(SPUN_TREFOIL))
        with pytest.raises(DiagramError):
            export_trace(r, "json")
