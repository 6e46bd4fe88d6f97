"""The invariant engine: memoized skein recursion over crossing switches and
oriented smoothings.

Base cases: a twin that simplifies to two bare arcs counts 1, a configuration
with a detached loop cluster counts 0, and in 2-knot mode a crossingless arc
with no loops counts 1.  At a positive crossing the value is
``switched + multiplier * smoothed``; at a negative one the smoothed branch
is subtracted.  Pairwise (arc-arc) crossings cannot be resolved; when only
those remain the engine reports a structured unresolved outcome rather than
guessing.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import (
    ARC_ARC,
    ARC_LOOP,
    ARC_SELF,
    Component,
    DEFAULT_SURGERY,
    Diagram,
    DiagramError,
    LOOP,
    TWIN,
    UNDER,
    ValueEq,
    classify_crossing,
    surgery_text,
    validate,
    walk_order,
)
from .laurent import LaurentPoly, SKEIN_MULTIPLIER
from .moves import (
    canonical_fingerprint,
    canonicalize,
    is_split_simplified,
    is_unit_simplified,
    simplify,
)

STANDARD = "standard"
UNKNOTTED = "unknotted"
SPLIT = "split"
MEMO = "memo"
UNRESOLVED = "unresolved"

#: Largest depth budget accepted.  The engine recurses once per level and the
#: JSON trace export about three times per level (it works to depth 331 when
#: called from the top of the stack), so this stays inside Python's default
#: recursion limit of 1000 frames with room for the caller's own frames.
MAX_DEPTH_BUDGET = 256


class UnsupportedRibbonIntersection(DiagramError):
    """Smoothing a crossing between the two twin arcs is outside the calculus."""


class UnsupportedLoopSmoothing(DiagramError):
    """Smoothing a loop-loop or loop-self crossing is outside the calculus."""


class NoEligibleCrossing(DiagramError):
    """No arc-self or arc-loop crossing is available to resolve."""


class SurgeryLabelError(DiagramError):
    """A loop carries a non-default surgery label; the relations do not apply."""


class ConfigError(ValueError):
    """A configuration value the program refuses."""


class SkeinConfig(ValueEq):
    """Engine settings.  A multiplier of None means the default t - t^-1."""

    def __init__(self, multiplier: LaurentPoly | None = None,
                 depth_budget: int = 64, emit_trace: bool = False,
                 use_memo: bool = True) -> None:
        if not 1 <= depth_budget <= MAX_DEPTH_BUDGET:
            raise ConfigError(
                f"depth_budget must be between 1 and {MAX_DEPTH_BUDGET}, "
                f"not {depth_budget}")
        if multiplier is None:
            multiplier = SKEIN_MULTIPLIER
        if multiplier.is_zero():
            raise ConfigError("multiplier must be nonzero")
        self.multiplier = multiplier
        self.depth_budget = depth_budget
        self.emit_trace = emit_trace
        self.use_memo = use_memo


class SkeinStats:
    __slots__ = ("nodes_expanded", "memo_hits", "max_depth")

    def __init__(self, nodes_expanded: int = 0, memo_hits: int = 0,
                 max_depth: int = 0) -> None:
        self.nodes_expanded = nodes_expanded
        self.memo_hits = memo_hits
        self.max_depth = max_depth

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)


class TraceNode(NamedTuple):
    """One node of the resolution tree (diagrams named by canonical key)."""

    key: str
    sign: int
    terminal: str | None = None
    crossing: int | None = None
    crossing_sign: int | None = None
    value: LaurentPoly | None = None
    reason: str | None = None
    children: tuple[tuple[str, "TraceNode"], ...] = ()

    def leaves(self) -> list["TraceNode"]:
        if not self.children:
            return [self]
        out: list[TraceNode] = []
        for _, child in self.children:
            out.extend(child.leaves())
        return out


class SkeinResult(NamedTuple):
    value: LaurentPoly | None
    unresolved_reason: str | None
    trace: TraceNode | None
    stats: SkeinStats
    multiplier: LaurentPoly

    @property
    def resolved(self) -> bool:
        return self.value is not None


# ---------------------------------------------------------------------------
# local skein operations
# ---------------------------------------------------------------------------


def switch_crossing(d: Diagram, crossing: int) -> Diagram:
    """Swap the over/under roles of the crossing's passages and flip its sign.
    Components that do not meet the crossing are kept as they are."""
    if crossing not in d.crossings:
        raise DiagramError(f"unknown crossing id {crossing}")
    comps = list(d.components)
    for ci, pi in d.slot_index().get(crossing, ()):
        c = comps[ci]
        ps = c.passages
        comps[ci] = Component(c.kind, c.label,
                              ps[:pi] + (ps[pi].flipped(),) + ps[pi + 1:],
                              c.surgery)
    signs = dict(d.crossings)
    signs[crossing] = -signs[crossing]
    return Diagram(d.mode, tuple(comps), signs)


def _fresh_loop_label(d: Diagram) -> str:
    used = {c.label for c in d.components}
    k = 1
    while f"T{k}" in used:
        k += 1
    return f"T{k}"


def smooth_crossing(d: Diagram, crossing: int) -> Diagram:
    """Oriented smoothing.

    At an arc self-crossing the passage segment strictly between the two
    passages splits off as a new loop (default surgery label); at an
    arc-loop crossing the loop is spliced into the arc, rotated to start
    just after its own passage of the crossing.
    """
    kind = classify_crossing(d, crossing)
    if kind == ARC_ARC:
        raise UnsupportedRibbonIntersection(
            f"crossing {crossing} joins the two twin arcs; pairwise ribbon "
            f"intersections cannot be smoothed")
    if kind not in (ARC_SELF, ARC_LOOP):
        raise UnsupportedLoopSmoothing(
            f"crossing {crossing} is {kind}; only arc-self and arc-loop "
            f"crossings can be smoothed")
    slots = d.slot_index()[crossing]

    if kind == ARC_SELF:
        (ci, i), (_, j) = slots
        if i > j:
            i, j = j, i
        arc = d.components[ci]
        between = arc.passages[i + 1:j]
        remainder = arc.passages[:i] + arc.passages[j + 1:]
        new_arc = Component(arc.kind, arc.label, remainder, arc.surgery)
        new_loop = Component(LOOP, _fresh_loop_label(d), between,
                             DEFAULT_SURGERY)
        comps = (d.components[:ci] + (new_arc,) + d.components[ci + 1:]
                 + (new_loop,))
        signs = {c: s for c, s in d.crossings.items() if c != crossing}
        return Diagram(d.mode, comps, signs)

    (c1, p1), (c2, p2) = slots
    if d.components[c1].is_arc:
        (aci, ai), (lci, li) = (c1, p1), (c2, p2)
    else:
        (aci, ai), (lci, li) = (c2, p2), (c1, p1)
    arc = d.components[aci]
    loop = d.components[lci]
    rotated = loop.passages[li + 1:] + loop.passages[:li]
    new_arc = Component(arc.kind, arc.label,
                        arc.passages[:ai] + rotated + arc.passages[ai + 1:],
                        arc.surgery)
    comps = tuple(
        new_arc if idx == aci else c
        for idx, c in enumerate(d.components) if idx != lci)
    signs = {c: s for c, s in d.crossings.items() if c != crossing}
    return Diagram(d.mode, comps, signs)


# ---------------------------------------------------------------------------
# crossing selection
# ---------------------------------------------------------------------------


def eligible_crossings(d: Diagram) -> list[int]:
    return [cid for cid in d.crossings
            if classify_crossing(d, cid) in (ARC_SELF, ARC_LOOP)]


def choose_crossing(d: Diagram) -> int:
    """Pick the crossing to resolve, walking the components in walk order:
    the first eligible crossing first met at an under-passage (switching it
    moves the diagram toward descending); failing that, the first eligible
    crossing met."""
    met: set[int] = set()
    first = None
    for comp in walk_order(d):
        for p in comp.passages:
            cid = p.crossing
            if cid in met:
                continue
            met.add(cid)
            if classify_crossing(d, cid) not in (ARC_SELF, ARC_LOOP):
                continue
            if p.role == UNDER:
                return cid
            if first is None:
                first = cid
    if first is None:
        raise NoEligibleCrossing(
            "no arc-self or arc-loop crossing remains (only pairwise or "
            "loop-internal crossings)")
    return first


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _check_surgery_labels(d: Diagram) -> None:
    for c in d.components:
        if c.is_loop and c.surgery is not None and c.surgery != DEFAULT_SURGERY:
            raise SurgeryLabelError(
                f"loop {c.label!r} carries surgery label "
                f"{surgery_text(c.surgery)}; the skein relations are derived "
                f"only for the default (0, 0/1) label")


class _Engine:
    def __init__(self, cfg: SkeinConfig):
        self.cfg = cfg
        self.memo: dict[str, LaurentPoly] = {}
        # fingerprints of the diagrams stored in the memo: a lookup whose
        # fingerprint is not here cannot hit, so it needs no key
        self.stored_prints: set[tuple] = set()
        self.stats = SkeinStats()

    def _node(self, cf, **fields) -> TraceNode | None:
        """A trace node for the canonical form ``cf``, or None when no trace
        was asked for."""
        if not self.cfg.emit_trace:
            return None
        return TraceNode(cf.key, cf.sign, **fields)

    def run(self, d: Diagram, depth: int
            ) -> tuple[LaurentPoly | None, str | None, TraceNode | None]:
        """(value, unresolved reason, trace node); the node is None unless
        ``emit_trace`` is on.  The canonical key is computed at every node of
        a trace, at every memo store, and at a memo lookup only when a stored
        diagram shares the node's fingerprint."""
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

        cf = canonicalize(fixed) if cfg.emit_trace else None
        if cfg.use_memo:
            fp = canonical_fingerprint(fixed)
            if cf is None and fp in self.stored_prints:
                cf = canonicalize(fixed)
            stored = self.memo.get(cf.key) if cf is not None else None
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
            # No value can come out of this node; skip the smooth branch.
            return None, r1, self._node(cf, crossing=cid, crossing_sign=s,
                                        children=(("switch", n1),))
        v2, r2, n2 = self.run(smooth_crossing(fixed, cid), depth + 1)
        children = (("switch", n1), ("smooth", n2))
        if r2 is not None:
            return None, r2, self._node(cf, crossing=cid, crossing_sign=s,
                                        children=children)
        contrib = cfg.multiplier * v2
        value = v1 + contrib if s > 0 else v1 - contrib
        if cfg.use_memo:
            if cf is None:
                cf = canonicalize(fixed)
            self.stored_prints.add(fp)
            self.memo.setdefault(cf.key, value if cf.sign > 0 else -value)
        return value, None, self._node(cf, crossing=cid, crossing_sign=s,
                                       value=value, children=children)


def evaluate(d: Diagram, cfg: SkeinConfig | None = None) -> SkeinResult:
    """Evaluate the twin invariant (twin mode) or the 2-knot skein polynomial
    (two_knot mode) of a valid diagram."""
    cfg = cfg if cfg is not None else SkeinConfig()
    report = validate(d)
    if not report.ok:
        raise DiagramError(
            "invalid diagram: " + "; ".join(v.code for v in report.violations))
    _check_surgery_labels(d)
    engine = _Engine(cfg)
    value, reason, trace = engine.run(d, 0)
    return SkeinResult(value, reason, trace, engine.stats, cfg.multiplier)


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------


def _trace_to_dict(node: TraceNode) -> dict:
    out: dict = {"key": node.key, "sign": node.sign}
    if node.terminal is not None:
        out["terminal"] = node.terminal
        if node.reason is not None:
            out["reason"] = node.reason
    else:
        out["crossing"] = node.crossing
        out["crossing_sign"] = node.crossing_sign
    if node.value is not None:
        out["value"] = node.value.render()
    out["children"] = [
        {"edge": edge, "node": _trace_to_dict(child)}
        for edge, child in node.children
    ]
    return out


def export_trace(result: SkeinResult, fmt: str) -> str:
    """Serialize the resolution tree as JSON or DOT."""
    if result.trace is None:
        raise DiagramError("result carries no trace (emit_trace was off)")
    if fmt == "json":
        # imported here, not with the module: only --trace json needs it
        import json
        return json.dumps(_trace_to_dict(result.trace), indent=2)
    if fmt != "dot":
        raise ValueError(f"unknown trace format {fmt!r}")

    mult = result.multiplier.render()
    lines = ["digraph skein {", '  node [shape=box, fontname="monospace"];']
    counter = [0]

    def visit(node: TraceNode) -> str:
        name = f"n{counter[0]}"
        counter[0] += 1
        if node.terminal is not None:
            label = node.terminal
            if node.value is not None:
                label += f" = {node.value.render()}"
        else:
            sgn = "+" if (node.crossing_sign or 1) > 0 else "-"
            label = f"skein at c{node.crossing}{sgn}"
            if node.value is not None:
                label += f" = {node.value.render()}"
        if node.sign < 0:
            label += " (sign -1)"
        lines.append(f'  {name} [label="{label}"];')
        for edge, child in node.children:
            child_name = visit(child)
            elabel = "switch" if edge == "switch" else f"smooth x({mult})"
            lines.append(f'  {name} -> {child_name} [label="{elabel}"];')
        return name

    visit(result.trace)
    lines.append("}")
    return "\n".join(lines)
