"""Diagram rewriting: Reidemeister moves, the welded commute move, twin
endpoint moves, simplification, split and standard-twin detection, and
canonical forms with orientation-reversal sign tracking.

The move set acts purely on Gauss codes.  Virtual crossings are not
recorded, so the virtual moves are identities; the welded commute move
(adjacent over-passages exchange) is the one extra move beyond the
classical R1/R2/R3 and the endpoint moves for twins.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from typing import NamedTuple

from .diagram import (
    ARC_ARC,
    Component,
    Diagram,
    DiagramError,
    OVER,
    TWIN,
    TWIN_ARC,
    UNDER,
    classify_crossing,
    met_once,
    surgery_text,
)

R1 = "R1"
R2 = "R2"
R3 = "R3"
WELDED_COMMUTE = "welded_commute"
F_MOVE = "F_move"


class MoveError(DiagramError):
    """The requested move's precondition is not met."""


class MoveEvent(NamedTuple):
    """One rewriting step, for audit trails."""

    move_kind: str
    crossings: tuple[int, ...]
    position: tuple[str, int]


class CanonicalForm(NamedTuple):
    """Minimal serialized representative of a diagram's signed equivalence class.

    Equal diagrams up to crossing renumbering, loop reordering, loop rotation
    and loop orientation reversal share a key; the sign is the parity of the
    fewest loop reversals that reach the key.
    """

    key: str
    sign: int


# ---------------------------------------------------------------------------
# position helpers
# ---------------------------------------------------------------------------


def _adjacent_pairs(comp: Component) -> tuple[tuple[int, int], ...]:
    return _pairs(len(comp.passages), comp.is_loop)


@functools.cache  # one entry per component length and kind met
def _pairs(n: int, loop: bool) -> tuple[tuple[int, int], ...]:
    if loop:
        if n < 2:
            return ()
        return tuple((i, (i + 1) % n) for i in range(n))
    return tuple((i, i + 1) for i in range(n - 1))


def _pair_at(comp: Component, i: int) -> tuple[int, int]:
    """The adjacent pair of positions starting at ``i`` (wrapping on loops)."""
    n = len(comp.passages)
    if not 0 <= i < (n if comp.is_loop and n > 1 else n - 1):
        raise MoveError(f"no adjacent pair at {comp.label}[{i}]")
    return i, (i + 1) % n


def _other_slot(d: Diagram, crossing: int, not_slot: tuple[int, int]) -> tuple[int, int]:
    for s in d.slot_index().get(crossing, ()):
        if s != not_slot:
            return s
    raise DiagramError(f"crossing {crossing} has no second passage")


def _neighbor(comp: Component, pos: int, step: int) -> int | None:
    n = len(comp.passages)
    q = pos + step
    if comp.is_loop:
        return q % n if n else None
    return q if 0 <= q < n else None


def _drop_crossings(d: Diagram, cids: set[int]) -> Diagram:
    comps = tuple(
        Component(c.kind, c.label,
                  tuple(p for p in c.passages if p.crossing not in cids),
                  c.surgery)
        for c in d.components)
    signs = {cid: s for cid, s in d.crossings.items() if cid not in cids}
    return Diagram(d.mode, comps, signs)


def _swap(d: Diagram, ci: int, i: int, j: int) -> Diagram:
    comp = d.components[ci]
    ps = list(comp.passages)
    ps[i], ps[j] = ps[j], ps[i]
    new = Component(comp.kind, comp.label, tuple(ps), comp.surgery)
    return Diagram(d.mode, d.components[:ci] + (new,) + d.components[ci + 1:],
                   dict(d.crossings))


# ---------------------------------------------------------------------------
# individual moves
# ---------------------------------------------------------------------------


def apply_r1(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Remove a kink: the two passages of one crossing sit adjacently on one
    component (consecutively, wrapping for loops)."""
    label, i = at
    comp = d.component(label)
    a, b = _pair_at(comp, i)
    pa, pb = comp.passages[a], comp.passages[b]
    if pa.crossing != pb.crossing:
        raise MoveError(
            f"passages at {label}[{a}],[{b}] belong to different crossings")
    return _drop_crossings(d, {pa.crossing})


def _r2_refusal(d: Diagram, ci: int, a: int, b: int) -> str | None:
    """Why no bigon cancels at the adjacent pair (a, b) of component ``ci``;
    None when one does."""
    pa, pb = d.components[ci].passages[a], d.components[ci].passages[b]
    x, y = pa.crossing, pb.crossing
    if x == y or pa.role != pb.role:
        return "pointed passages must share a role on distinct crossings"
    if d.crossings[x] == d.crossings[y]:
        return "the two crossings must have opposite signs"
    sx = _other_slot(d, x, (ci, a))
    sy = _other_slot(d, y, (ci, b))
    if sx[0] != sy[0]:
        return "partner passages lie on different components"
    if _neighbor(d.components[sx[0]], sy[1], +1) != sx[1]:
        return "partner passages are not adjacent in reversed order"
    return None


def apply_r2(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Cancel a bigon: adjacent same-role passages of two opposite-sign
    crossings whose partner passages are adjacent in reversed order."""
    label, i = at
    ci = d.component_index(label)
    comp = d.components[ci]
    a, b = _pair_at(comp, i)
    refusal = _r2_refusal(d, ci, a, b)
    if refusal is not None:
        raise MoveError(refusal)
    return _drop_crossings(d, {comp.passages[a].crossing,
                               comp.passages[b].crossing})


def apply_welded_commute(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Exchange two consecutive over-passages on one component (the allowed
    forbidden move of the welded calculus)."""
    label, i = at
    ci = d.component_index(label)
    comp = d.components[ci]
    a, b = _pair_at(comp, i)
    if comp.passages[a].role != OVER or comp.passages[b].role != OVER:
        raise MoveError("only adjacent over-passages commute")
    return _swap(d, ci, a, b)


def apply_f_move(d: Diagram, crossing: int) -> Diagram:
    """Slide a strand off past a twin intersection point: remove a crossing
    between the two twin arcs whose passages sit at the same endpoint marker."""
    if d.mode != TWIN:
        raise MoveError("endpoint moves require twin mode")
    slots = d.slot_index().get(crossing, ())
    if crossing not in d.crossings or len(slots) != 2:
        raise MoveError(f"unknown crossing id {crossing}")
    (c1, p1), (c2, p2) = slots
    comp1, comp2 = d.components[c1], d.components[c2]
    if c1 == c2 or comp1.kind != TWIN_ARC or comp2.kind != TWIN_ARC:
        raise MoveError("the crossing must join the two twin arcs")
    at_plus = p1 == 0 and p2 == 0
    at_minus = (p1 == len(comp1.passages) - 1 and p2 == len(comp2.passages) - 1)
    if not (at_plus or at_minus):
        raise MoveError("passages are not both adjacent to the same marker")
    return _drop_crossings(d, {crossing})


def apply_r3(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Slide a strand across a crossing.

    The pointed adjacent pair is the sliding strand's two same-role passages
    (crossings x then y).  Their partner passages must flank one passage each
    of a third crossing z, with the triangle conditions

        role(z next to partner of x) = over  iff  the z passage follows the
            partner exactly when sign(x) is positive,
        role(z next to partner of y) = under iff  the z passage follows the
            partner exactly when sign(y) is positive,
        sign(z) = sign(x) * sign(y) for an over-slide, its negative for an
            under-slide

    (derived from the oriented braid-relation variants).  All three adjacent
    pairs transpose.  Validity-preserving only; never applied by simplify.
    """
    label, i = at
    ci = d.component_index(label)
    comp = d.components[ci]
    a, b = _pair_at(comp, i)
    pa, pb = comp.passages[a], comp.passages[b]
    x, y, rho = pa.crossing, pb.crossing, pa.role
    if x == y or pb.role != rho:
        raise MoveError("sliding pair must be same-role passages of two crossings")
    sx_ci, sx_p = _other_slot(d, x, (ci, a))
    sy_ci, sy_p = _other_slot(d, y, (ci, b))
    s_x, s_y = d.crossings[x], d.crossings[y]

    def candidates(pci: int, pp: int, sign: int, over_when_same: bool):
        """(position, passage) options for the z passage flanking a partner."""
        out = []
        for delta in (+1, -1):
            q = _neighbor(d.components[pci], pp, delta)
            if q is None:
                continue
            passage = d.components[pci].passages[q]
            same = delta == sign  # z follows the partner iff sign positive
            want_over = same if over_when_same else not same
            if (passage.role == OVER) == want_over:
                out.append((q, passage))
        return out

    want_z_sign = s_x * s_y if rho == OVER else -s_x * s_y
    for zx_p, zx in candidates(sx_ci, sx_p, s_x, over_when_same=True):
        for zy_p, zy in candidates(sy_ci, sy_p, s_y, over_when_same=False):
            if zx.crossing != zy.crossing or zx.crossing in (x, y):
                continue
            if d.crossings[zx.crossing] != want_z_sign:
                continue
            slots = [(ci, a), (ci, b), (sx_ci, sx_p), (sx_ci, zx_p),
                     (sy_ci, sy_p), (sy_ci, zy_p)]
            if len(set(slots)) != 6:
                continue
            out = _swap(d, ci, a, b)
            out = _swap(out, sx_ci, sx_p, zx_p)
            out = _swap(out, sy_ci, sy_p, zy_p)
            return out
    raise MoveError("no slide triangle at this pair")


# ---------------------------------------------------------------------------
# move discovery
# ---------------------------------------------------------------------------


def _r1_pairs(d: Diagram) -> Iterator[tuple[Component, int]]:
    """(component, a) for each kink, the adjacent pair (a, a + 1) holding
    both passages of one crossing, in scan order."""
    for comp in d.components:
        ps = comp.passages
        for a, b in _adjacent_pairs(comp):
            if ps[a].crossing == ps[b].crossing:
                yield comp, a


def _r2_pairs(d: Diagram) -> Iterator[tuple[Component, int, int]]:
    """(component, a, b) for each adjacent pair (a, b) at which
    ``apply_r2`` cancels a bigon, in scan order."""
    for ci, comp in enumerate(d.components):
        for a, b in _adjacent_pairs(comp):
            if _r2_refusal(d, ci, a, b) is None:
                yield comp, a, b


def find_r1_moves(d: Diagram) -> list[tuple[str, int]]:
    return [(comp.label, a) for comp, a in _r1_pairs(d)]


def find_r2_moves(d: Diagram) -> list[tuple[str, int]]:
    return [(comp.label, a) for comp, a, _ in _r2_pairs(d)]


def find_commute_moves(d: Diagram) -> list[tuple[str, int]]:
    out = []
    for comp in d.components:
        for a, b in _adjacent_pairs(comp):
            if comp.passages[a].role == OVER and comp.passages[b].role == OVER:
                out.append((comp.label, a))
    return out


def find_f_moves(d: Diagram) -> list[int]:
    """Crossings of a valid diagram that ``apply_f_move`` removes: those
    whose passages are the first of both twin arcs (at the positive marker)
    or the last of both (at the negative one)."""
    if d.mode != TWIN:
        return []
    a, b = (c.passages for c in d.components if c.kind == TWIN_ARC)
    if not (a and b):
        return []
    return sorted({p.crossing for p, q in ((a[0], b[0]), (a[-1], b[-1]))
                   if p.crossing == q.crossing})


def find_r3_moves(d: Diagram) -> list[tuple[str, int]]:
    out = []
    for comp in d.components:
        for a, _ in _adjacent_pairs(comp):
            try:
                apply_r3(d, (comp.label, a))
            except MoveError:
                continue
            out.append((comp.label, a))
    return out


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


def _reduce(d: Diagram) -> tuple[Diagram, MoveEvent] | None:
    """Apply the first enabled crossing-removing move, scanning R1 then R2
    then F, then the reductions that welded commutes enable; None when no
    such move is enabled."""
    for comp, a in _r1_pairs(d):
        cid = comp.passages[a].crossing
        return (_drop_crossings(d, {cid}),
                MoveEvent(R1, (cid,), (comp.label, a)))
    for comp, a, b in _r2_pairs(d):
        cids = (comp.passages[a].crossing, comp.passages[b].crossing)
        return _drop_crossings(d, set(cids)), MoveEvent(R2, cids, (comp.label, a))
    fmoves = find_f_moves(d)
    found = (F_MOVE, (fmoves[0],)) if fmoves else _commuted_reduction(d)
    if found is None:
        return None
    kind, cids = found
    ci, pos = d.slot_index()[cids[0]][0]
    return (_drop_crossings(d, set(cids)),
            MoveEvent(kind, cids, (d.components[ci].label, pos)))


def _over_runs(comp: Component) -> dict[int, list[int]]:
    """Each over-passage position -> its maximal stretch of consecutive
    over-passages, as positions in run order (wrapping for loops; an
    all-over loop is one cyclic run).  All positions of one run share one
    list."""
    ps = comp.passages
    n = len(ps)
    start = 0
    if comp.is_loop:
        # begin scanning right after an under-passage so wrap runs stay whole
        start = next((i + 1 for i in range(n) if ps[i].role != OVER), 0)
    runs: dict[int, list[int]] = {}
    run: list[int] = []
    for k in range(n):
        pos = (start + k) % n
        if ps[pos].role == OVER:
            run.append(pos)
            runs[pos] = run
        elif run:
            run = []
    return runs


def _commuted_reduction(d: Diagram) -> tuple[str, tuple[int, ...]] | None:
    """The first reduction that welded-commute moves enable, as (kind,
    crossings); None when there is none.  Asked only when no R1, R2 or F
    move is enabled as the diagram stands.

    Over-passages permute freely inside a maximal over-run and runs never
    merge, so reachability is decided exactly: a kink needs its over-passage
    in the run bordering its under-passage; a bigon needs an adjacent
    under-pair of opposite signs whose over-partners share a run; an
    endpoint slide needs both passages able to reach the same marker.
    Walking an over-passage through its run and then deleting it leaves
    the run's other passages in their order, so the reduction is made by
    dropping its crossings where they stand: the commutes themselves are
    never applied, and a loop's text may start elsewhere than after them.
    """
    if not find_commute_moves(d):  # no commute can take a first step
        return None
    runs = [_over_runs(c) for c in d.components]
    index = d.slot_index()

    # kinks: O_c in a run that borders U_c
    for cid in sorted(d.crossings):
        slots = index.get(cid, ())
        if len(slots) != 2 or slots[0][0] != slots[1][0]:
            continue
        (ci, p1), (_, p2) = slots
        comp = d.components[ci]
        op, up = (p1, p2) if comp.passages[p1].role == OVER else (p2, p1)
        run = runs[ci].get(op)
        if run is not None and up in (_neighbor(comp, run[-1], +1),
                                      _neighbor(comp, run[0], -1)):
            return R1, (cid,)

    # bigons: adjacent under-pair, opposite signs, over-partners in one run
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
            run = runs[of_ci].get(of_p)
            if run is not None and runs[of_ci].get(os_p) is run:
                return R2, (f, s)

    # endpoint slides: both passages of an arc-arc crossing reach one marker
    if d.mode == TWIN:
        def reaches(ci: int, pos: int, target: int) -> bool:
            run = runs[ci].get(pos)
            return pos == target or (run is not None
                                     and runs[ci].get(target) is run)

        for cid in sorted(d.crossings):
            if classify_crossing(d, cid) != ARC_ARC:
                continue
            (c1, p1), (c2, p2) = index[cid]
            for t1, t2 in ((0, 0), (len(d.components[c1].passages) - 1,
                                    len(d.components[c2].passages) - 1)):
                if reaches(c1, p1, t1) and reaches(c2, p2, t2):
                    return F_MOVE, (cid,)
    return None


def simplify(d: Diagram) -> tuple[Diagram, tuple[MoveEvent, ...]]:
    """Greedy fixpoint of R1 > R2 > F, then of the reductions that welded
    commutes enable.  Deterministic; every step removes crossings, and no
    step applies a commute.
    """
    events: list[MoveEvent] = []
    while (red := _reduce(d)) is not None:
        d, ev = red
        events.append(ev)
    return d, tuple(events)


# ---------------------------------------------------------------------------
# terminal-form predicates
# ---------------------------------------------------------------------------


def is_split_simplified(fixed: Diagram) -> bool:
    """True iff some component of an already simplified diagram cannot be
    reached from the arcs through shared crossings: a loop or loop cluster
    is detached from the arcs."""
    comps = fixed.components
    index = fixed.slot_index()
    reached = {ci for ci, c in enumerate(comps) if c.is_arc}
    todo = list(reached)
    while todo and len(reached) < len(comps):
        for p in comps[todo.pop()].passages:
            for ci, _ in index[p.crossing]:
                if ci not in reached:
                    reached.add(ci)
                    todo.append(ci)
    return len(reached) < len(comps)


def is_unit_simplified(fixed: Diagram) -> bool:
    """True iff an already simplified diagram is bare arcs: no crossings,
    no loops."""
    return not fixed.crossings and not fixed.loops()


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def canonical_fingerprint(d: Diagram) -> tuple:
    """A cheap summary shared by every diagram with the same canonical key.

    It is the mode and the sorted (kind, passage count, over-passage count,
    surgery or ()) of the components.  None of these change under crossing
    renumbering, loop order, loop rotation or loop reversal, so equal keys
    imply equal fingerprints.  Crossing signs stay out, because a loop
    reversal flips them.
    """
    return (d.mode, tuple(sorted(
        (c.kind, len(c.passages), sum(p.role == OVER for p in c.passages),
         c.surgery or ())
        for c in d.components)))


def canonicalize(d: Diagram) -> CanonicalForm:
    """Signed canonical form.

    The key is the lexicographically minimal serialization over crossing
    renumbering, loop ordering, loop rotation and loop orientation reversal
    (components are relabelled canonically so labels carry no information).
    The sign is the parity of the fewest loop reversals that reach the key.

    The key text is built straight from the passages.  Arcs come first and
    are numbered the same way under every set of loop reversals, so their
    text differs between those sets only in the sign marks, and only the
    sets with the least marks can win.  A key is a sequence of parts (a
    passage token, a surgery text, ``;``) and no part is a prefix of
    another, so keys compare part by part.  Each loop's text ends in its
    only ``;``, so the key compares loop by loop: at each loop position
    the search writes the text of every choice of unused loop and
    rotation, and keeps every choice whose text ties for the least.
    """
    arcs = sorted((c for c in d.components if c.is_arc), key=lambda c: c.label)
    arc_labels = ["A", "B"] if d.mode == TWIN else ["K"]
    loops = [c for c in d.components if c.is_loop]
    n_loops = len(loops)

    arc_number: dict[int, int] = {}
    for comp in arcs:
        for p in comp.passages:
            arc_number.setdefault(p.crossing, len(arc_number) + 1)
    arc_cids = [p.crossing for comp in arcs for p in comp.passages]
    # reversing a loop flips the crossings it meets exactly once
    flips = [met_once(lp) for lp in loops]

    best_marks: str | None = None
    masks: list[tuple[int, dict[int, str]]] = []  # (mask, marks)
    unreversed = {cid: "+" if s > 0 else "-" for cid, s in d.crossings.items()}
    for mask in range(1 << n_loops):
        marks = dict(unreversed) if mask else unreversed
        for li in range(n_loops):
            if mask >> li & 1:
                for cid in flips[li]:
                    marks[cid] = "-" if marks[cid] == "+" else "+"
        arc_marks = "".join([marks[cid] for cid in arc_cids])
        if best_marks is None or arc_marks < best_marks:
            best_marks, masks = arc_marks, []
        if arc_marks == best_marks:
            masks.append((mask, marks))

    marks = masks[0][1]
    parts = [TWIN if d.mode == TWIN else "knot", "{"]
    for label, comp in zip(arc_labels, arcs):
        parts.append("arc")
        parts.append(f"{label}:")
        parts.extend(f"{p.role}{arc_number[p.crossing]}{marks[p.crossing]}"
                     for p in comp.passages)
        if comp.surgery is not None:
            parts.append(surgery_text(comp.surgery))
        parts.append(";")

    surgeries = [[surgery_text(lp.surgery)] if lp.surgery is not None else []
                 for lp in loops]
    # partial choices tied for the least text so far:
    # (used loops, mask, marks, numbering)
    beam = [((), mask, marks, arc_number) for mask, marks in masks]
    for level in range(1, n_loops + 1):
        head = ["loop", f"T{level:03d}:"]
        best_text: str | None = None
        grown: list = []
        for used, mask, marks, number in beam:
            for li in range(n_loops):
                if li in used:
                    continue
                seq = loops[li].passages
                if mask >> li & 1:
                    seq = seq[::-1]
                for rot in range(max(1, len(seq))):
                    new: dict[int, int] = {}
                    toks = list(head)
                    for p in seq[rot:] + seq[:rot]:
                        cid = p.crossing
                        n = number.get(cid) or new.setdefault(
                            cid, len(number) + len(new) + 1)
                        toks.append(f"{p.role}{n}{marks[cid]}")
                    text = " ".join(toks + surgeries[li] + [";"])
                    if best_text is None or text < best_text:
                        best_text, grown = text, []
                    if text == best_text:
                        grown.append((used + (li,), mask, marks,
                                      {**number, **new} if new else number))
        parts.append(best_text)
        beam = grown

    parts.append("}")
    n_rev = min(mask.bit_count() for _, mask, _, _ in beam)
    return CanonicalForm(" ".join(parts), -1 if n_rev % 2 else 1)
