"""Diagram rewriting: Reidemeister moves, the welded commute move, twin
endpoint moves, simplification, split and standard-twin detection, and
canonical forms with orientation-reversal sign tracking.

The move set acts purely on Gauss codes.  Virtual crossings are not
recorded, so the virtual moves are identities; the welded commute move
(adjacent over-passages exchange) is the one extra move beyond the
classical R1/R2/R3 and the endpoint moves for twins.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .diagram import (
    Component,
    Diagram,
    DiagramError,
    OVER,
    Passage,
    TWIN,
    TWIN_ARC,
    UNDER,
    connected_blocks,
)

R1 = "R1"
R2 = "R2"
R3 = "R3"
WELDED_COMMUTE = "welded_commute"
F_MOVE = "F_move"


class MoveError(DiagramError):
    """The requested move's precondition is not met."""


@dataclass(frozen=True)
class MoveEvent:
    """One rewriting step, for audit trails."""

    move_kind: str
    crossings: tuple[int, ...]
    position: tuple[str, int]

    def to_json(self) -> dict:
        return {
            "move": self.move_kind,
            "crossings": list(self.crossings),
            "position": [self.position[0], self.position[1]],
        }


@dataclass(frozen=True)
class CanonicalForm:
    """Minimal serialized representative of a diagram's signed equivalence class.

    Equal diagrams up to crossing renumbering, loop reordering, loop rotation
    and loop orientation reversal share a key; the sign is the parity of loop
    reversals used to reach the representative.
    """

    key: str
    sign: int


# ---------------------------------------------------------------------------
# position helpers
# ---------------------------------------------------------------------------


def _adjacent_pairs(comp: Component) -> list[tuple[int, int]]:
    n = len(comp.passages)
    if comp.is_loop:
        if n < 2:
            return []
        return [(i, (i + 1) % n) for i in range(n)]
    return [(i, i + 1) for i in range(n - 1)]


def _pair_at(comp: Component, i: int) -> tuple[int, int]:
    """The adjacent pair of positions starting at ``i`` (wrapping on loops)."""
    n = len(comp.passages)
    if not 0 <= i < (n if comp.is_loop and n > 1 else n - 1):
        raise MoveError(f"no adjacent pair at {comp.label}[{i}]")
    return i, (i + 1) % n


def _other_slot(d: Diagram, crossing: int, not_slot: tuple[int, int]) -> tuple[int, int]:
    slots = d.passage_slots(crossing)
    for s in slots:
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


def _replace_passages(d: Diagram, ci: int, passages: tuple[Passage, ...]) -> Diagram:
    comp = d.components[ci]
    new = Component(comp.kind, comp.label, passages, comp.surgery)
    return Diagram(d.mode, d.components[:ci] + (new,) + d.components[ci + 1:],
                   dict(d.crossings))


def _swap(d: Diagram, ci: int, i: int, j: int) -> Diagram:
    ps = list(d.components[ci].passages)
    ps[i], ps[j] = ps[j], ps[i]
    return _replace_passages(d, ci, tuple(ps))


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


def apply_r2(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Cancel a bigon: adjacent same-role passages of two opposite-sign
    crossings whose partner passages are adjacent in reversed order."""
    label, i = at
    ci = d.component_index(label)
    comp = d.components[ci]
    a, b = _pair_at(comp, i)
    pa, pb = comp.passages[a], comp.passages[b]
    x, y = pa.crossing, pb.crossing
    if x == y or pa.role != pb.role:
        raise MoveError("pointed passages must share a role on distinct crossings")
    if d.crossings[x] == d.crossings[y]:
        raise MoveError("the two crossings must have opposite signs")
    sx = _other_slot(d, x, (ci, a))
    sy = _other_slot(d, y, (ci, b))
    if sx[0] != sy[0]:
        raise MoveError("partner passages lie on different components")
    pcomp = d.components[sx[0]]
    nxt = _neighbor(pcomp, sy[1], +1)
    if nxt != sx[1]:
        raise MoveError("partner passages are not adjacent in reversed order")
    return _drop_crossings(d, {x, y})


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
    slots = d.passage_slots(crossing)
    if crossing not in d.crossings or len(slots) != 2:
        raise MoveError(f"unknown crossing id {crossing}")
    (c1, p1), (c2, p2) = slots
    comp1, comp2 = d.components[c1], d.components[c2]
    if c1 == c2 or comp1.kind != "twin_arc" or comp2.kind != "twin_arc":
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


def find_r1_moves(d: Diagram) -> list[tuple[str, int]]:
    out = []
    for comp in d.components:
        for a, b in _adjacent_pairs(comp):
            if comp.passages[a].crossing == comp.passages[b].crossing:
                out.append((comp.label, a))
    return out


def _applied(d: Diagram, move: Callable[[Diagram, tuple[str, int]], Diagram]
             ) -> Iterator[tuple[Component, int, int, Diagram]]:
    """(component, a, b, result) for each adjacent pair (a, b) at which
    ``move`` applies, in scan order, trying each pair only when asked."""
    for comp in d.components:
        for a, b in _adjacent_pairs(comp):
            try:
                out = move(d, (comp.label, a))
            except MoveError:
                continue
            yield comp, a, b, out


def find_r2_moves(d: Diagram) -> list[tuple[str, int]]:
    return [(comp.label, a) for comp, a, _, _ in _applied(d, apply_r2)]


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
    return [(comp.label, a) for comp, a, _, _ in _applied(d, apply_r3)]


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


def _reduce(d: Diagram) -> tuple[Diagram, MoveEvent] | None:
    """Apply the first enabled crossing-removing move, scanning R1 then R2
    then F; None when no such move is enabled."""
    r1 = find_r1_moves(d)
    if r1:
        label, i = r1[0]
        cid = d.component(label).passages[i].crossing
        return apply_r1(d, r1[0]), MoveEvent(R1, (cid,), r1[0])
    for comp, a, b, out in _applied(d, apply_r2):
        cids = (comp.passages[a].crossing, comp.passages[b].crossing)
        return out, MoveEvent(R2, cids, (comp.label, a))
    fmoves = find_f_moves(d)
    if fmoves:
        cid = fmoves[0]
        ci, pos = d.passage_slots(cid)[0]
        return (apply_f_move(d, cid),
                MoveEvent(F_MOVE, (cid,), (d.components[ci].label, pos)))
    return None


def _over_runs(comp: Component) -> list[list[int]]:
    """Maximal stretches of consecutive over-passages, as position lists in
    run order (wrapping for loops; an all-over loop is one cyclic run)."""
    n = len(comp.passages)
    over = [p.role == OVER for p in comp.passages]
    if not any(over):
        return []
    if comp.is_loop and all(over):
        return [list(range(n))]
    runs: list[list[int]] = []
    start = 0
    if comp.is_loop:
        # begin scanning right after an under-passage so wrap runs stay whole
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


def _run_index(runs: list[list[int]], pos: int) -> int | None:
    for ri, run in enumerate(runs):
        if pos in run:
            return ri
    return None


def _shift_plan(label: str, run: list[int], src_idx: int,
                dst_idx: int) -> list[tuple[str, int]]:
    """Commute positions that walk one over-passage from run index src to dst."""
    plan = []
    i = src_idx
    while i < dst_idx:
        plan.append((label, run[i]))
        i += 1
    while i > dst_idx:
        plan.append((label, run[i - 1]))
        i -= 1
    return plan


def _arrange_pair_plan(label: str, run: list[int], first_idx: int,
                       second_idx: int) -> list[tuple[str, int]]:
    """Commutes making the passage at run index first_idx immediately precede
    the one at second_idx (both stay inside the run)."""
    if first_idx < second_idx:
        return _shift_plan(label, run, first_idx, second_idx - 1)
    # walk the intended first element left past the other
    return _shift_plan(label, run, first_idx, second_idx)


def _commute_search(d: Diagram) -> list[tuple[str, int]] | None:
    """A sequence of welded-commute moves after which a reduction fires.

    Over-passages permute freely inside a maximal over-run and runs never
    merge, so reachability is decided exactly: a kink needs its over-passage
    in the run bordering its under-passage; a bigon needs an adjacent
    under-pair of opposite signs whose over-partners share a run; an
    endpoint slide needs both passages able to reach the same marker.
    """
    runs_by_comp = {c.label: _over_runs(c) for c in d.components}

    # kinks: bring O_c to the edge of a run bordering U_c
    for cid in sorted(d.crossings):
        slots = d.passage_slots(cid)
        if len(slots) != 2 or slots[0][0] != slots[1][0]:
            continue
        ci = slots[0][0]
        comp = d.components[ci]
        n = len(comp.passages)
        (p1, p2) = (slots[0][1], slots[1][1])
        if comp.passages[p1].role == OVER:
            op, up = p1, p2
        else:
            op, up = p2, p1
        runs = runs_by_comp[comp.label]
        ri = _run_index(runs, op)
        if ri is None:
            continue
        run = runs[ri]
        src = run.index(op)
        after_end = (run[-1] + 1) % n if comp.is_loop else run[-1] + 1
        before_start = (run[0] - 1) % n if comp.is_loop else run[0] - 1
        if after_end == up and after_end < n:
            plan = _shift_plan(comp.label, run, src, len(run) - 1)
        elif 0 <= before_start == up:
            plan = _shift_plan(comp.label, run, src, 0)
        else:
            continue
        if plan:
            return plan

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
            ocomp = d.components[of_ci]
            runs = runs_by_comp[ocomp.label]
            ri = _run_index(runs, of_p)
            if ri is None or ri != _run_index(runs, os_p):
                continue
            run = runs[ri]
            plan = _arrange_pair_plan(ocomp.label, run, run.index(os_p),
                                      run.index(of_p))
            if plan:
                return plan

    # endpoint slides: both passages of an arc-arc crossing reach one marker
    if d.mode == TWIN:
        for cid in sorted(d.crossings):
            slots = d.passage_slots(cid)
            if len(slots) != 2:
                continue
            (c1, p1), (c2, p2) = slots
            comp1, comp2 = d.components[c1], d.components[c2]
            if c1 == c2 or comp1.kind != "twin_arc" or comp2.kind != "twin_arc":
                continue

            def reach(comp: Component, pos: int, target: int
                      ) -> list[tuple[str, int]] | None:
                if pos == target:
                    return []
                if comp.passages[pos].role != OVER:
                    return None
                runs = runs_by_comp[comp.label]
                ri = _run_index(runs, pos)
                if ri is None or target not in runs[ri]:
                    return None
                run = runs[ri]
                return _shift_plan(comp.label, run, run.index(pos),
                                   run.index(target))

            for t1, t2 in ((0, 0), (len(comp1.passages) - 1,
                                    len(comp2.passages) - 1)):
                plan1 = reach(comp1, p1, t1)
                plan2 = reach(comp2, p2, t2)
                if plan1 is not None and plan2 is not None and (plan1 or plan2):
                    return plan1 + plan2
    return None


def simplify(d: Diagram) -> tuple[Diagram, tuple[MoveEvent, ...]]:
    """Greedy fixpoint of R1 > R2 > F, with welded-commute searches that
    enable them.  Deterministic; never increases crossing count; the
    commutes spent per reduction round are bounded by the component length.
    """
    events: list[MoveEvent] = []
    while True:
        red = _reduce(d)
        if red is None:
            path = _commute_search(d)
            if path is None:
                break
            for pos in path:
                comp = d.component(pos[0])
                a, b = _pair_at(comp, pos[1])
                cids = (comp.passages[a].crossing, comp.passages[b].crossing)
                d = apply_welded_commute(d, pos)
                events.append(MoveEvent(WELDED_COMMUTE, cids, pos))
            red = _reduce(d)
            if red is None:  # pragma: no cover - search promised a reduction
                break
        d, ev = red
        events.append(ev)
    return d, tuple(events)


def events_to_json(events: tuple[MoveEvent, ...]) -> list[dict]:
    return [e.to_json() for e in events]


# ---------------------------------------------------------------------------
# terminal-form predicates
# ---------------------------------------------------------------------------


def is_split_simplified(fixed: Diagram) -> bool:
    """True iff some connected block of an already simplified diagram
    contains no arc: a loop or loop cluster is detached from the arcs."""
    labels = {c.label: c for c in fixed.components}
    return any(
        not any(labels[lab].is_arc for lab in block)
        for block in connected_blocks(fixed))


def is_unit_simplified(fixed: Diagram) -> bool:
    """True iff an already simplified diagram is bare arcs: no crossings,
    no loops."""
    return not fixed.crossings and not fixed.loops()


def is_standard_twin(d: Diagram) -> bool:
    """True iff the twin simplifies to two bare arcs: no crossings, no loops."""
    if d.mode != TWIN:
        raise DiagramError("is_standard_twin requires twin mode")
    return is_unit_simplified(simplify(d)[0])


def is_split(d: Diagram) -> bool:
    """True iff, after simplification, some connected block contains no arc:
    a loop or loop cluster is detached from the arcs."""
    return is_split_simplified(simplify(d)[0])


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def _surgery_text(comp: Component) -> list[str]:
    if comp.surgery is None:
        return []
    g, b, a = comp.surgery
    return [f"({g}, {b}/{a})"]


def canonicalize(d: Diagram) -> CanonicalForm:
    """Signed canonical form.

    The key is the lexicographically minimal serialization over crossing
    renumbering, loop ordering, loop rotation and loop orientation reversal
    (components are relabelled canonically so labels carry no information).
    The sign is the parity of loop reversals used; ties prefer fewer
    reversals, then lower rotation offsets, then the earlier loop order.

    The key text is built straight from the passages.  Arcs come first and
    are numbered the same way under every set of loop reversals, so their
    text (the prefix) has one length for all of them, and only the
    reversal sets with the least prefix can win.  Each loop's text ends in
    its only ``;``, so no loop text is a proper prefix of another and the
    key compares loop by loop: the search keeps, level by level, every
    partial choice of (loop, rotation) whose text ties for the least.
    """
    arcs = sorted((c for c in d.components if c.is_arc), key=lambda c: c.label)
    arc_labels = ["A", "B"] if d.mode == TWIN else ["K"]
    loops = [c for c in d.components if c.is_loop]
    n_loops = len(loops)

    arc_number: dict[int, int] = {}
    for comp in arcs:
        for p in comp.passages:
            arc_number.setdefault(p.crossing, len(arc_number) + 1)
    # reversing a loop flips the crossings it meets exactly once
    flips = []
    for lp in loops:
        met: dict[int, int] = {}
        for p in lp.passages:
            met[p.crossing] = met.get(p.crossing, 0) + 1
        flips.append([cid for cid, n in met.items() if n == 1])

    best_prefix: str | None = None
    masks: list[tuple[int, int, dict[int, str]]] = []  # (n_rev, mask, marks)
    for mask in range(1 << n_loops):
        signs = dict(d.crossings)
        n_rev = 0
        for li in range(n_loops):
            if mask >> li & 1:
                n_rev += 1
                for cid in flips[li]:
                    signs[cid] = -signs[cid]
        marks = {cid: "+" if s > 0 else "-" for cid, s in signs.items()}
        parts = [TWIN if d.mode == TWIN else "knot", "{"]
        for label, comp in zip(arc_labels, arcs):
            parts.append("arc")
            parts.append(f"{label}:")
            parts.extend(f"{p.role}{arc_number[p.crossing]}{marks[p.crossing]}"
                         for p in comp.passages)
            parts.extend(_surgery_text(comp))
            parts.append(";")
        prefix = " ".join(parts)
        if best_prefix is None or prefix < best_prefix:
            best_prefix, masks = prefix, []
        if prefix == best_prefix:
            masks.append((n_rev, mask, marks))

    surgeries = [_surgery_text(lp) for lp in loops]
    # partial candidates: (n_rev, rots, perm, mask, marks, numbering, texts)
    beam = [(n_rev, (), (), mask, marks, arc_number, [])
            for n_rev, mask, marks in masks]
    for level in range(1, n_loops + 1):
        head = ["loop", f"T{level:03d}:"]
        best_text: str | None = None
        grown: list = []
        for n_rev, rots, perm, mask, marks, number, texts in beam:
            for li in range(n_loops):
                if li in perm:
                    continue
                seq = loops[li].passages
                if mask >> li & 1:
                    seq = seq[::-1]
                for rot in range(max(1, len(seq))):
                    new: dict[int, int] = {}
                    nxt = len(number) + 1
                    parts = list(head)
                    for p in seq[rot:] + seq[:rot]:
                        cid = p.crossing
                        num = number.get(cid) or new.get(cid)
                        if num is None:
                            num = new[cid] = nxt
                            nxt += 1
                        parts.append(f"{p.role}{num}{marks[cid]}")
                    parts.extend(surgeries[li])
                    parts.append(";")
                    text = " ".join(parts)
                    if best_text is None or text < best_text:
                        best_text, grown = text, []
                    if text == best_text:
                        grown.append((n_rev, rots + (rot,), perm + (li,),
                                      mask, marks,
                                      {**number, **new} if new else number,
                                      texts + [text]))
        beam = grown

    n_rev, _, _, _, _, _, texts = min(beam, key=lambda s: s[:3])
    key = " ".join([best_prefix, *texts, "}"])
    return CanonicalForm(key, -1 if n_rev % 2 else 1)
