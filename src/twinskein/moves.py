"""Diagram rewriting: Reidemeister moves, the welded commute move, twin
endpoint moves, simplification, split and standard-twin detection, and
canonical forms with orientation-reversal sign tracking.

The move set acts purely on Gauss codes.  Virtual crossings are not
recorded, so the virtual moves are identities; the welded commute move
(adjacent over-passages exchange) is the one extra move beyond the
classical R1/R2/R3 and the endpoint moves for twins.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .diagram import (
    Component,
    Diagram,
    DiagramError,
    LOOP,
    OVER,
    TWIN,
    TWIN_ARC,
    UNDER,
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


def _pair_walk(d: Diagram) -> Iterator[tuple]:
    """(component index, a, b, x, rx, y, ry) for each adjacent pair (a, b)
    of passages of crossings x, y in roles rx, ry, in scan order; a loop of
    two or more passages ends with its wrap pair (n - 1, 0)."""
    for ci, comp in enumerate(d.components):
        ps = comp.passages
        n = len(ps)
        if n < 2:
            continue
        x, rx = ps[0]
        for b in range(1, n):
            y, ry = ps[b]
            yield ci, b - 1, b, x, rx, y, ry
            x, rx = y, ry
        if comp.kind == LOOP:
            y, ry = ps[0]
            yield ci, n - 1, 0, x, rx, y, ry


def _partner(index: dict, cid: int, ci: int, pos: int) -> tuple[int, int]:
    """The slot in ``index`` of crossing cid's passage other than (ci, pos);
    a DiagramError where cid does not have exactly two passages."""
    try:
        first, second = index[cid]
    except ValueError:
        raise DiagramError(f"crossing {cid} must have two passages "
                           f"(found {len(index[cid])})") from None
    return second if first[0] == ci and first[1] == pos else first


def _arc_count_error(d: Diagram, found: int) -> DiagramError:
    """The error for a diagram with ``found`` arcs, not its mode's count."""
    want = "two arcs" if d.mode == TWIN else "one arc"
    return DiagramError(f"a {d.mode} diagram must have {want} (found {found})")


def _neighbor(comp: Component, pos: int, step: int) -> int | None:
    n = len(comp.passages)
    q = pos + step
    if comp.is_loop:
        return q % n if n else None
    return q if 0 <= q < n else None


def _drop_crossings(d: Diagram, cids: set[int]) -> Diagram:
    comps = tuple(
        Component(c.kind, c.label,
                  tuple([p for p in c.passages if p.crossing not in cids]),
                  c.surgery)
        for c in d.components)
    signs = dict(d.crossings)
    for cid in cids:
        signs.pop(cid, None)
    return Diagram(d.mode, comps, signs)


def _swap(d: Diagram, *swaps: tuple[int, int, int]) -> Diagram:
    """The diagram with positions i and j of component ci exchanged, for
    each (ci, i, j) in ``swaps``."""
    comps = list(d.components)
    for ci, i, j in swaps:
        comp = comps[ci]
        ps = list(comp.passages)
        ps[i], ps[j] = ps[j], ps[i]
        comps[ci] = Component(comp.kind, comp.label, tuple(ps), comp.surgery)
    return Diagram(d.mode, tuple(comps), dict(d.crossings))


# ---------------------------------------------------------------------------
# move scans
# ---------------------------------------------------------------------------
#
# The one precondition of an R1, R2, R3 or commute move is its scan below,
# and that of an F move is ``find_f_moves``: ``simplify`` takes the first
# site of the R1 and R2 scans (its round walk meets their sites in scan
# order and asks the R2 scan's own ``_bigon``) and of ``find_f_moves`` (it
# never applies R3), ``find_*`` lists every site, and ``apply_*`` refuses a
# site the scan does not yield.  Every scan, and the commute search's one
# pass for kinks and bigons, reads the adjacent pairs from ``_pair_walk``
# and a crossing's other passage from ``_partner``; ``simplify``'s round
# walk is the only scan with its own loop, which is faster there.


def _r1_pairs(d: Diagram) -> Iterator[tuple[int, int, int]]:
    """(component index, a, crossing) for each kink, an adjacent pair
    (a, a + 1) holding both passages of one crossing, in scan order."""
    for ci, a, _, x, _, y, _ in _pair_walk(d):
        if x == y:
            yield ci, a, x


def _bigon(d: Diagram, ci: int, a: int, b: int, x: int, y: int) -> bool:
    """Whether the adjacent same-role passages (ci, a) of crossing x and
    (ci, b) of crossing y bound a bigon: x and y are distinct, of opposite
    sign, and their other passages sit adjacently in reversed order.  The
    one bigon condition, which ``_r2_pairs`` and ``_round_walk`` ask of
    every same-role adjacent pair."""
    signs = d.crossings
    if x == y or signs[x] == signs[y]:
        return False
    index = d.slot_index()
    xc, xp = _partner(index, x, ci, a)
    yc, yp = _partner(index, y, ci, b)
    return xc == yc and (yp + 1 == xp or d.components[yc].kind == LOOP
                         and yp + 1 == xp + len(d.components[yc].passages))


def _r2_pairs(d: Diagram) -> Iterator[tuple[int, int, int, int]]:
    """(component index, a, x, y) for each bigon (see ``_bigon``), in scan
    order."""
    for ci, a, b, x, rx, y, ry in _pair_walk(d):
        if rx == ry and _bigon(d, ci, a, b, x, y):
            yield ci, a, x, y


def _round_walk(d: Diagram) -> tuple[tuple | None, bool]:
    """(first reduction, whether some adjacent pair is over-over), from one
    walk over each component's adjacent pairs, a loop's wrap pair included.
    The reduction is (R1, component index, a, (crossing,)) for the R1 scan's
    first kink, where the walk stops; failing that (R2, component index, a,
    (x, y)) for the R2 scan's first site; failing that None.  The over-over
    verdict covers every pair unless the walk stopped at a kink.  It runs
    every ``simplify`` round, and reading ``_pair_walk`` made the engine's
    passes about 3 % slower, so it keeps its own loop."""
    over_pair = False
    bigon = None
    for ci, comp in enumerate(d.components):
        ps = comp.passages
        n = len(ps)
        if n < 2:
            continue
        x, rx = ps[0]
        for b, (y, ry) in enumerate(
                ps[1:] + ps[:1] if comp.kind == LOOP else ps[1:], 1):
            if x == y:
                return (R1, ci, b - 1, (x,)), over_pair
            if rx == ry:
                if rx == OVER:
                    over_pair = True
                if bigon is None and _bigon(d, ci, b - 1, b % n, x, y):
                    bigon = R2, ci, b - 1, (x, y)
            x, rx = y, ry
    return bigon, over_pair


def _commute_pairs(d: Diagram) -> Iterator[tuple[int, int, int]]:
    """(component index, a, b) for each adjacent pair of over-passages, in
    scan order."""
    for ci, a, b, _, rx, _, ry in _pair_walk(d):
        if rx == ry == OVER:
            yield ci, a, b


def _r3_sites(d: Diagram) -> Iterator[tuple[int, int, tuple]]:
    """(component index, a, swaps) for each adjacent pair (a, a + 1) that
    slides across a crossing, in scan order; ``swaps`` holds the slide's
    three (component index, i, j) transpositions.

    The pair is the sliding strand's two same-role passages (crossings x
    then y).  Their partner passages must flank one passage each of a third
    crossing z, with the triangle conditions

        role(z next to partner of x) = over  iff  the z passage follows the
            partner exactly when sign(x) is positive,
        role(z next to partner of y) = under iff  the z passage follows the
            partner exactly when sign(y) is positive,
        sign(z) = sign(x) * sign(y) for an over-slide, its negative for an
            under-slide

    (derived from the oriented braid-relation variants).  All three adjacent
    pairs transpose.  The first triangle found at a pair is kept, trying
    next to each partner the passage after it, then the one before it.
    """
    comps = d.components
    signs = d.crossings
    index = d.slot_index()

    def flanks(slot: tuple[int, int], sign: int, over_when_same: bool):
        """(slot, crossing) of each passage flanking a partner's ``slot``
        that may be z's."""
        pci, pp = slot
        for delta in (+1, -1):
            q = _neighbor(comps[pci], pp, delta)
            if q is not None:
                cid, role = comps[pci].passages[q]
                same = delta == sign  # z follows the partner iff sign positive
                if (role == OVER) == (same if over_when_same else not same):
                    yield (pci, q), cid

    def triangle(ci: int, a: int, b: int, x: int, rho: str, y: int,
                 ry: str) -> tuple | None:
        if x == y or ry != rho:
            return None
        sx = _partner(index, x, ci, a)
        sy = _partner(index, y, ci, b)
        want_z_sign = signs[x] * signs[y] * (1 if rho == OVER else -1)
        for zx_slot, zx in flanks(sx, signs[x], over_when_same=True):
            for zy_slot, zy in flanks(sy, signs[y], over_when_same=False):
                if (zx == zy and zx not in (x, y)
                        and signs[zx] == want_z_sign
                        and len({(ci, a), (ci, b), sx, zx_slot,
                                 sy, zy_slot}) == 6):
                    return (ci, a, b), (*sx, zx_slot[1]), (*sy, zy_slot[1])
        return None

    for site in _pair_walk(d):
        swaps = triangle(*site)
        if swaps is not None:
            yield site[0], site[1], swaps


def _site_at(scan, d: Diagram, at: tuple[str, int]) -> tuple:
    """The site ``scan`` yields at the adjacent pair named by ``at``; the
    move's one precondition."""
    label, a = at
    ci = d.component_index(label)
    for site in scan(d):
        if site[0] == ci and site[1] == a:
            return site
    raise MoveError(f"the move does not apply at {label}[{a}]")


def _find(scan, d: Diagram) -> list[tuple[str, int]]:
    """(label, a) of every site ``scan`` yields, in scan order."""
    return [(d.components[site[0]].label, site[1]) for site in scan(d)]


# ---------------------------------------------------------------------------
# individual moves
# ---------------------------------------------------------------------------


def apply_r1(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Remove a kink: the two passages of one crossing sit adjacently on one
    component (consecutively, wrapping for loops)."""
    return _drop_crossings(d, {_site_at(_r1_pairs, d, at)[2]})


def apply_r2(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Cancel a bigon: adjacent same-role passages of two opposite-sign
    crossings whose partner passages are adjacent in reversed order."""
    return _drop_crossings(d, set(_site_at(_r2_pairs, d, at)[2:]))


def apply_welded_commute(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Exchange two consecutive over-passages on one component (the allowed
    forbidden move of the welded calculus)."""
    return _swap(d, _site_at(_commute_pairs, d, at))


def apply_r3(d: Diagram, at: tuple[str, int]) -> Diagram:
    """Slide a strand across a crossing (see ``_r3_sites``).
    Validity-preserving only; never applied by simplify."""
    return _swap(d, *_site_at(_r3_sites, d, at)[2])


def apply_f_move(d: Diagram, crossing: int) -> Diagram:
    """Slide a strand off past a twin intersection point: remove a crossing
    between the two twin arcs whose passages sit at the same endpoint marker."""
    if crossing not in find_f_moves(d):
        raise MoveError(f"crossing {crossing} does not join the two twin "
                        f"arcs at one endpoint marker")
    return _drop_crossings(d, {crossing})


# ---------------------------------------------------------------------------
# move discovery
# ---------------------------------------------------------------------------


def find_r1_moves(d: Diagram) -> list[tuple[str, int]]:
    return _find(_r1_pairs, d)


def find_r2_moves(d: Diagram) -> list[tuple[str, int]]:
    return _find(_r2_pairs, d)


def find_commute_moves(d: Diagram) -> list[tuple[str, int]]:
    return _find(_commute_pairs, d)


def find_r3_moves(d: Diagram) -> list[tuple[str, int]]:
    return _find(_r3_sites, d)


def find_f_moves(d: Diagram) -> list[int]:
    """Crossings an endpoint move removes: those whose passages are the
    first of both twin arcs (at the positive marker) or the last of both
    (at the negative one)."""
    if d.mode != TWIN:
        return []
    arcs = [c.passages for c in d.components if c.kind == TWIN_ARC]
    if len(arcs) != 2:
        raise _arc_count_error(d, len(arcs))
    a, b = arcs
    if not (a and b):
        return []
    return sorted({p.crossing for p, q in ((a[0], b[0]), (a[-1], b[-1]))
                   if p.crossing == q.crossing})


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


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


def _commuted_reduction(d: Diagram) -> tuple[str, tuple[int, ...]] | None:
    """The first reduction that welded-commute moves enable, as (kind,
    crossings); None when there is none.  Asked only when no R1, R2 or F
    move is enabled as the diagram stands, and by ``simplify`` only when
    some adjacent pair is over-over: with none, every over-run is a single
    passage, so the searches below can find only a plain kink, bigon or
    endpoint move, which the caller has already ruled out.

    Over-passages permute freely inside a maximal over-run and runs never
    merge, so reachability is decided exactly: a kink needs its over-passage
    in the run bordering its under-passage; a bigon needs an adjacent
    under-pair of opposite signs whose over-partners share a run; an
    endpoint slide needs both passages able to reach the same marker.  The
    passages that border a run are the under-passages of the mixed pairs
    whose over-passage lies in it, so one ``_pair_walk`` pass finds every
    kink and bigon.  Walking an over-passage through its run and then
    deleting it leaves the run's other passages in their order, so the
    reduction is made by dropping its crossings where they stand: the
    commutes themselves are never applied, and a loop's text may start
    elsewhere than after them.  The kink and slide searches keep the least
    crossing id among all they find, as a search in crossing order would;
    the bigon search keeps the first in scan order.
    """
    comps = d.components
    runs = [_over_runs(c) for c in comps]
    index = d.slot_index()
    signs = d.crossings
    kinks, bigon = [], None
    for ci, a, b, x, rx, y, ry in _pair_walk(d):
        if rx != ry:
            cid, pos, run = ((y, b, runs[ci][a]) if rx == OVER
                             else (x, a, runs[ci][b]))
            oc, op = _partner(index, cid, ci, pos)
            if oc == ci and runs[ci].get(op) is run:
                kinks.append(cid)
        elif rx == UNDER and bigon is None and signs[x] != signs[y]:
            fc, fp = _partner(index, x, ci, a)
            sc, sp = _partner(index, y, ci, b)
            run = runs[fc].get(fp)
            if fc == sc and run is not None and runs[fc].get(sp) is run:
                bigon = x, y
    if kinks:
        return R1, (min(kinks),)
    if bigon is not None:
        return R2, bigon

    # endpoint slides: both passages of an arc-arc crossing reach one marker
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


def simplify(d: Diagram) -> tuple[Diagram, tuple[MoveEvent, ...]]:
    """Greedy fixpoint of R1 > R2 > F, then of the reductions that welded
    commutes enable.  Deterministic; every step removes crossings, and no
    step applies a commute.

    Each round takes one reduction, the one that restarting every scan
    after each move would take.  It opens with one walk (``_round_walk``)
    that returns the R1 scan's first kink, else the R2 scan's first bigon.
    When the walk finds neither, the round takes the first endpoint move,
    else a commute-enabled reduction, asked only when the walk saw an
    over-over pair; either is placed at its first crossing's first slot.
    """
    events: list[MoveEvent] = []
    while True:
        found, over_pair = _round_walk(d)
        if found is not None:
            kind, ci, a, cids = found
        else:
            fmoves = find_f_moves(d)
            found = ((F_MOVE, (fmoves[0],)) if fmoves
                     else _commuted_reduction(d) if over_pair else None)
            if found is None:
                return d, tuple(events)
            kind, cids = found
            ci, a = d.slot_index()[cids[0]][0]
        events.append(MoveEvent(kind, cids, (d.components[ci].label, a)))
        d = _drop_crossings(d, set(cids))


# ---------------------------------------------------------------------------
# terminal-form predicates
# ---------------------------------------------------------------------------


def is_split_simplified(fixed: Diagram) -> bool:
    """True iff some component of an already simplified diagram cannot be
    reached from the arcs through shared crossings: a loop or loop cluster
    is detached from the arcs.  The verdict is a layout fact (see
    ``Diagram``), cached as ``_split``."""
    verdict = fixed.__dict__.get("_split")
    if verdict is None:
        verdict = fixed.__dict__["_split"] = _detached(fixed)
    return verdict


def _detached(fixed: Diagram) -> bool:
    """Whether some component cannot be reached from the arcs."""
    comps = fixed.components
    reached = {ci for ci, c in enumerate(comps) if c.kind != LOOP}
    if len(reached) == len(comps):
        return False
    index = fixed.slot_index()
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
        (kind, len(ps), [p.role for p in ps].count(OVER), surgery or ())
        for kind, _, ps, surgery in d.components)))


def canonicalize(d: Diagram) -> CanonicalForm:
    """Signed canonical form.

    The key is the lexicographically minimal serialization over crossing
    renumbering, loop ordering, loop rotation and loop orientation reversal
    (components are relabelled canonically so labels carry no information).
    The sign is the parity of the fewest loop reversals that reach the key.

    The key text is built straight from the passages.  Arcs come first and
    are numbered the same way under every set of loop reversals, so their
    text differs between those sets only in the sign marks, and only the
    sets with the least marks can win; with no loops there is no set to
    choose, and one numbering walk writes the key.  A set's marks are its
    positive crossings: the diagram's, changed by the crossings each
    reversed loop meets exactly once.

    A key is a sequence of parts (a passage token, a surgery text, ``;``)
    and no part is a prefix of another, so keys compare part by part.
    Each loop's text ends in its only ``;``, so the key compares loop by
    loop.  At each loop position every choice of beam entry, unused loop
    and rotation is ranked by its first part, and only the choices tied
    for the least first part have their whole text written; every choice
    whose text ties for the least is kept.  An empty loop's first part is
    ``;`` or a surgery text, both of which sort before any passage token.
    """
    arcs = sorted((c for c in d.components if c.is_arc), key=lambda c: c.label)
    arc_labels = ["A", "B"] if d.mode == TWIN else ["K"]
    if len(arcs) != len(arc_labels):
        raise _arc_count_error(d, len(arcs))
    loops = [c for c in d.components if c.is_loop]
    n_loops = len(loops)
    positive = {cid for cid, s in d.crossings.items() if s > 0}

    masks: list[tuple[int, set[int]]] = [(0, positive)]  # (mask, positive)
    if loops:
        arc_cids = [p.crossing for comp in arcs for p in comp.passages]
        # reversing a loop flips the crossings it meets exactly once
        flips = [set(met_once(lp)) for lp in loops]
        best_marks: str | None = None
        for mask in range(1 << n_loops):
            pos = positive
            for li in range(n_loops):
                if mask >> li & 1:
                    pos = pos ^ flips[li]
            arc_marks = "".join(["+" if cid in pos else "-"
                                 for cid in arc_cids])
            if best_marks is None or arc_marks < best_marks:
                best_marks, masks = arc_marks, []
            if arc_marks == best_marks:
                masks.append((mask, pos))

    pos = masks[0][1]
    arc_number: dict[int, int] = {}
    parts = [TWIN if d.mode == TWIN else "knot", "{"]
    for label, comp in zip(arc_labels, arcs):
        parts.append("arc")
        parts.append(f"{label}:")
        for p in comp.passages:
            cid = p.crossing
            n = arc_number.setdefault(cid, len(arc_number) + 1)
            parts.append(f"{p.role}{n}{'+' if cid in pos else '-'}")
        if comp.surgery is not None:
            parts.append(surgery_text(comp.surgery))
        parts.append(";")

    surgeries = [[surgery_text(lp.surgery)] if lp.surgery is not None else []
                 for lp in loops]
    # partial choices tied for the least text so far:
    # (used loops, mask, positive crossings, numbering)
    beam = [((), mask, pos, arc_number) for mask, pos in masks]
    for level in range(1, n_loops + 1):
        # every choice (entry, loop, its passages in order, rotation) whose
        # first part ties for the least
        least: str | None = None
        tied: list = []
        for entry in beam:
            used, mask, pos, number = entry
            for li in range(n_loops):
                if li in used:
                    continue
                seq = loops[li].passages
                if mask >> li & 1:
                    seq = seq[::-1]
                if not seq:
                    firsts = [(0, (surgeries[li] or [";"])[0])]
                else:
                    new_n = len(number) + 1
                    firsts = [(rot, f"{p.role}{number.get(p.crossing, new_n)}"
                                    f"{'+' if p.crossing in pos else '-'}")
                              for rot, p in enumerate(seq)]
                for rot, first in firsts:
                    if least is None or first < least:
                        least, tied = first, []
                    if first == least:
                        tied.append((entry, li, seq, rot))

        head = ["loop", f"T{level:03d}:"]
        best_text: str | None = None
        grown: list = []
        for (used, mask, pos, number), li, seq, rot in tied:
            new: dict[int, int] = {}
            toks = list(head)
            for p in seq[rot:] + seq[:rot]:
                cid = p.crossing
                n = number.get(cid) or new.setdefault(
                    cid, len(number) + len(new) + 1)
                toks.append(f"{p.role}{n}{'+' if cid in pos else '-'}")
            text = " ".join(toks + surgeries[li] + [";"])
            if best_text is None or text < best_text:
                best_text, grown = text, []
            if text == best_text:
                grown.append((used + (li,), mask, pos,
                              {**number, **new} if new else number))
        parts.append(best_text)
        beam = grown

    parts.append("}")
    n_rev = min(mask.bit_count() for _, mask, _, _ in beam)
    return CanonicalForm(" ".join(parts), -1 if n_rev % 2 else 1)
