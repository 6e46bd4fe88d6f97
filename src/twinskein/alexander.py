"""Independent classical-knot oracle: the Conway polynomial by skein
recursion on closed Gauss codes, and the symmetrized Alexander polynomial.

The recursion switches crossings toward a descending diagram (walking each
component from its base point, every crossing should be met first at an
over-passage).  Descending closed diagrams are unlinks, so termination is
guaranteed: one component gives 1, more give 0.  This module never touches
the twin engine; it exists to cross-check it.
"""

from __future__ import annotations

from .constructions import ClassicalKnotCode, check_gauss_roles
from .diagram import (
    Component,
    Diagram,
    DiagramError,
    KNOT_ARC,
    LOOP,
    OVER,
    Passage,
    TWO_KNOT,
    UNDER,
    ValueEq,
)
from .laurent import LaurentPoly, SKEIN_MULTIPLIER

#: The Conway skein variable z as a Laurent polynomial.
Z = LaurentPoly.var_power(1)


class LinkCode(ValueEq):
    """A closed classical link code: cyclic components through signed crossings."""

    def __init__(self, components: tuple[tuple[Passage, ...], ...],
                 crossings: dict[int, int]) -> None:
        check_gauss_roles(components, crossings)
        self.components = components
        self.crossings = crossings

    @classmethod
    def from_knot(cls, k: ClassicalKnotCode) -> "LinkCode":
        return cls((k.passages,), dict(k.crossings))


def braid_closure(word: list[int], strands: int | None = None) -> LinkCode:
    """Close a braid word into a link code.

    Letter ``i`` is the positive generator crossing position i over i+1;
    ``-i`` is its inverse.  Crossings are numbered by word position.
    """
    if strands is None:
        strands = max((abs(g) for g in word), default=1) + 1
    if any(g == 0 or abs(g) >= strands for g in word):
        raise DiagramError("braid letters must satisfy 1 <= |letter| < strands")
    strand_at = list(range(strands))  # position -> strand id
    passages: list[list[Passage]] = [[] for _ in range(strands)]
    signs: dict[int, int] = {}
    for idx, g in enumerate(word, start=1):
        i = abs(g) - 1
        top, bottom = strand_at[i], strand_at[i + 1]
        over, under = (top, bottom) if g > 0 else (bottom, top)
        passages[over].append(Passage(idx, OVER))
        passages[under].append(Passage(idx, UNDER))
        signs[idx] = 1 if g > 0 else -1
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    end_pos = {strand_at[pos]: pos for pos in range(strands)}
    seen: set[int] = set()
    comps: list[tuple[Passage, ...]] = []
    for start in range(strands):
        if start in seen:
            continue
        cycle: list[Passage] = []
        s = start
        while s not in seen:
            seen.add(s)
            cycle.extend(passages[s])
            s = end_pos[s]
        comps.append(tuple(cycle))
    return LinkCode(tuple(comps), signs)


def braid_closure_knot(word: list[int],
                       strands: int | None = None) -> ClassicalKnotCode:
    link = braid_closure(word, strands)
    if len(link.components) != 1:
        raise DiagramError(
            f"braid closure has {len(link.components)} components, not a knot")
    return ClassicalKnotCode(link.components[0], dict(link.crossings))


# ---------------------------------------------------------------------------
# conversions to and from the diagram model (used by the move-invariance tests)
# ---------------------------------------------------------------------------


def link_to_diagram(code: LinkCode) -> Diagram:
    """Open the first component into an arc; the rest become loops."""
    if not code.components:
        raise DiagramError("empty link code")
    comps = [Component(KNOT_ARC, "K", code.components[0])]
    for i, c in enumerate(code.components[1:], start=1):
        comps.append(Component(LOOP, f"T{i}", c))
    return Diagram(TWO_KNOT, tuple(comps), dict(code.crossings))


def diagram_to_link(d: Diagram) -> LinkCode:
    """Close every component of a two_knot diagram back into a link code."""
    return LinkCode(tuple(c.passages for c in d.components), dict(d.crossings))


# ---------------------------------------------------------------------------
# the Conway recursion
# ---------------------------------------------------------------------------


def _first_bad(code: LinkCode) -> int | None:
    seen: set[int] = set()
    for comp in code.components:
        for p in comp:
            if p.crossing not in seen:
                seen.add(p.crossing)
                if p.role == UNDER:
                    return p.crossing
    return None


def _switch(code: LinkCode, cid: int) -> LinkCode:
    comps = tuple(
        tuple(p.flipped() if p.crossing == cid else p for p in comp)
        for comp in code.components)
    signs = dict(code.crossings)
    signs[cid] = -signs[cid]
    return LinkCode(comps, signs)


def _smooth(code: LinkCode, cid: int) -> LinkCode:
    slots = []
    for ci, comp in enumerate(code.components):
        for pi, p in enumerate(comp):
            if p.crossing == cid:
                slots.append((ci, pi))
    (c1, i1), (c2, i2) = slots
    signs = {c: s for c, s in code.crossings.items() if c != cid}
    if c1 == c2:
        comp = code.components[c1]
        i, j = min(i1, i2), max(i1, i2)
        inner = comp[i + 1:j]
        outer = comp[j + 1:] + comp[:i]
        comps = (code.components[:c1] + (inner, outer)
                 + code.components[c1 + 1:])
        return LinkCode(comps, signs)
    if c1 > c2:
        (c1, i1), (c2, i2) = (c2, i2), (c1, i1)
    a, b = code.components[c1], code.components[c2]
    merged = a[:i1] + b[i2 + 1:] + b[:i2] + a[i1 + 1:]
    comps = tuple(
        merged if ci == c1 else comp
        for ci, comp in enumerate(code.components) if ci != c2)
    return LinkCode(comps, signs)


def _memo_key(code: LinkCode) -> str:
    renum: dict[int, int] = {}
    chunks = []
    for comp in code.components:
        toks = []
        for p in comp:
            if p.crossing not in renum:
                renum[p.crossing] = len(renum) + 1
            sign = "+" if code.crossings[p.crossing] > 0 else "-"
            toks.append(f"{p.role}{renum[p.crossing]}{sign}")
        chunks.append(" ".join(toks))
    return " | ".join(chunks)


def conway(code: LinkCode | ClassicalKnotCode) -> LaurentPoly:
    """The Conway polynomial: unknot 1, split 0, and
    ``conway(L+) - conway(L-) = z * conway(L0)``."""
    if isinstance(code, ClassicalKnotCode):
        code = LinkCode.from_knot(code)
    memo: dict[str, LaurentPoly] = {}

    def rec(c: LinkCode) -> LaurentPoly:
        bad = _first_bad(c)
        if bad is None:
            return (LaurentPoly.one() if len(c.components) == 1
                    else LaurentPoly.zero())
        key = _memo_key(c)
        hit = memo.get(key)
        if hit is not None:
            return hit
        s = c.crossings[bad]
        branch = Z * rec(_smooth(c, bad))
        value = rec(_switch(c, bad)) + (branch if s > 0 else -branch)
        memo[key] = value
        return value

    return rec(code)


def alexander_at_t_squared(k: ClassicalKnotCode) -> LaurentPoly:
    """The symmetrized Alexander polynomial at t^2, directly in t:
    conway(k) evaluated at z = t - t^-1."""
    return conway(k).substitute(SKEIN_MULTIPLIER)
