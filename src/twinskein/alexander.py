"""Independent classical-knot oracle: the Conway polynomial by skein
recursion on closed Gauss codes, and the symmetrized Alexander polynomial.

The recursion switches crossings toward a descending diagram (walking each
component from its base point, every crossing should be met first at an
over-passage).  Descending closed diagrams are unlinks, so termination is
guaranteed: one component gives 1, more give 0.  A split link gives 0 at
once (Conway 1970).  The recursion runs on components of signed crossing
ids and does its own switch and smoothing by tuple slicing.  Its values are
invariants of classical codes only: on a welded or virtual code they can
depend on the base points.  This module never touches the twin engine; it
exists to cross-check it.
"""

from __future__ import annotations

from itertools import chain

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
_ONE, _ZERO = LaurentPoly.one(), LaurentPoly.zero()


class LinkCode(ValueEq):
    """A closed classical link code: cyclic components through signed crossings."""

    def __init__(self, components: tuple[tuple[Passage, ...], ...],
                 crossings: dict[int, int]) -> None:
        check_gauss_roles(components, crossings)
        self.components = components
        self.crossings = crossings


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


def _split(comps: tuple[tuple[int, ...], ...]) -> bool:
    """True when the components fall into two parts that share no crossing."""
    parts = [set(map(abs, comp)) for comp in comps]
    reach, rest = parts[0], parts[1:]
    while rest:
        apart = []
        for part in rest:
            if reach.isdisjoint(part):
                apart.append(part)
            else:
                reach |= part
        if len(apart) == len(rest):
            return True
        rest = apart
    return False


def _first_under(comps: tuple[tuple[int, ...], ...]) -> tuple[int, int] | None:
    """Where the walk first meets a crossing at its under-passage, as
    (component, position); None when the code is descending."""
    seen = set()
    for ci, comp in enumerate(comps):
        for pi, x in enumerate(comp):
            if x > 0:
                seen.add(x)
            elif -x not in seen:
                return ci, pi
    return None


def _nabla(comps: tuple[tuple[int, ...], ...], signs: dict[int, int],
           memo: dict) -> LaurentPoly:
    """The Conway recursion on components of signed crossing ids (+c where
    the strand passes over crossing c, -c where it passes under) and their
    sign map.  Every code it builds passes the role check: each crossing in
    the sign map is met once over and once under, and no other appears."""
    bad = _first_under(comps)
    if bad is None:
        # descending: an unlink
        return _ONE if len(comps) == 1 else _ZERO
    # neither a switch nor a smoothing joins two parts that share no
    # crossing, so every leaf below a split node has two or more components
    if len(comps) > 1 and _split(comps):
        return _ZERO
    # the memo ignores crossing labels: the n-th crossing met, with sign s,
    # is keyed 2n + (s > 0), negated at its under-passage
    renum: dict[int, int] = {}
    for n, c in enumerate(dict.fromkeys(map(abs, chain.from_iterable(comps))),
                          start=1):
        renum[c] = r = 2 * n + (signs[c] > 0)
        renum[-c] = -r
    key = tuple(tuple(map(renum.__getitem__, comp)) for comp in comps)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # the crossing is first met under at (ci, pi); its over-passage lies
    # further on, at (cj, pj)
    ci, pi = bad
    c = -comps[ci][pi]
    cj = next(j for j in range(ci, len(comps)) if c in comps[j])
    pj = comps[cj].index(c)
    a, b = comps[ci], comps[cj]
    if ci == cj:
        switched = (comps[:ci] + (a[:pi] + (c,) + a[pi + 1:pj] + (-c,)
                                  + a[pj + 1:],) + comps[ci + 1:])
        smoothed = (comps[:ci] + (a[pi + 1:pj], a[pj + 1:] + a[:pi])
                    + comps[ci + 1:])
    else:
        switched = (comps[:ci] + (a[:pi] + (c,) + a[pi + 1:],)
                    + comps[ci + 1:cj] + (b[:pj] + (-c,) + b[pj + 1:],)
                    + comps[cj + 1:])
        smoothed = (comps[:ci] + (a[:pi] + b[pj + 1:] + b[:pj] + a[pi + 1:],)
                    + comps[ci + 1:cj] + comps[cj + 1:])
    s = signs[c]
    flipped = dict(signs)
    flipped[c] = -s
    rest = dict(signs)
    del rest[c]
    branch = Z * _nabla(smoothed, rest, memo)
    value = _nabla(switched, flipped, memo) + (branch if s > 0 else -branch)
    memo[key] = value
    return value


def conway(code: LinkCode | ClassicalKnotCode) -> LaurentPoly:
    """The Conway polynomial: unknot 1, split 0, and
    ``conway(L+) - conway(L-) = z * conway(L0)``.

    The value is an invariant of classical codes only.  On a code that no
    planar diagram realizes (a welded or virtual one), the recursion's
    result can change with the base point of a component."""
    comps = ((code.passages,) if isinstance(code, ClassicalKnotCode)
             else code.components)
    # crossings become 1..n, so that no id is its own negation
    ids = {cid: i for i, cid in enumerate(code.crossings, start=1)}
    return _nabla(
        tuple(tuple(ids[p.crossing] if p.role == OVER else -ids[p.crossing]
                    for p in comp) for comp in comps),
        {ids[cid]: s for cid, s in code.crossings.items()}, {})


def alexander_at_t_squared(k: ClassicalKnotCode) -> LaurentPoly:
    """The symmetrized Alexander polynomial at t^2, directly in t:
    conway(k) evaluated at z = t - t^-1.  Like ``conway``, an invariant of
    classical codes only."""
    return conway(k).substitute(SKEIN_MULTIPLIER)
