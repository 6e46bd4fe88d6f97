"""Builders that produce twin diagrams: the Artin spin of a classical knot
and the twin closure of a ribbon 2-knot diagram.  Also the bundled classical
knot table.
"""

from __future__ import annotations

import functools
import re

from .diagram import (
    Component,
    Diagram,
    DiagramError,
    KNOT_ARC,
    OVER,
    Passage,
    TWIN,
    TWIN_ARC,
    TWO_KNOT,
    UNDER,
    ValueEq,
    parse,
    validate,
)


def check_gauss_roles(strands: tuple[tuple[Passage, ...], ...],
                      crossings: dict[int, int]) -> None:
    """Raise DiagramError unless the crossing map names exactly the crossings
    of the strands' passages, each met once over and once under."""
    roles: dict[int, list[str]] = {}
    for strand in strands:
        for p in strand:
            roles.setdefault(p.crossing, []).append(p.role)
    if set(roles) != set(crossings):
        raise DiagramError("crossing map does not match the passages")
    for cid, rs in roles.items():
        if sorted(rs) != [OVER, UNDER]:
            raise DiagramError(
                f"crossing {cid} must appear once over and once under")


class ClassicalKnotCode(ValueEq):
    """A classical knot Gauss code: one closed strand through signed crossings."""

    def __init__(self, passages: tuple[Passage, ...],
                 crossings: dict[int, int]) -> None:
        check_gauss_roles((passages,), crossings)
        self.passages = passages
        self.crossings = crossings


def artin_spin(k: ClassicalKnotCode, cut_at: int = 0) -> Diagram:
    """Spin a classical knot into a twin: the knot's code, opened at
    ``cut_at``, becomes the first arc; the second arc is crossingless."""
    n = len(k.passages)
    if not 0 <= cut_at <= n:
        raise DiagramError(f"cut position {cut_at} out of range 0..{n}")
    opened = k.passages[cut_at:] + k.passages[:cut_at]
    return Diagram(TWIN, (
        Component(TWIN_ARC, "A", opened),
        Component(TWIN_ARC, "B", ()),
    ), dict(k.crossings))


def twin_closure(k2: Diagram) -> Diagram:
    """Close a 2-knot diagram into a twin by adding a crossingless second arc
    through the endpoint markers.  Loops are carried over unchanged."""
    if k2.mode != TWO_KNOT or not validate(k2).ok:
        raise DiagramError("expected a valid two_knot diagram")
    arc = next(c for c in k2.components if c.kind == KNOT_ARC)
    comps = [Component(TWIN_ARC, "A", arc.passages),
             Component(TWIN_ARC, "B", ())]
    comps.extend(c for c in k2.components if c.is_loop)
    return Diagram(TWIN, tuple(comps), dict(k2.crossings))


def knot_code(d: Diagram) -> ClassicalKnotCode:
    """The Gauss code of a knot diagram: its one arc, with no loops."""
    if d.mode != TWO_KNOT or d.loops():
        raise DiagramError("expected a knot diagram with a single arc")
    arc = next(c for c in d.components if c.kind == KNOT_ARC)
    return ClassicalKnotCode(arc.passages, dict(d.crossings))


# ---------------------------------------------------------------------------
# bundled knot table
# ---------------------------------------------------------------------------

_ENTRY_RE = re.compile(r"([A-Za-z0-9_]+)\s*(knot\s*\{[^{}]*\})")


def fixture_text(name: str) -> str:
    """The text of a file in the bundled ``fixtures`` directory."""
    # importlib.resources imports inspect on Python 3.12 and later, so it is
    # imported here, not with the module: most commands read no fixture
    from importlib import resources
    return (resources.files("twinskein") / "fixtures" / name).read_text(
        encoding="utf-8")


@functools.cache  # the table is read once per process
def _load_table() -> dict[str, ClassicalKnotCode]:
    text = fixture_text("knot_table.txt")
    text = "\n".join(ln for ln in text.splitlines()
                     if not ln.lstrip().startswith("#"))
    table: dict[str, ClassicalKnotCode] = {}
    for name, block in _ENTRY_RE.findall(text):
        table[name] = knot_code(parse(block))
    return table


def table_names() -> tuple[str, ...]:
    return tuple(_load_table())


def table_knot(name: str) -> ClassicalKnotCode:
    """Look up a bundled Gauss code by knot name (e.g. ``3_1``)."""
    table = _load_table()
    if name not in table:
        known = ", ".join(table)
        raise DiagramError(f"unknown knot {name!r} (bundled: {known})")
    return table[name]
