"""Builders that produce twin diagrams from classical knots and ribbon
2-knot diagrams: Artin spin, twin closure, and the connect sum with the
standard twin.  Also the bundled classical knot table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

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


@dataclass(frozen=True)
class ClassicalKnotCode:
    """A classical knot Gauss code: one closed strand through signed crossings."""

    passages: tuple[Passage, ...]
    crossings: dict[int, int]

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        check_gauss_roles((self.passages,), self.crossings)


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
    _require_two_knot(k2)
    arc = next(c for c in k2.components if c.kind == KNOT_ARC)
    comps = [Component(TWIN_ARC, "A", arc.passages),
             Component(TWIN_ARC, "B", ())]
    comps.extend(c for c in k2.components if c.is_loop)
    return Diagram(TWIN, tuple(comps), dict(k2.crossings))


def connect_sum_twin(k0: Diagram) -> Diagram:
    """Connect-sum a 2-knot with the standard twin by the doubling traversal.

    The first arc runs the 2-knot's code forward and then backward in two
    parallel copies.  Each original crossing of sign s yields four crossings:
    forward-forward and backward-backward keep s, the two mixed pairs get -s
    (exactly one strand of the pair is orientation-reversed).  Convention:
    the forward copy meets the forward transverse copy first, the backward
    copy meets the backward transverse copy first.
    """
    _require_two_knot(k0)
    if k0.loops():
        raise DiagramError("connect_sum_twin expects a loop-free 2-knot diagram")
    arc = next(c for c in k0.components if c.kind == KNOT_ARC)

    first_slot: dict[int, int] = {}
    for pos, p in enumerate(arc.passages):
        first_slot.setdefault(p.crossing, pos)
    order = sorted(first_slot, key=first_slot.get)  # type: ignore[arg-type]
    ids: dict[tuple[int, str], int] = {}
    signs: dict[int, int] = {}
    for idx, cid in enumerate(order):
        base = 4 * idx
        s = k0.crossings[cid]
        for off, tag in enumerate(("ff", "ma", "mb", "bb")):
            ids[(cid, tag)] = base + off + 1
        signs[ids[(cid, "ff")]] = s
        signs[ids[(cid, "bb")]] = s
        signs[ids[(cid, "ma")]] = -s
        signs[ids[(cid, "mb")]] = -s

    forward: list[Passage] = []
    for pos, p in enumerate(arc.passages):
        mixed = "ma" if pos == first_slot[p.crossing] else "mb"
        forward.append(Passage(ids[(p.crossing, "ff")], p.role))
        forward.append(Passage(ids[(p.crossing, mixed)], p.role))
    backward: list[Passage] = []
    for pos in range(len(arc.passages) - 1, -1, -1):
        p = arc.passages[pos]
        mixed = "mb" if pos == first_slot[p.crossing] else "ma"
        backward.append(Passage(ids[(p.crossing, "bb")], p.role))
        backward.append(Passage(ids[(p.crossing, mixed)], p.role))

    return Diagram(TWIN, (
        Component(TWIN_ARC, "A", tuple(forward + backward)),
        Component(TWIN_ARC, "B", ()),
    ), signs)


def _require_two_knot(d: Diagram) -> None:
    report = validate(d)
    if d.mode != TWO_KNOT or not report.ok:
        raise DiagramError("expected a valid two_knot diagram")


# ---------------------------------------------------------------------------
# bundled knot table
# ---------------------------------------------------------------------------

_TABLE_CACHE: dict[str, ClassicalKnotCode] | None = None
_ENTRY_RE = re.compile(r"([A-Za-z0-9_]+)\s*(knot\s*\{[^{}]*\})")


def _load_table() -> dict[str, ClassicalKnotCode]:
    global _TABLE_CACHE
    if _TABLE_CACHE is None:
        text = (resources.files("twinskein") / "fixtures" / "knot_table.txt") \
            .read_text(encoding="utf-8")
        text = "\n".join(ln for ln in text.splitlines()
                         if not ln.lstrip().startswith("#"))
        table: dict[str, ClassicalKnotCode] = {}
        for name, block in _ENTRY_RE.findall(text):
            d = parse(block)
            arc = next(c for c in d.components if c.kind == KNOT_ARC)
            table[name] = ClassicalKnotCode(arc.passages, dict(d.crossings))
        _TABLE_CACHE = table
    return _TABLE_CACHE


def table_names() -> tuple[str, ...]:
    return tuple(_load_table())


def table_knot(name: str) -> ClassicalKnotCode:
    """Look up a bundled Gauss code by knot name (e.g. ``3_1``)."""
    table = _load_table()
    if name not in table:
        known = ", ".join(table)
        raise DiagramError(f"unknown knot {name!r} (bundled: {known})")
    return table[name]
