"""Welded Gauss-code diagrams of twins and ribbon 2-knots.

A diagram is a set of components threaded through signed classical
crossings.  Twin diagrams have two open arcs sharing their endpoints
(the two intersection points of the twin, conventionally oriented from
the positive marker to the negative one) plus any number of torus loop
components.  2-knot diagrams have a single open arc.  Virtual crossings
are never recorded: the welded equivalence class is carried by the
classical-crossing code alone, which makes the virtual moves identities.

Text format (whitespace-insensitive, ``#`` starts a comment):

    file      := block
    block     := ("twin" | "knot") "{" component* "}"
    component := ("arc" | "loop") LABEL ":" passage* surgery? ";"
    passage   := ("O" | "U") INT ("+" | "-")
    surgery   := "(" INT "," INT "/" INT ")"
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import NamedTuple

OVER = "O"
UNDER = "U"

TWIN_ARC = "twin_arc"
KNOT_ARC = "knot_arc"
LOOP = "loop"

TWIN = "twin"
TWO_KNOT = "two_knot"

#: Surgery label carried by loops created by smoothing: (gamma, beta/alpha) = (0, 0/1).
DEFAULT_SURGERY = (0, 0, 1)


class DiagramError(ValueError):
    pass


class ParseError(DiagramError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ValueEq:
    """Equality of two instances of one class by their attributes.  Such
    objects are unhashable."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class Passage(NamedTuple):
    """One trip of a strand through a classical crossing."""

    crossing: int
    role: str  # OVER or UNDER

    def flipped(self) -> "Passage":
        return Passage(self.crossing, UNDER if self.role == OVER else OVER)

    def token(self, sign: int) -> str:
        return f"{self.role}{self.crossing}{'+' if sign > 0 else '-'}"


class Component(NamedTuple):
    """An arc (open, read start to end) or a loop (cyclic, read modulo rotation)."""

    kind: str
    label: str
    passages: tuple[Passage, ...] = ()
    surgery: tuple[int, int, int] | None = None  # (gamma, beta, alpha); loops only

    @property
    def is_arc(self) -> bool:
        return self.kind in (TWIN_ARC, KNOT_ARC)

    @property
    def is_loop(self) -> bool:
        return self.kind == LOOP


class Diagram(namedtuple("Diagram", "mode components crossings")):
    """A welded Gauss-code presentation of a twin or a ribbon 2-knot.

    Unlike the other records it is unhashable (``crossings`` is a dict) and
    keeps a ``__dict__``, where ``slot_index`` caches its index."""

    mode: str
    components: tuple[Component, ...]
    crossings: dict[int, int]  # id -> +1 / -1

    __hash__ = None  # type: ignore[assignment]

    # -- helpers -------------------------------------------------------

    def loops(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.is_loop)

    def component(self, label: str) -> Component:
        return self.components[self.component_index(label)]

    def component_index(self, label: str) -> int:
        for i, c in enumerate(self.components):
            if c.label == label:
                return i
        raise DiagramError(f"no component labelled {label!r}")

    def slot_index(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Crossing id -> its (component index, position) slots in scan
        order; crossings without passages are absent.  Built on first use
        and shared by every later call on this diagram: read it, never
        mutate it.  It depends only on ``components``, which never change,
        so it cannot go stale."""
        index = self.__dict__.get("_slot_index")
        if index is None:
            index = self.__dict__["_slot_index"] = _build_slot_index(self)
        return index


def _build_slot_index(d: Diagram) -> dict[int, tuple[tuple[int, int], ...]]:
    slots: dict[int, list[tuple[int, int]]] = {}
    for ci, comp in enumerate(d.components):
        for pi, p in enumerate(comp.passages):
            slots.setdefault(p.crossing, []).append((ci, pi))
    return {cid: tuple(s) for cid, s in slots.items()}


class Violation(NamedTuple):
    code: str
    message: str
    location: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    for ln, line in enumerate(text.splitlines(), start=1):
        i = 0
        while i < len(line):
            ch = line[i]
            if ch == "#":
                break
            if ch.isspace():
                i += 1
                continue
            if ch in "{}();:,/":
                tokens.append((ch, ln, i + 1))
                i += 1
                continue
            if ch in "+-":
                tokens.append((ch, ln, i + 1))
                i += 1
                continue
            if ch.isalnum() or ch == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append((line[i:j], ln, i + 1))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", ln, i + 1)
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def where(self) -> tuple[int, int]:
        if self.pos < len(self.tokens):
            _, ln, col = self.tokens[self.pos]
            return ln, col
        if self.tokens:
            _, ln, col = self.tokens[-1]
            return ln, col
        return 1, 1

    def take(self, expected: str | None = None) -> str:
        if self.pos >= len(self.tokens):
            ln, col = self.where()
            raise ParseError(
                f"unexpected end of input (wanted {expected!r})" if expected
                else "unexpected end of input", ln, col)
        tok, ln, col = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", ln, col)
        self.pos += 1
        return tok


def parse(text: str, strict: bool = True) -> Diagram:
    """Parse the text format into a Diagram.

    Raises ParseError (with line and column) on syntax errors and
    DiagramError on semantic ones: a crossing id must occur exactly twice,
    once over and once under, with matching sign tokens.  With
    ``strict=False`` the semantic checks are left to ``validate`` and a
    structurally questionable diagram may be returned for inspection; a
    crossing with conflicting sign tokens gets sign 0, which ``validate``
    reports as a ``crossing-sign`` violation.
    """
    ts = _TokenStream(_tokenize(text))
    head = ts.take()
    if head == TWIN:
        mode = TWIN
    elif head == "knot":
        mode = TWO_KNOT
    else:
        ln, col = ts.where()
        raise ParseError(f"expected 'twin' or 'knot', found {head!r}", ln, col)
    ts.take("{")

    components: list[Component] = []
    signs: dict[int, int] = {}

    while ts.peek() != "}":
        kw = ts.take()
        if kw == "arc":
            kind = TWIN_ARC if mode == TWIN else KNOT_ARC
        elif kw == "loop":
            kind = LOOP
        else:
            ln, col = ts.where()
            raise ParseError(f"expected 'arc' or 'loop', found {kw!r}", ln, col)
        label = ts.take()
        if label in {c.label for c in components}:
            ln, col = ts.where()
            raise ParseError(f"duplicate component label {label!r}", ln, col)
        ts.take(":")

        passages: list[Passage] = []
        surgery: tuple[int, int, int] | None = None
        while ts.peek() not in (";", None):
            tok = ts.peek()
            if tok == "(":
                ts.take("(")
                gamma = _int_token(ts)
                ts.take(",")
                beta = _int_token(ts)
                ts.take("/")
                alpha = _int_token(ts)
                ts.take(")")
                surgery = (gamma, beta, alpha)
                break
            ln, col = ts.where()
            word = ts.take()
            if len(word) < 2 or word[0] not in (OVER, UNDER) or not word[1:].isdecimal():
                raise ParseError(f"bad passage token {word!r}", ln, col)
            role, cid = word[0], int(word[1:])
            sign_tok = ts.take()
            if sign_tok not in "+-":
                ln2, col2 = ts.where()
                raise ParseError(f"passage {word!r} lacks a sign token", ln2, col2)
            sign = 1 if sign_tok == "+" else -1
            if cid in signs and signs[cid] != sign:
                if strict:
                    raise DiagramError(
                        f"crossing {cid} carries conflicting sign tokens")
                sign = 0
            signs[cid] = sign
            passages.append(Passage(cid, role))
        ts.take(";")
        components.append(Component(kind, label, tuple(passages), surgery))

    ts.take("}")
    if ts.peek() is not None:
        ln, col = ts.where()
        raise ParseError(f"trailing input {ts.peek()!r}", ln, col)

    d = Diagram(mode, tuple(components), dict(signs))
    if strict:
        report = validate(d)
        if not report.ok:
            raise DiagramError("; ".join(
                f"{v.code}: {v.message}" for v in report.violations))
    return d


def _int_token(ts: _TokenStream) -> int:
    neg = False
    if ts.peek() == "-":
        ts.take("-")
        neg = True
    ln, col = ts.where()
    tok = ts.take()
    if not tok.isdecimal():
        raise ParseError(f"expected integer, found {tok!r}", ln, col)
    return -int(tok) if neg else int(tok)


# ---------------------------------------------------------------------------
# normal form and serialization
# ---------------------------------------------------------------------------


def walk_order(d: Diagram) -> list[Component]:
    """The components in reading order: the arcs, then the loops, each by
    label."""
    arcs = sorted((c for c in d.components if c.is_arc), key=lambda c: c.label)
    loops = sorted((c for c in d.components if c.is_loop), key=lambda c: c.label)
    return arcs + loops


def surgery_text(surgery: tuple[int, int, int]) -> str:
    """The text form ``(gamma, beta/alpha)`` of a surgery label."""
    g, b, a = surgery
    return f"({g}, {b}/{a})"


def normalize(d: Diagram) -> Diagram:
    """Put the components in walk order and renumber crossings 1..n in
    first-appearance order."""
    comps = tuple(walk_order(d))
    renum: dict[int, int] = {}
    for comp in comps:
        for p in comp.passages:
            if p.crossing not in renum:
                renum[p.crossing] = len(renum) + 1
    new_comps = tuple(
        Component(c.kind, c.label,
                  tuple(Passage(renum[p.crossing], p.role) for p in c.passages),
                  c.surgery)
        for c in comps)
    new_crossings = {renum[cid]: s for cid, s in d.crossings.items() if cid in renum}
    # Crossings with no passages cannot survive renumbering; drop them.
    return Diagram(d.mode, new_comps, new_crossings)


def serialize(d: Diagram) -> str:
    """Deterministic single-line text of the normal form."""
    nd = normalize(d)
    parts = [TWIN if nd.mode == TWIN else "knot", "{"]
    for comp in nd.components:
        kw = "loop" if comp.is_loop else "arc"
        parts.append(kw)
        parts.append(f"{comp.label}:")
        for p in comp.passages:
            parts.append(p.token(nd.crossings[p.crossing]))
        if comp.surgery is not None:
            parts.append(surgery_text(comp.surgery))
        parts.append(";")
    parts.append("}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(d: Diagram) -> ValidationReport:
    """Check every Diagram invariant; the report is empty iff the diagram is valid."""
    violations: list[Violation] = []

    twin_arcs = [c for c in d.components if c.kind == TWIN_ARC]
    knot_arcs = [c for c in d.components if c.kind == KNOT_ARC]
    if d.mode == TWIN:
        if len(twin_arcs) != 2 or knot_arcs:
            violations.append(Violation(
                "mode-arcs",
                f"twin mode requires exactly two twin arcs and no knot arcs "
                f"(found {len(twin_arcs)} twin, {len(knot_arcs)} knot)",
                "diagram"))
    elif d.mode == TWO_KNOT:
        if len(knot_arcs) != 1 or twin_arcs:
            violations.append(Violation(
                "mode-arcs",
                f"two_knot mode requires exactly one knot arc and no twin arcs "
                f"(found {len(knot_arcs)} knot, {len(twin_arcs)} twin)",
                "diagram"))
    else:
        violations.append(Violation("mode-arcs", f"unknown mode {d.mode!r}", "diagram"))

    roles: dict[int, list[tuple[str, str, int]]] = {}
    for c in d.components:
        if c.surgery is not None and not c.is_loop:
            violations.append(Violation(
                "surgery-on-arc",
                f"surgery metadata is only permitted on loops",
                c.label))
        for i, p in enumerate(c.passages):
            if p.crossing not in d.crossings:
                violations.append(Violation(
                    "unknown-crossing",
                    f"passage references crossing {p.crossing} absent from the "
                    f"crossing map",
                    f"{c.label}[{i}]"))
            roles.setdefault(p.crossing, []).append((p.role, c.label, i))

    for cid, sign in sorted(d.crossings.items()):
        if sign not in (1, -1):
            violations.append(Violation(
                "crossing-sign",
                f"crossing {cid} has sign {sign}; a sign is +1 or -1",
                f"crossing {cid}"))
        occ = roles.get(cid, [])
        if sorted(r for r, _, _ in occ) != [OVER, UNDER]:
            where = ", ".join(f"{lab}[{i}]" for _, lab, i in occ) or "nowhere"
            violations.append(Violation(
                "role-pairing",
                f"crossing {cid} must appear exactly once over and once under "
                f"(found {len(occ)} passages)",
                where))

    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

ARC_SELF = "arc_self"
ARC_ARC = "arc_arc"
ARC_LOOP = "arc_loop"
LOOP_SELF = "loop_self"
LOOP_LOOP = "loop_loop"


def classify_crossing(d: Diagram, crossing: int) -> str:
    """Category of a crossing by the component kinds of its two passages."""
    slots = d.slot_index().get(crossing, ())
    if crossing not in d.crossings or len(slots) != 2:
        raise DiagramError(f"unknown crossing id {crossing}")
    (ci1, _), (ci2, _) = slots
    c1, c2 = d.components[ci1], d.components[ci2]
    arcs = c1.is_arc + c2.is_arc
    if arcs == 2:
        return ARC_SELF if ci1 == ci2 else ARC_ARC
    if arcs == 1:
        return ARC_LOOP
    return LOOP_SELF if ci1 == ci2 else LOOP_LOOP


def met_once(comp: Component) -> list[int]:
    """The crossings the component passes exactly once, in order of passage:
    the crossings whose sign a reversal of the component flips."""
    met: dict[int, int] = {}
    for p in comp.passages:
        met[p.crossing] = met.get(p.crossing, 0) + 1
    return [cid for cid, n in met.items() if n == 1]


def reverse_component(d: Diagram, label: str) -> Diagram:
    """Reverse one component's orientation.

    The passage sequence is reversed and every crossing met exactly once by
    this component flips sign; crossings with both passages on it keep theirs.
    """
    idx = d.component_index(label)
    comp = d.components[idx]
    new_signs = dict(d.crossings)
    for cid in met_once(comp):
        new_signs[cid] = -new_signs[cid]
    new_comp = Component(comp.kind, comp.label, tuple(reversed(comp.passages)),
                         comp.surgery)
    comps = d.components[:idx] + (new_comp,) + d.components[idx + 1:]
    return Diagram(d.mode, comps, new_signs)


def rotate_loop(d: Diagram, label: str, offset: int) -> Diagram:
    """Rotate a loop's cyclic passage sequence (a representation change only)."""
    idx = d.component_index(label)
    comp = d.components[idx]
    if not comp.is_loop:
        raise DiagramError(f"component {label!r} is not a loop")
    n = len(comp.passages)
    if n:
        offset %= n
        rotated = comp.passages[offset:] + comp.passages[:offset]
    else:
        rotated = comp.passages
    new_comp = Component(comp.kind, comp.label, rotated, comp.surgery)
    comps = d.components[:idx] + (new_comp,) + d.components[idx + 1:]
    return Diagram(d.mode, comps, dict(d.crossings))


# ---------------------------------------------------------------------------
# random diagrams
# ---------------------------------------------------------------------------


def random_diagram(rng: random.Random, max_crossings: int = 5,
                   mode: str = TWIN, n_loops: int | None = None,
                   two_arcs: bool = False) -> Diagram:
    """A random valid diagram: both passages of each crossing are thrown
    into random slots of random components.  Every such code is a valid
    welded diagram, since all Gauss codes are virtually realizable.

    Passages favour the first arc four to one over each other component,
    so loops stay light; with ``two_arcs`` (twin mode only) every component
    is equally likely.  Loops left empty are dropped, so splitness is not
    built in."""
    k = rng.randint(0, max_crossings)
    if n_loops is None:
        n_loops = rng.randint(0, 2)
    passages = []
    signs = {}
    for cid in range(1, k + 1):
        signs[cid] = rng.choice((1, -1))
        passages.append(Passage(cid, OVER))
        passages.append(Passage(cid, UNDER))
    rng.shuffle(passages)

    if mode == TWIN:
        kinds, labels = [TWIN_ARC, TWIN_ARC], ["A", "B"]
    else:
        kinds, labels = [KNOT_ARC], ["K"]
    for i in range(n_loops):
        kinds.append(LOOP)
        labels.append(f"T{i + 1}")

    buckets: list[list[Passage]] = [[] for _ in kinds]
    for p in passages:
        if two_arcs and mode == TWIN:
            buckets[rng.randrange(len(kinds))].append(p)
        else:
            idx = rng.choices(range(len(kinds)),
                              weights=[4] + [1] * (len(kinds) - 1))[0]
            buckets[idx].append(p)
    comps = tuple(Component(kind, label, tuple(bucket))
                  for kind, label, bucket in zip(kinds, labels, buckets)
                  if bucket or kind != LOOP)
    return Diagram(mode, comps, signs)
