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

LABEL is read as ``\\w+``: a run of letters, digits and underscores of any
script, such as ``A٣``.  INT is a run of ASCII digits 0-9 only.  A parse
error names the line and column of the token it refuses, or of the last
token when the input ends too soon.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from operator import attrgetter, itemgetter
from typing import NamedTuple

OVER = "O"
UNDER = "U"

TWIN_ARC = "twin_arc"
KNOT_ARC = "knot_arc"
LOOP = "loop"
_ARC_KINDS = (TWIN_ARC, KNOT_ARC)

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
        return self.kind in _ARC_KINDS

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
    index: dict[int, tuple[tuple[int, int], ...]] = {}
    for ci, comp in enumerate(d.components):
        for pi, p in enumerate(comp.passages):
            cid = p.crossing
            if cid in index:
                index[cid] += ((ci, pi),)
            else:
                index[cid] = ((ci, pi),)
    return index


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


#: One token: a punctuation mark, a word, a comment, or any other non-space
#: character, which the reader refuses.  A comment runs to the end of its
#: line, wherever ``str.splitlines`` ends one.
_TOKEN = re.compile(
    r"[{}();:,/+-]|\w+|#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*|\S")
_PUNCT = frozenset("{}();:,/+-")
#: A refused character: neither space, nor a word's, nor a punctuation
#: mark, nor the ``#`` that starts a comment.  It may sit in a comment.
_STRAY = re.compile(r"[^\s\w{}();:,/+#-]")
#: A passage word: its role, then its crossing id in ASCII digits.
_PASSAGE = re.compile(r"[OU][0-9]+")


def parse(text: str, strict: bool = True) -> Diagram:
    """Parse the text format into a Diagram.

    Raises ParseError (with the line and column of the token it refuses)
    on syntax errors and DiagramError on semantic ones: a crossing id must
    occur exactly twice, once over and once under, with matching sign
    tokens.  With ``strict=False`` the semantic checks are left to
    ``validate`` and a structurally questionable diagram may be returned
    for inspection; a crossing with conflicting sign tokens gets sign 0,
    which ``validate`` reports as a ``crossing-sign`` violation.
    """
    tokens = _TOKEN.findall(text)
    if "#" in text:
        tokens = [t for t in tokens if t[0] != "#"]
    # an unexpected character is refused before any grammar rule is
    # applied; past this check every token is a punctuation mark or a word
    if _STRAY.search(text):
        for i, tok in enumerate(tokens):
            if _STRAY.fullmatch(tok):
                raise _refusal(text, tokens, i,
                               f"unexpected character {tok!r}")
    tokens.append("")  # the end of input: no token is empty

    head = tokens[0]
    if head == "twin":
        mode, arc_kind = TWIN, TWIN_ARC
    elif head == "knot":
        mode, arc_kind = TWO_KNOT, KNOT_ARC
    else:
        raise _refusal(text, tokens, 0,
                       f"expected 'twin' or 'knot', found {head!r}")
    if tokens[1] != "{":
        raise _wanted(text, tokens, 1, "{")

    components: list[Component] = []
    labels: set[str] = set()
    signs: dict[int, int] = {}
    i = 2  # the index of the next token
    while tokens[i] != "}":
        kw = tokens[i]
        if kw == "arc":
            kind = arc_kind
        elif kw == "loop":
            kind = LOOP
        else:
            raise _refusal(text, tokens, i,
                           f"expected 'arc' or 'loop', found {kw!r}")
        label = tokens[i + 1]
        if not label or label in _PUNCT:
            raise _refusal(text, tokens, i + 1,
                           f"expected a label, found {label!r}")
        if label in labels:
            raise _refusal(text, tokens, i + 1,
                           f"duplicate component label {label!r}")
        labels.add(label)
        if tokens[i + 2] != ":":
            raise _wanted(text, tokens, i + 2, ":")
        i += 3

        passages: list[Passage] = []
        surgery: tuple[int, int, int] | None = None
        word = tokens[i]
        while word and word != ";":
            if word == "(":
                gamma, i = _int_at(text, tokens, i + 1)
                if tokens[i] != ",":
                    raise _wanted(text, tokens, i, ",")
                beta, i = _int_at(text, tokens, i + 1)
                if tokens[i] != "/":
                    raise _wanted(text, tokens, i, "/")
                alpha, i = _int_at(text, tokens, i + 1)
                if tokens[i] != ")":
                    raise _wanted(text, tokens, i, ")")
                i += 1
                surgery = (gamma, beta, alpha)
                break
            if not _PASSAGE.fullmatch(word):
                raise _refusal(text, tokens, i, f"bad passage token {word!r}")
            sign_tok = tokens[i + 1]
            if sign_tok == "+":
                sign = 1
            elif sign_tok == "-":
                sign = -1
            else:
                raise _refusal(text, tokens, i + 1,
                               f"passage {word!r} lacks a sign token")
            cid = int(word[1:])
            if signs.setdefault(cid, sign) != sign:
                if strict:
                    raise DiagramError(
                        f"crossing {cid} carries conflicting sign tokens")
                signs[cid] = 0
            passages.append(Passage(cid, word[0]))
            i += 2
            word = tokens[i]
        if tokens[i] != ";":
            raise _wanted(text, tokens, i, ";")
        i += 1
        components.append(Component(kind, label, tuple(passages), surgery))

    if tokens[i + 1]:
        raise _refusal(text, tokens, i + 1,
                       f"trailing input {tokens[i + 1]!r}")

    d = Diagram(mode, tuple(components), signs)
    if strict:
        report = validate(d)
        if not report.ok:
            raise DiagramError("; ".join(
                f"{v.code}: {v.message}" for v in report.violations))
    return d


def _int_at(text: str, tokens: list[str], i: int) -> tuple[int, int]:
    """The INT, perhaps negated, that starts at token i, and the index of
    the token after it.  INT is ASCII digits only, though ``int`` also
    reads other decimal digits, such as an Arabic-Indic three."""
    neg = tokens[i] == "-"
    if neg:
        i += 1
    tok = tokens[i]
    if not (tok.isdecimal() and tok.isascii()):
        raise _refusal(text, tokens, i, f"expected integer, found {tok!r}")
    return (-int(tok) if neg else int(tok)), i + 1


def _wanted(text: str, tokens: list[str], i: int, want: str) -> ParseError:
    """A ParseError that refuses token i where the token ``want`` belongs."""
    return _refusal(text, tokens, i, f"expected {want!r}, found {tokens[i]!r}",
                    want)


def _refusal(text: str, tokens: list[str], i: int, message: str,
             wanted: str | None = None) -> ParseError:
    """A ParseError that refuses token i with the message.  If i is the
    end of input, the error says so instead, naming the wanted token if
    there is one, and is placed at the last token."""
    if not tokens[i]:
        message = (f"unexpected end of input (wanted {wanted!r})" if wanted
                   else "unexpected end of input")
        i -= 1
    if i < 0:
        return ParseError(message, 1, 1)
    start = [m.start() for m in _TOKEN.finditer(text) if m[0][0] != "#"][i]
    lines = text[:start + 1].splitlines()
    return ParseError(message, len(lines), len(lines[-1]))


# ---------------------------------------------------------------------------
# normal form and serialization
# ---------------------------------------------------------------------------


_label = attrgetter("label")


def walk_order(d: Diagram) -> list[Component]:
    """The components in reading order: the arcs, then the loops, each by
    label."""
    arcs: list[Component] = []
    loops: list[Component] = []
    for c in d.components:
        if c.kind == LOOP:
            loops.append(c)
        elif c.kind in _ARC_KINDS:
            arcs.append(c)
    arcs.sort(key=_label)
    loops.sort(key=_label)
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
    """Deterministic single-line text of the normal form.  A crossing whose
    sign is not +1 or -1 has no text, so it is refused."""
    for cid, sign in sorted(d.crossings.items()):
        if sign not in (1, -1):
            raise DiagramError(
                f"crossing {cid} has sign {sign}; a sign is +1 or -1")
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


_VALID = ValidationReport()
_SIGNS = frozenset((1, -1))
_ROLES = frozenset((OVER, UNDER))
_crossing = itemgetter(0)
_role = itemgetter(1)


def validate(d: Diagram) -> ValidationReport:
    """Check every Diagram invariant; the report is empty iff the diagram is valid."""
    # one counting pass: the arcs per kind, surgery on arcs, and every
    # passage.  With n crossings in the map, 2n distinct passages through
    # them, each over or under, meet each crossing exactly once over and
    # once under.  Only a diagram that fails this is checked rule by rule.
    n_twin = n_knot = 0
    surgery_on_arc = False
    passages: list[Passage] = []
    for c in d.components:
        kind = c.kind
        if kind == TWIN_ARC:
            n_twin += 1
        elif kind == KNOT_ARC:
            n_knot += 1
        if kind != LOOP and c.surgery is not None:
            surgery_on_arc = True
        passages += c.passages
    crossings = d.crossings
    if (not surgery_on_arc
            and (n_twin == 2 and not n_knot if d.mode == TWIN
                 else d.mode == TWO_KNOT and n_knot == 1 and not n_twin)
            and len(passages) == 2 * len(crossings)
            and len(set(passages)) == len(passages)
            and crossings.keys() >= set(map(_crossing, passages))
            and _ROLES >= set(map(_role, passages))
            and _SIGNS >= set(crossings.values())):
        return _VALID

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
    comps = d.components
    arcs = (comps[ci1].kind in _ARC_KINDS) + (comps[ci2].kind in _ARC_KINDS)
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
