"""The diagram reader and checker, pinned.

Every input text is read twice, strictly and not.  Its pinned row holds the
text and both outcomes: the diagram as a repr of plain tuples (mode,
components, crossing map), which does not go through ``serialize``, or the
exception's class and message and, for a ParseError, its line and column.
The inputs are the bundled fixtures, the knot-table blocks, seeded
serialized random diagrams and seeded mutations of all of them, made with
the grammar's characters, ``#``, every line break ``str.splitlines`` knows
and two digits that are not ASCII.  Seeded invalid diagrams built in code
pin ``validate``'s whole violation list.
"""

import random
import sys
from pathlib import Path

from twinskein.constructions import fixture_text
from twinskein.diagram import (LOOP, TWIN, TWO_KNOT, Diagram, DiagramError,
                               OVER, ParseError, Passage, UNDER, parse,
                               random_diagram, serialize, validate)

#: One line per case: ``parse <label><TAB>repr(text)<TAB>strict outcome
#: <TAB>non-strict outcome`` (``=`` when it equals the strict one), or
#: ``validate <label><TAB>repr(violations)``.  Regenerate (only on purpose)
#: with ``PYTHONPATH=src python tests/test_parse_pins.py > tests/parse_pins.tsv``.
PINS = Path(__file__).with_name("parse_pins.tsv")

FIXTURES = ("tw_std.twin", "tw_split.twin", "tw_giller.twin",
            "tw_unknot_pair.twin", "giller_ex.knot")

LINE_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029")
#: What a mutation inserts or writes over a character with.
MUTAGENS = (tuple("{}();:,/+-") + ("O", "U", "A", "T", "x", "_", "0", "7",
                                   " ", "#", "$", "\u0663", "\u00b2")
            + LINE_BREAKS)


def with_surgeries(rng: random.Random, d: Diagram) -> Diagram:
    """The diagram with a random surgery label on about half its loops."""
    comps = tuple(
        c._replace(surgery=(rng.randint(-3, 3), rng.randint(-3, 3),
                            rng.randint(0, 4)))
        if c.kind == LOOP and rng.random() < 0.5 else c
        for c in d.components)
    return d._replace(components=comps)


#: Characters a mutation swaps for another of the same kind, so that the
#: text still reads and the checks behind the grammar see it.
SWAPS = ("OU", "+-", "0123456789")


def mutate(rng: random.Random, text: str) -> str:
    """The text after one to three one-character insertions, overwrites,
    deletions or swaps of a role, a sign or a digit."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(MUTAGENS) + text[i:]
        elif op == 1:
            text = text[:i] + rng.choice(MUTAGENS) + text[i + 1:]
        elif op == 2:
            text = text[:i] + text[i + 1:]
        else:
            spots = [(j, kind) for j, ch in enumerate(text)
                     for kind in SWAPS if ch in kind]
            if spots:
                j, kind = rng.choice(spots)
                text = text[:j] + rng.choice(kind) + text[j + 1:]
    return text


def pinned_texts():
    """(label, text) pairs: the fixtures, the knot-table blocks, 2,000
    serialized random twins and 2-knots with surgery labels, then 3,000
    mutations of texts drawn from all of those."""
    texts = [(f"fixture {name}", fixture_text(name)) for name in FIXTURES]
    for line in fixture_text("knot_table.txt").splitlines():
        if line and not line.startswith("#"):
            name, block = line.split(" ", 1)
            texts.append((f"table {name}", block))
    rng = random.Random(17)
    for i in range(2000):
        mode = TWIN if i % 2 == 0 else TWO_KNOT
        d = random_diagram(rng, rng.randint(0, 6), mode,
                           n_loops=rng.randint(0, 3), two_arcs=i % 4 == 0)
        texts.append((f"random {i}", serialize(with_surgeries(rng, d))))
    for i in range(3000):
        _, text = rng.choice(texts)
        texts.append((f"mutant {i}", mutate(rng, text)))
    return texts


def outcome(text: str, strict: bool) -> str:
    try:
        d = parse(text, strict=strict)
    except ParseError as e:
        return repr((type(e).__name__, str(e), e.line, e.col))
    except DiagramError as e:
        return repr((type(e).__name__, str(e)))
    comps = tuple((c.kind, c.label, tuple(map(tuple, c.passages)), c.surgery)
                  for c in d.components)
    return repr((d.mode, comps, d.crossings))


def parse_row(label: str, text: str) -> str:
    strict = outcome(text, True)
    loose = outcome(text, False)
    return "\t".join((f"parse {label}", repr(text), strict,
                      "=" if loose == strict else loose))


def corrupt(rng: random.Random, d: Diagram) -> Diagram:
    """The diagram after one of ten faults that validate must name."""
    comps = list(d.components)
    signs = dict(d.crossings)
    ci = rng.randrange(len(comps))
    c = comps[ci]
    fault = rng.randrange(10)
    if fault == 0 and c.passages:  # a passage goes missing
        i = rng.randrange(len(c.passages))
        comps[ci] = c._replace(passages=c.passages[:i] + c.passages[i + 1:])
    elif fault == 1 and c.passages:  # a passage is met twice
        comps[ci] = c._replace(passages=c.passages + (rng.choice(c.passages),))
    elif fault == 2 and c.passages:  # a passage changes role, maybe to none
        i = rng.randrange(len(c.passages))
        p = c.passages[i]
        role = rng.choice((UNDER if p.role == OVER else OVER, "X"))
        comps[ci] = c._replace(passages=c.passages[:i]
                               + (Passage(p.crossing, role),)
                               + c.passages[i + 1:])
    elif fault == 3 and signs:  # a sign is not +1 or -1
        signs[rng.choice(sorted(signs))] = rng.choice((0, 2, -3))
    elif fault == 4 and signs:  # a crossing leaves the map
        del signs[rng.choice(sorted(signs))]
    elif fault == 5:  # a crossing no passage meets
        signs[len(signs) + rng.randint(1, 3)] = rng.choice((1, -1))
    elif fault == 6:  # surgery on a component that may be an arc
        comps[ci] = c._replace(surgery=(0, 0, 1))
    elif fault == 7:  # the other mode, or none
        d = d._replace(mode=rng.choice((TWIN, TWO_KNOT, "three_knot")))
    elif fault == 8:  # an arc too many, or one too few
        if rng.random() < 0.5 or len(comps) == 1:
            comps.append(comps[0]._replace(label="X", passages=()))
        else:
            del comps[0]
    else:  # a passage through a crossing absent from the map
        comps[ci] = c._replace(
            passages=c.passages + (Passage(99, rng.choice((OVER, UNDER))),))
    return d._replace(components=tuple(comps), crossings=signs)


def pinned_invalid():
    """(label, diagram) pairs: 300 seeded random diagrams, each with one to
    three faults."""
    rng = random.Random(1717)
    for i in range(300):
        mode = TWIN if i % 2 == 0 else TWO_KNOT
        d = random_diagram(rng, rng.randint(0, 5), mode,
                           n_loops=rng.randint(0, 2), two_arcs=i % 4 == 0)
        for _ in range(rng.randint(1, 3)):
            d = corrupt(rng, d)
        yield f"invalid {i}", d


def validate_row(label: str, d: Diagram) -> str:
    return "\t".join((f"validate {label}",
                      repr(tuple(map(tuple, validate(d).violations)))))


def rows():
    for label, text in pinned_texts():
        yield parse_row(label, text)
    for label, d in pinned_invalid():
        yield validate_row(label, d)


def test_every_read_and_check_matches_its_pin():
    pinned = PINS.read_text(encoding="utf-8").split("\n")[:-1]
    got = list(rows())
    assert len(got) == len(pinned)
    assert [(p, g) for p, g in zip(pinned, got) if p != g] == []


if __name__ == "__main__":
    sys.stdout.buffer.write(
        "".join(row + "\n" for row in rows()).encode("utf-8"))
