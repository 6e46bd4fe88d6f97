"""simplify, pinned.

Every diagram below is simplified, and its pinned row is the sha256 of
the simplified diagram and the exact events.  A diagram is written as
plain tuples (mode, components, sorted crossing map), which does not go
through ``serialize`` because that renumbers; an event is its plain
tuple (kind, crossings, position).  Each spun table knot at each cut is
evaluated, and its row hashes every ``simplify`` call of that
evaluation: these nodes carry the reductions that welded commutes
enable.
"""

import hashlib
import random
from pathlib import Path

import twinskein.skein as skein
from test_moves import _reduce
from twinskein.alexander import braid_closure, link_to_diagram
from twinskein.constructions import artin_spin, table_knot, table_names
from twinskein.diagram import TWIN, TWO_KNOT, parse, random_diagram
from twinskein.moves import (F_MOVE, R1, MoveEvent, find_f_moves,
                             find_r1_moves, find_r2_moves, simplify)

#: One line per case: ``label<TAB>sha256``.  Regenerate (only on purpose)
#: with ``PYTHONPATH=src python tests/test_simplify_pins.py >
#: tests/simplify_pins.tsv``.
PINS = Path(__file__).with_name("simplify_pins.tsv")


def random_cases(rng: random.Random, count: int):
    """Seeded random twins and 2-knots with up to ten crossings and three
    loops, half the twins with both arcs equally likely."""
    for i in range(count):
        mode = TWIN if i % 2 == 0 else TWO_KNOT
        yield random_diagram(rng, rng.randint(0, 10), mode,
                             n_loops=rng.randint(0, 3), two_arcs=i % 4 == 0)


def pinned_cases():
    """(label, diagram, evaluated) triples: 1,500 seeded random diagrams,
    300 seeded closures of braids on up to four strands opened into 2-knot
    diagrams, then every bundled table knot spun at every cut, whose whole
    evaluation is pinned."""
    rng = random.Random(22)
    for i, d in enumerate(random_cases(rng, 1500)):
        yield f"random {i}", d, False
    for i in range(300):
        word = [rng.choice((1, -1, 2, -2, 3, -3))
                for _ in range(rng.randint(1, 12))]
        yield f"braid {i}", link_to_diagram(braid_closure(word)), False
    for name in table_names():
        code = table_knot(name)
        for cut in range(max(1, len(code.passages))):
            yield f"spun {name} cut {cut}", artin_spin(code, cut), True


def raw(out) -> tuple:
    """A simplify result as plain tuples."""
    d, events = out
    comps = tuple((c.kind, c.label, tuple(map(tuple, c.passages)), c.surgery)
                  for c in d.components)
    return ((d.mode, comps, tuple(sorted(d.crossings.items()))),
            tuple(map(tuple, events)))


def evaluation_calls(d) -> list:
    """Every simplify call of the diagram's evaluation, as plain tuples."""
    calls = []

    def record(x):
        out = simplify(x)
        calls.append(raw(out))
        return out

    skein.simplify = record
    try:
        skein.evaluate(d)
    finally:
        skein.simplify = simplify
    return calls


def pin_row(d, evaluated: bool) -> str:
    got = evaluation_calls(d) if evaluated else raw(simplify(d))
    return hashlib.sha256(repr(got).encode("utf-8")).hexdigest()


def test_every_simplify_matches_its_pin():
    pinned = dict(line.split("\t", 1)
                  for line in PINS.read_text(encoding="utf-8").splitlines())
    got = {label: pin_row(d, evaluated)
           for label, d, evaluated in pinned_cases()}
    assert got.keys() == pinned.keys()
    assert [k for k in got if got[k] != pinned[k]] == []


class TestPhases:
    """The facts that let simplify work in phases and give the events of
    the one-step reference, which restarts its scans after every move."""

    def test_nested_kinks_drop_inside_out(self):
        d = parse("twin { arc A: O1+ O2+ U2+ U1+ ; arc B: ; }")
        assert simplify(d)[1] == (MoveEvent(R1, (2,), ("A", 1)),
                                  MoveEvent(R1, (1,), ("A", 0)))

    def test_a_loop_cancels_its_kinks_across_its_wrap(self):
        d = parse("twin { arc A: O3+ U4+ ; arc B: ; "
                  "loop T: U1+ O2- U3+ O4+ U2- O1+ ; }")
        fixed, events = simplify(d)
        assert events == (MoveEvent(R1, (1,), ("T", 5)),
                          MoveEvent(R1, (2,), ("T", 3)))
        assert [tuple(p) for p in fixed.component("T").passages] == \
            [(3, "U"), (4, "O")]

    def test_no_kink_or_bigon_right_after_an_endpoint_move(self):
        # an endpoint move drops a first (or last) passage of both arcs,
        # which makes no two passages adjacent
        checked = repeated = 0
        for d in random_cases(random.Random(2), 3000):
            last_plain_f = False
            while True:
                plain_f = not (find_r1_moves(d) or find_r2_moves(d)) \
                    and bool(find_f_moves(d))
                if last_plain_f:
                    assert not find_r1_moves(d) and not find_r2_moves(d)
                    checked += 1
                    repeated += plain_f
                red = _reduce(d)
                if red is None:
                    break
                d, event = red
                assert not plain_f or event.move_kind == F_MOVE
                last_plain_f = plain_f
        assert checked >= 100
        assert repeated >= 10


if __name__ == "__main__":
    for label, d, evaluated in pinned_cases():
        print(f"{label}\t{pin_row(d, evaluated)}")
