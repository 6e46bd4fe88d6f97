"""The move layer, pinned.

Every diagram below is put to the five finders and to every move at every
place it can be pointed at: each ``apply_*`` at positions -1 to n of every
component (n the component's passage count) and at a label no component
has, and ``apply_f_move`` at every crossing and at one id no crossing has.
Its pinned row is the sha256 of all those outcomes.  An outcome is the
moved diagram as plain tuples (mode, components, sorted crossing map),
which does not go through ``serialize`` because that renumbers, or the
refusal's exception class.
"""

import hashlib
import random
from pathlib import Path

from twinskein.alexander import braid_closure, link_to_diagram
from twinskein.diagram import TWIN, TWO_KNOT, DiagramError, random_diagram
from twinskein.moves import (apply_f_move, apply_r1, apply_r2, apply_r3,
                             apply_welded_commute, find_commute_moves,
                             find_f_moves, find_r1_moves, find_r2_moves,
                             find_r3_moves)

#: One line per diagram: ``label<TAB>sha256``.  Regenerate (only on
#: purpose) with
#: ``PYTHONPATH=src python tests/test_move_pins.py > tests/move_pins.tsv``.
PINS = Path(__file__).with_name("move_pins.tsv")

FINDERS = (find_r1_moves, find_r2_moves, find_commute_moves, find_r3_moves,
           find_f_moves)
MOVES = (apply_r1, apply_r2, apply_welded_commute, apply_r3)


def pinned_cases():
    """(label, diagram) pairs: 1,000 seeded random twins and 2-knots with
    up to eight crossings and three loops (half the twins with both arcs
    equally likely), then 500 seeded closures of braids on up to four
    strands, opened into 2-knot diagrams."""
    rng = random.Random(21)
    for i in range(1000):
        mode = TWIN if i % 2 == 0 else TWO_KNOT
        yield f"random {i}", random_diagram(rng, rng.randint(0, 8), mode,
                                            n_loops=rng.randint(0, 3),
                                            two_arcs=i % 4 == 0)
    for i in range(500):
        word = [rng.choice((1, -1, 2, -2, 3, -3))
                for _ in range(rng.randint(1, 10))]
        yield f"braid {i}", link_to_diagram(braid_closure(word))


def outcome(move, d, where):
    try:
        out = move(d, where)
    except DiagramError as e:
        return type(e).__name__
    comps = tuple((c.kind, c.label, tuple(map(tuple, c.passages)), c.surgery)
                  for c in out.components)
    return (out.mode, comps, tuple(sorted(out.crossings.items())))


def pin_row(d) -> str:
    got = [find(d) for find in FINDERS]
    places = [(c.label, i) for c in d.components
              for i in range(-1, len(c.passages) + 1)] + [("?", 0)]
    got += [outcome(move, d, at) for move in MOVES for at in places]
    absent = max(d.crossings, default=0) + 1
    got += [outcome(apply_f_move, d, cid) for cid in [*d.crossings, absent]]
    return hashlib.sha256(repr(got).encode("utf-8")).hexdigest()


def test_every_move_matches_its_pin():
    pinned = dict(line.split("\t", 1)
                  for line in PINS.read_text(encoding="utf-8").splitlines())
    got = {label: pin_row(d) for label, d in pinned_cases()}
    assert got.keys() == pinned.keys()
    assert [k for k in got if got[k] != pinned[k]] == []


if __name__ == "__main__":
    for label, d in pinned_cases():
        print(f"{label}\t{pin_row(d)}")
