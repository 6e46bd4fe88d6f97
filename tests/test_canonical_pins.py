"""Canonical keys, pinned.

Each row pins one ``canonicalize`` result: the sha256 of its key and its
sign.  The diagrams are seeded random twins and 2-knots with zero to four
loops, some of them empty and some with surgery labels.  The keys and signs
of a spun pass's nodes are pinned by ``tests/engine_pins.tsv``, through the
sha256 of each traced run's JSON export.
"""

import hashlib
import random
from pathlib import Path

from twinskein.diagram import (DEFAULT_SURGERY, LOOP, TWIN, TWO_KNOT,
                               Component, random_diagram)
from twinskein.moves import canonicalize

#: One line per key: ``label<TAB>sha256 of the key<TAB>sign``.  Regenerate
#: (only on purpose) with
#: ``PYTHONPATH=src python tests/test_canonical_pins.py > tests/canonical_pins.tsv``.
PINS = Path(__file__).with_name("canonical_pins.tsv")

SURGERIES = (None, DEFAULT_SURGERY, (2, 1, 3), (-1, 1, 2))


def _random_case(rng: random.Random, i: int):
    """A seeded diagram with zero to four loops: a random diagram with up
    to three crossing-bearing loops, then empty loops up to four in all,
    and a surgery label drawn for every loop."""
    mode = TWO_KNOT if i % 6 == 5 else TWIN
    d = random_diagram(rng, rng.randint(0, 9), mode,
                       n_loops=rng.randint(0, 3), two_arcs=i % 2 == 1)
    comps = list(d.components)
    n_loops = sum(c.is_loop for c in comps)
    for k in range(rng.randint(0, 4 - n_loops)):
        comps.append(Component(LOOP, f"E{k + 1}", ()))
    rng.shuffle(comps)
    return d._replace(components=tuple(
        c._replace(surgery=rng.choice(SURGERIES)) if c.is_loop else c
        for c in comps))


def pinned_keys():
    """(label, key, sign) triples for 3,000 seeded random diagrams (every
    sixth a 2-knot)."""
    rng = random.Random(29)
    for i in range(3000):
        cf = canonicalize(_random_case(rng, i))
        yield f"random {i}", cf.key, cf.sign


def pin_row(key: str, sign: int) -> str:
    return f"{hashlib.sha256(key.encode('utf-8')).hexdigest()}\t{sign}"


def test_every_key_matches_its_pin():
    pinned = dict(line.split("\t", 1)
                  for line in PINS.read_text(encoding="utf-8").splitlines())
    got = {label: pin_row(key, sign) for label, key, sign in pinned_keys()}
    assert got.keys() == pinned.keys()
    assert [k for k in got if got[k] != pinned[k]] == []


def test_the_pins_cover_loops_empty_loops_and_surgery():
    seen = {"loops": set(), "empty": 0, "surgery": 0}
    rng = random.Random(29)
    for i in range(3000):
        d = _random_case(rng, i)
        loops = d.loops()
        seen["loops"].add(len(loops))
        seen["empty"] += any(not lp.passages for lp in loops)
        seen["surgery"] += any(lp.surgery is not None for lp in loops)
    assert seen["loops"] == {0, 1, 2, 3, 4}
    assert seen["empty"] > 500 and seen["surgery"] > 1000


if __name__ == "__main__":
    for label, key, sign in pinned_keys():
        print(f"{label}\t{pin_row(key, sign)}")
