"""The engine's node-by-node path, pinned.

Every evaluation below is run twice, without and with a trace.  The pinned
row holds the untraced run's value, the typed prefix of its unresolved
reason and its stats, and the sha256 of the traced run's JSON export, which
names every node's canonical key, the crossing chosen there and its value.
Both runs must agree on value, reason and stats: the untraced run gates its
memo lookups by fingerprint, the traced run looks up every node.
"""

import hashlib
import random
from pathlib import Path

from twinskein.constructions import (artin_spin, fixture_text, table_knot,
                                     table_names)
from twinskein.diagram import TWIN, TWO_KNOT, parse, random_diagram
from twinskein.skein import SkeinConfig, evaluate, export_trace

#: One line per evaluation: ``label<TAB>value<TAB>reason<TAB>nodes_expanded
#: <TAB>memo_hits<TAB>max_depth<TAB>trace sha256``, with ``-`` for a missing
#: value or reason.  Regenerate (only on purpose) with
#: ``PYTHONPATH=src python tests/test_engine_pins.py > tests/engine_pins.tsv``.
PINS = Path(__file__).with_name("engine_pins.tsv")

FIXTURES = ("tw_std.twin", "tw_split.twin", "tw_giller.twin",
            "tw_unknot_pair.twin", "giller_ex.knot")


def pinned_cases():
    """(label, diagram) pairs: every bundled table knot spun at every cut,
    every bundled fixture, then seeded random twins (half of them with
    both arcs equally likely) and random 2-knots with up to seven
    crossings."""
    for name in table_names():
        code = table_knot(name)
        for cut in range(max(1, len(code.passages))):
            yield f"spun {name} cut {cut}", artin_spin(code, cut)
    for name in FIXTURES:
        yield f"fixture {name}", parse(fixture_text(name))
    rng = random.Random(16)
    for i in range(300):
        yield f"twin {i}", random_diagram(rng, rng.randint(1, 7), TWIN,
                                          two_arcs=i % 2 == 1)
    for i in range(100):
        yield f"knot {i}", random_diagram(rng, rng.randint(1, 7), TWO_KNOT)


def pin_row(d) -> str:
    plain = evaluate(d)
    traced = evaluate(d, SkeinConfig(emit_trace=True))
    for field in ("value", "unresolved_reason", "stats"):
        if getattr(plain, field) != getattr(traced, field):
            raise AssertionError(f"traced and untraced runs differ in {field}")
    s = plain.stats
    value = plain.value.render() if plain.resolved else "-"
    reason = (plain.unresolved_reason.split(":")[0]
              if plain.unresolved_reason else "-")
    digest = hashlib.sha256(
        export_trace(traced, "json").encode("utf-8")).hexdigest()
    return "\t".join((value, reason, str(s.nodes_expanded), str(s.memo_hits),
                      str(s.max_depth), digest))


def test_every_evaluation_matches_its_pin():
    pinned = dict(line.split("\t", 1)
                  for line in PINS.read_text(encoding="utf-8").splitlines())
    got = {label: pin_row(d) for label, d in pinned_cases()}
    assert got.keys() == pinned.keys()
    assert [k for k in got if got[k] != pinned[k]] == []


if __name__ == "__main__":
    for label, d in pinned_cases():
        print(f"{label}\t{pin_row(d)}")
