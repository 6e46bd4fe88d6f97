"""Tests of the benchmark's own machinery: the tracer and the inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


class ScriptedClock:
    """Returns the given instants in order, one per call."""

    def __init__(self, *instants: float):
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_self_time_is_duration_minus_children():
    m = types.ModuleType("m")
    m.inner = lambda: None
    m.outer = lambda: (m.inner(), m.inner())
    # outer 0..10 holds inner 1..3 and 4..8
    tracer = Tracer(clock=ScriptedClock(0.0, 1.0, 3.0, 4.0, 8.0, 10.0))
    tracer.wrap(m, "inner", "inner")
    tracer.wrap(m, "outer", "outer")
    m.outer()
    tracer.restore()
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert summary["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}
    assert list(tracer.span_parent) == [-1, 0, 0]


def test_restore_puts_back_every_attribute():
    m = types.ModuleType("m")
    m.f = original_f = (lambda x: x + 1)

    class Base:
        def op(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    own = vars(Child)["own"]
    tracer = Tracer()
    tracer.wrap(m, "f", "f")
    tracer.wrap(Child, "own", "own")
    tracer.wrap(Child, "op", "op")  # inherited: lands in Child's dict
    assert m.f(1) == 2 and Child().op() == "base"
    assert m.f is not original_f and "op" in vars(Child)
    tracer.restore()
    assert m.f is original_f
    assert vars(Child)["own"] is own
    assert "op" not in vars(Child)
    assert len(tracer.span_start) == 2


def test_span_closes_when_the_call_raises():
    m = types.ModuleType("m")

    def boom():
        raise ValueError("boom")

    m.boom = boom
    tracer = Tracer()
    tracer.wrap(m, "boom", "boom")
    try:
        m.boom()
    except ValueError:
        pass
    tracer.restore()
    assert tracer.summary()["boom"]["calls"] == 1
    assert tracer.span_end[0] >= tracer.span_start[0]


def test_layer_wrappers_are_all_restored():
    importlib.import_module("twinskein.cli")
    mods = sys.modules
    run.smoke_check(mods)  # fills the knot-table cache before the snapshot
    names = ("twinskein.skein", "twinskein.moves", "twinskein.diagram",
             "twinskein.constructions", "twinskein.alexander",
             "twinskein.cli")
    owners = [mods[n] for n in names] + [mods["twinskein.laurent"].LaurentPoly]
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    run.install_layers(tracer, mods)
    assert any(vars(o) != b for o, b in zip(owners, before))
    run.smoke_check(mods)
    assert tracer.summary()["moves.canonicalize"]["calls"] > 0
    tracer.restore()
    for owner, was in zip(owners, before):
        now = vars(owner)
        assert now.keys() == was.keys()
        assert all(now[k] is was[k] for k in was), owner


def test_universe_is_seeded_and_matches_the_reference():
    texts = inputs.universe()
    assert texts == inputs.universe()
    assert len(set(texts)) > len(texts) // 2
    assert len(inputs.read_reference(texts)) == inputs.UNIVERSE_SIZE


def test_host_speed_scales_to_the_reference():
    ref = hostspeed.REFERENCE_S
    # three samples of the loop: 2, 3 and 1 times the reference time
    clock = ScriptedClock(0.0, 2 * ref, 1.0, 1.0 + 3 * ref, 2.0, 2.0 + ref)
    speed = hostspeed.HostSpeed(clock=clock)
    for _ in range(3):
        speed.sample()
    assert speed.reference_time() == 2 * ref
    assert speed.relative() == 0.5
    assert speed.scale(0.25) == 0.125  # a slow host's times shrink
    assert abs(speed.spent - 6 * ref) < 1e-12
