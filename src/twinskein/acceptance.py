"""The bundled acceptance corpus: every exit criterion as a runnable check.

Each check returns a CaseResult; the CLI corpus command prints them as a
table and the test suite asserts them one by one.  Randomized suites use a
fixed seed so runs are reproducible.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from .alexander import (
    LinkCode,
    alexander_at_t_squared,
    braid_closure,
    conway,
    diagram_to_link,
    link_to_diagram,
)
from .constructions import (ClassicalKnotCode, artin_spin, fixture_text,
                            table_knot, table_names)
from .diagram import (
    Diagram,
    parse,
    random_diagram,
    reverse_component,
    serialize,
)
from .laurent import LaurentPoly, SKEIN_MULTIPLIER
from .moves import (
    F_MOVE,
    R1,
    R2,
    R3,
    WELDED_COMMUTE,
    apply_f_move,
    apply_r1,
    apply_r2,
    apply_r3,
    apply_welded_commute,
    find_commute_moves,
    find_f_moves,
    find_r1_moves,
    find_r2_moves,
    find_r3_moves,
)
from .skein import (
    STANDARD,
    SkeinConfig,
    eligible_crossings,
    evaluate,
    smooth_crossing,
    switch_crossing,
)

GILLER_VALUE = LaurentPoly({-2: 1, 0: -1, 2: 1})

#: Randomized property suites run at least this many cases each.
PROPERTY_CASES = 200
_SEED = 0x7719

#: Wall-clock limits per criterion, in seconds.
TIME_LIMITS = {
    "standard-twin": 0.010,
    "split": 0.010,
    "tw-giller": 1.0,
    "tw-unknot-pair": 1.0,
    "giller-two-knot": 1.0,
    "fintushel-stern-sweep": 30.0,
}


class CaseResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    elapsed_ms: float


def load_fixture(name: str) -> Diagram:
    return parse(fixture_text(name))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _value_case(name: str, fixture: str, expected: LaurentPoly,
                multiplier: LaurentPoly | None = None,
                emit_trace: bool = False) -> tuple[CaseResult, object]:
    """Evaluate a fixture, under ``multiplier`` when one is given."""
    cfg = SkeinConfig(multiplier=multiplier, emit_trace=emit_trace)
    d = load_fixture(fixture)
    result, elapsed = _timed(lambda: evaluate(d, cfg))
    ok = result.resolved and result.value == expected
    detail = (result.value.render() if result.resolved
              else f"unresolved: {result.unresolved_reason}")
    limit = TIME_LIMITS.get(name)
    if ok and limit is not None and elapsed > limit:
        ok = False
        detail += f" (took {elapsed:.3f}s > {limit}s)"
    return CaseResult(name, ok, detail, elapsed * 1000), result


def check_standard_twin() -> CaseResult:
    case, _ = _value_case("standard-twin", "tw_std.twin", LaurentPoly.one())
    return case


def check_split() -> CaseResult:
    case, _ = _value_case("split", "tw_split.twin", LaurentPoly.zero())
    return case


def _leaf_contributions(node, multiplier, coeff=None):
    coeff = coeff if coeff is not None else LaurentPoly.one()
    if not node.children:
        value = node.value if node.value is not None else LaurentPoly.zero()
        yield node, coeff * value, coeff
        return
    for edge, child in node.children:
        if edge == "switch":
            yield from _leaf_contributions(child, multiplier, coeff)
        else:
            step = multiplier if node.crossing_sign > 0 else -multiplier
            yield from _leaf_contributions(child, multiplier, coeff * step)


def check_tw_giller(multiplier: LaurentPoly | None = None) -> CaseResult:
    case, result = _value_case("tw-giller", "tw_giller.twin", GILLER_VALUE,
                               multiplier, emit_trace=True)
    if not case.ok:
        return case
    leaves = result.trace.leaves()
    std = [n for n in leaves if n.terminal == STANDARD]
    torus = [n for n in leaves if n.terminal != STANDARD]
    problems = []
    if result.trace.crossing_sign != 1:
        problems.append("root crossing not positive")
    if len(leaves) != 4:
        problems.append(f"{len(leaves)} leaves")
    if len(std) != 2 or any(n.value != LaurentPoly.one() for n in std):
        problems.append("standard leaves wrong")
    if len(torus) != 2 or any("loop" not in n.key for n in torus):
        problems.append("twin-torus leaves wrong")
    cancel = LaurentPoly.zero()
    for leaf, contrib, _ in _leaf_contributions(result.trace,
                                                result.multiplier):
        if leaf.terminal != STANDARD:
            cancel = cancel + contrib
    if not cancel.is_zero():
        problems.append("twin-torus contributions do not cancel")
    if problems:
        return CaseResult(case.name, False, "; ".join(problems),
                          case.elapsed_ms)
    return CaseResult(case.name, True,
                      f"{case.detail}; 2 standard + 2 cancelling twin-torus "
                      f"leaves", case.elapsed_ms)


def check_tw_unknot_pair() -> CaseResult:
    case, result = _value_case("tw-unknot-pair", "tw_unknot_pair.twin",
                               GILLER_VALUE, emit_trace=True)
    if not case.ok:
        return case
    if result.trace.crossing_sign != -1:
        return CaseResult(case.name, False,
                          "first skein branch is not negative",
                          case.elapsed_ms)
    return CaseResult(case.name, True, f"{case.detail}; first branch negative",
                      case.elapsed_ms)


def check_giller_two_knot() -> CaseResult:
    case, _ = _value_case("giller-two-knot", "giller_ex.knot", GILLER_VALUE)
    return case


def _named_crossing_number(name: str) -> int:
    if name == "unknot":
        return 0
    return int(name.split("_")[0])


def check_fintushel_stern() -> CaseResult:
    t0 = time.perf_counter()
    failures = []
    unresolved = []
    swept = 0
    for name in table_names():
        if _named_crossing_number(name) > 7:
            continue
        k = table_knot(name)
        swept += 1
        r = evaluate(artin_spin(k))
        if not r.resolved:
            unresolved.append(name)
            continue
        if r.value != alexander_at_t_squared(k):
            failures.append(name)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= TIME_LIMITS["fintushel-stern-sweep"]
    detail = f"{swept} knots swept"
    if unresolved:
        detail += f"; unresolved (reported, not failed): {', '.join(unresolved)}"
    if failures:
        detail += f"; MISMATCH: {', '.join(failures)}"
    return CaseResult("fintushel-stern-sweep", ok, detail, elapsed * 1000)


# -- randomized property suites (criterion 7) --------------------------------


def _resolvable_stream(rng, **kwargs):
    while True:
        d = random_diagram(rng, max_crossings=4, **kwargs)
        r = evaluate(d, SkeinConfig(depth_budget=24))
        if r.resolved:
            yield d, r


def _property_case(name, runner) -> CaseResult:
    t0 = time.perf_counter()
    rng = random.Random(_SEED)
    try:
        count = runner(rng)
    except AssertionError as exc:
        return CaseResult(name, False, str(exc),
                          (time.perf_counter() - t0) * 1000)
    return CaseResult(name, True, f"{count} cases",
                      (time.perf_counter() - t0) * 1000)


def _prop_skein_identity(rng) -> int:
    """At every eligible crossing c of a resolved root where both children
    resolve: whole - switched = sign(c) * m * smoothed.  A case is a root
    with at least one such crossing."""
    roots = 0
    signs = set()
    stream = _resolvable_stream(rng)
    while roots < PROPERTY_CASES:
        d, whole = next(stream)
        checked = False
        for c in eligible_crossings(d):
            sw = evaluate(switch_crossing(d, c), SkeinConfig(depth_budget=24))
            sm = evaluate(smooth_crossing(d, c), SkeinConfig(depth_budget=24))
            if not (sw.resolved and sm.resolved):
                continue
            sign = d.crossings[c]
            term = SKEIN_MULTIPLIER * sm.value
            assert whole.value - sw.value == (term if sign > 0 else -term), \
                f"skein identity fails on {serialize(d)} at crossing {c}"
            checked = True
            signs.add(sign)
        roots += checked
    assert signs == {1, -1}, "no identity checked at a crossing of each sign"
    return roots


#: The finder and the applier of each move kind.
_MOVES = {
    R1: (find_r1_moves, apply_r1),
    R2: (find_r2_moves, apply_r2),
    WELDED_COMMUTE: (find_commute_moves, apply_welded_commute),
    R3: (find_r3_moves, apply_r3),
    F_MOVE: (find_f_moves, apply_f_move),
}


def _random_moves(rng, d: Diagram, kinds: tuple[str, ...],
                  steps: int) -> tuple[Diagram, int]:
    """Apply up to ``steps`` moves, each drawn by ``rng`` from every site
    the current diagram offers to ``kinds`` (in that order); return the
    moved diagram and the number of moves applied."""
    applied = 0
    for _ in range(steps):
        options = [(kind, site) for kind in kinds
                   for site in _MOVES[kind][0](d)]
        if not options:
            break
        kind, site = rng.choice(options)
        d = _MOVES[kind][1](d, site)
        applied += 1
    return d, applied


def _prop_move_invariance(rng) -> int:
    checked = 0
    stream = _resolvable_stream(rng)
    while checked < PROPERTY_CASES:
        d, before = next(stream)
        moved, _ = _random_moves(rng, d, (R1, R2, WELDED_COMMUTE, R3, F_MOVE),
                                 rng.randint(1, 3))
        after = evaluate(moved, SkeinConfig(depth_budget=24))
        if not after.resolved:
            continue
        assert after.value == before.value, \
            f"move invariance fails on {serialize(d)} -> {serialize(moved)}"
        checked += 1
    return checked


def _prop_symmetry(rng) -> int:
    stream = _resolvable_stream(rng, n_loops=0)
    for i in range(PROPERTY_CASES):
        d, r = next(stream)
        assert r.value.is_symmetric(), \
            f"asymmetric twin value {r.value.render()} for {serialize(d)}"
    return PROPERTY_CASES


def _prop_sign_rule(rng) -> int:
    checked = 0
    stream = _resolvable_stream(rng, n_loops=1)
    while checked < PROPERTY_CASES:
        d, r = next(stream)
        loops = d.loops()
        if not loops:
            continue
        rev = evaluate(reverse_component(d, loops[0].label),
                       SkeinConfig(depth_budget=24))
        if not rev.resolved:
            continue
        assert rev.value == -r.value, \
            f"sign rule fails on {serialize(d)}"
        checked += 1
    return checked


def _prop_memo(rng) -> int:
    stream = _resolvable_stream(rng)
    for _ in range(PROPERTY_CASES):
        d, r = next(stream)
        off = evaluate(d, SkeinConfig(use_memo=False, depth_budget=24))
        assert off.value == r.value, f"memo changes value on {serialize(d)}"
    return PROPERTY_CASES


def _prop_round_trip(rng) -> int:
    for _ in range(PROPERTY_CASES):
        d = random_diagram(rng, max_crossings=4)
        text = serialize(d)
        assert serialize(parse(text)) == text, f"round trip fails: {text}"
    return PROPERTY_CASES


def check_properties() -> list[CaseResult]:
    return [
        _property_case("prop-skein-identity", _prop_skein_identity),
        _property_case("prop-move-invariance", _prop_move_invariance),
        _property_case("prop-symmetry", _prop_symmetry),
        _property_case("prop-sign-rule", _prop_sign_rule),
        _property_case("prop-memo", _prop_memo),
        _property_case("prop-round-trip", _prop_round_trip),
    ]


def check_conway_oracle() -> CaseResult:
    t0 = time.perf_counter()
    problems = []
    if conway(ClassicalKnotCode((), {})) != LaurentPoly.one():
        problems.append("unknot")
    if conway(LinkCode(((), ()), {})) != LaurentPoly.zero():
        problems.append("split")
    if conway(table_knot("3_1")) != LaurentPoly({0: 1, 2: 1}):
        problems.append("3_1")
    if conway(table_knot("4_1")) != LaurentPoly({0: 1, 2: -1}):
        problems.append("4_1")
    rng = random.Random(_SEED)
    checked = 0
    while checked < 100:
        word = [rng.choice([1, -1, 2, -2, 3, -3])
                for _ in range(rng.randint(3, 8))]
        link = braid_closure(word)
        base = conway(link)
        moved, applied = _random_moves(rng, link_to_diagram(link),
                                       (R1, R2, R3), rng.randint(1, 4))
        if not applied:
            continue
        if conway(diagram_to_link(moved)) != base:
            problems.append(f"move sequence on braid {word}")
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    if problems:
        return CaseResult("conway-oracle", False, "; ".join(problems),
                          elapsed * 1000)
    return CaseResult("conway-oracle", True,
                      f"base cases + {checked} move sequences",
                      elapsed * 1000)


def check_negative_control() -> CaseResult:
    t0 = time.perf_counter()
    broken = check_tw_giller(multiplier=LaurentPoly.one())
    elapsed = time.perf_counter() - t0
    if broken.ok:
        return CaseResult("negative-control", False,
                          "criterion 3 still passes with multiplier 1",
                          elapsed * 1000)
    return CaseResult("negative-control", True,
                      "multiplier 1 breaks the Tw_G check", elapsed * 1000)


def run_all() -> list[CaseResult]:
    """All acceptance checks, under the default multiplier; the
    negative-control check runs the Tw_G check under another."""
    cases = [check() for check in (
        check_standard_twin, check_split, check_tw_giller,
        check_tw_unknot_pair, check_giller_two_knot)]
    cases.append(check_fintushel_stern())
    cases.extend(check_properties())
    cases.append(check_conway_oracle())
    cases.append(check_negative_control())
    return cases
