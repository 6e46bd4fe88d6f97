#!/usr/bin/env python3
"""The twinskein benchmark: three workloads through the library and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root; the program is imported from ./src.  Each
workload is a closed loop with one client in one process:

  spun-sweep     every bundled table knot spun at every cut point
                 (artin_spin + evaluate), checked against the Conway oracle;
  random-welded  random welded twins passed to the program as text
                 (parse + evaluate), checked against a pinned reference file
                 and the loop-parity symmetry of twin values;
  cli-oneshot    one ``python -m twinskein.cli invariant FILE`` process per
                 call on the bundled fixtures and spun-knot files, half of
                 them with ``--trace json``; stdout and exit codes checked.

Every time reported is scaled to a reference host speed (hostspeed.py): the
host is shared and its speed swings.  The raw figures go to stderr.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see perfbench/README.md), and the spans go to
perfbench/.work/trace-<workload>.json.  ``--all`` runs every workload in its
own process, traced and untraced, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from hostspeed import HostSpeed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
FIXTURES = SRC / "twinskein" / "fixtures"

WORKLOADS = ("spun-sweep", "random-welded", "cli-oneshot")

#: Set-up runs this many times per run; setup_s is their median.
SETUP_REPEATS = 21
#: Every run takes at least this many samples, so that p95 has at least ten
#: samples beyond it.
MIN_SAMPLES = 210
#: Calls of each kind in the traced run's process probe (cli.* metrics).
PROBE_CALLS = 10
#: The bundled fixtures and their values, as the CLI prints them.
FIXTURE_VALUES = {
    "tw_std.twin": "1",
    "tw_split.twin": "0",
    "tw_giller.twin": "t^-2 - 1 + t^2",
    "tw_unknot_pair.twin": "t^-2 - 1 + t^2",
    "giller_ex.knot": "t^-2 - 1 + t^2",
}
#: Left out of cli-oneshot: its evaluation gives up after ~0.1 s of engine
#: work, which would make the workload measure the engine, not the process.
CLI_SKIPPED_KNOTS = ("8_19",)
UNRESOLVED_REASONS = ("depth-budget-exceeded", "no-eligible-crossing")
SIMPLIFY_MOVES = ("R1", "R2", "F_move", "welded_commute")
NO_WAIT = ("none: each workload is a closed loop with one client in one "
           "process, so no work ever waits in a queue")


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def import_program():
    """A fresh import of twinskein from ./src (earlier imports dropped), so
    that every set-up pays the import cost."""
    for name in [m for m in sys.modules
                 if m == "twinskein" or m.startswith("twinskein.")]:
        del sys.modules[name]
    importlib.import_module("twinskein")
    return sys.modules


def child_env() -> dict[str, str]:
    """Environment for CLI processes: the working tree's src first on the
    path, and bytecode cached under .work so no process compiles twinskein
    from source and nothing is written into src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def cli_argv(path: str, traced: bool) -> list[str]:
    argv = [sys.executable, "-m", "twinskein.cli", "invariant", path]
    return argv + ["--trace", "json"] if traced else argv


# ---------------------------------------------------------------------------
# outcomes and checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    samples: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: FAILED {what}", file=sys.stderr)


def check_engine_result(out: Outcome, label: str, result, value_ok) -> bool:
    """Count one evaluation: a value must pass ``value_ok``; an unresolved
    result must give a reason.  Returns whether the result was decided."""
    if result.value is None:
        if not result.unresolved_reason:
            out.fail(f"{label}: unresolved without a reason")
        return False
    if not value_ok(result.value):
        out.fail(f"{label}: wrong value {result.value.render()}")
    out.decided += 1
    return True


def smoke_check(mods) -> None:
    """Before any timing: the spun trefoil must evaluate to the oracle's
    value.  Touches the parser, the constructions and the oracle."""
    cons, alex, skein = (mods["twinskein.constructions"],
                         mods["twinskein.alexander"], mods["twinskein.skein"])
    trefoil = cons.table_knot("3_1")
    value = skein.evaluate(cons.artin_spin(trefoil)).value
    if value != alex.alexander_at_t_squared(trefoil):
        raise RuntimeError("spun trefoil disagrees with the Conway oracle")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SpunSweep:
    """Every table knot spun at every cut point, in a seeded order per pass;
    whole passes only, so decided_share is the same on every run."""

    def prepare(self, mods, seed: int) -> None:
        cons, alex = mods["twinskein.constructions"], mods["twinskein.alexander"]
        self.codes = {name: cons.table_knot(name) for name in cons.table_names()}
        self.oracle = {name: alex.alexander_at_t_squared(code)
                       for name, code in self.codes.items()}
        self.cases = [(name, cut) for name, code in self.codes.items()
                      for cut in range(max(1, len(code.passages)))]
        self.seed = seed

    def input_digest(self) -> str:
        return inputs.digest(self.cases)

    def measure(self, mods, seconds: float, tracer: Tracer | None,
                speed: HostSpeed) -> Outcome:
        cons, skein = mods["twinskein.constructions"], mods["twinskein.skein"]
        rng = random.Random(self.seed)
        out = Outcome()
        results = []
        clock = time.perf_counter
        t_end = clock() + seconds
        while clock() < t_end or len(out.samples) < MIN_SAMPLES:
            order = list(self.cases)
            rng.shuffle(order)
            for name, cut in order:
                speed.tick()
                if tracer is not None:
                    tracer.eval_id = out.attempted
                out.attempted += 1
                t0 = clock()
                try:
                    result = skein.evaluate(
                        cons.artin_spin(self.codes[name], cut))
                except Exception as exc:  # counted, reported, run goes on
                    out.fail(f"{name} cut {cut}: {exc!r}")
                    results.append(None)
                    continue
                out.samples.append(clock() - t0)
                results.append((name, cut, result))
        for item in results:
            if item is not None:
                name, cut, result = item
                want = self.oracle[name]
                check_engine_result(out, f"{name} cut {cut}", result,
                                    lambda value: value == want)
        return out


class RandomWelded:
    """Random welded twins from a fixed universe, in a seeded order per
    pass, evaluated with the default SkeinConfig from their text; whole
    passes only, so every run evaluates the same inputs."""

    def prepare(self, mods, seed: int) -> None:
        self.texts = inputs.universe()
        self.reference = inputs.read_reference(self.texts)
        self.seed = seed

    def input_digest(self) -> str:
        return inputs.digest(self.texts)

    def measure(self, mods, seconds: float, tracer: Tracer | None,
                speed: HostSpeed) -> Outcome:
        diagram, skein = mods["twinskein.diagram"], mods["twinskein.skein"]
        laurent = mods["twinskein.laurent"]
        rng = random.Random(self.seed)
        out = Outcome()
        results = []
        clock = time.perf_counter
        t_end = clock() + seconds
        while clock() < t_end or len(out.samples) < MIN_SAMPLES:
            order = list(range(len(self.texts)))
            rng.shuffle(order)
            for idx in order:
                speed.tick()
                if tracer is not None:
                    tracer.eval_id = out.attempted
                out.attempted += 1
                t0 = clock()
                try:
                    result = skein.evaluate(diagram.parse(self.texts[idx]))
                except Exception as exc:  # counted, reported, run goes on
                    out.fail(f"input {idx}: {exc!r}")
                    continue
                out.samples.append(clock() - t0)
                results.append((idx, result))

        newly_resolved, newly_unresolved = set(), set()
        for idx, result in results:
            text, pinned = self.texts[idx], self.reference[idx]
            odd = inputs.loop_count(text) % 2

            def value_ok(value, odd=odd, pinned=pinned):
                mirror = laurent.LaurentPoly(
                    {-e: c for e, c in value.pairs()})
                parity_ok = value == (-mirror if odd else mirror)
                return parity_ok and (pinned is None
                                      or value.render() == pinned)

            decided = check_engine_result(out, f"input {idx} {text}",
                                          result, value_ok)
            if decided and pinned is None:
                newly_resolved.add(idx)
            elif not decided and pinned is not None:
                newly_unresolved.add(idx)
        out.notes.append(f"{len(newly_resolved)} inputs resolve that the "
                         f"reference left unresolved (checked by the parity "
                         f"property only); {len(newly_unresolved)} inputs the "
                         f"reference resolved are now unresolved")
        return out


class CliOneshot:
    """One ``twinskein invariant`` process per call, on the bundled fixtures
    and spun-knot files written at set-up; half of the calls add
    ``--trace json``.  Whole rounds of the schedule only."""

    def prepare(self, mods, seed: int) -> None:
        cons, alex, diagram = (mods["twinskein.constructions"],
                               mods["twinskein.alexander"],
                               mods["twinskein.diagram"])
        rng = random.Random(seed)
        files = {str(FIXTURES / name): value
                 for name, value in FIXTURE_VALUES.items()}
        self.run_dir = WORK / f"cli-{os.getpid()}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        for name in cons.table_names():
            if name in CLI_SKIPPED_KNOTS:
                continue
            code = cons.table_knot(name)
            path = self.run_dir / f"spun_{name}.twin"
            path.write_text(diagram.serialize(cons.artin_spin(code))
                            + "\n", encoding="utf-8")
            files[str(path)] = alex.alexander_at_t_squared(code).render()
        self.expected = files
        self.schedule = [(path, traced) for path in sorted(files)
                         for traced in (False, True)]
        rng.shuffle(self.schedule)

    def input_digest(self) -> str:
        return inputs.digest(
            (Path(path).name, Path(path).read_text(encoding="utf-8"), traced)
            for path, traced in self.schedule)

    def check(self, out: Outcome, path: str, traced: bool, code: int,
              stdout: str) -> None:
        label = f"{Path(path).name}{' --trace json' if traced else ''}"
        want = self.expected[path]
        first, _, rest = stdout.partition("\n")
        if code != 0 or first != want:
            out.fail(f"{label}: exit {code}, printed {first!r}, "
                     f"expected {want!r}")
            return
        if traced:
            try:
                tree_value = json.loads(rest).get("value")
            except ValueError:
                tree_value = None
            if tree_value != want:
                out.fail(f"{label}: trace root value {tree_value!r}")
                return
        out.decided += 1

    def measure(self, mods, seconds: float, tracer: Tracer | None,
                speed: HostSpeed) -> Outcome:
        env = child_env()
        subprocess.run(cli_argv(*self.schedule[0]), cwd=ROOT, env=env,
                       capture_output=True)  # fills the bytecode cache
        out = Outcome()
        runs = []
        clock = time.perf_counter
        t_end = clock() + seconds
        while clock() < t_end or len(out.samples) < MIN_SAMPLES:
            for path, traced in self.schedule:  # whole rounds only
                speed.tick()
                out.attempted += 1
                t0 = clock()
                try:
                    proc = subprocess.run(cli_argv(path, traced), cwd=ROOT,
                                          env=env, capture_output=True,
                                          text=True, timeout=60)
                except subprocess.TimeoutExpired:
                    out.fail(f"{Path(path).name}: timed out")
                    continue
                out.samples.append(clock() - t0)
                runs.append((path, traced, proc.returncode, proc.stdout))
        for path, traced, code, stdout in runs:
            self.check(out, path, traced, code, stdout)
        if tracer is not None:
            self.replay(mods, runs, out, tracer)
        return out

    def replay(self, mods, runs, out: Outcome, tracer: Tracer) -> None:
        """Repeat every call of the run inside this process under the tracer:
        the child processes are out of its reach."""
        cli = mods["twinskein.cli"]
        for path, traced, _, _ in runs:
            tracer.eval_id = out.attempted
            out.attempted += 1
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(cli_argv(path, traced)[3:])
            except Exception as exc:  # counted, reported, run goes on
                out.fail(f"{Path(path).name} in-process: {exc!r}")
                continue
            self.check(out, path, traced, code, buf.getvalue())


WORKLOAD_CLASSES = {"spun-sweep": SpunSweep, "random-welded": RandomWelded,
                    "cli-oneshot": CliOneshot}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def canonical_candidates(d) -> int:
    """Candidates canonicalize tries: 2^L * L! * prod(max(1, len(loop)))."""
    loops = [c for c in d.components if c.is_loop]
    return (2 ** len(loops) * math.factorial(len(loops))
            * math.prod(max(1, len(c.passages)) for c in loops))


def install_layers(tracer: Tracer, mods) -> dict:
    """Wrap each layer's public functions where their callers look them up.
    Returns the set the canonical keys are collected in."""
    skein, diagram = mods["twinskein.skein"], mods["twinskein.diagram"]
    cons, alex = mods["twinskein.constructions"], mods["twinskein.alexander"]
    laurent, cli = mods["twinskein.laurent"], mods.get("twinskein.cli")
    keys: set[str] = set()
    counts = tracer.counts

    def after_canonicalize(span, args, form):
        counts["candidates"] += canonical_candidates(args[0])
        keys.add(form.key)

    def after_simplify(span, args, result):
        for event in result[1]:
            counts[f"move.{event.move_kind}"] += 1

    def after_evaluate(span, args, result):
        stats = result.stats
        counts["nodes_expanded"] += stats.nodes_expanded
        counts["memo_hits"] += stats.memo_hits
        counts["max_depth"] = max(counts["max_depth"], stats.max_depth)
        dur = tracer.duration(span)
        counts["evaluate_s"] += dur
        if not result.resolved:
            reason = result.unresolved_reason.split(":")[0]
            if reason not in UNRESOLVED_REASONS:
                reason = "other"
            counts[f"unresolved.{reason}"] += 1
            counts["wasted_s"] += dur

    evaluators = [skein] + ([cli] if cli is not None else [])
    for owner in evaluators:
        tracer.wrap(owner, "evaluate", "skein.evaluate", after_evaluate)
    tracer.wrap(skein, "simplify", "moves.simplify", after_simplify)
    tracer.wrap(skein, "canonicalize", "moves.canonicalize", after_canonicalize)
    for fn in ("choose_crossing", "switch_crossing", "smooth_crossing"):
        tracer.wrap(skein, fn, f"skein.{fn}")
    for owner in [skein, cons] + ([cli] if cli is not None else []):
        tracer.wrap(owner, "validate", "diagram.validate")
    tracer.wrap(diagram, "parse", "diagram.parse")
    tracer.wrap(cons, "parse", "diagram.parse")
    if cli is not None:
        tracer.wrap(cli, "parse_diagram", "diagram.parse")
    tracer.wrap(cons, "artin_spin", "constructions.artin_spin")
    tracer.wrap(alex, "conway", "alexander.conway")
    for op in ("__add__", "__sub__", "__mul__", "__neg__"):
        tracer.wrap(laurent.LaurentPoly, op, "laurent.ops")
    return keys


def probe_processes(env: dict[str, str], speed: HostSpeed
                    ) -> dict[str, tuple[float, str]]:
    """cli.* metrics: bare interpreter start, the import of twinskein.cli on
    top of it, and what --trace json adds to an invariant call."""
    giller = str(FIXTURES / "tw_giller.twin")
    kinds = {"interp": [sys.executable, "-c", "pass"],
             "import": [sys.executable, "-c", "import twinskein.cli"],
             "plain": cli_argv(giller, False),
             "traced": cli_argv(giller, True)}
    times: dict[str, list[float]] = {k: [] for k in kinds}
    for i in range(PROBE_CALLS):
        # alternate the order, so that no kind always follows another
        for kind in (list(kinds) if i % 2 else list(reversed(kinds))):
            argv = kinds[kind]
            speed.tick()
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                           check=True, timeout=60)
            times[kind].append(time.perf_counter() - t0)

    def paired(a: str, b: str) -> float:
        return statistics.median(x - y for x, y in zip(times[a], times[b]))

    return {"cli.interp_s": (speed.scale(statistics.median(times["interp"])),
                             "s"),
            "cli.import_s": (speed.scale(paired("import", "interp")), "s"),
            "cli.trace_extra_ms": (
                speed.scale(paired("traced", "plain")) * 1000, "ms")}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, keys: set[str], out: Outcome,
                  speed: HostSpeed) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.  Counts and self times are the
    run's totals (one set-up plus the measured loop) per evaluation measured,
    so that runs of different lengths compare; self times are scaled to the
    reference host speed."""
    summary = tracer.summary()
    counts = tracer.counts
    n = len(out.samples)
    m: dict[str, tuple[float, str]] = {"trace.evaluations": (n, "count")}

    def per_eval(name: str, total: float, unit: str) -> None:
        m[name] = (total / n, f"{unit}/eval")

    def span_metrics(layer: str, with_calls: bool = True) -> None:
        row = summary.get(layer, {"calls": 0, "self_s": 0.0})
        if with_calls:
            per_eval(f"{layer}.calls", row["calls"], "count")
        per_eval(f"{layer}.self_s", speed.scale(row["self_s"]), "s")

    span_metrics("moves.canonicalize")
    canon = summary.get("moves.canonicalize", {"calls": 0, "total_s": 0.0})
    m["moves.canonicalize.candidates"] = (
        ratio(counts["candidates"], canon["calls"]), "count/call")
    m["moves.canonicalize.distinct_key_ratio"] = (
        ratio(len(keys), canon["calls"]), "ratio")
    m["moves.canonicalize.evaluate_share"] = (
        ratio(canon["total_s"], counts["evaluate_s"]), "ratio")
    span_metrics("moves.simplify")
    for kind in SIMPLIFY_MOVES:
        per_eval(f"moves.simplify.moves.{kind}", counts[f"move.{kind}"],
                 "count")
    span_metrics("skein.evaluate", with_calls=False)
    for fn in ("choose_crossing", "switch_crossing", "smooth_crossing"):
        span_metrics(f"skein.{fn}")
    per_eval("skein.nodes_expanded", counts["nodes_expanded"], "count")
    m["skein.memo_hit_rate"] = (
        ratio(counts["memo_hits"], counts["nodes_expanded"]), "ratio")
    m["skein.max_depth"] = (counts["max_depth"], "count")
    for reason in UNRESOLVED_REASONS + ("other",):
        per_eval(f"skein.unresolved.{reason}", counts[f"unresolved.{reason}"],
                 "count")
    m["skein.wasted_share"] = (ratio(counts["wasted_s"], counts["evaluate_s"]),
                               "ratio")
    for layer in ("diagram.parse", "diagram.validate", "laurent.ops",
                  "constructions.artin_spin", "alexander.conway"):
        span_metrics(layer)
    m["trace.eval_ms_p50"] = (
        speed.scale(statistics.median(out.samples)) * 1000, "ms")
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100)[pct - 1]


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    if not (SRC / "twinskein" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'twinskein'}; "
                         f"run from the repository root")
    WORK.mkdir(exist_ok=True)
    # Import from cached bytecode, as the CLI processes do (child_env).
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(WORK / "pycache")
    sys.path.insert(0, str(SRC))

    job = WORKLOAD_CLASSES[workload]()
    tracer = Tracer() if traced else None
    # the host's speed while setting up, and while measuring
    setup_speed, speed = HostSpeed(), HostSpeed()
    keys = None
    setup_times = []
    try:
        for rep in range(SETUP_REPEATS):
            setup_speed.sample()
            t0 = time.perf_counter()
            mods = import_program()
            if tracer is not None and rep == SETUP_REPEATS - 1:
                if workload == "cli-oneshot":
                    importlib.import_module("twinskein.cli")
                keys = install_layers(tracer, mods)
            smoke_check(mods)
            job.prepare(mods, seed)
            setup_times.append(time.perf_counter() - t0)
        setup_speed.sample()
        digest = job.input_digest()
        t0 = time.perf_counter()
        out = job.measure(mods, seconds, tracer, speed)
        # wall time of the evaluations, without the reference loop's
        wall = time.perf_counter() - t0 - speed.spent
    finally:
        if tracer is not None:
            tracer.restore()
        run_dir = getattr(job, "run_dir", None)
        if run_dir is not None:
            shutil.rmtree(run_dir)

    print(f"perfbench: {workload} seed={seed} inputs_sha256={digest} "
          f"evaluations={out.attempted} failed={out.failed}", file=sys.stderr)
    for note in out.notes:
        print(f"perfbench: {workload}: {note}", file=sys.stderr)

    if tracer is None:
        who = (resource.RUSAGE_CHILDREN if workload == "cli-oneshot"
               else resource.RUSAGE_SELF)
        raw = {"diagrams_per_s": len(out.samples) / wall,
               "eval_ms_p50": statistics.median(out.samples) * 1000,
               "eval_ms_p95": percentile(out.samples, 95) * 1000,
               "setup_s": statistics.median(setup_times)}
        metrics = {
            "diagrams_per_s": (len(out.samples) / speed.scale(wall), "1/s"),
            "eval_ms_p50": (speed.scale(raw["eval_ms_p50"]), "ms"),
            "eval_ms_p95": (speed.scale(raw["eval_ms_p95"]), "ms"),
            "decided_share": (out.decided / out.attempted, "ratio"),
            "setup_s": (setup_speed.scale(raw["setup_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        }
        print("perfbench: raw, before scaling: " + " ".join(
            f"{name}={value:.6g}" for name, value in raw.items()),
            file=sys.stderr)
    else:
        probe = probe_processes(child_env(), speed)  # samples the host too
        metrics = layer_metrics(tracer, keys, out, speed)
        metrics.update(probe)
        write_trace(workload, seed, digest, tracer, metrics)
    print(f"perfbench: host speed {speed.relative():.3f} of the reference "
          f"while measuring, {setup_speed.relative():.3f} while setting up "
          f"(reference loop medians {speed.reference_time() * 1000:.4f} and "
          f"{setup_speed.reference_time() * 1000:.4f} ms); times are scaled "
          f"by them", file=sys.stderr)
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def write_trace(workload: str, seed: int, digest: str, tracer: Tracer,
                metrics: dict[str, tuple[float, str]]) -> None:
    spans_path = WORK / f"spans-{workload}.csv"
    with spans_path.open("w", encoding="utf-8") as f:
        tracer.write_spans(f)
    doc = {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest,
        "wait": NO_WAIT,
        "self_time": "span duration minus the durations of its direct "
                     "child spans",
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "spans": spans_path.name,
    }
    (WORK / f"trace-{workload}.json").write_text(json.dumps(doc, indent=1),
                                                 encoding="utf-8")
    print(f"perfbench: trace written to {WORK.relative_to(ROOT)}/"
          f"trace-{workload}.json and {spans_path.name}", file=sys.stderr)


# ---------------------------------------------------------------------------
# every workload at once
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: int) -> int:
    """Each workload untraced and traced, each in its own process; prints
    every metric with its unit and the tracing overhead."""
    ok = True
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} --trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        for trace, res in results.items():
            ok &= res["correct"]
            print(f"== {workload}  trace={trace}  correct={res['correct']}  "
                  f"attempted={res['attempted']}  failed={res['failed']}")
            for name, metric in res["metrics"].items():
                print(f"   {name:<42} {metric['value']:>14.6g} "
                      f"{metric['unit']}")
        if len(results) == 2:
            plain = results[0]["metrics"]["eval_ms_p50"]["value"]
            traced = results[1]["metrics"]["trace.eval_ms_p50"]["value"]
            print(f"   tracing overhead: eval_ms_p50 {plain:.4g} ms untraced, "
                  f"{traced:.4g} ms traced ({traced / plain:.2f}x)")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("give --workload NAME or --all")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
