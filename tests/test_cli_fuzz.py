"""A seeded fuzz of the command line: no input or flag ends in a traceback.

Each case feeds ``cli.main`` one diagram text on stdin, drawn from the
parse pins' texts and, seven times in ten, put through their ``mutate``,
under ``validate``, ``invariant``, ``conway`` or ``spin`` with random flags.
Every case must return 0, 1 or 2; nothing may escape ``main``, a usage
error's ``SystemExit`` included.  Files are written under ``tmp_path``
only.
"""

import io
import random

from test_parse_pins import mutate, pinned_texts
from twinskein.cli import main
from twinskein.constructions import table_names

CASES = 1000

#: A multiplier whose coefficient reads as an int, but whose square in a
#: value is past Python's 4,300-digit limit on int-string conversion.
LONG = "9" * 4000 + "t"
#: Multiplier texts: valid ones, zero, malformed ones and the long one.
MULTIPLIERS = ("t - t^-1", "2t", "-t^2 + 1", "t^-3", "1", "0", "-1",
               "x", "t^", "1 1", "t^-", LONG)
DEPTHS = (0, 1, 2, 3, 8, 24, 64, 256, 257, -1)


def fuzz_cases(rng: random.Random, tmp_path):
    """(argv, stdin text) pairs: each bundled fixture and knot-table block
    under ``invariant`` with the long multiplier, whose square most of
    their values hold, then ``CASES`` random cases."""
    texts = pinned_texts()
    for label, text in texts:
        if label.startswith(("fixture ", "table ")):
            trace = rng.choice(([], ["--trace=json"], ["--trace=dot"]))
            yield ["invariant", "-", f"--multiplier={LONG}", *trace], text
    knots = (*table_names(), "9_99")
    for _ in range(CASES):
        _, text = rng.choice(texts)
        if rng.random() < 0.7:
            text = mutate(rng, text)
        command = rng.choice(("validate", "invariant", "conway", "spin"))
        argv = [command]
        if command in ("conway", "spin") and rng.random() < 0.3:
            argv += ["--knot", rng.choice(knots)]
            if command == "spin" and rng.random() < 0.5:
                argv.append(f"--cut={rng.randint(-2, 20)}")
        else:
            argv.append("-")
        if command == "invariant":
            if rng.random() < 0.5:
                multiplier = rng.choice(MULTIPLIERS)
                if rng.random() < 0.3:
                    multiplier = mutate(rng, multiplier)
                argv.append(f"--multiplier={multiplier}")
            if rng.random() < 0.5:
                argv.append(f"--depth={rng.choice(DEPTHS)}")
            if rng.random() < 0.5:
                argv.append(f"--trace={rng.choice(('json', 'dot'))}")
            if rng.random() < 0.2:
                argv.append(f"--trace-out={tmp_path / 'trace.out'}")
            if rng.random() < 0.3:
                argv.append("--no-memo")
        if command == "spin" and rng.random() < 0.2:
            argv.append(f"--out={tmp_path / 'spun.twin'}")
        yield argv, text


def test_no_case_escapes_main(capsys, monkeypatch, tmp_path):
    rng = random.Random(5)
    for i, (argv, text) in enumerate(fuzz_cases(rng, tmp_path)):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        case = f"case {i}: {[arg[:40] for arg in argv]!r} on {text[:200]!r}"
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{case} raised {exc!r}") from exc
        finally:
            capsys.readouterr()
        assert code in (0, 1, 2), f"{case} returned {code!r}"
