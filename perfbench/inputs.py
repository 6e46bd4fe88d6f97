"""Seeded inputs for the benchmark, made without the program under test.

The random-welded workload evaluates a fixed universe of random welded
twins in whole passes, so that one pinned reference file holds the value of
every input and every run evaluates the same inputs as often as any other.
The run's seed picks the order of each pass.  (Runs that each drew their own
sample of inputs disagreed by 15 % on throughput from the sample alone: a
few heavy inputs take most of the time.)
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

#: The universe of random welded twins: generator seed and size.  Changing
#: either changes the inputs, so the reference file must be pinned again.
UNIVERSE_SEED = 0x5EED_1212
UNIVERSE_SIZE = 800

MAX_CROSSINGS = 5
MAX_LOOPS = 2

REFERENCE_PATH = Path(__file__).with_name("reference_random_welded.tsv")

#: Reference marker for an input the pinned commit left unresolved.
UNRESOLVED_MARK = "?"


def random_welded_twin(rng: random.Random) -> str:
    """One random welded twin as diagram text.

    Up to MAX_CROSSINGS signed crossings; both passages of each are thrown
    into random slots of the two arcs and 0..MAX_LOOPS loops, with the first
    arc four times as likely as any other component.  Every such Gauss code
    is a valid welded diagram.  Loops that receive no passage are dropped.
    """
    k = rng.randint(0, MAX_CROSSINGS)
    n_loops = rng.randint(0, MAX_LOOPS)
    tokens = []
    for cid in range(1, k + 1):
        sign = rng.choice("+-")
        tokens += [f"O{cid}{sign}", f"U{cid}{sign}"]
    rng.shuffle(tokens)
    heads = ["arc A", "arc B"] + [f"loop T{i + 1}" for i in range(n_loops)]
    weights = [4] + [1] * (len(heads) - 1)
    buckets: list[list[str]] = [[] for _ in heads]
    for tok in tokens:
        buckets[rng.choices(range(len(heads)), weights=weights)[0]].append(tok)
    parts = [" ".join([f"{head}:", *bucket, ";"])
             for head, bucket in zip(heads, buckets)
             if head.startswith("arc") or bucket]
    return "twin { " + " ".join(parts) + " }"


def loop_count(text: str) -> int:
    return text.count("loop ")


def universe() -> list[str]:
    rng = random.Random(UNIVERSE_SEED)
    return [random_welded_twin(rng) for _ in range(UNIVERSE_SIZE)]


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(str(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def write_reference(texts: list[str], values: list[str | None],
                    path: Path = REFERENCE_PATH) -> None:
    lines = [f"# universe seed={UNIVERSE_SEED} size={len(texts)} "
             f"sha256={digest(texts)}"]
    for text, value in zip(texts, values):
        lines.append(f"{UNRESOLVED_MARK if value is None else value}\t{text}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_reference(texts: list[str], path: Path = REFERENCE_PATH
                   ) -> list[str | None]:
    """Pinned rendered values, index-aligned with ``texts`` (None where the
    pinned commit left the input unresolved).  Refuses a file made from
    other inputs."""
    lines = path.read_text(encoding="utf-8").splitlines()
    want = f"sha256={digest(texts)}"
    if not lines or want not in lines[0] or len(lines) != len(texts) + 1:
        raise ValueError(f"{path.name} was pinned for other inputs")
    values: list[str | None] = []
    for line, text in zip(lines[1:], texts):
        value, _, pinned_text = line.partition("\t")
        if pinned_text != text:
            raise ValueError(f"{path.name} does not match input {text!r}")
        values.append(None if value == UNRESOLVED_MARK else value)
    return values
