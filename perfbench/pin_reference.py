"""Pin the random-welded reference values at the current commit.

    python3 perfbench/pin_reference.py

Evaluates every input of the random-welded universe with the default
SkeinConfig and writes perfbench/reference_random_welded.tsv: one line per
input, its rendered value (or "?" when unresolved) and its text.  Pin again
only when the universe in inputs.py changes; a benchmark run compares the
program's values against this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
from twinskein import evaluate, parse  # noqa: E402


def main() -> int:
    texts = inputs.universe()
    values = []
    for text in texts:
        result = evaluate(parse(text))
        values.append(result.value.render() if result.resolved else None)
    inputs.write_reference(texts, values)
    resolved = sum(v is not None for v in values)
    print(f"pinned {len(texts)} inputs ({resolved} resolved) to "
          f"{inputs.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
