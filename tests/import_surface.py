"""Exit nonzero when importing twinskein.cli loads dataclasses or inspect.

Every ``twinskein`` process pays for the modules the CLI imports; these two
are large, and twinskein needs neither.  Modules already loaded when the
script starts (the interpreter's own and those of site ``.pth`` files) do
not count.

    PYTHONPATH=src python tests/import_surface.py
"""

import sys

before = set(sys.modules)
import twinskein.cli  # noqa: E402

loaded = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import twinskein.cli loads {', '.join(loaded)}")
