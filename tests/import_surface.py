"""Exit nonzero when importing twinskein.cli loads dataclasses, inspect,
json, fractions, decimal or twinskein.acceptance.

Every ``twinskein`` process pays for the modules the CLI imports.  The
first two are large, and twinskein needs neither; json serves only
``--trace json`` and the acceptance corpus only ``corpus``, so each is
imported where it is used.  Every process imports the Alexander oracle,
whose exact arithmetic stays on ``int``: it needs neither fractions nor
decimal.  Modules already loaded when the script starts
(the interpreter's own and those of site ``.pth`` files) do not count.

    PYTHONPATH=src python tests/import_surface.py
"""

import sys

before = set(sys.modules)
import twinskein.cli  # noqa: E402

loaded = sorted({"dataclasses", "inspect", "json", "fractions", "decimal",
                 "twinskein.acceptance"}
                & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import twinskein.cli loads {', '.join(loaded)}")
