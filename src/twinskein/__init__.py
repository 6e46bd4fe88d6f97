"""twinskein: skein-calculus invariants of ribbon twins and 2-knots
presented as welded Gauss-code diagrams."""

from .laurent import LaurentPoly, SKEIN_MULTIPLIER
from .diagram import Diagram, parse, serialize, validate
from .moves import simplify, canonicalize
from .skein import SkeinConfig, SkeinResult, evaluate, export_trace
from .constructions import (
    ClassicalKnotCode,
    artin_spin,
    connect_sum_twin,
    table_knot,
    table_names,
    twin_closure,
)
from .alexander import alexander_at_t_squared, conway

__all__ = [
    "LaurentPoly",
    "SKEIN_MULTIPLIER",
    "Diagram",
    "parse",
    "serialize",
    "validate",
    "simplify",
    "canonicalize",
    "SkeinConfig",
    "SkeinResult",
    "evaluate",
    "export_trace",
    "ClassicalKnotCode",
    "artin_spin",
    "connect_sum_twin",
    "table_knot",
    "table_names",
    "twin_closure",
    "alexander_at_t_squared",
    "conway",
]

__version__ = "0.1.0"
