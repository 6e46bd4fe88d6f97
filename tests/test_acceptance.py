"""The acceptance gate: every exit criterion at its stated tolerance.

Values are exact (integer Laurent arithmetic); the stated wall-clock
limits are enforced inside the checks themselves.  One pass/fail line is
printed per criterion.
"""

import pytest

from twinskein import acceptance
from twinskein.laurent import LaurentPoly

_RESULTS = {}


def _get(name):
    if not _RESULTS:
        for case in acceptance.run_all():
            _RESULTS[case.name] = case
            print(f"{'PASS' if case.ok else 'FAIL'}  {case.name}  "
                  f"{case.elapsed_ms:.1f} ms  {case.detail}")
    return _RESULTS[name]


# 1. I(standard twin) = 1, under 10 ms
def test_criterion_1_standard_twin():
    case = _get("standard-twin")
    assert case.ok, case.detail
    assert case.elapsed_ms < 10


# 2. split configuration evaluates to 0, under 10 ms
def test_criterion_2_split():
    case = _get("split")
    assert case.ok, case.detail
    assert case.elapsed_ms < 10


# 3. the twin of Giller's example: value, tree shape, cancellation, < 1 s
def test_criterion_3_tw_giller():
    case = _get("tw-giller")
    assert case.ok, case.detail
    assert case.elapsed_ms < 1000


# 4. the unknot-pair twin: value with the first branch negative, < 1 s
def test_criterion_4_tw_unknot_pair():
    case = _get("tw-unknot-pair")
    assert case.ok, case.detail
    assert case.elapsed_ms < 1000


# 5. 2-knot mode on Giller's example, < 1 s
def test_criterion_5_giller_two_knot():
    case = _get("giller-two-knot")
    assert case.ok, case.detail
    assert case.elapsed_ms < 1000


# 6. spin/oracle agreement on every bundled knot of at most 7 crossings,
#    whole sweep < 30 s; non-resolving knots are reported, not failed
def test_criterion_6_fintushel_stern():
    case = _get("fintushel-stern-sweep")
    assert case.ok, case.detail
    assert case.elapsed_ms < 30_000


# 7. randomized property suites, >= 200 cases each, exact equality
@pytest.mark.parametrize("suite", [
    "prop-skein-identity",
    "prop-move-invariance",
    "prop-symmetry",
    "prop-sign-rule",
    "prop-memo",
    "prop-round-trip",
])
def test_criterion_7_property_suites(suite):
    case = _get(suite)
    assert case.ok, case.detail
    assert "200" in case.detail


# 8. Conway oracle self-checks and move invariance
def test_criterion_8_conway_oracle():
    case = _get("conway-oracle")
    assert case.ok, case.detail


# 9. overriding the multiplier to 1 must break criterion 3
def test_criterion_9_negative_control():
    case = _get("negative-control")
    assert case.ok, case.detail


# the corpus leaves the shared zero and one values as they were
def test_run_all_leaves_zero_and_one_alone():
    _get("negative-control")
    assert LaurentPoly.zero().render() == "0"
    assert LaurentPoly.one().render() == "1"
