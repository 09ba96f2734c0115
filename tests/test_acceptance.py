"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

The lines are echoed in the pytest run summary (and printed directly under
``-s``); ``gielab verify full`` is the CLI flavor of the same checks.
Criterion 1 recomputes every worked value through an independent
test-local formula path before comparing.
"""

import math

import numpy as np
import pytest

from gielab import gie, verify
from gielab.config import GridConfig
from gielab.gie import gie_closed_form
from gielab.information import gcmi_condition_g
from gielab.purification import purify_asym_glems
from gielab.states import make_family
from gielab.verify import (
    check_candidate_ordering,
    check_closed_form_identities,
    check_conjecture,
    check_faithfulness,
    check_gcmi_optimality,
    check_kh_machinery,
    check_minmax,
    check_structural,
    check_thresholds,
    run_family_numeric,
)

FULL_GRID = GridConfig(points=21)


@pytest.fixture(scope="module")
def family_numeric_results():
    # 50 parameter points per family inside the proven validity domains
    return run_family_numeric(50, FULL_GRID)


def _oracle_closed_forms():
    """Independent recomputation of the worked points (test-only path)."""
    values = {}
    a, kp = 1.5, 0.5
    values["sym_glems"] = math.log(a / math.sqrt(a * a - kp * kp))
    a, k = 1.2, 0.5
    values["sym_sq_thermal"] = math.log(((a - k) ** 2 + 1.0) / (2.0 * (a - k)))
    a, b = 2.0, 1.5
    values["asym_glems"] = math.log((a + b) / (abs(a - b) + 2.0))
    r = 0.5
    x_plus = (math.exp(2 * r) + 2 * math.exp(-2 * r)) / 3.0
    x_minus = (math.exp(-2 * r) + 2 * math.exp(2 * r)) / 3.0
    values["cv_ghz"] = math.log(x_minus / (math.exp(r) * math.sqrt(x_plus)))
    values["pure"] = math.log(2.0)
    return values


def test_criterion_1_closed_form_identities(acceptance_report):
    oracle = _oracle_closed_forms()
    worst = max(
        abs(gie_closed_form(make_family("sym_glems", a=1.5, kp=0.5)) - oracle["sym_glems"]),
        abs(gie_closed_form(make_family("sym_sq_thermal", a=1.2, k=0.5)) - oracle["sym_sq_thermal"]),
        abs(gie_closed_form(make_family("asym_glems", a=2.0, b=1.5)) - oracle["asym_glems"]),
        abs(gie_closed_form(make_family("cv_ghz", r=0.5)) - oracle["cv_ghz"]),
        abs(gie_closed_form(make_family("pure", a=2.0)) - oracle["pure"]),
    )
    assert worst < 1e-9, f"worked point deviates from the oracle by {worst:.3e}"
    acceptance_report(check_closed_form_identities())


def test_criterion_2_minmax_verification(family_numeric_results, acceptance_report):
    acceptance_report(check_minmax(family_numeric_results))


def test_criterion_3_candidate_ordering(acceptance_report):
    acceptance_report(check_candidate_ordering(n=1000))


def test_criterion_4_gcmi_optimality(acceptance_report):
    acceptance_report(check_gcmi_optimality(FULL_GRID, n=1000))


def test_criterion_4_reaches_forms_where_g_is_negative(monkeypatch):
    # where G < 0 the closed form f_xx need not be the GCMI, so a G that admits those forms fails
    monkeypatch.setattr(verify, "gcmi_condition_g", lambda *args: gcmi_condition_g(*args) + 10.0)
    assert not check_gcmi_optimality(FULL_GRID, n=1000).passed


def test_criterion_5_kh_machinery(acceptance_report):
    acceptance_report(check_kh_machinery(FULL_GRID, n=1000))


def test_criterion_6_threshold_machinery(family_numeric_results, acceptance_report):
    acceptance_report(check_thresholds(family_numeric_results))


def test_criterion_6_fails_when_the_asym_glems_gate_misjudges(monkeypatch):
    # a gate rule stricter than the G >= 0 the closed form rests on unverifies
    # every asym_glems result; only the threshold check reads that verdict
    def stricter_gate(fam, grid_cfg):
        return gie._single_mode_numeric(fam, purify_asym_glems(fam), grid_cfg, lambda g: g >= 10.0)

    monkeypatch.setattr(gie, "gie_numeric_asym_glems", stricter_gate)
    lines = [check.line() for check in verify.run_suite("fast")]
    assert [line for line in lines if line.startswith("FAIL")] == [
        next(line for line in lines if "threshold machinery" in line)
    ]


def test_criterion_7_conjecture_equality(acceptance_report):
    acceptance_report(check_conjecture(grid_n=20))


def test_criterion_8_faithfulness(acceptance_report):
    acceptance_report(check_faithfulness(FULL_GRID, n=1000))


def test_criterion_9_structural_suite(acceptance_report):
    acceptance_report(check_structural(n=40))


def test_worked_numeric_values_match_frozen_oracles(family_numeric_results):
    # spot values quoted throughout the build, frozen from direct evaluation
    sym = gie_closed_form(make_family("sym_glems", a=1.5, kp=0.5))
    assert np.isclose(sym, 0.05889151782819164, atol=1e-12)
    ghz = gie_closed_form(make_family("cv_ghz", r=0.5))
    assert np.isclose(ghz, 0.08954514823451633, atol=1e-12)
    sq = gie_closed_form(make_family("sym_sq_thermal", a=1.2, k=0.5))
    assert np.isclose(sq, 0.06230388333615484, atol=1e-12)
    asym = gie_closed_form(make_family("asym_glems", a=2.0, b=1.5))
    assert np.isclose(asym, 0.3364722366212129, atol=1e-12)
