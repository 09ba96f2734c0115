import numpy as np
import pytest

import gielab.optimize
from gielab.config import GridConfig
from gielab.errors import DegenerateFamilyError, DomainNotCoveredError, InvalidInputError
from gielab.gie import (
    GATE_LOWER_BOUND,
    QMatrixParams,
    _spectral_seed,
    _sqrt_ab_of_q,
    gie_closed_form,
    gie_numeric,
    gie_numeric_asym_glems,
    gie_numeric_sym_glems,
    gie_numeric_sym_sq_thermal,
    k_h,
    k_h_determinant,
    minimize_kh,
    sym_glems_candidates,
    verified_domain,
)
from gielab.measurement import FiniteMeasurement, condition_on_e, homodyne
from gielab.purification import Purification, purify
from gielab.states import StdForm, classify, make_family, std_form_cm, std_form_params
from gielab.symplectic import CovMat

FAST = GridConfig(points=13)

U3_WORKED = 0.05889151782819164
SQ_THERMAL_WORKED = 0.06230388333615484
ASYM_WORKED = 0.3364722366212129
GHZ_WORKED = 0.08954514823451633


class TestClosedForm:
    def test_worked_points(self):
        assert np.isclose(gie_closed_form(make_family("sym_glems", a=1.5, kp=0.5)), U3_WORKED, atol=1e-12)
        assert np.isclose(
            gie_closed_form(make_family("sym_sq_thermal", a=1.2, k=0.5)), SQ_THERMAL_WORKED, atol=1e-12
        )
        assert np.isclose(gie_closed_form(make_family("asym_glems", a=2.0, b=1.5)), ASYM_WORKED, atol=1e-12)
        assert np.isclose(gie_closed_form(make_family("cv_ghz", r=0.5)), GHZ_WORKED, atol=1e-12)
        assert np.isclose(gie_closed_form(make_family("pure", a=1.0)), 0.0, atol=1e-14)

    def test_separable_faithfulness(self):
        assert gie_closed_form(make_family("sym_sq_thermal", a=3.0, k=1.0)) == 0.0

    def test_symmetric_families_reduce_to_ppt_eigenvalue_form(self):
        # both Eqs. reduce to ln[(nu- + 1/nu-)/2] with nu- = sqrt((a-kx)(a-kp))
        for fam in (
            make_family("sym_glems", a=1.7, kp=0.8),
            make_family("sym_sq_thermal", a=1.3, k=0.6),
            make_family("pure", a=2.2),
        ):
            nu_minus = np.sqrt((fam.std.a - fam.std.kx) * (fam.std.a - fam.std.kp))
            expected = np.log((nu_minus + 1.0 / nu_minus) / 2.0) if nu_minus < 1 else 0.0
            assert np.isclose(gie_closed_form(fam), expected, atol=1e-12)

    def test_domain_gate(self):
        fam = make_family("sym_sq_thermal", a=3.0, k=2.5)  # entangled, a > 2.41
        assert not verified_domain(fam)
        value = gie_closed_form(fam)  # still computable on request
        assert value > 0
        with pytest.raises(DomainNotCoveredError):
            gie_closed_form(fam, require_verified=True)

    def test_generic_entangled_not_covered(self):
        p = StdForm(1.4, 1.1, 0.4, 0.25)
        with pytest.raises(DomainNotCoveredError):
            gie_closed_form(classify(p))


class TestCandidates:
    def test_worked_point(self):
        u1, u2, u3 = sym_glems_candidates(1.5, 0.5)
        assert np.isclose(u1, 0.29389333245105953, atol=1e-12)
        assert np.isclose(u2, 0.15726898509691148, atol=1e-12)
        assert np.isclose(u3, U3_WORKED, atol=1e-12)

    def test_separable_limit(self):
        _, _, u3 = sym_glems_candidates(1.5, 0.0)
        assert abs(u3) < 1e-14

    def test_pure_limit_collapses_u1_u3(self):
        a = 1.8
        kp = np.sqrt(a * a - 1.0)  # kx = kp: the GLEMS becomes pure
        u1, _, u3 = sym_glems_candidates(a, kp)
        assert np.isclose(u1, u3, atol=1e-10)
        assert np.isclose(u3, np.log(a), atol=1e-10)

    def test_ordering_on_random_points(self, rng):
        for _ in range(300):
            a = 1.0 + rng.random() * 4
            kp = rng.random() * np.sqrt(a * a - 1.0)
            u1, u2, u3 = sym_glems_candidates(a, kp)
            assert u1 >= u3 - 1e-12
            assert u2 >= u3 - 1e-12


class TestNumericSymGlems:
    def test_worked_point(self):
        res = gie_numeric_sym_glems(1.5, 0.5, FAST)
        assert res.discrepancy < 2e-5
        assert res.eve_optimum == "homodyne x_E"
        assert res.extra["gate_min"] > GATE_LOWER_BOUND
        assert res.verified

    def test_low_noise_point(self):
        res = gie_numeric_sym_glems(1.1, 0.2, FAST)
        assert res.discrepancy < 2e-5

    def test_cv_ghz_through_pipeline(self):
        fam = make_family("cv_ghz", r=0.5)
        res = gie_numeric(fam, FAST)
        assert abs(res.numeric - GHZ_WORKED) < 2e-5

    def test_trace_records_candidates(self):
        res = gie_numeric_sym_glems(1.5, 0.5, FAST)
        values = [v for _, v in res.optimizer_trace]
        assert min(values) == res.numeric
        assert len(res.optimizer_trace) >= 4  # grid best, refined, 3 candidates


class TestNumericSymSqThermal:
    def test_worked_point(self):
        res = gie_numeric_sym_sq_thermal(1.2, 0.5, FAST)
        assert abs(res.numeric - SQ_THERMAL_WORKED) < 2e-5
        assert res.eve_optimum == "homodyne x_EA p_EB"
        assert res.extra["sqrt_ab_max"] <= 1.2 + 1e-9

    def test_weakly_squeezed_point(self):
        res = gie_numeric_sym_sq_thermal(1.05, 0.3, FAST)
        expected = np.log((0.75**2 + 1.0) / 1.5)
        assert np.isclose(res.closed_form, expected, atol=1e-12)
        assert abs(res.numeric - expected) < 2e-5

    def test_near_pure_state_purified_without_e_mode(self):
        # a^2 - k^2 - 1 = 1.3e-9: past family_atol, so the search runs, but
        # purify drops the E mode; the gate then reads gamma_AB, sqrt(a b) = a
        a, k = 2.0, 1.7320508072
        assert purify(std_form_cm(make_family("sym_sq_thermal", a=a, k=k).std)).r_count == 0
        res = gie_numeric_sym_sq_thermal(a, k, FAST)
        assert res.extra["sqrt_ab_max"] == a
        assert res.verified and res.discrepancy < 2e-5

    def test_separable_short_circuit(self):
        res = gie_numeric_sym_sq_thermal(3.0, 1.0, FAST)
        assert res.closed_form == 0.0 and res.numeric == 0.0
        assert res.optimizer_trace == ()


class TestNumericAsymGlems:
    def test_worked_point(self):
        res = gie_numeric_asym_glems(2.0, 1.5, FAST)
        assert abs(res.numeric - ASYM_WORKED) < 2e-5
        assert res.eve_optimum == "heterodyne"
        assert res.extra["vx_scan_monotone"]
        assert np.isclose(res.extra["vx_scan_min"], ASYM_WORKED, atol=1e-12)

    def test_swapped_purities_same_value(self):
        res = gie_numeric_asym_glems(1.5, 2.0, FAST)
        assert abs(res.numeric - ASYM_WORKED) < 2e-5

    def test_product_boundary_vanishes(self):
        res = gie_numeric_asym_glems(2.0, 1.0, FAST)
        assert res.closed_form == 0.0
        assert abs(res.numeric) < 1e-9

    def test_equal_purities_rejected(self):
        with pytest.raises(DegenerateFamilyError):
            gie_numeric_asym_glems(1.5, 1.5, FAST)


def _probe_at_a_time_descend(fn, x0, lows, highs, resolution):
    """The Hooke-Jeeves descent one probe per call; returns its end, value and whether the cap stopped it.

    Each probe is a 1-row array, so the objective takes the array path that
    the batched descent takes (a scalar ``** 2`` can round differently).
    """
    x = np.array(x0, dtype=float)
    val = fn(*x[:, None])[0]
    steps = np.maximum((highs - lows) * 0.05, resolution)
    directions = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = 1.0
        directions.append(e)
        for j in range(i + 1, x.size):
            for other in (1.0, -1.0):
                d = np.zeros(x.size)
                d[i], d[j] = 1.0, other
                directions.append(d / np.sqrt(2.0))
    for _ in range(gielab.optimize.MAX_SWEEPS):
        improved = False
        for direction in directions:
            for sign in (1.0, -1.0):
                trial = np.clip(x + sign * steps * direction, lows, highs)
                if np.array_equal(trial, x):
                    continue
                tval = fn(*trial[:, None])[0]
                if tval < val - gielab.optimize.MIN_IMPROVEMENT:
                    x, val, improved = trial, tval, True
        if not improved:
            steps *= 0.5
            if steps.max() < resolution:
                return x, val, False
    return x, val, True


class TestKh:
    def test_equal_spectrum_gives_unity(self):
        for phi in (0.0, 0.4, 1.3, 3.0):
            for lam in (0.2, 1.0, 55.0):
                assert abs(k_h(QMatrixParams(phi, lam, lam), 1.2, 0.5) - 1.0) < 1e-12

    def test_reduced_matches_determinant_form(self, rng):
        for _ in range(300):
            a = 1.0 + rng.random() * 1.41
            lo, hi = max(a - 1.0, 0.0), np.sqrt(a * a - 1.0)
            k = lo + rng.random() * (hi - lo)
            if a * a - k * k <= 1.0 + 1e-9:
                continue
            lam = np.exp(rng.uniform(-3, 6, size=2))
            q = QMatrixParams(rng.random() * np.pi, max(lam), min(lam))
            assert abs(k_h(q, a, k) - k_h_determinant(q, a, k)) < 1e-9

    def test_minimum_matches_closed_form(self):
        k_min, best, _ = minimize_kh(1.2, 0.5, FAST)
        assert np.isclose(k_min, 0.9360540674603174, atol=1e-6)
        assert np.isinf(best[1])  # dual-homodyne limit wins

    def test_grid_stage_evaluates_the_public_formula(self):
        for a, k in ((1.2, 0.5), (1.8, 1.1), (2.3, 1.0), (1.5, 0.3)):
            params, value = minimize_kh(a, k, FAST)[2][0]
            assert value == k_h(QMatrixParams(*params), a, k)

    def test_descent_that_hits_the_sweep_cap_follows_the_probe_at_a_time_path(self, monkeypatch):
        descend, capped = gielab.optimize.descend, []

        def checked(fn, x0, lows, highs, resolution):
            x, value = descend(fn, x0, lows, highs, resolution)
            x_ref, value_ref, stopped_on_cap = _probe_at_a_time_descend(fn, x0, lows, highs, resolution)
            assert (x.tolist(), float(value)) == (x_ref.tolist(), float(value_ref))
            capped.append(stopped_on_cap)
            return x, value

        monkeypatch.setattr(gielab.optimize, "descend", checked)
        minimize_kh(1.7356584694880974, 0.41199196834939183, GridConfig(points=21))
        assert capped == [True]  # the descent stops on the cap, not on its resolution

    def test_limit_value_equals_rmax_form(self):
        # the dual-homodyne limit in its own form: r_max = (nu^2 - 1) / (nu^2 + 1)
        a, k = 1.2, 0.5
        nu_sq = a * a - k * k
        r_max = 1.0 / (1.0 + 2.0 / (nu_sq - 1.0))
        assert np.isclose(r_max, 0.0867579908675799, atol=1e-14)
        expected = nu_sq / a**2 + (k / a - r_max) ** 2 / (1 - r_max**2)
        params, value = minimize_kh(a, k, FAST)[2][2]
        assert params == (np.pi / 2.0, np.inf, 0.0)
        assert abs(value - expected) < 1e-14
        assert abs(k_h(QMatrixParams(np.pi / 2.0, np.inf, 0.0), a, k) - expected) < 1e-14

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            QMatrixParams(0.5, 1.0, 2.0)  # lambda2 > lambda1
        with pytest.raises(InvalidInputError):
            k_h(QMatrixParams(0.5, 1.0, 0.5), 1.2, 0.8)  # unphysical (a, k)


def _sq_thermal_pi(a, k):
    return purify(std_form_cm(make_family("sym_sq_thermal", a=a, k=k).std))


def _lab_frame_sqrt_ab(pi, ge):
    a_t, b_t, _, _ = std_form_params(condition_on_e(pi, ge))
    return np.sqrt(a_t * b_t)


class TestQFrameGate:
    """sqrt(a~ b~) in Eve's Q frame against the lab-frame inverse of gamma_E + seed."""

    STATES = ((1.2, 0.5), (1.8, 1.1), (2.3, 1.6), (1.05, 0.3))

    def test_limit_row_is_the_exact_dual_homodyne(self):
        for a, k in self.STATES:
            pi = _sq_thermal_pi(a, k)
            (value,) = _sqrt_ab_of_q(pi, [(np.pi / 2.0, np.inf, 0.0)])
            assert abs(value - _lab_frame_sqrt_ab(pi, homodyne([0.0, np.pi / 2.0]))) < 1e-14

    def test_finite_rows_match_the_spectral_seed(self, rng):
        for a, k in self.STATES:
            pi = _sq_thermal_pi(a, k)
            points = []
            for _ in range(20):
                lam = np.sort(np.exp(rng.uniform(-3.0, 3.0, size=2)))
                points.append((rng.random() * np.pi, lam[1], lam[0]))
            for q, value in zip(points, _sqrt_ab_of_q(pi, points)):
                seed = FiniteMeasurement(CovMat(_spectral_seed(QMatrixParams(*q))))
                assert abs(value - _lab_frame_sqrt_ab(pi, seed)) < 1e-12

    def test_needs_gamma_e_proportional_to_identity(self):
        pi = _sq_thermal_pi(1.2, 0.5)
        squeeze = np.diag([2.0, 0.5, 1.0, 1.0])  # a local squeezer on the first E mode
        skewed = Purification(pi.gamma_ab, pi.gamma_abe @ squeeze, squeeze @ pi.gamma_e @ squeeze, 2)
        with pytest.raises(InvalidInputError):
            _sqrt_ab_of_q(skewed, [(0.0, 1.0, 1.0)])


class TestDomainCorners:
    def test_sq_thermal_at_domain_boundary(self):
        res = gie_numeric_sym_sq_thermal(2.41, 1.72, FAST)
        assert res.discrepancy < 2e-5
        assert res.verified
        assert res.eve_optimum == "homodyne x_EA p_EB"

    def test_asym_glems_near_domain_boundary(self):
        a, b = 2.9, 2.0  # sqrt(ab) = 2.408
        res = gie_numeric_asym_glems(a, b, FAST)
        assert res.discrepancy < 2e-5
        assert res.verified
        assert res.eve_optimum == "heterodyne"

    def test_strongly_asymmetric_glems_inside_domain(self):
        res = gie_numeric_asym_glems(5.0, 1.05, FAST)  # sqrt(ab) = 2.29
        assert res.discrepancy < 2e-5
        assert res.verified

    def test_outside_domain_reported_but_unverified(self):
        res = gie_numeric_asym_glems(6.0, 1.2, FAST)  # sqrt(ab) = 2.68
        assert not res.verified
        assert res.closed_form > 0 and np.isfinite(res.numeric)

    def test_near_pure_sym_glems(self):
        a = 1.5
        kp = 0.999 * np.sqrt(a * a - 1.0)
        res = gie_numeric_sym_glems(a, kp, FAST)
        assert res.discrepancy < 2e-5


class TestMonotonicity:
    def test_gie_nonincreasing_in_thermal_noise(self):
        # raising a at fixed k adds local thermal noise and cannot raise GIE
        for k in (0.4, 0.7, 1.0):
            values = []
            for a in np.linspace(max(1.0, k) + 0.01, k + 0.999, 25):
                if a * a - k * k < 1.0:
                    continue
                values.append(gie_closed_form(make_family("sym_sq_thermal", a=a, k=k)))
            assert np.all(np.diff(values) <= 1e-12)

    def test_sym_glems_nonincreasing_in_a_at_fixed_kp(self):
        for kp in (0.3, 0.6):
            values = [
                gie_closed_form(make_family("sym_glems", a=a, kp=kp))
                for a in np.linspace(np.sqrt(1 + kp * kp) + 0.01, 4.0, 25)
            ]
            assert np.all(np.diff(values) <= 1e-12)


class TestVerifiedDomain:
    def test_boundaries(self):
        assert verified_domain(make_family("sym_sq_thermal", a=2.4, k=1.5))
        assert not verified_domain(make_family("sym_sq_thermal", a=2.42, k=1.6))
        assert verified_domain(make_family("asym_glems", a=2.3, b=2.5))
        assert not verified_domain(make_family("asym_glems", a=2.5, b=2.5 + 1e-6))
        assert verified_domain(make_family("sym_glems", a=5.0, kp=2.0))
        assert verified_domain(make_family("pure", a=40.0))
