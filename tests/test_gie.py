import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gielab.gie
import gielab.information
import gielab.optimize
from gielab.config import GridConfig
from gielab.errors import DomainNotCoveredError, InvalidInputError, NumericalDegeneracyError
from gielab.gie import (
    GATE_LOWER_BOUND,
    KH_SEARCH,
    SINGLE_MODE_SEARCH,
    SQRT_AB_SLACK,
    _conditional_cms,
    _kh_seed,
    _single_mode_numeric,
    _single_mode_seed,
    _spectral_seed,
    _trace_forms,
    gie_closed_form,
    gie_numeric,
    k_h,
    k_h_determinant,
    minimize_kh,
    sym_glems_candidates,
    verified_domain,
)
from gielab.information import gcmi_condition_g, gcmi_numeric
from gielab.measurement import FiniteMeasurement, condition_on_e, general_single_mode, homodyne
from gielab.purification import Purification, purify, purify_asym_glems
from gielab.renyi2 import gr2_of_family
from gielab.states import StdForm, classify, make_family
from gielab.symplectic import CovMat
from gielab.verify import MINMAX_ATOL
from oracles import (
    XXPP,
    joined,
    kh_objective,
    rotation,
    single_mode_objective,
    std_form_params,
    u_objective,
    whole_mesh_argmin,
)
from tests.test_optimize import follow_poll_per_call, probe_at_a_time_descend

FAST = GridConfig(points=13)

U3_WORKED = 0.05889151782819164
SQ_THERMAL_WORKED = 0.06230388333615484
ASYM_WORKED = 0.3364722366212129
GHZ_WORKED = 0.08954514823451633


def _numeric(tag, **params):
    """gie_numeric at grid 13 on the family built from its defining scalars."""
    return gie_numeric(make_family(tag, **params), FAST)


def _g_50_digits(cm) -> float:
    """GCMI gate G of a two-mode CM's standard form, read from its determinants at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = mpmath.matrix(np.asarray(cm).tolist())
        det_a, det_b, det_g = mpmath.det(m[0:2, 0:2]), mpmath.det(m[2:4, 2:4]), mpmath.det(m)
        det_c = mpmath.det(m[0:2, 2:4])
        a, b = mpmath.sqrt(det_a), mpmath.sqrt(det_b)
        s = (det_a * det_b + det_c**2 - det_g) / (a * b)
        kx_sq = (s + mpmath.sqrt(max(s * s - 4 * det_c**2, 0))) / 2
        return float(mpmath.sqrt(a / b) + mpmath.sqrt(b / a) + 1 / mpmath.sqrt(a * b) - mpmath.sqrt(a * b - kx_sq))


class TestClosedForm:
    def test_worked_points(self):
        assert np.isclose(gie_closed_form(make_family("sym_glems", a=1.5, kp=0.5)), U3_WORKED, atol=1e-12)
        assert np.isclose(
            gie_closed_form(make_family("sym_sq_thermal", a=1.2, k=0.5)), SQ_THERMAL_WORKED, atol=1e-12
        )
        assert np.isclose(gie_closed_form(make_family("asym_glems", a=2.0, b=1.5)), ASYM_WORKED, atol=1e-12)
        assert np.isclose(gie_closed_form(make_family("cv_ghz", r=0.5)), GHZ_WORKED, atol=1e-12)
        assert np.isclose(gie_closed_form(make_family("pure", a=1.0)), 0.0, atol=1e-14)

    def test_sym_glems_near_the_pure_edge_against_50_digit_reference(self):
        # a^2 - kp^2 = 1 - 4.2e-11: read as a * a - kp * kp it cancels to 3.7e-11 off the value
        mpmath = pytest.importorskip("mpmath")
        a, kp = 838.6599231169192, 838.6593269274938
        fam = make_family("sym_glems", a=a, kp=kp)
        u1, u2, u3 = sym_glems_candidates(a, kp)
        with mpmath.workdps(50):
            def exact(k):
                return mpmath.log(mpmath.mpf(a) / mpmath.sqrt(mpmath.mpf(a) ** 2 - mpmath.mpf(k) ** 2))

            for value, reference in ((gie_closed_form(fam), exact(kp)), (u3, exact(kp)), (u1, exact(fam.std.kx))):
                assert abs(float(mpmath.mpf(value) - reference)) < 1e-15
        assert u2 >= u3

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
        value = gie_closed_form(fam)  # still computable; verified_domain flags it
        assert value > 0

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
        res = _numeric("sym_glems", a=1.5, kp=0.5)
        assert res.discrepancy < 2e-5
        assert res.eve_optimum == "homodyne x_E"
        assert res.extra["gate_min"] > GATE_LOWER_BOUND
        assert res.verified

    def test_low_noise_point(self):
        res = _numeric("sym_glems", a=1.1, kp=0.2)
        assert res.discrepancy < 2e-5

    def test_cv_ghz_through_pipeline(self):
        fam = make_family("cv_ghz", r=0.5)
        res = gie_numeric(fam, FAST)
        assert abs(res.numeric - GHZ_WORKED) < 2e-5

    def test_strongly_squeezed_cv_ghz_keeps_one_e_mode(self):
        # kx rounds off the GLEMS surface (the spectrum recomputed from (a, b, kx, kp)
        # has nu2 = 1 + 1.6e-9); the carried spectrum (nu, 1) keeps one E mode
        fam = make_family("cv_ghz", r=4.5)
        assert purify(fam.std).r_count == 1
        res = gie_numeric(fam, FAST)
        assert res.eve_optimum == "homodyne x_E"
        assert res.verified
        assert res.discrepancy < MINMAX_ATOL

    def test_gate_matches_a_50_digit_readout(self):
        # a b - kx^2 read as 2 det gamma / (D + sqrt(D^2 + 4 det gamma)): the gate read through
        # kx~ was off by 3.4e-7 here, and through sqrt(half^2 - det gamma) by up to 3e-8
        a, kp = 5.955034189330633, 5.29661995673705
        res = _numeric("sym_glems", a=a, kp=kp)
        phi, tau, t = np.array([params for params, _ in res.optimizer_trace]).T
        cms = _conditional_cms(purify(make_family("sym_glems", a=a, kp=kp).std), phi, _single_mode_seed(tau, t))
        assert abs(min(_g_50_digits(cm) for cm in cms) - res.extra["gate_min"]) < 1e-12

    def test_trace_records_candidates(self):
        res = _numeric("sym_glems", a=1.5, kp=0.5)
        values = [v for _, v in res.optimizer_trace]
        assert min(values) == res.numeric
        assert len(res.optimizer_trace) >= 4  # grid best, refined, 3 candidates


class TestNumericSymSqThermal:
    def test_worked_point(self):
        res = _numeric("sym_sq_thermal", a=1.2, k=0.5)
        assert abs(res.numeric - SQ_THERMAL_WORKED) < 2e-5
        assert res.eve_optimum == "homodyne x_EA p_EB"
        assert res.extra["sqrt_ab_max"] <= 1.2 + 1e-9

    def test_weakly_squeezed_point(self):
        res = _numeric("sym_sq_thermal", a=1.05, k=0.3)
        expected = np.log((0.75**2 + 1.0) / 1.5)
        assert np.isclose(res.closed_form, expected, atol=1e-12)
        assert abs(res.numeric - expected) < 2e-5

    def test_near_pure_state_purified_without_e_mode(self):
        # a^2 - k^2 - 1 = 1.3e-9, past states.FAMILY_ATOL; purify drops the E mode,
        # and that decides: the pure path, where every measurement of E ties
        a, k = 2.0, 1.7320508072
        assert purify(make_family("sym_sq_thermal", a=a, k=k).std).r_count == 0
        res = _numeric("sym_sq_thermal", a=a, k=k)
        assert res.eve_optimum == "heterodyne"
        assert res.verified and res.discrepancy < 1e-9

    def test_separable_states_run_the_search_and_gate(self, rng):
        # a - k >= 1 is separable: the K_h search still runs, and its minimum is f = 0
        worst = 0.0
        for _ in range(200):
            a = 1.0 + rng.random() * 8.0
            k = rng.random() * (a - 1.0)
            res = _numeric("sym_sq_thermal", a=a, k=k)
            assert res.closed_form == 0.0 and res.verified and len(res.optimizer_trace) >= 4
            assert res.extra["sqrt_ab_max"] <= a + SQRT_AB_SLACK
            worst = max(worst, abs(res.numeric))
        assert worst < 1e-14


class TestNumericAsymGlems:
    def test_worked_point(self):
        res = _numeric("asym_glems", a=2.0, b=1.5)
        assert abs(res.numeric - ASYM_WORKED) < 2e-5
        assert res.eve_optimum == "heterodyne"

    def test_swapped_purities_same_value(self):
        res = _numeric("asym_glems", a=1.5, b=2.0)
        assert abs(res.numeric - ASYM_WORKED) < 2e-5

    def test_product_boundary_vanishes(self):
        res = _numeric("asym_glems", a=2.0, b=1.0)
        assert res.closed_form == 0.0
        assert abs(res.numeric) < 1e-9

    def test_gate_min_is_g_of_the_lab_frame_conditional_forms(self):
        # G of the lab-frame conditional CM at each trace row, read at 50 digits:
        # no seed-frame kernel and no std_form_xx_det.  The reader has no sqrt(eps)
        # floor where the conditional form is isotropic (the heterodyne rows): it
        # was 1.05e-8 off at (1.1, 2.0) when it read sqrt(half^2 - det gamma)
        for a, b in ((2.0, 1.5), (1.5, 2.0), (2.9, 2.0), (5.0, 1.05), (1.1, 2.0), (3.0, 1.9)):
            res = _numeric("asym_glems", a=a, b=b)
            pi = purify_asym_glems(make_family("asym_glems", a=a, b=b))
            gates = []
            for (phi, tau, t), _ in res.optimizer_trace:
                ge = homodyne([phi + np.pi / 2.0]) if np.isinf(t) else general_single_mode(phi, tau, t)
                gates.append(_g_50_digits(condition_on_e(pi, ge).mat))
            assert abs(min(gates) - res.extra["gate_min"]) < 1e-12
            assert res.extra["gate_min"] >= 0.0 and res.verified

    def test_heterodyne_rows_read_one(self):
        # after the heterodyne on E the conditional form is isotropic (kx~ = kp~) with a~ b~ - kx~^2 = 1;
        # read through sqrt(half^2 - det gamma) these rows gave 0.99999997419
        fam = make_family("asym_glems", a=2.0, b=1.5)
        res = gie_numeric(fam, FAST)
        rows = [row for row in res.optimizer_trace if row[0][2] == 0.0]  # t = 0: grid best, descent end, heterodyne
        _, _, xx_det = _trace_forms(purify_asym_glems(fam), _single_mode_seed, rows)
        assert len(rows) == 3 and np.abs(xx_det - 1.0).max() < 1e-15

    def test_equal_purities_take_the_pure_path(self):
        # a = b is the pure state with k = sqrt(a^2 - 1); every measurement of E ties
        res = _numeric("asym_glems", a=1.5, b=1.5)
        assert res.eve_optimum == "heterodyne"
        assert res.extra == {}
        assert abs(res.numeric - np.log(1.5)) < 1e-12
        assert res.verified and res.discrepancy < 1e-12


class TestDispatch:
    @pytest.mark.parametrize("tag, params", [
        ("sym_glems", {"a": 1.5, "kp": 0.5}),
        ("cv_ghz", {"r": 0.5}),
        ("sym_sq_thermal", {"a": 1.2, "k": 0.5}),
        ("asym_glems", {"a": 2.0, "b": 1.5}),
    ])
    def test_gie_numeric_calls_the_family_step_through_the_module(self, monkeypatch, tag, params):
        # perfbench/spans.py traces the steps by patching these names in gielab.gie;
        # a dispatch that bypassed them would leave the traced layers at zero calls
        fam = make_family(tag, **params)
        calls = []
        monkeypatch.setattr(gielab.gie, f"gie_numeric_{fam.tag}", lambda *args: calls.append(args) or "recorded")
        assert gie_numeric(fam, FAST) == "recorded"
        assert calls == [(fam, FAST)]


class TestKh:
    def test_equal_spectrum_gives_unity(self):
        phi, lam = np.meshgrid((0.0, 0.4, 1.3, 3.0), (0.2, 1.0, 55.0))
        assert np.abs(k_h(phi, lam, lam, 1.2, 0.5) - 1.0).max() < 1e-12

    def test_reduced_matches_determinant_form(self, rng):
        draws = []
        for _ in range(300):
            a = 1.0 + rng.random() * 1.41
            lo, hi = max(a - 1.0, 0.0), np.sqrt(a * a - 1.0)
            k = lo + rng.random() * (hi - lo)
            if a * a - k * k <= 1.0 + 1e-9:
                continue
            lam = np.exp(rng.uniform(-3, 6, size=2))
            draws.append((rng.random() * np.pi, max(lam), min(lam), a, k))
        args = np.array(draws).T
        assert np.abs(k_h(*args) - k_h_determinant(*args)).max() < 1e-9

    def test_minimum_matches_closed_form(self):
        k_min, optimum, _ = minimize_kh(1.2, 0.5, FAST)
        assert np.isclose(k_min, 0.9360540674603174, atol=1e-6)
        assert optimum == "homodyne x_EA p_EB"  # dual-homodyne limit wins

    def test_grid_stage_evaluates_the_public_formula(self):
        for a, k in ((1.2, 0.5), (1.8, 1.1), (2.3, 1.0), (1.5, 0.3)):
            params, value = minimize_kh(a, k, FAST)[2][0]
            assert value == k_h(*params, a, k)

    def test_descent_that_hit_the_old_sweep_cap_ends_on_its_resolution(self, monkeypatch):
        # a probe-at-a-time Hooke-Jeeves search stopped here on a cap of 400 sweeps with f_min ~ 1.6e-9
        descend, polls = gielab.optimize.descend, []

        def checked(objective, x0, start_value, lows, highs, periods):
            x, value = descend(objective, x0, start_value, lows, highs, periods)
            x_ref, value_ref, outcomes, stopped_on_cap, _ = probe_at_a_time_descend(
                joined(objective), x0, lows, highs, periods
            )
            assert (x.tolist(), float(value)) == (x_ref.tolist(), float(value_ref))
            assert not stopped_on_cap
            polls.append(len(outcomes))
            return x, value

        monkeypatch.setattr(gielab.optimize, "descend", checked)
        a, k = 1.7356584694880974, 0.41199196834939183
        k_min, _, _ = minimize_kh(a, k, GridConfig(points=21))
        assert polls[0] < 50  # far below MAX_POLLS
        assert abs(0.5 * np.log(a * a / (a * a - k * k)) + 0.5 * np.log(k_min)) < 1e-14

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
        assert abs(k_h(np.pi / 2.0, np.inf, 0.0, a, k) - expected) < 1e-14

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            k_h(0.5, 1.0, 2.0, 1.2, 0.5)  # lambda2 > lambda1
        with pytest.raises(InvalidInputError):
            k_h(0.5, 1.0, 0.5, 1.2, 0.8)  # unphysical (a, k)

    @pytest.mark.filterwarnings("error")
    def test_the_determinant_oracle_rejects_the_rows_only_k_h_evaluates(self):
        # its seed blockdiag(Q, Q^-1) needs lambda1 finite and lambda2 > 0; k_h takes the exact limits
        for row in ((0.5, np.inf, 1.0), (0.5, 1.0, 0.0), (np.pi / 2.0, np.inf, 0.0)):
            with pytest.raises(InvalidInputError, match="lambda1 finite and lambda2 > 0"):
                k_h_determinant(*row, 1.2, 0.5)
            assert np.isfinite(k_h(*row, 1.2, 0.5))
        with pytest.raises(InvalidInputError):  # one such row rejects a stack
            k_h_determinant(np.array([0.5, 0.5]), np.array([2.0, 1.0]), np.array([1.0, 0.0]), 1.2, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_rows_where_e_squared_minus_f_squared_is_not_positive_are_rejected_first(self):
        # lambda1 = lambda2 = 0 is 0/0 in E and F, lambda1 = lambda2 = inf is inf/inf: both oracles
        # reject them in their shared checks, before any arithmetic can warn
        for row, need in (((0.3, 0.0, 0.0), "lambda1 > 0"), ((0.5, np.inf, np.inf), "lambda2 finite")):
            for oracle in (k_h, k_h_determinant):
                with pytest.raises(InvalidInputError, match=need):
                    oracle(*row, 1.5, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_k_h_is_the_searched_pair_at_the_logarithms(self):
        # k_h evaluates _kh_formula, which minimize_kh searches on (phi, ln lambda1, ln lambda2), at the
        # logarithms of its arguments; the stack holds the exact limit row and a row with lambda2 = 0
        rows = np.array([(1.8, 0.11, 0.07, 1.2, 0.5), (2.3, 6.49, 1.38, 1.2, 0.5), (2.7, 84.65, 79.17, 1.2, 0.5),
                         (1.9, 7.3, 1.1, 1.8, 1.1), (2.2, 0.45, 0.0, 2.3, 1.0), (np.pi / 2.0, np.inf, 0.0, 1.2, 0.5)])
        phi, l1, l2, a, k = rows.T
        with np.errstate(divide="ignore"):
            reference = kh_objective(a, k)(phi, np.log(l1), np.log(l2))
        assert _bits(k_h(phi, l1, l2, a, k)) == _bits(reference)


# (phi, lambda1, lambda2, a, k): Eve's Q with ln lambda in [-3, 6], and a physical (a, k)
# with a in [1, 3] and k = w sqrt(a^2 - 1), w in [0, 1]
KH_DRAWS = st.tuples(
    st.floats(0.0, np.pi, exclude_max=True), st.floats(-3.0, 6.0), st.floats(-3.0, 6.0),
    st.floats(1.0, 3.0), st.floats(0.0, 1.0),
).map(lambda d: (d[0], np.exp(max(d[1], d[2])), np.exp(min(d[1], d[2])), d[3], d[4] * np.sqrt(d[3] * d[3] - 1.0)))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestKhOnStacks:
    """``k_h``, ``k_h_determinant`` and ``_spectral_seed`` on stacks of (phi, lambda1, lambda2, a, k)."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(KH_DRAWS, min_size=1, max_size=8))
    def test_a_stack_equals_its_0d_calls(self, draws):
        args = np.array(draws).T
        assert _bits(k_h_determinant(*args)) == _bits([k_h_determinant(*row) for row in draws])
        # k_h also on the exact dual-homodyne row lambda1 = inf, lambda2 = 0
        rows = [*draws, (np.pi / 2.0, np.inf, 0.0, *draws[0][3:])]
        assert _bits(k_h(*np.array(rows).T)) == _bits([k_h(*row) for row in rows])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(KH_DRAWS, min_size=1, max_size=8))
    def test_spectral_seed_is_the_reordered_block_matrix(self, draws):
        phi, l1, l2, _, _ = np.array(draws).T
        for seed, row in zip(_spectral_seed(phi, l1, l2), zip(phi, l1, l2), strict=True):
            q = rotation(row[0]) @ np.diag(row[1:]) @ rotation(row[0]).T
            expected = XXPP.T @ np.block([[q, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(q)]]) @ XXPP
            # to 1e-12 of the draw's largest entry: inv(Q) itself is good to about cond(Q) ulps
            assert np.abs(seed - expected).max() <= 1e-12 * np.abs(expected).max()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(KH_DRAWS, min_size=1, max_size=8), st.data())
    def test_one_bad_element_rejects_the_stack(self, draws, data):
        args = np.array(draws).T  # rows phi, lambda1, lambda2, a, k
        i = data.draw(st.integers(0, len(draws) - 1))
        fault = data.draw(st.sampled_from(("phi", "lambda2 > lambda1", "a < 1", "k < 0", "a^2 - k^2 < 1")))
        if fault == "phi":
            args[0, i] = np.pi
        elif fault == "lambda2 > lambda1":
            args[2, i] = 2.0 * args[1, i]
        elif fault == "a < 1":
            args[3, i], args[4, i] = 0.5, 0.0
        elif fault == "k < 0":
            args[4, i] = -0.1
        else:
            args[4, i] = args[3, i]
        for oracle in (k_h, k_h_determinant):
            with pytest.raises(InvalidInputError):
                oracle(*args)


class TestFamilyFormulasOnSeparableEdges:
    """``gie_closed_form`` returns 0 on separable states through ``is_separable`` before
    any family formula runs; with that short-circuit off, each formula is itself 0 on
    its family's separable edge."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.0, 30.0))
    def test_each_formula_vanishes_on_its_edge(self, a):
        edges = (
            ("sym_glems", {"a": a, "kp": 0.0}),
            ("asym_glems", {"a": a, "b": 1.0}),
            ("asym_glems", {"a": 1.0, "b": a}),
            ("sym_sq_thermal", {"a": a, "k": a - 1.0}),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gielab.gie, "is_separable", lambda p: False)
            for tag, params in edges:
                fam = make_family(tag, **params)
                assert fam.tag == tag
                assert gie_closed_form(fam) == 0.0, (tag, params)

def every_objective(points, draws):
    """Each gielab objective's search at ``points`` on ``draws`` seeded points of every family.

    Per draw: ``gie_numeric`` of a sym_glems, an asym_glems and a
    sym_sq_thermal family (R = 1 ``f_xx`` twice, then K_h), then
    ``gcmi_numeric`` (u) of the sym_sq_thermal standard form.  Yields
    ``(reference, space, run)``: the objective's one-callable oracle, its
    ``SearchSpace`` (None for u, which ``gcmi_numeric`` searches without
    one) and a call that runs the search.
    """
    rng = np.random.default_rng(points)
    grid = GridConfig(points=points)
    for _ in range(draws):
        a, u, g, v = 1.0 + 5.0 * rng.random(), rng.random(), 1.0 + 1.41 * rng.random(), rng.random()
        half_log_ratio = (2.0 * v - 1.0) * np.log(g)
        k = (g - 1.0) + u * (np.sqrt(g * g - 1.0) - (g - 1.0))
        glems = make_family("sym_glems", a=a, kp=u * np.sqrt(a * a - 1.0))
        asym = make_family("asym_glems", a=g * np.exp(half_log_ratio), b=g * np.exp(-half_log_ratio))
        thermal = make_family("sym_sq_thermal", a=g, k=k)
        yield single_mode_objective(purify(glems.std)), SINGLE_MODE_SEARCH, partial(gie_numeric, glems, grid)
        yield single_mode_objective(purify_asym_glems(asym)), SINGLE_MODE_SEARCH, partial(gie_numeric, asym, grid)
        yield kh_objective(thermal.std.a, thermal.std.kx), KH_SEARCH, partial(gie_numeric, thermal, grid)
        yield u_objective(thermal.std), None, partial(gcmi_numeric, thermal.std, points)


def _same_bits(x, y) -> bool:
    return np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


def run_against_the_oracles(monkeypatch, points, draws):
    """Run ``every_objective`` with each split objective checked against its one-callable oracle.

    Every ``evaluate`` result of the grid stages and the descents must
    equal the oracle on the same rows, bit for bit, and so must the
    candidate values of each trace.  Per grid stage, ``prepare`` runs once,
    before the first slab; the slabs read in order are the oracle on the
    whole mesh; the best point and value are ``whole_mesh_argmin`` of the
    oracle; and the grid value, which starts the descent, is the value of
    the best point as one row, through the split objective and the oracle
    alike.  Returns the slab shapes of each grid stage and the mismatches.
    """
    grid_argmin, descend = gielab.optimize.grid_argmin, gielab.optimize.descend
    grids, mismatches, current = [], [], {}

    def checking(objective, calls, slabs):
        """``objective``, naming each call in ``calls`` and appending the values of each ``evaluate`` to ``slabs``."""
        prepare, evaluate = objective

        def checked_prepare(*rest):
            calls.append("prepare")
            return rest, prepare(*rest)

        def checked_evaluate(first, prepared):
            rest, terms = prepared
            values = evaluate(first, terms)
            calls.append("evaluate")
            slabs.append(values)
            if not _same_bits(values, current["reference"](first, *rest)):
                mismatches.append(("call", np.broadcast_shapes(np.shape(first), *(np.shape(r) for r in rest))))
            return values

        return checked_prepare, checked_evaluate

    def checked_grid(objective, axes):
        reference, calls, slabs = current["reference"], [], []
        best, value = grid_argmin(checking(objective, calls, slabs), axes)
        assert calls == ["prepare"] + ["evaluate"] * len(slabs)
        whole = reference(*np.meshgrid(*axes, indexing="ij", sparse=True, copy=False))
        if not _same_bits(np.concatenate(slabs), whole):
            mismatches.append(("slabs", [slab.shape for slab in slabs]))
        ref_best, ref_value = whole_mesh_argmin(reference, axes)
        assert (best.tolist(), value) == (ref_best.tolist(), ref_value)
        row = best[:, None]
        if not joined(objective)(*row)[0] == value == reference(*row)[0]:
            mismatches.append(("grid value", best.tolist(), value))
        grids.append([slab.shape for slab in slabs])
        return best, value

    def checked_descent(objective, *args):
        return descend(checking(objective, [], []), *args)

    for module in (gielab.optimize, gielab.information):
        monkeypatch.setattr(module, "grid_argmin", checked_grid)
        monkeypatch.setattr(module, "descend", checked_descent)
    for current["reference"], space, run in every_objective(points, draws):
        result = run()
        if space is not None:
            rows = gielab.optimize._layout(space, points)[3]
            if not _same_bits([value for _, value in result.optimizer_trace[2:]], current["reference"](*rows.T)):
                mismatches.append(("candidates", space.label))
    return grids, mismatches


class TestGridValueStartsTheDescent:
    # descend starts from the grid's value at its best point instead of evaluating that point again as
    # a 1-row array; the search path is the same only where both evaluations round alike
    @pytest.mark.parametrize("points", (5, 13, 21, 33, 45))
    def test_each_objective_gives_the_grid_value_on_the_grid_best_as_one_row(self, monkeypatch, points):
        grids, mismatches = run_against_the_oracles(monkeypatch, points, 4)
        assert len(grids) == 16  # f_xx of sym_glems and asym_glems, K_h, u
        assert mismatches == []


class TestGridSlabs:
    # grid_argmin prepares the trailing mesh of each split objective once and evaluates it in slabs of
    # the first axis (Eve's angle, or u's r_A), at most optimize.SLAB_POINTS mesh points per call; each
    # slab, descent call and candidate row must be the one-callable oracle's, bit for bit
    @pytest.mark.parametrize("points, budget", ((5, None), (13, None), (21, None), (33, None), (45, None), (13, 180)))
    def test_each_objective_gives_the_whole_mesh_values_slab_by_slab(self, monkeypatch, points, budget):
        if budget is not None:  # one row of phi per slab of a 13^3 mesh; u's 14^2 mesh in two slabs
            monkeypatch.setattr(gielab.optimize, "SLAB_POINTS", budget)
        grids, mismatches = run_against_the_oracles(monkeypatch, points, 3)
        assert mismatches == []
        assert len(grids) == 12  # f_xx of sym_glems and asym_glems, K_h, u
        sizes = [math.prod(shape) for shapes in grids for shape in shapes]
        assert max(sizes) <= gielab.optimize.SLAB_POINTS
        if budget is None and points <= 21:
            assert [len(shapes) for shapes in grids] == [1] * 12
        if points >= 33:  # the 3-D meshes split: 33^3 into 3 x 7 + 2 x 6 rows of phi, 45^3 into 9 x 4 + 3 x 3
            assert {len(shapes) for shapes in grids} == {1, {33: 5, 45: 12}[points]}
        if budget is not None:
            assert min(len(shapes) for shapes in grids) > 1


class TestChainedPolls:
    # one objective call of descend evaluates a poll, the poll at 1/8 of its step, which it reads
    # only after a miss, and a model row; on every gielab objective the calls follow the
    # probe-at-a-time reference row for row
    @pytest.mark.parametrize("points", (13, 33))
    def test_each_objective_follows_the_poll_per_call_descent(self, monkeypatch, points):
        polls_per_descent = []

        def checked(objective, x0, value, lows, highs, periods):
            x, val, outcomes = follow_poll_per_call(joined(objective), x0, value, lows, highs, periods)
            polls_per_descent.append(len(outcomes))
            return x, val

        monkeypatch.setattr(gielab.optimize, "descend", checked)
        monkeypatch.setattr(gielab.information, "descend", checked)
        rng = np.random.default_rng(points)
        for _ in range(3):
            a, u, g, v = 1.0 + 5.0 * rng.random(), rng.random(), 1.0 + 1.41 * rng.random(), rng.random()
            half_log_ratio = (2.0 * v - 1.0) * np.log(g)
            k = (g - 1.0) + u * (np.sqrt(g * g - 1.0) - (g - 1.0))
            for fam in (make_family("sym_glems", a=a, kp=u * np.sqrt(a * a - 1.0)),
                        make_family("asym_glems", a=g * np.exp(half_log_ratio), b=g * np.exp(-half_log_ratio)),
                        make_family("sym_sq_thermal", a=g, k=k)):
                gie_numeric(fam, GridConfig(points=points))
        # conditional forms whose u grid best is finite at grids 13 and 33, so gcmi_numeric descends
        for cond in (StdForm(a=2.73, b=2.95, kx=1.13, kp=1.1), StdForm(a=2.83, b=2.52, kx=0.56, kp=-0.55)):
            gcmi_numeric(cond, points)
        assert len(polls_per_descent) == 3 * 3 + 2  # f_xx of sym_glems and asym_glems, K_h, u
        assert min(polls_per_descent) > 1


def _sq_thermal_pi(a, k):
    return purify(make_family("sym_sq_thermal", a=a, k=k).std)


def _lab_frame_sqrt_ab(pi, ge):
    a_t, b_t, _, _ = std_form_params(condition_on_e(pi, ge))
    return np.sqrt(a_t * b_t)


def _kh_sqrt_ab(pi, points):
    """sqrt(a~ b~) that the sym_sq_thermal gate reads at each (phi, lambda1, lambda2) row."""
    a_t, b_t, _ = _trace_forms(pi, _kh_seed, [(q, 0.0) for q in points])
    return np.sqrt(a_t * b_t)


def _single_mode_pis():
    """R = 1 purifications: sym_glems points (one at large a) and an asym_glems point."""
    pis = [purify(make_family("sym_glems", a=a, kp=kp).std) for a, kp in ((1.5, 0.5), (4.196, 3.932))]
    return pis + [purify_asym_glems(make_family("asym_glems", a=2.0, b=1.5))]


class TestQFrameGate:
    """The gates' one trace reader, ``_trace_forms``, and its seed maps against the
    lab-frame inverse of gamma_E + seed."""

    STATES = ((1.2, 0.5), (1.8, 1.1), (2.3, 1.6), (1.05, 0.3))

    def test_limit_row_is_the_exact_dual_homodyne(self):
        for a, k in self.STATES:
            pi = _sq_thermal_pi(a, k)
            (value,) = _kh_sqrt_ab(pi, [(np.pi / 2.0, np.inf, 0.0)])
            assert abs(value - _lab_frame_sqrt_ab(pi, homodyne([0.0, np.pi / 2.0]))) < 1e-14

    def test_finite_rows_match_the_spectral_seed(self, rng):
        # R = 2: the seed blockdiag(Q, Q^{-1}) has seed-frame eigenvalues (l1, l2, 1/l1, 1/l2)
        for a, k in self.STATES:
            pi = _sq_thermal_pi(a, k)
            points = []
            for _ in range(20):
                lam = np.sort(np.exp(rng.uniform(-3.0, 3.0, size=2)))
                points.append((rng.random() * np.pi, lam[1], lam[0]))
            phi, l1, l2 = np.array(points).T
            cms = _conditional_cms(pi, phi, _kh_seed(l1, l2))
            seeds = _spectral_seed(phi, l1, l2)
            for seed_cm, cm, value in zip(seeds, cms, _kh_sqrt_ab(pi, points), strict=True):
                seed = FiniteMeasurement(CovMat(seed_cm))
                assert np.abs(cm - condition_on_e(pi, seed).mat).max() < 1e-12  # all ten entries
                assert abs(value - _lab_frame_sqrt_ab(pi, seed)) < 1e-12
        # R = 1: the seed P(phi) diag(tau e^{2t}, tau e^{-2t}) P(phi)^T
        for pi in _single_mode_pis():
            phi, tau, t = rng.random(20) * np.pi, 1.0 + 3.0 * rng.random(20), 2.0 * rng.random(20)
            cms = _conditional_cms(pi, phi, _single_mode_seed(tau, t))
            for row, cm in zip(zip(phi, tau, t), cms, strict=True):
                assert np.abs(cm - condition_on_e(pi, general_single_mode(*row)).mat).max() < 1e-12

    def test_gcmi_gate_on_general_rows(self, rng):
        # rows off Eve's optimum, where a~ != b~ (asym_glems), against the 50-digit
        # G of the lab-frame conditional CM; one row at a time, so each value shows
        for pi in _single_mode_pis():
            for _ in range(10):
                row = (rng.random() * np.pi, 1.0 + 3.0 * rng.random(), 2.0 * rng.random())
                exact = _g_50_digits(condition_on_e(pi, general_single_mode(*row)).mat)
                (gate,) = gcmi_condition_g(*_trace_forms(pi, _single_mode_seed, [(row, 0.0)]))
                assert abs(gate - exact) < 3e-8

    def test_single_mode_limit_rows_are_exact_homodynes(self):
        # t = inf gives s = (inf, 0): the homodyne on the quadrature at phi + pi/2
        phi = np.linspace(0.0, np.pi, 7, endpoint=False)
        for pi in _single_mode_pis():
            cms = _conditional_cms(pi, phi, (np.full_like(phi, np.inf), np.zeros_like(phi)))
            for angle, cm in zip(phi, cms, strict=True):
                assert np.abs(cm - condition_on_e(pi, homodyne([angle + np.pi / 2.0])).mat).max() < 1e-12

    def test_needs_gamma_e_proportional_to_identity(self):
        pi = _sq_thermal_pi(1.2, 0.5)
        squeeze = np.diag([2.0, 0.5, 1.0, 1.0])  # a local squeezer on the first E mode
        skewed = Purification(pi.gamma_ab, pi.gamma_abe @ squeeze, squeeze @ pi.gamma_e @ squeeze, 2)
        with pytest.raises(InvalidInputError):
            _trace_forms(skewed, _kh_seed, [((0.0, 1.0, 1.0), 0.0)])


# R = 1 points of both families; the first is the reproducer of the clipped angle
FRAME_POINTS = (
    ("sym_glems", {"a": 4.439548394722282, "kp": 2.4752861923197846}),
    ("sym_glems", {"a": 1.5, "kp": 0.5}),
    ("sym_glems", {"a": 2.5, "kp": 1.8}),
    ("sym_glems", {"a": 6.0, "kp": 4.0}),
    ("asym_glems", {"a": 1.8, "b": 1.2}),
    ("asym_glems", {"a": 1.3, "b": 3.0}),
)


class TestEveFrame:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FRAME_POINTS), st.floats(0.0, np.pi, exclude_max=True), st.sampled_from((13, 21, 33)))
    @example(FRAME_POINTS[0], 1.6504492800213837, 13)  # 2.80e-2 when the descent clipped phi to [0, pi]
    def test_the_optimum_does_not_depend_on_eves_frame(self, point, theta, points):
        """Purifications differ by a unitary on E, so the R = 1 minimum must not
        depend on the frame of Eve's mode: turned by theta, it still meets the
        closed form.  The label is not asserted.  In a turned frame the
        homodyne optimum lies at some phi and t = inf, which no exact
        candidate covers, so it is named ``general(phi=..., tau=1, t=8)``,
        the descent end at the squeezing bound, until the search has an
        exact homodyne face at every angle.
        """
        tag, params = point
        fam = make_family(tag, **params)
        pi = purify(fam.std) if tag == "sym_glems" else purify_asym_glems(fam)
        turned = Purification(pi.gamma_ab, pi.gamma_abe @ rotation(theta), pi.gamma_e, pi.r_count)
        res = _single_mode_numeric(fam, turned, GridConfig(points=points), lambda g: True)
        assert res.discrepancy <= MINMAX_ATOL


class TestDomainCorners:
    def test_sq_thermal_at_domain_boundary(self):
        res = _numeric("sym_sq_thermal", a=2.41, k=1.72)
        assert res.discrepancy < 2e-5
        assert res.verified
        assert res.eve_optimum == "homodyne x_EA p_EB"

    def test_asym_glems_near_domain_boundary(self):
        a, b = 2.9, 2.0  # sqrt(ab) = 2.408
        res = _numeric("asym_glems", a=a, b=b)
        assert res.discrepancy < 2e-5
        assert res.verified
        assert res.eve_optimum == "heterodyne"

    def test_strongly_asymmetric_glems_inside_domain(self):
        res = _numeric("asym_glems", a=5.0, b=1.05)  # sqrt(ab) = 2.29
        assert res.discrepancy < 2e-5
        assert res.verified

    def test_outside_domain_reported_but_unverified(self):
        res = _numeric("asym_glems", a=6.0, b=1.2)  # sqrt(ab) = 2.68
        assert not res.verified
        assert res.closed_form > 0 and np.isfinite(res.numeric)

    def test_near_pure_sym_glems(self):
        a = 1.5
        kp = 0.999 * np.sqrt(a * a - 1.0)
        res = _numeric("sym_glems", a=a, kp=kp)
        assert res.discrepancy < 2e-5


def _asym_at_sqrt_ab(g, x):
    return {"a": g ** (1.0 + x), "b": g ** (1.0 - x)}  # a/b = g^(2x), away from a = b


def _sq_thermal_between(a, x):
    lo, hi = a - 1.0, math.sqrt(a * a - 1.0)  # entangled, a^2 - k^2 >= 1
    return {"a": a, "k": lo + x * (hi - lo)}


# Each boundary maps a distance d to it and an interior coordinate x in
# [0.1, 0.9] to the family's parameters, so only the one boundary is near.
BOUNDARIES = {
    "sym_glems kp -> 0": ("sym_glems", lambda d, x: {"a": 1.0 + 5.0 * x, "kp": d}),
    "sym_glems a^2 - kp^2 -> 1": (
        "sym_glems", lambda d, x: {"a": 1.0 + 5.0 * x, "kp": math.sqrt((1.0 + 5.0 * x) ** 2 - 1.0 - d)},
    ),
    "sym_glems a -> 1": ("sym_glems", lambda d, x: {"a": 1.0 + d, "kp": x * math.sqrt((1.0 + d) ** 2 - 1.0)}),
    "asym_glems |a - b| -> 0": ("asym_glems", lambda d, x: {"a": 1.0 + 1.4 * x, "b": 1.0 + 1.4 * x + d}),
    "asym_glems sqrt(ab) -> 2.41": ("asym_glems", lambda d, x: _asym_at_sqrt_ab(2.41 - d, x)),
    "sym_sq_thermal a -> 2.41": ("sym_sq_thermal", lambda d, x: _sq_thermal_between(2.41 - d, x)),
    "sym_sq_thermal a - k -> 1": (
        "sym_sq_thermal", lambda d, x: {"a": 1.0 + 1.41 * x, "k": 1.41 * x + d},
    ),
    "sym_sq_thermal a^2 - k^2 -> 1": (
        "sym_sq_thermal", lambda d, x: {"a": 1.0 + 1.41 * x, "k": math.sqrt((1.0 + 1.41 * x) ** 2 - 1.0 - d)},
    ),
}


class TestBoundaryApproach:
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @settings(max_examples=40, deadline=None)
    @given(log_d=st.floats(-12.0, -3.0), x=st.floats(0.1, 0.9))
    def test_numeric_matches_closed_form_near_the_boundary(self, boundary, log_d, x):
        # labels are not asserted: which of two tied limits is named can
        # depend on the frame the purification picks
        tag, params_of = BOUNDARIES[boundary]
        res = gie_numeric(make_family(tag, **params_of(10.0 ** log_d, x)), FAST)
        assert res.discrepancy < MINMAX_ATOL
        assert res.verified


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


LARGE_A = st.floats(10.0, 1e4)


def _evaluates(fam):
    """gie_numeric at grid 13 with no error, a gap under MINMAX_ATOL, and
    verified wherever verified_domain holds."""
    res = gie_numeric(fam, FAST)
    assert res.discrepancy < MINMAX_ATOL
    assert res.verified or not verified_domain(fam)
    return res


class TestLargeA:
    """10 <= a <= 1e4, where the spectrum recomputed from (a, b, kx, kp) rounds off one."""

    @settings(max_examples=25, deadline=None)
    @given(a=LARGE_A)
    def test_pure(self, a):
        _evaluates(make_family("pure", a=a))

    @settings(max_examples=25, deadline=None)
    @given(a=LARGE_A, u=st.floats(0.05, 0.95))
    def test_sym_glems(self, a, u):
        res = _evaluates(make_family("sym_glems", a=a, kp=u * math.sqrt(a * a - 1.0)))
        assert res.verified and res.eve_optimum == "homodyne x_E"

    @settings(max_examples=25, deadline=None)
    @given(a=LARGE_A, w=st.floats(0.0, 1.0))
    @example(a=3650.5, w=1.0)  # the rounded edge k has a^2 - k^2 = 1 - 1.86e-9
    def test_sym_sq_thermal(self, a, w):
        # entangled for a - k < 1: k from a - 1 up to the pure edge sqrt(a^2 - 1), which
        # rounds outside the family for some a; step k down until exact arithmetic puts it inside
        k = (a - 1.0) + w * (math.sqrt(a * a - 1.0) - (a - 1.0))
        while Fraction(a) ** 2 - Fraction(k) ** 2 < 1:
            k = math.nextafter(k, 0.0)
        _evaluates(make_family("sym_sq_thermal", a=a, k=k))

    def test_sym_sq_thermal_edge_inside_the_family_evaluates(self):
        # a^2 - k^2 = 1 - 6.6e-11 exactly, inside FAMILY_ATOL; a * a - k * k rounds it to 1 - 1.2e-10
        a, k = 814.4886973076107, 814.4880834253186
        assert Fraction(a) ** 2 - Fraction(k) ** 2 > 1 - 1e-10
        res = _evaluates(make_family("sym_sq_thermal", a=a, k=k))
        assert res.verified and res.eve_optimum == "heterodyne"  # the pure-state path
        k_min, _, _ = minimize_kh(a, k, FAST)  # the K_h search reads a^2 - k^2 the same way
        assert abs(k_min - 1.0) < 1e-12

    def test_sym_glems_edge_inside_the_family_evaluates(self):
        # a^2 - kp^2 = 1 - 4.2e-11 exactly, inside FAMILY_ATOL; a * a - kp * kp rounds it to 1 - 1.2e-10
        a, kp = 838.6599231169192, 838.6593269274938
        assert Fraction(a) ** 2 - Fraction(kp) ** 2 > 1 - 1e-10
        res = _evaluates(make_family("sym_glems", a=a, kp=kp))
        assert res.verified and res.eve_optimum == "heterodyne"  # the pure-state path

    @settings(max_examples=25, deadline=None)
    @given(a=LARGE_A, b=st.floats(1.0, 1e4))
    def test_asym_glems(self, a, b):
        _evaluates(make_family("asym_glems", a=a, b=b))


class TestCvGhzRange:
    R_GRID = 0.05 * np.arange(1, 1801)  # (0, 90]

    def test_every_r_up_to_the_entry_cap(self):
        # make_family and classify hold up to STD_FORM_ENTRY_MAX (r ~ 86.7),
        # and gie_numeric while a <= 1e4 (r <= 4.95)
        raised = []
        for r in self.R_GRID:
            try:
                fam = make_family("cv_ghz", r=float(r))
            except InvalidInputError:
                raised.append(r)
                continue
            assert classify(fam.std).tag == "sym_glems"
            if fam.std.a <= 1e4:
                res = gie_numeric(fam, FAST)
                assert res.discrepancy < MINMAX_ATOL
                assert res.verified and res.eve_optimum == "homodyne x_E"
        assert raised[0] > 86.7 and raised == list(self.R_GRID[self.R_GRID >= raised[0]])

    def test_is_the_sym_glems_instance_of_its_a_and_kp(self):
        # one construction, which the closed form, GR2 and the Eve-side search all read
        for r in self.R_GRID[self.R_GRID < 86.75]:
            xp = (np.exp(2.0 * r) + 2.0 * np.exp(-2.0 * r)) / 3.0
            xm = (np.exp(-2.0 * r) + 2.0 * np.exp(2.0 * r)) / 3.0
            ghz = make_family("cv_ghz", r=float(r))
            glems = make_family("sym_glems", a=float(np.sqrt(xp * xm)), kp=float(np.sqrt(xp / xm) * (xm - xp)))
            assert ghz == glems and ghz.std.nus == glems.std.nus, r

    @pytest.mark.parametrize("r", [0.0, 1e-300, 1.4e-16, 3.5e-16, 1e-15, 5.271173393637379e-09, 1e-8])
    def test_weak_squeezing_evaluates(self, r):
        # the product xp xm rounds a below 1 at some r < 1e-8; a is exactly >= 1
        fam = make_family("cv_ghz", r=r)
        assert fam.std.a >= 1.0
        assert gie_numeric(fam, FAST).discrepancy < MINMAX_ATOL
        assert abs(gr2_of_family(fam) - gie_closed_form(fam)) < 1e-12

    def test_gr2_matches_a_50_digit_reference(self):
        # GR2 = ln[(nu + 1/nu)/2], nu^2 = (a - kx)(a - kp), of the exact state at 50 digits;
        # the a - kx that kx = a - 1/(a + kp) leaves grows off as eps a^2 (1.6e-8 at r = 5.5)
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        for r in 0.05 * np.arange(111):  # [0, 5.5]
            with mpmath.workdps(50):
                e2r = mpmath.exp(2 * mpmath.mpf(float(r)))
                xp, xm = (e2r + 2 / e2r) / 3, (1 / e2r + 2 * e2r) / 3
                a = mpmath.sqrt(xp * xm)
                nu = mpmath.sqrt((a - mpmath.sqrt(xm / xp) * (xm - xp)) * (a - mpmath.sqrt(xp / xm) * (xm - xp)))
                exact = mpmath.log((nu + 1 / nu) / 2) if nu < 1 else 0
                worst = max(worst, abs(float(gr2_of_family(make_family("cv_ghz", r=float(r))) - exact)))
        assert worst < 2e-8

    @pytest.mark.parametrize("r", [9.55, 40.0])
    def test_past_the_double_precision_limit_one_typed_error(self, r):
        # kx = a - 1/(a + kp) rounds to a from r = 9.55 (a ~ 9.3e7); RuntimeWarnings
        # are errors in this suite
        fam = make_family("cv_ghz", r=r)
        with pytest.raises(NumericalDegeneracyError, match="double-precision limit"):
            gie_numeric(fam, FAST)
        with pytest.raises(NumericalDegeneracyError, match="double-precision limit"):
            gr2_of_family(fam)


class TestVerifiedDomain:
    def test_boundaries(self):
        assert verified_domain(make_family("sym_sq_thermal", a=2.4, k=1.5))
        assert not verified_domain(make_family("sym_sq_thermal", a=2.42, k=1.6))
        assert verified_domain(make_family("asym_glems", a=2.3, b=2.5))
        assert not verified_domain(make_family("asym_glems", a=2.5, b=2.5 + 1e-6))
        assert verified_domain(make_family("sym_glems", a=5.0, kp=2.0))
        assert verified_domain(make_family("pure", a=40.0))
        # pure edges past the bound, where GIE = ln a is proven, and a mixed neighbour
        assert verified_domain(make_family("asym_glems", a=3.0, b=3.0))
        assert verified_domain(make_family("sym_sq_thermal", a=3.0, k=2.8284271247461903))
        assert not verified_domain(make_family("asym_glems", a=3.0, b=3.0 + 1e-9))

    def test_past_the_bound_holds_exactly_where_the_numeric_path_is_pure(self):
        # the pure path and verified_domain find purity alike, so both verdicts agree
        a = 3.0
        sq_thermal = [make_family("sym_sq_thermal", a=a, k=math.sqrt(a * a - 1.0) - gap)
                      for gap in (0.0, 1e-12, 3e-10, 1e-9, 1e-6)]
        asym = [make_family("asym_glems", a=a, b=b) for b in (a, a - 1e-12, a + 1e-9)]
        for fam, pi in [(f, purify(f.std)) for f in sq_thermal] + [(f, purify_asym_glems(f)) for f in asym]:
            res = gie_numeric(fam, FAST)
            assert verified_domain(fam) == res.verified == (pi.r_count == 0), fam
