from unittest import mock

import numpy as np
import pytest

from gielab import information
from gielab.errors import GielabError, InvalidInputError, NumericalDegeneracyError
from gielab.information import (
    SQUEEZE_MAX,
    _u_split,
    f_decomposed,
    f_xx,
    gcmi_condition_g,
    gcmi_numeric,
    mutual_information_f,
)
from gielab.measurement import FiniteMeasurement, general_single_mode, heterodyne, homodyne
from gielab.purification import Purification, purify
from gielab.states import StdForm, make_family, std_form_xx_det
from gielab.symplectic import CovMat
from oracles import assemble_ccm, joined, rotation, u_objective

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _pi(tag, **params):
    return purify(make_family(tag, **params).std)


def _g(p: StdForm):
    """GCMI gate of a standard form."""
    return gcmi_condition_g(p.a, p.b, p.a * p.b - p.kx * p.kx)


BRUTE_FORCE_ATOL = 1e-12  # nats between gcmi_numeric's descent and brute_force_u_min, which errs by about 1e-15


def brute_force_u_min(p: StdForm) -> float:
    """The least u of a 1201^2 grid on [0, SQUEEZE_MAX]^2 with both r = inf rows, refined around its
    best finite point three times by a 201^2 grid over the two cells on each side: spacing 8e-8 in r."""
    rs = np.append(np.linspace(0.0, SQUEEZE_MAX, 1201), np.inf)
    u = u_objective(p)
    mesh = u(rs[:, None], rs[None, :])
    least = float(mesh.min())
    i, j = np.unravel_index(np.argmin(mesh[:-1, :-1]), (1201, 1201))
    center, half = (rs[i], rs[j]), 2.0 * SQUEEZE_MAX / 1200
    for _ in range(3):
        ra, rb = (np.linspace(max(c - half, 0.0), min(c + half, SQUEEZE_MAX), 201) for c in center)
        zoom = u(ra[:, None], rb[None, :])
        k, m = np.unravel_index(np.argmin(zoom), zoom.shape)
        center, half, least = (ra[k], rb[m]), half / 50.0, min(least, float(zoom[k, m]))
    return least


def _random_finite_e(rng, r_count):
    """Product of random single-mode seeds on each of Eve's modes."""
    mat = np.zeros((2 * r_count, 2 * r_count))
    for j in range(r_count):
        seed = general_single_mode(rng.random() * np.pi, 1.0 + rng.random(), rng.random()).seed.mat
        mat[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = seed
    return FiniteMeasurement(CovMat(mat))


class TestMutualInformationF:
    def test_product_state_gives_zero(self):
        pi = purify(CovMat(np.diag([2.0, 2.0, 3.0, 3.0])))
        value = mutual_information_f(pi, heterodyne(1), heterodyne(1), heterodyne(pi.r_count))
        assert abs(value) < 1e-12

    def test_pure_tmsv_heterodyne(self):
        pi = _pi("pure", a=3.0)
        value = mutual_information_f(pi, heterodyne(1), heterodyne(1))
        assert np.isclose(value, np.log(2.0), atol=1e-12)  # ln((a+1)/2)

    def test_sym_glems_triple_homodyne_reaches_u3(self):
        pi = _pi("sym_glems", a=1.5, kp=0.5)
        value = mutual_information_f(pi, homodyne([0.0]), homodyne([0.0]), homodyne([0.0]))
        assert np.isclose(value, 0.05889151782819164, atol=1e-12)

    def test_invariant_under_joint_local_rotations(self, rng):
        fam = make_family("sym_sq_thermal", a=1.3, k=0.6)
        pi = _pi("sym_sq_thermal", a=1.3, k=0.6)
        base = mutual_information_f(pi, homodyne([0.2]), homodyne([1.1]), heterodyne(2))
        for _ in range(15):
            phi_a, phi_b = rng.random() * np.pi, rng.random() * np.pi
            s = np.zeros((4, 4))
            s[:2, :2] = rotation(phi_a)
            s[2:, 2:] = rotation(phi_b)
            rotated = Purification(
                CovMat(s @ pi.gamma_ab.mat @ s.T),
                s @ pi.gamma_abe,
                pi.gamma_e,
                pi.r_count,
            )
            value = mutual_information_f(
                rotated, homodyne([0.2 + phi_a]), homodyne([1.1 + phi_b]), heterodyne(2)
            )
            assert np.isclose(value, base, atol=1e-10)

    def test_degenerate_joint_ccm_raises(self):
        pi = purify(CovMat(np.eye(4)))
        bad = Purification(pi.gamma_ab, pi.gamma_abe, pi.gamma_e, 0)
        # zero-variance homodyne outcome on the vacuum is fine; force
        # degeneracy through a singular manual CCM instead
        with pytest.raises(NumericalDegeneracyError):
            mutual_information_f(
                Purification(CovMat(np.zeros((4, 4))), np.zeros((4, 0)), np.zeros((0, 0)), 0),
                homodyne([0.0]),
                homodyne([0.0]),
            )


class TestFHomodyne:
    def test_uncorrelated_gives_zero(self):
        assert f_xx(2.0, 2.0, 0.0) == 0.0

    def test_worked_point(self):
        assert np.isclose(f_xx(2.0, 2.0, 1.0), 0.5 * np.log(4.0 / 3.0), atol=1e-12)

    def test_symmetric_reduction_matches_g_form(self, rng):
        for _ in range(50):
            a = 1.0 + rng.random() * 2
            kx = 0.95 * rng.random() * (a - 1.0 / a)  # keeps a(a - kx) >= 1
            g = kx / a
            assert np.isclose(f_xx(a, a, kx), -np.log(np.sqrt(1.0 - g * g)), atol=1e-12)


class TestGcmi:
    def test_condition_examples(self):
        assert np.isclose(_g(StdForm(1.0, 1.0, 0.0, 0.0)), 2.0, atol=1e-14)
        assert np.isclose(_g(StdForm(2.0, 2.0, 1.0, 1.0)), 2.5 - np.sqrt(3.0), atol=1e-12)
        assert np.isclose(gcmi_condition_g(4.0, 1.0, 3.0), 3.0 - np.sqrt(3.0), atol=1e-14)
        with pytest.raises(InvalidInputError):
            gcmi_condition_g(2.0, 2.0, -1e-3)  # a b < kx^2

    def test_condition_broadcasts_over_a_stack(self, rng):
        mats = np.array([x @ x.T + np.eye(4) for x in rng.normal(size=(50, 4, 4))])
        a, b, xx_det = std_form_xx_det(mats)
        stacked = gcmi_condition_g(a, b, xx_det)
        assert stacked.shape == (50,)
        single = [gcmi_condition_g(*std_form_xx_det(m)) for m in mats]
        assert np.array_equal(stacked, single)
        # one form with a b < kx^2 in the stack raises for the whole stack
        with pytest.raises(InvalidInputError):
            gcmi_condition_g(a, b, np.append(xx_det[1:], -1e-3))

    def test_condition_bound_inside_241(self, rng):
        # sqrt(ab) <= 2.41 forces G >= 2 [1 - sinh(ln sqrt(ab))] >= 0
        count = 0
        while count < 300:
            a = 1.0 + rng.random() * 1.4
            b = 1.0 + rng.random() * 1.4
            if np.sqrt(a * b) > 2.41:
                continue
            kx = rng.random() * np.sqrt(max(a * b - 1, 0)) * 0.95
            try:
                p = StdForm(a, b, kx, rng.uniform(-kx, kx))
            except Exception:
                continue
            count += 1
            g = _g(p)
            s = np.log(np.sqrt(a * b))
            assert g >= 2.0 * (1.0 - np.sinh(s)) - 1e-12
            assert g >= -1e-12

    def test_u_endpoints(self):
        u = joined(_u_split(StdForm(2.0, 2.0, 1.0, -1.0)))
        assert np.isclose(u(0.0, 0.0), (1.0 - 1.0 / 9.0) ** 2, atol=1e-14)
        assert np.isclose(u(np.inf, np.inf), 0.75, atol=1e-14)

    def test_u_broadcasts_with_exact_infinite_limits(self):
        p = StdForm(2.0, 1.5, 1.0, 0.4)
        u = joined(_u_split(p))
        rs = np.array([0.0, 0.7, 3.0, 12.0, np.inf])
        ra, rb = np.meshgrid(rs, rs, indexing="ij")
        mesh = u(ra, rb)
        for i, j in np.ndindex(mesh.shape):
            assert mesh[i, j] == u(float(ra[i, j]), float(rb[i, j]))
        # an infinite squeezing leaves the first factor only
        assert np.array_equal(mesh[:, -1], 1.0 - p.kx * p.kx / ((p.a + np.exp(-2.0 * rs)) * p.b))
        assert np.array_equal(mesh[-1, :], 1.0 - p.kx * p.kx / (p.a * (p.b + np.exp(-2.0 * rs))))

    def test_uncorrelated_gcmi_vanishes(self):
        p = StdForm(1.7, 1.2, 0.0, 0.0)
        assert f_xx(p.a, p.b, p.kx) == 0.0
        assert gcmi_numeric(p, points=13) == 0.0

    def test_closed_form_branch_flagged(self):
        p = StdForm(2.0, 2.0, 1.0, 0.4)
        assert _g(p) >= 0.0
        assert np.isclose(f_xx(p.a, p.b, p.kx), 0.5 * np.log(4.0 / 3.0), atol=1e-12)

    def test_numeric_equals_closed_form_when_gate_holds(self, rng):
        for _ in range(60):
            a = 1.0 + rng.random() * 1.4
            b = 1.0 + rng.random() * 1.4
            kx = rng.random() * np.sqrt(max(a * b - 1, 0)) * 0.95
            try:
                p = StdForm(a, b, kx, rng.uniform(-kx, kx))
            except Exception:
                continue
            if _g(p) < 0:
                continue
            assert abs(gcmi_numeric(p, points=13) - f_xx(p.a, p.b, p.kx)) < 1e-6

    @pytest.mark.parametrize("points", (13, 21, 33))
    def test_the_descent_from_a_finite_grid_best_reaches_the_brute_force_minimum(self, points):
        # verify's GCMI check draws only G >= 0 forms, whose u grid best is the r = inf row, so it never
        # descends; where G < 0 the grid best can be finite, and then gcmi_numeric descends from it
        rng = np.random.default_rng(27)
        descended = 0
        for _ in range(400):  # about 1 draw in 15 has G < 0 and a finite grid best
            a, b, kx = rng.uniform(2.2, 3.6), rng.uniform(2.2, 3.6), rng.uniform(0.2, 1.4)
            try:
                p = StdForm(a, b, kx, rng.uniform(-kx, kx))
            except GielabError:
                continue
            if _g(p) >= 0.0:
                continue
            with mock.patch.object(information, "descend", wraps=information.descend) as descend:
                numeric = gcmi_numeric(p, points)
            if not descend.called:  # the grid best is an r = inf row
                continue
            descended += 1
            assert abs(numeric - -0.5 * np.log(brute_force_u_min(p))) < BRUTE_FORCE_ATOL
            assert numeric > f_xx(p.a, p.b, p.kx)  # the double homodyne is not optimal here
            if descended == 4:
                break
        assert descended == 4


class TestFDecomposed:
    def test_pure_state_has_no_eve_correction(self):
        pi = _pi("pure", a=2.5)
        i_ab, k_eab = f_decomposed(pi, heterodyne(1), heterodyne(1))
        assert k_eab == 0.0
        assert np.isclose(i_ab, mutual_information_f(pi, heterodyne(1), heterodyne(1)), atol=1e-12)

    def test_sq_thermal_homodyne_x_approximation(self):
        # I(A;B) at near-homodyne-x measurements approaches (1/2) ln(a^2/(a^2-k^2))
        pi = _pi("sym_sq_thermal", a=1.2, k=0.5)
        ga = general_single_mode(np.pi / 2, 1.0, 8.0)
        i_ab, _ = f_decomposed(pi, ga, ga, heterodyne(2))
        assert np.isclose(i_ab, 0.5 * np.log(1.44 / 1.19), atol=1e-5)

    def test_identity_on_random_inputs(self, rng):
        for tag, params in (
            ("sym_glems", {"a": 1.6, "kp": 0.6}),
            ("sym_sq_thermal", {"a": 1.25, "k": 0.55}),
            ("asym_glems", {"a": 1.8, "b": 1.3}),
        ):
            pi = _pi(tag, **params)
            for _ in range(30):
                ga = general_single_mode(rng.random() * np.pi, 1.0 + rng.random(), rng.random())
                gb = general_single_mode(rng.random() * np.pi, 1.0 + rng.random(), rng.random())
                ge = _random_finite_e(rng, pi.r_count)
                i_ab, k_eab = f_decomposed(pi, ga, gb, ge)
                total = mutual_information_f(pi, ga, gb, ge)
                assert abs(i_ab + k_eab - total) < 1e-9


class TestCcmRouteAgreement:
    def test_f_matches_assembled_ccm_schur_route(self, rng):
        # independent path: assemble the joint outcome CCM, Schur-complement
        # the E block, and take the determinant ratio directly
        for tag, params in (
            ("sym_glems", {"a": 1.6, "kp": 0.6}),
            ("sym_sq_thermal", {"a": 1.25, "k": 0.55}),
            ("asym_glems", {"a": 1.8, "b": 1.3}),
            ("pure", {"a": 2.1}),
        ):
            pi = _pi(tag, **params)
            for _ in range(20):
                ga = general_single_mode(rng.random() * np.pi, 1.0 + rng.random(), rng.random())
                gb = general_single_mode(rng.random() * np.pi, 1.0 + rng.random(), rng.random())
                # heterodyne and an arbitrary finite seed on E
                ges = (heterodyne(pi.r_count), _random_finite_e(rng, pi.r_count)) if pi.r_count else (None,)
                for ge in ges:
                    sigma = assemble_ccm(pi, ga, gb, ge).conditional_ab()
                    det = np.linalg.det
                    f_ccm = 0.5 * np.log(det(sigma[:2, :2]) * det(sigma[2:, 2:]) / det(sigma))
                    assert np.isclose(f_ccm, mutual_information_f(pi, ga, gb, ge), atol=1e-10)


class TestDeterminantIdentities:
    def test_sum_formula_two_by_two(self, rng):
        # det(P + Q) = det P + det Q + Tr(P J Q J^T) for symmetric 2x2
        for _ in range(100):
            p = rng.normal(size=(2, 2))
            p = p + p.T
            q = rng.normal(size=(2, 2))
            q = q + q.T
            lhs = np.linalg.det(p + q)
            rhs = np.linalg.det(p) + np.linalg.det(q) + np.trace(p @ J @ q @ J.T)
            assert np.isclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_rank_one_update_four_by_four(self, rng):
        # det(X + c r^T) = (1 + r^T X^{-1} c) det X
        for _ in range(100):
            x = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
            if abs(np.linalg.det(x)) < 1e-6:
                continue
            c = rng.normal(size=4)
            r = rng.normal(size=4)
            lhs = np.linalg.det(x + np.outer(c, r))
            rhs = (1.0 + r @ np.linalg.inv(x) @ c) * np.linalg.det(x)
            assert np.isclose(lhs, rhs, rtol=1e-10, atol=1e-8)
