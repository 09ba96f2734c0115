import numpy as np
import pytest

from gielab.errors import GielabError, InvalidFamilyParamsError, InvalidInputError, UnphysicalStateError
from gielab.states import (
    FAMILY_PARAMS,
    StdForm,
    classify,
    is_separable,
    make_family,
    ppt_min_symplectic_eigenvalue,
    std_form_cm,
    std_form_xx_det,
)
from gielab.symplectic import CovMat, symplectic_eigenvalues
from oracles import rotation, std_form_params, to_std_form


def rotate_locally(gamma: CovMat, phi_a: float, phi_b: float) -> CovMat:
    """Conjugate a two-mode CM by local rotations P(phi_A) + P(phi_B)."""
    s = np.zeros((4, 4))
    s[:2, :2] = rotation(phi_a)
    s[2:, 2:] = rotation(phi_b)
    return CovMat(s @ gamma.mat @ s.T)


class TestStdFormCm:
    def test_vacuum(self):
        assert np.allclose(std_form_cm(StdForm(1, 1, 0, 0)).mat, np.eye(4))

    def test_worked_point_spectrum(self):
        cov = std_form_cm(StdForm(1.5, 1.5, 1.0, 0.5))
        assert np.allclose(symplectic_eigenvalues(cov), [np.sqrt(2.5), 1.0], atol=1e-10)

    def test_physical_isotropic_point(self):
        cov = std_form_cm(StdForm(1.2, 1.2, 0.5, 0.5))  # a^2 - k^2 = 1.19 >= 1
        assert symplectic_eigenvalues(cov).min() >= 1.0

    def test_unphysical_parameters_rejected(self):
        with pytest.raises(UnphysicalStateError):
            StdForm(1.2, 1.2, 0.8, 0.8)  # a^2 - k^2 = 0.8 < 1

    def test_sign_convention_enforced(self):
        with pytest.raises(InvalidInputError):
            StdForm(2.0, 2.0, 0.3, 0.9)


class TestToStdForm:
    def test_idempotent_on_standard_form(self):
        p = StdForm(1.5, 1.3, 0.6, 0.2)
        q = to_std_form(std_form_cm(p))
        for field in ("a", "b", "kx", "kp"):
            assert np.isclose(getattr(q, field), getattr(p, field), atol=1e-10)

    def test_recovers_after_local_rotations(self, rng):
        for _ in range(100):
            a = 1.0 + rng.random() * 2
            b = 1.0 + rng.random() * 2
            kx = rng.random() * np.sqrt(max(a * b - 1, 0)) * 0.9
            kp = rng.uniform(-kx, kx)
            try:
                p = StdForm(a, b, kx, kp)
            except UnphysicalStateError:
                continue
            rotated = rotate_locally(std_form_cm(p), rng.random() * np.pi, rng.random() * np.pi)
            q = to_std_form(rotated)
            assert np.isclose(q.a, p.a, atol=1e-8)
            assert np.isclose(q.b, p.b, atol=1e-8)
            assert np.isclose(q.kx, p.kx, atol=1e-8)
            assert np.isclose(q.kp, p.kp, atol=1e-8)

    def test_conditioned_two_mode_squeezer_state(self):
        # delta_AB|E assembled from the conditional variances of a squeezed
        # pair must reduce to the closed-form tilde parameters
        a, b = 2.0, 1.5
        x_sq = (a + 1) / (a - b + 2)
        y_sq = (b - 1) / (a - b + 2)
        nu_tilde = 1 + a - b
        vx, vp = 3.0, 1.5
        cvx = (nu_tilde * vx + 1) / (nu_tilde + vx)
        cvp = (nu_tilde * vp + 1) / (nu_tilde + vp)
        delta = np.diag(
            [x_sq * cvx + y_sq, x_sq * cvp + y_sq, y_sq * cvx + x_sq, y_sq * cvp + x_sq]
        )
        xy = np.sqrt(x_sq * y_sq)
        delta[0, 2] = delta[2, 0] = xy * (cvx + 1)
        delta[1, 3] = delta[3, 1] = -xy * (cvp + 1)
        q = to_std_form(delta)
        lam_a = ((x_sq * cvx + y_sq) / (x_sq * cvp + y_sq)) ** 0.25
        lam_b = ((y_sq * cvx + x_sq) / (y_sq * cvp + x_sq)) ** 0.25
        assert np.isclose(q.a, np.sqrt((x_sq * cvx + y_sq) * (x_sq * cvp + y_sq)), atol=1e-10)
        assert np.isclose(q.b, np.sqrt((y_sq * cvx + x_sq) * (y_sq * cvp + x_sq)), atol=1e-10)
        assert np.isclose(q.kx, xy * (cvx + 1) / (lam_a * lam_b), atol=1e-10)
        assert np.isclose(q.kp, xy * (cvp + 1) * lam_a * lam_b, atol=1e-10)


    def test_a_stack_gives_the_single_matrix_bits(self, rng):
        # random CMs, plus standard forms whose kx or kp is zero
        mats = [x @ x.T + np.eye(4) for x in rng.normal(size=(50, 4, 4))]
        pairs = ((0.0, 0.0), (0.3, 0.0), (0.3, 0.2))
        mats += [std_form_cm(StdForm(1.5, 1.5, kx, kp)).mat for kx, kp in pairs]
        stacked = np.array(std_form_xx_det(np.array(mats))).T
        single = np.array([std_form_xx_det(m) for m in mats])
        assert np.array_equal(stacked, single)

    def test_xx_det_matches_the_standard_form(self, rng):
        # a b - kx^2 without the cancellation of a b against kx^2
        mats = np.array([x @ x.T + np.eye(4) for x in rng.normal(size=(50, 4, 4))])
        a, b, kx, _ = np.array([std_form_params(m) for m in mats]).T
        a_x, b_x, xx_det = std_form_xx_det(mats)
        assert np.array_equal(a_x, a) and np.array_equal(b_x, b)
        assert np.allclose(xx_det, a * b - kx * kx, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("mat", (
        # positive local and total determinants, a b - kx^2 = a b - kp^2 = -3: not positive definite
        [[1, 0, 2, 0], [0, 1, 0, -2], [2, 0, 1, 0], [0, -2, 0, 1]],
        # det gamma = (1 - 9)(1 - 0.25) = -6
        [[1, 0, 3, 0], [0, 1, 0, 0.5], [3, 0, 1, 0], [0, 0.5, 0, 1]],
        # det gamma = 0: a b = kx^2
        [[1, 0, 1, 0], [0, 1, 0, 0.5], [1, 0, 1, 0], [0, 0.5, 0, 1]],
    ), ids=("both-negative", "det-negative", "det-zero"))
    def test_a_gamma_that_is_not_positive_definite_raises(self, mat):
        mat = np.array(mat, dtype=float)
        with pytest.raises(UnphysicalStateError, match="not both positive"):
            std_form_xx_det(mat)
        physical = std_form_cm(StdForm(1.5, 1.5, 0.3, 0.2)).mat
        with pytest.raises(UnphysicalStateError):  # one such CM rejects a stack
            std_form_xx_det(np.array([physical, mat]))

    def test_the_sign_test_passes_every_positive_definite_gamma(self, rng):
        # nearly pure forms too: a b - kx^2 of a squeezed vacuum is 1 however large a is
        mats = [x @ x.T + 1e-6 * np.eye(4) for x in rng.normal(size=(200, 4, 4))]
        mats += [std_form_cm(make_family("pure", a=a).std).mat for a in (1.0, 3.0, 1e3, 1e6)]
        _, _, xx_det = std_form_xx_det(np.array(mats))
        assert (xx_det > 0.0).all()


class TestSeparability:
    def test_entangled_isotropic_point(self):
        p = StdForm(1.2, 1.2, 0.5, 0.5)
        assert not is_separable(p)
        assert np.isclose(ppt_min_symplectic_eigenvalue(p), 0.7, atol=1e-12)

    def test_vacuum_separable(self):
        assert is_separable(StdForm(1, 1, 0, 0))

    def test_symmetric_criterion_boundary(self):
        # (a - k)^2 = 4 >= 1: separable
        assert is_separable(StdForm(3.0, 3.0, 1.0, 1.0))

    def test_agrees_with_symmetric_inequality(self, rng):
        for _ in range(300):
            a = 1.0 + rng.random() * 2
            kx = rng.random() * np.sqrt(max(a * a - 1, 0))
            kp = rng.uniform(0, kx)
            try:
                p = StdForm(a, a, kx, kp)
            except UnphysicalStateError:
                continue
            criterion = (a - kx) * (a - kp) >= 1.0
            assert is_separable(p) == criterion

    def test_positive_correlations_short_circuit(self):
        # kp < 0 means both correlation signs agree: separable outright
        assert is_separable(StdForm(2.0, 2.0, 1.0, -1.0))

    def test_invariant_under_local_rotations(self, rng):
        p = StdForm(1.4, 1.1, 0.4, 0.25)  # physical (nu2 = 1.04), PPT-entangled
        expected = is_separable(p)
        for _ in range(20):
            rotated = rotate_locally(std_form_cm(p), rng.random() * np.pi, rng.random() * np.pi)
            assert is_separable(to_std_form(rotated)) == expected


class TestMakeFamily:
    @pytest.mark.parametrize("tag, params, nus", [
        ("pure", {"a": 2.5}, (1.0, 1.0)),
        ("sym_glems", {"a": 1.5, "kp": 0.5}, (np.sqrt(2.5), 1.0)),
        ("sym_sq_thermal", {"a": 1.2, "k": 0.5}, (np.sqrt(1.19), np.sqrt(1.19))),
        ("asym_glems", {"a": 2.0, "b": 1.5}, (1.5, 1.0)),
        ("asym_glems", {"a": 1.5, "b": 2.0}, (1.5, 1.0)),
        ("cv_ghz", {"r": 0.5}, None),
    ])
    def test_carries_its_exact_spectrum(self, tag, params, nus):
        std = make_family(tag, **params).std
        if nus is None:  # CV GHZ: the third mode's a is the one noisy eigenvalue
            nus = (std.a, 1.0)
        assert std.nus == pytest.approx(nus, abs=1e-15)
        assert np.allclose(std.nus, symplectic_eigenvalues(std_form_cm(std)), atol=1e-9)
        # a form from the same four entries computes its own, and compares equal
        alone = StdForm(std.a, std.b, std.kx, std.kp)
        assert alone == std
        assert np.allclose(alone.nus, std.nus, atol=1e-9)

    def test_large_a_keeps_the_unit_spectrum(self):
        # the rounded k = sqrt(a^2 - 1) recomputes nu2 = 0.99999988 here
        std = make_family("pure", a=43677.390246059265).std
        with pytest.raises(UnphysicalStateError, match="nu2 = 0.99999988"):
            StdForm(std.a, std.b, std.kx, std.kp)
        assert std.nus == (1.0, 1.0)
        assert classify(std).tag == "pure"

    def test_sym_glems_constraint(self):
        fam = make_family("sym_glems", a=1.5, kp=0.5)
        assert np.isclose(fam.std.kx, 1.0, atol=1e-12)  # a - 1/(a + kp)
        nus = symplectic_eigenvalues(std_form_cm(fam.std))
        assert abs(nus[1] - 1.0) < 1e-9

    def test_asym_glems_coupling(self):
        fam = make_family("asym_glems", a=2.0, b=1.5)
        assert np.isclose(fam.std.kx, np.sqrt(1.5), atol=1e-12)
        nus = symplectic_eigenvalues(std_form_cm(fam.std))
        assert abs(nus[1] - 1.0) < 1e-10

    def test_asym_glems_lower_branch(self):
        fam = make_family("asym_glems", a=1.5, b=2.0)
        assert np.isclose(fam.std.kx, np.sqrt(0.5 * 3.0), atol=1e-12)
        nus = symplectic_eigenvalues(std_form_cm(fam.std))
        assert abs(nus[1] - 1.0) < 1e-10

    def test_cv_ghz_zero_squeezing_is_vacuum(self):
        fam = make_family("cv_ghz", r=0.0)
        assert fam.tag == "sym_glems"
        for field, want in (("a", 1.0), ("b", 1.0), ("kx", 0.0), ("kp", 0.0)):
            assert np.isclose(getattr(fam.std, field), want, atol=1e-12)

    def test_cv_ghz_is_glems(self):
        for r in (0.2, 0.5, 1.1):
            fam = make_family("cv_ghz", r=r)
            nus = symplectic_eigenvalues(std_form_cm(fam.std))
            assert abs(nus[1] - 1.0) < 1e-9

    @pytest.mark.parametrize("r", [100.0, 200.0, 400.0])
    def test_cv_ghz_past_the_float_range_raises_without_warnings(self, r):
        # RuntimeWarnings are errors here: the entries pass 1e75 from r ~ 87,
        # e^{2r} e^{2r} overflows from r ~ 177 and e^{2r} from r ~ 355
        with pytest.raises(GielabError):
            make_family("cv_ghz", r=r)

    def test_pure_family_unit_spectrum(self):
        fam = make_family("pure", a=2.5)
        nus = symplectic_eigenvalues(std_form_cm(fam.std))
        assert np.allclose(nus, 1.0, atol=1e-9)

    def test_constraint_violations_rejected(self):
        with pytest.raises(InvalidFamilyParamsError):
            make_family("sym_glems", a=1.1, kp=0.9)  # a^2 - kp^2 < 1
        with pytest.raises(InvalidFamilyParamsError):
            make_family("sym_sq_thermal", a=1.2, k=0.8)
        with pytest.raises(InvalidFamilyParamsError):
            make_family("asym_glems", a=0.9, b=1.5)
        with pytest.raises(InvalidFamilyParamsError):
            make_family("cv_ghz", r=-0.1)
        with pytest.raises(InvalidFamilyParamsError):
            make_family("unknown", a=1.0)

    @pytest.mark.parametrize("tag, params", [
        ("sym_glems", {"a": 2.0}),  # kp missing
        ("sym_glems", {"a": 2.0, "kp": 0.5, "b": 1.5}),  # b is not a sym_glems scalar
        ("pure", {"a": 2.0, "k": 1.0}),
        ("cv_ghz", {"a": 2.0}),
    ])
    def test_missing_or_unknown_scalar_names_the_expected_ones(self, tag, params):
        with pytest.raises(InvalidFamilyParamsError, match=", ".join(FAMILY_PARAMS[tag])):
            make_family(tag, **params)


class TestClassify:
    def test_families_round_trip(self):
        assert classify(make_family("pure", a=2.0).std).tag == "pure"
        assert classify(make_family("sym_glems", a=1.5, kp=0.5).std).tag == "sym_glems"
        assert classify(make_family("sym_sq_thermal", a=1.2, k=0.5).std).tag == "sym_sq_thermal"
        assert classify(make_family("asym_glems", a=2.0, b=1.5).std).tag == "asym_glems"

    def test_generic_catchall(self):
        assert classify(StdForm(2.0, 1.4, 0.6, 0.3)).tag == "generic"
