import numpy as np
import pytest

from gielab.errors import (
    InvalidDimensionError,
    InvalidInputError,
    UnphysicalStateError,
)
from gielab.measurement import heterodyne
from gielab.purification import purify
from gielab.states import StdForm
from gielab.symplectic import (
    BEAM_SPLITTER,
    J2,
    SIGMA_Z,
    CovMat,
    std_form_symplectic_eigenvalues,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
from gielab.verify import _expm, random_physical_cm, random_symplectic
from oracles import XXPP, rotation

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def std_cm(a, b, kx, kp):
    return np.array(
        [
            [a, 0.0, kx, 0.0],
            [0.0, a, 0.0, -kp],
            [kx, 0.0, b, 0.0],
            [0.0, -kp, 0.0, b],
        ]
    )


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), J)

    def test_two_modes_direct_sum(self):
        omega = symplectic_form(2)
        assert np.array_equal(omega[:2, :2], J)
        assert np.array_equal(omega[2:, 2:], J)
        assert np.all(omega[:2, 2:] == 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_squares_to_minus_identity(self, n):
        omega = symplectic_form(n)
        assert np.allclose(omega @ omega, -np.eye(2 * n))

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidDimensionError):
            symplectic_form(0)

    def test_one_read_only_array_per_mode_count(self):
        assert symplectic_form(2) is symplectic_form(2)
        for mat in (symplectic_form(1), symplectic_form(2), J2, SIGMA_Z, BEAM_SPLITTER):
            assert not mat.flags.writeable


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(np.eye(4)), [1.0, 1.0])

    def test_worked_standard_form(self):
        nus = symplectic_eigenvalues(std_cm(1.5, 1.5, 1.0, 0.5))
        assert np.allclose(nus, [np.sqrt(2.5), 1.0], atol=1e-10)

    @pytest.mark.parametrize("r", [0.1, 0.7, 1.4])
    def test_pure_tmsv_unit_spectrum(self, r):
        a, k = np.cosh(2 * r), np.sinh(2 * r)
        nus = symplectic_eigenvalues(std_cm(a, a, k, k))
        assert np.allclose(nus, [1.0, 1.0], atol=1e-9)

    def test_rejects_asymmetric_input(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(InvalidInputError):
            symplectic_eigenvalues(bad)

    def test_reads_the_covmat_symmetry_gate(self):
        # asymmetry 1e-10 relative to the largest entry, 4.5: past CovMat's 1e-12
        bad = 3.0 * std_cm(1.5, 1.5, 1.0, 0.5)
        bad[0, 2] += 4.5e-10
        with pytest.raises(InvalidInputError, match="not symmetric"):
            symplectic_eigenvalues(bad)
        with pytest.raises(InvalidInputError, match="not symmetric"):
            williamson(bad)

    def test_closed_form_matches_generic_route(self, rng):
        for _ in range(200):
            mat = random_physical_cm(rng, scale=0.4)
            a, b, kx, kp = _invariant_params(mat)
            closed = std_form_symplectic_eigenvalues(a, b, kx, kp)
            generic = symplectic_eigenvalues(mat)
            assert np.allclose(generic, closed, atol=1e-10)

    def test_invariant_under_symplectic_conjugation(self, rng):
        for _ in range(100):
            mat = random_physical_cm(rng, scale=0.4)
            s = random_symplectic(rng, scale=0.4)
            before = symplectic_eigenvalues(mat)
            after = symplectic_eigenvalues(s @ mat @ s.T)
            assert np.allclose(before, after, atol=1e-8)

    def test_determinant_is_product_of_squares(self, rng):
        for _ in range(100):
            mat = random_physical_cm(rng, scale=0.4)
            nus = symplectic_eigenvalues(mat)
            assert np.isclose(np.linalg.det(mat), np.prod(nus**2), rtol=1e-8)


def _invariant_params(mat):
    """Standard-form invariants of a two-mode CM (test-local oracle)."""
    det_a = np.linalg.det(mat[:2, :2])
    det_b = np.linalg.det(mat[2:, 2:])
    det_c = np.linalg.det(mat[:2, 2:])
    det_g = np.linalg.det(mat)
    a, b = np.sqrt(det_a), np.sqrt(det_b)
    s = (det_a * det_b + det_c**2 - det_g) / (a * b)
    root = np.sqrt(max(s * s - 4 * det_c**2, 0.0))
    cx = np.sqrt(max((s + root) / 2, 0.0))
    cp = np.sqrt(max((s - root) / 2, 0.0))
    if det_c < 0:
        cp = -cp
    return a, b, cx, -cp


class TestWilliamson:
    def test_vacuum_identity(self):
        dec = williamson(np.eye(2))
        assert np.allclose(dec.s, np.eye(2))
        assert dec.nus == (1.0,)

    def test_asymmetric_squeezed_thermal_both_orders(self):
        for a, b in [(2.0, 1.5), (1.5, 2.0)]:
            k = np.sqrt((a + 1) * (b - 1)) if a >= b else np.sqrt((a - 1) * (b + 1))
            mat = std_cm(a, b, k, k)
            dec = williamson(mat)
            assert np.allclose(dec.s @ mat @ dec.s.T, dec.normal_form(), atol=1e-10)
            assert np.allclose(dec.nus, [1.5, 1.0], atol=1e-10)

    def test_random_cm_residuals(self, rng):
        omega = symplectic_form(2)
        for _ in range(100):
            mat = random_physical_cm(rng, scale=0.4)
            dec = williamson(mat)
            assert np.abs(dec.s @ mat @ dec.s.T - dec.normal_form()).max() < 1e-8
            assert np.abs(dec.s @ omega @ dec.s.T - omega).max() < 1e-9
            assert np.allclose(dec.inverse() @ dec.s, np.eye(4), atol=1e-12)
            assert not dec.s.flags.writeable
            assert dec.nus[0] >= dec.nus[1]

    @pytest.mark.parametrize("nu", [1.7, 1.0])
    def test_degenerate_spectrum_on_the_generic_route(self, rng, nu):
        # nu I seen through a random symplectic: the eigenvectors come from a
        # twofold-degenerate eigenspace
        omega = symplectic_form(2)
        for _ in range(20):
            s = random_symplectic(rng, scale=0.35)
            mat = nu * s @ s.T
            dec = williamson(mat)
            assert np.abs(np.subtract(dec.nus, nu)).max() < 1e-12
            assert np.abs(dec.s @ mat @ dec.s.T - dec.normal_form()).max() < 1e-8
            assert np.abs(dec.s @ omega @ dec.s.T - omega).max() < 1e-9

    def test_degenerate_spectrum(self):
        mat = std_cm(1.2, 1.2, 0.5, 0.5)  # nu1 = nu2 = sqrt(1.19)
        dec = williamson(mat)
        assert np.allclose(dec.nus, np.sqrt(1.19), atol=1e-12)
        assert np.abs(dec.s @ mat @ dec.s.T - dec.normal_form()).max() < 1e-10

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalStateError):
            williamson(0.5 * np.eye(4))

    @pytest.mark.parametrize("b", [1.0, 1.5])
    def test_unphysical_standard_forms_rejected_before_the_analytic_routes(self, b):
        # b = 1 is a symmetric standard form: as a matrix it meets williamson's
        # positivity gate, and as a StdForm it never reaches purify's analytic
        # frame; the suite turns a RuntimeWarning on the way into an error
        mat = std_cm(1.0, b, 2.0, 2.0)
        with pytest.raises(UnphysicalStateError):
            williamson(mat)
        with pytest.raises(UnphysicalStateError):
            purify(mat)
        with pytest.raises(UnphysicalStateError):
            purify(StdForm(1.0, b, 2.0, 2.0))


class TestExpm:
    def test_matches_a_50_digit_reference(self):
        # the Omega H draws of random_symplectic at the structural suite's scale
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        rng = np.random.default_rng(19)
        for _ in range(40):
            h = rng.normal(size=(4, 4))
            a = symplectic_form(2) @ (0.35 * (h + h.T))
            exact = np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=float)
            assert np.abs(_expm(a) - exact).max() < 1e-13 * np.abs(exact).max()


class TestBuilders:
    def test_rotation_zero_is_identity(self):
        assert np.allclose(rotation(0.0), np.eye(2))

    def test_balanced_beam_splitter_is_orthogonal(self):
        assert np.allclose(BEAM_SPLITTER @ BEAM_SPLITTER.T, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize(
        "mat",
        [rotation(0.3), BEAM_SPLITTER],
        # the ids earlier releases gave these cases, so per-test history stays comparable
        ids=["rotation-args0", "beam_splitter_balanced-args1"],
    )
    def test_builders_satisfy_symplectic_condition(self, mat):
        omega = symplectic_form(mat.shape[0] // 2)
        assert np.abs(mat @ omega @ mat.T - omega).max() < 1e-9

    def test_xxpp_reorder_is_permutation_not_symplectic(self):
        assert np.allclose(XXPP @ XXPP.T, np.eye(4))
        mat = np.diag([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(XXPP @ mat @ XXPP.T, np.diag([1.0, 3.0, 2.0, 4.0]))


class TestTypes:
    def test_covmat_requires_symmetry(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(InvalidInputError):
            CovMat(bad)

    def test_empty_matrix_is_a_typed_error(self):
        for build in (lambda: CovMat(np.zeros((0, 0))), lambda: heterodyne(0),
                      lambda: symplectic_eigenvalues(np.zeros((0, 0))), lambda: williamson(np.zeros((0, 0)))):
            with pytest.raises(InvalidInputError, match="n >= 1"):
                build()

    def test_covmat_is_readonly(self):
        cov = CovMat(np.eye(4))
        with pytest.raises(ValueError):
            cov.mat[0, 0] = 5.0
