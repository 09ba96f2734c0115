import numpy as np
import pytest

from gielab.errors import DimensionMismatchError, InvalidInputError, InvalidMeasurementError
from gielab.gie import SINGLE_MODE_SEARCH, _kh_seed, _single_mode_seed
from gielab.information import f_xx
from gielab.measurement import (
    FiniteMeasurement,
    condition_on_e,
    general_single_mode,
    heterodyne,
    homodyne,
    seed_frame_schur,
)
from gielab.purification import Purification, purify, purify_asym_glems
from gielab.states import make_family
from gielab.symplectic import CovMat, symplectic_eigenvalues
from oracles import Ccm, assemble_ccm, seed_frame_schur_loop

_, TAU_LOG_MAX, T_MAX = SINGLE_MODE_SEARCH.highs  # the R = 1 box edges: ln(tau) and t


def _pi(tag, **params):
    return purify(make_family(tag, **params).std)


class TestBuilders:
    def test_heterodyne_is_identity_seed(self):
        assert np.allclose(general_single_mode(0.0, 1.0, 0.0).seed.mat, np.eye(2))
        assert np.allclose(heterodyne(2).seed.mat, np.eye(4))

    def test_squeezed_seed_diagonal(self):
        seed = general_single_mode(0.0, 1.0, 5.0).seed.mat
        assert np.allclose(seed, np.diag([np.exp(10.0), np.exp(-10.0)]))

    def test_homodyne_p_is_limit_of_rotated_seed(self):
        # Gamma_p^t = diag(e^{2t}, e^{-2t}) measures p as t grows
        pi = _pi("sym_glems", a=1.5, kp=0.5)
        exact = condition_on_e(pi, homodyne([np.pi / 2])).mat
        approx = condition_on_e(pi, general_single_mode(0.0, 1.0, 9.0)).mat
        assert np.abs(exact - approx).max() < 1e-6

    def test_parameter_validation(self):
        with pytest.raises(InvalidMeasurementError):
            general_single_mode(0.0, 0.5, 1.0)
        with pytest.raises(InvalidMeasurementError):
            general_single_mode(0.0, 1.0, -0.2)
        for phi, tau, t in ((0.0, np.nan, 1.0), (np.inf, 1.0, 1.0), (np.inf, 1.0, np.inf)):
            with np.errstate(invalid="ignore"), pytest.raises(InvalidMeasurementError):
                general_single_mode(phi, tau, t)
        # t = inf is the exact limit: the homodyne on the quadrature at phi + pi/2
        assert general_single_mode(0.3, 2.0, np.inf) == homodyne([0.3 + np.pi / 2.0])

    def test_seeds_at_the_descent_box_edge_are_physical(self):
        # entries near e^16 leave the determinant of the assembled matrix off
        # by about 1e-2; tau >= 1 and t >= 0 give nu = tau exactly
        general_single_mode(0.807432061702533, 1.0005, 8.0)
        general_single_mode(10.0 * np.pi / 13.0, 1.0, T_MAX)  # an n = 13 grid angle
        for phi in np.linspace(0.0, np.pi, 2001):
            general_single_mode(phi, 1.0, T_MAX)

    def test_homodyne_angles_reduced_mod_pi(self):
        hom = homodyne([np.pi + 0.25])
        assert np.isclose(hom.angles[0], 0.25)

    def test_unphysical_seed_rejected(self):
        for nu in (0.5, 0.99):
            with pytest.raises(InvalidMeasurementError):
                FiniteMeasurement(CovMat(nu * np.eye(2)))


class TestAssembleCcm:
    def test_pure_state_has_no_e_block(self):
        pi = _pi("pure", a=3.0)
        ccm = assemble_ccm(pi, heterodyne(1), heterodyne(1), None)
        assert ccm.partition == (2, 2, 0)
        assert np.allclose(ccm.mat, pi.gamma_ab.mat + np.eye(4))

    def test_glems_heterodyne_delta_block(self):
        pi = _pi("sym_glems", a=1.5, kp=0.5)
        ccm = assemble_ccm(pi, heterodyne(1), heterodyne(1), heterodyne(1))
        assert ccm.partition == (2, 2, 2)
        assert np.allclose(ccm.mat[4:, 4:], (np.sqrt(2.5) + 1.0) * np.eye(2), atol=1e-12)

    def test_dimensions_track_r_count(self):
        pi = _pi("sym_sq_thermal", a=1.2, k=0.5)
        ccm = assemble_ccm(pi, heterodyne(1), heterodyne(1), heterodyne(2))
        assert ccm.mat.shape == (8, 8)  # (4 + 2R) x (4 + 2R)

    def test_mode_count_mismatch_rejected(self):
        pi = _pi("sym_sq_thermal", a=1.2, k=0.5)
        with pytest.raises(DimensionMismatchError):
            assemble_ccm(pi, heterodyne(1), heterodyne(1), heterodyne(1))

    def test_ccm_must_be_psd(self):
        with pytest.raises(InvalidInputError):
            Ccm(np.diag([1.0, -1.0]), (1, 1, 0))


class TestConditionOnE:
    def test_pure_state_unchanged(self):
        pi = _pi("pure", a=2.0)
        cond = condition_on_e(pi, heterodyne(1))
        assert np.array_equal(cond.mat, pi.gamma_ab.mat)

    def test_finite_t_converges_to_exact_homodyne(self):
        pi = _pi("sym_glems", a=1.5, kp=0.5)
        exact = condition_on_e(pi, homodyne([0.0])).mat
        approx = condition_on_e(pi, general_single_mode(np.pi / 2, 1.0, 8.0)).mat
        assert np.abs(exact - approx).max() < 1e-5

    def test_homodyne_gap_decays_exponentially(self):
        pi = _pi("sym_glems", a=1.8, kp=0.7)
        exact = condition_on_e(pi, homodyne([0.0])).mat
        gaps = []
        for t in (2.0, 3.0, 4.0, 5.0):
            approx = condition_on_e(pi, general_single_mode(np.pi / 2, 1.0, t)).mat
            gaps.append(np.abs(exact - approx).max())
        for i in range(len(gaps) - 1):
            assert gaps[i + 1] <= gaps[i] * np.exp(-2.0) * 1.5

    def test_conditional_stays_physical(self, rng):
        pi = _pi("sym_sq_thermal", a=1.3, k=0.6)
        for _ in range(25):
            phi = rng.random() * np.pi
            seeds = [general_single_mode(phi, 1.0 + rng.random(), 2 * rng.random()).seed.mat for _ in range(2)]
            ge = FiniteMeasurement(CovMat(np.block([
                [seeds[0], np.zeros((2, 2))],
                [np.zeros((2, 2)), seeds[1]],
            ])))
            cond = condition_on_e(pi, ge)
            assert symplectic_eigenvalues(cond).min() >= 1.0 - 1e-7


def _random_seed_params(rng, n=40):
    # t < 2 keeps the lab-frame oracles within 1e-14 of exact
    return rng.random(n) * np.pi, 1.0 + 2.0 * rng.random(n), 2.0 * rng.random(n)


def _xx_entries(cond: np.ndarray):
    return cond[0, 0], cond[2, 2], cond[0, 2]


KERNEL_STATES = (
    ("sym_glems", {"a": 2.0, "kp": 1.0}),
    ("sym_glems", {"a": 1.8, "kp": 0.7}),
    ("asym_glems", {"a": 1.8, "b": 1.3}),
    ("asym_glems", {"a": 1.9, "b": 1.3}),
    ("asym_glems", {"a": 1.2, "b": 2.3}),
)


def _kernel_pi(tag, params):
    return purify_asym_glems(make_family(tag, **params)) if tag == "asym_glems" else _pi(tag, **params)


UPPER_TRIANGLE = tuple((i, j) for i in range(4) for j in range(i, 4))


def _xx_kernel(pi):
    """(va, vb, c) at Eve's single-mode seed row (phi, tau, t), as the R = 1 objective reads them."""
    weights, kernel = seed_frame_schur(pi, ((0, 0), (2, 2), (0, 2)))
    return lambda phi, tau, t: kernel(phi, weights(_single_mode_seed(tau, t)))


def _r2_kernel(pi):
    """All ten entries at Eve's seed blockdiag(Q, Q^{-1}), Q = P diag(l1, l2) P^T, as the R = 2 gate reads them;
    the kernel takes one shape for all four seed eigenvalues, so a sparse mesh is broadcast first."""
    weights, kernel = seed_frame_schur(pi, UPPER_TRIANGLE)
    return lambda phi, l1, l2: kernel(phi, weights(np.broadcast_arrays(l1, l2, 1.0 / l1, 1.0 / l2)))


class TestSeedFrameKernel:
    """The seed-frame kernel against the general conditioning routes and a 50-digit reference."""

    def test_matches_the_assembled_ccm_oracle(self, rng):
        for tag, params in KERNEL_STATES:
            pi = _kernel_pi(tag, params)
            phis, taus, ts = _random_seed_params(rng)
            va, vb, c = _xx_kernel(pi)(phis, taus, ts)
            for i, (phi, tau, t) in enumerate(zip(phis, taus, ts)):
                # heterodyne on A and B adds the identity to their diagonal blocks
                ccm = assemble_ccm(pi, heterodyne(1), heterodyne(1), general_single_mode(phi, tau, t))
                oracle = ccm.conditional_ab() - np.eye(4)
                assert np.abs(np.subtract(_xx_entries(oracle), (va[i], vb[i], c[i]))).max() < 1e-12

    def test_infinite_t_rows_are_the_exact_homodynes(self, rng):
        # the seed measures the quadrature at phi + pi/2 once d_x = inf; the
        # two routes round differently, so they agree to a few ulp
        for tag, params in KERNEL_STATES:
            pi = _kernel_pi(tag, params)
            phis = np.concatenate([[np.pi / 2.0, 0.0], rng.random(8) * np.pi])
            values = f_xx(*_xx_kernel(pi)(phis, 1.0, np.inf))
            for phi, value in zip(phis, values):
                exact = f_xx(*_xx_entries(condition_on_e(pi, homodyne([phi + np.pi / 2.0])).mat))
                assert abs(value - exact) < 1e-15

    def test_broadcasts_and_is_elementwise(self, rng):
        # R = 1 with the three x-homodyne entries, R = 2 with all ten
        phis, taus, ts = _random_seed_params(rng, 6)
        lambdas = np.exp(rng.uniform(-6.0, 6.0, (2, 6)))
        inputs = (
            (_xx_kernel(_kernel_pi(*KERNEL_STATES[0])), (phis, taus, ts), 3),
            (_r2_kernel(_pi("sym_sq_thermal", a=1.3, k=0.6)), (phis, *lambdas), 10),
        )
        diagonal = np.arange(6)
        for kernel, axes, n_entries in inputs:
            full = kernel(*np.meshgrid(*axes, indexing="ij", sparse=True))
            assert len(full) == n_entries and all(x.shape == (6, 6, 6) for x in full)
            for i, j, k in ((0, 0, 0), (5, 2, 3), (1, 4, 5)):
                single = kernel(axes[0][i], axes[1][j], axes[2][k])
                assert all(x[i, j, k] == y for x, y in zip(full, single))
            # a scalar phi against array seeds
            row = kernel(axes[0][3], axes[1], axes[2])
            assert all(np.array_equal(x[3, diagonal, diagonal], y) for x, y in zip(full, row, strict=True))

    def test_needs_gamma_e_proportional_to_identity(self):
        pi = purify_asym_glems(make_family("asym_glems", a=1.8, b=1.3))
        squeeze = np.diag([2.0, 0.5])  # a local squeezer on E: the same state, gamma_E != nu I
        skewed = Purification(pi.gamma_ab, pi.gamma_abe @ squeeze, squeeze @ pi.gamma_e @ squeeze, 1)
        with pytest.raises(InvalidInputError):
            seed_frame_schur(skewed, ((0, 0),))

    def test_needs_one_seed_eigenvalue_per_e_axis(self):
        with pytest.raises(DimensionMismatchError):
            seed_frame_schur(_pi("pure", a=2.0), ((0, 0),))
        one_mode, _ = seed_frame_schur(_kernel_pi(*KERNEL_STATES[0]), ((0, 0),))
        with pytest.raises(DimensionMismatchError, match="needs 2 seed eigenvalues, got 4"):
            one_mode((1.0, 2.0, 3.0, 4.0))
        two_modes, _ = seed_frame_schur(_pi("sym_sq_thermal", a=1.3, k=0.6), ((0, 0),))
        with pytest.raises(DimensionMismatchError, match="needs 4 seed eigenvalues, got 2"):
            two_modes((1.0, 2.0))

    def test_box_edges_against_50_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        phis = np.concatenate([
            [0.0, np.pi / 2.0],
            *(np.linspace(0.0, np.pi, n, endpoint=False) for n in (13, 33)),
        ])
        for tag, params in KERNEL_STATES:
            pi = _kernel_pi(tag, params)
            kernel = _xx_kernel(pi)
            gamma_ab, gamma_abe, gamma_e = (mp.matrix(m.tolist()) for m in (pi.gamma_ab.mat, pi.gamma_abe, pi.gamma_e))
            worst = 0.0
            for log_tau in (0.0, TAU_LOG_MAX):
                tau = float(np.exp(log_tau))
                for t in (0.0, T_MAX):
                    values = f_xx(*kernel(phis, tau, t))
                    squeeze = mp.diag([mp.mpf(tau) * mp.exp(2 * mp.mpf(t)), mp.mpf(tau) * mp.exp(-2 * mp.mpf(t))])
                    for phi, value in zip(phis, values):
                        c, s = mp.cos(mp.mpf(phi)), mp.sin(mp.mpf(phi))
                        rot = mp.matrix([[c, -s], [s, c]])
                        seed = rot * squeeze * rot.T
                        cond = gamma_ab - gamma_abe * mp.inverse(gamma_e + seed) * gamma_abe.T
                        va, vb, cov = cond[0, 0], cond[2, 2], cond[0, 2]
                        exact = mp.log(va * vb / (va * vb - cov * cov)) / 2
                        worst = max(worst, abs(float(mp.mpf(value) - exact)))
            assert worst < 1e-14, (tag, params, worst)


class TestSeedFrameKernelBitForBit:
    """The one-pass kernel against the entry-by-entry loop of ``oracles``: equal, not close."""

    @staticmethod
    def _assert_identical(pi, entries, seed_map, *args):
        # the seed half takes its eigenvalues broadcast to one shape, the loop as the seed map gives them
        seeds = seed_map(*args[1:])
        weights, kernel = seed_frame_schur(pi, entries)
        new = kernel(args[0], weights(np.broadcast_arrays(*seeds)))
        old = seed_frame_schur_loop(pi, entries)(args[0], seeds)
        assert len(new) == len(old) == len(entries)
        for x, y in zip(new, old):
            assert np.shape(x) == np.shape(y)
            assert np.array_equal(x, y)

    @staticmethod
    def _inputs(rng, first, second, n=7):
        """(phi, first, second) as 1-D rows, a sparse 3-D mesh and a scalar phi against 1-D seeds."""
        axes = (rng.random(n) * np.pi, first(rng, n), second(rng, n))
        yield axes
        yield np.meshgrid(*axes, indexing="ij", sparse=True)
        yield (axes[0][2], axes[1], axes[2])

    def test_single_mode_eve_with_three_and_ten_entries(self, rng):
        taus = lambda rng, n: np.exp(rng.uniform(0.0, TAU_LOG_MAX, n))  # noqa: E731
        ts = lambda rng, n: np.append(rng.uniform(0.0, T_MAX, n - 1), 0.0)  # noqa: E731
        for state in (KERNEL_STATES[0], KERNEL_STATES[2], KERNEL_STATES[4]):  # purify and purify_asym_glems
            pi = _kernel_pi(*state)
            for entries in (((0, 0), (2, 2), (0, 2)), UPPER_TRIANGLE):
                for args in self._inputs(rng, taus, ts):
                    self._assert_identical(pi, entries, _single_mode_seed, *args)

    def test_two_mode_eve_with_ten_entries(self, rng):
        lambdas = lambda rng, n: np.exp(rng.uniform(-12.0, 24.0, n))  # noqa: E731
        for a, k in ((1.3, 0.6), (2.2, 1.9)):
            pi = _pi("sym_sq_thermal", a=a, k=k)
            for args in self._inputs(rng, lambdas, lambdas):
                self._assert_identical(pi, UPPER_TRIANGLE, _kh_seed, *args)

    def test_exact_limit_rows(self, rng):
        # t = inf is the single-mode homodyne (seeds (inf, 0)); lambda2 = 0 the dual homodyne (1/lambda2 = inf)
        phis = np.concatenate([[0.0, np.pi / 2.0], rng.random(5) * np.pi])
        for state in (KERNEL_STATES[0], KERNEL_STATES[2]):
            pi = _kernel_pi(*state)
            for entries in (((0, 0), (2, 2), (0, 2)), UPPER_TRIANGLE):
                self._assert_identical(pi, entries, _single_mode_seed, phis, np.ones(7), np.full(7, np.inf))
                self._assert_identical(pi, entries, _single_mode_seed, phis, 1.0, np.inf)
                self._assert_identical(pi, entries, _single_mode_seed, np.pi / 2.0, 1.0, np.inf)
        pi = _pi("sym_sq_thermal", a=1.3, k=0.6)
        self._assert_identical(pi, UPPER_TRIANGLE, _kh_seed, phis, np.full(7, np.inf), np.zeros(7))
        self._assert_identical(pi, UPPER_TRIANGLE, _kh_seed, phis, np.exp(rng.uniform(0.0, 9.0, 7)), np.zeros(7))
