import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gielab.errors import UnphysicalStateError, WrongFamilyError
from gielab.measurement import heterodyne
from gielab.information import mutual_information_f
from gielab.purification import PURITY_ATOL, Purification, _certified_pure, _checked_pure, purify, purify_asym_glems
from gielab.purification import _symmetric_williamson
from gielab.states import StdForm, make_family, std_form_cm
from gielab.symplectic import BEAM_SPLITTER, PHYSICAL_ATOL, CovMat, williamson
from gielab.verify import random_physical_cm

SIGMA_Z = np.diag([1.0, -1.0])  # the sign block of every purification's gamma_ABE


class TestPurify:
    def test_pure_tmsv_needs_no_extra_modes(self):
        pi = purify(std_form_cm(make_family("pure", a=2.0).std))
        assert pi.r_count == 0
        assert pi.gamma_abe.shape == (4, 0)

    def test_sym_glems_single_mode_environment(self):
        pi = purify(std_form_cm(make_family("sym_glems", a=1.5, kp=0.5).std))
        assert pi.r_count == 1
        assert np.allclose(pi.gamma_e, np.sqrt(2.5) * np.eye(2), atol=1e-12)

    def test_sym_sq_thermal_two_mode_environment(self):
        pi = purify(std_form_cm(make_family("sym_sq_thermal", a=1.2, k=0.5).std))
        assert pi.r_count == 2
        assert np.allclose(pi.gamma_e, np.sqrt(1.19) * np.eye(4), atol=1e-12)

    def test_purity_across_family_grid(self):
        # each family form on both routes: its analytic frame, and williamson of its CM
        for a in np.linspace(1.05, 3.0, 8):
            for frac in np.linspace(0.1, 0.9, 5):
                std = make_family("sym_glems", a=a, kp=frac * np.sqrt(a * a - 1.0)).std
                for gamma in (std, std_form_cm(std)):
                    pi = purify(gamma)
                    assert pi.r_count == 1 and pi.purity_defect() < 1e-7
        for a in np.linspace(1.05, 2.4, 8):
            for frac in np.linspace(0.1, 0.9, 5):
                std = make_family("sym_sq_thermal", a=a, k=frac * np.sqrt(a * a - 1.0)).std
                for gamma in (std, std_form_cm(std)):
                    pi = purify(gamma)
                    assert pi.r_count == 2 and pi.purity_defect() < 1e-7

    def test_symmetric_standard_form_uses_analytic_squeezers(self):
        # sym_glems (a, kp) = (1.5, 0.5) has kx = 1: the frame is (S_A + S_B) U_BS,
        # and the carried spectrum (sqrt(2.5), 1) gives one E mode
        pi = purify(make_family("sym_glems", a=1.5, kp=0.5).std)
        za, zb = 2.5**0.25, 4.0**0.25
        s = np.diag([1 / za, za, zb, 1 / zb]) @ BEAM_SPLITTER
        abe0 = np.vstack([np.sqrt(1.5) * SIGMA_Z, np.zeros((2, 2))])
        assert pi.r_count == 1
        assert np.allclose(pi.gamma_abe, np.linalg.solve(s, abe0), atol=1e-12)
        assert np.allclose(pi.gamma_e, np.sqrt(2.5) * np.eye(2), atol=1e-12)

    def test_ab_reduction_is_exact_copy(self, rng):
        mat = random_physical_cm(rng, scale=0.4)
        pi = purify(CovMat(mat))
        gamma_pi = pi.gamma_pi().mat
        assert np.array_equal(gamma_pi[:4, :4], pi.gamma_ab.mat)

    def test_random_cm_purity(self, rng):
        for _ in range(50):
            pi = purify(CovMat(random_physical_cm(rng, scale=0.4)))
            assert pi.purity_defect() < 1e-7

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalStateError):
            purify(CovMat(0.5 * np.eye(4)))


class TestPurifyAsymGlems:
    def test_blocks_for_a_greater_than_b(self):
        pi = purify_asym_glems(make_family("asym_glems", a=2.0, b=1.5))
        assert pi.r_count == 1
        assert np.allclose(pi.gamma_e, 1.5 * np.eye(2), atol=1e-14)
        assert np.allclose(pi.gamma_abe[:2], np.sqrt(1.5) * SIGMA_Z, atol=1e-14)
        assert np.allclose(pi.gamma_abe[2:], np.sqrt(0.5 * 0.5) * np.eye(2), atol=1e-14)
        assert pi.purity_defect() < 1e-7

    def test_blocks_for_a_less_than_b(self):
        pi = purify_asym_glems(make_family("asym_glems", a=1.5, b=2.0))
        assert np.allclose(pi.gamma_e, 1.5 * np.eye(2), atol=1e-14)
        assert np.allclose(pi.gamma_abe[:2], np.sqrt(0.5 * 0.5) * np.eye(2), atol=1e-14)
        assert np.allclose(pi.gamma_abe[2:], np.sqrt(0.5 * 3.0) * SIGMA_Z, atol=1e-14)
        assert pi.purity_defect() < 1e-7

    def test_b_equal_one_decouples_mode_b(self):
        pi = purify_asym_glems(make_family("asym_glems", a=2.0, b=1.0))
        assert np.allclose(pi.gamma_abe[2:], 0.0, atol=1e-14)

    def test_equal_purities_give_no_extra_mode(self):
        # a = b is the pure state with k = sqrt(a^2 - 1): nothing to purify
        pi = purify_asym_glems(make_family("asym_glems", a=1.7, b=1.7))
        assert pi.r_count == 0
        assert pi.gamma_abe.shape == (4, 0) and pi.gamma_e.shape == (0, 0)
        assert np.allclose(pi.gamma_ab.mat, std_form_cm(make_family("pure", a=1.7).std).mat, rtol=0.0, atol=1e-14)

    def test_other_families_rejected(self):
        with pytest.raises(WrongFamilyError):
            purify_asym_glems(make_family("sym_glems", a=1.5, kp=0.5))

    @pytest.mark.parametrize("a,b", [(2.0, 1.5), (1.5, 2.0), (1.3, 1.05), (2.2, 1.01)])
    def test_matches_generic_purification_under_heterodyne(self, a, b):
        # the two purifications differ by a symplectic on E only, so matched
        # measurements give identical conditional mutual information
        analytic = purify_asym_glems(make_family("asym_glems", a=a, b=b))
        generic = purify(analytic.gamma_ab)
        ga = gb = heterodyne(1)
        ge = heterodyne(1)
        f_analytic = mutual_information_f(analytic, ga, gb, ge)
        f_generic = mutual_information_f(generic, ga, gb, ge)
        assert abs(f_analytic - f_generic) < 1e-8


def _family_pi(tag, a, frac):
    """The family purification gielab searches at scale a and a second parameter read as a fraction of its range."""
    if tag == "asym_glems":
        return purify_asym_glems(make_family(tag, a=a, b=1.0 + frac * (a - 1.0)))
    k = frac * np.sqrt(a * a - 1.0)
    return purify(make_family(tag, **({"kp": k} if tag == "sym_glems" else {"k": k}), a=a).std)


class TestPurityCertificate:
    """``_checked_pure`` certifies purity from ||(Omega gamma)^2 + I||_F before any eigen-solve."""

    def test_a_scaled_e_block_still_raises(self):
        pi = purify_asym_glems(make_family("asym_glems", a=2.0, b=1.5))
        scaled = Purification(pi.gamma_ab, pi.gamma_abe, pi.gamma_e * (1.0 + 1e-6), 1)
        assert not _certified_pure(scaled)
        with pytest.raises(UnphysicalStateError, match="purification impure, spectrum defect"):
            _checked_pure(scaled)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(("sym_glems", "sym_sq_thermal", "asym_glems")),
        st.floats(1.01, 100.0),
        st.floats(0.05, 0.95),
        st.floats(-13.0, -5.0),
        st.sampled_from(("gamma_e", "gamma_abe")),
    )
    def test_never_passes_a_point_the_eigen_path_rejects(self, tag, a, frac, log_eps, block):
        pi = _family_pi(tag, a, frac)
        assert pi.r_count > 0 and _certified_pure(pi)  # every family purification up to a = 100
        blocks = {"gamma_e": pi.gamma_e, "gamma_abe": pi.gamma_abe}
        blocks[block] = blocks[block] * (1.0 + 10.0**log_eps)
        perturbed = Purification(pi.gamma_ab, blocks["gamma_abe"], blocks["gamma_e"], pi.r_count)
        if _certified_pure(perturbed):
            assert perturbed.purity_defect() <= PURITY_ATOL


def block_products(decomp, flip=False, plus=False):
    """gamma_ABE and gamma_E from the blocks sqrt(nu^2 - 1) SIGMA_Z and nu I, as products of 2x2 blocks.

    ``flip`` makes the -sqrt(nu^2 - 1) entry positive and ``plus`` takes
    sqrt(nu^2 + 1): either gives a purification that is not pure.
    """
    noisy = [i for i, nu in enumerate(decomp.nus) if nu > 1.0 + PHYSICAL_ATOL]
    abe0, gamma_e = np.zeros((4, 2 * len(noisy))), np.zeros((2 * len(noisy),) * 2)
    for col, i in enumerate(noisy):
        nu = decomp.nus[i]
        block = np.sqrt(nu**2 + (1.0 if plus else -1.0)) * (np.abs(SIGMA_Z) if flip else SIGMA_Z)
        abe0[2 * i : 2 * i + 2, 2 * col : 2 * col + 2] = block
        gamma_e[2 * col : 2 * col + 2, 2 * col : 2 * col + 2] = nu * np.eye(2)
    return decomp.inverse() @ abe0, gamma_e


def _routes():
    """(purify's input, its Williamson decomposition) on the analytic symmetric frame (R = 1, 2) and williamson's."""
    rng = np.random.default_rng(7)
    routes = []
    for std in (make_family("sym_glems", a=2.3, kp=1.4).std, make_family("sym_sq_thermal", a=2.1, k=1.3).std,
                make_family("sym_glems", a=40.0, kp=30.0).std, make_family("sym_sq_thermal", a=1.05, k=0.2).std):
        routes += [(std, _symmetric_williamson(std)), (std_form_cm(std), williamson(std_form_cm(std)))]
    for _ in range(6):
        cov = CovMat(random_physical_cm(rng, scale=0.4))
        routes.append((cov, williamson(cov)))
    return routes


class TestBlocksEntryByEntry:
    """``purify`` sets the blocks' entries directly; the 2x2 block products give the same bits."""

    @pytest.mark.parametrize("gamma,decomp", _routes())
    def test_purify_gives_the_block_products(self, gamma, decomp):
        pi = purify(gamma)
        gamma_abe, gamma_e = block_products(decomp)
        assert pi.r_count > 0
        assert np.array_equal(pi.gamma_abe, gamma_abe) and np.array_equal(pi.gamma_e, gamma_e)

    @pytest.mark.parametrize("a,b", [(2.0, 1.5), (1.5, 2.0), (1.8, 1.2), (2.2, 1.0), (1.0, 1.7), (9441.26, 3000.5)])
    def test_purify_asym_glems_gives_the_block_products(self, a, b):
        pi = purify_asym_glems(make_family("asym_glems", a=a, b=b))
        eye = np.eye(2)
        if a > b:
            gamma_abe = np.vstack([np.sqrt((a - b) * (a + 1.0)) * SIGMA_Z, np.sqrt((a - b) * (b - 1.0)) * eye])
        else:
            gamma_abe = np.vstack([np.sqrt((b - a) * (a - 1.0)) * eye, np.sqrt((b - a) * (b + 1.0)) * SIGMA_Z])
        assert np.array_equal(pi.gamma_abe, gamma_abe)
        assert np.array_equal(pi.gamma_e, (1.0 + abs(a - b)) * eye)

    @pytest.mark.parametrize("mutant", ("flip", "plus"))
    @pytest.mark.parametrize("gamma,decomp", _routes())
    def test_a_wrong_purification_still_fails(self, gamma, decomp, mutant):
        gamma_abe, gamma_e = block_products(decomp, **{mutant: True})
        cov = std_form_cm(gamma) if isinstance(gamma, StdForm) else gamma
        with pytest.raises(UnphysicalStateError, match="purification impure"):
            _checked_pure(Purification(cov, gamma_abe, gamma_e, gamma_e.shape[0] // 2))

    @pytest.mark.parametrize("a,b", [(2.0, 1.5), (1.5, 2.0), (1.8, 1.2)])
    def test_a_wrong_asym_glems_purification_still_fails(self, a, b):
        pi = purify_asym_glems(make_family("asym_glems", a=a, b=b))
        flipped = np.abs(pi.gamma_abe)  # the SIGMA_Z block's negative entry made positive
        with pytest.raises(UnphysicalStateError, match="purification impure"):
            _checked_pure(Purification(pi.gamma_ab, flipped, pi.gamma_e, 1))
