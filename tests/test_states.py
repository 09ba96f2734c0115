import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gielab.errors import GielabError, InvalidFamilyParamsError, InvalidInputError, UnphysicalStateError
from gielab.gie import _conditional_cms, _kh_seed, _single_mode_seed
from gielab.purification import purify, purify_asym_glems
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
from gielab.verify import random_physical_cm
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


def vectorized_xx_det(gamma):
    """The elementwise form of ``std_form_xx_det`` on the whole stack, the bit reference of its row loop."""
    mat = gamma.mat if isinstance(gamma, CovMat) else np.asarray(gamma, dtype=float)
    if mat.shape[-2:] != (4, 4):
        raise InvalidInputError(f"expected a two-mode covariance matrix, got {mat.shape}")
    det = np.linalg.det
    det_a, det_b, det_g = det(mat[..., :2, :2]), det(mat[..., 2:, 2:]), det(mat)
    if ((det_a <= 0.0) | (det_b <= 0.0)).any():
        raise UnphysicalStateError("local block determinant is not positive")
    a, b = np.sqrt(det_a), np.sqrt(det_b)
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = (
        [mat[..., i, j] for j in range(4)] for i in range(4))
    # adj(A + a I) C adj(B + b I) = [[p, q], [r, s]] sqrt(a (tr A + 2a) b (tr B + 2b)), the adjugates' diagonals first
    pa, pd, qa, qd = a11 + a, a00 + a, b11 + b, b00 + b
    x00, x01, x10, x11 = c00 * qa - c01 * b10, c01 * qd - c00 * b01, c10 * qa - c11 * b10, c11 * qd - c10 * b01
    p, q, r, s = pa * x00 - a01 * x10, pa * x01 - a01 * x11, pd * x10 - a10 * x00, pd * x11 - a10 * x01
    scale = a * (pa + pd) * (b * (qa + qd))
    # sqrt(scale) (kx + |kp|) and sqrt(scale) |kx - |kp||, whose squares add to 2 scale (kx^2 + kp^2)
    outer, inner = np.hypot(p + s, q - r), np.hypot(p - s, q + r)
    spread = np.hypot(outer, inner)
    # the signs of det gamma and of 4 scale (a b - (kx^2 + kp^2)/2) in one array; a NaN fails too
    if not np.minimum(det_g, 4.0 * a * b * scale - spread * spread).min() > 0.0:
        raise UnphysicalStateError("a b - kx^2 and a b - kp^2 are not both positive")
    diff = inner * outer / scale  # kx^2 - kp^2
    return a, b, 2.0 * det_g / (diff + np.hypot(diff, 2.0 * np.sqrt(det_g)))


_angles = st.floats(0.0, np.pi, exclude_max=True)


def _random_cm(seed, scale):
    return random_physical_cm(np.random.default_rng(seed), scale)


def _single_mode_cm(tag, a, frac, phi, log_tau, t):
    """The conditional CM of a single-mode-E family at the search row (phi, ln tau, t)."""
    if tag == "asym_glems":
        pi = purify_asym_glems(make_family(tag, a=a, b=1.0 + frac * (a - 1.0)))
    else:
        pi = purify(make_family(tag, a=a, kp=frac * np.sqrt(a * a - 1.0)).std)
    return _conditional_cms(pi, np.array([phi]), _single_mode_seed(np.exp([log_tau]), np.array([t])))[0]


def _kh_cm(a, frac, phi, log_l1, log_l2):
    """The conditional CM of a symmetric squeezed thermal state at the K_h row (phi, lambda1, lambda2)."""
    pi = purify(make_family("sym_sq_thermal", a=a, k=frac * np.sqrt(a * a - 1.0)).std)
    return _conditional_cms(pi, np.array([phi]), _kh_seed(np.exp([log_l1]), np.exp([min(log_l2, log_l1)])))[0]


def _near_isotropic_cm(a, b, frac, log_eps, phi_a, phi_b):
    """A locally rotated standard form with kp = kx (1 - eps): ``inner`` is about eps.  kx = kp at
    the fraction's largest value is an asymmetric GLEMS, so every fraction below it is physical."""
    kx = frac * np.sqrt(min((a + 1.0) * (b - 1.0), (a - 1.0) * (b + 1.0)))
    return rotate_locally(std_form_cm(StdForm(a, b, kx, kx * (1.0 - 10.0**log_eps))), phi_a, phi_b).mat


_scales = st.floats(1.01, 5.0)
_fracs = st.floats(0.05, 0.95)
_physical_cms = st.one_of(
    st.builds(_random_cm, st.integers(0, 2**32 - 1), st.floats(0.05, 1.5)),
    st.builds(_single_mode_cm, st.sampled_from(("sym_glems", "asym_glems")), _scales, _fracs, _angles,
              st.floats(0.0, 8.0), st.one_of(st.floats(0.0, 8.0), st.just(np.inf))),
    st.builds(_kh_cm, _scales, _fracs, _angles, st.floats(-12.0, 24.0), st.floats(-12.0, 24.0)),
    st.builds(_kh_cm, _scales, _fracs, st.just(np.pi / 2.0), st.just(np.inf), st.just(-np.inf)),  # K_h's limit row
    st.builds(lambda a: std_form_cm(make_family("pure", a=a).std).mat, st.floats(1.0, 1e3)),
    st.builds(_near_isotropic_cm, _scales, _scales, _fracs, st.floats(-16.0, -6.0), _angles, _angles),
)


def _not_positive_definite(kind, x, phi_a, phi_b):
    """A CM that ``std_form_xx_det`` rejects, of one kind, locally rotated; x >= 0.1 keeps it clear of the border."""
    nan = 1.5 * np.eye(4)
    i, j = np.transpose(np.triu_indices(4))[int(3.0 * x) % 10]
    nan[i, j] = nan[j, i] = np.nan
    mat = {
        "nan": nan,
        "det-a": np.diag([1.0, -x, 1.0, 1.0]),  # det A <= 0
        "det-gamma": np.array([[1, 0, 1 + x, 0], [0, 1, 0, 0.5], [1 + x, 0, 1, 0], [0, 0.5, 0, 1]]),  # a b < kx^2
        "mean": np.array([[1, 0, 1 + x, 0], [0, 1, 0, -1 - x], [1 + x, 0, 1, 0], [0, -1 - x, 0, 1]]),  # both < 0
    }[kind]
    return rotate_locally(CovMat(mat), phi_a, phi_b).mat if kind != "nan" else mat


class TestRowReader:
    """``std_form_xx_det``'s row loop against the elementwise form it replaced: equal, not close."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_physical_cms, min_size=1, max_size=6))
    def test_a_stack_gives_the_vectorized_bits(self, mats):
        got, ref = std_form_xx_det(np.array(mats)), vectorized_xx_det(np.array(mats))
        for x, y in zip(got, ref):
            assert x.shape == y.shape == (len(mats),) and x.dtype == y.dtype
            assert np.array_equal(x, y)

    @settings(max_examples=100, deadline=None)
    @given(_physical_cms)
    def test_a_single_cm_gives_numpy_scalars(self, mat):
        for x, y in zip(std_form_xx_det(mat), vectorized_xx_det(mat)):
            assert np.ndim(x) == 0 and type(x) is type(y) and x == y

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_physical_cms, max_size=5),
        st.integers(0, 5),
        st.sampled_from(("nan", "det-a", "det-gamma", "mean")),
        st.floats(0.1, 3.0),
        _angles,
        _angles,
    )
    def test_a_stack_the_vectorized_form_rejects_raises(self, mats, at, kind, x, phi_a, phi_b):
        mats.insert(min(at, len(mats)), _not_positive_definite(kind, x, phi_a, phi_b))
        with np.errstate(invalid="ignore"):  # det of a NaN row
            with pytest.raises(UnphysicalStateError):
                vectorized_xx_det(np.array(mats))
            with pytest.raises(UnphysicalStateError):
                std_form_xx_det(np.array(mats))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10), min_size=1, max_size=6))
    def test_any_symmetric_stack_raises_or_reads_as_the_vectorized_form(self, uppers):
        mats = np.empty((len(uppers), 4, 4))
        rows, cols = np.triu_indices(4)
        mats[:, rows, cols] = mats[:, cols, rows] = uppers
        try:
            ref = vectorized_xx_det(mats)
        except UnphysicalStateError:
            with pytest.raises(UnphysicalStateError):
                std_form_xx_det(mats)
            return
        for x, y in zip(std_form_xx_det(mats), ref):
            assert np.array_equal(x, y)

    def test_a_large_stack_gives_the_vectorized_bits(self, rng):
        # np.hypot and math.hypot (correctly rounded) part in the last bit on about 0.2% of these rows
        mats = [random_physical_cm(rng, scale) for scale in rng.uniform(0.05, 1.5, 4000)]
        n = 500
        phi, log_tau, t, log_l1, log_l2 = rng.uniform(0.0, np.pi, n), *rng.uniform(0.0, 8.0, (2, n)), *np.sort(
            rng.uniform(-12.0, 24.0, (2, n)), axis=0)[::-1]
        for pi in (purify(make_family("sym_glems", a=2.3, kp=1.4).std),
                   purify_asym_glems(make_family("asym_glems", a=1.4, b=2.2))):
            mats += list(_conditional_cms(pi, phi, _single_mode_seed(np.exp(log_tau), t)))
        pi = purify(make_family("sym_sq_thermal", a=2.1, k=1.3).std)
        mats += list(_conditional_cms(pi, phi, _kh_seed(np.exp(log_l1), np.exp(log_l2))))
        got, ref = std_form_xx_det(np.array(mats)), vectorized_xx_det(np.array(mats))
        for x, y in zip(got, ref):
            assert np.array_equal(x, y)

    def test_an_empty_stack_gives_empty_arrays(self):
        for x in std_form_xx_det(np.empty((0, 4, 4))):
            assert isinstance(x, np.ndarray) and x.shape == (0,) and x.dtype == float

    def test_a_stack_keeps_its_leading_shape(self, rng):
        mats = np.array([random_physical_cm(rng, scale=0.4) for _ in range(6)])
        for x, y in zip(std_form_xx_det(mats.reshape(2, 3, 4, 4)), vectorized_xx_det(mats)):
            assert x.shape == (2, 3) and np.array_equal(x.ravel(), y)


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
