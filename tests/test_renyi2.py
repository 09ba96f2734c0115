import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gielab import config
from gielab.errors import InvalidThreeModeError, WrongFamilyError
from gielab.gie import gie_closed_form
from gielab.purification import purify_asym_glems
from gielab.renyi2 import (
    ThreeModePureParams,
    conjecture_gap,
    gr2_branch,
    gr2_of_family,
    gr2_symmetric,
    gr2_two_mode_reduction,
)
from gielab.states import StdForm, is_separable, make_family
from gielab.symplectic import CovMat, symplectic_eigenvalues


def three_mode_couplings(p: ThreeModePureParams) -> tuple[float, ...]:
    """The six coupling constants (c1+, c1-, c2+, c2-, c3+, c3-) of the pure state."""
    a = p.as_tuple()
    out = []
    for i in range(3):
        j, k = (n for n in range(3) if n != i)
        ai, aj, ak = a[i], a[j], a[k]
        a_mm = (ai - 1.0) ** 2 - (aj - ak) ** 2
        a_pm = (ai + 1.0) ** 2 - (aj - ak) ** 2
        a_mp = (ai - 1.0) ** 2 - (aj + ak) ** 2
        a_pp = (ai + 1.0) ** 2 - (aj + ak) ** 2
        first = np.sqrt(max(a_mm * a_pm, 0.0))
        second = np.sqrt(max(a_mp * a_pp, 0.0))
        denom = 4.0 * np.sqrt(aj * ak)
        out.append(((first + second) / denom, (first - second) / denom))
    return tuple(float(c) for pair in out for c in pair)


def three_mode_cm(p: ThreeModePureParams) -> CovMat:
    """Standard-form 6x6 CM of the pure three-mode state: the independent
    oracle for ``purify_asym_glems``."""
    c1p, c1m, c2p, c2m, c3p, c3m = three_mode_couplings(p)
    a1, a2, a3 = p.as_tuple()
    mat = np.array(
        [
            [a1, 0.0, c3p, 0.0, c2p, 0.0],
            [0.0, a1, 0.0, c3m, 0.0, c2m],
            [c3p, 0.0, a2, 0.0, c1p, 0.0],
            [0.0, c3m, 0.0, a2, 0.0, c1m],
            [c2p, 0.0, c1p, 0.0, a3, 0.0],
            [0.0, c2m, 0.0, c1m, 0.0, a3],
        ]
    )
    return CovMat(mat)


def _alpha_k(ai: float, aj: float) -> float:
    """The boundary a_k = alpha_k between the middle and third branches of g_k."""
    diff = ai * ai - aj * aj
    total = ai * ai + aj * aj
    inner = diff * diff + 8.0 * total
    return float(np.sqrt((2.0 * total + diff * diff + abs(diff) * np.sqrt(inner)) / (2.0 * total)))


def _random_valid_triple(rng, max_a=4.0):
    while True:
        a1 = 1.0 + rng.random() * (max_a - 1.0)
        a2 = 1.0 + rng.random() * (max_a - 1.0)
        lo = abs(a1 - a2) + 1.0
        hi = a1 + a2 - 1.0
        if hi <= lo:
            continue
        a3 = lo + rng.random() * (hi - lo)
        return ThreeModePureParams(a1, a2, a3)


class TestThreeModeCouplings:
    def test_vacuum_has_no_couplings(self):
        assert np.allclose(three_mode_couplings(ThreeModePureParams(1.0, 1.0, 1.0)), 0.0)

    def test_assembled_state_is_pure(self):
        cov = three_mode_cm(ThreeModePureParams(2.0, 1.5, 1.5))
        assert np.abs(symplectic_eigenvalues(cov) - 1.0).max() < 1e-7

    def test_purity_on_random_triples(self, rng):
        for _ in range(100):
            cov = three_mode_cm(_random_valid_triple(rng))
            assert np.abs(symplectic_eigenvalues(cov) - 1.0).max() < 1e-7

    def test_matches_asym_glems_purification_blocks(self):
        a, b = 2.0, 1.5
        pi = purify_asym_glems(a, b)
        cov = three_mode_cm(ThreeModePureParams(a, b, 1.0 + a - b))
        assert np.allclose(cov.mat[:4, :4], pi.gamma_ab.mat, atol=1e-12)
        assert np.allclose(np.abs(cov.mat[:4, 4:]), np.abs(pi.gamma_abe), atol=1e-12)
        assert np.allclose(cov.mat[4:, 4:], pi.gamma_e, atol=1e-12)

    def test_triangle_constraint_enforced(self):
        with pytest.raises(InvalidThreeModeError):
            ThreeModePureParams(5.0, 1.2, 1.3)


class TestGr2Reduction:
    def test_first_branch_vanishes(self):
        # a3 = a for b = 1 sits exactly on the first-branch boundary
        value = gr2_two_mode_reduction(ThreeModePureParams(2.0, 1.0, 2.0), traced_mode=3)
        assert value == 0.0

    def test_worked_third_branch_point(self):
        value = gr2_two_mode_reduction(ThreeModePureParams(2.0, 1.5, 1.5), traced_mode=3)
        assert np.isclose(value, np.log(1.75 / 1.25), atol=1e-12)

    def test_branches_partition_parameter_space(self, rng):
        hits = {1: 0, 2: 0, 3: 0}
        for _ in range(400):
            triple = _random_valid_triple(rng)
            hits[gr2_branch(triple, traced_mode=3)] += 1
            value = gr2_two_mode_reduction(triple, traced_mode=3)
            assert np.isfinite(value) and value >= 0.0
        assert hits[2] > 0  # the middle branch exists for generic triples
        assert hits[1] > 0 and hits[3] > 0

    def test_branch_boundaries_agree(self, rng):
        # at a_k = alpha_k the middle and third branches coincide
        for _ in range(50):
            a1 = 1.2 + rng.random() * 2
            a2 = 1.2 + rng.random() * 2
            ak = _alpha_k(a1, a2)
            lo, hi = abs(a1 - a2) + 1.0, a1 + a2 - 1.0
            if not lo < ak < hi:
                continue
            below = gr2_two_mode_reduction(ThreeModePureParams(a1, a2, ak * (1 - 1e-9)), 3)
            above = gr2_two_mode_reduction(ThreeModePureParams(a1, a2, ak * (1 + 1e-9)), 3)
            assert abs(below - above) < 1e-6

    def test_delta_nonnegative_on_grid(self):
        for a1 in np.linspace(1.0, 3.0, 10):
            for a2 in np.linspace(1.0, 3.0, 10):
                lo, hi = abs(a1 - a2) + 1.0, a1 + a2 - 1.0
                if hi <= lo:
                    continue
                for a3 in np.linspace(lo, hi, 7):
                    delta = 1.0
                    for s1 in (-1, 1):
                        for s2 in (-1, 1):
                            for s3 in (-1, 1):
                                delta *= s1 + a1 + s2 * a2 + s3 * a3
                    assert delta >= -1e-9


class TestGr2Symmetric:
    def test_worked_point(self):
        value = gr2_symmetric(StdForm(1.2, 1.2, 0.5, 0.5))
        assert np.isclose(value, np.log((0.7 + 1 / 0.7) / 2.0), atol=1e-12)

    def test_separable_gives_zero(self):
        assert gr2_symmetric(StdForm(3.0, 3.0, 1.0, 1.0)) == 0.0

    def test_pure_state_equals_log_purity(self):
        for a in (1.5, 2.0, 3.7):
            fam = make_family("pure", a=a)
            assert np.isclose(gr2_symmetric(fam.std), np.log(a), atol=1e-10)

    def test_wrong_family_rejected(self):
        with pytest.raises(WrongFamilyError):
            gr2_symmetric(StdForm(2.0, 1.5, 0.5, 0.5))


class TestConjecture:
    def test_gaps_on_worked_points(self):
        assert conjecture_gap(make_family("asym_glems", a=2.0, b=1.5)) < 1e-12
        assert conjecture_gap(make_family("sym_glems", a=1.5, kp=0.5)) < 1e-12
        assert conjecture_gap(make_family("sym_sq_thermal", a=1.2, k=0.5)) < 1e-12
        assert conjecture_gap(make_family("pure", a=1.0)) == 0.0

    def test_asym_reduction_never_hits_middle_branch(self, rng):
        for _ in range(200):
            a = 1.0 + rng.random() * 2
            b = 1.0 + rng.random() * 2
            if abs(a - b) < 1e-6:
                continue
            triple = ThreeModePureParams(a, b, 1.0 + abs(a - b))
            assert gr2_branch(triple, traced_mode=3) != 2

    def test_gr2_equals_gie_on_family_grids(self):
        for a in np.linspace(1.1, 2.2, 8):
            for b in np.linspace(1.1, 2.2, 8):
                if abs(a - b) < 1e-9 or np.sqrt(a * b) > 2.41:
                    continue
                fam = make_family("asym_glems", a=a, b=b)
                assert conjecture_gap(fam) < 1e-12
                assert np.isclose(gr2_of_family(fam), gie_closed_form(fam), atol=1e-12)


def _assert_reduction_is_exact(a: float, b: float):
    """No spurious error, never the middle branch, and GR2 within
    ``check_conjecture``'s 1e-12 of the GIE closed form ln((a + b) / (|a - b| + 2))."""
    excess = abs(a - b)
    triple = ThreeModePureParams(a, b, 1.0 + excess)
    assert gr2_branch(triple, traced_mode=3, ak_excess=excess) != 2
    gr2 = gr2_two_mode_reduction(triple, traced_mode=3, ak_excess=excess)
    assert abs(gr2 - np.log((a + b) / (excess + 2.0))) < 1e-12


class TestGr2AsymGlemsPrecision:
    """The asymmetric GLEMS reduction sits on the triangle boundary a_3 = 1 + |a - b|,
    where a_3 - 1 and a_1^2 - a_2^2 cancel unless both are carried in factored form."""

    def test_reported_near_degenerate_points(self):
        # the rounded a_3 sent the first point to the middle branch, where it
        # raised; the others reached gaps of 7.4e-10 and 1.0e-12
        for a, b in (
            (1.0041374209214655, 1.0041242799135397),
            (1.0479869509489352, 1.0479870089580368),
            (1.009318, 1.009225),
        ):
            _assert_reduction_is_exact(a, b)
            assert conjecture_gap(make_family("asym_glems", a=a, b=b)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(1.0, 6.0), log_gap=st.floats(-15.0, -3.0), sign=st.sampled_from((-1.0, 1.0)))
    def test_near_a_equals_b(self, a, log_gap, sign):
        b = a * (1.0 + sign * 10.0**log_gap)
        assume(b >= 1.0 and b != a)
        _assert_reduction_is_exact(a, b)
        assert conjecture_gap(make_family("asym_glems", a=a, b=b)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(log_a=st.floats(-16.0, -2.0), log_b=st.floats(-16.0, -2.0))
    def test_near_vacuum(self, log_a, log_b):
        a, b = 1.0 + 10.0**log_a, 1.0 + 10.0**log_b
        assume(a != b)
        _assert_reduction_is_exact(a, b)
        assert conjecture_gap(make_family("asym_glems", a=a, b=b)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(10.0, 1e3), frac=st.floats(0.0, 1.0))
    def test_large_a(self, a, frac):
        # beyond a ~ 1e4 the rounding of 1 + |a - b| outgrows the absolute
        # triangle slack of ThreeModePureParams, so a stays below 1e3
        b = 1.0 + frac * (a - 1.0)
        assume(b != a)
        _assert_reduction_is_exact(a, b)
        fam = make_family("asym_glems", a=a, b=b)
        # within ppt_atol of the PPT boundary the GIE closed form is 0 by
        # is_separable, while GR2 keeps its formula, linear in the distance
        bound = config.tolerances().ppt_atol if is_separable(fam.std) else 1e-12
        assert conjecture_gap(fam) < bound
