"""Gaussian purifications of two-mode states.

A mixed two-mode state with R symplectic eigenvalues above one is purified
by pairing each noisy Williamson mode with one extra mode in a two-mode
squeezed state, then pulling the system modes back with the inverse
Williamson transformation, which ``symplectic.williamson`` gives for a
covariance matrix and a closed form gives for a symmetric standard form.
The asymmetric squeezed-thermal GLEMS family additionally has an analytic
single-extra-mode form, built around the standard form that
``states.make_family`` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalStateError, WrongFamilyError
from .states import StateFamily, StdForm, a_minus_kx, std_form_cm
from .symplectic import BEAM_SPLITTER, PHYSICAL_ATOL, SIGMA_Z, CovMat, WilliamsonDecomposition
from .symplectic import symplectic_eigenvalues, symplectic_form, williamson

PURITY_ATOL = 1e-7  # allowed deviation of the purification's symplectic spectrum from 1


@dataclass(frozen=True)
class Purification:
    """Blocks (gamma_AB, gamma_ABE, gamma_E) of a pure (2+R)-mode CM."""

    gamma_ab: CovMat
    gamma_abe: np.ndarray  # 4 x 2R, read-only
    gamma_e: np.ndarray    # 2R x 2R, read-only
    r_count: int

    def __post_init__(self):
        abe = np.asarray(self.gamma_abe, dtype=float).reshape(4, 2 * self.r_count)
        e = np.asarray(self.gamma_e, dtype=float).reshape(2 * self.r_count, 2 * self.r_count)
        abe.flags.writeable = False
        e.flags.writeable = False
        object.__setattr__(self, "gamma_abe", abe)
        object.__setattr__(self, "gamma_e", e)

    def gamma_pi(self) -> CovMat:
        """Assembled covariance matrix of the full pure state."""
        if self.r_count == 0:
            return self.gamma_ab
        top = np.hstack([self.gamma_ab.mat, self.gamma_abe])
        bottom = np.hstack([self.gamma_abe.T, self.gamma_e])
        return CovMat(np.vstack([top, bottom]))

    def purity_defect(self) -> float:
        """Largest deviation of the assembled symplectic spectrum from one."""
        return float(np.abs(symplectic_eigenvalues(self.gamma_pi()) - 1.0).max())


def _certified_pure(pi: Purification) -> bool:
    """True where a residual bound already puts the assembled spectrum within ``PURITY_ATOL`` of one.

    m = Omega gamma_pi is exact (Omega is a signed permutation), and each
    symplectic eigenvalue nu gives an eigenvalue 1 - nu^2 of m^2 + I, so
    |nu - 1| <= |nu^2 - 1| <= ||m^2 + I||_2 <= ||fl(m m) + I||_F + (n + 2)
    eps ||m||_F^2 for the n x n matrix m, the last term bounding the
    rounding of the product and the sum.  False says nothing: the eigen
    path decides.
    """
    n = 4 + 2 * pi.r_count
    gamma = np.empty((n, n))  # gamma_pi, assembled without the checks of a CovMat
    gamma[:4, :4], gamma[4:, 4:] = pi.gamma_ab.mat, pi.gamma_e
    gamma[:4, 4:], gamma[4:, :4] = pi.gamma_abe, pi.gamma_abe.T
    m = symplectic_form(n // 2) @ gamma
    residual = m @ m
    residual.flat[:: n + 1] += 1.0
    return bool(np.linalg.norm(residual) + (n + 2) * np.finfo(float).eps * np.vdot(m, m) <= PURITY_ATOL)


def _checked_pure(pi: Purification) -> Purification:
    """Return ``pi`` if its assembled spectrum is within ``PURITY_ATOL`` of one.

    ``_certified_pure`` passes most purifications without an eigen-solve;
    the rest are judged by ``purity_defect``, the eigenvalue reading.
    """
    if _certified_pure(pi):
        return pi
    defect = pi.purity_defect()
    if defect > PURITY_ATOL:
        raise UnphysicalStateError(f"purification impure, spectrum defect {defect:.3e}")
    return pi


def _symmetric_williamson(p: StdForm) -> WilliamsonDecomposition:
    """Analytic Williamson frame (S_A + S_B) U_BS of a symmetric standard form,
    with the spectrum the form carries."""
    a, kx, kp = p.a, p.kx, p.kp
    za = ((a + kx) / (a - kp)) ** 0.25
    zb = ((a + kp) / a_minus_kx(p)) ** 0.25
    s = np.diag([1.0 / za, za, zb, 1.0 / zb]) @ BEAM_SPLITTER
    s.flags.writeable = False
    return WilliamsonDecomposition(s=s, nus=p.nus)


def purify(gamma) -> Purification:
    """Minimal Gaussian purification of a physical two-mode CM or ``StdForm``.

    A symmetric standard form (a = b) takes the analytic frame and counts
    its E modes on the spectrum it carries; anything else goes through
    ``williamson``.  The E block is ``diag(nu_i I)`` over the eigenvalues
    above the ``1 + PHYSICAL_ATOL`` cutoff; states on the cutoff resolve
    toward the smaller purifying system.  Pure inputs return empty E blocks.
    """
    if isinstance(gamma, StdForm):
        cov = std_form_cm(gamma)
        decomp = _symmetric_williamson(gamma) if gamma.a == gamma.b else williamson(cov)
    else:
        cov = gamma if isinstance(gamma, CovMat) else CovMat(np.asarray(gamma, dtype=float))
        if cov.n_modes != 2:
            raise UnphysicalStateError(f"purify expects a two-mode CM, got {cov.n_modes} modes")
        decomp = williamson(cov)
    nus = decomp.nus
    noisy = [i for i, nu in enumerate(nus) if nu > 1.0 + PHYSICAL_ATOL]
    r_count = len(noisy)
    if r_count == 0:
        return Purification(cov, np.zeros((4, 0)), np.zeros((0, 0)), 0)
    abe0 = np.zeros((4, 2 * r_count))
    gamma_e = np.zeros((2 * r_count, 2 * r_count))
    for col, i in enumerate(noisy):
        abe0[2 * i : 2 * i + 2, 2 * col : 2 * col + 2] = np.sqrt(nus[i] ** 2 - 1.0) * SIGMA_Z
        gamma_e[2 * col : 2 * col + 2, 2 * col : 2 * col + 2] = nus[i] * np.eye(2)
    return _checked_pure(Purification(cov, decomp.inverse() @ abe0, gamma_e, r_count))


def purify_asym_glems(fam: StateFamily) -> Purification:
    """Analytic three-mode purification of an asymmetric squeezed-thermal GLEMS (no E mode at a = b)."""
    if fam.tag != "asym_glems":
        raise WrongFamilyError(f"purify_asym_glems needs an asym_glems family, got {fam.tag!r}")
    gamma_ab = std_form_cm(fam.std)
    a, b = fam.std.a, fam.std.b
    if a == b:  # the pure state with k = sqrt(a^2 - 1)
        return Purification(gamma_ab, np.zeros((4, 0)), np.zeros((0, 0)), 0)
    eye = np.eye(2)
    if a > b:
        gamma_abe = np.vstack([np.sqrt((a - b) * (a + 1.0)) * SIGMA_Z, np.sqrt((a - b) * (b - 1.0)) * eye])
    else:
        gamma_abe = np.vstack([np.sqrt((b - a) * (a - 1.0)) * eye, np.sqrt((b - a) * (b + 1.0)) * SIGMA_Z])
    return _checked_pure(Purification(gamma_ab, gamma_abe, (1.0 + abs(a - b)) * eye, 1))
