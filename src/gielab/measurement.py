"""Gaussian measurements, classical covariance matrices and conditioning.

Measurements are either a finite Gaussian seed CM or an exact homodyne
limit given by one quadrature angle per mode.  Everything works at the
level of second moments; outcome samples are never materialized.

Conditioning on Eve's measurement lives here and only here, as the Schur
step ``gamma_AB - gamma_ABE M gamma_ABE^T`` (Weedbrook et al., Rev. Mod.
Phys. 84, 621 (2012), Sec. II).  ``condition_on_e`` applies it to any
measurement, with M from ``eve_kernel``.  ``seed_frame_xx`` is its R = 1
path for the Eve-side search: it inverts the 2 x 2 in the frame of Eve's
squeezed seed, without a determinant, and returns only the three
conditional entries that double x-homodyne on A and B reads.  The
assembled-CCM route (``assemble_ccm`` + ``Ccm.conditional_ab``) is kept
apart as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DimensionMismatchError, InvalidInputError, InvalidMeasurementError
from .purification import Purification
from .symplectic import CovMat, symplectic_eigenvalues

CCM_PSD_RTOL = 1e-10  # a CCM eigenvalue may dip this far below zero, relative to max(1, the largest)


@dataclass(frozen=True)
class FiniteMeasurement:
    """Gaussian POVM generated by displacing a physical seed state."""

    seed: CovMat

    def __post_init__(self):
        nus = symplectic_eigenvalues(self.seed)
        # the eigenvalue error floor grows with the seed norm; scale the gate
        slack = config.tolerances().physical_atol * max(1.0, float(np.abs(self.seed.mat).max()))
        if nus.size and nus.min() < 1.0 - slack:
            raise InvalidMeasurementError(f"seed CM unphysical, min symplectic eigenvalue {nus.min():.12g}")

    @property
    def n_modes(self) -> int:
        return self.seed.n_modes


@dataclass(frozen=True)
class HomodyneMeasurement:
    """Exact homodyne limit: one measured quadrature angle per mode.

    Angle 0 measures x, pi/2 measures p; angles are reduced modulo pi.
    """

    angles: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(t) % np.pi for t in self.angles))

    @property
    def n_modes(self) -> int:
        return len(self.angles)

    def directions(self) -> np.ndarray:
        """Unit vectors of the measured quadratures, stacked (n_modes, 2)."""
        return np.array([[np.cos(t), np.sin(t)] for t in self.angles])


GaussianMeasurement = FiniteMeasurement | HomodyneMeasurement


def heterodyne(n_modes: int = 1) -> FiniteMeasurement:
    """Projection onto coherent states: identity seed CM."""
    return FiniteMeasurement(CovMat(np.eye(2 * n_modes)))


def homodyne(angles) -> HomodyneMeasurement:
    return HomodyneMeasurement(tuple(np.atleast_1d(angles)))


def general_single_mode(phi: float, tau: float, t: float) -> FiniteMeasurement:
    """Rotated squeezed-thermal seed ``P(phi) diag(tau e^{2t}, tau e^{-2t}) P^T``.

    Checked from its parameters, since tau >= 1 and t >= 0 give nu = tau
    exactly, not by the matrix gate of ``FiniteMeasurement``: near t = 8 the
    entries reach e^16 and the matrix determinant is off by about 1e-2.
    """
    if not (tau >= 1.0 and t >= 0.0):
        raise InvalidMeasurementError(f"need tau >= 1 and t >= 0, got ({tau}, {t})")
    c, s = np.cos(phi), np.sin(phi)
    vx, vp = tau * np.exp(2.0 * t), tau * np.exp(-2.0 * t)
    seed = np.array([[c * c * vx + s * s * vp, c * s * (vx - vp)], [c * s * (vx - vp), s * s * vx + c * c * vp]])
    if not np.isfinite(seed).all():
        raise InvalidMeasurementError(f"seed CM not finite at (phi, tau, t) = ({phi}, {tau}, {t})")
    measurement = object.__new__(FiniteMeasurement)
    object.__setattr__(measurement, "seed", CovMat(seed))
    return measurement


@dataclass(frozen=True)
class Ccm:
    """Classical covariance matrix of measurement outcomes.

    ``partition`` holds the outcome dimensions of the A, B and E blocks.
    """

    mat: np.ndarray
    partition: tuple[int, int, int]

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.shape[0] != sum(self.partition):
            raise DimensionMismatchError(f"partition {self.partition} does not match {mat.shape}")
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        if eigs.size and eigs.min() < -CCM_PSD_RTOL * max(1.0, eigs.max()):
            raise InvalidInputError(f"CCM indefinite, min eigenvalue {eigs.min():.3e}")
        mat = 0.5 * (mat + mat.T)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    def conditional_ab(self) -> np.ndarray:
        """Schur complement of the E block: CCM of (A, B) outcomes given E."""
        n_ab = self.partition[0] + self.partition[1]
        alpha = self.mat[:n_ab, :n_ab]
        if self.partition[2] == 0:
            return alpha.copy()
        beta = self.mat[:n_ab, n_ab:]
        delta = self.mat[n_ab:, n_ab:]
        return alpha - beta @ np.linalg.pinv(delta, rcond=config.tolerances().pinv_rcond, hermitian=True) @ beta.T


def assemble_ccm(pi: Purification, ga: FiniteMeasurement, gb: FiniteMeasurement, ge: FiniteMeasurement | None) -> Ccm:
    """Joint outcome CCM for finite measurements on A, B and E.

    The blocks follow the AB|E partitioning: ``alpha = gamma_AB + Gamma_A + Gamma_B``
    (direct sum), ``beta = gamma_ABE`` and ``delta = gamma_E + Gamma_E``.
    """
    for g, name in ((ga, "A"), (gb, "B")):
        if not isinstance(g, FiniteMeasurement):
            raise InvalidMeasurementError(f"assemble_ccm needs a finite measurement on {name}")
        if g.n_modes != 1:
            raise DimensionMismatchError(f"measurement on {name} must be single-mode")
    alpha = pi.gamma_ab.mat + np.block(
        [
            [ga.seed.mat, np.zeros((2, 2))],
            [np.zeros((2, 2)), gb.seed.mat],
        ]
    )
    if pi.r_count == 0:
        return Ccm(alpha, (2, 2, 0))
    if not isinstance(ge, FiniteMeasurement):
        raise InvalidMeasurementError("assemble_ccm needs a finite measurement on E")
    if ge.n_modes != pi.r_count:
        raise DimensionMismatchError(f"E measurement has {ge.n_modes} modes, purification has {pi.r_count}")
    delta = pi.gamma_e + ge.seed.mat
    top = np.hstack([alpha, pi.gamma_abe])
    bottom = np.hstack([pi.gamma_abe.T, delta])
    return Ccm(np.vstack([top, bottom]), (2, 2, 2 * pi.r_count))


def eve_kernel(gamma_e: np.ndarray, ge: GaussianMeasurement) -> np.ndarray:
    """The matrix M with conditional CM ``gamma_AB - gamma_ABE M gamma_ABE^T``.

    M = (gamma_E + seed)^{-1} for a finite measurement; for an exact homodyne
    it is the t -> infinity limit ``U (U^T gamma_E U)^{-1} U^T`` with U the
    measured quadrature directions.
    """
    if isinstance(ge, HomodyneMeasurement):
        u = np.zeros((gamma_e.shape[0], ge.n_modes))
        for j, direction in enumerate(ge.directions()):
            u[2 * j : 2 * j + 2, j] = direction
        return u @ np.linalg.inv(u.T @ gamma_e @ u) @ u.T
    return np.linalg.inv(gamma_e + ge.seed.mat)


def condition_on_e(pi: Purification, ge: GaussianMeasurement | None) -> CovMat:
    """Conditional CM of modes A, B after a Gaussian measurement on E."""
    if pi.r_count == 0:
        return pi.gamma_ab
    if ge is None:
        raise InvalidMeasurementError("purification has a nonempty E block; a measurement is required")
    if ge.n_modes != pi.r_count:
        raise DimensionMismatchError(f"E measurement has {ge.n_modes} modes, purification has {pi.r_count}")
    return CovMat(pi.gamma_ab.mat - pi.gamma_abe @ eve_kernel(pi.gamma_e, ge) @ pi.gamma_abe.T)


def _seed_frame_rows(x00: float, x11: float, x01: float) -> np.ndarray:
    """Coefficients of (X'00, X'11, X'01), X' = P(phi)^T X P(phi), in (1, cos 2phi, sin 2phi)."""
    h, d = 0.5 * (x00 + x11), 0.5 * (x00 - x11)
    return np.array([[h, d, x01], [h, -d, -x01], [0.0, x01, -d]])


def seed_frame_xx(pi: Purification):
    """The R = 1 conditioning kernel for x-homodyne on A and B.

    Returns ``kernel(phi, tau, t) -> (va, vb, c)``: the entries (0, 0),
    (2, 2) and (0, 2) of the Schur step after Eve measures with the seed
    ``P(phi) diag(tau e^{2t}, tau e^{-2t}) P(phi)^T``.  The parameters
    broadcast against each other and every operation is elementwise, so a
    row's values do not depend on the batch it is evaluated in.

    The 2 x 2 inverse is taken in the seed frame, where the seed is
    diagonal: with E' = P^T gamma_E P, ``d_x = E'00 + tau e^{2t}`` and
    ``d_p = E'11 + tau e^{-2t}``,
    ``m11 = 1 / (d_p - E'01^2 / d_x)``, ``m00 = 1 / (d_x - E'01^2 / d_p)``
    and ``m01 = -(E'01 / d_x) m11``.  No determinant is formed, and d_p,
    the direction the seed squeezes, is never rotated into entries of size
    e^{2t} (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed.), so nothing cancels and the result is exact to rounding.
    At t = inf, IEEE arithmetic gives d_x = inf and m00 = m01 = 0: the exact
    homodyne limit on the quadrature at phi + pi/2.  E' and the seed-frame
    products of rows 0 and 2 of gamma_ABE are affine in
    (1, cos 2phi, sin 2phi); their coefficients are computed here, once.
    """
    if pi.r_count != 1:
        raise DimensionMismatchError(f"seed_frame_xx needs one E mode, purification has {pi.r_count}")
    e, (r0, r2) = pi.gamma_e, pi.gamma_abe[[0, 2]]
    xs = [
        _seed_frame_rows(u[0] * w[0], u[1] * w[1], 0.5 * (u[0] * w[1] + u[1] * w[0]))
        for u, w in ((r0, r0), (r2, r2), (r0, r2))
    ]
    # columns: E'00, E'11, E'01, then X'00, -2 X'01, X'11 for X = r0 r0^T, r2 r2^T, sym(r0 r2^T)
    coef = np.column_stack(
        [*_seed_frame_rows(e[0, 0], e[1, 1], e[0, 1])]
        + [x[0] for x in xs] + [-2.0 * x[2] for x in xs] + [x[1] for x in xs]
    )
    const, cos_coef, sin_coef = coef[0].copy(), coef[1].copy(), coef[2].copy()
    g = pi.gamma_ab.mat[[0, 2, 0], [0, 2, 2]]

    def kernel(phi, tau, t):
        two_phi = 2.0 * phi
        rot = const + np.cos(two_phi)[..., None] * cos_coef + np.sin(two_phi)[..., None] * sin_coef
        e2t = np.exp(2.0 * t)
        d_x = rot[..., 0] + tau * e2t
        d_p = rot[..., 1] + tau / e2t
        e01 = rot[..., 2]
        ratio = e01 / d_x
        m11 = 1.0 / (d_p - ratio * e01)
        m00 = 1.0 / (d_x - e01 * e01 / d_p)
        cond = g - (m00[..., None] * rot[..., 3:6] + (ratio * m11)[..., None] * rot[..., 6:9]
                    + m11[..., None] * rot[..., 9:12])
        return cond[..., 0], cond[..., 1], cond[..., 2]

    return kernel
