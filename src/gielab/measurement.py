"""Gaussian measurements, classical covariance matrices and conditioning.

Measurements are either a finite Gaussian seed CM or an exact homodyne
limit given by one quadrature angle per mode.  Everything works at the
level of second moments; outcome samples are never materialized.

Conditioning on Eve's measurement lives here and only here: ``eve_kernel``
builds the matrix M of the Schur step ``gamma_AB - gamma_ABE M gamma_ABE^T``
and ``conditional_ab`` applies it, for one measurement or a stack of
single-mode seeds from ``single_mode_seeds``.  The assembled-CCM route
(``assemble_ccm`` + ``Ccm.conditional_ab``) is kept apart as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DimensionMismatchError, InvalidInputError, InvalidMeasurementError
from .purification import Purification
from .symplectic import CovMat, symplectic_eigenvalues


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


def single_mode_seeds(phis, taus, ts) -> np.ndarray:
    """Seed CMs ``P(phi) diag(tau e^{2t}, tau e^{-2t}) P^T``, stacked (..., 2, 2).

    The parameters broadcast against each other; scalars give one 2 x 2 seed.
    """
    c, s = np.cos(phis), np.sin(phis)
    vx, vp = taus * np.exp(2.0 * ts), taus * np.exp(-2.0 * ts)
    seeds = np.empty(np.broadcast(c, vx).shape + (2, 2))
    seeds[..., 0, 0] = c * c * vx + s * s * vp
    seeds[..., 1, 1] = s * s * vx + c * c * vp
    seeds[..., 0, 1] = seeds[..., 1, 0] = c * s * (vx - vp)
    return seeds


def general_single_mode(phi: float, tau: float, t: float) -> FiniteMeasurement:
    """Rotated squeezed-thermal seed ``P(phi) diag(tau e^{2t}, tau e^{-2t}) P^T``.

    Checked from its parameters, since tau >= 1 and t >= 0 give nu = tau
    exactly, not by the matrix gate of ``FiniteMeasurement``: near t = 8 the
    entries reach e^16 and the matrix determinant is off by about 1e-2.
    """
    if not (tau >= 1.0 and t >= 0.0):
        raise InvalidMeasurementError(f"need tau >= 1 and t >= 0, got ({tau}, {t})")
    seed = single_mode_seeds(phi, tau, t)
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
        if eigs.size and eigs.min() < -1e-10 * max(1.0, eigs.max()):
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


def eve_kernel(gamma_e: np.ndarray, ge: GaussianMeasurement | np.ndarray) -> np.ndarray:
    """The matrix M with conditional CM ``gamma_AB - gamma_ABE M gamma_ABE^T``.

    ``ge`` is a finite measurement or a stack of seed CMs (..., 2R, 2R), for
    which M = (gamma_E + seed)^{-1}, or an exact homodyne, for which M is the
    t -> infinity limit ``U (U^T gamma_E U)^{-1} U^T`` with U the measured
    quadrature directions.
    """
    if isinstance(ge, HomodyneMeasurement):
        u = np.zeros((gamma_e.shape[0], ge.n_modes))
        for j, direction in enumerate(ge.directions()):
            u[2 * j : 2 * j + 2, j] = direction
        return u @ np.linalg.inv(u.T @ gamma_e @ u) @ u.T
    seeds = ge.seed.mat if isinstance(ge, FiniteMeasurement) else ge
    return np.linalg.inv(gamma_e + seeds)


def conditional_ab(pi: Purification, kernel: np.ndarray) -> np.ndarray:
    """Schur step ``gamma_AB - gamma_ABE M gamma_ABE^T``, broadcast over stacked kernels M."""
    corr = pi.gamma_abe @ kernel @ pi.gamma_abe.T
    # in place: a grid stage stacks tens of thousands of 4 x 4 results
    return np.subtract(pi.gamma_ab.mat, corr, out=corr)


def condition_on_e(pi: Purification, ge: GaussianMeasurement | None) -> CovMat:
    """Conditional CM of modes A, B after a Gaussian measurement on E."""
    if pi.r_count == 0:
        return pi.gamma_ab
    if ge is None:
        raise InvalidMeasurementError("purification has a nonempty E block; a measurement is required")
    if ge.n_modes != pi.r_count:
        raise DimensionMismatchError(f"E measurement has {ge.n_modes} modes, purification has {pi.r_count}")
    return CovMat(conditional_ab(pi, eve_kernel(pi.gamma_e, ge)))
