"""Gaussian measurements and conditioning on Eve's measurement.

Measurements are either a finite Gaussian seed CM or an exact homodyne
limit given by one quadrature angle per mode.  Everything works at the
level of second moments; outcome samples are never materialized.

Conditioning on Eve's measurement lives here and only here, as the Schur
step ``gamma_AB - gamma_ABE M gamma_ABE^T`` (Weedbrook et al., Rev. Mod.
Phys. 84, 621 (2012), Sec. II).  ``condition_on_e`` applies it to any
measurement, with M from ``eve_kernel``.  ``seed_frame_schur`` is its
path for the Eve-side searches: gamma_E = nu I makes M diagonal in the
frame of Eve's seed, and it returns only the conditional entries the
caller reads, for seed eigenvalues the caller maps from its search row,
in two halves: the weights of the seed eigenvalues, then the rotation by
Eve's angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, InvalidMeasurementError
from .purification import Purification
from .symplectic import PHYSICAL_ATOL, CovMat, symplectic_eigenvalues


@dataclass(frozen=True)
class FiniteMeasurement:
    """Gaussian POVM generated by displacing a physical seed state."""

    seed: CovMat

    def __post_init__(self):
        nus = symplectic_eigenvalues(self.seed)
        # the eigenvalue error floor grows with the seed norm; scale the gate
        slack = PHYSICAL_ATOL * max(1.0, float(np.abs(self.seed.mat).max()))
        if nus.min() < 1.0 - slack:
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


def general_single_mode(phi: float, tau: float, t: float) -> GaussianMeasurement:
    """Rotated squeezed-thermal seed ``P(phi) diag(tau e^{2t}, tau e^{-2t}) P^T``.

    Checked from its parameters, since tau >= 1 and t >= 0 give nu = tau
    exactly, not by the matrix gate of ``FiniteMeasurement``: near t = 8 the
    entries reach e^16 and the matrix determinant is off by about 1e-2.
    t = inf is the exact limit, the homodyne on the quadrature at phi + pi/2
    that ``seed_frame_schur`` evaluates at the seed eigenvalues (inf, 0).
    """
    if not (tau >= 1.0 and t >= 0.0):
        raise InvalidMeasurementError(f"need tau >= 1 and t >= 0, got ({tau}, {t})")
    if t == np.inf and np.isfinite(phi):
        return homodyne([phi + np.pi / 2.0])
    c, s = np.cos(phi), np.sin(phi)
    vx, vp = tau * np.exp(2.0 * t), tau * np.exp(-2.0 * t)
    seed = np.array([[c * c * vx + s * s * vp, c * s * (vx - vp)], [c * s * (vx - vp), s * s * vx + c * c * vp]])
    if not np.isfinite(seed).all():
        raise InvalidMeasurementError(f"seed CM not finite at (phi, tau, t) = ({phi}, {tau}, {t})")
    measurement = object.__new__(FiniteMeasurement)
    object.__setattr__(measurement, "seed", CovMat(seed))
    return measurement


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


def seed_frame_schur(pi: Purification, entries):
    """The Schur step in the frame of Eve's seed, for ``gamma_E = nu I``.

    Eve's seed is ``R(phi) diag(s) R(phi)^T``, with E in xxpp order and
    R(phi) rotating each consecutive pair of axes by P(phi): (x, p) for one
    E mode, (x1, x2) and (p1, p2) for two.  gamma_E = nu I commutes with R,
    so the kernel is ``R diag(1 / (nu + s)) R^T``: no inverse, nothing
    cancels, and an infinite s gives weight 0, the exact homodyne limit.

    Returns the kernel in two elementwise, broadcasting halves, ``(weights,
    kernel)``.  The seed half ``weights(s)`` takes the 2R seed eigenvalues
    s in xxpp order and returns the negated weights ``-1 / (nu + s_k)``,
    stacked along a leading axis; the angle half ``kernel(phi, w)`` gives
    the conditional entries (i, j) of ``entries`` at the angle phi for
    those weights, stacked along a leading axis.  So ``kernel(phi,
    weights(s))`` conditions on the seed (phi, s), and a caller whose seeds
    depend on fewer coordinates than phi's takes their weights once.  The
    angle half is one pass over every entry and every seed axis k: one
    rotation of the gamma_ABE rows, every ``w_k (c_ik c_jk)`` in one array,
    and ``g_ij + sum_k w_k (c_ik c_jk)`` summed over k in order into its
    k = 0 part, so each entry is the same sequence of rounded operations as
    a loop over entries and axes, and a call allocates one array of the
    output's size per seed axis and no temporary of that size besides.  The
    rotation depends on phi alone, so on a sparse mesh it is done once per
    angle.  It needs at least one E mode: a pure state has nothing to
    condition on, and the callers take their pure paths before this.

    Raises:
        DimensionMismatchError: no E mode, or a ``weights`` call without 2R seed eigenvalues.
        InvalidInputError: gamma_E is not a multiple of the identity.
    """
    if pi.r_count == 0:
        raise DimensionMismatchError("the seed-frame kernel needs at least one E mode")
    g = pi.gamma_ab.mat
    nu = pi.gamma_e[0, 0]
    if not (pi.gamma_e == nu * np.eye(2 * pi.r_count)).all():
        raise InvalidInputError(f"the seed-frame kernel needs gamma_E = nu I, got {pi.gamma_e.tolist()}")
    n_seeds, n_entries = 2 * pi.r_count, len(entries)
    # R(phi) turns the E columns (u, v) = (m, R + m) of gamma_ABE (xpxp) into axes 2m and 2m + 1 of the
    # seed frame, u cos + v sin and v cos + (-u) sin (bit for bit v cos - u sin): their cos and sin
    # coefficients at the rows i, then the rows j, of the entries
    rows = np.array(entries, dtype=np.intp).T.ravel()
    gathered = pi.gamma_abe[rows].T
    u, v = gathered[: pi.r_count], gathered[pi.r_count :]
    cos_coef, sin_coef = np.empty((n_seeds, 2 * n_entries)), np.empty((n_seeds, 2 * n_entries))
    cos_coef[0::2], cos_coef[1::2], sin_coef[0::2], sin_coef[1::2] = u, v, v, -u
    target = g[rows[:n_entries], rows[n_entries:]]
    shaped = {}  # the coefficients and g_ij shaped to broadcast against phi of each dimension

    def weights(s):
        if len(s) != n_seeds:
            raise DimensionMismatchError(f"the seed-frame kernel needs {n_seeds} seed eigenvalues, got {len(s)}")
        return -1.0 / (nu + np.array(s, dtype=float))  # negated

    def kernel(phi, w):
        phi = np.asarray(phi)
        ndim = max(phi.ndim, w.ndim - 1)
        if ndim not in shaped:
            tail = (1,) * ndim
            shaped[ndim] = (cos_coef.reshape(cos_coef.shape + tail), sin_coef.reshape(sin_coef.shape + tail),
                            target.reshape(target.shape + tail))
        cos_k, sin_k, target_k = shaped[ndim]
        cols = cos_k * np.cos(phi) + sin_k * np.sin(phi)  # (axes k, rows i then j, *phi)
        w = w.reshape((n_seeds, 1) + (1,) * (ndim + 1 - w.ndim) + w.shape[1:])
        weighted = w * (cols[:, :n_entries] * cols[:, n_entries:])
        # g_ij + w_0 (c_i0 c_j0) (addition commutes bit for bit), then + w_k (c_ik c_jk) in order of k, in
        # place in the k = 0 part: one array freed per call, not an output and a temporary, so glibc's
        # malloc keeps a grid slab's pages instead of trimming them and faulting them in again next call
        out = weighted[0]
        out += target_k
        for term in weighted[1:]:
            out += term
        return out

    return weights, kernel
