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
in two halves.  Each E mode's pair of seed axes enters through the sum and
the difference of its two weights: the seed half adds the sums' terms,
which do not depend on Eve's angle, and the angle half adds the
differences times terms of cos 2phi and sin 2phi.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, one read-only array per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=None)
def _entry_rows(entries: tuple) -> np.ndarray:
    """The rows (i, j) of an ``entries`` tuple as a read-only (2, entries) index array, built once per tuple."""
    rows = np.array(entries, dtype=np.intp).T
    rows.flags.writeable = False
    return rows


def seed_frame_schur(pi: Purification, entries):
    """The Schur step in the frame of Eve's seed, for ``gamma_E = nu I``.

    Eve's seed is ``R(phi) diag(s) R(phi)^T``, with E in xxpp order and
    R(phi) rotating each consecutive pair of axes by P(phi): (x, p) for one
    E mode, (x1, x2) and (p1, p2) for two.  gamma_E = nu I commutes with R,
    so the kernel is ``R diag(w) R^T`` with the negated weights ``w = -1 /
    (nu + s)``: no inverse, and an infinite s gives weight 0, the exact
    homodyne limit.  Pair m of seed axes turns the columns (u, v) =
    (m, R + m) of gamma_ABE into c = u cos + v sin and c' = v cos - u sin,
    so that

        w_2m c_i c_j + w_2m+1 c'_i c'_j = sigma_m S_ij + delta_m T_ij(phi)

    with sigma_m = w_2m + w_2m+1, delta_m = w_2m - w_2m+1, S_ij = (u_i u_j
    + v_i v_j)/2 and T_ij(phi) = [(u_i u_j - v_i v_j) cos 2phi + (u_i v_j +
    v_i u_j) sin 2phi]/2.

    Returns the kernel in two elementwise, broadcasting halves, ``(terms,
    kernel)``.  The seed half ``terms(s)`` takes the 2R seed eigenvalues s
    in xxpp order, as one shape, and returns what does not depend on phi:
    the entries ``g_ij + sum_m sigma_m S_ij`` of ``entries``, stacked along
    a leading axis, and the R halved differences delta_m / 2 (the halves of
    S and T ride on the weights, exactly, as powers of two).  The angle
    half ``kernel(phi, terms(s))`` adds ``delta_m T_ij(phi)`` to them over m
    in order and returns the conditional entries at the seed (phi, s),
    stacked along a leading axis.  T depends on phi alone, so on a sparse
    mesh it is formed once per angle and a mesh point costs one product and
    one sum per entry and E mode, and a caller whose seeds depend on fewer
    coordinates than phi's takes their terms once.  At an isotropic seed
    (s_2m = s_2m+1, as the heterodyne) delta_m is 0 exactly, so the entries
    do not depend on phi in any bit.  ``entries`` is a tuple of (i, j)
    pairs; its index rows are built once per tuple (``_entry_rows``), so a
    caller that passes one module-level tuple builds them once.  It needs
    at least one E mode: a pure state has nothing to condition on, and the
    callers take their pure paths before this.

    Raises:
        DimensionMismatchError: no E mode, or a ``terms`` call without 2R seed eigenvalues.
        InvalidInputError: gamma_E is not a multiple of the identity.
    """
    if pi.r_count == 0:
        raise DimensionMismatchError("the seed-frame kernel needs at least one E mode")
    g = pi.gamma_ab.mat
    nu = pi.gamma_e[0, 0]
    if not (pi.gamma_e == nu * _identity(2 * pi.r_count)).all():
        raise InvalidInputError(f"the seed-frame kernel needs gamma_E = nu I, got {pi.gamma_e.tolist()}")
    rows = _entry_rows(entries)
    # (row i or j, u or v, E modes m, entries), then the products (u_i u_j, v_i v_j) and (u_i v_j, v_i u_j)
    pair = pi.gamma_abe[rows].transpose(0, 2, 1).reshape(2, 2, pi.r_count, -1)
    same, crossed = pair[0] * pair[1], pair[0] * pair[1, ::-1]
    turn = np.empty_like(same)  # the cos and sin coefficients of 2 T: u_i u_j - v_i v_j and u_i v_j + v_i u_j
    np.subtract(same[0], same[1], out=turn[0])
    np.add(crossed[0], crossed[1], out=turn[1])
    per_entry = (same[0] + same[1], g[rows[0], rows[1]], turn)  # 2 S, g_ij and the coefficients of 2 T
    shaped = {}  # per_entry shaped to broadcast against seeds or phi of each dimension

    def coefficients(ndim):
        if ndim not in shaped:
            shaped[ndim] = tuple(x.reshape(x.shape + (1,) * ndim) for x in per_entry)
        return shaped[ndim]

    def terms(s):
        if len(s) != 2 * pi.r_count:
            raise DimensionMismatchError(f"the seed-frame kernel needs {2 * pi.r_count} seed eigenvalues, got {len(s)}")
        w = -0.5 / (nu + np.array(s, dtype=float))  # half the negated weights, (2R, *seed shape)
        sums, diffs = w[0::2] + w[1::2], w[0::2] - w[1::2]
        twice_s, base, _ = coefficients(w.ndim - 1)
        for m in range(pi.r_count):
            base = base + sums[m] * twice_s[m]
        return base, diffs

    def kernel(phi, prepared):
        base, diffs = prepared
        phi = np.asarray(phi)
        if phi.ndim >= base.ndim:  # axes of phi that the seeds lack go after the entries axis
            base = base.reshape(base.shape[:1] + (1,) * (phi.ndim + 1 - base.ndim) + base.shape[1:])
        turn = coefficients(base.ndim - 1)[2]  # (cos and sin, E modes, entries, ...)
        two_phi = 2.0 * phi
        turns = turn[0] * np.cos(two_phi) + turn[1] * np.sin(two_phi)  # 2 T, per E mode
        # delta_0 T + (g_ij + sum_m sigma_m S_ij) (addition commutes bit for bit), then + delta_m T in order of m,
        # in place: one array of the output's size per call, and no temporary of that size for one E mode
        out = diffs[0] * turns[0]
        out += base
        for m in range(1, pi.r_count):
            out += diffs[m] * turns[m]
        return out

    return terms, kernel
