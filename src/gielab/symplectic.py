"""Real-matrix algebra for covariance matrices.

Covariance matrices are stored dense in the quadrature ordering
``(x1, p1, ..., xn, pn)`` with vacuum normalized to the identity.  The
module provides the symplectic form, symplectic spectra, the Williamson
decomposition (one spectral construction for every input) and the
phase-space matrices they use.  The fixed ones are read-only constants
built at import (``J2``, ``SIGMA_Z``, ``BEAM_SPLITTER``), as is
``symplectic_form(n)`` for each n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    InvalidDimensionError,
    InvalidInputError,
    UnphysicalStateError,
)

COVMAT_SYMMETRY_RTOL = 1e-12  # CovMat: allowed |gamma - gamma^T|, relative to max(1, |gamma|)
PHYSICAL_ATOL = 1e-9  # symplectic eigenvalues >= 1 - atol
SYMPLECTIC_ATOL = 1e-9  # |S Omega S^T - Omega| residual
WILLIAMSON_ATOL = 1e-8  # |S gamma S^T - diag(nu)| residual


def _readonly(mat) -> np.ndarray:
    out = np.array(mat, dtype=float)
    out.flags.writeable = False
    return out


J2 = _readonly([[0.0, 1.0], [-1.0, 0.0]])
SIGMA_Z = _readonly(np.diag([1.0, -1.0]))
# balanced beam splitter on two modes, orthogonal and symplectic
BEAM_SPLITTER = _readonly(np.block([[np.eye(2), np.eye(2)], [-np.eye(2), np.eye(2)]]) / np.sqrt(2.0))


@dataclass(frozen=True)
class CovMat:
    """Symmetric real matrix of quadrature second moments for n >= 1 modes; the one shape and symmetry check."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2 or not mat.size:
            raise InvalidInputError(f"covariance matrix must be 2n x 2n with n >= 1, got {mat.shape}")
        scale = max(1.0, np.abs(mat).max())
        if np.abs(mat - mat.T).max() > COVMAT_SYMMETRY_RTOL * scale:
            raise InvalidInputError("covariance matrix is not symmetric")
        object.__setattr__(self, "mat", _readonly(0.5 * (mat + mat.T)))

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Pair (S, nu) with ``S gamma S^T = diag(nu1, nu1, ..., nun, nun)``.

    ``s`` is read-only and symplectic: ``williamson`` checks ``S Omega S^T =
    Omega`` to ``SYMPLECTIC_ATOL``; ``purification``'s analytic frame is so by construction.
    """

    s: np.ndarray
    nus: tuple[float, ...]

    def normal_form(self) -> np.ndarray:
        return np.diag(np.repeat(self.nus, 2))

    def inverse(self) -> np.ndarray:
        """Exact symplectic inverse ``Omega S^T Omega^T``."""
        omega = symplectic_form(len(self.nus))
        return omega @ self.s.T @ omega.T


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, n copies of ``[[0, 1], [-1, 0]]``; one read-only array per n."""
    if n_modes < 1:
        raise InvalidDimensionError("need at least one mode")
    return _readonly(np.kron(np.eye(n_modes), J2))


def symplectic_eigenvalues(gamma) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, descending.

    Computed from the eigenvalues of ``-(Omega gamma)^2``, whose spectrum
    consists of the squared symplectic eigenvalues, each twice.
    """
    mat = (gamma if isinstance(gamma, CovMat) else CovMat(gamma)).mat
    m = symplectic_form(len(mat) // 2) @ mat
    squares = np.linalg.eigvals(-m @ m).real
    nus = np.sqrt(np.clip(squares, 0.0, None))
    nus[::-1].sort()
    return nus[::2].copy()


def std_form_symplectic_eigenvalues(a, b, kx, kp) -> tuple[float, float]:
    """Closed-form symplectic eigenvalues of a two-mode standard form.

    For kx = kp = k the discriminant factors as
    ``delta^2 - 4 det gamma = (a - b)^2 ((a + b)^2 - 4 k^2)``, so
    ``nu+- = (sqrt((a + b)^2 - 4 k^2) +- |a - b|) / 2`` with no cancellation
    near a = b, where the general form loses about half the digits.
    """
    if kx == kp:
        root = np.sqrt(max((a + b) ** 2 - 4.0 * kx * kx, 0.0))
        return float((root + abs(a - b)) / 2.0), float((root - abs(a - b)) / 2.0)
    delta = a * a + b * b - 2.0 * kx * kp
    det_gamma = (a * b - kx * kx) * (a * b - kp * kp)
    d = max(delta * delta - 4.0 * det_gamma, 0.0)
    root = np.sqrt(d)
    nu1 = np.sqrt(max((delta + root) / 2.0, 0.0))
    # product form avoids the cancellation in (delta - root)/2
    nu2 = np.sqrt(max(2.0 * det_gamma / (delta + root), 0.0))
    return float(nu1), float(nu2)


def williamson(gamma) -> WilliamsonDecomposition:
    """Williamson normal form of a physical covariance matrix.

    S is built from the Hermitian matrix ``i gamma^{-1/2} Omega gamma^{-1/2}``,
    whose eigenvalues are +-1/nu.  eigh sorts them ascending, so the n
    positive ones come last with nu descending; these nu are the spectrum
    that must clear ``1 - PHYSICAL_ATOL``.  An eigenvector u of 1/nu gives
    the orthonormal pair ``(x, p) = sqrt(2) (Re u, -Im u)``, on which
    ``gamma^{-1/2} Omega gamma^{-1/2}`` acts as ``J2 / nu``; this holds on a
    degenerate spectrum too.  Each u's phase is fixed first, making its
    largest-modulus entry real and positive, so the vacuum gives S = I.
    The result is validated against the residual tolerances before being
    returned.

    Raises:
        UnphysicalStateError: gamma is not positive definite, or some nu is below 1.
        DecompositionError: the residual check failed.
    """
    mat = (gamma if isinstance(gamma, CovMat) else CovMat(gamma)).mat
    n = len(mat) // 2
    omega = symplectic_form(n)
    w, v = np.linalg.eigh(mat)
    if w.min() <= 0:
        raise UnphysicalStateError("covariance matrix is not positive definite")
    inv_root = v @ np.diag(w**-0.5) @ v.T
    freqs, u = np.linalg.eigh(1j * (inv_root @ omega @ inv_root))
    freqs, u = freqs[n:], u[:, n:]
    nus = 1.0 / freqs
    if nus[-1] < 1.0 - PHYSICAL_ATOL:
        raise UnphysicalStateError(f"unphysical covariance matrix, min symplectic eigenvalue {nus[-1]:.12g}")
    lead = u[np.abs(u).argmax(axis=0), np.arange(n)]
    u = u * (lead.conj() / np.abs(lead))
    o = np.empty((2 * n, 2 * n))
    o[:, 0::2] = np.sqrt(2.0) * u.real
    o[:, 1::2] = -np.sqrt(2.0) * u.imag
    s = np.repeat(np.sqrt(nus), 2)[:, None] * (o.T @ inv_root)
    residual = np.abs(s @ mat @ s.T - np.diag(np.repeat(nus, 2))).max()
    symp_residual = np.abs(s @ omega @ s.T - omega).max()
    if residual > WILLIAMSON_ATOL or symp_residual > SYMPLECTIC_ATOL:
        raise DecompositionError(f"williamson residual {residual:.3e} (symplectic {symp_residual:.3e})")
    s.flags.writeable = False
    return WilliamsonDecomposition(s=s, nus=tuple(float(nu) for nu in nus))

