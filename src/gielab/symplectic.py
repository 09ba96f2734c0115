"""Real-matrix algebra for covariance matrices.

Covariance matrices are stored dense in the quadrature ordering
``(x1, p1, ..., xn, pn)`` with vacuum normalized to the identity.  The
module provides the symplectic form, symplectic spectra, Williamson
decompositions (analytic routes for the two standard-form families plus a
generic spectral construction) and a few fixed phase-space matrices:
rotation, balanced beam splitter, two-mode squeezer, mode swap and the
xxpp reordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import config
from .errors import (
    DecompositionError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidSqueezerError,
    UnphysicalStateError,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])
EIGENVALUE_SYMMETRY_RTOL = 1e-8  # symplectic_eigenvalues: allowed |gamma - gamma^T|, relative to max(1, |gamma|)


def _readonly(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=float)
    out.flags.writeable = False
    return out


def _as_matrix(gamma) -> np.ndarray:
    """Accept a CovMat, SymplecticMatrix or plain array and return the array."""
    if isinstance(gamma, (CovMat, SymplecticMatrix)):
        return gamma.mat
    return np.asarray(gamma, dtype=float)


@dataclass(frozen=True)
class CovMat:
    """Symmetric real matrix of quadrature second moments for n modes."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise InvalidInputError(f"covariance matrix must be 2n x 2n, got {mat.shape}")
        scale = max(1.0, np.abs(mat).max())
        if np.abs(mat - mat.T).max() > config.tolerances().symmetry_rtol * scale:
            raise InvalidInputError("covariance matrix is not symmetric")
        object.__setattr__(self, "mat", _readonly(0.5 * (mat + mat.T)))

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2


@dataclass(frozen=True)
class SymplecticMatrix:
    """Real matrix satisfying ``S Omega S^T = Omega``."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise InvalidInputError(f"symplectic matrix must be 2n x 2n, got {mat.shape}")
        omega = symplectic_form(mat.shape[0] // 2)
        residual = np.abs(mat @ omega @ mat.T - omega).max()
        if residual > config.tolerances().symplectic_atol:
            raise InvalidInputError(f"symplectic condition violated, residual {residual:.3e}")
        object.__setattr__(self, "mat", _readonly(mat))

    @property
    def n_modes(self) -> int:
        return self.mat.shape[0] // 2

    def inverse(self) -> np.ndarray:
        """Exact symplectic inverse ``Omega S^T Omega^T``."""
        omega = symplectic_form(self.n_modes)
        return omega @ self.mat.T @ omega.T


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Pair (S, nu) with ``S gamma S^T = diag(nu1, nu1, ..., nun, nun)``."""

    s: SymplecticMatrix
    nus: tuple[float, ...]

    def normal_form(self) -> np.ndarray:
        return np.diag(np.repeat(self.nus, 2))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, n copies of ``[[0, 1], [-1, 0]]``."""
    if n_modes < 1:
        raise InvalidDimensionError("need at least one mode")
    return np.kron(np.eye(n_modes), J2)


def symplectic_eigenvalues(gamma) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, descending.

    Computed from the eigenvalues of ``-(Omega gamma)^2``, whose spectrum
    consists of the squared symplectic eigenvalues, each twice.
    """
    mat = _as_matrix(gamma)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise InvalidInputError(f"expected a 2n x 2n matrix, got {mat.shape}")
    scale = max(1.0, np.abs(mat).max())
    if np.abs(mat - mat.T).max() > EIGENVALUE_SYMMETRY_RTOL * scale:
        raise InvalidInputError("covariance matrix is not symmetric")
    n = mat.shape[0] // 2
    if n == 0:
        return np.empty(0)
    m = symplectic_form(n) @ mat
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


def _is_standard_form(mat: np.ndarray, atol: float = 1e-11):
    """Detect a two-mode standard form, returning (a, b, cx, cp) or None."""
    if mat.shape != (4, 4):
        return None
    a, b = mat[0, 0], mat[2, 2]
    cx, cp = mat[0, 2], mat[1, 3]
    pattern = np.array(
        [
            [a, 0.0, cx, 0.0],
            [0.0, a, 0.0, cp],
            [cx, 0.0, b, 0.0],
            [0.0, cp, 0.0, b],
        ]
    )
    scale = max(1.0, np.abs(mat).max())
    if np.abs(mat - pattern).max() > atol * scale:
        return None
    return float(a), float(b), float(cx), float(cp)


def _williamson_symmetric(a, kx, kp):
    """Analytic route for the symmetric standard form: (S_A + S_B) U_BS."""
    za = ((a + kx) / (a - kp)) ** 0.25
    zb = ((a + kp) / (a - kx)) ** 0.25
    sa = np.diag([1.0 / za, za])
    sb = np.diag([zb, 1.0 / zb])
    s = scipy.linalg.block_diag(sa, sb) @ beam_splitter_balanced()
    nu1 = np.sqrt((a + kx) * (a - kp))
    nu2 = np.sqrt((a - kx) * (a + kp))
    return s, (float(nu1), float(nu2))


def _williamson_squeezed_thermal(a, b, k):
    """Analytic route for the squeezed-thermal standard form (a two-mode squeezer)."""
    s_root = np.sqrt((a + b) ** 2 - 4.0 * k * k)
    x = np.sqrt((a + b + s_root) / (2.0 * s_root))
    y = np.sqrt((a + b - s_root) / (2.0 * s_root))
    s = two_mode_squeezer(x, y)
    if a < b:
        s = mode_swap() @ s
    return s, std_form_symplectic_eigenvalues(a, b, k, k)


def _williamson_generic(mat: np.ndarray):
    """Spectral construction via the canonical form of gamma^{-1/2} Omega gamma^{-1/2}."""
    n = mat.shape[0] // 2
    w, v = np.linalg.eigh(mat)
    if w.min() <= 0:
        raise UnphysicalStateError("covariance matrix is not positive definite")
    inv_root = v @ np.diag(w**-0.5) @ v.T
    anti = inv_root @ symplectic_form(n) @ inv_root
    anti = 0.5 * (anti - anti.T)
    t, o = scipy.linalg.schur(anti, output="real")
    pair_freqs = []
    for j in range(n):
        freq = t[2 * j, 2 * j + 1]
        if freq < 0:
            o[:, [2 * j, 2 * j + 1]] = o[:, [2 * j + 1, 2 * j]]
            freq = -freq
        pair_freqs.append(freq)
    order = np.argsort(pair_freqs, kind="stable")  # ascending freq = descending nu
    cols = np.concatenate([[2 * j, 2 * j + 1] for j in order])
    o = o[:, cols]
    nus = 1.0 / np.asarray(pair_freqs)[order]
    d_root = np.diag(np.repeat(np.sqrt(nus), 2))
    s = d_root @ o.T @ inv_root
    return s, tuple(float(nu) for nu in nus)


def williamson(gamma) -> WilliamsonDecomposition:
    """Williamson normal form of a physical covariance matrix.

    Symmetric and squeezed-thermal two-mode standard forms take their
    analytic decompositions; everything else goes through the generic
    spectral construction.  The result is validated against the residual
    tolerances before being returned.

    Raises:
        UnphysicalStateError: some symplectic eigenvalue is below 1.
        DecompositionError: the residual check failed.
    """
    mat = _as_matrix(gamma)
    tol = config.tolerances()
    nus_check = symplectic_eigenvalues(mat)
    if nus_check.min() < 1.0 - tol.physical_atol:
        raise UnphysicalStateError(
            f"unphysical covariance matrix, min symplectic eigenvalue {nus_check.min():.12g}"
        )

    std = _is_standard_form(mat)
    if std is not None:
        a, b, cx, cp = std
        if abs(a - b) <= 1e-12 * max(a, b) and cx >= abs(cp):
            s, nus = _williamson_symmetric(a, cx, -cp)
        elif abs(cx + cp) <= 1e-12 * max(1.0, abs(cx)) and cx >= 0.0:
            s, nus = _williamson_squeezed_thermal(a, b, cx)
        else:
            s, nus = _williamson_generic(mat)
    else:
        s, nus = _williamson_generic(mat)

    normal = np.diag(np.repeat(nus, 2))
    residual = np.abs(s @ mat @ s.T - normal).max()
    omega = symplectic_form(mat.shape[0] // 2)
    symp_residual = np.abs(s @ omega @ s.T - omega).max()
    if residual > tol.williamson_atol or symp_residual > tol.symplectic_atol:
        raise DecompositionError(
            f"williamson residual {residual:.3e} (symplectic {symp_residual:.3e})",
            residual=max(residual, symp_residual),
        )
    return WilliamsonDecomposition(s=SymplecticMatrix(s), nus=nus)


def rotation(phi: float) -> np.ndarray:
    """Single-mode phase-space rotation P(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def beam_splitter_balanced() -> np.ndarray:
    """Balanced beam splitter on two modes (orthogonal and symplectic)."""
    eye = np.eye(2)
    return np.block([[eye, eye], [-eye, eye]]) / np.sqrt(2.0)


def two_mode_squeezer(x: float, y: float) -> np.ndarray:
    """Two-mode squeezer with cosh/sinh parameters (x, y), x^2 - y^2 = 1."""
    if abs(x * x - y * y - 1.0) > 1e-10:
        raise InvalidSqueezerError(f"two-mode squeezer needs x^2 - y^2 = 1, got {x * x - y * y}")
    eye = np.eye(2)
    return np.block([[x * eye, -y * SIGMA_Z], [-y * SIGMA_Z, x * eye]])


def mode_swap() -> np.ndarray:
    """Completely reflecting beam splitter exchanging two modes."""
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    return np.block([[zero, eye], [eye, zero]])


def xxpp_reorder() -> np.ndarray:
    """Orthogonal basis change from (x1,p1,x2,p2) to (x1,x2,p1,p2) ordering.

    A reordering, not a symplectic operation.
    """
    lam = np.zeros((4, 4))
    lam[0, 0] = lam[1, 2] = lam[2, 1] = lam[3, 3] = 1.0
    return lam

