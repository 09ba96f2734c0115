"""Reference routes that only the tests use.

The assembled joint outcome CCM (``assemble_ccm`` + ``Ccm.conditional_ab``)
conditions on E by a pseudoinverse Schur complement of the whole outcome
matrix, sharing no code with the conditioning kernels of
``gielab.measurement`` that the tests check against it.  ``std_form_params``
reads the whole standard form (a, b, kx, kp) of one CM, solving for kx^2
and kp^2 rather than for a b - kx^2 as ``gielab.states.std_form_xx_det``
does; ``to_std_form`` is its checked ``StdForm``.  ``seed_frame_schur_loop``
is ``gielab.measurement.seed_frame_schur`` as a loop over entries and E
modes, one numpy operation on each: the reference that the two-half kernel
must match bit for bit.  ``whole_mesh_argmin`` is
``gielab.optimize.grid_argmin`` as one objective call on the whole mesh,
the reference that the slabbed grid stage must match point for point.
These take an objective as one callable of every coordinate; ``joined``
makes one of a gielab ``(prepare, evaluate)`` pair and ``split`` the pair
of one.  ``single_mode_objective`` (the ratio inside ``f_xx``),
``kh_objective`` and ``u_objective`` are the R = 1, K_h and u objectives
of ``gielab.gie`` and ``gielab.information`` as one callable each, the
reference that their split forms must match bit for bit on every grid
slab, descent call and candidate row; the R = 1 one conditions through
``seed_frame_schur_loop``.  ``rotation`` and ``XXPP`` are the phase-space
rotation P(phi) and the xpxp -> xxpp reordering, from which the tests
assemble Eve's spectral seed as a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gielab.errors import DimensionMismatchError, InvalidInputError, InvalidMeasurementError, UnphysicalStateError
from gielab.gie import _cosh_sinh_v, _single_mode_seed
from gielab.information import xx_ratio
from gielab.measurement import FiniteMeasurement
from gielab.purification import Purification
from gielab.states import StdForm
from gielab.symplectic import CovMat

CCM_PSD_RTOL = 1e-10  # a CCM eigenvalue may dip this far below zero, relative to max(1, the largest)
PINV_RCOND = 1e-12  # pseudoinverse singular-value cutoff of the E block
XXPP = np.eye(4)[[0, 2, 1, 3]]  # (x1,p1,x2,p2) -> (x1,x2,p1,p2): orthogonal, not symplectic


def rotation(phi: float) -> np.ndarray:
    """Single-mode phase-space rotation P(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def seed_frame_schur_loop(pi: Purification, entries):
    """``seed_frame_schur(pi, entries)``, entry by entry and E mode by E mode.

    ``kernel(phi, s)`` returns a tuple of the entries; each is ``g_ij`` plus
    ``sigma_m S_ij`` added over the E modes m in order, then plus
    ``delta_m T_ij(phi)`` over m in order, with the negated weights ``w_k =
    -1 / (nu + s_k)``, ``sigma_m = w_2m + w_2m+1``, ``delta_m = w_2m -
    w_2m+1`` and S and T of the columns (u, v) = (m, R + m) of gamma_ABE.
    """
    g = pi.gamma_ab.mat
    nu = pi.gamma_e[0, 0]
    r = pi.r_count
    # row i of gamma_ABE as the (u, v) pair of each E mode m that R(phi) turns
    pairs = {i: [(pi.gamma_abe[i, m], pi.gamma_abe[i, r + m]) for m in range(r)] for entry in entries for i in entry}

    def kernel(phi, s):
        cos2, sin2 = np.cos(2.0 * phi), np.sin(2.0 * phi)
        weights = [-1.0 / (nu + s_k) for s_k in s]
        sums = [weights[2 * m] + weights[2 * m + 1] for m in range(r)]
        diffs = [weights[2 * m] - weights[2 * m + 1] for m in range(r)]
        out = []
        for i, j in entries:
            acc = g[i, j]
            for sigma, (ui, vi), (uj, vj) in zip(sums, pairs[i], pairs[j], strict=True):
                acc = acc + sigma * (0.5 * (ui * uj + vi * vj))
            for delta, (ui, vi), (uj, vj) in zip(diffs, pairs[i], pairs[j], strict=True):
                acc = acc + delta * (0.5 * (ui * uj - vi * vj) * cos2 + 0.5 * (ui * vj + vi * uj) * sin2)
            out.append(acc)
        return tuple(out)

    return kernel


def joined(objective):
    """A ``(prepare, evaluate)`` objective as one callable of every coordinate."""
    prepare, evaluate = objective
    return lambda first, *rest: evaluate(first, prepare(*rest))


def split(fn):
    """A callable of every coordinate as a ``(prepare, evaluate)`` objective; ``prepare`` returns its input."""
    return (lambda *rest: rest), (lambda first, rest: fn(first, *rest))


def single_mode_objective(pi: Purification):
    """The R = 1 objective, the ratio inside ``f_xx``, at Eve's seed row (phi, ln tau, t), through the loop kernel."""
    kernel = seed_frame_schur_loop(pi, ((0, 0), (2, 2), (0, 2)))

    def objective(phi, log_tau, t):
        return xx_ratio(*kernel(phi, _single_mode_seed(np.exp(log_tau), t)))

    return objective


def kh_objective(a: float, k: float):
    """K_h at Eve's row (phi, ln lambda1, ln lambda2) in one expression, inf where lambda2 > lambda1."""
    _, cosh_v, sinh_v = _cosh_sinh_v(a, k)

    def objective(phi, log_l1, log_l2):
        l1, l2 = np.exp(log_l1), np.exp(log_l2)
        ratio = l2 / l1
        e = 1.0 / l1 + l2 + cosh_v * (1.0 + ratio)
        f = sinh_v * (1.0 - ratio)
        value = (a * a - k * k) / (a * a) + ((k / a) * e + f * np.cos(2.0 * phi)) ** 2 / (e * e - f * f)
        return np.where(l2 > l1, np.inf, value)

    return objective


def u_objective(cond: StdForm):
    """The GCMI objective u(r_A, r_B) in one expression."""

    def objective(r_a, r_b):
        a_minus, b_minus = cond.a + np.exp(-2.0 * r_a), cond.b + np.exp(-2.0 * r_b)
        a_plus, b_plus = cond.a + np.exp(2.0 * r_a), cond.b + np.exp(2.0 * r_b)
        return (1.0 - cond.kx * cond.kx / (a_minus * b_minus)) * (1.0 - cond.kp * cond.kp / (a_plus * b_plus))

    return objective


def whole_mesh_argmin(fn, axes):
    """``gielab.optimize.grid_argmin`` in one call of ``fn`` on the whole sparse mesh of ``axes``."""
    values = fn(*np.meshgrid(*axes, indexing="ij", sparse=True, copy=False))
    flat = int(np.argmin(values))
    index = np.unravel_index(flat, values.shape)
    return np.array([axis[i] for axis, i in zip(axes, index)]), float(values.flat[flat])


def std_form_params(gamma) -> tuple[float, float, float, float]:
    """Raw standard-form invariants (a, b, kx, kp) of a two-mode CM.

    Computed from det A, det B, det C and det gamma, which fix the standard
    form uniquely; no physicality validation beyond positive local
    determinants.
    """
    mat = gamma.mat if isinstance(gamma, CovMat) else np.asarray(gamma, dtype=float)
    det = np.linalg.det
    det_a, det_b, det_c, det_g = det(mat[:2, :2]), det(mat[2:, 2:]), det(mat[:2, 2:]), det(mat)
    if det_a <= 0.0 or det_b <= 0.0:
        raise UnphysicalStateError("local block determinant is not positive")
    a, b = np.sqrt(det_a), np.sqrt(det_b)
    s = (det_a * det_b + det_c * det_c - det_g) / (a * b)  # kx^2 + kp^2
    # kx^2 and kp^2 are the roots of t^2 - s t + det_c^2 = 0
    root = np.sqrt(max(s * s - 4.0 * det_c * det_c, 0.0))
    kx = np.sqrt(max((s + root) / 2.0, 0.0))
    kp = np.sqrt(max((s - root) / 2.0, 0.0))
    return float(a), float(b), float(kx), float(kp if det_c < 0.0 else -kp)


def to_std_form(gamma) -> StdForm:
    """Reduce a two-mode covariance matrix to its standard form.

    Idempotent on standard-form inputs; raises for unphysical input.
    """
    a, b, kx, kp = std_form_params(gamma)
    return StdForm(a=a, b=b, kx=kx, kp=kp)


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
        return alpha - beta @ np.linalg.pinv(delta, rcond=PINV_RCOND, hermitian=True) @ beta.T


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
