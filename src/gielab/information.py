"""Gaussian mutual-information functionals (all values in nats).

The central quantity is the outcome mutual information
``f = (1/2) ln(det sigma_A det sigma_B / det sigma_AB)`` of local Gaussian
measurements on the E-conditioned state, together with its decomposition
into an unconditioned part plus an Eve-side correction, and the Gaussian
classical mutual information (GCMI) of a conditional standard form: the
double x-homodyne closed form ``f_xx``, its optimality gate G, and the
numeric minimum of the objective u over local squeezed measurements that
checks the closed form wherever the gate holds.  u exists once, as the
``(terms, value)`` pair ``_u_split`` that ``gcmi_numeric`` hands to the
grid stage and the descent, and the GCMI is -1/2 ln of its minimum.
``f_xx`` is the half logarithm (``half_log``) of the determinant ratio
``xx_ratio``, which the single-mode-Eve minimizers of ``gielab.gie``
search, taking the logarithm once, after the search; G, which
broadcasts over a stack of conditional forms, is their certificate: where
G >= 0 at Eve's optimum the x-homodyne value they report is the GCMI.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    InvalidMeasurementError,
    NumericalDegeneracyError,
)
from .measurement import FiniteMeasurement, GaussianMeasurement, condition_on_e
from .optimize import descend, grid_argmin
from .purification import Purification
from .states import StdForm

NATS_SLACK = 1e-10  # an information value may dip this far below zero before it is an error
SQUEEZE_MAX = 12.0  # the r range of the u(rA, rB) minimization


def _check_nats(value: float, context: str) -> float:
    if value < -NATS_SLACK or not np.isfinite(value):
        raise NumericalDegeneracyError(f"{context} produced {value}")
    return max(value, 0.0)


def _outcome_ccm(cond: np.ndarray, ga: GaussianMeasurement, gb: GaussianMeasurement):
    """Outcome covariance blocks for single-mode measurements on A and B.

    A finite measurement keeps both quadratures and adds the seed CM; an
    exact homodyne keeps the measured quadrature only (the antisqueezed
    outcome carries no mutual information in the limit).
    """
    rows = []
    for g, sl in ((ga, slice(0, 2)), (gb, slice(2, 4))):
        if g.n_modes != 1:
            raise DimensionMismatchError("measurements on A and B must be single-mode")
        if isinstance(g, FiniteMeasurement):
            rows.append((sl, np.eye(2), g.seed.mat))
        else:
            u = g.directions()[0]
            rows.append((sl, u.reshape(1, 2), np.zeros((1, 1))))
    (sla, wa, na), (slb, wb, nb) = rows
    sig_a = wa @ cond[sla, sla] @ wa.T + na
    sig_b = wb @ cond[slb, slb] @ wb.T + nb
    cross = wa @ cond[sla, slb] @ wb.T
    return sig_a, sig_b, cross


def mutual_information_f(
    pi: Purification,
    ga: GaussianMeasurement,
    gb: GaussianMeasurement,
    ge: GaussianMeasurement | None = None,
) -> float:
    """Outcome mutual information of measurements on A and B given one on E."""
    cond = condition_on_e(pi, ge).mat
    sig_a, sig_b, cross = _outcome_ccm(cond, ga, gb)
    sigma = np.block([[sig_a, cross], [cross.T, sig_b]])
    det_joint = np.linalg.det(sigma)
    if det_joint <= 0.0:
        raise NumericalDegeneracyError(f"joint outcome CCM degenerate, det {det_joint:.3e}")
    value = 0.5 * np.log(np.linalg.det(sig_a) * np.linalg.det(sig_b) / det_joint)
    return _check_nats(float(value), "mutual information")


def xx_ratio(va, vb, c):
    """The determinant ratio ``va vb / (va vb - c^2)`` inside ``f_xx``; broadcasts.

    ``f_xx`` is its half logarithm (``half_log``); the R = 1 minimizers
    search it."""
    vab = va * vb
    return vab / (vab - c * c)


def half_log(ratio):
    """Half the natural logarithm of a determinant ratio, in nats; broadcasts."""
    return 0.5 * np.log(ratio)


def f_xx(va, vb, c):
    """Double x-homodyne mutual information on A and B, from the conditional
    x variances va, vb and their covariance c; broadcasts.  On a conditional
    standard form it is ``f_xx(a, b, kx)``."""
    return half_log(xx_ratio(va, vb, c))


def gcmi_condition_g(a, b, xx_det):
    """Optimality gate of the closed-form GCMI ``f_xx(a, b, kx)``.

    ``G = sqrt(a/b) + sqrt(b/a) + 1/sqrt(ab) - sqrt(ab - kx^2)`` from the
    standard form's a, b and ``xx_det = a b - kx^2``, as
    ``states.std_form_xx_det`` returns them; broadcasts.  The closed form is
    proven optimal whenever G >= 0.  A negative or NaN ``xx_det`` raises
    ``InvalidInputError``.
    """
    if not np.all(xx_det >= 0.0):  # a NaN fails too
        raise InvalidInputError(f"need a b >= kx^2, got a b - kx^2 = {np.min(xx_det)}")
    return np.sqrt(a / b) + np.sqrt(b / a) + 1.0 / np.sqrt(a * b) - np.sqrt(xx_det)


def _u_split(cond: StdForm) -> tuple:
    """The objective of the GCMI minimization over local squeezed measurements, split at r_A.

    ``u = [1 - kx^2/(a_- b_-)][1 - kp^2/(a_+ b_+)]`` with
    ``a_± = a + e^{±2 r}``, as the pair ``(terms, value)`` that
    ``gcmi_numeric`` searches: ``terms(r_b)`` returns what does not depend
    on r_A, ``(b + e^{-2 r_B}, b + e^{2 r_B})``, and ``value(r_a,
    prepared)`` u from those terms.  Both broadcast;
    an infinite squeezing gives the analytic limit exactly, because
    ``e^{-2 r} = 0`` and ``e^{2 r} = inf`` make the second factor 1.
    """
    a, b, kx_sq, kp_sq = cond.a, cond.b, cond.kx * cond.kx, cond.kp * cond.kp

    def terms(r_b):
        return b + np.exp(-2.0 * r_b), b + np.exp(2.0 * r_b)

    def value(r_a, prepared):
        b_minus, b_plus = prepared
        return (1.0 - kx_sq / ((a + np.exp(-2.0 * r_a)) * b_minus)) * (1.0 - kp_sq / ((a + np.exp(2.0 * r_a)) * b_plus))

    return terms, value


@functools.lru_cache(maxsize=None)
def _u_mesh(points: int) -> tuple:
    """The sparse mesh of ``gcmi_numeric``'s grid, built once per ``points``: on both axes
    ``points`` values of r in [0, SQUEEZE_MAX] and the exact r = inf limit; read-only."""
    rs = np.append(np.linspace(0.0, SQUEEZE_MAX, points), np.inf)
    rs.flags.writeable = False
    return tuple(np.meshgrid(rs, rs, indexing="ij", sparse=True, copy=False))


def gcmi_numeric(cond: StdForm, points: int) -> float:
    """Gaussian classical mutual information of a conditional standard form.

    Minimizes u(rA, rB) (``_u_split``) on a deterministic grid whose axes
    end in the exact r = inf limit, then descends from a finite best.  The
    closed form ``f_xx(a, b, kx)`` is proven optimal only where
    ``gcmi_condition_g`` is non-negative; this numeric minimum checks it
    there and covers the rest.
    """
    objective = _u_split(cond)
    best, best_val = grid_argmin(objective, _u_mesh(points))
    if np.isfinite(best).all():
        box = (0.0, 0.0), (SQUEEZE_MAX, SQUEEZE_MAX), (None, None)
        best, best_val, _ = descend(objective, best, best_val, *box, np.empty((2, 0)))
    if best_val <= 0.0:
        raise NumericalDegeneracyError(f"u minimum degenerate: {best_val}")
    return _check_nats(-0.5 * np.log(best_val), "GCMI")


def f_decomposed(
    pi: Purification,
    ga: FiniteMeasurement,
    gb: FiniteMeasurement,
    ge: FiniteMeasurement | None = None,
) -> tuple[float, float]:
    """Split f into the unconditioned mutual information plus Eve's correction.

    Returns ``(i_ab, k_eab)`` with ``i_ab + k_eab = mutual_information_f``.
    ``k_eab`` is built from determinant ratios of the E-side conditional
    covariances; it vanishes when E decouples.
    """
    if not isinstance(ga, FiniteMeasurement) or not isinstance(gb, FiniteMeasurement):
        raise InvalidMeasurementError("f_decomposed needs finite measurements on A and B")
    gamma_ab = pi.gamma_ab.mat
    gamma_a, gamma_b = gamma_ab[:2, :2], gamma_ab[2:, 2:]
    noise = np.block(
        [
            [ga.seed.mat, np.zeros((2, 2))],
            [np.zeros((2, 2)), gb.seed.mat],
        ]
    )
    det = np.linalg.det
    denom = det(noise + gamma_ab)
    if denom <= 0.0:
        raise NumericalDegeneracyError("degenerate joint outcome CCM")
    i_ab = 0.5 * np.log(det(ga.seed.mat + gamma_a) * det(gb.seed.mat + gamma_b) / denom)
    if pi.r_count == 0:
        return _check_nats(float(i_ab), "I(A;B)"), 0.0
    if not isinstance(ge, FiniteMeasurement):
        raise InvalidMeasurementError("f_decomposed needs a finite measurement on E")
    gamma_ae = pi.gamma_abe[:2, :]
    gamma_be = pi.gamma_abe[2:, :]
    x_a = pi.gamma_e - gamma_ae.T @ np.linalg.inv(ga.seed.mat + gamma_a) @ gamma_ae
    x_b = pi.gamma_e - gamma_be.T @ np.linalg.inv(gb.seed.mat + gamma_b) @ gamma_be
    x_ab = pi.gamma_e - pi.gamma_abe.T @ np.linalg.inv(noise + gamma_ab) @ pi.gamma_abe
    seed = ge.seed.mat
    ratio = (det(seed + x_a) * det(seed + x_b)) / (det(seed + x_ab) * det(seed + pi.gamma_e))
    if ratio <= 0.0:
        raise NumericalDegeneracyError("degenerate Eve-side determinant ratio")
    return _check_nats(float(i_ab), "I(A;B)"), float(0.5 * np.log(ratio))
