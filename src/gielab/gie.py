"""Gaussian intrinsic entanglement: closed forms and numeric verification.

The closed forms cover pure states, symmetric GLEMS, symmetric squeezed
thermal states (a <= 2.41) and asymmetric squeezed-thermal GLEMS
(sqrt(ab) <= 2.41).  Each family also has a deterministic Eve-side
minimizer that fixes double x-homodyne on A and B, minimizes the outcome
mutual information over Eve's Gaussian measurements, and reports the
optimal measurement together with the optimizer trace.  Each minimizer
hands ``gielab.optimize.search`` its family's objective (``_f_xx`` of the
seed-frame kernel ``measurement.seed_frame_xx`` for R = 1, K_h for R = 2)
and its exact limit candidates, rows of that objective in priority order,
which name Eve's optimum.  Heterodyne is the row (0, 0, 0) in both; the
R = 1 homodynes sit at t = inf, and the R = 2 dual homodyne at
(phi, ln lambda1, ln lambda2) = (pi/2, inf, -inf).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
from .config import GridConfig
from .errors import DegenerateFamilyError, DomainNotCoveredError, InvalidInputError
from .measurement import (
    GaussianMeasurement, condition_on_e, general_single_mode, homodyne, seed_frame_schur, seed_frame_xx,
)
from .optimize import search
from .purification import Purification, purify, purify_asym_glems
from .states import StateFamily, is_separable, make_family, std_form_cm, std_form_params
from .symplectic import rotation, xxpp_reorder

VERIFIED_DOMAIN_BOUND = 2.41
GATE_LOWER_BOUND = 2.0 - np.sqrt(2.0)
SQRT_AB_SLACK = 1e-9  # allowed excess of sqrt(a~ b~) over a along a sym_sq_thermal trace
SCAN_MONOTONE_SLACK = 1e-12  # allowed decrease between neighbours of the asym_glems vx scan


@dataclass(frozen=True)
class QMatrixParams:
    """Spectral parameters of Eve's reduced two-mode measurement matrix."""

    phi: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not 0.0 <= self.phi < np.pi:
            raise InvalidInputError(f"phi must lie in [0, pi), got {self.phi}")
        if not 0.0 <= self.lambda2 <= self.lambda1:
            raise InvalidInputError(f"need lambda1 >= lambda2 >= 0, got ({self.lambda1}, {self.lambda2})")

    def matrix(self) -> np.ndarray:
        p = rotation(self.phi)
        return p @ np.diag([self.lambda1, self.lambda2]) @ p.T


@dataclass(frozen=True)
class GieResult:
    """Closed-form value, numeric optimum and optimizer diagnostics (nats)."""

    closed_form: float | None
    numeric: float
    discrepancy: float | None
    eve_optimum: str
    optimizer_trace: tuple
    verified: bool
    extra: dict = field(default_factory=dict)


def verified_domain(fam: StateFamily) -> bool:
    """True inside the proven validity domain of the family's closed form."""
    if is_separable(fam.std):
        return True
    if fam.tag in ("pure", "sym_glems"):
        return True
    if fam.tag == "sym_sq_thermal":
        return bool(fam.std.a <= VERIFIED_DOMAIN_BOUND)
    if fam.tag == "asym_glems":
        return bool(np.sqrt(fam.std.a * fam.std.b) <= VERIFIED_DOMAIN_BOUND)
    return False


def gie_closed_form(fam: StateFamily, require_verified: bool = False) -> float:
    """Closed-form GIE of a family instance.

    Separable states return 0 by faithfulness.  Outside the proven domain
    the formula value is still returned unless ``require_verified`` is set,
    in which case DomainNotCoveredError is raised.
    """
    p = fam.std
    if is_separable(p):
        return 0.0
    if require_verified and not verified_domain(fam):
        raise DomainNotCoveredError(f"{fam.tag} point outside the proven validity domain")
    if fam.tag == "pure":
        return float(np.log(p.a))
    if fam.tag == "sym_glems":
        return float(np.log(p.a / np.sqrt(p.a**2 - p.kp**2)))
    if fam.tag == "sym_sq_thermal":
        g = p.a - p.kx
        return float(np.log((g * g + 1.0) / (2.0 * g)))
    if fam.tag == "asym_glems":
        return float(np.log((p.a + p.b) / (abs(p.a - p.b) + 2.0)))
    raise DomainNotCoveredError("no closed form is known for generic entangled states")


def sym_glems_candidates(a: float, kp: float) -> tuple[float, float, float]:
    """Eve's three boundary candidates (U1, U2, U3) for a symmetric GLEMS.

    U1 is p-homodyne on E, U2 heterodyne, U3 x-homodyne; U3 is the minimum.
    """
    fam = make_family("sym_glems", a=a, kp=kp)
    kx = fam.std.kx
    u1 = float(np.log(a / np.sqrt(a * a - kx * kx)))
    za = ((a + kx) / (a - kp)) ** 0.25
    zb = ((a + kp) / (a - kx)) ** 0.25
    u2 = float(np.log((za * zb + 1.0 / (za * zb)) / 2.0))
    u3 = float(np.log(a / np.sqrt(a * a - kp * kp)))
    return u1, u2, u3


# ---------------------------------------------------------------------------
# shared single-mode-E machinery (R = 1 families)
# ---------------------------------------------------------------------------


def _f_xx(va, vb, c):
    """Double x-homodyne mutual information on A and B, from the conditional
    x variances va, vb and their covariance c; broadcasts."""
    return 0.5 * np.log(va * vb / (va * vb - c * c))


_SINGLE_MODE_CANDIDATES = (
    # name, search row (phi, ln tau, t) in priority order; t = inf is an exact homodyne limit
    ("heterodyne", (0.0, 0.0, 0.0)),
    ("homodyne p_E", (0.0, 0.0, np.inf)),
    ("homodyne x_E", (np.pi / 2.0, 0.0, np.inf)),
)


def _single_mode_params(x) -> tuple:
    """Reported (phi, tau, t) of a search row (phi, ln tau, t)."""
    return float(x[0]) % np.pi, float(np.exp(x[1])), float(x[2])


def _single_mode_measurement(params: tuple) -> GaussianMeasurement:
    """Eve's measurement at a (phi, tau, t) trace point."""
    phi, tau, t = params
    if np.isinf(t):
        # measured quadrature of the squeezed seed sits at phi + pi/2
        return homodyne([phi + np.pi / 2.0])
    return general_single_mode(phi, tau, t)


def _minimize_f_single_mode(pi: Purification, grid_cfg: GridConfig):
    """Eve's optimum over (phi, ln tau, t) and the single-mode limit candidates.

    One objective, ``_f_xx`` of ``seed_frame_xx``, serves the grid, the
    descent and the candidates, which are its rows at t = 0 (heterodyne)
    and t = inf (the exact homodynes).
    """
    kernel = seed_frame_xx(pi)

    def objective(phi, log_tau, t):
        return _f_xx(*kernel(phi, np.exp(log_tau), t))

    n = grid_cfg.points
    axes = (
        np.linspace(0.0, np.pi, n, endpoint=False),
        np.linspace(0.0, grid_cfg.tau_log_max, n),
        np.linspace(0.0, grid_cfg.t_max, n),
    )
    highs = np.array([np.pi, grid_cfg.tau_log_max, grid_cfg.t_max])
    best_val, optimum, best, trace = search(
        objective, axes, np.zeros(3), highs, grid_cfg.resolution, _single_mode_params, _SINGLE_MODE_CANDIDATES
    )
    if optimum is None:
        optimum = f"general(phi={best[0]:.6g}, tau={best[1]:.6g}, t={best[2]:.6g})"
    return float(best_val), optimum, trace


def _sym_glems_gate(pi: Purification, params: tuple) -> float:
    """GCMI optimality gate 2 + 1/a~ - s~ of the conditional standard form."""
    a_t, b_t, kx_t, _ = std_form_params(condition_on_e(pi, _single_mode_measurement(params)))
    s_tilde = np.sqrt(max(a_t * b_t - kx_t * kx_t, 0.0))
    return float(2.0 + 1.0 / np.sqrt(a_t * b_t) - s_tilde)


def gie_numeric_sym_glems(a: float, kp: float, grid_cfg: GridConfig | None = None) -> GieResult:
    """Eve-side minimization for a symmetric GLEMS (x-homodyne fixed on A, B)."""
    grid_cfg = config.grid() if grid_cfg is None else grid_cfg
    fam = make_family("sym_glems", a=a, kp=kp)
    pi = purify(std_form_cm(fam.std))
    closed = gie_closed_form(fam)
    if pi.r_count == 0:  # boundary case a^2 - kp^2 = 1: pure state
        return _numeric_pure(fam, closed)
    numeric, optimum, trace = _minimize_f_single_mode(pi, grid_cfg)
    gate_min = min(_sym_glems_gate(pi, params) for params, _ in trace)
    return GieResult(
        closed_form=closed,
        numeric=numeric,
        discrepancy=abs(closed - numeric),
        eve_optimum=optimum,
        optimizer_trace=tuple(trace),
        # the GCMI gate must clear its strict lower bound along the trace
        verified=bool(verified_domain(fam) and gate_min > GATE_LOWER_BOUND),
        extra={"gate_min": gate_min, "candidates": sym_glems_candidates(a, kp)},
    )


def gie_numeric_asym_glems(a: float, b: float, grid_cfg: GridConfig | None = None) -> GieResult:
    """Eve-side minimization for an asymmetric squeezed-thermal GLEMS."""
    grid_cfg = config.grid() if grid_cfg is None else grid_cfg
    if a == b:
        raise DegenerateFamilyError("a = b degenerates to a pure state")
    fam = make_family("asym_glems", a=a, b=b)
    pi = purify_asym_glems(a, b)
    closed = gie_closed_form(fam)
    numeric, optimum, trace = _minimize_f_single_mode(pi, grid_cfg)

    # scan of the conditional-state mutual information over the reachable
    # conditional variance; its minimum must sit at the heterodyne end
    nu_tilde = 1.0 + abs(a - b)
    x_sq = (max(a, b) + 1.0) / (abs(a - b) + 2.0)
    y_sq = x_sq - 1.0
    vxs = np.linspace(1.0, nu_tilde, grid_cfg.points)
    h = 1.0 / (1.0 + vxs / (x_sq * y_sq * (vxs + 1.0) ** 2)) if y_sq > 0 else np.zeros_like(vxs)
    scan = 0.5 * np.log(1.0 / (1.0 - h))
    scan_monotone = bool(np.all(np.diff(scan) >= -SCAN_MONOTONE_SLACK))
    return GieResult(
        closed_form=closed,
        numeric=numeric,
        discrepancy=abs(closed - numeric),
        eve_optimum=optimum,
        optimizer_trace=tuple(trace),
        verified=verified_domain(fam),
        extra={"vx_scan_min": float(scan[0]), "vx_scan_monotone": scan_monotone},
    )


def _numeric_pure(fam: StateFamily, closed: float) -> GieResult:
    g = purify(std_form_cm(fam.std)).gamma_ab.mat
    value = float(_f_xx(g[0, 0], g[2, 2], g[0, 2]))
    trace = tuple((_single_mode_params(row), value) for _, row in _SINGLE_MODE_CANDIDATES)
    return GieResult(
        closed_form=closed,
        numeric=float(value),
        discrepancy=abs(closed - value),
        eve_optimum="heterodyne",  # every measurement ties; first in priority order
        optimizer_trace=trace,
        verified=True,
        extra={},
    )


# ---------------------------------------------------------------------------
# symmetric squeezed thermal states (R = 2): the K_h machinery
# ---------------------------------------------------------------------------


def _cosh_sinh_v(a: float, k: float) -> tuple[float, float, float]:
    nu_sq = a * a - k * k
    if a < 1.0 or k < 0.0 or nu_sq < 1.0 - config.tolerances().family_atol:
        raise InvalidInputError(f"need a >= 1, k >= 0 and a^2 - k^2 >= 1, got ({a}, {k})")
    nu = np.sqrt(max(nu_sq, 1.0))
    return nu, (nu + 1.0 / nu) / 2.0, (nu - 1.0 / nu) / 2.0


def _k_h_scaled(phi, lambda1, lambda2, a, k, cosh_v, sinh_v):
    """K_h and its denominator; broadcasts over (phi, lambda1, lambda2).

    E and F are divided by lambda1, which leaves K_h unchanged and keeps
    every term finite at lambda1 = inf: there E/lambda1 = cosh v and
    F/lambda1 = sinh v, the exact dual-homodyne limit.
    """
    ratio = lambda2 / lambda1
    e = 1.0 / lambda1 + lambda2 + cosh_v * (1.0 + ratio)
    f = sinh_v * (1.0 - ratio)
    denom = e * e - f * f
    return (a * a - k * k) / (a * a) + ((k / a) * e + f * np.cos(2.0 * phi)) ** 2 / denom, denom


def k_h(q: QMatrixParams, a: float, k: float) -> float:
    """Reduced Eve-side determinant ratio for double x-homodyne on A and B.

    ``K_h = (a^2 - k^2)/a^2 + [(k/a) E + F cos(2 phi)]^2 / (E^2 - F^2)``
    with E and F polynomial in the measurement parameters.  This is the
    validated scalar entry point; ``minimize_kh`` runs the same formula
    without rebuilding ``QMatrixParams``.  lambda1 = inf gives the exact
    limit, the dual homodyne at phi = pi/2 and lambda2 = 0.

    Raises:
        InvalidInputError: E^2 - F^2 is not positive (impossible for valid parameters).
    """
    _, cosh_v, sinh_v = _cosh_sinh_v(a, k)
    value, denom = _k_h_scaled(q.phi, q.lambda1, q.lambda2, a, k, cosh_v, sinh_v)
    if not denom > 0.0:
        raise InvalidInputError(f"E^2 - F^2 = {denom} is not positive; invalid parameters")
    return float(value)


def _spectral_seed(q: QMatrixParams) -> np.ndarray:
    """Eve's pure two-mode seed with x block Q and p block Q^{-1} (xxpp), in xpxp order."""
    q_mat = q.matrix()
    lam = xxpp_reorder()
    seed_primed = np.block(
        [
            [q_mat, np.zeros((2, 2))],
            [np.zeros((2, 2)), np.linalg.inv(q_mat)],
        ]
    )
    return lam.T @ seed_primed @ lam


def k_h_determinant(q: QMatrixParams, a: float, k: float) -> float:
    """Unreduced determinant form of K_h built from explicit 4x4 matrices.

    Eve's seed is the pure two-mode CM assembled from the spectral matrix Q
    in xxpp ordering; the four conditional blocks are the closed homodyne
    limits of the Eve-side covariances.  Serves as the independent oracle
    for the reduced formula.
    """
    nu, _, _ = _cosh_sinh_v(a, k)
    z_sq = np.sqrt((a + k) / (a - k))
    seed = _spectral_seed(q)
    w = (nu * nu - 1.0) / (2.0 * a)
    d11, d22 = nu - w * z_sq, nu - w / z_sq
    x_a = np.array(
        [
            [d11, 0.0, w, 0.0],
            [0.0, nu, 0.0, 0.0],
            [w, 0.0, d22, 0.0],
            [0.0, 0.0, 0.0, nu],
        ]
    )
    x_b = x_a.copy()
    x_b[0, 2] = x_b[2, 0] = -w
    x_ab = np.diag([1.0 / nu, nu, 1.0 / nu, nu])
    gamma_e = nu * np.eye(4)
    det = np.linalg.det
    return float(det(seed + x_a) * det(seed + x_b) / (det(seed + x_ab) * det(seed + gamma_e)))


_KH_CANDIDATES = (
    # name, search row (phi, ln lambda1, ln lambda2) in priority order; ln lambda1 = inf is the dual-homodyne limit
    ("homodyne x_EA p_EB", (np.pi / 2.0, np.inf, -np.inf)),
    ("heterodyne", (0.0, 0.0, 0.0)),
)


def _kh_params(x) -> tuple:
    """Reported (phi, lambda1, lambda2) of a search row (phi, ln lambda1, ln lambda2)."""
    return float(x[0]) % np.pi, float(np.exp(x[1])), float(np.exp(x[2]))


def minimize_kh(a: float, k: float, grid_cfg: GridConfig | None = None):
    """Deterministic minimization of K_h over Eve's reduced parameters.

    Searches (phi, ln lambda1, ln lambda2) and the rows ``_KH_CANDIDATES``
    of the same objective with ``gielab.optimize.search``.  Returns
    ``(k_min, best_params, trace)``; best_params is the (phi, lambda1,
    lambda2) of the named candidate (infinite lambda1 for the dual-homodyne
    limit) or the descent end.
    """
    grid_cfg = config.grid() if grid_cfg is None else grid_cfg
    _, cosh_v, sinh_v = _cosh_sinh_v(a, k)

    def objective(phi, log_l1, log_l2):
        l1, l2 = np.exp(log_l1), np.exp(log_l2)
        return np.where(l2 > l1, np.inf, _k_h_scaled(phi % np.pi, l1, l2, a, k, cosh_v, sinh_v)[0])

    n = grid_cfg.points
    logs = np.linspace(grid_cfg.lambda_log_min, grid_cfg.lambda_log_max, n)
    k_min, _, best, trace = search(
        objective, (np.linspace(0.0, np.pi, n, endpoint=False), logs, logs),
        np.array([0.0, grid_cfg.lambda_log_min, grid_cfg.lambda_log_min]),
        np.array([np.pi, grid_cfg.lambda_log_max, grid_cfg.lambda_log_max]),
        grid_cfg.resolution, _kh_params, _KH_CANDIDATES,
    )
    return float(k_min), best, trace


_AB_BLOCK_ENTRIES = ((0, 0), (1, 1), (0, 1), (2, 2), (3, 3), (2, 3))


def _sqrt_ab_of_q(pi: Purification, points) -> np.ndarray:
    """sqrt(a~ b~) of the conditional standard form at each (phi, lambda1, lambda2) of ``points``.

    Eve's seed is blockdiag(Q, Q^{-1}) in xxpp order, Q = P diag(lambda1,
    lambda2) P^T, so ``measurement.seed_frame_schur`` conditions every
    point in one call with the seed eigenvalues (lambda1, lambda2,
    1/lambda1, 1/lambda2).  The limit row (pi/2, inf, 0) is the exact dual
    homodyne: its lambda2 = 0 gives 1/lambda2 = inf and weight 0.
    """
    phi, l1, l2 = np.array(points, dtype=float).T
    inv_l2 = np.divide(1.0, l2, out=np.full_like(l2, np.inf), where=l2 > 0.0)
    c00, c11, c01, c22, c33, c23 = seed_frame_schur(pi, _AB_BLOCK_ENTRIES)(phi, (l1, l2, 1.0 / l1, inv_l2))
    return np.sqrt(np.sqrt(c00 * c11 - c01 * c01) * np.sqrt(c22 * c33 - c23 * c23))


def gie_numeric_sym_sq_thermal(a: float, k: float, grid_cfg: GridConfig | None = None) -> GieResult:
    """Eve-side minimization for a symmetric squeezed thermal state."""
    grid_cfg = config.grid() if grid_cfg is None else grid_cfg
    fam = make_family("sym_sq_thermal", a=a, k=k)
    closed = gie_closed_form(fam)
    if is_separable(fam.std):
        return GieResult(
            closed_form=0.0,
            numeric=0.0,
            discrepancy=0.0,
            eve_optimum="separable (no optimization run)",
            optimizer_trace=(),
            verified=True,
            extra={},
        )
    if abs(a * a - k * k - 1.0) <= config.tolerances().family_atol:
        return _numeric_pure(fam, closed)
    k_min, best, trace = minimize_kh(a, k, grid_cfg)
    i_h = 0.5 * np.log(a * a / (a * a - k * k))
    numeric = float(i_h + 0.5 * np.log(k_min))
    optimum = next((name for name, row in _KH_CANDIDATES if _kh_params(row) == best), None)
    if optimum is None:
        optimum = f"Q(phi={best[0]:.6g}, lambda1={best[1]:.6g}, lambda2={best[2]:.6g})"
    pi = purify(std_form_cm(fam.std))
    sqrt_ab_max = float(_sqrt_ab_of_q(pi, [params for params, _ in trace]).max())
    return GieResult(
        closed_form=closed,
        numeric=numeric,
        discrepancy=abs(closed - numeric),
        eve_optimum=optimum,
        optimizer_trace=tuple(trace),
        # the conditional-purity bound sqrt(a~ b~) <= a must hold on the trace
        verified=bool(verified_domain(fam) and sqrt_ab_max <= a + SQRT_AB_SLACK),
        extra={"k_min": k_min, "sqrt_ab_max": sqrt_ab_max},
    )


def gie_numeric(fam: StateFamily, grid_cfg: GridConfig | None = None) -> GieResult:
    """Dispatch the numeric Eve-side verification by family tag."""
    if fam.tag == "pure":
        return _numeric_pure(fam, gie_closed_form(fam))
    if fam.tag == "sym_glems":
        return gie_numeric_sym_glems(fam.params["a"], fam.params["kp"], grid_cfg)
    if fam.tag == "sym_sq_thermal":
        return gie_numeric_sym_sq_thermal(fam.params["a"], fam.params["k"], grid_cfg)
    if fam.tag == "asym_glems":
        return gie_numeric_asym_glems(fam.params["a"], fam.params["b"], grid_cfg)
    raise DomainNotCoveredError("numeric verification covers the four solvable families only")
