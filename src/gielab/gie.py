"""Gaussian intrinsic entanglement: closed forms and numeric verification.

The closed forms cover pure states, symmetric GLEMS, symmetric squeezed
thermal states (a <= 2.41) and asymmetric squeezed-thermal GLEMS
(sqrt(ab) <= 2.41).  Each family also has a deterministic Eve-side
minimizer that fixes double x-homodyne on A and B, minimizes the outcome
mutual information over Eve's Gaussian measurements, and reports the
optimal measurement together with the optimizer trace.  Each minimizer is
its family's objective (``information.f_xx`` of ``measurement.seed_frame_schur``
at ``_single_mode_seed`` for R = 1, K_h for R = 2), split at Eve's angle
phi into the terms of the other two coordinates, a key and the value of
the key (``optimize.grid_argmin``'s triple), handed to
``gielab.optimize.search`` with one module-level ``SearchSpace``
(``SINGLE_MODE_SEARCH``, ``KH_SEARCH``): box, pi-periodic phi, the exact
limit candidates as rows of that objective and the label of Eve's optimum.
K_h is one triple on the searched coordinates (``_kh_formula``, of phi,
ln lambda1 and ln lambda2, its own key), which ``minimize_kh`` hands to
``search`` as it is and the checked oracle ``k_h`` evaluates at the
logarithms of its arguments.  The R = 1 key is the ratio r inside
``f_xx`` = 1/2 ln r (``information.xx_ratio``), so the grid stage takes
one logarithm, on the least key of the mesh, instead of one per mesh point.

The R = 1 minimizers report the x-homodyne value, which equals GIE where
the GCMI gate G (``information.gcmi_condition_g``) is non-negative at Eve's
optimum.  Both run ``_single_mode_numeric`` and judge the least G along
the trace: sym_glems needs it above ``GATE_LOWER_BOUND``, asym_glems G >= 0.
Both trace gates, G and sqrt(a~ b~) <= a (sym_sq_thermal), read the one
``_trace_forms``: each row through its seed map (``_single_mode_seed``,
``_kh_seed``), conditioned on Eve in one ``seed_frame_schur`` call per
point on the module-level tuple of the ten CM entries (its index rows
built once), gathered into a stack of CMs and read by one
``std_form_xx_det``, whose row loop runs on Python floats around its
three determinants and ``np.hypot``.  The R = 1 grid
prepares the kernel's seed half once per (ln tau, t) mesh point and
evaluates its angle half and the ratio per slab of phi; at the
heterodyne row t = 0 Eve's seed is isotropic, so every phi gives the same
bits there, and the grid takes the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_GRID, GridConfig
from .errors import DomainNotCoveredError, InvalidInputError
from .information import f_xx, gcmi_condition_g, half_log, xx_ratio
from .measurement import condition_on_e  # noqa: F401  (perfbench/spans.py traces this name in gielab.gie)
from .measurement import seed_frame_schur
from .optimize import SearchSpace, as_is, search
from .purification import Purification, purify, purify_asym_glems
from .states import FAMILY_ATOL, StateFamily, a_minus_kx, is_separable, make_family, std_form_cm, std_form_xx_det
from .symplectic import PHYSICAL_ATOL

VERIFIED_DOMAIN_BOUND = 2.41
GATE_LOWER_BOUND = 2.0 - np.sqrt(2.0)
SQRT_AB_SLACK = 1e-9  # allowed excess of sqrt(a~ b~) over a along a sym_sq_thermal trace
_CM_ENTRIES = tuple((i, j) for i in range(4) for j in range(i, 4))  # the ten entries (i <= j) of a 4x4 CM
_CM_POSITIONS = np.array([_CM_ENTRIES.index((min(i, j), max(i, j))) for i in range(4) for j in range(4)])  # row-major


@dataclass(frozen=True)
class GieResult:
    """Closed-form value, numeric optimum and optimizer diagnostics (nats)."""

    closed_form: float
    numeric: float
    discrepancy: float
    eve_optimum: str
    optimizer_trace: tuple
    verified: bool
    extra: dict = field(default_factory=dict)


def _judged(fam: StateFamily, closed: float, numeric: float, optimum: str, trace, gate=True, **extra) -> GieResult:
    """A numeric run's result: verified inside the family's proven domain when its gate holds."""
    return GieResult(
        closed_form=closed,
        numeric=numeric,
        discrepancy=abs(closed - numeric),
        eve_optimum=optimum,
        optimizer_trace=tuple(trace),
        verified=bool(verified_domain(fam) and gate),
        extra=extra,
    )


def verified_domain(fam: StateFamily) -> bool:
    """True inside the proven validity domain of the family's closed form, and for every pure
    state (GIE = ln a) as the numeric path finds it: a = b, or nu <= 1 + PHYSICAL_ATOL as in purify."""
    p = fam.std
    if is_separable(p) or fam.tag in ("pure", "sym_glems"):
        return True
    if fam.tag == "sym_sq_thermal":
        return bool(p.a <= VERIFIED_DOMAIN_BOUND or p.nus[0] <= 1.0 + PHYSICAL_ATOL)
    if fam.tag == "asym_glems":
        return bool(p.a == p.b or np.sqrt(p.a * p.b) <= VERIFIED_DOMAIN_BOUND)
    return False


def gie_closed_form(fam: StateFamily) -> float:
    """Closed-form GIE of a family instance.

    Separable states return 0 by faithfulness.  Outside the proven domain
    the formula value is still returned; ``verified_domain`` tells the two
    apart.
    """
    p = fam.std
    if is_separable(p):
        return 0.0
    if fam.tag == "pure":
        return float(np.log(p.a))
    if fam.tag == "sym_glems":
        return float(np.log(p.a / np.sqrt((p.a - p.kp) * (p.a + p.kp))))  # a^2 - kp^2 as make_family reads it
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
    u1 = float(np.log(a / np.sqrt((a - kx) * (a + kx))))  # a^2 - k^2 read without cancellation
    za = ((a + kx) / (a - kp)) ** 0.25
    zb = ((a + kp) / a_minus_kx(fam.std)) ** 0.25
    u2 = float(np.log((za * zb + 1.0 / (za * zb)) / 2.0))
    u3 = float(np.log(a / np.sqrt((a - kp) * (a + kp))))
    return u1, u2, u3


def _conditional_cms(pi: Purification, phi, s) -> np.ndarray:
    """Conditional CMs of A and B, stacked (rows, 4, 4), after Eve's seed
    ``R(phi) diag(s) R(phi)^T`` at each row: all ten entries in one call,
    each copied to its one or two positions by one gather."""
    terms, kernel = seed_frame_schur(pi, _CM_ENTRIES)
    return kernel(phi, terms(s)).T[:, _CM_POSITIONS].reshape(-1, 4, 4)


def _trace_forms(pi: Purification, seed_map, trace) -> tuple:
    """(a~, b~, a~ b~ - kx~^2) of the conditional standard form at each row of
    ``trace``, whose reported parameters are phi and then the arguments of
    ``seed_map``, which returns the seed-frame eigenvalues of Eve's seed."""
    phi, *params = np.array([params for params, _ in trace], dtype=float).T
    return std_form_xx_det(_conditional_cms(pi, phi, seed_map(*params)))


# ---------------------------------------------------------------------------
# shared single-mode-E machinery (R = 1 families)
# ---------------------------------------------------------------------------


SINGLE_MODE_SEARCH = SearchSpace(  # Eve's seed R(phi) diag(tau e^{2t}, tau e^{-2t}) R(phi)^T as (phi, ln tau, t)
    names=("phi", "tau", "t"), lows=(0.0, 0.0, 0.0), highs=(np.pi, 8.0, 8.0), periods=(np.pi, None, None), logs=(1,),
    # in priority order; t = inf is an exact homodyne limit
    candidates=(("heterodyne", (0.0, 0.0, 0.0)), ("homodyne p_E", (0.0, 0.0, np.inf)),
                ("homodyne x_E", (np.pi / 2.0, 0.0, np.inf))),
    label="general",
)


def _single_mode_seed(tau, t) -> tuple:
    """Seed-frame eigenvalues (tau e^{2t}, tau e^{-2t}) of Eve's single-mode seed; t = inf
    gives (inf, 0), the exact homodyne on the quadrature at phi + pi/2."""
    e2t = np.exp(2.0 * t)
    return tau * e2t, tau / e2t


def _single_mode_numeric(fam: StateFamily, pi: Purification, grid_cfg: GridConfig, gate) -> GieResult:
    """Eve's optimum over (phi, ln tau, t) and the single-mode limit candidates,
    judged by ``gate`` on the least GCMI gate G along the trace.

    One objective, ``f_xx`` of the conditional entries (0, 0), (2, 2) and
    (0, 2), serves the grid, the descent and the candidates, which are its
    rows at t = 0 (heterodyne) and t = inf (the exact homodynes).  It
    prepares the kernel's seed half from (ln tau, t), the entries' phi-free
    part and Eve's weight difference, and evaluates its angle half at phi:
    one product and one sum per entry and mesh point.  Its key is
    ``xx_ratio`` of the entries, r = va vb / (va vb - c^2), and its
    ``finish`` ``half_log``, so ``f_xx`` = 1/2 ln r: the grid ranks Eve's
    mesh by r and takes one logarithm, on its least key, while the descent
    and the candidates read ``f_xx`` itself, bit for bit.  Its value is the
    least ``f_xx`` of the mesh and its point the first least r.
    """
    closed = gie_closed_form(fam)
    if pi.r_count == 0:  # a pure state: a^2 - kp^2 = 1 (sym_glems), a = b (asym_glems)
        return _numeric_pure(fam, closed)
    terms, kernel = seed_frame_schur(pi, ((0, 0), (2, 2), (0, 2)))

    def prepare(log_tau, t):
        return terms(_single_mode_seed(np.exp(log_tau), t))

    def evaluate(phi, prepared):
        return xx_ratio(*kernel(phi, prepared))

    numeric, optimum, trace = search((prepare, evaluate, half_log), SINGLE_MODE_SEARCH, grid_cfg.points)
    gate_min = float(np.min(gcmi_condition_g(*_trace_forms(pi, _single_mode_seed, trace))))
    return _judged(fam, closed, float(numeric), optimum, trace, gate(gate_min), gate_min=gate_min)


def gie_numeric_sym_glems(fam: StateFamily, grid_cfg: GridConfig) -> GieResult:
    """Eve-side minimization for a symmetric GLEMS (x-homodyne fixed on A, B), gated on G > 2 - sqrt(2)."""
    return _single_mode_numeric(fam, purify(fam.std), grid_cfg, lambda g: g > GATE_LOWER_BOUND)


def gie_numeric_asym_glems(fam: StateFamily, grid_cfg: GridConfig) -> GieResult:
    """Eve-side minimization for an asymmetric squeezed-thermal GLEMS, whose closed form rests on G >= 0."""
    return _single_mode_numeric(fam, purify_asym_glems(fam), grid_cfg, lambda g: g >= 0.0)


def _numeric_pure(fam: StateFamily, closed: float) -> GieResult:
    g = std_form_cm(fam.std).mat  # a pure state's gamma_AB; there is no E to measure
    value = float(f_xx(g[0, 0], g[2, 2], g[0, 2]))
    trace = [(SINGLE_MODE_SEARCH.params(row), value) for _, row in SINGLE_MODE_SEARCH.candidates]
    # every measurement ties; the first in priority order names the optimum
    return _judged(fam, closed, value, "heterodyne", trace)


# ---------------------------------------------------------------------------
# symmetric squeezed thermal states (R = 2): the K_h machinery
# ---------------------------------------------------------------------------


def _cosh_sinh_v(a, k) -> tuple:
    """(nu, cosh v, sinh v) of the symmetric squeezed thermal state (a, k), elementwise:
    the one check of (a, k), for scalars or arrays of one shape."""
    nu_sq = (a - k) * (a + k)  # as make_family reads it
    bad = (a < 1.0) | (k < 0.0) | (nu_sq < 1.0 - FAMILY_ATOL)
    if np.count_nonzero(bad):  # on minimize_kh's Python floats, an eighth of np.any's cost
        first = np.argmax(bad)
        a, k = np.ravel(a)[first], np.ravel(k)[first]
        raise InvalidInputError(f"need a >= 1, k >= 0 and a^2 - k^2 >= 1, got ({a}, {k})")
    nu = np.sqrt(np.maximum(nu_sq, 1.0))
    return nu, (nu + 1.0 / nu) / 2.0, (nu - 1.0 / nu) / 2.0


def _kh_args(phi, lambda1, lambda2, a, k) -> tuple:
    """The arguments of ``k_h`` and ``k_h_determinant`` as float arrays of one
    broadcast shape, then ``_cosh_sinh_v(a, k)``: every element checked at once.
    On every row admitted, E^2 - F^2 = (E - F)(E + F) > 0, since
    E - F >= cosh v - sinh v > 0."""
    args = (phi, lambda1, lambda2, a, k)
    phi, lambda1, lambda2, a, k = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in args))
    bad = ~((0.0 <= phi) & (phi < np.pi) & (0.0 <= lambda2) & (lambda2 <= lambda1)
            & (0.0 < lambda1) & (lambda2 < np.inf))
    if bad.any():
        got = f"({phi[bad][0]}, {lambda1[bad][0]}, {lambda2[bad][0]})"
        need = "phi in [0, pi), lambda1 >= lambda2 >= 0, lambda1 > 0 and lambda2 finite"
        raise InvalidInputError(f"need {need}, got (phi, lambda1, lambda2) = {got}")
    return phi, lambda1, lambda2, a, k, _cosh_sinh_v(a, k)


def _kh_formula(a, k, cosh_v, sinh_v) -> tuple:
    """K_h of the state (a, k) split at phi: ``(terms, value, as_is)``, all broadcasting.

    ``terms(log_l1, log_l2)`` takes the searched coordinates (ln lambda1,
    ln lambda2) and returns what does not depend on phi, (lambda2 >
    lambda1, (k/a) E, F, E^2 - F^2), and ``value(phi, prepared)`` K_h from
    those terms, inf where lambda2 > lambda1; K_h is its own key.  E and F
    are divided by lambda1, which leaves K_h unchanged and keeps every term
    finite at lambda1 = inf: there E/lambda1 = cosh v and F/lambda1 =
    sinh v, the exact dual-homodyne limit.
    """

    k_over_a, base = k / a, (a * a - k * k) / (a * a)  # (a^2 - k^2)/a^2, the phi-free part of K_h

    def terms(log_l1, log_l2):
        lambda1, lambda2 = np.exp(log_l1), np.exp(log_l2)
        ratio = lambda2 / lambda1
        e = 1.0 / lambda1 + lambda2 + cosh_v * (1.0 + ratio)
        f = sinh_v * (1.0 - ratio)
        return lambda2 > lambda1, k_over_a * e, f, e * e - f * f

    def value(phi, prepared):
        mask, ke, f, denom = prepared
        numer = ke + f * np.cos(2.0 * phi)  # squared as numer * numer: a numpy scalar's ** 2 can round apart
        return np.where(mask, np.inf, base + numer * numer / denom)

    return terms, value, as_is


def k_h(phi, lambda1, lambda2, a, k):
    """Reduced Eve-side determinant ratio for double x-homodyne on A and B.

    ``K_h = (a^2 - k^2)/a^2 + [(k/a) E + F cos(2 phi)]^2 / (E^2 - F^2)``
    with E and F polynomial in the measurement parameters, Eve's
    Q = P(phi) diag(lambda1, lambda2) P(phi)^T.  Broadcasts over all five
    arguments and checks every element: phi in [0, pi), lambda1 >= lambda2
    >= 0 with lambda1 > 0 and lambda2 finite, and a physical (a, k).  It
    evaluates ``_kh_formula``, the triple that ``minimize_kh`` searches
    without the checks, at (phi, ln lambda1, ln lambda2).  lambda1 = inf
    gives the exact limit, the dual homodyne at phi = pi/2 and lambda2 = 0.

    Raises:
        InvalidInputError: an element is out of range.
    """
    phi, lambda1, lambda2, a, k, (_, cosh_v, sinh_v) = _kh_args(phi, lambda1, lambda2, a, k)
    terms, value, _ = _kh_formula(a, k, cosh_v, sinh_v)
    with np.errstate(divide="ignore"):  # ln 0 = -inf: the lambda2 = 0 limit row
        log_l2 = np.log(lambda2)
    return value(phi, terms(np.log(lambda1), log_l2))[()]


def _spectral_seed(phi, lambda1, lambda2) -> np.ndarray:
    """Eve's pure two-mode seeds blockdiag(Q, Q^{-1}) (xxpp), stacked (..., 4, 4) in xpxp order.

    Q = P(phi) diag(lambda1, lambda2) P(phi)^T fills the x entries and
    Q^{-1} = P(phi) diag(1/lambda1, 1/lambda2) P(phi)^T the p entries.
    """
    c, s = np.cos(phi), np.sin(phi)
    seed = np.zeros(np.shape(phi) + (4, 4))
    for quad, (l1, l2) in enumerate(((lambda1, lambda2), (1.0 / lambda1, 1.0 / lambda2))):
        block = seed[..., quad::2, quad::2]
        block[..., 0, 0] = l1 * c * c + l2 * s * s
        block[..., 1, 1] = l1 * s * s + l2 * c * c
        block[..., 0, 1] = block[..., 1, 0] = (l1 - l2) * c * s
    return seed


def k_h_determinant(phi, lambda1, lambda2, a, k):
    """Unreduced determinant form of K_h built from explicit 4x4 matrices.

    Eve's seed is the pure two-mode CM assembled from the spectral matrix Q
    (``_spectral_seed``, so lambda1 and lambda2 finite and positive); the
    four conditional blocks are the closed homodyne limits of the Eve-side
    covariances.  Broadcasts and checks as ``k_h`` does, and also rejects
    the exact limit rows that only ``k_h`` evaluates.  Serves as the
    independent oracle for the reduced formula.

    Raises:
        InvalidInputError: an element fails ``k_h``'s checks, or has an
            infinite lambda1 or lambda2 = 0.
    """
    phi, lambda1, lambda2, a, k, (nu, _, _) = _kh_args(phi, lambda1, lambda2, a, k)
    limit = ~((lambda1 < np.inf) & (lambda2 > 0.0))
    if limit.any():
        got = f"({lambda1[limit][0]}, {lambda2[limit][0]})"
        raise InvalidInputError(f"need lambda1 finite and lambda2 > 0, got (lambda1, lambda2) = {got}")
    z_sq = np.sqrt((a + k) / (a - k))
    w = (nu * nu - 1.0) / (2.0 * a)
    xs = np.zeros((4, *nu.shape, 4, 4))  # X_A, X_B, X_AB and gamma_E: p entries nu, x entries below
    xs[..., 1, 1] = xs[..., 3, 3] = nu
    xs[..., 0, 0] = nu - w * z_sq, nu - w * z_sq, 1.0 / nu, nu
    xs[..., 2, 2] = nu - w / z_sq, nu - w / z_sq, 1.0 / nu, nu
    xs[:2, ..., 0, 2] = xs[:2, ..., 2, 0] = w, -w
    det_a, det_b, det_ab, det_e = np.linalg.det(_spectral_seed(phi, lambda1, lambda2) + xs)
    return (det_a * det_b / (det_ab * det_e))[()]


KH_SEARCH = SearchSpace(  # Eve's Q = R(phi) diag(lambda1, lambda2) R(phi)^T as (phi, ln lambda1, ln lambda2)
    names=("phi", "lambda1", "lambda2"), lows=(0.0, -12.0, -12.0), highs=(np.pi, 24.0, 24.0),
    periods=(np.pi, None, None), logs=(1, 2),
    # in priority order; ln lambda1 = inf is the dual-homodyne limit
    candidates=(("homodyne x_EA p_EB", (np.pi / 2.0, np.inf, -np.inf)), ("heterodyne", (0.0, 0.0, 0.0))),
    label="Q",
)


def minimize_kh(a: float, k: float, grid_cfg: GridConfig = DEFAULT_GRID):
    """Deterministic minimization of K_h over Eve's reduced parameters.

    Runs ``gielab.optimize.search`` on ``KH_SEARCH`` with K_h split at phi
    (``_kh_formula``), handed over as it is: its terms prepare (ln lambda1,
    ln lambda2), its value evaluates phi.  Returns ``(k_min, optimum,
    trace)``; optimum is the label of the named candidate or ``Q(phi=...,
    lambda1=..., lambda2=...)`` at the descent end.
    """
    _, cosh_v, sinh_v = _cosh_sinh_v(a, k)
    k_min, optimum, trace = search(_kh_formula(a, k, cosh_v, sinh_v), KH_SEARCH, grid_cfg.points)
    return float(k_min), optimum, trace


def _kh_seed(lambda1, lambda2) -> tuple:
    """Seed-frame eigenvalues (lambda1, lambda2, 1/lambda1, 1/lambda2) of Eve's seed
    blockdiag(Q, Q^{-1}), Q = P diag(lambda1, lambda2) P^T; the limit row
    (pi/2, inf, 0) is the exact dual homodyne (1/lambda2 = inf)."""
    inv_l2 = np.divide(1.0, lambda2, out=np.full_like(lambda2, np.inf), where=lambda2 > 0.0)
    return lambda1, lambda2, 1.0 / lambda1, inv_l2


def gie_numeric_sym_sq_thermal(fam: StateFamily, grid_cfg: GridConfig) -> GieResult:
    """Eve-side minimization for a symmetric squeezed thermal state."""
    closed = gie_closed_form(fam)
    pi = purify(fam.std)
    if pi.r_count == 0:  # a^2 - k^2 = 1 within purify's cutoff: pure state
        return _numeric_pure(fam, closed)
    a, k = fam.std.a, fam.std.kx
    k_min, optimum, trace = minimize_kh(a, k, grid_cfg)
    i_h = 0.5 * np.log(a * a / ((a - k) * (a + k)))
    numeric = float(i_h + 0.5 * np.log(k_min))
    a_t, b_t, _ = _trace_forms(pi, _kh_seed, trace)
    sqrt_ab_max = float(np.sqrt(a_t * b_t).max())
    # the conditional-purity bound sqrt(a~ b~) <= a must hold on the trace
    gate = sqrt_ab_max <= a + SQRT_AB_SLACK
    return _judged(fam, closed, numeric, optimum, trace, gate, sqrt_ab_max=sqrt_ab_max)


def gie_numeric(fam: StateFamily, grid_cfg: GridConfig = DEFAULT_GRID) -> GieResult:
    """Dispatch the numeric Eve-side verification by family tag."""
    if fam.tag == "pure":
        return _numeric_pure(fam, gie_closed_form(fam))
    if fam.tag == "sym_glems":
        return gie_numeric_sym_glems(fam, grid_cfg)
    if fam.tag == "sym_sq_thermal":
        return gie_numeric_sym_sq_thermal(fam, grid_cfg)
    if fam.tag == "asym_glems":
        return gie_numeric_asym_glems(fam, grid_cfg)
    raise DomainNotCoveredError("numeric verification covers the four solvable families only")
