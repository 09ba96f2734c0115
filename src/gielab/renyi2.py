"""Gaussian Renyi-2 entanglement from closed formulas.

Two routes are implemented: the symmetric-state value written through the
smallest PPT symplectic eigenvalue, and the three-mode pure-state
reduction with its three parameter branches, which covers the asymmetric
squeezed-thermal GLEMS family through its own purification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidThreeModeError, WrongFamilyError
from .gie import gie_closed_form
from .states import StateFamily, StdForm, a_minus_kx

TRIANGLE_SLACK = 1e-12  # rounding allowance on the triangle constraints of ThreeModePureParams
TRIANGLE_ULPS = 4  # ... widened to this many ulps of the largest invariant, more than 1e-12 above about 1,100
SYMMETRY_RTOL = 1e-9  # largest |a - b| / max(a, b) that gr2_symmetric accepts as a = b


@dataclass(frozen=True)
class ThreeModePureParams:
    """Local symplectic invariants (a1, a2, a3) of a pure three-mode state."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        # a caller's a_k = 1 + |a_i - a_j| is itself off by about one ulp of the largest invariant
        slack = max(TRIANGLE_SLACK, TRIANGLE_ULPS * np.finfo(float).eps * max(self.a1, self.a2, self.a3))
        for ai, aj, ak in ((self.a1, self.a2, self.a3), (self.a2, self.a1, self.a3), (self.a3, self.a1, self.a2)):
            if ai < 1.0:
                raise InvalidThreeModeError(f"local invariants must be >= 1, got {ai}")
            if not abs(aj - ak) + 1.0 <= ai + slack:
                raise InvalidThreeModeError(f"triangle constraint violated: {ai} < |{aj} - {ak}| + 1")
            if not ai <= aj + ak - 1.0 + slack:
                raise InvalidThreeModeError(f"triangle constraint violated: {ai} > {aj} + {ak} - 1")

    def as_tuple(self):
        return (self.a1, self.a2, self.a3)


def _reduction_terms(p: ThreeModePureParams, ak_excess: float | None):
    """(a_i, a_j, a_k, a_k - 1) of the reduction that traces out the third mode."""
    ai, aj, ak = p.as_tuple()
    return ai, aj, ak, ak - 1.0 if ak_excess is None else ak_excess


def gr2_branch(p: ThreeModePureParams, ak_excess: float | None = None) -> int:
    """Which branch of g_k fires (1, 2 or 3) for the reduction that traces out the third mode.

    Branch 1 holds when ``a_k >= sqrt(a_i^2 + a_j^2 - 1)``, branch 3 when
    ``a_k <= alpha_k``; ties go to these closed-form branches.  Near the
    triangle boundary a_k = 1 + |a_i - a_j| both tests compare nearly equal
    numbers, so they are rewritten exactly in the differences u = |a_i - a_j|,
    the triangle slack w = (a_k - 1) - u and
    K = 2 (min(a_i, a_j) - 1)(max(a_i, a_j) + 1), with s = 2u + w + 2,
    x = (a_k - 1)(a_k + 1) and v = a_i + a_j:

    - branch 1: ``w s >= K``
    - branch 3: ``2 u^4 K >= w s [u^2 (x + u (u + 2)) + v^2 (w s + 4 u)]``

    Each side is a product or sum of non-negative terms, so neither cancels.
    On the boundary w = 0, where the asymmetric GLEMS reduction lies,
    branch 3 holds for every state.  ``ak_excess`` is a_k - 1 when the
    caller knows it exactly; a_k itself may be rounded.
    """
    ai, aj, ak, excess = _reduction_terms(p, ak_excess)
    u, v = abs(ai - aj), ai + aj
    w = excess - u
    ws = w * (2.0 * u + w + 2.0)
    k = 2.0 * (min(ai, aj) - 1.0) * (max(ai, aj) + 1.0)
    if ws >= k:
        return 1
    x = excess * (ak + 1.0)
    if 2.0 * u**4 * k >= ws * (u * u * (x + u * (u + 2.0)) + v * v * (ws + 4.0 * u)):
        return 3
    return 2


def gr2_two_mode_reduction(p: ThreeModePureParams, ak_excess: float | None = None) -> float:
    """GR2 entanglement of the two-mode reduction with the third mode traced out.

    The kept modes are the first two, (a_i, a_j) = (a1, a2), and a_k = a3;
    the reduction is symmetric in a1 and a2, so permuting the triple
    traces out another mode.  The value is ``(1/2) ln g_k`` with the
    branch of g_k chosen by ``gr2_branch``; on the third branch it is
    ``ln(|a_i^2 - a_j^2| / (a_k^2 - 1))``, taken from the factored forms
    ``(a_i - a_j)(a_i + a_j)`` and ``(a_k - 1)(a_k + 1)``.  ``ak_excess`` is
    a_k - 1 when the caller knows it exactly (the asymmetric GLEMS reduction
    passes |a - b|, whose a_k = 1 + |a - b| rounds).
    """
    branch = gr2_branch(p, ak_excess)
    if branch == 1:
        return 0.0
    ai, aj, ak, excess = _reduction_terms(p, ak_excess)
    if branch == 3:
        return float(np.log(abs((ai - aj) * (ai + aj)) / (excess * (ak + 1.0))))
    a1, a2, a3 = a = p.as_tuple()
    delta = 1.0
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            for s3 in (-1.0, 1.0):
                delta *= s1 + a1 + s2 * a2 + s3 * a3
    if delta < 0.0:
        raise InvalidThreeModeError(f"negative discriminant {delta} for {a}")
    zeta = (
        -1.0
        + 2.0 * (a1 * a1 + a2 * a2 + a3 * a3)
        + 2.0 * (a1 * a1 * a2 * a2 + a1 * a1 * a3 * a3 + a2 * a2 * a3 * a3)
        - a1**4
        - a2**4
        - a3**4
        - np.sqrt(delta)
    )
    return float(0.5 * np.log(zeta / (8.0 * ak * ak)))


def gr2_symmetric(p: StdForm) -> float:
    """GR2 entanglement of a symmetric standard form.

    ``ln[(nu- + 1/nu-)/2]`` with nu- the smallest PPT symplectic
    eigenvalue ``sqrt((a - kx)(a - kp))``, zero when nu- >= 1.
    """
    if abs(p.a - p.b) > SYMMETRY_RTOL * max(p.a, p.b):
        raise WrongFamilyError(f"gr2_symmetric needs a = b, got ({p.a}, {p.b})")
    nu_minus = np.sqrt(a_minus_kx(p) * (p.a - p.kp))
    if nu_minus >= 1.0:
        return 0.0
    return float(np.log((nu_minus + 1.0 / nu_minus) / 2.0))


def gr2_of_family(fam: StateFamily) -> float:
    """GR2 entanglement of a family instance via its closed formulas."""
    if fam.tag == "asym_glems":
        a, b = fam.std.a, fam.std.b
        if a == b:
            return gr2_symmetric(fam.std)
        excess = abs(a - b)  # exact a_3 - 1; the rounded a_3 = 1 + |a - b| cancels
        return gr2_two_mode_reduction(ThreeModePureParams(a1=a, a2=b, a3=1.0 + excess), ak_excess=excess)
    if fam.tag in ("pure", "sym_glems", "sym_sq_thermal"):
        return gr2_symmetric(fam.std)
    raise WrongFamilyError("GR2 closed forms cover the four solvable families only")


def conjecture_gap(fam: StateFamily) -> float:
    """|GIE - GR2| for a family instance (zero on every proven family)."""
    return abs(gie_closed_form(fam) - gr2_of_family(fam))
