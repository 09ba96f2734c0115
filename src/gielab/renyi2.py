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
from .states import StateFamily, StdForm


@dataclass(frozen=True)
class ThreeModePureParams:
    """Local symplectic invariants (a1, a2, a3) of a pure three-mode state."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        for ai, aj, ak in ((self.a1, self.a2, self.a3), (self.a2, self.a1, self.a3), (self.a3, self.a1, self.a2)):
            if ai < 1.0:
                raise InvalidThreeModeError(f"local invariants must be >= 1, got {ai}")
            if not abs(aj - ak) + 1.0 <= ai + 1e-12:
                raise InvalidThreeModeError(f"triangle constraint violated: {ai} < |{aj} - {ak}| + 1")
            if not ai <= aj + ak - 1.0 + 1e-12:
                raise InvalidThreeModeError(f"triangle constraint violated: {ai} > {aj} + {ak} - 1")

    def as_tuple(self):
        return (self.a1, self.a2, self.a3)


def _alpha_k(ai: float, aj: float) -> float:
    diff = ai * ai - aj * aj
    total = ai * ai + aj * aj
    inner = diff * diff + 8.0 * total
    return float(np.sqrt((2.0 * total + diff * diff + abs(diff) * np.sqrt(inner)) / (2.0 * total)))


def gr2_two_mode_reduction(p: ThreeModePureParams, traced_mode: int) -> float:
    """GR2 entanglement of the two-mode reduction with one mode traced out.

    ``traced_mode`` is 1, 2 or 3.  The value is ``(1/2) ln g_k`` with the
    branch of g_k selected by where a_k falls relative to alpha_k and
    sqrt(a_i^2 + a_j^2 - 1); ties resolve toward the closed-form branches.
    """
    if traced_mode not in (1, 2, 3):
        raise InvalidThreeModeError(f"traced_mode must be 1, 2 or 3, got {traced_mode}")
    a = p.as_tuple()
    ak = a[traced_mode - 1]
    ai, aj = (a[n] for n in range(3) if n != traced_mode - 1)
    if ak >= np.sqrt(ai * ai + aj * aj - 1.0):
        return 0.0
    if ak <= _alpha_k(ai, aj):
        g = ((ai * ai - aj * aj) / (ak * ak - 1.0)) ** 2
        return float(0.5 * np.log(g))
    a1, a2, a3 = a
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


def gr2_branch(p: ThreeModePureParams, traced_mode: int) -> int:
    """Which branch of g_k fires (1, 2 or 3) for diagnostics and tests."""
    a = p.as_tuple()
    ak = a[traced_mode - 1]
    ai, aj = (a[n] for n in range(3) if n != traced_mode - 1)
    if ak >= np.sqrt(ai * ai + aj * aj - 1.0):
        return 1
    if ak <= _alpha_k(ai, aj):
        return 3
    return 2


def gr2_symmetric(p: StdForm) -> float:
    """GR2 entanglement of a symmetric standard form.

    ``ln[(nu- + 1/nu-)/2]`` with nu- the smallest PPT symplectic
    eigenvalue ``sqrt((a - kx)(a - kp))``, zero when nu- >= 1.
    """
    if abs(p.a - p.b) > 1e-9 * max(p.a, p.b):
        raise WrongFamilyError(f"gr2_symmetric needs a = b, got ({p.a}, {p.b})")
    nu_minus = np.sqrt((p.a - p.kx) * (p.a - p.kp))
    if nu_minus >= 1.0:
        return 0.0
    return float(np.log((nu_minus + 1.0 / nu_minus) / 2.0))


def gr2_of_family(fam: StateFamily) -> float:
    """GR2 entanglement of a family instance via its closed formulas."""
    if fam.tag == "asym_glems":
        a, b = fam.std.a, fam.std.b
        if a == b:
            return gr2_symmetric(fam.std)
        triple = ThreeModePureParams(a1=a, a2=b, a3=1.0 + abs(a - b))
        return gr2_two_mode_reduction(triple, traced_mode=3)
    if fam.tag in ("pure", "sym_glems", "sym_sq_thermal"):
        return gr2_symmetric(fam.std)
    raise WrongFamilyError("GR2 closed forms cover the four solvable families only")


def conjecture_gap(fam: StateFamily) -> float:
    """|GIE - GR2| for a family instance (zero on every proven family)."""
    return abs(gie_closed_form(fam) - gr2_of_family(fam))
