"""Two-mode Gaussian state families, standard-form reduction and separability.

The standard form carries four scalars (a, b, kx, kp): diagonal blocks
``a I`` and ``b I`` and off-diagonal block ``diag(kx, -kp)`` with
``kx >= |kp|``.  Positive kp is the entanglement-candidate convention;
kp <= 0 means both correlation signs agree, which is always separable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidFamilyParamsError, InvalidInputError, NumericalDegeneracyError, UnphysicalStateError
from .symplectic import PHYSICAL_ATOL, CovMat, std_form_symplectic_eigenvalues

PPT_ATOL = 1e-10  # separability margin on the smallest PPT symplectic eigenvalue
FAMILY_ATOL = 1e-10  # slack of a family-defining constraint
# Physicality gate of the StdForm constructor on nu2.  Near the isotropic surface
# nu1 = nu2 a spectrum computed in closed form carries an irreducible sqrt(machine-eps)
# noise floor, so derived conditional forms cannot be certified at 1e-9 through
# this route; full-matrix checks still use symplectic.PHYSICAL_ATOL.
STD_FORM_ATOL = 1e-7
CLASSIFY_ATOL = 1e-8  # family classification of a StdForm
STD_FORM_ENTRY_MAX = 1e75  # larger entries overflow det gamma in the closed-form spectrum


@dataclass(frozen=True)
class StdForm:
    """Standard-form parameters of a two-mode covariance matrix and its symplectic
    spectrum ``nus`` (nu1 >= nu2): exact from ``make_family``, else computed."""

    a: float
    b: float
    kx: float
    kp: float
    nus: tuple[float, float] | None = field(default=None, compare=False)

    def __post_init__(self):
        entries = (self.a, self.b, self.kx, self.kp)
        if not all(abs(x) <= STD_FORM_ENTRY_MAX for x in entries):  # nan and inf fail too
            raise InvalidInputError(f"standard form needs finite entries up to {STD_FORM_ENTRY_MAX:g}, got {entries}")
        if self.a < 1.0 - PHYSICAL_ATOL or self.b < 1.0 - PHYSICAL_ATOL:
            raise UnphysicalStateError(f"local purities need a, b >= 1, got ({self.a}, {self.b})")
        if self.kx < 0.0 or self.kx < abs(self.kp) - FAMILY_ATOL:
            raise InvalidInputError(f"standard form needs kx >= |kp| >= 0, got ({self.kx}, {self.kp})")
        if self.nus is None:
            object.__setattr__(self, "nus", std_form_symplectic_eigenvalues(self.a, self.b, self.kx, self.kp))
        if self.nus[1] < 1.0 - STD_FORM_ATOL:
            raise UnphysicalStateError(f"unphysical standard form, nu2 = {self.nus[1]:.12g}")


@dataclass(frozen=True)
class StateFamily:
    """A classified two-mode state: family tag plus its standard form."""

    tag: str  # pure | sym_glems | sym_sq_thermal | asym_glems | generic
    std: StdForm

    def __post_init__(self):
        if self.tag not in ("pure", "sym_glems", "sym_sq_thermal", "asym_glems", "generic"):
            raise InvalidFamilyParamsError(f"unknown family tag {self.tag!r}")


def std_form_cm(p: StdForm) -> CovMat:
    """Assemble the 4x4 covariance matrix of a standard form."""
    a, b, kx, kp = p.a, p.b, p.kx, p.kp
    mat = np.array(
        [
            [a, 0.0, kx, 0.0],
            [0.0, a, 0.0, -kp],
            [kx, 0.0, b, 0.0],
            [0.0, -kp, 0.0, b],
        ]
    )
    return CovMat(mat)


def std_form_xx_det(gamma):
    """a, b and a b - kx^2 of the standard form of a two-mode CM or a stack of them.

    a and b are the square roots of det A and det B.  a b - kx^2 and
    a b - kp^2 multiply to det gamma and differ by D = kx^2 - kp^2 >= 0, so
    a b - kx^2 = 2 det gamma / (D + sqrt(D^2 + 4 det gamma)), without
    cancelling a b against kx^2.  D is read without cancellation either:
    kx and |kp| are the singular values of the locally normalized cross
    block [[p, q], [r, s]] = sqrt(ab) A^(-1/2) C B^(-1/2), so D^2 = ((p -
    s)^2 + (q + r)^2)((p + s)^2 + (q - r)^2), and the 2x2 square root
    sqrt(A) = (A + a I) / sqrt(tr A + 2a) gives sqrt(a) A^(-1/2) = adj(A +
    a I) / sqrt(a (tr A + 2a)).  The three determinants are
    ``np.linalg.det`` calls on the stack; the rest is a loop over its rows
    on Python floats, with ``np.hypot`` once per level on all rows
    (``math.hypot`` rounds differently in the last bit on some inputs).
    The root taken is the positive one, which is
    right where a b - kx^2 and a b - kp^2 are both positive: their product
    det gamma is then positive and so is their mean a b - (kx^2 + kp^2)/2,
    where kx^2 + kp^2 is the squared Frobenius norm of the normalized cross
    block.  Any other input (a gamma that is not positive definite) raises;
    no physicality validation beyond these signs is applied.  A single CM
    gives numpy scalars, a stack arrays of its shape (empty for an empty
    stack).

    Raises:
        UnphysicalStateError: det A or det B is not positive, or a b - kx^2
            and a b - kp^2 are not both positive (det gamma <= 0, or a b <=
            (kx^2 + kp^2)/2), at some CM of the stack.
    """
    mat = gamma.mat if isinstance(gamma, CovMat) else np.asarray(gamma, dtype=float)
    if mat.shape[-2:] != (4, 4):
        raise InvalidInputError(f"expected a two-mode covariance matrix, got {mat.shape}")
    det = np.linalg.det
    with np.errstate(all="ignore"):  # LAPACK's flags on a singular block; the sign tests below judge every row
        det_a, det_b, det_g = np.reshape((det(mat[..., :2, :2]), det(mat[..., 2:, 2:]), det(mat)), (3, -1)).tolist()
    a, b, scale, legs = [], [], [], []
    for da, db, entries in zip(det_a, det_b, mat.reshape(-1, 16).tolist()):
        if da <= 0.0 or db <= 0.0:
            raise UnphysicalStateError("local block determinant is not positive")
        ra, rb = math.sqrt(da), math.sqrt(db)
        a00, a01, c00, c01, a10, a11, c10, c11, _, _, b00, b01, _, _, b10, b11 = entries
        # adj(A + a I) C adj(B + b I) = [[p, q], [r, s]] sqrt(a (tr A + 2a) b (tr B + 2b)), adjugate diagonals first
        pa, pd, qa, qd = a11 + ra, a00 + ra, b11 + rb, b00 + rb
        x00, x01, x10, x11 = c00 * qa - c01 * b10, c01 * qd - c00 * b01, c10 * qa - c11 * b10, c11 * qd - c10 * b01
        p, q, r, s = pa * x00 - a01 * x10, pa * x01 - a01 * x11, pd * x10 - a10 * x00, pd * x11 - a10 * x01
        a.append(ra)
        b.append(rb)
        scale.append(ra * (pa + pd) * (rb * (qa + qd)))
        legs += (p + s, q - r, p - s, q + r)
    # per row sqrt(scale) (kx + |kp|) and sqrt(scale) |kx - |kp||, whose squares add to 2 scale (kx^2 + kp^2)
    legs = np.array(legs)
    halves = np.hypot(legs[0::2], legs[1::2])  # outer, inner of each row in turn
    spread = np.hypot(halves[0::2], halves[1::2])
    diff, root = [], []
    for ra, rb, sc, dg, (outer, inner), sp in zip(a, b, scale, det_g, halves.reshape(-1, 2).tolist(), spread.tolist()):
        # the signs of det gamma and of 4 scale (a b - (kx^2 + kp^2)/2), each tested on its own: a NaN fails either
        if not (dg > 0.0 and 4.0 * ra * rb * sc - sp * sp > 0.0):
            raise UnphysicalStateError("a b - kx^2 and a b - kp^2 are not both positive")
        diff.append(inner * outer / sc)  # kx^2 - kp^2
        root.append(2.0 * math.sqrt(dg))
    xx_det = [2.0 * dg / (d + h) for dg, d, h in zip(det_g, diff, np.hypot(diff, root).tolist())]
    return tuple(np.array((a, b, xx_det)).reshape((3, *mat.shape[:-2])))


def a_minus_kx(p: StdForm) -> float:
    """a - kx, which the symmetric closed forms divide by; NumericalDegeneracyError
    where kx rounds to a or above (a CV GHZ state from r ~ 9.55)."""
    gap = p.a - p.kx
    if not gap > 0.0:
        raise NumericalDegeneracyError(f"a - kx rounds to {gap:g} at a = {p.a:.17g}: past the double-precision limit")
    return gap


def ppt_min_symplectic_eigenvalue(p: StdForm) -> float:
    """Smallest symplectic eigenvalue of the partially transposed CM."""
    _, nu2 = std_form_symplectic_eigenvalues(p.a, p.b, p.kx, -p.kp)
    return nu2


def is_separable(p: StdForm) -> bool:
    """PPT criterion, necessary and sufficient for 1x1 mode bipartitions."""
    if p.kp <= 0.0:  # both correlations share a sign: separable outright
        return True
    return ppt_min_symplectic_eigenvalue(p) >= 1.0 - PPT_ATOL


# Each family's defining scalars, in the order a, b, k, kp, r.
FAMILY_PARAMS = {
    "pure": ("a",),
    "sym_glems": ("a", "kp"),
    "sym_sq_thermal": ("a", "k"),
    "asym_glems": ("a", "b"),
    "cv_ghz": ("r",),
}


def make_family(tag: str, **params) -> StateFamily:
    """Construct a state family instance from its defining scalars.

    ``FAMILY_PARAMS[tag]`` names the scalars each tag takes:
        pure(a)                two-mode squeezed vacuum, k = sqrt(a^2 - 1)
        sym_glems(a, kp)       one unit symplectic eigenvalue, kx = a - 1/(a + kp)
        sym_sq_thermal(a, k)   kx = kp = k
        asym_glems(a, b)       k fixed by the unit-eigenvalue branch
        cv_ghz(r)              two-mode reduction of the CV GHZ state, built as
                               the sym_glems instance of its (a, kp)

    Raises:
        InvalidFamilyParamsError: an unknown tag, a missing or unknown
            scalar, or scalars outside the family's range.
    """
    names = FAMILY_PARAMS.get(tag)
    if names is None:
        raise InvalidFamilyParamsError(f"unknown family tag {tag!r}")
    if params.keys() != set(names):
        raise InvalidFamilyParamsError(f"{tag} takes ({', '.join(names)}), got ({', '.join(params)})")
    if tag == "pure":
        a = float(params["a"])
        if a < 1.0:
            raise InvalidFamilyParamsError(f"pure family needs a >= 1, got {a}")
        k = np.sqrt(max(a * a - 1.0, 0.0))
        std = StdForm(a=a, b=a, kx=float(k), kp=float(k), nus=(1.0, 1.0))
        return StateFamily(tag="pure", std=std)
    if tag == "sym_glems":
        a, kp = float(params["a"]), float(params["kp"])
        if a < 1.0 or kp < 0.0:
            raise InvalidFamilyParamsError(f"sym_glems needs a >= 1 and kp >= 0, got ({a}, {kp})")
        nu_sq = (a - kp) * (a + kp)  # a * a - kp * kp rounds off by eps a^2
        if nu_sq < 1.0 - FAMILY_ATOL:
            raise InvalidFamilyParamsError(f"sym_glems needs a^2 - kp^2 >= 1, got {nu_sq}")
        kx = a - 1.0 / (a + kp)
        std = StdForm(a=a, b=a, kx=kx, kp=kp, nus=(float(np.sqrt((a + kx) * (a - kp))), 1.0))
        return StateFamily(tag="sym_glems", std=std)
    if tag == "sym_sq_thermal":
        a, k = float(params["a"]), float(params["k"])
        nu_sq = (a - k) * (a + k)  # a * a - k * k rounds off by eps a^2
        if a < 1.0 or k < 0.0 or nu_sq < 1.0 - FAMILY_ATOL:
            raise InvalidFamilyParamsError(f"sym_sq_thermal needs a^2 - k^2 >= 1, got ({a}, {k})")
        std = StdForm(a=a, b=a, kx=k, kp=k, nus=(float(np.sqrt(nu_sq)),) * 2)
        return StateFamily(tag="sym_sq_thermal", std=std)
    if tag == "asym_glems":
        a, b = float(params["a"]), float(params["b"])
        if a < 1.0 or b < 1.0:
            raise InvalidFamilyParamsError(f"asym_glems needs a, b >= 1, got ({a}, {b})")
        k = np.sqrt((a + 1.0) * (b - 1.0)) if a >= b else np.sqrt((a - 1.0) * (b + 1.0))
        std = StdForm(a=a, b=b, kx=float(k), kp=float(k), nus=(1.0 + abs(a - b), 1.0))
        return StateFamily(tag="asym_glems", std=std)
    r = float(params["r"])  # cv_ghz
    if r < 0.0:
        raise InvalidFamilyParamsError(f"cv_ghz needs r >= 0, got {r}")
    # past r ~ 177 the entries overflow to inf or nan, which StdForm rejects
    with np.errstate(over="ignore", invalid="ignore"):
        xp = (np.exp(2.0 * r) + 2.0 * np.exp(-2.0 * r)) / 3.0
        xm = (np.exp(-2.0 * r) + 2.0 * np.exp(2.0 * r)) / 3.0
        a, kp = np.sqrt(xp * xm), np.sqrt(xp / xm) * (xm - xp)
    # a^2 = 1 + (8/9) sinh^2(2r) >= 1, but the product xp xm rounds below 1 for some r < 1e-8
    return make_family("sym_glems", a=max(float(a), 1.0), kp=float(kp))


def classify(p: StdForm) -> StateFamily:
    """Classify a standard form into the family hierarchy.

    Precedence: pure, then symmetric GLEMS, then symmetric squeezed
    thermal, then asymmetric squeezed-thermal GLEMS, else generic.
    """
    nu1, nu2 = p.nus
    symmetric = abs(p.a - p.b) <= CLASSIFY_ATOL
    isotropic = abs(p.kx - p.kp) <= CLASSIFY_ATOL
    glems = abs(nu2 - 1.0) <= CLASSIFY_ATOL
    if abs(nu1 - 1.0) <= CLASSIFY_ATOL and glems:
        return StateFamily(tag="pure", std=p)
    if symmetric and glems:
        return StateFamily(tag="sym_glems", std=p)
    if symmetric and isotropic:
        return StateFamily(tag="sym_sq_thermal", std=p)
    if isotropic and glems:
        return StateFamily(tag="asym_glems", std=p)
    return StateFamily(tag="generic", std=p)
