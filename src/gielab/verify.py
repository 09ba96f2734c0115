"""Programmatic verification suite behind ``gielab verify`` and the tests.

Each check mirrors one acceptance criterion: closed-form identities on the
worked points, Eve-side optimizer agreement, candidate ordering, GCMI
optimality, the K_h reduction, threshold bounds along optimizer traces,
the GIE = GR2 equality, faithfulness and the structural residual suite.
Sampling is deterministic (fixed seeds), so repeated runs are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GridConfig
from .errors import GielabError
from .gie import (
    GATE_LOWER_BOUND,
    SQRT_AB_SLACK,
    VERIFIED_DOMAIN_BOUND,
    gie_closed_form,
    gie_numeric,
    k_h,
    k_h_determinant,
    minimize_kh,
    sym_glems_candidates,
)
from .information import f_decomposed, f_xx, gcmi_condition_g, gcmi_numeric, mutual_information_f
from .measurement import general_single_mode, heterodyne, homodyne
from .purification import PURITY_ATOL, purify
from .renyi2 import ThreeModePureParams, conjecture_gap, gr2_branch
from .states import StdForm, classify, is_separable, make_family
from .symplectic import SYMPLECTIC_ATOL, WILLIAMSON_ATOL, CovMat, symplectic_form, williamson

# Worked closed-form points, frozen from direct evaluation of the formulas.
WORKED_POINTS = (
    ("sym_glems", {"a": 1.5, "kp": 0.5}, 0.05889151782819164),
    ("sym_sq_thermal", {"a": 1.2, "k": 0.5}, 0.06230388333615484),
    ("asym_glems", {"a": 2.0, "b": 1.5}, 0.3364722366212129),
    ("cv_ghz", {"r": 0.5}, 0.08954514823451633),
    ("pure", {"a": 2.0}, 0.6931471805599453),
)
KMIN_WORKED = 0.9360540674603174  # K_h minimum at (a, k) = (1.2, 0.5)

# Pass tolerances of the checks, one per compared quantity.
CLOSED_FORM_ATOL = 1e-9          # worked closed-form values vs frozen oracles
MINMAX_ATOL = 2e-5               # |closed - numeric| of the family minimizers
CANDIDATE_ORDER_SLACK = -1e-12   # least allowed U1 - U3 and U2 - U3
GCMI_ATOL = 1e-6                 # GCMI u-minimization vs its closed form
KH_CROSS_ATOL = 1e-9             # reduced K_h vs the determinant form
KH_UNIT_ATOL = 1e-12             # K_h = 1 at an equal spectrum
KH_MIN_ATOL = 1e-6               # K_h grid minimum vs KMIN_WORKED
CONJECTURE_ATOL = 1e-12          # |GIE - GR2| on the family grids
FAITHFULNESS_ATOL = 1e-6         # |min f| on separable states
HOMODYNE_LIMIT_ATOL = 1e-5       # exact homodyne vs a t = 8 squeezed seed
F_DECOMPOSITION_ATOL = 1e-9      # I_AB + K_EAB vs the total f


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.criterion}: {self.detail}"


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    A degree-18 Taylor series of ``a / 2^k``, whose 1-norm is below 1, so
    the omitted tail is below 1e-17 in norm; then k squarings.
    """
    k = max(0, int(np.frexp(np.abs(a).sum(axis=0).max())[1]))
    a = a / 2.0**k
    term = out = np.eye(len(a))
    for j in range(1, 19):
        term = term @ a / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def random_symplectic(rng, scale: float) -> np.ndarray:
    """Random two-mode symplectic matrix ``exp(Omega H)``, ``H = scale (G + G^T)``, G standard normal."""
    h = rng.normal(size=(4, 4))
    return _expm(symplectic_form(2) @ (scale * (h + h.T)))


def random_physical_cm(rng, scale: float) -> np.ndarray:
    """Random physical two-mode CM: ``random_symplectic`` conjugation of a thermal spectrum in [1, 3)."""
    s = random_symplectic(rng, scale)
    nus = np.sort(1.0 + rng.random(2) * 2.0)[::-1]
    return s @ np.diag(np.repeat(nus, 2)) @ s.T


def _random_std_form(rng) -> StdForm:
    """A random valid standard form with a, b in [1, 3); StdForm rejects the invalid draws."""
    while True:
        a = 1.0 + rng.random() * 2.0
        b = 1.0 + rng.random() * 2.0
        kx = rng.random() * np.sqrt(max(a * b - 1.0, 0.0))
        kp = rng.uniform(-kx, kx)
        try:
            return StdForm(a=a, b=b, kx=kx, kp=kp)
        except GielabError:
            continue


def _entangled_sym_glems(rng, max_a=6.0):
    while True:
        a = 1.0 + rng.random() * (max_a - 1.0)
        cap = np.sqrt(max(a * a - 1.0, 0.0))
        kp = rng.random() * cap
        if kp > 1e-6:
            return a, kp


def check_closed_form_identities() -> CheckResult:
    """Criterion 1: worked points against frozen direct-formula values."""
    worst = 0.0
    for tag, params, expected in WORKED_POINTS:
        fam = make_family(tag, **params)
        worst = max(worst, abs(gie_closed_form(fam) - expected))
    passed = worst < CLOSED_FORM_ATOL
    return CheckResult(
        "closed-form identities", passed, f"max |value - oracle| = {worst:.3e} (tol {CLOSED_FORM_ATOL:g})"
    )


def _family_sample_points(per_family: int):
    """Deterministic entangled in-domain parameter points for each family."""
    rng = np.random.default_rng(20240401)
    sym_glems, sym_sq, asym = [], [], []
    while len(sym_glems) < per_family:
        a, kp = _entangled_sym_glems(rng, max_a=4.0)
        sym_glems.append(("sym_glems", {"a": a, "kp": kp}))
    while len(sym_sq) < per_family:
        a = 1.0 + rng.random() * 1.41
        lo, hi = max(a - 1.0, 0.0), np.sqrt(a * a - 1.0)
        k = lo + rng.random() * (hi - lo)
        if a - k < 1.0 - 1e-6 and k > 1e-6:
            sym_sq.append(("sym_sq_thermal", {"a": a, "k": k}))
    while len(asym) < per_family:
        a = 1.0 + rng.random() * 1.4
        b = 1.0 + rng.random() * 1.4
        if abs(a - b) > 1e-3 and np.sqrt(a * b) <= VERIFIED_DOMAIN_BOUND and min(a, b) > 1.0 + 1e-6:
            asym.append(("asym_glems", {"a": a, "b": b}))
    return {"sym_glems": sym_glems, "sym_sq_thermal": sym_sq, "asym_glems": asym}


_EXPECTED_OPTIMUM = {
    "sym_glems": "homodyne x_E",
    "sym_sq_thermal": "homodyne x_EA p_EB",
    "asym_glems": "heterodyne",
}


def run_family_numeric(per_family: int, grid_cfg: GridConfig):
    """Numeric optimizer results over the deterministic family samples."""
    out = []
    for tag, points in _family_sample_points(per_family).items():
        for _, params in points:
            fam = make_family(tag, **params)
            out.append((tag, params, gie_numeric(fam, grid_cfg)))
    return out


def check_minmax(results) -> CheckResult:
    """Criterion 2: numeric optimum vs closed form, and Eve's reported optimum."""
    worst = 0.0
    wrong_opt = []
    for tag, params, res in results:
        worst = max(worst, res.discrepancy)
        if res.eve_optimum != _EXPECTED_OPTIMUM[tag]:
            wrong_opt.append((tag, params, res.eve_optimum))
    passed = worst < MINMAX_ATOL and not wrong_opt
    detail = f"{len(results)} points, max |closed - numeric| = {worst:.3e} (tol {MINMAX_ATOL:g})"
    if wrong_opt:
        detail += f"; unexpected optima: {wrong_opt[:3]}"
    return CheckResult("min-max verification", passed, detail)


def check_candidate_ordering(n=1000) -> CheckResult:
    """Criterion 3: U1 >= U3 and U2 >= U3 on random entangled symmetric GLEMS."""
    rng = np.random.default_rng(7)
    worst = np.inf
    for _ in range(n):
        a, kp = _entangled_sym_glems(rng)
        u1, u2, u3 = sym_glems_candidates(a, kp)
        worst = min(worst, u1 - u3, u2 - u3)
    passed = worst >= CANDIDATE_ORDER_SLACK
    return CheckResult("candidate ordering", passed, f"{n} points, min(U1 - U3, U2 - U3) = {worst:.3e}")


def check_gcmi_optimality(grid_cfg: GridConfig, n=1000) -> CheckResult:
    """Criterion 4: numeric u-minimization vs the closed form when G >= 0.

    On these forms the u grid's best point is its r = inf row (the double
    homodyne, which is ``f_xx`` itself) on every draw of the fast (60) and
    full (1,000) suites at grids 13, 21 and 33, so ``gcmi_numeric`` never
    descends here: the line compares the closed form with the grid's
    r = inf row and checks that no finite grid point lies below it.  The
    descent from a finite grid best (G < 0) is checked against a
    brute-force minimum of u in tests/test_information.py.
    """
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    while checked < n:
        cond = _random_std_form(rng)
        if gcmi_condition_g(cond.a, cond.b, cond.a * cond.b - cond.kx * cond.kx) < 0.0:
            continue
        gap = abs(gcmi_numeric(cond, grid_cfg.points) - f_xx(cond.a, cond.b, cond.kx))
        worst = max(worst, gap)
        checked += 1
    passed = worst < GCMI_ATOL
    return CheckResult("GCMI optimality", passed, f"{checked} forms, max |numeric - closed| = {worst:.3e}")


def check_kh_machinery(grid_cfg: GridConfig, n=1000) -> CheckResult:
    """Criterion 5: K_h reduction vs determinants, unit identity, grid minimum;
    one call of each K_h form over the whole sample."""
    rng = np.random.default_rng(13)
    draws = []
    for _ in range(n):
        a = 1.0 + rng.random() * 1.41
        lo, hi = max(a - 1.0, 0.0), np.sqrt(a * a - 1.0)
        k = lo + rng.random() * (hi - lo)
        if a * a - k * k <= 1.0 + 1e-9:
            continue
        draws.append((rng.random() * np.pi, *np.exp(rng.uniform(-3.0, 6.0, size=2)), a, k))
    phi, lam_0, lam_1, a, k = np.array(draws).reshape(-1, 5).T
    lambda1, lambda2 = np.maximum(lam_0, lam_1), np.minimum(lam_0, lam_1)
    cross = k_h(phi, lambda1, lambda2, a, k) - k_h_determinant(phi, lambda1, lambda2, a, k)
    worst_cross = np.max(np.abs(cross), initial=0.0)
    worst_unit = np.max(np.abs(k_h(phi, lam_0, lam_0, a, k) - 1.0), initial=0.0)
    k_min, _, _ = minimize_kh(1.2, 0.5, grid_cfg)
    gap_min = abs(k_min - KMIN_WORKED)
    passed = worst_cross < KH_CROSS_ATOL and worst_unit < KH_UNIT_ATOL and gap_min < KH_MIN_ATOL
    return CheckResult(
        "K_h machinery",
        passed,
        f"cross {worst_cross:.3e}, unit {worst_unit:.3e}, grid-min gap {gap_min:.3e}",
    )


def check_thresholds(results) -> CheckResult:
    """Criterion 6: sqrt(a~ b~) <= a and the GCMI gates along optimizer traces,
    G > 2 - sqrt(2) for sym_glems and G >= 0 for asym_glems; every in-domain
    result must be verified, so a gate the minimizer misjudges fails too."""
    worst_ab = -np.inf
    worst_gate = worst_asym_gate = np.inf
    unverified = []
    for tag, params, res in results:
        if tag == "sym_sq_thermal":
            worst_ab = max(worst_ab, res.extra["sqrt_ab_max"] - params["a"])
        elif tag == "sym_glems":
            worst_gate = min(worst_gate, res.extra["gate_min"])
        else:
            worst_asym_gate = min(worst_asym_gate, res.extra["gate_min"])
        if not res.verified:
            unverified.append((tag, params))
    passed = worst_ab <= SQRT_AB_SLACK and worst_gate > GATE_LOWER_BOUND and worst_asym_gate >= 0.0 and not unverified
    detail = (
        f"max sqrt(ab~) - a = {worst_ab:.3e}, min gate = {worst_gate:.6f} (> {GATE_LOWER_BOUND:.3f}), "
        f"asym_glems min G = {worst_asym_gate:.6f} (>= 0)"
    )
    if unverified:
        detail += f"; unverified: {unverified[:3]}"
    return CheckResult("threshold machinery", passed, detail)


def check_conjecture(grid_n=20) -> CheckResult:
    """Criterion 7: |GIE - GR2| on dense family grids; asym branch is never 2."""
    worst = 0.0
    branch_two = 0
    for a in np.linspace(1.05, 4.0, grid_n):
        for frac in np.linspace(0.05, 0.95, grid_n):
            kp = frac * np.sqrt(a * a - 1.0)
            worst = max(worst, conjecture_gap(make_family("sym_glems", a=a, kp=kp)))
    for a in np.linspace(1.05, VERIFIED_DOMAIN_BOUND, grid_n):
        for frac in np.linspace(0.05, 0.95, grid_n):
            k = max(a - 1.0, 0.0) + frac * (np.sqrt(a * a - 1.0) - max(a - 1.0, 0.0))
            worst = max(worst, conjecture_gap(make_family("sym_sq_thermal", a=a, k=k)))
    for a in np.linspace(1.02, 2.3, grid_n):
        for b in np.linspace(1.02, 2.3, grid_n):
            if abs(a - b) < 1e-9 or np.sqrt(a * b) > VERIFIED_DOMAIN_BOUND:
                continue
            fam = make_family("asym_glems", a=a, b=b)
            worst = max(worst, conjecture_gap(fam))
            triple = ThreeModePureParams(a1=a, a2=b, a3=1.0 + abs(a - b))
            if gr2_branch(triple, ak_excess=abs(a - b)) == 2:
                branch_two += 1
    for a in np.linspace(1.0, 5.0, grid_n):
        worst = max(worst, conjecture_gap(make_family("pure", a=a)))
    for r in np.linspace(0.0, 1.5, grid_n):
        worst = max(worst, conjecture_gap(make_family("cv_ghz", r=r)))
    passed = worst < CONJECTURE_ATOL and branch_two == 0
    return CheckResult(
        "conjecture equality", passed, f"max |GIE - GR2| = {worst:.3e}, middle-branch hits = {branch_two}"
    )


def check_faithfulness(grid_cfg: GridConfig, n=1000) -> CheckResult:
    """Criterion 8: closed form 0 plus tiny minimized f on separable states,
    and a positive closed form on entangled samples of every mixed family."""
    rng = np.random.default_rng(17)
    bad_closed = 0
    count_sep = 0
    while count_sep < n:
        p = _random_std_form(rng)
        if not is_separable(p):
            continue
        count_sep += 1
        if gie_closed_form(classify(p)) != 0.0:
            bad_closed += 1
    worst_numeric = 0.0
    for _ in range(n):
        a = 1.0 + rng.random() * 3.0
        k = rng.random() * max(a - 1.0, 0.0)  # a - k >= 1: separable
        k_min, _, _ = minimize_kh(a, k, grid_cfg)
        f_min = 0.5 * np.log(a * a / (a * a - k * k)) + 0.5 * np.log(k_min)
        worst_numeric = max(worst_numeric, abs(f_min))
    for a in np.linspace(1.1, 3.0, 10):  # separable boundaries of the GLEMS families
        res = gie_numeric(make_family("sym_glems", a=a, kp=0.0), grid_cfg)
        worst_numeric = max(worst_numeric, abs(res.numeric))
        res = gie_numeric(make_family("asym_glems", a=a, b=1.0), grid_cfg)
        worst_numeric = max(worst_numeric, abs(res.numeric))
    positive_violations = sum(  # entangled instances of every mixed family have a positive closed form
        gie_closed_form(make_family(tag, **params)) <= 0.0
        for points in _family_sample_points(n).values()
        for tag, params in points
    )
    passed = bad_closed == 0 and worst_numeric < FAITHFULNESS_ATOL and positive_violations == 0
    return CheckResult(
        "faithfulness",
        passed,
        f"{count_sep} separable: closed-form failures {bad_closed}, max |min f| = {worst_numeric:.3e}; "
        f"entangled positivity violations {positive_violations}",
    )


def check_structural(n=40) -> CheckResult:
    """Criterion 9: residual suite for the linear-algebra layer."""
    rng = np.random.default_rng(19)
    worst_symp = worst_will = worst_pur = worst_hom = worst_dec = 0.0
    for _ in range(n):
        mat = random_physical_cm(rng, scale=0.35)
        dec = williamson(mat)
        omega = symplectic_form(2)
        worst_symp = max(worst_symp, np.abs(dec.s @ omega @ dec.s.T - omega).max())
        worst_will = max(worst_will, np.abs(dec.s @ mat @ dec.s.T - dec.normal_form()).max())
        pi = purify(CovMat(mat))
        worst_pur = max(worst_pur, pi.purity_defect())
        ga = general_single_mode(rng.random() * np.pi, 1.0 + rng.random(), rng.random())
        gb = general_single_mode(rng.random() * np.pi, 1.0 + rng.random(), rng.random())
        ge = heterodyne(pi.r_count) if pi.r_count else None
        i_ab, k_eab = f_decomposed(pi, ga, gb, ge)
        total = mutual_information_f(pi, ga, gb, ge)
        worst_dec = max(worst_dec, abs(i_ab + k_eab - total))
    for _ in range(n):  # single-E-mode states exercise the exact homodyne limit
        a, kp = _entangled_sym_glems(rng, max_a=3.0)
        pi = purify(make_family("sym_glems", a=a, kp=kp).std)
        angle = rng.random() * np.pi
        exact = mutual_information_f(pi, homodyne([0.0]), homodyne([0.0]), homodyne([angle]))
        approx = mutual_information_f(
            pi, homodyne([0.0]), homodyne([0.0]), general_single_mode((angle - np.pi / 2.0) % np.pi, 1.0, 8.0)
        )
        worst_hom = max(worst_hom, abs(exact - approx))
        worst_pur = max(worst_pur, pi.purity_defect())
    passed = (
        worst_symp < SYMPLECTIC_ATOL
        and worst_will < WILLIAMSON_ATOL
        and worst_pur < PURITY_ATOL
        and worst_hom < HOMODYNE_LIMIT_ATOL
        and worst_dec < F_DECOMPOSITION_ATOL
    )
    return CheckResult(
        "structural suite",
        passed,
        f"symplectic {worst_symp:.2e}, williamson {worst_will:.2e}, purity {worst_pur:.2e}, "
        f"homodyne-limit {worst_hom:.2e}, f-decomposition {worst_dec:.2e}",
    )


def run_suite(level: str = "fast", grid_cfg: GridConfig | None = None) -> list[CheckResult]:
    """Run the verification suite; ``fast`` trims the sample sizes."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown suite {level!r}")
    full = level == "full"
    if grid_cfg is None:
        grid_cfg = GridConfig(points=21 if full else 13)
    results = run_family_numeric(50 if full else 4, grid_cfg)
    checks = [
        check_closed_form_identities(),
        check_minmax(results),
        check_candidate_ordering(n=1000 if full else 150),
        check_gcmi_optimality(grid_cfg, n=1000 if full else 60),
        check_kh_machinery(grid_cfg, n=1000 if full else 150),
        check_thresholds(results),
        check_conjecture(grid_n=20 if full else 8),
        check_faithfulness(grid_cfg, n=1000 if full else 100),
        check_structural(n=40 if full else 10),
    ]
    return checks
