"""Workloads: seeded sweep points and the fixed verify-full suite.

gielab is imported here, so the runner pins the BLAS threads before it
imports this module.
"""

from __future__ import annotations

import math
import random
import sys
import time

import numpy as np
from gielab import config, gie, renyi2, states, verify
from gielab.config import GridConfig

# Eve's optimal measurement per family, as the paper derives it.
PAPER_OPTIMUM = {
    "sym_glems": "homodyne x_E",
    "asym_glems": "heterodyne",
    "sym_sq_thermal": "homodyne x_EA p_EB",
}
MINMAX_ATOL = 2e-5      # |closed - numeric| tolerance of the min-max acceptance check
KMIN_WORKED = 0.9360540674603174  # K_h minimum at (a, k) = (1.2, 0.5)
SYM_GLEMS_A_MAX = 6.0
DOMAIN_BOUND = 2.41      # sqrt(ab) for asym_glems, a for sym_sq_thermal


def _latin_square(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n points of the unit square, one in each row stratum and each column stratum."""
    cols = list(range(n))
    rng.shuffle(cols)
    return [((i + rng.random()) / n, (j + rng.random()) / n) for i, j in zip(range(n), cols)]


def sweep_points(seed: int, per_family: int) -> list[tuple[str, dict]]:
    """Entangled in-domain points, ``per_family`` of each family, from ``seed``.

    Each family's two parameters are stratified (a Latin square) so that
    every seed covers the whole range evenly:

    - sym_glems: a in (1, 6], kp = u sqrt(a^2 - 1), u in (0, 1)
    - asym_glems: g = sqrt(ab) in (1, 2.41], a/b = g^(4v - 2), v in (0, 1)
    - sym_sq_thermal: a in (1, 2.41], k = (a - 1) + w (sqrt(a^2 - 1) - (a - 1)), w in (0, 1)
    """
    rng = random.Random(seed)
    points = []
    for x, u in _latin_square(rng, per_family):
        a = 1.0 + (SYM_GLEMS_A_MAX - 1.0) * x
        points.append(("sym_glems", {"a": a, "kp": u * math.sqrt(a * a - 1.0)}))
    for x, v in _latin_square(rng, per_family):
        g = 1.0 + (DOMAIN_BOUND - 1.0) * x
        half_log_ratio = (2.0 * v - 1.0) * math.log(g)
        points.append(("asym_glems", {"a": g * math.exp(half_log_ratio), "b": g * math.exp(-half_log_ratio)}))
    for x, w in _latin_square(rng, per_family):
        a = 1.0 + (DOMAIN_BOUND - 1.0) * x
        lo, hi = a - 1.0, math.sqrt(a * a - 1.0)
        points.append(("sym_sq_thermal", {"a": a, "k": lo + w * (hi - lo)}))
    return points


def point_problem(tag: str, res) -> str | None:
    """Why a sweep point's outputs are wrong, or None when they are right."""
    if res.discrepancy is None or not res.discrepancy < MINMAX_ATOL:
        return f"|closed - numeric| = {res.discrepancy}"
    if not res.verified:
        return "verified is false"
    if res.eve_optimum != PAPER_OPTIMUM[tag]:
        return f"Eve optimum {res.eve_optimum!r}, paper {PAPER_OPTIMUM[tag]!r}"
    return None


class Tally:
    """Operations attempted and failed, and the time stamps of every pass and point.

    Every pass makes the same calls in the same order, so point i of one
    pass is point i of every other pass.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_gap = 0.0             # largest |closed - numeric|
        self.max_conjecture_gap = 0.0  # largest |GIE - GR2|
        self.passes: list[tuple[float, float]] = []  # (start, end) per pass
        self.points: list[list[tuple[str, float, float]]] = []  # (family, start, end) per point, per pass

    def start_pass(self) -> None:
        self.points.append([])
        self._pass_start = time.perf_counter()

    def end_pass(self) -> float:
        self.passes.append((self._pass_start, time.perf_counter()))
        return self.passes[-1][1] - self.passes[-1][0]

    def point(self, tag: str, start: float, end: float) -> None:
        self.points[-1].append((tag, start, end))

    def pass_seconds(self, to_ref, passes=None) -> list[float]:
        """Duration of each pass (or of the passes indexed by ``passes``) on the clock ``to_ref``."""
        chosen = self.passes if passes is None else [self.passes[i] for i in passes]
        ref = to_ref(np.array(chosen))
        return (ref[:, 1] - ref[:, 0]).tolist()

    def point_seconds(self, to_ref) -> list[tuple[str, float]]:
        """Each point's median latency over the passes, on the clock ``to_ref``."""
        n = min(len(points) for points in self.points)
        ref = to_ref(np.array([[(start, end) for _, start, end in points[:n]] for points in self.points]))
        medians = np.median(ref[..., 1] - ref[..., 0], axis=0)
        return list(zip((tag for tag, _, _ in self.points[0][:n]), medians.tolist()))

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {what}", file=sys.stderr)


class Sweep:
    """``gie_numeric`` over seeded points at one grid size, as ``gielab sweep --numeric``."""

    def __init__(self, seed: int, grid_points: int | None, per_family: int):
        self.grid = GridConfig(points=grid_points) if grid_points else config.grid()
        self.points = sweep_points(seed, per_family)
        self.points_per_pass = len(self.points)

    def warm_up(self) -> None:
        for tag in PAPER_OPTIMUM:
            params = next(p for t, p in self.points if t == tag)
            gie.gie_numeric(states.make_family(tag, **params), self.grid)

    def run_pass(self, tally: Tally) -> None:
        clock = time.perf_counter
        for tag, params in self.points:
            tally.attempted += 1
            t0 = clock()
            try:
                fam = states.make_family(tag, **params)
                res = gie.gie_numeric(fam, self.grid)
                gap = renyi2.conjecture_gap(fam)
            except Exception as exc:  # a raising point is a failed operation
                tally.point(tag, t0, clock())
                tally.fail(f"{tag} {params}: {exc!r}")
                continue
            tally.point(tag, t0, clock())
            if res.discrepancy is not None:
                tally.max_gap = max(tally.max_gap, res.discrepancy)
            tally.max_conjecture_gap = max(tally.max_conjecture_gap, gap)
            problem = point_problem(tag, res)
            if problem:
                tally.fail(f"{tag} {params}: {problem}")


class VerifyFull:
    """``gielab.verify.run_suite`` on its fixed acceptance samples.

    Its points are the suite's own Eve-side minimizations, the
    ``gie_numeric`` and ``minimize_kh`` calls it makes, timed by wrapping
    those names in ``gielab.verify``.
    """

    def __init__(self, level: str = "full"):
        self.level = level
        self.grid = GridConfig(points=21 if level == "full" else 13)  # run_suite's own grid
        self.points_per_pass = None  # known after the first pass

    def warm_up(self) -> None:
        verify.run_suite("fast")

    def run_pass(self, tally: Tally) -> None:
        saved = {
            name: getattr(verify, name)
            for name in ("gie_numeric", "minimize_kh", "run_family_numeric", "conjecture_gap")
        }
        clock = time.perf_counter

        def timed(name, tag_of):
            fn = saved[name]

            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                tally.point(tag_of(args), t0, clock())
                return out

            return wrapper

        def family_numeric(*args, **kwargs):
            results = saved["run_family_numeric"](*args, **kwargs)
            tally.max_gap = max([tally.max_gap] + [res.discrepancy for _, _, res in results])
            return results

        def conjecture_gap(*args, **kwargs):
            gap = saved["conjecture_gap"](*args, **kwargs)
            tally.max_conjecture_gap = max(tally.max_conjecture_gap, gap)
            return gap

        verify.gie_numeric = timed("gie_numeric", lambda args: args[0].tag)
        verify.minimize_kh = timed("minimize_kh", lambda args: "minimize_kh")
        verify.run_family_numeric = family_numeric
        verify.conjecture_gap = conjecture_gap
        try:
            checks = verify.run_suite(self.level)
        except Exception as exc:  # the suite stops at a raising check
            tally.attempted += 1
            tally.fail(f"run_suite({self.level!r}) raised {exc!r}")
            return
        finally:
            for name, fn in saved.items():
                setattr(verify, name, fn)
        for check in checks:
            tally.attempted += 1
            if not check.passed:
                tally.fail(check.line())
        self.points_per_pass = len(tally.points[-1])


def kmin_worked_gap(grid: GridConfig) -> float:
    k_min, _, _ = gie.minimize_kh(1.2, 0.5, grid)
    return abs(k_min - KMIN_WORKED)
