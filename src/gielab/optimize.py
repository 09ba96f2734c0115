"""The deterministic Eve-side search shared by every family.

``search`` runs a grid stage (``grid_argmin``), a Hooke-Jeeves pattern
search (``descend``) from the best grid point and then the caller's exact
candidates; it is the one place that orders these stages, builds the
optimizer trace and names the optimum with the tie rule (``tie_atol``).
"""

from __future__ import annotations

import numpy as np

from . import config

MIN_IMPROVEMENT = 1e-15  # a probe must beat the incumbent by more than this to replace it


def grid_argmin(fn, axes):
    """Evaluate ``fn`` on the full mesh of ``axes``; return the best point and its value."""
    mesh = np.meshgrid(*axes, indexing="ij")
    values = fn(*mesh)
    flat = int(np.argmin(values))
    return np.array([m.flat[flat] for m in mesh]), float(values.flat[flat])


def descend(fn, x0, lows, highs, resolution, max_sweeps=400):
    """Deterministic pattern-search descent within a box.

    Probes coordinate moves plus pairwise diagonal moves (diagonal valleys
    stall a pure coordinate search), halving the step until it falls below
    ``resolution``.
    """
    x = np.array(x0, dtype=float)
    # tolist(): unpacking the array itself costs about 1 us more per probe
    val = fn(*x.tolist())
    steps = np.maximum((highs - lows) * 0.05, resolution)
    directions = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = 1.0
        directions.append(e)
        for j in range(i + 1, x.size):
            d = np.zeros(x.size)
            d[i] = 1.0
            d[j] = 1.0
            directions.append(d / np.sqrt(2.0))
            d = d.copy()
            d[j] = -1.0
            directions.append(d / np.sqrt(2.0))
    for _ in range(max_sweeps):
        improved = False
        for direction in directions:
            for sign in (1.0, -1.0):
                trial = np.clip(x + sign * steps * direction, lows, highs)
                if np.array_equal(trial, x):
                    continue
                tval = fn(*trial.tolist())
                if tval < val - MIN_IMPROVEMENT:
                    x, val = trial, tval
                    improved = True
        if not improved:
            steps *= 0.5
            if steps.max() < resolution:
                break
    return x, val


def search(grid_fn, fn, axes, lows, highs, resolution, to_params, candidates):
    """Minimize ``grid_fn`` on the mesh of ``axes``, descend on ``fn`` in [lows, highs].

    ``grid_fn`` broadcasts over meshes, ``fn`` takes one scalar per
    coordinate, ``to_params`` maps a search point to reported parameters and
    ``candidates`` are ``(label, params, value)`` in priority order.  Returns
    ``(best_value, label, best_params, trace)``: the least of the descent end
    and the candidates; the first candidate within ``tie_atol`` of it with its
    params, or None with the descent end; and ``(params, value)`` of the grid
    best, the descent end and every candidate.
    """
    coarse, coarse_val = grid_argmin(grid_fn, axes)
    refined, refined_val = descend(fn, coarse, lows, highs, resolution)
    refined_params = to_params(refined)
    trace = [(to_params(coarse), coarse_val), (refined_params, float(refined_val))]
    trace += [(params, value) for _, params, value in candidates]
    best_val = min(value for _, value in trace[1:])
    for label, params, value in candidates:
        if value <= best_val + config.tolerances().tie_atol:
            return best_val, label, params, trace
    return best_val, None, refined_params, trace
