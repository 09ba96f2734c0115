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
    """Evaluate ``fn`` on the full mesh of ``axes``; return the best point and its value.

    ``fn`` gets the sparse mesh, one broadcastable array per axis, so work
    that depends on fewer coordinates is done once per distinct value; it
    must broadcast its arguments to the full mesh shape.
    """
    values = fn(*np.meshgrid(*axes, indexing="ij", sparse=True))
    flat = int(np.argmin(values))
    index = np.unravel_index(flat, values.shape)
    return np.array([axis[i] for axis, i in zip(axes, index)]), float(values.flat[flat])


def descend(fn, x0, lows, highs, resolution, max_sweeps=400):
    """Deterministic Hooke-Jeeves pattern-search descent within a box.

    Probes coordinate moves plus pairwise diagonal moves (diagonal valleys
    stall a pure coordinate search), each with sign + then -, and moves to
    the first probe in that order that beats the incumbent by more than
    ``MIN_IMPROVEMENT``; a sweep without a move halves the step until it
    falls below ``resolution``.  ``fn`` must broadcast over 1-D probe
    arrays, one per coordinate: each poll evaluates every probe still left
    in the sweep in one call and keeps only the first improvement, so the
    path is the one a probe-at-a-time search takes.
    """
    x = np.array(x0, dtype=float)
    val = fn(*x[:, None])[0]
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
    moves = np.array([sign * direction for direction in directions for sign in (1.0, -1.0)])
    for _ in range(max_sweeps):
        k = 0  # the next probe to poll; it stays 0 in a sweep without a move
        while k < len(moves):
            trials = np.clip(x + steps * moves[k:], lows, highs)
            values = fn(*trials.T)
            better = np.flatnonzero(np.any(trials != x, axis=1) & (values < val - MIN_IMPROVEMENT))
            if better.size == 0:
                break
            first = better[0]
            x, val = trials[first], values[first]
            k += first + 1
        if k == 0:
            steps *= 0.5
            if steps.max() < resolution:
                break
    return x, val


def search(fn, axes, lows, highs, resolution, to_params, candidates):
    """Minimize ``fn`` on the mesh of ``axes``, then descend on it in [lows, highs].

    ``fn`` takes one array per coordinate and broadcasts over them (the grid
    passes meshes, the descent 1-D probe arrays), ``to_params`` maps a
    search point to reported parameters and ``candidates`` are
    ``(label, params, value)`` in priority order.  Returns
    ``(best_value, label, best_params, trace)``: the least of the descent end
    and the candidates; the first candidate within ``tie_atol`` of it with its
    params, or None with the descent end; and ``(params, value)`` of the grid
    best, the descent end and every candidate.
    """
    coarse, coarse_val = grid_argmin(fn, axes)
    refined, refined_val = descend(fn, coarse, lows, highs, resolution)
    refined_params = to_params(refined)
    trace = [(to_params(coarse), coarse_val), (refined_params, float(refined_val))]
    trace += [(params, value) for _, params, value in candidates]
    best_val = min(value for _, value in trace[1:])
    for label, params, value in candidates:
        if value <= best_val + config.tolerances().tie_atol:
            return best_val, label, params, trace
    return best_val, None, refined_params, trace
