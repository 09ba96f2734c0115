"""The deterministic Eve-side minimizer shared by every family.

A minimization is a grid stage (``grid_argmin``) followed by a
Hooke-Jeeves pattern search (``descend``) started at the best grid point.
Both take the family's one objective ``fn``, which receives one argument
per search coordinate and broadcasts over meshes of them.
"""

from __future__ import annotations

import numpy as np


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
                if tval < val - 1e-15:
                    x, val = trial, tval
                    improved = True
        if not improved:
            steps *= 0.5
            if steps.max() < resolution:
                break
    return x, val
