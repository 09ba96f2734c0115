"""The deterministic Eve-side search shared by every family.

``search`` runs a grid stage (``grid_argmin``), a compass search
(``descend``) from the best grid point and then the caller's exact
candidates, rows of the same objective; it is the one place that orders
these stages, builds the optimizer trace and names the optimum with the tie
rule (``TIE_ATOL``).
"""

from __future__ import annotations

import functools

import numpy as np

MIN_IMPROVEMENT = 1e-15  # a probe must beat the incumbent by more than this to replace it
MAX_POLLS = 400  # the descent stops after this many polls even above its resolution
RESOLUTION = 1e-8  # the step below which every search in gielab stops descending
TIE_ATOL = 1e-12  # a candidate this close to the best value names the optimum


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


@functools.lru_cache(maxsize=None)
def _probe_table(dim):
    """The moves of one poll of a ``dim``-coordinate descent, in units of the step.

    Coordinate moves, then pairwise diagonal moves (diagonal valleys stall a
    pure coordinate search), each with sign + then -, in four blocks at
    2, 1, 1/2 and 1/4 times the step.
    """
    eye = np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    diagonals = [(eye[i] + sign * eye[j]) / np.sqrt(2.0) for i, j in pairs for sign in (1.0, -1.0)]
    moves = np.array([sign * d for d in (*eye, *diagonals) for sign in (1.0, -1.0)])
    table = np.concatenate([multiple * moves for multiple in (2.0, 1.0, 0.5, 0.25)])
    table.flags.writeable = False
    return table


def descend(fn, x0, lows, highs):
    """Deterministic compass search within a box, one complete poll per call of ``fn``.

    Each poll evaluates every move of ``_probe_table`` from the incumbent,
    clipped to the box; a probe improves when it moves and beats the
    incumbent by more than ``MIN_IMPROVEMENT``.  The descent moves to the
    lowest improving probe (the first on ties) of the first block that has
    one, whose multiple scales the step; a poll without one divides the step
    by 8.  It stops when the largest step falls below ``RESOLUTION`` or after
    ``MAX_POLLS`` polls, both read when ``descend`` is called.  ``fn`` must
    broadcast over 1-D probe arrays, one per coordinate.
    """
    x = np.array(x0, dtype=float)
    val = fn(*x[:, None])[0]
    steps = np.maximum((highs - lows) * 0.05, RESOLUTION)
    table = _probe_table(x.size)
    block = len(table) // 4
    for _ in range(MAX_POLLS):
        trials = np.minimum(np.maximum(x + steps * table, lows), highs)
        values = fn(*trials.T)
        better = (trials != x).any(axis=1) & (values < val - MIN_IMPROVEMENT)
        if better.any():
            first = int(better.argmax()) // block
            rows = slice(first * block, (first + 1) * block)
            pick = rows.start + int(np.argmin(np.where(better[rows], values[rows], np.inf)))
            x, val = trials[pick], values[pick]
            steps = steps * (2.0, 1.0, 0.5, 0.25)[first]
        else:
            steps = steps * 0.125
        if steps.max() < RESOLUTION:
            break
    return x, val


def search(fn, axes, lows, highs, to_params, candidates):
    """Minimize ``fn`` on the mesh of ``axes``, then descend on it in [lows, highs].

    ``fn`` takes one array per coordinate and broadcasts over them (the grid
    passes meshes, the descent and the candidates 1-D arrays), ``to_params``
    maps a search point to reported parameters and ``candidates`` are
    ``(label, row)`` in priority order: points of the same search space,
    which may lie outside the box (an infinite coordinate is an exact limit),
    all evaluated in one call.  Returns ``(best_value, label, best_params,
    trace)``: the least of the descent end and the candidates; the first
    candidate within ``TIE_ATOL`` of it with its params, or None with the
    descent end; and ``(params, value)`` of the grid best, the descent end
    and every candidate.
    """
    coarse, coarse_val = grid_argmin(fn, axes)
    refined, refined_val = descend(fn, coarse, lows, highs)
    refined_params = to_params(refined)
    trace = [(to_params(coarse), coarse_val), (refined_params, float(refined_val))]
    rows = np.array([row for _, row in candidates], dtype=float).reshape(len(candidates), len(lows))
    trace += [(to_params(row), float(value)) for row, value in zip(rows, fn(*rows.T))]
    best_val = min(value for _, value in trace[1:])
    for (label, _), (params, value) in zip(candidates, trace[2:]):
        if value <= best_val + TIE_ATOL:
            return best_val, label, params, trace
    return best_val, None, refined_params, trace
