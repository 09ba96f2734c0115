"""The deterministic Eve-side search shared by every family.

``search`` runs a grid stage (``grid_argmin``), a Hooke-Jeeves pattern
search (``descend``) from the best grid point and then the caller's exact
candidates, rows of the same objective; it is the one place that orders
these stages, builds the optimizer trace and names the optimum with the tie
rule (``TIE_ATOL``).
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

MIN_IMPROVEMENT = 1e-15  # a probe must beat the incumbent by more than this to replace it
MAX_SWEEPS = 400  # the descent stops after this many sweeps even above its resolution
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
def _poll_plans(dim):
    """What one poll of a ``dim``-coordinate descent evaluates, per start row k.

    The plan for k is ``(rows, moves, sweeps)``: the move rows in poll
    order (this sweep's rows k.., the next sweep's rows before k at the
    same step, then a whole sweep at half the step), the moves in that
    order with the half-step ones scaled by 0.5 (exact), and each row's
    sweep offset from the sweep under way.
    """
    directions = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        directions.append(e)
        for j in range(i + 1, dim):
            d = np.zeros(dim)
            d[i] = 1.0
            d[j] = 1.0
            directions.append(d / np.sqrt(2.0))
            d = d.copy()
            d[j] = -1.0
            directions.append(d / np.sqrt(2.0))
    moves = np.array([sign * direction for direction in directions for sign in (1.0, -1.0)])
    n = len(moves)
    plans = []
    for k in range(n):
        rows = (*range(k, n), *range(k), *range(n))
        scaled = moves[list(rows)] * np.repeat([1.0, 0.5], n)[:, None]
        scaled.flags.writeable = False
        plans.append((rows, scaled, (0,) * (n - k) + (1,) * k + (1 + (k > 0),) * n))
    return tuple(plans)


def descend(fn, x0, lows, highs):
    """Deterministic Hooke-Jeeves pattern-search descent within a box.

    Sweeps coordinate moves plus pairwise diagonal moves (diagonal valleys
    stall a pure coordinate search), each with sign + then -, and moves to
    each probe that beats the incumbent by more than ``MIN_IMPROVEMENT``;
    a sweep without a move halves the step until it falls below
    ``RESOLUTION``, and at most ``MAX_SWEEPS`` sweeps run (both read when
    ``descend`` is called).  ``fn`` must broadcast over 1-D probe arrays,
    one per coordinate.

    One call evaluates every probe that a probe-at-a-time search would try
    next from the incumbent, up to two sweeps ahead: the rest of this
    sweep; the next sweep's rows before the current one at the same step
    (that sweep's later rows would repeat the probes this call rejects, so
    it would end without a move); then the whole sweep at half the step.
    The first improving probe in that order is the move, and the sweeps
    and halvings it passes are counted; a call with no improvement passes
    them all.  Each plan is cut at the sweep cap and where the half step
    would fall below ``RESOLUTION``.  So the path, the end point and its
    value are those of the probe-at-a-time search.
    """
    x = np.array(x0, dtype=float)
    val = fn(*x[:, None])[0]
    steps = np.maximum((highs - lows) * 0.05, RESOLUTION)
    top = float(steps.max())  # every step halves with the largest one
    plans = _poll_plans(x.size)
    n = len(plans)
    sweep, k = 0, 0  # the sweep under way and its next row to poll
    while sweep < MAX_SWEEPS:
        rows, moves, sweeps = plans[k]
        stop = len(rows) if top * 0.5 >= RESOLUTION else n  # the half-step sweep runs only above RESOLUTION
        if sweep + sweeps[stop - 1] >= MAX_SWEEPS:
            stop = bisect.bisect_left(sweeps, MAX_SWEEPS - sweep)
        trials = np.minimum(np.maximum(x + steps * moves[:stop], lows), highs)
        values = fn(*trials.T)
        better = ((trials != x).any(axis=1) & (values < val - MIN_IMPROVEMENT)).nonzero()[0]
        if better.size:
            first = better[0]
            x, val = trials[first], values[first]
            if first >= n:  # the move comes after a sweep without one
                steps, top = steps * 0.5, top * 0.5
            sweep, k = sweep + sweeps[first], rows[first] + 1
            if k == n:
                sweep, k = sweep + 1, 0
        else:
            # every sweep the call covers ends without a move, but the first if it moved earlier
            covered = sweeps[stop - 1] + 1
            scale = 0.5 ** (covered - (k > 0))
            steps, top = steps * scale, top * scale
            if top < RESOLUTION:
                break
            sweep, k = sweep + covered, 0
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
