"""The deterministic Eve-side search shared by every family.

``search`` reads one ``SearchSpace`` per parametrization of Eve's
measurements and runs a grid stage (``grid_argmin``), a compass search
(``descend``) from the best grid point and then the space's exact
candidates, rows of the same objective; it is the one place that orders
these stages, builds the optimizer trace and names the optimum with the tie
rule (``TIE_ATOL``).  The grid stage calls the objective once per slab of
the mesh's first axis, at most ``SLAB_POINTS`` mesh points each, and reads
the slabs in C order, so its best point is ``np.argmin`` of the whole
mesh while no temporary holds more than a slab.  Each objective call of
the descent evaluates a poll and the poll that would follow its miss, so
a failed poll costs no call of its own; the descent reads a call with one
``argmax`` and one ``argmin`` and falls back to its filtered rule only
where that could differ.  What ``search`` builds from a space (grid axes,
box, candidate rows and their reported parameters) it builds once per
space and grid size, read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MIN_IMPROVEMENT = 1e-15  # a probe must beat the incumbent by more than this to replace it
MAX_POLLS = 400  # the descent stops after this many polls even above its resolution
RESOLUTION = 1e-8  # the step below which every search in gielab stops descending
TIE_ATOL = 1e-12  # a candidate this close to the best value names the optimum
SLAB_POINTS = 2**14  # the grid stage evaluates at most this many mesh points per objective call


@dataclass(frozen=True)
class SearchSpace:
    """One parametrization of Eve's measurements: all that ``search`` reads of it.

    Per coordinate a reported name, a box [low, high] and a period (None:
    clipped to the box; a periodic coordinate spans [0, period), its grid
    omits the endpoint and the descent wraps it).  ``logs`` index the
    coordinates searched as logarithms, ``candidates`` are the exact
    ``(label, row)`` pairs in priority order (a row may lie outside the box;
    an infinite coordinate is an exact limit) and ``label(name=value, ...)``
    names a general optimum.  Every field is a tuple (of tuples, for the
    candidates), so a space hashes: ``search`` caches its layout per space
    and grid size, and spaces that compare equal share one.
    """

    names: tuple
    lows: tuple
    highs: tuple
    periods: tuple
    logs: tuple
    candidates: tuple
    label: str

    def params(self, x) -> tuple:
        """Reported parameters of a search row: periodic coordinates reduced, logarithms exponentiated."""
        return tuple(float(np.exp(v)) if i in self.logs else float(v) if period is None else float(v) % period
                     for i, (v, period) in enumerate(zip(x, self.periods)))


def grid_argmin(fn, axes):
    """Evaluate ``fn`` on the full mesh of ``axes``, in slabs of the first axis; return the best point and its value.

    ``fn`` gets the sparse mesh, one broadcastable array per axis, so work
    that depends on fewer coordinates is done once per distinct value; it
    must broadcast its arguments to the full mesh shape.  ``fn`` is called
    once per slab: the fewest equal runs of the first axis (sizes differing
    by at most one row, the longer first) of at most ``SLAB_POINTS`` mesh
    points each, or of one row where a row holds more; each call gets
    read-only views.  The slabs are read in C order and a later one wins
    only with a lower value, so the result is ``np.argmin`` of the whole
    mesh: the first least value, or the first NaN, after which no slab is
    evaluated.
    """
    first, *rest = np.meshgrid(*axes, indexing="ij", sparse=True, copy=False)
    rows = len(axes[0])
    count = -(-rows // max(1, SLAB_POINTS // math.prod(len(axis) for axis in axes[1:])))
    size, longer = divmod(rows, count)
    best_val, start = None, 0
    for slab in range(count):
        stop = start + size + (slab < longer)
        values = fn(first[start:stop], *rest)
        flat = int(np.argmin(values))
        value = values.flat[flat]
        if best_val is None or value < best_val or np.isnan(value):
            index, best_val = np.unravel_index(flat, values.shape), value
            best = (start + index[0], *index[1:])
            if np.isnan(value):  # np.argmin returns the first NaN
                break
        start = stop
    return np.array([axis[i] for axis, i in zip(axes, best)]), float(best_val)


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


@functools.lru_cache(maxsize=None)
def _chained_table(dim):
    """The moves of one objective call of a ``dim``-coordinate descent: a poll and the poll after its miss.

    The ``_probe_table`` poll, then the poll at 1/8 of its step that follows
    when it has no improving probe, without that poll's 2x block: the 2x
    block is the first poll's 1/4 block again, bit for bit, so it cannot
    improve.  Every factor is a power of two, so each row is the one a poll
    of its own would probe, exactly.
    """
    table = _probe_table(dim)
    chained = np.concatenate([table, table[len(table) // 4 :] * 0.125])
    chained.flags.writeable = False
    return chained


def descend(fn, x0, value, lows, highs, periods):
    """Deterministic compass search within a box, a poll and the poll after its miss per call of ``fn``.

    Each poll evaluates every move of ``_probe_table`` from the incumbent,
    clipped to the box except on a coordinate with a ``periods`` entry, in
    which ``fn`` must be periodic; the first step is 5% of the box.  The
    descent takes the lowest probe that moves and beats the incumbent by
    more than ``MIN_IMPROVEMENT`` (the first on ties) in the first block
    with one, wrapped into [0, period), and scales the step by that block's
    multiple; a poll without one divides the step by 8.  It stops below
    ``RESOLUTION`` or after ``MAX_POLLS`` polls, both read at call time.
    ``fn`` must broadcast over 1-D probe arrays, one per coordinate; it gets
    them as the contiguous rows of one (coordinates, probes) array.

    One call of ``fn`` evaluates the rows of ``_chained_table``: the poll at
    the current step and the poll at 1/8 of it, which the descent reads only
    when the first poll misses and neither stop falls between the two.  So
    the path, the end and the poll count are those of one poll per call.

    A call is read with one ``argmax`` over both levels: the first improving
    probe names the poll that moves (the first level, or the second when the
    first has none) and its block, and one ``argmin`` over that block's
    values names the probe taken.  That is the rule above exactly when the
    pick improves and moved: then the rule's first improving probe that
    moved lies between the first improving probe and the pick, in the same
    block, and the pick is the block's least value.  Otherwise (clipping
    kept the pick on the incumbent, or a NaN in the block, which ``argmin``
    returns first) the call is read by the rule itself, which drops the
    probes that did not move from the level and takes the least improving
    value of the block.

    ``value`` is ``fn`` at ``x0``, which the callers take from the grid
    stage instead of evaluating the 1-row ``x0`` again; the two agree bit
    for bit where numpy's elementwise functions round a mesh element and a
    1-element row alike (tests/test_gie.py checks every gielab objective).
    Every step factor is a power of two, so the step is the first step
    times one scale, exactly, and the stop rule reads the scale times the
    widest first step; the moves at each scale seen are computed once.
    """
    x, val = np.array(x0, dtype=float), value
    first_steps = np.maximum((highs - lows) * 0.05, RESOLUTION)
    widest, scale = float(first_steps.max()), 1.0
    wrapped = [(i, period) for i, period in enumerate(periods) if period is not None]
    wraps = np.array([period is not None for period in periods])
    lows, highs = np.where(wraps, -np.inf, lows)[:, None], np.where(wraps, np.inf, highs)[:, None]
    moves = first_steps[:, None] * _chained_table(x.size).T  # (coordinates, probes) at scale 1
    scaled = {1.0: moves}
    block = moves.shape[1] // 7
    polls = 0
    while polls < MAX_POLLS:
        step = scaled.get(scale)
        if step is None:
            step = scaled[scale] = moves * scale
        trials = x[:, None] + step
        np.maximum(trials, lows, out=trials)
        np.minimum(trials, highs, out=trials)
        values = fn(*trials)
        bar = val - MIN_IMPROVEMENT  # both levels start from this incumbent
        improving = values < bar
        first = int(improving.argmax())
        if improving[first]:
            start = first - first % block
            pick = start + int(values[start : start + block].argmin())
            if not (values[pick] < bar and trials[:, pick].tolist() != x.tolist()):
                start, pick = _filtered_pick(trials, values, improving, x, block)
        else:
            start = None
        if start is None or start >= 4 * block:  # the first level misses
            polls += 1
            scale *= 0.125
            if scale * widest < RESOLUTION or polls == MAX_POLLS:
                return x, val
        polls += 1
        if start is None:
            scale *= 0.125
        else:
            x, val = trials[:, pick], values[pick]
            for i, period in wrapped:
                x[i] %= period
            scale *= (2.0, 1.0, 0.5, 0.25, 1.0, 0.5, 0.25)[start // block]
        if scale * widest < RESOLUTION or polls == MAX_POLLS:
            return x, val
    return x, val


def _filtered_pick(trials, values, improving, x, block):
    """The block start and the probe that ``descend`` takes in one call, by its rule itself.

    In the first level with an improving probe that moved: the start of the
    first block with one, and its least improving value that moved (the
    first on ties).  ``(None, None)`` when neither level has one.
    """
    for level in (slice(0, 4 * block), slice(4 * block, None)):
        better = improving[level] & (trials[:, level] != x[:, None]).any(axis=0)
        first = int(better.argmax())
        if better[first]:
            offset = first - first % block
            start = level.start + offset
            least = np.where(better[offset : offset + block], values[start : start + block], np.inf)
            return start, start + int(least.argmin())
    return None, None


@functools.lru_cache(maxsize=None)
def _layout(space, points):
    """What ``search`` reads of ``space`` at ``points`` per coordinate, built once per pair.

    The grid axes, the box as ``(lows, highs)`` arrays, the candidate rows
    as one (candidates, coordinates) array and their reported parameters;
    the arrays are read-only.  Nothing here reads ``RESOLUTION``,
    ``MAX_POLLS`` or ``MIN_IMPROVEMENT``, which ``descend`` reads at call
    time.
    """
    lows, highs = np.array(space.lows, dtype=float), np.array(space.highs, dtype=float)
    axes = tuple(np.linspace(lo, hi, points, endpoint=period is None)
                 for lo, hi, period in zip(lows, highs, space.periods))
    rows = np.array([row for _, row in space.candidates], dtype=float).reshape(len(space.candidates), len(lows))
    for array in (lows, highs, rows, *axes):
        array.flags.writeable = False
    return axes, lows, highs, rows, tuple(space.params(row) for row in rows)


def search(fn, space, points):
    """Minimize ``fn`` on the grid of ``space``, ``points`` per coordinate, descend, then try its candidates.

    ``fn`` takes one array per coordinate and broadcasts over them (the grid
    passes meshes, the descent and the candidates 1-D arrays, all candidates
    in one call); the grid meshes and the candidate rows are read-only
    views of the layout that ``_layout`` builds once per ``(space,
    points)``.  Returns ``(best_value, label, trace)``: the least of the
    descent end and the candidates; the first candidate within ``TIE_ATOL``
    of it, else ``space.label`` with the descent end's parameters; and
    ``(space.params(row), value)`` of the grid best, the descent end and
    every candidate.  The descent starts from the grid best with the grid's
    value there, so ``fn`` is called once per grid slab (one slab up to
    ``SLAB_POINTS`` mesh points, so up to 25 points per coordinate in 3-D),
    once per descent call (a poll, and the poll after it when it misses)
    and once for the candidates.
    """
    axes, lows, highs, rows, reported = _layout(space, points)
    coarse, coarse_val = grid_argmin(fn, axes)
    refined, refined_val = descend(fn, coarse, coarse_val, lows, highs, space.periods)
    trace = [(space.params(coarse), coarse_val), (space.params(refined), float(refined_val))]
    trace += [(params, float(value)) for params, value in zip(reported, fn(*rows.T))]
    best_val = min(value for _, value in trace[1:])
    for (label, _), (_, value) in zip(space.candidates, trace[2:]):
        if value <= best_val + TIE_ATOL:
            return best_val, label, trace
    end = ", ".join(f"{name}={value:.6g}" for name, value in zip(space.names, trace[1][0]))
    return best_val, f"{space.label}({end})", trace
