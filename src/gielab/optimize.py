"""The deterministic Eve-side search shared by every family.

``search`` reads one ``SearchSpace`` per parametrization of Eve's
measurements and runs a grid stage (``grid_argmin``), a compass search
(``descend``) from the best grid point, whose first objective call also
evaluates the space's exact candidates, rows of the same objective, so
they cost no call of their own; it is the one place that orders these
stages, builds the optimizer trace and names the optimum with the tie rule
(``TIE_ATOL``).  Every objective is a pair ``(prepare, evaluate)`` split
at its first coordinate, as its family builds it and on the coordinates
searched: ``prepare(*rest)`` computes what depends only on the trailing
coordinates and ``evaluate(first, prepared)`` the value, so
``evaluate(x[0], prepare(*x[1:]))`` is the objective at x.  Every gielab
objective is a determinant ratio (K_h, the GCMI's u and the ratio inside
the R = 1 ``f_xx``), whose logarithm its caller takes once, after the
search.  The grid stage prepares the trailing sparse mesh once, evaluates
it once per slab of the first axis, at most ``SLAB_POINTS`` mesh points
each, and reads the slabs in C order, so its best point is ``np.argmin``
of the whole mesh while no temporary holds more than a slab.  Each
objective call of the descent evaluates the moves of one table
(``_chained_table``), a poll and the poll that would follow its miss, so a
failed poll costs no call of its own, and a model row: the least points of
parabolas fitted to the previous call's 1/4-block coordinate probes, which
the call moves to where it beats the incumbent and the poll's pick, while
the poll alone sets the step and the stops.  The descent reads a call with
one ``argmax`` and one ``argmin`` and falls back to its filtered rule only
where that could differ.  What ``search`` builds from a space (the grid's
sparse mesh, the candidate rows and their reported parameters,
``_layout``) it builds once per space and grid size, and what ``descend``
builds from a box (the first steps, the wrap and clip lists, the moves at
every step scale that a descent on it reaches and the model row's fits,
``_box``) once per box and ``RESOLUTION``; all of it is read-only, and no
cache reads a module constant that is not part of its key.
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
SLAB_POINTS = 21**3  # the grid stage evaluates at most this many mesh points per objective call


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


def grid_argmin(objective, mesh):
    """Evaluate ``objective`` on ``mesh`` in slabs of its first axis; return the best point and its value.

    ``mesh`` is the sparse mesh of the grid axes, one broadcastable array
    per axis (``np.meshgrid(*axes, indexing="ij", sparse=True)``), so work
    that depends on fewer coordinates is done once per distinct value.
    ``objective`` is a ``(prepare, evaluate)`` pair split at the first
    coordinate.  ``prepare`` is called once, on the trailing arrays of the
    mesh, and ``evaluate`` once per slab of the first axis with what
    ``prepare`` returned, giving the slab's values, which must broadcast to
    the full slab shape.  The slabs are the fewest equal runs of the first
    axis (sizes differing by at most one row, the longer first) of at most
    ``SLAB_POINTS`` mesh points each, or of one row where a row holds more,
    each a view of the first array.  The slabs are read in C order and a
    later one wins only with a lower least value, so the result is
    ``np.argmin`` of the whole mesh: the first least value, or the first
    NaN, after which no slab is evaluated.
    """
    prepare, evaluate = objective
    first, *rest = mesh
    prepared = prepare(*rest)
    rows = first.shape[0]
    count = -(-rows // max(1, SLAB_POINTS // math.prod(axis.size for axis in rest)))
    size, longer = divmod(rows, count)
    best_val, start = None, 0
    for slab in range(count):
        stop = start + size + (slab < longer)
        values = evaluate(first[start:stop], prepared)
        flat = int(np.argmin(values))
        value = values.flat[flat]
        if best_val is None or value < best_val or math.isnan(value):
            index = np.unravel_index(flat, values.shape)
            best_val, best = value, (start + index[0], *index[1:])
            if math.isnan(value):
                break
        start = stop
    # each array of a sparse mesh varies along its own axis only, so its flat index is that axis's
    return np.array([axis.item(i) for axis, i in zip(mesh, best)]), float(best_val)


@functools.lru_cache(maxsize=None)
def _chained_table(dim):
    """The moves of one objective call of a ``dim``-coordinate descent, in units of the step.

    Coordinate moves, then pairwise diagonal moves (diagonal valleys stall a
    pure coordinate search), each with sign + then -, in seven blocks at 2,
    1, 1/2, 1/4, 1/8, 1/16 and 1/32 times the step: the first four are a
    poll, the last three the poll at 1/8 of its step that follows when it
    has no improving probe, without that poll's 2x block, which is the first
    poll's 1/4 block again, bit for bit, so it cannot improve.  Every factor
    is a power of two, so each row is the one a poll of its own would
    probe, exactly.
    """
    eye = np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    diagonals = [(eye[i] + sign * eye[j]) / np.sqrt(2.0) for i, j in pairs for sign in (1.0, -1.0)]
    moves = np.array([sign * d for d in (*eye, *diagonals) for sign in (1.0, -1.0)])
    table = np.concatenate([multiple * moves for multiple in (2.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _box(lows, highs, periods, resolution):
    """What ``descend`` reads of its box, built once per ``(lows, highs, periods, resolution)``.

    ``(widest, wrapped, clipped, bounds, moves, reaches, fits, scaled)``:
    the widest first step (each first step is 5% of the box, at least
    ``resolution``); the ``(i, period)`` of each periodic coordinate; the
    ``(i, low, high)`` of each clipped one; the box as two (coordinates, 1)
    arrays, infinite on a periodic coordinate; the moves of one objective
    call at scale 1, a (coordinates, probes + 1) array of the first steps
    times ``_chained_table`` with a last column of zeros that the model row
    overwrites; the largest move of each coordinate at scale 1; per
    coordinate, for ``_model_row``, its index, its 1/4-block move at scale
    1 and its box; and the moves at each step scale that any descent on
    this box has reached, keyed by the scale, which every descent on the
    box reads and extends.  Every array is read-only.  ``descend`` passes
    ``RESOLUTION`` as ``resolution``, so a patched value gets its own
    layout; nothing here reads ``MAX_POLLS`` or ``MIN_IMPROVEMENT``.
    """
    lows, highs = np.array(lows, dtype=float), np.array(highs, dtype=float)
    first_steps = np.maximum((highs - lows) * 0.05, resolution)
    wrapped = tuple((i, period) for i, period in enumerate(periods) if period is not None)
    wraps = np.array([period is not None for period in periods])
    lows, highs = np.where(wraps, -np.inf, lows), np.where(wraps, np.inf, highs)
    bounds = tuple(zip(lows.tolist(), highs.tolist()))
    clipped = tuple((i, low, high) for i, (low, high) in enumerate(bounds) if not wraps[i])
    chained = _chained_table(len(bounds))
    moves = first_steps[:, None] * np.concatenate([chained, np.zeros((1, len(bounds)))]).T
    reaches = tuple((first_steps * 2.0).tolist())
    fits = tuple((i, q, low, high) for i, (q, (low, high)) in enumerate(zip((first_steps * 0.25).tolist(), bounds)))
    lows, highs = lows[:, None], highs[:, None]
    for array in (lows, highs, moves):
        array.flags.writeable = False
    return float(first_steps.max()), wrapped, clipped, (lows, highs), moves, reaches, fits, {1.0: moves}


def descend(objective, x0, value, lows, highs, periods, rows):
    """Deterministic compass search within a box: a poll, the poll after its miss and a model row per objective call.

    ``objective`` is a ``(prepare, evaluate)`` pair as ``grid_argmin``
    takes it; one objective call is ``evaluate(first, prepare(*rest))`` on
    the rows of one (coordinates, probes) array.  Each poll evaluates the
    moves of the first four blocks of ``_chained_table`` (2, 1, 1/2 and
    1/4 times the step) from the incumbent, clipped to the box except on a
    coordinate with a ``periods`` entry, in which the objective must be
    periodic; the first step is 5% of the box.  A poll takes the lowest
    probe that moves and beats the incumbent by more than
    ``MIN_IMPROVEMENT`` (the first on ties) in the first block with one
    and scales the step by that block's multiple; a poll without one
    divides the step by 8.  The descent stops below ``RESOLUTION`` or
    after ``MAX_POLLS`` polls, both read at call time.

    One objective call evaluates every row of ``_chained_table``: the poll
    at the current step and the poll at 1/8 of it, which the descent reads
    only when the first poll misses and neither stop falls between the two.
    Every call after the first may add one row, the model row
    (``_model_row``), a search step in the sense of Torczon (SIAM J. Optim.
    7, 1 (1997)) built from the poll's own values: per coordinate whose two
    1/4-block probes of the previous call moved by exactly +-h (neither was
    clipped), with finite values and a positive curvature, the least point
    of the parabola through them and the previous incumbent, clamped to 2 h
    from that incumbent and clipped to the box; the previous incumbent's
    coordinate elsewhere.  A call without such a coordinate has no model
    row.  The call moves to the model row where the row moved, beats the
    incumbent by more than ``MIN_IMPROVEMENT`` and beats the probe the polls
    take (ties go to the polls).  The step, the poll count and both stops
    follow the polls alone, so the compass search is the safeguard of the
    model row.  The point the descent moves to is wrapped into
    [0, period) on a periodic coordinate.

    ``rows`` is a (coordinates, candidates) array of further rows that the
    first objective call evaluates after its probes, as they stand (never
    clipped; a coordinate may be infinite), so that they cost no call of
    their own; the descent never reads them.  Returns ``(x, value,
    row_values)``: the end, its value and the values of ``rows``.  A
    descent that makes no call (``MAX_POLLS`` <= 0) evaluates ``rows`` in
    one call of its own.

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

    ``value`` is the objective at ``x0``, which the callers take from the grid
    stage instead of evaluating the 1-row ``x0`` again; the two agree bit
    for bit where numpy's elementwise functions round a mesh element and a
    1-element row alike (tests/test_gie.py checks every gielab objective).
    Everything that depends only on the box (``_box``) is built once per
    box and ``RESOLUTION``, not per descent.  Every step factor is a power
    of two, so the step is the first step times one scale, exactly, and the
    stop rule reads the scale times the widest first step; the moves at
    each scale are computed once per box, for all its descents.  A call
    clips its rows only where its largest move, twice the step, may leave
    the box: inside it clipping changes no bit.
    """
    prepare, evaluate = objective
    x, val = np.array(x0, dtype=float), value
    widest, wrapped, clipped, (lows, highs), moves, reaches, fits, scaled = _box(
        tuple(lows), tuple(highs), tuple(periods), RESOLUTION
    )
    probes = moves.shape[1] - 1
    block = probes // 7
    quarter = slice(3 * block, 3 * block + 2 * x.size)  # the first level's 1/4-block moves +e0, -e0, +e1, ...
    tail = range(1, x.size)
    polls, model, scale = 0, None, 1.0
    while polls < MAX_POLLS:
        step = scaled.get(scale)
        if step is None:
            step = moves * scale
            step.flags.writeable = False
            scaled[scale] = step
        centre, centre_val, centre_scale = x.tolist(), val, scale
        if model is None:
            trials = x[:, None] + step[:, :probes]
        else:
            trials = x[:, None] + step
            trials[:, probes] = model
        for i, low, high in clipped:  # clip only where some probe can leave the box; the model row is in it
            if centre[i] - reaches[i] * scale < low or centre[i] + reaches[i] * scale > high:
                np.maximum(trials, lows, out=trials)
                np.minimum(trials, highs, out=trials)
                break
        if not polls:  # the first call: the rows after its probes, unclipped
            trials = np.concatenate((trials, rows), axis=1)
        values = evaluate(trials[0], prepare(*[trials[i] for i in tail]))
        if not polls:
            row_values = values[probes:]
        bar = val - MIN_IMPROVEMENT  # both levels and the model row start from this incumbent
        improving = values < bar
        first = int(improving.argmax())
        if first < probes and improving[first]:
            start = first - first % block
            pick = start + int(values[start : start + block].argmin())
            if not (values[pick] < bar and trials[:, pick].tolist() != centre):
                start, pick = _filtered_pick(trials[:, :probes], values, improving[:probes], x, block)
        else:
            start = pick = None
        stop = False
        if start is None or start >= 4 * block:  # the first level misses
            polls += 1
            scale *= 0.125
            if scale * widest < RESOLUTION or polls == MAX_POLLS:
                stop, pick = True, None  # the poll after the miss lies past the stop: it is not read
        if model is not None and improving[probes] and (pick is None or values[probes] < values[pick]):
            if model != centre:  # the row moved
                pick = probes
        if pick is not None:
            x, val = trials[:, pick], values[pick]
            for i, period in wrapped:
                x[i] %= period
        if stop:
            return x, val, row_values
        polls += 1
        if start is None:
            scale *= 0.125
        else:
            scale *= (2.0, 1.0, 0.5, 0.25, 1.0, 0.5, 0.25)[start // block]
        if scale * widest < RESOLUTION or polls == MAX_POLLS:
            return x, val, row_values
        model = _model_row(centre, centre_val, values[quarter].tolist(), fits, centre_scale)
    return x, val, evaluate(rows[0], prepare(*rows[1:]))


def _model_row(centre, value, fit, fits, scale):
    """The model row of the call after the one centred on ``centre``, or None where no coordinate qualifies.

    On Python floats: ``value`` is the objective at ``centre`` and ``fit``
    its values at centre + h e_i and centre - h e_i, coordinate by
    coordinate; ``fits`` holds per coordinate ``(i, quarter, low, high)``,
    where h = quarter * ``scale`` is the 1/4-block step and [low, high] the
    box (infinite on a periodic coordinate).  A coordinate qualifies where
    both probes lie in the box (so neither was clipped) and the curvature
    ``above + below - 2 value`` is positive and finite (so both values are
    finite); its entry is the least point of the parabola through the
    three values, clamped to 2 h from the centre and clipped to the box.
    Other coordinates keep the centre's.
    """
    row = None
    twice = 2.0 * float(value)
    for i, quarter, low, high in fits:
        above, below = fit[2 * i], fit[2 * i + 1]
        curvature = above + below - twice
        if 0.0 < curvature < math.inf:
            c, step = centre[i], quarter * scale
            if low <= c - step and c + step <= high:
                shift = 0.5 * step * (below - above) / curvature
                limit = step + step
                v = c + (limit if shift > limit else -limit if shift < -limit else shift)
                if row is None:
                    row = centre[:]
                row[i] = low if v < low else high if v > high else v
    return row


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

    The sparse mesh of the grid axes, as ``grid_argmin`` takes it, the
    candidate rows as one (coordinates, candidates) array, as ``descend``
    takes them, and their reported parameters; every array is read-only
    (the mesh is a view of the read-only axes).  Nothing here reads
    ``RESOLUTION``, ``MAX_POLLS``, ``MIN_IMPROVEMENT`` or ``SLAB_POINTS``:
    ``descend`` and ``grid_argmin`` read them at call time.
    """
    axes = [np.linspace(lo, hi, points, endpoint=period is None)
            for lo, hi, period in zip(map(float, space.lows), map(float, space.highs), space.periods)]
    rows = np.array([row for _, row in space.candidates], dtype=float).reshape(len(space.candidates), len(axes)).T
    for array in (rows, *axes):
        array.flags.writeable = False
    mesh = tuple(np.meshgrid(*axes, indexing="ij", sparse=True, copy=False))
    return mesh, rows, tuple(space.params(row) for row in rows.T)


def search(objective, space, points):
    """Minimize ``objective`` on the grid of ``space``, ``points`` per coordinate, descend, then try its candidates.

    ``objective`` is a ``(prepare, evaluate)`` pair as ``grid_argmin``
    takes it; both broadcast (the grid passes meshes, the descent 1-D
    arrays), and the grid mesh and the candidate rows are read-only arrays
    of the layout that ``_layout`` builds once per ``(space, points)``.
    Returns ``(best_value, label, trace)``: the first candidate within
    ``TIE_ATOL`` of the least of the descent end and the candidates, with
    its own value, so the label and the value come from one row; else that
    least value and ``space.label`` with the descent end's parameters.  The trace
    is ``(space.params(row), value)`` of the grid best (the first least
    value of the mesh), the descent end and every candidate.  The descent
    starts from the grid best with the grid's value there, and its first
    call evaluates the candidate rows after its probes, so ``prepare`` is
    called once for the grid and once per descent call (a poll, the poll
    after it when it misses, the model row and, in the first call, the
    candidates), ``evaluate`` as often plus once per further grid slab (a
    slab holds up to ``SLAB_POINTS`` mesh points, so grids up to 21 points
    per coordinate are one slab in 3-D).
    """
    mesh, rows, reported = _layout(space, points)
    coarse, coarse_val = grid_argmin(objective, mesh)
    refined, refined_val, row_values = descend(objective, coarse, coarse_val, space.lows, space.highs,
                                               space.periods, rows)
    trace = [(space.params(coarse), coarse_val), (space.params(refined), float(refined_val))]
    trace += [(params, float(value)) for params, value in zip(reported, row_values)]
    best_val = min(value for _, value in trace[1:])
    for (label, _), (_, value) in zip(space.candidates, trace[2:]):
        if value <= best_val + TIE_ATOL:
            return value, label, trace
    end = ", ".join(f"{name}={value:.6g}" for name, value in zip(space.names, trace[1][0]))
    return best_val, f"{space.label}({end})", trace
