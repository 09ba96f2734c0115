import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import split, whole_mesh_argmin

from gielab import optimize
from gielab.information import half_log
from gielab.optimize import MIN_IMPROVEMENT, TIE_ATOL, SearchSpace, descend, grid_argmin, search

# the unit square, 11 grid points per coordinate
TOY = SearchSpace(
    names=("x", "y"), lows=(0.0, 0.0), highs=(1.0, 1.0), periods=(None, None), logs=(), candidates=(), label="toy"
)
POINTS = 11


def bowl(x, y):
    """Off-grid minimum 0 at (0.33, 0.61); broadcasts over meshes."""
    return (x - 0.33) ** 2 + (y - 0.61) ** 2


def with_rows_beyond_5(x, y):
    """``bowl`` in the box; a row at x >= 5, outside it, evaluates to y, so a
    candidate row ``(5, y)`` has the value y."""
    return np.where(x >= 5.0, y, bowl(x, y))


def run(candidates, fn=with_rows_beyond_5):
    return search(split(fn), dataclasses.replace(TOY, candidates=tuple(candidates)), POINTS)


def mesh_of(axes):
    """The sparse mesh of ``axes``, as ``grid_argmin`` takes it."""
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def descend_alone(objective, x0, value, lows, highs, periods):
    """``descend`` with no further rows for its first call; its end and the value there."""
    return descend(objective, x0, value, lows, highs, periods, np.empty((len(x0), 0)))[:2]


def value_at(fn, x0):
    """``fn`` at ``x0`` as a 1-row evaluation, the start value ``descend`` takes."""
    return fn(*np.array(x0, dtype=float)[:, None])[0]


def counted(fn):
    """``fn`` and a list that grows by one entry per call of it."""
    calls = []

    def wrapped(*xs):
        calls.append(len(xs[0]) if np.ndim(xs[0]) == 1 else None)
        return fn(*xs)

    return wrapped, calls


ROWS_PER_CALL = {2: 32 + 24, 3: 72 + 54}  # a poll, then the poll after its miss without its 2x block


def recording(fn, rows):
    """``fn``, appending the (coordinates, probes) array of each call to ``rows``."""

    def wrapped(*xs):
        rows.append(np.array(xs))
        return fn(*xs)

    return wrapped


def call_rows(centre, steps, model, lows, highs, periods):
    """The rows of one objective call of ``descend`` from ``centre`` at ``steps``.

    The poll of the first four blocks of the call table, the same poll at
    1/8 of ``steps`` without its 2x block, each clipped to the box except on
    a coordinate with a period, and the model row last where there is one.
    """
    chained = optimize._chained_table(centre.size)
    block = len(chained) // 7
    table = chained[: 4 * block].T
    wraps = np.array([period is not None for period in periods])[:, None]

    def poll(step):
        rows = centre[:, None] + step[:, None] * table
        return np.where(wraps, rows, np.minimum(np.maximum(rows, lows[:, None]), highs[:, None]))

    rows = [poll(steps), poll(steps / 8.0)[:, block:]]
    return np.hstack(rows if model is None else rows + [np.array(model)[:, None]])


def follow_poll_per_call(fn, x0, value, lows, highs, periods, rows=None):
    """Run ``descend`` and ``probe_at_a_time_descend`` from one start value; return the end, its value, the
    outcomes and the values of ``rows``.

    Asserts that both end at the same point with the same value, that
    ``descend`` calls ``fn`` once per objective call of the reference and
    that each call probes what the reference reads in it: its poll, the
    poll after that poll's miss without its 2x block, and its model row;
    the first call also evaluates ``rows`` (a (coordinates, candidates)
    array, default none) after its probes, as they stand.
    """
    lows, highs = np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)
    rows = np.empty((len(x0), 0)) if rows is None else rows
    calls = []
    x, val, row_values = descend(split(recording(fn, calls)), x0, value, lows, highs, periods, rows)
    x_ref, val_ref, outcomes, _, ref_calls = probe_at_a_time_descend(fn, x0, lows, highs, periods, value)
    assert (x.tolist(), float(val)) == (x_ref.tolist(), float(val_ref))
    assert len(calls) == len(ref_calls)
    expected = [call_rows(centre, steps, model, lows, highs, periods) for centre, steps, model in ref_calls]
    expected[0] = np.hstack([expected[0], rows])
    for probed, reference in zip(calls, expected):
        assert np.array_equal(probed, reference)
    return x, val, outcomes, row_values


def descent_end():
    value, _, trace = run([])
    return value, trace[1][0]


class TestSearch:
    def test_candidate_within_tie_above_the_descent_is_named(self):
        low, _ = descent_end()
        value, label, trace = run([("exact", (5.0, low + 0.5 * TIE_ATOL))])
        assert label == "exact"
        assert trace[2][0] == (5.0, low + 0.5 * TIE_ATOL)
        assert value == low  # the value is the minimum, not the named candidate's

    def test_earlier_candidate_wins_a_tie(self):
        first, second = ("first", (5.0, -1.0)), ("second", (6.0, -1.0))
        assert run([first, second])[1] == "first"
        assert run([second, first])[1] == "second"
        # a later candidate lower by less than TIE_ATOL does not displace it
        value, label, _ = run([("first", (5.0, -1.0 + 0.5 * TIE_ATOL)), second])
        assert (value, label) == (-1.0, "first")

    def test_no_candidate_within_tie_names_the_descent_end(self):
        low, end = descent_end()
        value, label, trace = run([("far", (5.0, low + 1e3 * TIE_ATOL))])
        assert label == f"toy(x={end[0]:.6g}, y={end[1]:.6g})"
        assert trace[1][0] == end
        assert value == low

    def test_general_label_formats_each_reported_coordinate(self):
        space = SearchSpace(
            names=("phi", "tau", "t"), lows=(0.0, 0.0, 0.0), highs=(np.pi, 2.0, 3.0), periods=(np.pi, None, None),
            logs=(1,), candidates=(), label="general",
        )

        def fn(phi, log_tau, t):
            return np.sin(phi - 0.3) ** 2 + (log_tau - 0.7) ** 2 + (t - 1.1) ** 2  # pi-periodic in phi

        _, label, trace = search(split(fn), space, 9)
        phi, tau, t = trace[1][0]
        assert abs(phi - 0.3) < 1e-6 and abs(tau - np.exp(0.7)) < 1e-6 and abs(t - 1.1) < 1e-6
        assert label == f"general(phi={phi:.6g}, tau={tau:.6g}, t={t:.6g})"

    def test_empty_candidates(self):
        value, label, trace = run([])
        assert len(trace) == 2
        assert value == trace[1][1]
        assert label.startswith("toy(")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.just(5.0), st.floats(-1.0, 2.0)), st.floats(-2.0, 8.0)), max_size=4))
    def test_the_label_is_always_a_string(self, rows):
        # rows at x = 5 evaluate to y; the others evaluate the bowl, inside the box or not
        candidates = [(f"c{i}", row) for i, row in enumerate(rows)]
        _, label, trace = run(candidates)
        assert isinstance(label, str)
        assert label in {name for name, _ in candidates} or label.startswith("toy(x=")
        assert [params for params, _ in trace[2:]] == rows

    def test_trace_is_grid_best_then_descent_end_then_candidates(self):
        candidates = [("a", (5.0, 2.0)), ("b", (0.7, 0.1))]
        _, _, trace = run(candidates)
        grid_best, grid_val = grid_argmin(split(bowl), mesh_of((np.linspace(0.0, 1.0, POINTS),) * 2))
        end, end_val = descend_alone(split(bowl), grid_best, grid_val, np.zeros(2), np.ones(2), (None, None))
        assert not np.array_equal(grid_best, end)  # the off-grid minimum moves the descent
        assert trace == [
            (TOY.params(grid_best), grid_val),
            (TOY.params(end), float(end_val)),
            ((5.0, 2.0), 2.0),  # a row outside the box is evaluated as it stands
            ((0.7, 0.1), float(bowl(0.7, 0.1))),  # rows inside the box evaluate the objective
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 13), st.booleans())
    def test_one_call_for_the_grid_and_one_per_descent_call(self, points, periodic):
        # the descent starts from the grid best with the grid's value, without evaluating it again, and
        # its first call evaluates the candidates after its probes
        space = dataclasses.replace(TOY, candidates=(("a", (5.0, 2.0)), ("b", (0.7, 0.1))))
        if periodic:
            space = dataclasses.replace(space, highs=(np.pi, 1.0), periods=(np.pi, None))
        fn, calls = counted(with_rows_beyond_5)
        _, _, trace = search(split(fn), space, points)
        lows, highs = np.array(space.lows), np.array(space.highs)
        axes = [np.linspace(0.0, high, points, endpoint=period is None) for high, period in zip(highs, space.periods)]
        grid_best, grid_val = grid_argmin(split(with_rows_beyond_5), mesh_of(axes))
        ref_calls = probe_at_a_time_descend(with_rows_beyond_5, grid_best, lows, highs, space.periods)[4]
        assert len(calls) == 1 + len(ref_calls)
        assert calls[0] is None  # the mesh first
        # a call's model row rides in it: 56 rows, or 57 with one; the first call has none, and carries
        # the two candidates after its probes
        expected = [ROWS_PER_CALL[2] + (model is not None) for _, _, model in ref_calls]
        expected[0] += 2
        assert calls[1:] == expected
        end, _ = descend_alone(split(with_rows_beyond_5), grid_best, grid_val, lows, highs, space.periods)
        assert trace[1][0] == space.params(end)

    def test_params_reduce_periodic_coordinates_and_exponentiate_logarithms(self):
        space = dataclasses.replace(TOY, periods=(np.pi, None), logs=(1,))
        assert space.params((np.pi / 2.0, 0.0)) == (np.pi / 2.0, 1.0)
        assert space.params((0.0, np.inf)) == (0.0, np.inf)
        assert space.params((0.0, -np.inf)) == (0.0, 0.0)


def clear_caches():
    """Empty the search layout and box layout caches."""
    optimize._layout.cache_clear()
    optimize._box.cache_clear()


class TestLayoutCache:
    SPACE = SearchSpace(
        names=("phi", "tau", "t"), lows=(0.0, 0.0, 0.0), highs=(np.pi, 2.0, 3.0), periods=(np.pi, None, None),
        logs=(1,), candidates=(("near", (0.3, 0.7, 1.0)), ("far", (0.0, 0.0, np.inf))), label="general",
    )

    @staticmethod
    def fn(phi, log_tau, t):
        return np.sin(phi - 0.3) ** 2 + (log_tau - 0.7) ** 2 + np.tanh(t - 1.1) ** 2  # pi-periodic in phi

    def test_a_cached_layout_gives_the_traces_of_a_fresh_one(self):
        clear_caches()
        cached = [search(split(self.fn), self.SPACE, points) for points in (13, 21, 13)]
        assert optimize._layout.cache_info()[:2] == (1, 2)  # (hits, misses): 13 is built once
        assert optimize._box.cache_info()[:2] == (2, 1)  # one box for every grid size
        fresh = []
        for points in (13, 21, 13):
            clear_caches()
            fresh.append(search(split(self.fn), self.SPACE, points))
        assert cached == fresh

    def test_the_cached_arrays_are_read_only(self):
        def writes_its_mesh(phi, log_tau, t):
            phi[...] = 0.0
            return self.fn(phi, log_tau, t)

        with pytest.raises(ValueError, match="read-only"):
            search(split(writes_its_mesh), self.SPACE, 5)
        mesh, rows, _ = optimize._layout(self.SPACE, 5)
        assert not any(array.flags.writeable for array in (*mesh, rows))

    def test_the_box_layout_and_every_cached_move_table_are_read_only(self):
        clear_caches()
        search(split(self.fn), self.SPACE, 5)
        (_, _, _, bounds, moves, _, _, scaled), = [optimize._box(self.SPACE.lows, self.SPACE.highs,
                                                                  self.SPACE.periods, optimize.RESOLUTION)]
        assert len(scaled) > 1  # the descent reached scales past the first
        for array in (*bounds, moves, *scaled.values()):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        assert scaled[1.0] is moves
        assert all(np.array_equal(step, moves * scale) for scale, step in scaled.items())

    def test_a_descent_after_a_long_one_on_its_box_gives_the_trace_of_a_cold_one(self):
        # the long descent fills the box's move tables at many scales; the short one reads them
        box = np.zeros(2), np.array([np.pi, 1.0]), (np.pi, None)
        long_start, short_start = np.array([2.0, 0.9]), np.array([0.1, 0.45])
        clear_caches()
        follow_poll_per_call(seam_bowl, long_start, value_at(seam_bowl, long_start), *box)
        warm_scales = set(optimize._box((0.0, 0.0), (np.pi, 1.0), (np.pi, None), optimize.RESOLUTION)[-1])
        warm_calls = []
        warm = descend_alone(split(recording(seam_bowl, warm_calls)), short_start,
                             value_at(seam_bowl, short_start), *box)
        clear_caches()
        cold_calls = []
        cold = descend_alone(split(recording(seam_bowl, cold_calls)), short_start,
                             value_at(seam_bowl, short_start), *box)
        cold_scales = set(optimize._box((0.0, 0.0), (np.pi, 1.0), (np.pi, None), optimize.RESOLUTION)[-1])
        assert len(cold_scales & warm_scales) > 2  # the short descent reads tables that the long one built
        assert (warm[0].tolist(), float(warm[1])) == (cold[0].tolist(), float(cold[1]))
        assert len(warm_calls) == len(cold_calls)
        assert all(np.array_equal(w, c) for w, c in zip(warm_calls, cold_calls))

    # RESOLUTION 0.2 is above 5% of every side of the box, so it sets the first steps that the box layout holds
    @pytest.mark.parametrize("name, value", (("RESOLUTION", 0.2), ("MAX_POLLS", 3), ("MIN_IMPROVEMENT", 1e-3),
                                             ("SLAB_POINTS", 13)), ids=("RESOLUTION", "MAX_POLLS",
                                                                        "MIN_IMPROVEMENT", "SLAB_POINTS"))
    def test_a_patched_constant_applies_once_the_caches_are_warm(self, name, value):
        runs = []

        def run():
            calls = []

            def fn(*xs):  # records the grid's slabs and the descent's rows alike
                calls.append(np.stack(np.broadcast_arrays(*xs)))
                return self.fn(*xs)

            runs.append((search(split(fn), self.SPACE, 13), calls))

        clear_caches()
        run()
        with mock.patch.object(optimize, name, value):
            run()
            clear_caches()
            run()
        (unpatched, unpatched_calls), (warm, warm_calls), (cold, cold_calls) = runs
        assert warm == cold
        assert len(warm_calls) == len(cold_calls)
        assert all(np.array_equal(w, c) for w, c in zip(warm_calls, cold_calls))
        # the patch changes the search
        assert len(warm_calls) != len(unpatched_calls) or any(
            not np.array_equal(w, u) for w, u in zip(warm_calls, unpatched_calls))

    def test_spaces_that_differ_only_in_their_candidates_get_their_own_entries(self):
        optimize._layout.cache_clear()
        for y in (1.0, 2.0):
            assert run([("c", (5.0, y))])[2][2] == ((5.0, y), y)  # the row at x = 5 evaluates to y
        assert optimize._layout.cache_info().currsize == 2


@st.composite
def slab_meshes(draw):
    """A table of values on a 1-D to 3-D mesh and a slab budget, from one point up to the whole mesh.

    The values are few, with both infinities (K_h masks lambda2 > lambda1
    to inf), so ties fall across slab boundaries, and up to two entries may
    be NaN; the first axis may have length 1.
    """
    shape = (draw(st.integers(1, 9)), *draw(st.lists(st.integers(1, 4), max_size=2)))
    size = int(np.prod(shape))
    table = np.array(draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0, np.inf, -np.inf)), min_size=size, max_size=size)))
    table[draw(st.lists(st.integers(0, size - 1), max_size=2))] = np.nan
    return table.reshape(shape), draw(st.integers(1, size + 1))


@st.composite
def key_meshes(draw):
    """A table of R = 1 style keys on a 1-D to 3-D mesh and a slab budget, as ``slab_meshes`` draws values.

    The keys are few and come in neighbours a few ulps apart whose half
    logarithms are equal, with 0, a negative key (1/2 ln of both is -inf or
    NaN) and inf; up to two entries may be NaN.
    """
    near = [float(x) for base in (30.0, 1e6) for x in base + np.arange(4) * np.spacing(base)]
    shape = (draw(st.integers(1, 9)), *draw(st.lists(st.integers(1, 4), max_size=2)))
    size = int(np.prod(shape))
    table = np.array(draw(st.lists(st.sampled_from((*near, 0.0, -1.0, np.inf)), min_size=size, max_size=size)))
    table[draw(st.lists(st.integers(0, size - 1), max_size=2))] = np.nan
    return table.reshape(shape), draw(st.integers(1, size + 1))


def same_value(x, y):
    """Equal values, or both NaN."""
    return x == y or bool(np.isnan(x) and np.isnan(y))


def lookup(table, calls, finish=optimize.as_is):
    """An objective on the index mesh of ``table``, whose entries are its keys, that records each call.

    ``prepare`` appends ``"prepare"`` to ``calls``, ``evaluate`` the mesh
    shape of its slab.
    """

    def prepare(*rest):
        calls.append("prepare")
        return rest

    def evaluate(first, rest):
        calls.append(np.broadcast_shapes(first.shape, *(r.shape for r in rest)))
        return table[tuple(m.astype(np.intp) for m in (first, *rest))]

    return prepare, evaluate, finish


class TestGridSlabs:
    @settings(max_examples=300, deadline=None)
    @given(slab_meshes())
    # a tie for the least value across the boundary of one-row slabs: the first wins
    @example((np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), 2))
    # the NaN in the second slab wins over the -inf before it, as in np.argmin
    @example((np.array([[-np.inf, 1.0], [np.nan, np.nan]]), 2))
    # K_h's inf rows in the first slab, the least value in the uneven last one
    @example((np.array([[np.inf, np.inf], [np.inf, 3.0], [2.0, 5.0], [4.0, 2.0], [2.0, 1.0]]), 4))
    # a row longer than the budget, and a first axis of length 1
    @example((np.array([[3.0, -1.0, -1.0]]), 1))
    def test_the_slabs_give_the_whole_mesh_argmin(self, case):
        table, budget = case
        axes = [np.arange(n, dtype=float) for n in table.shape]
        calls = []
        with mock.patch.object(optimize, "SLAB_POINTS", budget):
            best, value = grid_argmin(lookup(table, calls), mesh_of(axes))
        ref_best, ref_value = whole_mesh_argmin(lambda *mesh: table[tuple(m.astype(np.intp) for m in mesh)], axes)
        assert best.tolist() == ref_best.tolist()
        assert same_value(value, ref_value)
        # the trailing mesh is prepared once, before the first slab
        assert calls[0] == "prepare" and "prepare" not in calls[1:]
        slabs = calls[1:]
        # the fewest equal slabs of the first axis (the longer first) within the budget, or one row each
        per_row = table[0].size
        count = -(-table.shape[0] // max(1, budget // per_row))
        sizes = [len(rows) for rows in np.array_split(np.arange(table.shape[0]), count)]
        assert [shape[1:] for shape in slabs] == [table.shape[1:]] * len(slabs)
        assert [shape[0] for shape in slabs] == sizes[: len(slabs)]
        if not np.isnan(ref_value):  # the slab with the first NaN is the last evaluated
            assert len(slabs) == count

    @settings(max_examples=300, deadline=None)
    @given(key_meshes())
    # two keys whose half logarithms are equal: the grid names the least key, the second
    @example((np.array([[np.nextafter(1e6, np.inf)], [1e6]]), 1))
    @example((np.array([np.nextafter(1e6, np.inf), 1e6]), 2))
    # a NaN key in the second of three one-row slabs: it wins and the third slab is not evaluated
    @example((np.array([[3.0, 0.5], [np.nan, 2.0], [0.1, 4.0]]), 2))
    # the least key -2 wins, and 1/2 ln maps it to NaN
    @example((np.array([[4.0, -1.0, 3.0, -2.0]]), 4))
    # a NaN key, which np.argmin of the keys returns, after a negative key
    @example((np.array([[-1.0, np.nan]]), 2))
    def test_a_key_objective_gives_the_whole_mesh_argmin_of_its_keys(self, case):
        # the grid ranks by the keys and takes 1/2 ln of the one it names: np.argmin of the keys of the
        # whole mesh; 1/2 ln is monotone, so without NaN keys that is the least value of the mesh
        table, budget = case
        axes = [np.arange(n, dtype=float) for n in table.shape]
        ref_best, ref_key = whole_mesh_argmin(lambda *mesh: table[tuple(map(np.intp, mesh))], axes)
        with mock.patch.object(optimize, "SLAB_POINTS", budget), np.errstate(invalid="ignore", divide="ignore"):
            best, value = grid_argmin(lookup(table, [], half_log), mesh_of(axes))
            finished, least = half_log(ref_key), np.min(half_log(table))
        assert best.tolist() == ref_best.tolist()
        assert same_value(value, finished)
        if not np.isnan(table).any():
            assert same_value(value, least)

    @settings(max_examples=200, deadline=None)
    @given(key_meshes())
    def test_the_result_does_not_depend_on_the_slab_partition(self, case):
        table, budget = case
        axes = [np.arange(n, dtype=float) for n in table.shape]

        def run(points):
            with mock.patch.object(optimize, "SLAB_POINTS", points), np.errstate(invalid="ignore", divide="ignore"):
                return grid_argmin(lookup(table, [], half_log), mesh_of(axes))

        one_best, one_value = run(table.size)
        for points in (1, 2 * table[0].size, budget):  # one row per slab, two rows, the drawn budget
            best, value = run(points)
            assert best.tolist() == one_best.tolist()
            assert same_value(value, one_value)

    def test_the_documented_key_examples(self):
        # (keys, np.argmin of the keys, the value): the grid names the first least key, though an earlier
        # key has the same value ([nextafter(1e6, inf), 1e6]) or an earlier one maps to NaN ([4, -1, 3, -2])
        cases = (([np.nextafter(1e6, np.inf), 1e6], 1, half_log(1e6)), ([4.0, -1.0, 3.0, -2.0], 3, np.nan),
                 ([-1.0, np.nan], 1, np.nan))
        with np.errstate(invalid="ignore"):
            for keys, keys_pick, expected in cases:
                keys = np.array(keys)
                assert int(np.argmin(keys)) == keys_pick
                best, value = grid_argmin(lookup(keys, [], half_log), mesh_of([np.arange(keys.size, dtype=float)]))
                assert best.tolist() == [keys_pick]
                assert same_value(value, expected)
        assert half_log(np.nextafter(1e6, np.inf)) == half_log(1e6)

    def test_a_two_slab_grid_takes_one_logarithm(self):
        finished = []

        def counted_log(keys):
            finished.append(np.size(keys))
            return half_log(keys)

        keys = np.array([[5.0, 3.0], [4.0, 30.0], [1e6, 2.0], [7.0, 31.0]])
        calls = []
        with mock.patch.object(optimize, "SLAB_POINTS", 4):
            best, value = grid_argmin(lookup(keys, calls, counted_log), mesh_of([np.arange(4.0), np.arange(2.0)]))
        assert (best.tolist(), value) == ([2.0, 1.0], half_log(2.0))
        assert calls == ["prepare", (2, 2), (2, 2)]
        assert finished == [1]  # one key, once for the whole grid stage

    @pytest.mark.parametrize("points, rows", ((21, [21]), (33, [7, 7, 7, 6, 6]), (45, [4] * 9 + [3] * 3)),
                             ids=("21", "33", "45"))
    def test_the_default_budget_cuts_grids_past_21_in_slabs_of_phi(self, points, rows):
        calls = []
        grid_argmin(lookup(np.zeros((points,) * 3), calls), mesh_of([np.arange(float(points))] * 3))
        assert calls == ["prepare"] + [(n, points, points) for n in rows]
        assert optimize.SLAB_POINTS >= 21**3  # grids up to 21, verify's 13 and 21 among them, make one call


def seam_bowl(phi, y):
    """pi-periodic in phi, minimum 0 at phi = -0.02 = pi - 0.02 (mod pi) and y = 0.5."""
    return np.sin(phi + 0.02) ** 2 + (y - 0.5) ** 2


class TestPeriodicSeam:
    SPACE = dataclasses.replace(TOY, names=("phi", "y"), highs=(np.pi, 1.0), periods=(np.pi, None), label="general")

    def test_the_descent_wraps_across_the_seam(self):
        # clipped to [0, pi], this descent stops on the phi = 0 face
        x0, calls = (0.05, 0.5), []
        x, value = descend_alone(split(recording(seam_bowl, calls)), x0, value_at(seam_bowl, x0), np.zeros(2),
                           np.array([np.pi, 1.0]), (np.pi, None))
        assert abs(x[0] - (np.pi - 0.02)) < 1e-6
        assert value < 1e-12
        # the second call's model row lies past the seam, at phi = -0.0204, and moves that call
        assert calls[1].shape[1] == ROWS_PER_CALL[2] + 1 and calls[1][0, -1] < 0.0

    def test_the_trace_reports_the_angle_modulo_its_period(self):
        # a one-point grid starts the descent on phi = 0, the other side of the seam
        _, label, trace = search(split(seam_bowl), self.SPACE, 1)
        (phi, y), value = trace[1]
        assert 0.0 <= phi < np.pi and abs(phi - (np.pi - 0.02)) < 1e-6 and abs(y - 0.5) < 1e-6
        assert value < 1e-12
        assert label == f"general(phi={phi:.6g}, y={y:.6g})"


def probe_at_a_time_descend(fn, x0, lows, highs, periods, value=None, model_rows=True):
    """Oracle: the compass search of ``descend`` with its model row, evaluating one probe per call.

    Polls the moves block by block (2, 1, 1/2 and 1/4 times the step) and
    stops at the first block with an improving probe.  A probe is not
    clipped on a coordinate with a period, whose step is 5% of the period
    as of any box, and the point the search moves to is reduced modulo
    it.  Stops below ``optimize.RESOLUTION`` or after
    ``optimize.MAX_POLLS`` polls, both read at call time.

    The polls come in the objective calls of ``descend``: a poll, and the
    poll after it where it misses and the search goes on.  Each call but
    the first may also evaluate a model row, fitted on Python floats to
    the previous call's incumbent c, its value and its probes c +- h e_i
    at 1/4 of that call's step: per coordinate whose two probes stayed in
    the box (or has a period), with finite values and a positive finite
    curvature, the least point of the parabola through the three, at most
    2 h from c and clipped to the box; c's own coordinate elsewhere.  The
    call moves to the model row, in place of what its polls take, when the
    row moved, beats the incumbent by more than ``MIN_IMPROVEMENT`` and
    beats the probe the polls take; the step follows the polls.
    ``model_rows=False`` is the plain compass search.

    ``value`` is the start value (default: ``fn`` at ``x0``).  Returns its
    end, the value there, each poll's outcome (True where it moved, False
    where it divided the step by 8), whether the poll cap stopped it and,
    per objective call, its incumbent, its step and its model row (None
    without one).  Each probe is a 1-row array, so the objective takes the
    array path that the batched descent takes.
    """
    x = np.array(x0, dtype=float)
    lows, highs = np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)
    val = fn(*x[:, None])[0] if value is None else value
    steps = np.maximum((highs - lows) * 0.05, optimize.RESOLUTION)
    directions = list(np.eye(x.size))
    for i in range(x.size):
        for j in range(i + 1, x.size):
            for sign in (1.0, -1.0):
                d = np.zeros(x.size)
                d[i], d[j] = 1.0, sign
                directions.append(d / np.sqrt(2.0))

    def probe(x, move, steps):
        """The probe at ``x + steps * move``, clipped, and whether it left ``x``."""
        raw = x + steps * move
        clipped = np.clip(raw, lows, highs)
        trial = np.array([c if p is None else r for r, c, p in zip(raw, clipped, periods)])
        return trial, not np.array_equal(trial, x)

    def poll(x, val):
        """The improving probe that one poll takes, with its value and its block's multiple, or None."""
        for multiple in (2.0, 1.0, 0.5, 0.25):
            best = None
            for direction in directions:
                for sign in (1.0, -1.0):
                    trial, moved = probe(x, multiple * sign * direction, steps)
                    if moved:
                        tval = fn(*trial[:, None])[0]
                        if tval < val - MIN_IMPROVEMENT and (best is None or tval < best[1]):
                            best = trial, tval
            if best is not None:
                return best[0], best[1], multiple
        return None

    def fitted_row(centre, centre_val, steps):
        """The model row from ``centre``: one parabola per coordinate through its probes at +-1/4 of ``steps``."""
        row, fitted = centre.tolist(), False
        boxes = zip(row[:], (0.25 * steps).tolist(), lows.tolist(), highs.tolist(), periods)
        for i, (c, step, low, high, period) in enumerate(boxes):
            ends = []
            for sign in (1.0, -1.0):
                trial, _ = probe(centre, 0.25 * sign * np.eye(x.size)[i], steps)
                if period is None and trial[i] != c + sign * step:
                    break  # clipped
                ends.append(float(fn(*trial[:, None])[0]))
            else:
                above, below = ends
                curvature = above + below - 2.0 * float(centre_val)
                if math.isfinite(above) and math.isfinite(below) and 0.0 < curvature < math.inf:
                    shift = max(-2.0 * step, min(2.0 * step, step * (below - above) / (2.0 * curvature)))
                    row[i] = c + shift if period is not None else min(max(c + shift, low), high)
                    fitted = True
        return row if fitted else None

    outcomes, calls, model, polls = [], [], None, 0
    while True:
        calls.append((x.copy(), steps.copy(), model))
        centre, centre_val, centre_steps = x.copy(), val, steps
        taken = None
        for _ in range(2):  # a poll, and the poll after its miss
            taken = poll(x, val)
            polls += 1
            outcomes.append(taken is not None)
            steps = steps * taken[2] if taken is not None else steps / 8.0
            stopped = steps.max() < optimize.RESOLUTION or polls == optimize.MAX_POLLS
            if taken is not None or stopped:
                break
        if model is not None:
            model_val = fn(*np.array(model)[:, None])[0]
            if model_val < val - MIN_IMPROVEMENT and (taken is None or model_val < taken[1]) and model != x.tolist():
                taken = np.array(model), model_val
        if taken is not None:
            x, val = np.array([v if p is None else v % p for v, p in zip(taken[0], periods)]), taken[1]
        if stopped:
            return x, val, outcomes, not steps.max() < optimize.RESOLUTION, calls
        model = fitted_row(centre, centre_val, centre_steps) if model_rows else None


def box_objective(center, weights, coupling, well, cut, periods):
    """A polynomial in one argument per coordinate, masked to inf where ``x0 + x1 > cut``.

    A coordinate with a period enters reduced modulo it, so the objective is
    periodic in it, as ``descend`` requires.

    Squares are written as products: ``x * x`` is correctly rounded for a
    Python float and an array element alike, while ``x ** 2`` on a scalar
    goes through the C library's ``pow``, which can round a near-halfway
    square the other way.  So scalar and array evaluations agree bit for bit.
    """

    def fn(*xs):
        xs = [x if p is None else x % p for x, p in zip(xs, periods)]
        shifted = xs[0] * xs[0] - 1.0
        value = well * shifted * shifted + coupling * (xs[0] - center[0]) * (xs[1] - center[1])
        for x, c, w in zip(xs, center, weights):
            value = value + w * (x - c) * (x - c)
        if cut is None:
            return value
        return np.where(xs[0] + xs[1] > cut, np.inf, value)

    return fn


@st.composite
def box_problems(draw):
    """A polynomial objective on a 2-D or 3-D box, its start, its periods and an optional inf region.

    The minimum may lie outside the box (probes get clipped, except on a
    periodic coordinate, whose box is [0, period)), the start may sit on a
    box face, and ``x0 + x1 > cut`` may be masked to inf as the K_h
    objective masks lambda2 > lambda1.
    """
    dim = draw(st.sampled_from((2, 3)))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    lows = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
    highs = lows + np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=dim, max_size=dim)))
    periods = [None] * dim
    periodic = draw(st.one_of(st.none(), st.integers(0, dim - 1)))
    if periodic is not None:
        periods[periodic] = draw(st.one_of(st.just(np.pi), st.floats(0.5, 3.0)))
        lows[periodic], highs[periodic] = 0.0, periods[periodic]
    center = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim)))
    weights = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim)))
    coupling = draw(st.floats(-0.9, 0.9))
    well = draw(st.sampled_from((0.0, 0.3)))  # a double well in x0 gives a rugged path
    cut = draw(st.one_of(st.none(), st.floats(-2.0, 3.0)))
    where = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=dim, max_size=dim))
    x0 = np.array([lo + f * (hi - lo) for lo, hi, f in zip(lows, highs, where)])
    if periodic is not None:
        x0[periodic] %= periods[periodic]
    return box_objective(center, weights, coupling, well, cut, periods), x0, lows, highs, tuple(periods)


# (x0 - c)**2 at the start x0 = -0.41528..., c = -3.59835... is a near-halfway
# square that libm's pow rounds up and x * x rounds down
NEAR_HALFWAY_SQUARE = (
    box_objective(np.array([-3.5983500045072674, 0.0]), np.ones(2), 0.0, 0.0, None, (None, None)),
    np.array([-0.4152858782814799, 0.0]),
    np.array([-0.4152858782814799, 0.0]),
    np.array([0.5847141217185201, 1.0]),
    (None, None),
)


# Stops between the two levels of one descent call: the poll that stops the descent misses at the
# start of a call, and the poll after it, probed in the same call, would improve, so reading it past
# the stop would move the end.  Poll 6 of this path is such a miss, so a cap of 6 falls there.
CAP_BETWEEN_LEVELS = (
    box_objective(np.array([1.47, 2.3]), np.array([1.04, 4.03]), -0.56, 0.0, None, (None, None)),
    np.array([0.78, 3.21]),
    np.array([0.04, 1.01]),
    np.array([0.91, 3.56]),
    (None, None),
)
# a box 1e-5 by 5e-5, so that the resolution stop (1e-7 in the tests) falls within 12 polls: after
# nine moves, poll 10 misses at the start of a call and takes the step below it
RESOLUTION_BETWEEN_LEVELS = (
    box_objective(np.array([0.5000052, -1.199976]), np.array([2.8, 1.1]), 0.5, 0.0, None, (None, None)),
    np.array([0.5000028, -1.1999544]),
    np.array([0.5, -1.2]),
    np.array([0.50001, -1.19995]),
    (None, None),
)


def corner_bowl(x, y):
    """Minimum 2 below the unit square's (1, 1) corner at (2, 2); every probe past the corner clips back onto it."""
    return (x - 2.0) * (x - 2.0) + (y - 2.0) * (y - 2.0)


def nan_band(x, y):
    """``bowl`` with a NaN band at 0.55 < x < 0.65 (``np.where`` raises no RuntimeWarning)."""
    return np.where((x > 0.55) & (x < 0.65), np.nan, bowl(x, y))


def tied_ridge(x, y):
    """-(x - 0.5)^2, NaN above y = 0.55: from (0.5, 0.5) the probes +-x of each block tie."""
    return np.where(y > 0.55, np.nan, -(x - 0.5) * (x - 0.5))


UNIT_SQUARE = (np.zeros(2), np.ones(2), (None, None))
# starts at which ``descend`` must read a call by its filtered rule: (fn, x0, start value)
HAND_OVERS = {
    # the start value 3 is above fn(x0) = 2, so the probes that clip back onto x0 read as improving: the
    # first improving probe (+x in the 2x block) and the block's least value did not move
    "clipped onto the start": (corner_bowl, np.array([1.0, 1.0]), 3.0),
    # the 2x block's +x probe reads NaN, which argmin returns first, beside the improving -x probe
    "NaN in the winning block": (nan_band, np.array([0.5, 0.5]), value_at(nan_band, (0.5, 0.5))),
    # +x and -x tie beside NaN probes: the first, +x, must win, so the descent ends on the x = 1 face
    "equal values in one block": (tied_ridge, np.array([0.5, 0.5]), value_at(tied_ridge, (0.5, 0.5))),
}


def nan_off_diagonal(x, y):
    """``bowl`` on the diagonal x = y and NaN off it: coordinate probes read NaN, diagonal moves stay on it."""
    return np.where(x == y, bowl(x, y), np.nan)


def inf_off_diagonal(x, y):
    """``nan_off_diagonal`` with inf off the diagonal, as the K_h objective masks lambda2 > lambda1."""
    return np.where(x == y, bowl(x, y), np.inf)


# starts from which no call has a coordinate that the model row may use: (fn, x0, lows, highs, periods)
NO_MODEL_ROW = {
    # every probe past the (1, 1) corner clips back onto it
    "clipped probes": (corner_bowl, np.array([1.0, 1.0]), *UNIT_SQUARE),
    # the descent walks the diagonal to (0.47, 0.47)
    "NaN probes": (nan_off_diagonal, np.array([0.2, 0.2]), *UNIT_SQUARE),
    "inf probes": (inf_off_diagonal, np.array([0.2, 0.2]), *UNIT_SQUARE),
    # flat in y (zero curvature) and concave in x, so the descent walks to the x = 1 face
    "non-positive curvature": (tied_ridge, np.array([0.5, 0.5]), *UNIT_SQUARE),
}
# the model row of the second call lies at phi = -0.0204, past the seam, and is taken and wrapped
SEAM_MODEL_ROW = (seam_bowl, np.array([0.05, 0.5]), np.zeros(2), np.array([np.pi, 1.0]), (np.pi, None))


class TestDescend:
    @pytest.mark.parametrize("case", HAND_OVERS.values(), ids=HAND_OVERS.keys())
    def test_the_filtered_reading_follows_the_poll_per_call_descent(self, case):
        fn, x0, value = case
        with mock.patch.object(optimize, "_filtered_pick", wraps=optimize._filtered_pick) as filtered:
            x, _, outcomes, _ = follow_poll_per_call(fn, x0, value, *UNIT_SQUARE)
        assert filtered.called
        assert outcomes[0]
        if fn is tied_ridge:
            assert x.tolist() == [1.0, 0.5]

    @settings(max_examples=60, deadline=None)
    @given(box_problems(), st.sampled_from((1e-3, 1.0)))
    def test_a_start_value_above_fn_follows_the_poll_per_call_descent(self, problem, excess):
        # probes that clipping keeps on x0 read as improving, so calls from a box face hand over
        fn, x0, lows, highs, periods = problem
        with mock.patch.object(optimize, "RESOLUTION", 1e-7):
            follow_poll_per_call(fn, x0, value_at(fn, x0) + excess, lows, highs, periods)

    @settings(max_examples=80, deadline=None)
    @given(box_problems())
    @example(NEAR_HALFWAY_SQUARE)
    @example(SEAM_MODEL_ROW)
    def test_complete_polls_follow_the_probe_at_a_time_path(self, problem):
        # the start value comes in, so the batched descent calls fn once per objective call of the
        # reference: a poll, or a poll and the poll after its miss, and the model row rides in it
        fn, x0, lows, highs, periods = problem
        counted_fn, calls = counted(fn)
        start = value_at(fn, x0)
        with mock.patch.object(optimize, "RESOLUTION", 1e-7):
            x, val = descend_alone(split(counted_fn), x0, start, lows, highs, periods)
            x_ref, val_ref, _, _, ref_calls = probe_at_a_time_descend(fn, x0, lows, highs, periods)
        assert x.tolist() == x_ref.tolist()
        assert float(val) == float(val_ref)
        assert calls == [ROWS_PER_CALL[x0.size] + (model is not None) for _, _, model in ref_calls]
        assert val <= start
        for v, period in zip(x, periods):
            assert period is None or 0.0 <= v < period

    @settings(max_examples=80, deadline=None)
    @given(box_problems(), st.integers(1, 12))
    @example(CAP_BETWEEN_LEVELS, 6)
    @example(RESOLUTION_BETWEEN_LEVELS, 12)
    def test_the_poll_cap_stops_both_searches_at_the_same_point(self, problem, max_polls):
        # a cap of 1-12 polls cuts most descents short
        fn, x0, lows, highs, periods = problem
        with mock.patch.object(optimize, "MAX_POLLS", max_polls), mock.patch.object(optimize, "RESOLUTION", 1e-7):
            x, val = descend_alone(split(fn), x0, value_at(fn, x0), lows, highs, periods)
            x_ref, val_ref, _, _, _ = probe_at_a_time_descend(fn, x0, lows, highs, periods)
        assert x.tolist() == x_ref.tolist()
        assert float(val) == float(val_ref)

    @settings(max_examples=60, deadline=None)
    @given(box_problems(), st.data())
    def test_the_first_call_carries_the_rows_unclipped_and_never_reads_them(self, problem, data):
        fn, x0, lows, highs, periods = problem
        count = data.draw(st.integers(1, 3))
        coordinate = st.floats(-8.0, 8.0)  # in the box or out of it
        rows = np.array(data.draw(st.lists(st.lists(coordinate, min_size=x0.size, max_size=x0.size),
                                           min_size=count, max_size=count))).T
        with_rows, alone, start = [], [], value_at(fn, x0)
        with mock.patch.object(optimize, "RESOLUTION", 1e-7):
            x, val, row_values = descend(split(recording(fn, with_rows)), x0, start, lows, highs, periods, rows)
            x_alone, val_alone = descend_alone(split(recording(fn, alone)), x0, start, lows, highs, periods)
        assert (x.tolist(), float(val)) == (x_alone.tolist(), float(val_alone))
        # the first call is the one without rows, then the rows as they stand; the later calls are equal
        assert np.array_equal(with_rows[0], np.hstack([alone[0], rows]))
        assert len(with_rows) == len(alone)
        assert all(np.array_equal(a, b) for a, b in zip(with_rows[1:], alone[1:]))
        assert row_values.tobytes() == fn(*rows).tobytes()

    def test_rows_below_every_probe_do_not_move_the_descent(self):
        rows = np.array([[5.0, 5.0], [-100.0, -50.0]])  # x >= 5: the values -100 and -50, outside the box
        x0, objective = np.array([0.9, 0.1]), split(with_rows_beyond_5)
        start = value_at(with_rows_beyond_5, x0)
        x, val, row_values = descend(objective, x0, start, *UNIT_SQUARE, rows)
        x_alone, val_alone = descend_alone(objective, x0, start, *UNIT_SQUARE)
        assert (x.tolist(), val) == (x_alone.tolist(), val_alone)
        assert abs(x[0] - 0.33) < 1e-6 and abs(x[1] - 0.61) < 1e-6  # the bowl's minimum, in the box
        assert row_values.tolist() == [-100.0, -50.0]

    def test_a_descent_without_a_call_evaluates_its_rows_in_one_call(self):
        fn, calls = counted(with_rows_beyond_5)
        rows = np.array([[5.0, 0.5], [2.0, 0.5]])
        with mock.patch.object(optimize, "MAX_POLLS", 0):
            x, val, row_values = descend(split(fn), np.array([0.9, 0.1]), 7.0, *UNIT_SQUARE, rows)
        assert (x.tolist(), val) == ([0.9, 0.1], 7.0)
        assert calls == [2]
        assert row_values.tolist() == [2.0, float(bowl(0.5, 0.5))]

    @pytest.mark.parametrize("case", NO_MODEL_ROW.values(), ids=NO_MODEL_ROW.keys())
    def test_without_a_qualifying_coordinate_the_descent_is_the_plain_compass_search(self, case):
        fn, x0, lows, highs, periods = case
        with mock.patch.object(optimize, "RESOLUTION", 1e-7):
            x, val, _, _ = follow_poll_per_call(fn, x0, value_at(fn, x0), lows, highs, periods)
            ref_calls = probe_at_a_time_descend(fn, x0, lows, highs, periods)[4]
            x_ref, val_ref, _, _, _ = probe_at_a_time_descend(fn, x0, lows, highs, periods, model_rows=False)
        assert len(ref_calls) > 1 and all(model is None for _, _, model in ref_calls)
        assert (x.tolist(), float(val)) == (x_ref.tolist(), float(val_ref))
        if fn is not corner_bowl:
            assert not np.array_equal(x, x0)  # the path moves
