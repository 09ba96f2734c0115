import numpy as np

from gielab import config
from gielab.optimize import descend, grid_argmin, search

AXES = (np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
LOWS, HIGHS = np.zeros(2), np.ones(2)
RESOLUTION = 1e-8


def bowl(x, y):
    """Off-grid minimum 0 at (0.33, 0.61); broadcasts over meshes."""
    return (x - 0.33) ** 2 + (y - 0.61) ** 2


def to_params(x):
    return (float(x[0]), float(x[1]))


def run(candidates, grid_fn=bowl, fn=bowl):
    return search(grid_fn, fn, AXES, LOWS, HIGHS, RESOLUTION, to_params, candidates)


def descent_end():
    value, label, params, _ = run([])
    assert label is None
    return value, params


TIE = config.tolerances().tie_atol


class TestSearch:
    def test_candidate_within_tie_above_the_descent_is_named(self):
        low, _ = descent_end()
        value, label, params, _ = run([("exact", (0.33, 0.61), low + 0.5 * TIE)])
        assert label == "exact"
        assert params == (0.33, 0.61)
        assert value == low  # the value is the minimum, not the named candidate's

    def test_earlier_candidate_wins_a_tie(self):
        first, second = ("first", (0.1, 0.1), -1.0), ("second", (0.2, 0.2), -1.0)
        assert run([first, second])[1:3] == ("first", (0.1, 0.1))
        assert run([second, first])[1:3] == ("second", (0.2, 0.2))
        # a later candidate lower by less than tie_atol does not displace it
        value, label, _, _ = run([("first", (0.1, 0.1), -1.0 + 0.5 * TIE), second])
        assert (value, label) == (-1.0, "first")

    def test_no_candidate_within_tie_names_the_descent_end(self):
        low, end = descent_end()
        value, label, params, trace = run([("far", (0.9, 0.9), low + 1e3 * TIE)])
        assert label is None
        assert params == end == trace[1][0]
        assert value == low

    def test_trace_is_grid_best_then_descent_end_then_candidates(self):
        def shifted(x, y):  # scalar descent objective, distinct from the grid's
            return bowl(x, y) + 1.0

        candidates = [("a", (0.5, 0.5), 2.0), ("b", (0.7, 0.1), 3.0)]
        _, _, _, trace = run(candidates, fn=shifted)
        grid_best, grid_val = grid_argmin(bowl, AXES)
        end, end_val = descend(shifted, grid_best, LOWS, HIGHS, RESOLUTION)
        assert trace == [
            (to_params(grid_best), grid_val),
            (to_params(end), float(end_val)),
            ((0.5, 0.5), 2.0),
            ((0.7, 0.1), 3.0),
        ]
