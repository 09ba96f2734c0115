import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gielab import config
from gielab.optimize import MAX_SWEEPS, MIN_IMPROVEMENT, descend, grid_argmin, search

AXES = (np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
LOWS, HIGHS = np.zeros(2), np.ones(2)
RESOLUTION = 1e-8


def bowl(x, y):
    """Off-grid minimum 0 at (0.33, 0.61); broadcasts over meshes."""
    return (x - 0.33) ** 2 + (y - 0.61) ** 2


def to_params(x):
    return (float(x[0]), float(x[1]))


def with_rows_beyond_5(x, y):
    """``bowl`` in the box; a row at x >= 5, outside it, evaluates to y, so a
    candidate row ``(5, y)`` has the value y."""
    return np.where(x >= 5.0, y, bowl(x, y))


def run(candidates, fn=with_rows_beyond_5):
    return search(fn, AXES, LOWS, HIGHS, RESOLUTION, to_params, candidates)


def descent_end():
    value, label, params, _ = run([])
    assert label is None
    return value, params


TIE = config.tolerances().tie_atol


class TestSearch:
    def test_candidate_within_tie_above_the_descent_is_named(self):
        low, _ = descent_end()
        value, label, params, _ = run([("exact", (5.0, low + 0.5 * TIE))])
        assert label == "exact"
        assert params == (5.0, low + 0.5 * TIE)
        assert value == low  # the value is the minimum, not the named candidate's

    def test_earlier_candidate_wins_a_tie(self):
        first, second = ("first", (5.0, -1.0)), ("second", (6.0, -1.0))
        assert run([first, second])[1:3] == ("first", (5.0, -1.0))
        assert run([second, first])[1:3] == ("second", (6.0, -1.0))
        # a later candidate lower by less than tie_atol does not displace it
        value, label, _, _ = run([("first", (5.0, -1.0 + 0.5 * TIE)), second])
        assert (value, label) == (-1.0, "first")

    def test_no_candidate_within_tie_names_the_descent_end(self):
        low, end = descent_end()
        value, label, params, trace = run([("far", (5.0, low + 1e3 * TIE))])
        assert label is None
        assert params == end == trace[1][0]
        assert value == low

    def test_trace_is_grid_best_then_descent_end_then_candidates(self):
        candidates = [("a", (5.0, 2.0)), ("b", (0.7, 0.1))]
        _, _, _, trace = run(candidates)
        grid_best, grid_val = grid_argmin(bowl, AXES)
        end, end_val = descend(bowl, grid_best, LOWS, HIGHS, RESOLUTION)
        assert not np.array_equal(grid_best, end)  # the off-grid minimum moves the descent
        assert trace == [
            (to_params(grid_best), grid_val),
            (to_params(end), float(end_val)),
            ((5.0, 2.0), 2.0),
            ((0.7, 0.1), float(bowl(0.7, 0.1))),  # rows inside the box evaluate the objective
        ]


def probe_at_a_time_descend(fn, x0, lows, highs, resolution, max_sweeps=MAX_SWEEPS):
    """Oracle: the Hooke-Jeeves descent that evaluates one probe per call."""
    x = np.array(x0, dtype=float)
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


def box_objective(center, weights, coupling, well, cut):
    """A polynomial in one argument per coordinate, masked to inf where ``x0 + x1 > cut``.

    Squares are written as products: ``x * x`` is correctly rounded for a
    Python float and an array element alike, while ``x ** 2`` on a scalar
    goes through the C library's ``pow``, which can round a near-halfway
    square the other way.  So scalar and array evaluations agree bit for bit.
    """

    def fn(*xs):
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
    """A polynomial objective on a 2-D or 3-D box, its start and an optional inf region.

    The minimum may lie outside the box (probes get clipped), the start may
    sit on a box face, and ``x0 + x1 > cut`` may be masked to inf as the
    K_h objective masks lambda2 > lambda1.
    """
    dim = draw(st.sampled_from((2, 3)))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    lows = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
    highs = lows + np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=dim, max_size=dim)))
    center = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim)))
    weights = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim)))
    coupling = draw(st.floats(-0.9, 0.9))
    well = draw(st.sampled_from((0.0, 0.3)))  # a double well in x0 gives a rugged path
    cut = draw(st.one_of(st.none(), st.floats(-2.0, 3.0)))
    where = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=dim, max_size=dim))
    x0 = np.array([lo + f * (hi - lo) for lo, hi, f in zip(lows, highs, where)])
    return box_objective(center, weights, coupling, well, cut), x0, lows, highs


# (x0 - c)**2 at the start x0 = -0.41528..., c = -3.59835... is a near-halfway
# square that libm's pow rounds up and x * x rounds down
NEAR_HALFWAY_SQUARE = (
    box_objective(np.array([-3.5983500045072674, 0.0]), np.ones(2), 0.0, 0.0, None),
    np.array([-0.4152858782814799, 0.0]),
    np.array([-0.4152858782814799, 0.0]),
    np.array([0.5847141217185201, 1.0]),
)


class TestDescend:
    @settings(max_examples=80, deadline=None)
    @given(box_problems())
    @example(NEAR_HALFWAY_SQUARE)
    def test_batched_polls_follow_the_probe_at_a_time_path(self, problem):
        fn, x0, lows, highs = problem
        x, val = descend(fn, x0, lows, highs, 1e-7)
        x_ref, val_ref = probe_at_a_time_descend(fn, x0, lows, highs, 1e-7)
        assert x.tolist() == x_ref.tolist()
        assert float(val) == float(val_ref)

    @settings(max_examples=80, deadline=None)
    @given(box_problems(), st.integers(1, 60))
    def test_the_sweep_cap_stops_both_searches_at_the_same_probe(self, problem, max_sweeps):
        # a cap of 1-60 sweeps cuts most descents short, in every block of a poll
        fn, x0, lows, highs = problem
        x, val = descend(fn, x0, lows, highs, 1e-7, max_sweeps)
        x_ref, val_ref = probe_at_a_time_descend(fn, x0, lows, highs, 1e-7, max_sweeps)
        assert x.tolist() == x_ref.tolist()
        assert float(val) == float(val_ref)
