"""The in-house searches against scipy.optimize, their oracle.

``bfgs`` is the package's own quasi-Newton search: it must reach the
minimizer that scipy's BFGS, given the same gradient, reaches.
``bisect`` must find the root that ``brentq`` finds, to within the two
searches' tolerances. scipy is imported here only; the package itself
never loads it.
"""

import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from nlshaping import Family, NlChannelModel, square_qam
from nlshaping.nl_model import _exp_gradient, _exp_params, _scaled_stats
from nlshaping.search import bfgs, bisect

QAM16 = square_qam(16)


def problem(kind: str, dim: int, seed: int):
    """(objective returning value and gradient, start, minimizer) of one
    test problem."""
    rng = np.random.default_rng(seed)
    start = rng.normal(0.0, 2.0, dim)
    if kind == "quadratic":
        shift = rng.normal(0.0, 2.0, dim)
        curvature = np.exp(rng.normal(0.0, 2.0, dim))
        # A random rotation makes the Hessian non-diagonal.
        rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        hessian = rotation @ np.diag(curvature) @ rotation.T

        def quadratic(x):
            return 0.5 * float((x - shift) @ hessian @ (x - shift)), hessian @ (x - shift)
        return quadratic, start, shift
    assert kind == "rosenbrock"

    def rosenbrock(x):
        head, tail = x[:-1], x[1:]
        value = float(np.sum(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2))
        grad = np.zeros_like(x)
        grad[:-1] = -400.0 * head * (tail - head**2) - 2.0 * (1.0 - head)
        grad[1:] += 200.0 * (tail - head**2)
        return value, grad
    return rosenbrock, start, np.ones(dim)


def logged(func):
    calls = []

    def wrapped(x):
        calls.append(np.copy(x))
        return func(x)

    return wrapped, calls


def assert_same_calls(mine, theirs):
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert np.array_equal(a, b, equal_nan=True)


class TestBfgs:
    # Rosenbrock from dimension 4 on has a second local minimum, which
    # either search may reach from a far start.
    @given(
        kind_dim=st.one_of(st.tuples(st.just("quadratic"), st.integers(1, 9)),
                           st.tuples(st.just("rosenbrock"), st.integers(2, 3))),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, kind_dim, seed):
        func, start, minimizer = problem(*kind_dim, seed)
        x, fun, nfev, status = bfgs(func, start, gtol=1e-9, maxfev=5000)
        res = optimize.minimize(func, start, jac=True, method="BFGS",
                                options={"gtol": 1e-9, "maxiter": 5000})
        assert status == 0
        np.testing.assert_allclose(x, res.x, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(x, minimizer, rtol=0.0, atol=1e-6)
        assert abs(fun - res.fun) < 1e-10
        assert nfev < 5000

    def test_tailored_objective_matches_scipy(self):
        # The tailored search's objective at 16QAM and 14 dB with its exact
        # gradient, from the coarse cell the search would start from.
        model = NlChannelModel(c=0.69, snr_gauss_db=14.0)
        pu, stats = _scaled_stats(QAM16)

        def neg_mi(v):
            params = _exp_params(Family.KURTOSIS_TAILORED, v, pu)
            point, grad = _exp_gradient(QAM16, model, params, stats)
            return -point.mi_4d, -grad

        x, fun, _, status = bfgs(neg_mi, [1.0, 0.2], gtol=1e-9, maxfev=600)
        res = optimize.minimize(neg_mi, [1.0, 0.2], jac=True, method="BFGS",
                                options={"gtol": 1e-9})
        assert status == 0
        np.testing.assert_allclose(x, res.x, rtol=0.0, atol=1e-5)
        assert abs(fun - res.fun) < 1e-12

    @pytest.mark.parametrize("maxfev", [1, 2, 5, 17])
    def test_cap_status(self, maxfev):
        func, start, _ = problem("rosenbrock", 3, 5)
        counted, calls = logged(func)
        x, fun, nfev, status = bfgs(counted, start, gtol=1e-12, maxfev=maxfev)
        assert (nfev, status) == (maxfev, 1)
        assert len(calls) == maxfev
        # The point returned is the best accepted one, with its value.
        assert fun == func(x)[0]
        assert fun <= func(start)[0]

    def test_converged_search_reports_status_0(self):
        func, start, _ = problem("quadratic", 4, 7)
        x, _, nfev, status = bfgs(func, start, gtol=1e-10, maxfev=4000)
        assert status == 0 and nfev < 100
        assert np.abs(func(x)[1]).max() <= 1e-10

    @pytest.mark.parametrize("where", ["start", "everywhere"])
    def test_nan_objective(self, where):
        def func(x):
            if where == "everywhere" or float(x[0]) == 0.5:
                return np.nan, np.full_like(x, np.nan)
            return float((x[0] - 2.0) ** 2), 2.0 * (x - 2.0)

        x, fun, nfev, status = bfgs(func, [0.5], gtol=1e-9, maxfev=100)
        assert (nfev, status) == (1, 2)
        assert np.isnan(fun) and x.tolist() == [0.5]

    def test_steps_around_a_nan_region(self):
        # NaN beyond x = 3: the first three trials land there, and the
        # search backtracks, then goes on to the minimum at 2.5.
        def func(x):
            if x[0] > 3.0:
                return np.nan, np.full_like(x, np.nan)
            return float(3.0 * (x[0] - 2.5) ** 2), 6.0 * (x - 2.5)

        counted, calls = logged(func)
        x, _, _, status = bfgs(counted, [-10.0], gtol=1e-9, maxfev=200)
        assert status == 0
        assert x[0] == pytest.approx(2.5, abs=1e-9)
        assert sum(float(c[0]) > 3.0 for c in calls) == 3

    def test_deterministic(self):
        func, start, _ = problem("rosenbrock", 2, 11)
        first, first_calls = logged(func)
        second, second_calls = logged(func)
        a = bfgs(first, start, gtol=1e-9, maxfev=2000)
        b = bfgs(second, start, gtol=1e-9, maxfev=2000)
        assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]
        assert_same_calls(first_calls, second_calls)

    def test_objective_gets_a_copy(self):
        func, start, minimizer = problem("quadratic", 3, 2)

        def clobbering(x):
            result = func(x)
            x[:] = np.nan  # must not reach the search
            return result

        x, _, _, status = bfgs(clobbering, start, gtol=1e-9, maxfev=400)
        assert status == 0
        np.testing.assert_allclose(x, minimizer, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("maxfev, want_status", [(7, 1), (2000, 0)])
    def test_further_outputs_of_the_returned_point(self, maxfev, want_status):
        # An objective's outputs after the value and gradient come back with
        # the returned point, and the search keeps those of two calls at
        # most: the accepted point's and the last trial's.
        func, start, _ = problem("rosenbrock", 3, 5)
        live = weakref.WeakSet()

        class Token:
            def __init__(self, x):
                self.x = x

        def tagged(x):
            value, grad = func(x)
            token = Token(x.copy())
            live.add(token)
            assert len(live) <= 3  # this call's, the accepted point's, the last trial's
            return value, grad, token

        x, fun, _, status, token = bfgs(tagged, start, gtol=1e-9, maxfev=maxfev)
        assert status == want_status
        assert np.array_equal(token.x, x) and fun == func(x)[0]

    def test_nan_start_returns_its_further_outputs(self):
        x, _, _, status, extra = bfgs(lambda x: (np.nan, np.full_like(x, np.nan), "start"),
                                      [0.5], gtol=1e-9, maxfev=100)
        assert (status, extra) == (2, "start")

    def test_integer_start_is_promoted(self):
        x, _, _, _ = bfgs(lambda x: (float(np.sum((x - 0.5) ** 2)), 2.0 * (x - 0.5)), [1, 2],
                          gtol=1e-9, maxfev=500)
        assert x.dtype == np.float64


# brentq's default tolerances: it stops within xtol + rtol * |root|.
BRENTQ_XTOL, BRENTQ_RTOL = 2e-12, 4 * np.finfo(np.float64).eps


class TestBisect:
    # A monotone function of each shape: linear, cubic (flat at the
    # root), saturating, and exponential (steep on one side).
    SHAPES = {
        "linear": lambda z: z,
        "cubic": lambda z: z**3 + 1e-3 * z,
        "tanh": np.tanh,
        "exp": lambda z: np.expm1(np.minimum(z, 50.0)),
    }

    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        root=st.floats(-50.0, 50.0),
        scale=st.floats(1e-2, 1e2),
        sign=st.sampled_from([-1.0, 1.0]),
        below=st.floats(1e-6, 100.0),
        above=st.floats(1e-6, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brentq(self, shape, root, scale, sign, below, above):
        # The bisection returns the midpoint of a bracket at most 2e-12
        # wide around the sign change, so it lies within 1e-12 of it;
        # brentq lies within its xtol + rtol * |root|.
        def func(x):
            return sign * float(self.SHAPES[shape](scale * (x - root)))

        lo, hi = root - below, root + above
        assume(func(lo) * func(hi) < 0.0)  # rounding can close a tiny bracket
        theirs = optimize.brentq(func, lo, hi)
        ours = bisect(func, lo, hi, xtol=BRENTQ_XTOL)
        assert lo <= ours <= hi
        assert abs(ours - theirs) <= 1.5 * BRENTQ_XTOL + BRENTQ_RTOL * abs(theirs)

    def test_stops_at_xtol(self):
        calls = []
        root = bisect(lambda x: calls.append(x) or x - 1.0 / 3.0, 0.0, 60.0, xtol=2e-12)
        # ceil(log2(60 / 2e-12)) = 45 halvings, after the two ends.
        assert len(calls) == 2 + 45
        assert abs(root - 1.0 / 3.0) <= 1e-12

    def test_either_order_of_ends(self):
        func = lambda x: x**3 - 2.0  # noqa: E731
        assert bisect(func, 60.0, 0.0, xtol=2e-12) == bisect(func, 0.0, 60.0, xtol=2e-12)

    def test_root_at_an_end(self):
        assert bisect(lambda x: x - 2.0, 2.0, 5.0, xtol=1e-12) == 2.0
        assert bisect(lambda x: x - 5.0, 2.0, 5.0, xtol=1e-12) == 5.0

    def test_floor_of_the_float_grid(self):
        # A tolerance below the floats' spacing stops when no float lies
        # between the ends.
        root = bisect(lambda x: x - 1e8 / 3.0, 0.0, 1e8, xtol=0.0)
        assert abs(root - 1e8 / 3.0) <= np.spacing(1e8 / 3.0)

    @pytest.mark.parametrize("lo, hi", [(2.0, 3.0), (-3.0, -2.0)])
    def test_rejects_a_bracket_without_a_sign_change(self, lo, hi):
        with pytest.raises(ValueError, match="opposite signs"):
            bisect(lambda x: x * x - 1.0, lo, hi, xtol=1e-12)
        with pytest.raises(ValueError):
            optimize.brentq(lambda x: x * x - 1.0, lo, hi)

    def test_rejects_a_nan_end(self):
        with pytest.raises(ValueError, match="opposite signs"):
            bisect(lambda x: np.nan if x > 1.0 else x, -1.0, 2.0, xtol=1e-12)
