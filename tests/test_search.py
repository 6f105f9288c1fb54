"""The in-house searches against scipy.optimize, their oracle.

``bounded_brent`` is a port of scipy's bounded Brent, so it must give
scipy's point, value, evaluation count and status exactly, and ask for
the same points in the same order. ``bfgs`` is the package's own
quasi-Newton search: it must reach the minimizer that scipy's BFGS,
given the same gradient, reaches. scipy is imported here only; the
package itself never loads ``scipy.optimize`` for a design.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from nlshaping import NlChannelModel, square_qam
from nlshaping.nl_model import _grid_power, _tailored_gradient, evaluate_family
from nlshaping.search import bfgs, bounded_brent
from nlshaping.shaping import Family, ShapingParams

QAM16 = square_qam(16)
PU16 = _grid_power(QAM16)


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

        def neg_mi(v):
            point, grad = _tailored_gradient(QAM16, model, v)
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

    def test_integer_start_is_promoted(self):
        x, _, _, _ = bfgs(lambda x: (float(np.sum((x - 0.5) ** 2)), 2.0 * (x - 0.5)), [1, 2],
                          gtol=1e-9, maxfev=500)
        assert x.dtype == np.float64


def check_brent(func, lo, hi, xatol, maxiter):
    ours, our_calls = logged(func)
    x, fun, nfev, status = bounded_brent(ours, lo, hi, xatol=xatol, maxiter=maxiter)
    theirs, their_calls = logged(func)
    res = optimize.minimize_scalar(theirs, bounds=(lo, hi), method="bounded",
                                   options={"xatol": xatol, "maxiter": maxiter})
    assert np.array_equal(x, res.x, equal_nan=True)
    assert np.array_equal(fun, res.fun, equal_nan=True)
    assert nfev == res.nfev
    assert status == res.status
    assert_same_calls(our_calls, their_calls)
    return x, nfev, status


class TestBoundedBrent:
    @given(
        center=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 20.0),
        lo=st.floats(-5.0, 5.0),
        wiggle=st.floats(0.0, 3.0),
        xatol=st.sampled_from([1e-2, 1e-6, 1e-9]),
        maxiter=st.one_of(st.integers(1, 12), st.sampled_from([200, 500])),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy(self, center, width, lo, wiggle, xatol, maxiter):
        # A quadratic bowl, possibly with its minimum outside the bracket,
        # plus a ripple that makes the objective multimodal.
        def func(x):
            return float((x - center) ** 2 + wiggle * np.sin(5.0 * x))

        check_brent(func, lo, lo + width, xatol, maxiter)

    @pytest.mark.parametrize("edge", ["lo", "hi"])
    def test_minimum_at_a_bracket_edge(self, edge):
        lo, hi = 1.0, 3.0
        target = lo - 5.0 if edge == "lo" else hi + 5.0
        x, _, status = check_brent(lambda u: float((u - target) ** 2), lo, hi, 1e-6, 200)
        assert status == 0
        assert abs(x - (lo if edge == "lo" else hi)) < 1e-5

    def test_maxiter_cap(self):
        x, nfev, status = check_brent(lambda u: float(np.cos(u)), 0.0, 6.0, 1e-12, 4)
        assert (nfev, status) == (4, 1)

    # NaN everywhere; NaN above the minimum; and NaN only at the last of
    # two evaluations (0.382, then 0.618), while the best point is finite.
    @pytest.mark.parametrize("nan_from, maxiter", [(-np.inf, 50), (0.3, 50), (0.5, 2)])
    def test_nan_objective(self, nan_from, maxiter):
        def func(u):
            return np.nan if u > nan_from else float((u - 0.2) ** 2)

        _, _, status = check_brent(func, 0.0, 1.0, 1e-6, maxiter)
        assert status == 2

    def test_mb_rate_search_matches(self):
        # The bracket and options optimize_mb uses, on a 16QAM MB objective.
        from nlshaping.nl_model import _COARSE_U

        model = NlChannelModel(c=0.69, snr_gauss_db=12.0)

        def neg_mi(u):
            params = ShapingParams(Family.MAXWELL_BOLTZMANN, lam=u / PU16)
            return -evaluate_family(QAM16, params, model).mi_4d

        _, _, status = check_brent(neg_mi, _COARSE_U[3], _COARSE_U[5], 1e-6, 200)
        assert status == 0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="finite"):
            bounded_brent(lambda u: u, 0.0, np.inf, xatol=1e-6, maxiter=10)
        with pytest.raises(ValueError, match="exceeds"):
            bounded_brent(lambda u: u, 2.0, 1.0, xatol=1e-6, maxiter=10)
