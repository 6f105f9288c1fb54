"""The in-house searches against scipy.optimize, their oracle.

``nelder_mead`` and ``bounded_brent`` are ports of scipy's Nelder-Mead
and bounded Brent, so each must give scipy's point, value, evaluation
count and status exactly, and ask for the same points in the same order.
scipy is imported here only; the package itself never loads
``scipy.optimize`` for a design.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from nlshaping import NlChannelModel, square_qam
from nlshaping.nl_model import _grid_power, evaluate_family
from nlshaping.search import bounded_brent, nelder_mead
from nlshaping.shaping import Family, ShapingParams

QAM16 = square_qam(16)
PU16 = _grid_power(QAM16)


def neg_mi_16qam(v) -> float:
    """The tailored search's objective at 16QAM and 14 dB, in its scaled units."""
    nu1, nu2 = v[0] / PU16, v[1] / (PU16 * PU16)
    params = ShapingParams(Family.KURTOSIS_TAILORED, nu1=nu1, nu2=nu2)
    point = evaluate_family(QAM16, params, NlChannelModel(c=0.69, snr_gauss_db=14.0))
    return -point.mi_4d


def objective(kind: str, dim: int, seed: int):
    """(objective, start) of one test problem; the objective returns a float."""
    rng = np.random.default_rng(seed)
    shift = rng.normal(0.0, 2.0, dim)
    start = rng.normal(0.0, 2.0, dim)
    start[rng.random(dim) < 0.25] = 0.0  # zero coordinates take the 0.00025 step
    if kind == "quadratic":
        curvature = np.exp(rng.normal(0.0, 2.0, dim))
        return (lambda x: float(np.sum(curvature * (x - shift) ** 2))), start
    if kind == "rosenbrock":
        def rosenbrock(x):
            if x.size == 1:
                return float((1.0 - x[0]) ** 2)
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
        return rosenbrock, start
    if kind == "plateaus":
        # Piecewise constant: every simplex move meets ties.
        return (lambda x: float(np.sum(np.floor(2.0 * np.abs(x - shift))))), start
    assert kind == "neg_mi_16qam"
    return neg_mi_16qam, np.array([rng.uniform(0.0, 2.0), rng.uniform(-0.5, 0.5)])


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


def check_nelder_mead(func, start, xatol, fatol, maxfev, adaptive):
    ours, our_calls = logged(func)
    x, fun, nfev, status = nelder_mead(ours, start, xatol=xatol, fatol=fatol,
                                       maxfev=maxfev, adaptive=adaptive)
    theirs, their_calls = logged(func)
    res = optimize.minimize(theirs, start, method="Nelder-Mead",
                            options={"xatol": xatol, "fatol": fatol,
                                     "maxfev": maxfev, "adaptive": adaptive})
    assert np.array_equal(x, res.x)
    assert fun == res.fun
    assert nfev == res.nfev
    assert status == res.status
    assert_same_calls(our_calls, their_calls)
    return nfev, status


class TestNelderMead:
    @given(
        kind=st.sampled_from(["quadratic", "rosenbrock", "plateaus", "neg_mi_16qam"]),
        dim=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        adaptive=st.booleans(),
        xatol=st.sampled_from([1e-1, 1e-4, 2e-4, 1e-5, 1e-8]),
        fatol=st.sampled_from([1e-2, 1e-6, 1e-10, 1e-11]),
        maxfev=st.one_of(st.integers(1, 40), st.sampled_from([200, 600, 2000])),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scipy(self, kind, dim, seed, adaptive, xatol, fatol, maxfev):
        func, start = objective(kind, dim, seed)
        check_nelder_mead(func, start, xatol, fatol, maxfev, adaptive)

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("dim", [3, 6])
    def test_cap_inside_a_shrink(self, dim, adaptive):
        # On a constant objective every iteration is a reflection, an
        # inside contraction and a shrink of all ``dim`` vertices, so these
        # caps fall after 1..dim-1 of a shrink's evaluations.
        start = np.arange(1.0, dim + 1.0)
        per_iteration = dim + 2
        for iteration in range(3):
            shrink_start = dim + 1 + iteration * per_iteration + 2
            for done in range(1, dim):
                nfev, status = check_nelder_mead(lambda x: 0.0, start, 1e-12, 1.0,
                                                 shrink_start + done, adaptive)
                assert (nfev, status) == (shrink_start + done, 1)

    def test_cap_before_the_first_simplex_is_scored(self):
        nfev, status = check_nelder_mead(lambda x: float(np.sum(x * x)), np.ones(5),
                                         1e-8, 1e-8, 3, False)
        assert (nfev, status) == (3, 1)

    def test_converged_search_reports_status_0(self):
        func, start = objective("quadratic", 4, 7)
        nfev, status = check_nelder_mead(func, start, 1e-6, 1e-10, 4000, False)
        assert status == 0 and nfev < 4000

    def test_objective_gets_a_copy(self):
        def clobbering(x):
            value = float(np.sum((x - 1.5) ** 2))
            x[:] = np.nan  # must not reach the simplex
            return value

        _, status = check_nelder_mead(clobbering, np.array([0.3, -0.2, 2.0]),
                                      1e-8, 1e-12, 400, False)
        assert status == 0

    def test_integer_start_is_promoted(self):
        x, _, _, _ = nelder_mead(lambda x: float(np.sum((x - 0.5) ** 2)), [1, 2],
                                 xatol=1e-6, fatol=1e-12, maxfev=500)
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
