"""Searches used by the shaping optimizers and the deep probe.

``bfgs`` is the quasi-Newton method of Broyden, Fletcher, Goldfarb and
Shanno (Nocedal & Wright, Numerical Optimization, 2nd ed., 2006,
Algorithm 6.1) on an objective that returns its value and gradient.
It steps with Armijo backtracking and scales its first inverse-Hessian
estimate as Shanno & Phua (Math. Program. 14(1) 1978) do. It returns
``(x, fun, nfev, status)``: the best point, its value, the number of
objective calls, and 0 on convergence, 1 at the evaluation cap or 2
when the objective returned NaN; then whatever else the objective
returned at that point.

``bisect`` finds a root of a scalar function inside a bracket that
holds a sign change.

Keeping the searches here lets the package run on numpy alone;
importing ``scipy.optimize`` costs about 0.6 s per process.
"""

from __future__ import annotations

import numpy as np

# Sufficient-decrease constant of the Armijo condition.
_ARMIJO = 1e-4


def bfgs(func, x0, gtol: float, maxfev: int):
    """Minimize ``func`` from ``x0`` by BFGS; ``func(x)`` returns the value
    and the gradient at a copy of ``x``, and may return more after them.

    Stops with status 0 when the gradient's largest entry is at most
    ``gtol``, or when the step along a descent direction must shrink
    until the decrease the gradient predicts is below the rounding of
    the value, so no lower value can be resolved. Status 1 when
    ``maxfev`` calls are spent first (the cap is checked before each
    call), status 2 when the objective is not finite at ``x0``, or
    when the search stops at that floor after a non-finite trial. The
    point returned is the last one accepted, with its value as
    returned; the rest of its objective call's return follows the
    status, and only its and the current trial's are kept.
    """
    x = np.array(x0, dtype=np.float64).ravel()
    nfev = 1
    fun, grad, *more = func(x.copy())
    fun, grad = float(fun), np.asarray(grad, dtype=np.float64)
    if not (np.isfinite(fun) and np.isfinite(grad).all()):
        return x, fun, nfev, 2, *more
    inv_hess = np.eye(x.size)
    scaled = False
    while np.abs(grad).max() > gtol:
        direction = -inv_hess @ grad
        slope = float(grad @ direction)
        if not slope < 0.0:  # lost to rounding: restart from steepest descent
            inv_hess, scaled = np.eye(x.size), False
            direction, slope = -grad, -float(grad @ grad)
        step = 1.0
        while True:
            if nfev >= maxfev:
                return x, fun, nfev, 1, *more
            trial = x + step * direction
            nfev += 1
            trial_fun, trial_grad, *trial_more = func(trial.copy())
            trial_fun = float(trial_fun)
            finite = np.isfinite(trial_fun) and np.isfinite(trial_grad).all()
            if finite and trial_fun <= fun + _ARMIJO * step * slope:
                break
            if finite:
                # Minimum of the quadratic through fun, slope and trial_fun,
                # kept within [0.1, 0.5] of the step.
                shrink = -0.5 * step * slope / (trial_fun - fun - step * slope)
                step *= min(max(shrink, 0.1), 0.5)
            else:
                step *= 0.5
            if -step * slope <= 4.0 * np.finfo(np.float64).eps * max(abs(fun), 1e-300):
                return x, fun, nfev, 0 if finite else 2, *more
        trial_grad = np.asarray(trial_grad, dtype=np.float64)
        s, y = trial - x, trial_grad - grad
        sy = float(s @ y)
        if sy > 0.0:
            if not scaled:
                inv_hess *= sy / float(y @ y)
                scaled = True
            rho_s = s / sy
            hy = inv_hess @ y
            inv_hess += (sy + y @ hy) * np.outer(rho_s, rho_s) - (
                np.outer(hy, rho_s) + np.outer(rho_s, hy))
        x, fun, grad, more = trial, trial_fun, trial_grad, trial_more
    return x, fun, nfev, 0, *more


def bisect(func, lo: float, hi: float, xtol: float) -> float:
    """A root of the scalar ``func`` in [``lo``, ``hi``], to within ``xtol``.

    Halves the bracket until it is at most ``xtol`` wide (or no float
    lies between its ends) and returns its midpoint. Raises ValueError
    unless ``func`` is zero at an end or has opposite signs at the two.
    """
    f_lo, f_hi = func(lo), func(hi)
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise ValueError(f"f({lo!r}) = {f_lo!r} and f({hi!r}) = {f_hi!r} must have opposite signs")
    mid = 0.5 * (lo + hi)
    while abs(hi - lo) > xtol and lo != mid != hi:
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
