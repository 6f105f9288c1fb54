"""Searches used by the shaping optimizers.

``bfgs`` is the quasi-Newton method of Broyden, Fletcher, Goldfarb and
Shanno (Nocedal & Wright, Numerical Optimization, 2nd ed., 2006,
Algorithm 6.1) on an objective that returns its value and gradient.
It steps with Armijo backtracking and scales its first inverse-Hessian
estimate as Shanno & Phua (Math. Program. 14(1) 1978) do.

``bounded_brent`` is Brent's bounded scalar minimizer, golden-section
steps with parabolic interpolation (Brent, Algorithms for Minimization
Without Derivatives, 1973), an operation-for-operation port of SciPy
1.17's ``scipy.optimize._optimize._minimize_scalar_bounded``: it returns
the same points, values and evaluation counts as
``scipy.optimize.minimize_scalar(method="bounded")``. SciPy is Copyright
(c) 2001-2002 Enthought, Inc. and 2003 onward, SciPy Developers, under
the BSD 3-clause license.

Keeping the searches here lets the design commands run on numpy alone;
importing ``scipy.optimize`` costs about 0.6 s per process.

Each returns ``(x, fun, nfev, status)``: the best point, its value, the
number of objective calls, and 0 on convergence, 1 at the evaluation cap
or 2 when the objective returned NaN.
"""

from __future__ import annotations

import numpy as np

# Sufficient-decrease constant of the Armijo condition.
_ARMIJO = 1e-4


def bfgs(func, x0, gtol: float, maxfev: int):
    """Minimize ``func`` from ``x0`` by BFGS; ``func(x)`` returns the value
    and the gradient at a copy of ``x``.

    Stops with status 0 when the gradient's largest entry is at most
    ``gtol``, or when the step along a descent direction must shrink
    until the decrease the gradient predicts is below the rounding of
    the value, so no lower value can be resolved. Status 1 when
    ``maxfev`` calls are spent first (the cap is checked before each
    call), status 2 when the objective is not finite at ``x0``, or
    when the search stops at that floor after a non-finite trial. The
    point returned is the last one accepted, with its value as
    returned.
    """
    x = np.array(x0, dtype=np.float64).ravel()
    nfev = 1
    fun, grad = func(x.copy())
    fun, grad = float(fun), np.asarray(grad, dtype=np.float64)
    if not (np.isfinite(fun) and np.isfinite(grad).all()):
        return x, fun, nfev, 2
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
                return x, fun, nfev, 1
            trial = x + step * direction
            nfev += 1
            trial_fun, trial_grad = func(trial.copy())
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
                return x, fun, nfev, 0 if finite else 2
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
        x, fun, grad = trial, trial_fun, trial_grad
    return x, fun, nfev, 0


def bounded_brent(func, lo: float, hi: float, xatol: float, maxiter: int):
    """Minimize the scalar ``func`` on [``lo``, ``hi``] by Brent's method.

    Stops when the bracket around the best point shrinks below about
    ``xatol`` (relative slack sqrt(2.2e-16) times the point), or after
    ``maxiter`` evaluations (status 1); status 2 if the best point, its
    value or the last value is NaN.
    """
    if not (np.size(lo) == 1 and np.isfinite(lo) and np.size(hi) == 1 and np.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")

    flag = 0
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        if np.abs(e) > tol1:
            # Parabolic fit through the three best points.
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            flag = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        flag = 2
    return xf, fx, num, flag
