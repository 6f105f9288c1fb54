"""Derivative-free searches used by the shaping optimizers.

``nelder_mead`` is the downhill simplex method (Nelder & Mead, Comput. J.
7(4) 1965), with the dimension-adapted coefficients of Gao & Han
(Comput. Optim. Appl. 51(1) 2012) when ``adaptive``. ``bounded_brent``
is Brent's bounded scalar minimizer, golden-section steps with parabolic
interpolation (Brent, Algorithms for Minimization Without Derivatives,
1973). Both are operation-for-operation ports of SciPy 1.17's
``scipy.optimize._optimize._minimize_neldermead`` (without bounds,
callback, initial simplex or ``return_all``) and
``_minimize_scalar_bounded``, so they return the same points, values
and evaluation counts as ``scipy.optimize.minimize(method="Nelder-Mead")``
with only ``maxfev`` set, and ``scipy.optimize.minimize_scalar(
method="bounded")``. SciPy is Copyright (c) 2001-2002 Enthought, Inc. and
2003 onward, SciPy Developers, under the BSD 3-clause license.

Keeping them here lets the design commands run on numpy alone; importing
``scipy.optimize`` costs about 0.6 s per process.

Each returns ``(x, fun, nfev, status)``: the best point, its value, the
number of objective calls, and 0 on convergence or 1 at the evaluation
cap (``bounded_brent`` also gives 2 when the objective returned NaN).
"""

from __future__ import annotations

import numpy as np


class _EvaluationCap(RuntimeError):
    pass


def _by_value(sim, fsim):
    """Simplex vertices and their values, reordered by ascending value."""
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def nelder_mead(func, x0, xatol: float, fatol: float, maxfev: int, adaptive: bool = False):
    """Minimize ``func`` from ``x0`` by the Nelder-Mead simplex method.

    Stops when every vertex is within ``xatol`` of the best one in each
    coordinate and every vertex value within ``fatol`` of the best value,
    or when ``maxfev`` evaluations are spent (status 1). The cap is
    checked before each call, so it can stop a shrink halfway. ``func``
    gets a copy of each point.
    """
    x0 = np.atleast_1d(x0).flatten()
    dtype = x0.dtype if np.issubdtype(x0.dtype, np.inexact) else np.float64
    x0 = np.asarray(x0, dtype=dtype)
    N = len(x0)

    if adaptive:
        dim = float(N)
        rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5

    # Initial simplex: each coordinate moved by 5%, or to 0.00025 if zero.
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y

    fsim = np.full((N + 1,), np.inf, dtype=float)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _EvaluationCap
        nfev += 1
        return func(np.copy(x))

    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _EvaluationCap:
        pass
    # Sorted twice, as scipy does: argsort need not be stable, so the
    # second sort may reorder tied vertices.
    sim, fsim = _by_value(*_by_value(sim, fsim))

    while nfev < maxfev:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break

            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            doshrink = 0

            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            elif fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:
                if fxr < fsim[-1]:
                    # Outside contraction.
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = 1
                else:
                    # Inside contraction.
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = 1
                if doshrink:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _EvaluationCap:
            pass
        sim, fsim = _by_value(sim, fsim)

    return sim[0], np.min(fsim), nfev, int(nfev >= maxfev)


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
