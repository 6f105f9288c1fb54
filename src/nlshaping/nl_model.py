"""Kurtosis-dependent nonlinear SNR model and shaping optimization.

The nonlinear interference power of a launch-power-optimized link is
modeled as (eta1 + eta2 * kurtosis) * P^3, which makes the achievable
SNR at optimum power a one-third-power function of the modulation's
excess kurtosis. Shaping families are optimized against the resulting
effective-SNR AWGN channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from .awgn_mi import QuadratureRule, mi_awgn_2d
from .constellation import Constellation, normalized
from .shaping import (
    Family,
    Pmf,
    ShapingParams,
    build_pmf,
    excess_kurtosis,
    mb_pmf,
    ring_masses,
    tailored_pmf,
    uniform_pmf,
)

DEFAULT_C = 0.69

# Search domain for the Maxwell-Boltzmann rate, in units of lam times the
# uniform mean power of the integer grid. At the upper end essentially
# all mass sits on the innermost ring for every supported order.
_U_MAX = 30.0
_COARSE_U = np.concatenate([[0.0], np.geomspace(0.05, _U_MAX, 24)])

# Coarse cells for the 2-D tailored search, in the same scaled units.
_COARSE_NU1 = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
_COARSE_NU2 = np.array([-0.5, -0.2, 0.0, 0.2, 0.5, 1.0, 2.0])

_MI_TIE_TOL = 1e-9

CURVE_FAMILIES = (Family.UNIFORM, Family.MAXWELL_BOLTZMANN, Family.KURTOSIS_TAILORED)


class OptimizationError(RuntimeError):
    """Raised when a shaping search hits its iteration cap.

    Carries the best point found so far in ``best``.
    """

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class NlChannelModel:
    """Scalar nonlinear channel summary: kurtosis sensitivity and the
    Gaussian-modulation SNR at optimum launch power."""

    c: float = DEFAULT_C
    snr_gauss_db: float = 18.0


@dataclass(frozen=True)
class MiCurvePoint:
    """One evaluated (family, SNR) operating point."""

    snr_gauss_db: float
    family: Family
    params: ShapingParams
    kurtosis: float
    effective_snr_db: float
    mi_4d: float
    delta_mi_4d: float


def snr_ratio(kurt_a: float, kurt_b: float, c: float) -> float:
    """Optimum-launch SNR ratio of modulation A over modulation B."""
    for name, kurt in (("A", kurt_a), ("B", kurt_b)):
        if 1.0 + c * kurt <= 0.0:
            raise ValueError(
                f"1 + c*kurtosis must be positive; modulation {name} has "
                f"kurtosis {kurt} with c = {c}"
            )
    return float(((1.0 + c * kurt_b) / (1.0 + c * kurt_a)) ** (1.0 / 3.0))


def effective_snr_db(model: NlChannelModel, kurtosis: float) -> float:
    """SNR in dB after correcting the Gaussian-reference optimum for the
    modulation's excess kurtosis (a Gaussian has kurtosis zero)."""
    return model.snr_gauss_db + 10.0 * math.log10(snr_ratio(kurtosis, 0.0, model.c))


def _delta_mi(mi_4d: float, snr_gauss_db: float) -> float:
    snr_lin = 10.0 ** (snr_gauss_db / 10.0)
    return mi_4d - 2.0 * math.log2(1.0 + snr_lin)


def _evaluate_pmf(
    constellation: Constellation,
    pmf: Pmf,
    family: Family,
    params: ShapingParams,
    model: NlChannelModel,
    rule: QuadratureRule | None,
) -> MiCurvePoint:
    kurt = excess_kurtosis(constellation, pmf)
    eff_db = effective_snr_db(model, kurt)
    unit = normalized(constellation, pmf)
    mi_4d = 2.0 * mi_awgn_2d(unit, pmf, eff_db, rule)
    return MiCurvePoint(
        snr_gauss_db=model.snr_gauss_db,
        family=family,
        params=params,
        kurtosis=kurt,
        effective_snr_db=eff_db,
        mi_4d=mi_4d,
        delta_mi_4d=_delta_mi(mi_4d, model.snr_gauss_db),
    )


def evaluate_family(
    constellation: Constellation,
    params: ShapingParams,
    model: NlChannelModel,
    rule: QuadratureRule | None = None,
) -> MiCurvePoint:
    """Build the pmf for ``params`` and score it on the effective channel."""
    pmf = build_pmf(constellation, params)
    return _evaluate_pmf(constellation, pmf, params.family, params, model, rule)


def _grid_power(constellation: Constellation) -> float:
    return float(np.mean(constellation.sq_magnitudes))


def optimize_mb(
    constellation: Constellation,
    model: NlChannelModel,
    rule: QuadratureRule | None = None,
    initial_lam: float | None = None,
) -> tuple[float, MiCurvePoint]:
    """Best Maxwell-Boltzmann rate for this model.

    Coarse scan over a fixed log-spaced rate grid followed by bounded
    derivative-free refinement of the best bracket. ``initial_lam`` seeds
    an extra local refinement (useful when walking an SNR grid).
    """
    pu = _grid_power(constellation)

    def neg_mi(u: float) -> float:
        pmf = mb_pmf(constellation, u / pu)
        return -_evaluate_pmf(
            constellation, pmf, Family.MAXWELL_BOLTZMANN,
            ShapingParams(Family.MAXWELL_BOLTZMANN, lam=u / pu), model, rule,
        ).mi_4d

    values = [neg_mi(u) for u in _COARSE_U]
    best_i = int(np.argmin(values))
    candidates = [(_COARSE_U[best_i], values[best_i])]

    lo = _COARSE_U[max(best_i - 1, 0)]
    hi = _COARSE_U[min(best_i + 1, _COARSE_U.size - 1)]
    brackets = [(lo, hi)]
    if initial_lam is not None and initial_lam >= 0.0:
        u0 = min(initial_lam * pu, _U_MAX)
        brackets.append((max(u0 - 0.5, 0.0), min(u0 + 0.5, _U_MAX)))
    for blo, bhi in brackets:
        res = optimize.minimize_scalar(
            neg_mi, bounds=(blo, bhi), method="bounded",
            options={"xatol": 1e-6, "maxiter": 200},
        )
        if not res.success:
            raise OptimizationError(
                f"Maxwell-Boltzmann rate search did not converge: {res.message}",
                best=(res.x / pu, -res.fun),
            )
        candidates.append((float(res.x), float(res.fun)))

    u_star, _ = min(candidates, key=lambda t: t[1])
    lam_star = u_star / pu
    point = evaluate_family(
        constellation, ShapingParams(Family.MAXWELL_BOLTZMANN, lam=lam_star), model, rule
    )
    return lam_star, point


def optimize_tailored(
    constellation: Constellation,
    model: NlChannelModel,
    rule: QuadratureRule | None = None,
    initial: tuple[float, float] | None = None,
    mb: tuple[float, MiCurvePoint] | None = None,
) -> tuple[float, float, MiCurvePoint]:
    """Best (nu1, nu2) of the kurtosis-tailored family.

    Simplex searches are multi-started from the Maxwell-Boltzmann
    optimum, from the origin, and from the best cell of a coarse 2-D
    grid; with ``initial`` given (continuation along an SNR grid) the
    origin and grid starts are replaced by that point. ``mb`` is the
    ``optimize_mb`` result for the same constellation, model and rule,
    when the caller has it; otherwise it is searched here. The returned
    MI never falls below that Maxwell-Boltzmann optimum, which the
    family contains at nu2 = 0. Among ties the smallest |nu2| wins.
    """
    pu = _grid_power(constellation)
    lam_star, mb_point = mb if mb is not None else optimize_mb(constellation, model, rule)

    def neg_mi(v) -> float:
        nu1, nu2 = v[0] / pu, v[1] / (pu * pu)
        pmf = tailored_pmf(constellation, nu1, nu2)
        return -_evaluate_pmf(
            constellation, pmf, Family.KURTOSIS_TAILORED,
            ShapingParams(Family.KURTOSIS_TAILORED, nu1=nu1, nu2=nu2), model, rule,
        ).mi_4d

    starts = [np.array([lam_star * pu, 0.0])]
    if initial is not None:
        starts.append(np.array([initial[0] * pu, initial[1] * pu * pu]))
    else:
        starts.append(np.zeros(2))
        grid = [(u, w) for u in _COARSE_NU1 for w in _COARSE_NU2]
        grid_vals = [neg_mi(np.array(g)) for g in grid]
        starts.append(np.array(grid[int(np.argmin(grid_vals))]))

    # (neg MI, |nu2| in scaled units, point) per candidate
    candidates: list[tuple[float, float, np.ndarray]] = [
        (-mb_point.mi_4d, 0.0, np.array([lam_star * pu, 0.0]))
    ]
    for start in starts:
        res = optimize.minimize(
            neg_mi, start, method="Nelder-Mead",
            options={"xatol": 2e-4, "fatol": 1e-10, "maxfev": 600},
        )
        if res.status != 0:
            raise OptimizationError(
                f"tailored-family search did not converge: {res.message}",
                best=(res.x[0] / pu, res.x[1] / (pu * pu), -res.fun),
            )
        candidates.append((float(res.fun), abs(float(res.x[1])), res.x))

    best_fun = min(c[0] for c in candidates)
    # Deterministic tie-break: among MI-equal optima prefer small |nu2|.
    eligible = [c for c in candidates if c[0] <= best_fun + _MI_TIE_TOL]
    _, _, v = min(eligible, key=lambda c: c[1])
    nu1_star, nu2_star = float(v[0] / pu), float(v[1] / (pu * pu))
    point = evaluate_family(
        constellation,
        ShapingParams(Family.KURTOSIS_TAILORED, nu1=nu1_star, nu2=nu2_star),
        model, rule,
    )
    if point.mi_4d < mb_point.mi_4d:
        # The family contains MB; never report worse than it.
        nu1_star, nu2_star = lam_star, 0.0
        point = replace(
            point,
            params=ShapingParams(Family.KURTOSIS_TAILORED, nu1=lam_star, nu2=0.0),
            kurtosis=mb_point.kurtosis,
            effective_snr_db=mb_point.effective_snr_db,
            mi_4d=mb_point.mi_4d,
            delta_mi_4d=mb_point.delta_mi_4d,
        )
    return nu1_star, nu2_star, point


def _logits_from_masses(masses: np.ndarray) -> np.ndarray:
    z = np.log(np.maximum(masses, 1e-12))
    return (z - z[0])[1:]


def optimize_per_ring(
    constellation: Constellation,
    model: NlChannelModel,
    rule: QuadratureRule | None = None,
) -> tuple[np.ndarray, MiCurvePoint]:
    """Free search over ring-constant pmfs on the probability simplex.

    Ring masses are parameterized by softmax logits (first ring pinned),
    so every iterate satisfies the simplex constraint exactly. Searches
    start from the tailored optimum, the Maxwell-Boltzmann optimum, and
    uniform; the best point is never worse than its starts.
    """
    n_rings = len(constellation.rings)
    if n_rings == 1:
        ring_probs = np.array([1.0])
        params = ShapingParams(Family.PER_RING, ring_probs=(1.0,))
        return ring_probs, evaluate_family(constellation, params, model, rule)

    def masses_from_logits(z: np.ndarray) -> np.ndarray:
        full = np.concatenate([[0.0], z])
        e = np.exp(full - full.max())
        return e / e.sum()

    def point_for(z: np.ndarray) -> MiCurvePoint:
        masses = masses_from_logits(z)
        params = ShapingParams(Family.PER_RING, ring_probs=tuple(masses))
        return evaluate_family(constellation, params, model, rule)

    def neg_mi(z: np.ndarray) -> float:
        return -point_for(z).mi_4d

    lam_star, mb_point = optimize_mb(constellation, model, rule)
    _, _, tailored_point = optimize_tailored(
        constellation, model, rule, mb=(lam_star, mb_point)
    )
    starts = [
        _logits_from_masses(
            ring_masses(constellation, build_pmf(constellation, tailored_point.params))
        ),
        _logits_from_masses(ring_masses(constellation, mb_pmf(constellation, lam_star))),
        _logits_from_masses(ring_masses(constellation, uniform_pmf(constellation))),
    ]

    best_z, best_fun = None, np.inf
    for start in starts:
        res = optimize.minimize(
            neg_mi, start, method="Nelder-Mead",
            options={
                "xatol": 1e-5, "fatol": 1e-11,
                "maxfev": 4000, "adaptive": n_rings > 5,
            },
        )
        if res.status != 0:
            raise OptimizationError(
                f"per-ring search did not converge: {res.message}",
                best=(masses_from_logits(res.x), -res.fun),
            )
        start_fun = neg_mi(start)
        fun, z = (res.fun, res.x) if res.fun <= start_fun else (start_fun, start)
        if fun < best_fun:
            best_fun, best_z = fun, z

    ring_probs = masses_from_logits(best_z)
    return ring_probs, point_for(best_z)


def mi_curve(
    constellation: Constellation,
    c: float,
    snr_grid_db,
    rule: QuadratureRule | None = None,
    families: tuple[Family, ...] = CURVE_FAMILIES,
) -> list[tuple[MiCurvePoint, ...]]:
    """Points of the requested ``families`` per grid SNR, ordered as in
    CURVE_FAMILIES: the (uniform, MB-optimal, tailored-optimal) triple
    by default.

    Successive grid points warm-start the optimizers with the previous
    optimum, which keeps long curves cheap without changing what a
    single-point call returns. The tailored search starts from the MB
    optimum of its grid point, so every family subset gives the same
    points as the full curve.
    """
    grid = [float(s) for s in snr_grid_db]
    if not grid:
        raise ValueError("SNR grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly ascending")
    if not families or not set(families) <= set(CURVE_FAMILIES):
        names = ", ".join(f.value for f in CURVE_FAMILIES)
        raise ValueError(f"families must be a non-empty subset of ({names})")

    out = []
    prev_lam: float | None = None
    prev_nu: tuple[float, float] | None = None
    for snr_db in grid:
        model = NlChannelModel(c=c, snr_gauss_db=snr_db)
        points = {}
        if Family.UNIFORM in families:
            points[Family.UNIFORM] = evaluate_family(
                constellation, ShapingParams(Family.UNIFORM), model, rule
            )
        if Family.MAXWELL_BOLTZMANN in families or Family.KURTOSIS_TAILORED in families:
            prev_lam, mb_point = optimize_mb(
                constellation, model, rule, initial_lam=prev_lam
            )
            points[Family.MAXWELL_BOLTZMANN] = mb_point
        if Family.KURTOSIS_TAILORED in families:
            nu1, nu2, points[Family.KURTOSIS_TAILORED] = optimize_tailored(
                constellation, model, rule, initial=prev_nu, mb=(prev_lam, mb_point)
            )
            prev_nu = (nu1, nu2)
        out.append(tuple(points[f] for f in CURVE_FAMILIES if f in families))
    return out
