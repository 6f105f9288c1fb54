"""Kurtosis-dependent nonlinear SNR model and shaping optimization.

The nonlinear interference power of a launch-power-optimized link is
modeled as (eta1 + eta2 * kurtosis) * P^3, which makes the achievable
SNR at optimum power a one-third-power function of the modulation's
excess kurtosis. Shaping families are optimized against the resulting
effective-SNR AWGN channel. The searches are the package's own
Nelder-Mead and bounded Brent (``search``), so this module and every
design command run on numpy alone, without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .awgn_mi import mi_awgn_2d
from .constellation import Constellation, normalized
from .forks import forked_map
from .search import bounded_brent, nelder_mead
from .shaping import (
    Family,
    ShapingParams,
    build_pmf,
    excess_kurtosis,
    ring_masses,
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

# Evaluation caps of the MB, tailored and per-ring searches.
_MB_MAXFEV = 200
_TAILORED_MAXFEV = 600
_PER_RING_MAXFEV = 4000

CURVE_FAMILIES = (Family.UNIFORM, Family.MAXWELL_BOLTZMANN, Family.KURTOSIS_TAILORED)


class OptimizationError(RuntimeError):
    """Raised when a shaping search hits its iteration cap.

    Carries the best point found so far in ``best``.
    """

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best

    def __reduce__(self):
        # The default reduction re-calls __init__ with the message alone.
        return type(self), (self.args[0], self.best)


@dataclass(frozen=True)
class NlChannelModel:
    """Scalar nonlinear channel summary: kurtosis sensitivity and the
    Gaussian-modulation SNR at optimum launch power."""

    c: float = DEFAULT_C
    snr_gauss_db: float = 18.0

    def __post_init__(self):
        # Excess kurtosis is at least -1 for every pmf, so 1 + c * kurtosis
        # >= 1 - c > 0 when c is in [0, 1); outside it no such bound holds.
        if not 0.0 <= self.c < 1.0:
            raise ValueError(f"c must be in [0, 1), got {self.c}")


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


def evaluate_family(
    constellation: Constellation,
    params: ShapingParams,
    model: NlChannelModel,
) -> MiCurvePoint:
    """Build the pmf for ``params`` and score it on the effective channel,
    with the default Gauss-Hermite rule, as every design function does."""
    pmf = build_pmf(constellation, params)
    kurt = excess_kurtosis(constellation, pmf)
    eff_db = effective_snr_db(model, kurt)
    mi_4d = 2.0 * mi_awgn_2d(normalized(constellation, pmf), pmf, eff_db)
    return MiCurvePoint(
        snr_gauss_db=model.snr_gauss_db,
        family=params.family,
        params=params,
        kurtosis=kurt,
        effective_snr_db=eff_db,
        mi_4d=mi_4d,
        delta_mi_4d=_delta_mi(mi_4d, model.snr_gauss_db),
    )


def _grid_power(constellation: Constellation) -> float:
    return float(np.mean(constellation.sq_magnitudes))


def optimize_mb(
    constellation: Constellation,
    model: NlChannelModel,
) -> tuple[float, MiCurvePoint]:
    """Best Maxwell-Boltzmann rate for this model.

    One cold search per call: a coarse scan over a fixed log-spaced rate
    grid, then bounded derivative-free refinement between the neighbours
    of the best coarse rate. The result depends only on the
    constellation and the model; the returned point is the one the
    search scored.
    """
    pu = _grid_power(constellation)
    scored = {}

    def neg_mi(u: float) -> float:
        params = ShapingParams(Family.MAXWELL_BOLTZMANN, lam=u / pu)
        point = scored[float(u)] = evaluate_family(constellation, params, model)
        return -point.mi_4d

    values = [neg_mi(u) for u in _COARSE_U]
    best_i = int(np.argmin(values))
    lo = _COARSE_U[max(best_i - 1, 0)]
    hi = _COARSE_U[min(best_i + 1, _COARSE_U.size - 1)]
    u, fun, _, status = bounded_brent(neg_mi, lo, hi, xatol=1e-6, maxiter=_MB_MAXFEV)
    if status != 0:
        reason = f"hit its cap of {_MB_MAXFEV} evaluations" if status == 1 else "met a NaN MI"
        raise OptimizationError(
            f"Maxwell-Boltzmann rate search did not converge: it {reason}",
            best=(u / pu, -fun),
        )
    u_star = float(u) if fun < values[best_i] else float(_COARSE_U[best_i])
    return u_star / pu, scored[u_star]


def optimize_tailored(
    constellation: Constellation,
    model: NlChannelModel,
    mb: tuple[float, MiCurvePoint] | None = None,
) -> tuple[float, float, MiCurvePoint]:
    """Best (nu1, nu2) of the kurtosis-tailored family.

    One cold search per call: simplex searches start from the
    Maxwell-Boltzmann optimum and from the best cell of a coarse 2-D
    grid. ``mb`` is the ``optimize_mb`` result for the same
    constellation and model, when the caller has it; otherwise it
    is searched here. That optimum is itself a candidate, at its exact
    rate and nu2 = 0 (the family contains MB there), so the returned MI
    never falls below it. Among ties the smallest |nu2| wins. A winning
    search point is returned as scored; only the MB candidate, which is
    not a point of this family, is evaluated once more.
    """
    pu = _grid_power(constellation)
    lam_star, mb_point = mb if mb is not None else optimize_mb(constellation, model)
    scored = {}

    def neg_mi(v) -> float:
        nu1, nu2 = v[0] / pu, v[1] / (pu * pu)
        params = ShapingParams(Family.KURTOSIS_TAILORED, nu1=nu1, nu2=nu2)
        point = scored[float(nu1), float(nu2)] = evaluate_family(constellation, params, model)
        return -point.mi_4d

    grid = [(u, w) for u in _COARSE_NU1 for w in _COARSE_NU2]
    grid_vals = [neg_mi(np.array(g)) for g in grid]
    starts = [np.array([lam_star * pu, 0.0]), np.array(grid[int(np.argmin(grid_vals))])]

    # (neg MI, nu1, nu2) per candidate
    candidates = [(-mb_point.mi_4d, lam_star, 0.0)]
    for start in starts:
        x, fun, _, status = nelder_mead(
            neg_mi, start, xatol=2e-4, fatol=1e-10, maxfev=_TAILORED_MAXFEV
        )
        if status != 0:
            raise OptimizationError(
                "tailored-family search did not converge: it hit its cap of "
                f"{_TAILORED_MAXFEV} evaluations",
                best=(x[0] / pu, x[1] / (pu * pu), -fun),
            )
        candidates.append((float(fun), float(x[0] / pu), float(x[1] / (pu * pu))))

    best_fun = min(c[0] for c in candidates)
    # Deterministic tie-break: among MI-equal optima prefer small |nu2|.
    eligible = [c for c in candidates if c[0] <= best_fun + _MI_TIE_TOL]
    _, nu1_star, nu2_star = min(eligible, key=lambda c: abs(c[2]))
    point = scored.get((nu1_star, nu2_star))
    if point is None:
        params = ShapingParams(Family.KURTOSIS_TAILORED, nu1=nu1_star, nu2=nu2_star)
        point = evaluate_family(constellation, params, model)
    return nu1_star, nu2_star, point


def _logits_from_masses(masses: np.ndarray) -> np.ndarray:
    z = np.log(np.maximum(masses, 1e-12))
    return (z - z[0])[1:]


def optimize_per_ring(
    constellation: Constellation,
    model: NlChannelModel,
) -> tuple[np.ndarray, MiCurvePoint]:
    """Free search over ring-constant pmfs on the probability simplex.

    Ring masses are parameterized by softmax logits (first ring pinned),
    so every iterate satisfies the simplex constraint exactly. Searches
    start from the tailored optimum, the Maxwell-Boltzmann optimum, and
    uniform; the best point is never worse than its starts.
    """
    n_rings = constellation.ring_sizes.size
    if n_rings == 1:
        params = ShapingParams(Family.PER_RING, ring_probs=(1.0,))
        return np.array([1.0]), evaluate_family(constellation, params, model)

    def masses_from_logits(z: np.ndarray) -> np.ndarray:
        full = np.concatenate([[0.0], z])
        e = np.exp(full - full.max())
        return e / e.sum()

    scored = {}

    def neg_mi(z: np.ndarray) -> float:
        masses = masses_from_logits(z)
        params = ShapingParams(Family.PER_RING, ring_probs=tuple(masses))
        point = scored[tuple(z)] = evaluate_family(constellation, params, model)
        return -point.mi_4d

    (mb_point, tailored_point), = mi_curve(
        constellation, model.c, [model.snr_gauss_db],
        (Family.MAXWELL_BOLTZMANN, Family.KURTOSIS_TAILORED),
    )
    starts = [
        _logits_from_masses(ring_masses(constellation, pmf))
        for pmf in (build_pmf(constellation, tailored_point.params),
                    build_pmf(constellation, mb_point.params),
                    uniform_pmf(constellation))
    ]

    best_z, best_fun = None, np.inf
    for start in starts:
        z, fun, _, status = nelder_mead(
            neg_mi, start, xatol=1e-5, fatol=1e-11, maxfev=_PER_RING_MAXFEV,
            adaptive=n_rings > 5,
        )
        if status != 0:
            raise OptimizationError(
                "per-ring search did not converge: it hit its cap of "
                f"{_PER_RING_MAXFEV} evaluations",
                best=(masses_from_logits(z), -fun),
            )
        # Nelder-Mead keeps its start as a simplex vertex, so fun is never
        # above the start's value.
        if fun < best_fun:
            best_fun, best_z = fun, z

    return masses_from_logits(best_z), scored[tuple(best_z)]


def _curve_point(
    constellation: Constellation,
    c: float,
    snr_db: float,
    families: tuple[Family, ...],
) -> tuple[MiCurvePoint, ...]:
    """The requested families at one grid SNR, searched cold."""
    model = NlChannelModel(c=c, snr_gauss_db=snr_db)
    points = {}
    if Family.UNIFORM in families:
        uniform = ShapingParams(Family.UNIFORM)
        points[Family.UNIFORM] = evaluate_family(constellation, uniform, model)
    if Family.MAXWELL_BOLTZMANN in families or Family.KURTOSIS_TAILORED in families:
        lam, mb_point = optimize_mb(constellation, model)
        points[Family.MAXWELL_BOLTZMANN] = mb_point
    if Family.KURTOSIS_TAILORED in families:
        _, _, points[Family.KURTOSIS_TAILORED] = optimize_tailored(
            constellation, model, mb=(lam, mb_point)
        )
    return tuple(points[f] for f in CURVE_FAMILIES if f in families)


def mi_curve(
    constellation: Constellation,
    c: float,
    snr_grid_db,
    families: tuple[Family, ...] = CURVE_FAMILIES,
) -> list[tuple[MiCurvePoint, ...]]:
    """Points of the requested ``families`` per grid SNR, ordered as in
    CURVE_FAMILIES: the (uniform, MB-optimal, tailored-optimal) triple
    by default.

    Each grid point is searched on its own, cold, so a point equals the
    single-point call at its SNR whatever the rest of the grid is. The
    tailored search reuses the MB optimum of its grid point, so every
    family subset gives the same points as the full curve.

    The points are spread over processes by ``forks.forked_map``, whose
    result and failures are the serial loop's (see ``forks``).
    """
    grid = [float(s) for s in snr_grid_db]
    if not grid:
        raise ValueError("SNR grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly ascending")
    if not families or not set(families) <= set(CURVE_FAMILIES):
        names = ", ".join(f.value for f in CURVE_FAMILIES)
        raise ValueError(f"families must be a non-empty subset of ({names})")
    NlChannelModel(c, grid[0])  # checks c before any search or worker

    return forked_map(lambda i: _curve_point(constellation, c, grid[i], families), len(grid))
