"""Kurtosis-dependent nonlinear SNR model and shaping optimization.

The nonlinear interference power of a launch-power-optimized link is
modeled as (eta1 + eta2 * kurtosis) * P^3, which makes the achievable
SNR at optimum power a one-third-power function of the modulation's
excess kurtosis. Shaping families are optimized against the resulting
effective-SNR AWGN channel. The searches are the package's own BFGS
(``search``), so this module and every design command run on numpy
alone, without importing scipy.

The MB, tailored and per-ring searches each return the MiCurvePoint they
chose and share one driver, ``_bfgs_points``: BFGS on the exact gradient
of the quadrature MI from each start, with one error contract, an
OptimizationError that names the search when a run hits its evaluation
cap or meets a NaN MI. A pmf moves the MI three ways:
through the pmf grid directly, through the unit-power scale s of the
levels, and through the effective SNR, which the kurtosis sets. Since
I(s L, sigma) = I(L, sigma / s), the last two enter as one derivative in
sigma. The pmf families then chain in: dp/dnu_k = -p (T_k - E[T_k]) with
T_1 = |x|^2 and T_2 = |x|^4 for the tailored family, T_1 alone for MB,
and the ring masses' squared amplitudes for the per-ring family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .awgn_mi import _mi_and_gradient, mi_awgn_2d
from .constellation import Constellation, normalized
from .forks import forked_map
from .search import bfgs
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

# Gradient tolerance of the MB, tailored and per-ring searches, on -mi_4d
# (bit/4D) per unit of their parameters.
_GTOL = 1e-9

# Evaluation caps of the MB, tailored and per-ring searches.
_MB_MAXFEV = 200
_TAILORED_MAXFEV = 600
_PER_RING_MAXFEV = 4000

CURVE_FAMILIES = (Family.UNIFORM, Family.MAXWELL_BOLTZMANN, Family.KURTOSIS_TAILORED)


class OptimizationError(RuntimeError):
    """Raised when a shaping search hits its evaluation cap or meets a
    NaN MI.

    ``best`` is the MiCurvePoint the failing run last accepted.
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
        if not math.isfinite(self.snr_gauss_db):
            raise ValueError(f"snr_gauss_db must be finite, got {self.snr_gauss_db}")


@dataclass(frozen=True)
class MiCurvePoint:
    """One evaluated operating point: a family's ``params`` at one SNR."""

    snr_gauss_db: float
    params: ShapingParams
    kurtosis: float
    effective_snr_db: float
    mi_4d: float

    @property
    def family(self) -> Family:
        return self.params.family

    @property
    def delta_mi_4d(self) -> float:
        """``mi_4d`` less the Gaussian-input MI at ``snr_gauss_db``."""
        snr_lin = 10.0 ** (self.snr_gauss_db / 10.0)
        return self.mi_4d - 2.0 * math.log2(1.0 + snr_lin)


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


def evaluate_family(
    constellation: Constellation,
    params: ShapingParams,
    model: NlChannelModel,
) -> MiCurvePoint:
    """Build the pmf for ``params`` and score it on the effective channel,
    with the default Gauss-Hermite rule, as every design function does."""
    return _score(constellation, params, model, gradient=False)


def _score(constellation, params, model, gradient):
    """``evaluate_family``'s point; with ``gradient``, also the pmf and
    d mi_4d / dp over the points, the pmf's own dependence on its
    parameters left to the caller."""
    pmf = build_pmf(constellation, params)
    kurt = excess_kurtosis(constellation, pmf)
    eff_db = effective_snr_db(model, kurt)
    unit = normalized(constellation, pmf)
    if gradient:
        mi, d_grid, d_sigma = _mi_and_gradient(unit, pmf, eff_db)
    else:
        mi = mi_awgn_2d(unit, pmf, eff_db)
    mi_4d = 2.0 * mi
    point = MiCurvePoint(
        snr_gauss_db=model.snr_gauss_db,
        params=params,
        kurtosis=kurt,
        effective_snr_db=eff_db,
        mi_4d=mi_4d,
    )
    if not gradient:
        return point
    # sigma over the level scale: sigma^2 = 10^(-eff_db/10) with
    # d ln sigma / d kurtosis = c / (6 (1 + c kurtosis)), and the scale
    # s = m2^(-1/2) with d ln s / dp = -|x|^2 / (2 m2).
    r2 = constellation.sq_magnitudes
    m2 = float(pmf.probs @ r2)
    m4 = float(pmf.probs @ (r2 * r2))
    d_kurt = (r2 * r2) / (m2 * m2) - (2.0 * m4 / m2**3) * r2
    d_log_sigma = (model.c / (6.0 * (1.0 + model.c * kurt))) * d_kurt + r2 / (2.0 * m2)
    sigma = 10.0 ** (-eff_db / 20.0)
    return point, pmf, 2.0 * (d_grid.ravel() + (d_sigma * sigma) * d_log_sigma)


def _scaled_stats(constellation: Constellation) -> tuple[float, np.ndarray]:
    """The uniform mean power P_u of the grid and the exponential families'
    statistics (T_1, T_2) = (|x|^2 / P_u, T_1^2) in the searches' scaled
    parameters u = lam P_u and v = (nu1 P_u, nu2 P_u^2), one row each."""
    pu = constellation.uniform_power
    t1 = constellation.sq_magnitudes / pu
    return pu, np.stack([t1, t1 * t1])


def _bfgs_points(name: str, gradient, starts, maxfev: int) -> list[MiCurvePoint]:
    """The point each ``search.bfgs`` run on -mi_4d accepted, one per start,
    exactly as ``gradient(v)`` scored it with d mi_4d / dv.

    A run that hits ``maxfev`` or meets a NaN MI raises OptimizationError
    naming the search, with the last point it accepted as ``best``.
    """
    scored = {}

    def neg_mi(v):
        point, grad = gradient(v)
        scored[tuple(v)] = point
        return -point.mi_4d, -grad

    points = []
    for start in starts:
        x, _, _, status = bfgs(neg_mi, start, gtol=_GTOL, maxfev=maxfev)
        points.append(scored[tuple(x)])
        if status != 0:
            failure = f"hit its cap of {maxfev} evaluations" if status == 1 else "met a NaN MI"
            raise OptimizationError(f"{name} did not converge: it {failure}", best=points[-1])
    return points


def optimize_mb(
    constellation: Constellation,
    model: NlChannelModel,
) -> MiCurvePoint:
    """The point of the best Maxwell-Boltzmann rate for this model.

    One cold search per call: a coarse scan over a fixed log-spaced grid
    of rates u = lam * P_u in [0, _U_MAX], then a BFGS search on the
    exact MI derivative in u from the best scanned rate. The search is
    not bounded, and at low SNR it can run below u = 0, where the MI of
    an outward-leaning pmf is higher still; if it ends outside [0,
    _U_MAX], or no higher than the scanned rate, the scanned point is
    kept. The result depends only on the constellation and the model;
    it is the point the search or the scan scored.
    """
    pu, stats = _scaled_stats(constellation)

    def mb(u) -> ShapingParams:
        return ShapingParams(Family.MAXWELL_BOLTZMANN, lam=float(u / pu))

    scan = [evaluate_family(constellation, mb(u), model) for u in _COARSE_U]
    best_i = int(np.argmax([point.mi_4d for point in scan]))
    best = scan[best_i]
    (point,) = _bfgs_points("Maxwell-Boltzmann rate search",
                            lambda v: _exp_gradient(constellation, model, mb(v[0]), stats[:1]),
                            [[_COARSE_U[best_i]]], _MB_MAXFEV)
    if 0.0 <= point.params.lam <= _U_MAX / pu and point.mi_4d > best.mi_4d:
        best = point
    return best


def optimize_tailored(
    constellation: Constellation,
    model: NlChannelModel,
    mb: MiCurvePoint | None = None,
) -> MiCurvePoint:
    """The point of the best (nu1, nu2) of the kurtosis-tailored family.

    One cold search per call: BFGS searches on the exact MI gradient
    start from the Maxwell-Boltzmann optimum and from the best cell of a
    coarse 2-D grid. ``mb`` is the ``optimize_mb`` point for the same
    constellation and model, when the caller has it; otherwise it
    is searched here. That optimum is itself a candidate, at its exact
    rate and nu2 = 0 (the family contains MB there), so the returned MI
    never falls below it. Among ties the smallest |nu2| wins. The point
    returned is the one a search scored, or the MB optimum's, relabeled.
    """
    pu, stats = _scaled_stats(constellation)
    mb = mb if mb is not None else optimize_mb(constellation, model)

    grid = [(u, w) for u in _COARSE_NU1 for w in _COARSE_NU2]
    grid_vals = [-evaluate_family(constellation, _tailored(g, pu), model).mi_4d for g in grid]
    starts = [(mb.params.lam * pu, 0.0), grid[int(np.argmin(grid_vals))]]
    points = _bfgs_points("tailored-family search",
                          lambda v: _exp_gradient(constellation, model, _tailored(v, pu), stats),
                          starts, _TAILORED_MAXFEV)

    # The MB optimum as a point of this family: mb_pmf(lam) is built as
    # tailored_pmf(lam, 0), so only the params change.
    mb_params = ShapingParams(Family.KURTOSIS_TAILORED, nu1=mb.params.lam, nu2=0.0)
    candidates = [replace(mb, params=mb_params), *points]
    best_mi = max(p.mi_4d for p in candidates)
    # Deterministic tie-break: among MI-equal optima prefer small |nu2|.
    eligible = [p for p in candidates if p.mi_4d >= best_mi - _MI_TIE_TOL]
    return min(eligible, key=lambda p: abs(p.params.nu2))


def _tailored(v, pu: float) -> ShapingParams:
    """Tailored-family parameters from the scaled (nu1 pu, nu2 pu^2)."""
    return ShapingParams(Family.KURTOSIS_TAILORED,
                         nu1=float(v[0] / pu), nu2=float(v[1] / (pu * pu)))


def _exp_gradient(constellation, model, params, stats) -> tuple[MiCurvePoint, np.ndarray]:
    """The point at ``params`` of a family p proportional to exp(-v @
    ``stats``) and d mi_4d / dv, through dp/dv_k = -p (T_k - E[T_k])."""
    point, pmf, grad = _score(constellation, params, model, gradient=True)
    weighted = pmf.probs * grad
    return point, weighted.sum() * (stats @ pmf.probs) - stats @ weighted


def _amplitudes_from_masses(masses: np.ndarray) -> np.ndarray:
    return np.sqrt(masses[1:] / masses[0])


def _masses_from_amplitudes(y: np.ndarray) -> np.ndarray:
    full = np.concatenate([[1.0], y]) ** 2
    return full / full.sum()


def _per_ring_gradient(constellation, model, y) -> tuple[MiCurvePoint, np.ndarray]:
    """The per-ring point at the ring amplitudes ``y`` (the first ring's
    pinned at 1) and d mi_4d / dy. A point carries its ring's mass over
    the ring size, and with q_r = y_r^2 / S, S = sum_r y_r^2, the masses
    chain in as dq_r / dy_k = (2 y_k / S) (delta_rk - q_r)."""
    masses = _masses_from_amplitudes(y)
    params = ShapingParams(Family.PER_RING, ring_probs=tuple(masses))
    point, _, grad = _score(constellation, params, model, gradient=True)
    ring_grad = np.bincount(constellation.ring_index, weights=grad) / constellation.ring_sizes
    return point, (2.0 * y / (1.0 + y @ y)) * (ring_grad[1:] - masses @ ring_grad)


def optimize_per_ring(
    constellation: Constellation,
    model: NlChannelModel,
) -> MiCurvePoint:
    """Best point of a free search over ring-constant pmfs on the probability simplex.

    Ring masses are parameterized by amplitudes, q_r proportional to
    y_r^2 with the first ring's pinned at 1, so every iterate satisfies
    the simplex constraint exactly and a ring's mass reaches 0 at the
    regular point y_r = 0; softmax logits would have to run to -inf,
    and the vanishing gradients of the outer rings' logits leave a
    search on them ill-conditioned. BFGS searches on the exact MI
    gradient start from the tailored optimum, the Maxwell-Boltzmann
    optimum, and uniform; each only ever accepts a lower value, so the
    best point is never worse than its starts.
    """
    if constellation.ring_sizes.size == 1:
        params = ShapingParams(Family.PER_RING, ring_probs=(1.0,))
        return evaluate_family(constellation, params, model)

    mb_point, tailored_point = _curve_point(
        constellation, model.c, model.snr_gauss_db,
        (Family.MAXWELL_BOLTZMANN, Family.KURTOSIS_TAILORED),
    )
    starts = [
        _amplitudes_from_masses(ring_masses(constellation, pmf))
        for pmf in (build_pmf(constellation, tailored_point.params),
                    build_pmf(constellation, mb_point.params),
                    uniform_pmf(constellation))
    ]
    points = _bfgs_points("per-ring search", lambda y: _per_ring_gradient(constellation, model, y),
                          starts, _PER_RING_MAXFEV)
    return max(points, key=lambda p: p.mi_4d)  # the first of equal bests


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
        mb = points[Family.MAXWELL_BOLTZMANN] = optimize_mb(constellation, model)
    if Family.KURTOSIS_TAILORED in families:
        points[Family.KURTOSIS_TAILORED] = optimize_tailored(constellation, model, mb=mb)
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
    if not all(math.isfinite(s) for s in grid):
        raise ValueError(f"snr_grid_db must be finite, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly ascending")
    if not families or not set(families) <= set(CURVE_FAMILIES):
        names = ", ".join(f.value for f in CURVE_FAMILIES)
        raise ValueError(f"families must be a non-empty subset of ({names})")
    if len(set(families)) != len(families):
        raise ValueError(f"families must be distinct, got {[f.value for f in families]}")
    NlChannelModel(c, grid[0])  # checks c before any search or worker

    return forked_map(lambda i: _curve_point(constellation, c, grid[i], families), len(grid))
