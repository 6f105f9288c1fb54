"""Mutual information of discrete constellations on the complex AWGN channel.

The production path is tensor-product Gauss-Hermite quadrature over the
two noise quadratures; a seeded Monte-Carlo estimator with the exact
conditional densities serves as its independent check.

The quadrature never forms the M x M mixture. Square QAM points lie on a
Cartesian grid of I and Q levels and circular Gaussian noise factorizes
over I and Q, so the mixture sum_j p_j k(y - x_j) is the bilinear form
k_I^T P k_Q of two 1-D kernels over the sqrt(M) levels and the pmf
reshaped to the level grid. This holds for every pmf, product over I and
Q or not. When that grid is dihedrally symmetric (P = P^T = P[::-1] =
P[:, ::-1]), every point of a symmetry orbit contributes the same term,
and the outer expectation runs over one representative per orbit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .constellation import Constellation
from .shaping import Pmf, entropy

LN2 = float(np.log(2.0))

DEFAULT_ORDER = 16

# Unit-power check guards against silently feeding an unnormalized
# constellation, which would reinterpret the SNR axis.
UNIT_POWER_TOL = 1e-6

# exp() arguments below this are flushed; keeps the hot loops out of the
# subnormal range, where libm is an order of magnitude slower.
EXP_UNDERFLOW = -700.0

PROB_TINY = 1e-320

# Largest entry-wise asymmetry of the pmf grid that still counts as
# dihedral symmetry for the orbit reduction.
DIHEDRAL_TOL = 1e-13


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for weight function exp(-t^2)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@functools.lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Nodes and weights of the physicists' Gauss-Hermite rule.

    Exact for polynomials up to degree 2*order - 1 against exp(-t^2).
    """
    if not isinstance(order, int) or not 2 <= order <= 64:
        raise ValueError(f"quadrature order must be an integer in [2, 64], got {order!r}")
    nodes, weights = hermgauss(order)
    return QuadratureRule(nodes, weights, order)


def _snr_to_sigma2(snr_db: float) -> float:
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    return 10.0 ** (-snr_db / 10.0)


def _require_unit_power(constellation: Constellation, pmf: Pmf) -> None:
    power = float(pmf.probs @ constellation.sq_magnitudes)
    if abs(power - 1.0) > UNIT_POWER_TOL:
        raise ValueError(
            f"constellation mean power is {power!r} under this pmf; "
            "normalize to unit power before evaluating MI"
        )


def _is_dihedral(probs: np.ndarray) -> bool:
    """True when the (I, Q) pmf matrix is invariant under the square's
    symmetries: transpose and both axis flips generate the group."""
    return bool(
        np.abs(probs - probs.T).max() <= DIHEDRAL_TOL
        and np.abs(probs - probs[::-1]).max() <= DIHEDRAL_TOL
        and np.abs(probs - probs[:, ::-1]).max() <= DIHEDRAL_TOL
    )


def _log_kernel(levels: np.ndarray, sigma: float, t: np.ndarray):
    """1-D Gaussian kernels between every sent and every candidate level.

    Entry (s, a, j) is exp(-(d^2 + 2 sigma d t_a) / sigma^2) with
    d = levels[s] - levels[j], divided by the largest entry of its row
    (s, a); the log of that divisor is returned alongside. Every kernel
    entry is then at most 1, so products of kernels cannot overflow.
    """
    d = (levels[:, None] - levels[None, :])[:, None, :]
    ell = -(d * d) / (sigma * sigma) - (2.0 / sigma) * d * t[None, :, None]
    shift = ell.max(axis=2)
    return np.exp(ell - shift[:, :, None]), shift


def mi_awgn_2d(
    constellation: Constellation,
    pmf: Pmf,
    snr_db: float,
    rule: QuadratureRule | None = None,
) -> float:
    """MI in bits per complex symbol for Y = X + N, N circular Gaussian.

    The expectation over the two noise quadratures uses the tensor
    product of ``rule`` with itself. The mixture at node pair (a, b) is
    k_I[a] @ P @ k_Q[b] (see the module docstring); for a dihedrally
    symmetric P the outer expectation runs over one point per orbit.

    The result is clamped to [0, entropy(pmf)].
    """
    if rule is None:
        rule = gauss_hermite(DEFAULT_ORDER)
    _require_unit_power(constellation, pmf)
    sigma = np.sqrt(_snr_to_sigma2(snr_db))

    x = constellation.points
    p = pmf.probs
    m = int(round(np.sqrt(constellation.order)))
    grid = p.reshape(m, m)
    if _is_dihedral(grid):
        reps = constellation.orbit_reps
        mult = constellation.orbit_sizes.astype(np.float64)
    else:
        reps = np.arange(constellation.order)
        mult = np.ones(constellation.order)
    keep = p[reps] > 0.0
    reps, mult = reps[keep], mult[keep]

    # A sent point enters the kernels only through its I and Q levels:
    # build them per level, then pick each representative's pair.
    t = rule.nodes
    k_i, s_i = _log_kernel(x.real[::m], sigma, t)        # (m, A, m)
    k_q, s_q = _log_kernel(x.imag[:m], sigma, t)
    ri, rq = np.divmod(reps, m)
    mix = (k_i @ grid)[ri] @ np.swapaxes(k_q, 1, 2)[rq]  # (R, A, B)
    log_mix = np.log(mix) + s_i[ri][:, :, None] + s_q[rq][:, None, :]
    w2d = np.outer(rule.weights, rule.weights) / np.pi
    per_rep = np.tensordot(log_mix, w2d, axes=([1, 2], [0, 1]))

    mi = -float((p[reps] * mult * per_rep).sum()) / LN2
    return float(np.clip(mi, 0.0, entropy(pmf)))


def mi_monte_carlo(
    constellation: Constellation,
    pmf: Pmf,
    snr_db: float,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo MI estimate and its standard error, bits per complex symbol.

    Estimates H(X|Y) from sampled symbol/noise pairs using the exact
    Gaussian conditional densities and subtracts it from the analytic
    entropy. Deterministic for a given seed.
    """
    if samples < 10_000:
        raise ValueError(f"need at least 1e4 samples for a stable estimate, got {samples}")
    _require_unit_power(constellation, pmf)
    sigma2 = _snr_to_sigma2(snr_db)

    rng = np.random.default_rng(seed)
    x = constellation.points
    p = pmf.probs
    logp = np.where(p > 0.0, np.log(np.maximum(p, PROB_TINY)), -np.inf)
    xq = np.vstack([x.real, x.imag])                      # (2, M)
    x2 = np.abs(x) ** 2

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 1 << 15
    while done < samples:
        k = min(chunk, samples - done)
        idx = rng.choice(x.size, size=k, p=p)
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(k) + 1j * rng.standard_normal(k)
        )
        y = x[idx] + noise
        yq = np.empty((k, 2))
        yq[:, 0], yq[:, 1] = y.real, y.imag
        # a_j = log p_j - |y - x_j|^2 / s2, dropping the |y|^2 term common to all j
        a = logp[None, :] + (2.0 * (yq @ xq) - x2[None, :]) / sigma2
        a_max = a.max(axis=1)
        a_true = a[np.arange(k), idx]
        np.subtract(a, a_max[:, None], out=a)
        np.maximum(a, EXP_UNDERFLOW, out=a)
        lse = a_max + np.log(np.exp(a).sum(axis=1))
        neg_log_post = (lse - a_true) / LN2
        total += float(neg_log_post.sum())
        total_sq += float((neg_log_post**2).sum())
        done += k

    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    mi = entropy(pmf) - mean
    return float(np.clip(mi, 0.0, entropy(pmf))), float(np.sqrt(var / samples))
