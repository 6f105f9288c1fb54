"""Probability mass functions over constellations and their moments.

Families: uniform, Maxwell-Boltzmann (exponential in |x|^2), the
two-parameter kurtosis-tailored family (exponential in |x|^2 and |x|^4),
and free per-ring probabilities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, _check_pmf_length

# Probabilities below this are flushed to zero after normalization, so a pmf
# holds no subnormal mass. That does not keep the quadrature's products
# normal: its kernel floors do (awgn_mi.KERNEL_LOG_FLOOR and
# KERNEL_GRID_FLOOR), for every product in a mixture and for the kernel's
# products with masses of at least 1.5e-158.
PROB_FLOOR = 1e-300

PMF_SUM_TOL = 1e-12

# Buckets of the guide table per pmf entry, before rounding the bucket
# count up to a power of two: at most 1/64 of the uniforms land in a bucket
# that holds a CDF step and need a binary search.
GUIDE_BUCKETS_PER_POINT = 64


class Family(enum.Enum):
    UNIFORM = "uniform"
    MAXWELL_BOLTZMANN = "mb"
    KURTOSIS_TAILORED = "opt"
    PER_RING = "per_ring"


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over constellation points. Equality
    and hash go by identity, since the probabilities are an array."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("pmf must be one-dimensional")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise ValueError("pmf entries must be finite and non-negative")
        if abs(probs.sum() - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"pmf sums to {probs.sum()!r}, expected 1")
        probs = np.where(probs < PROB_FLOOR, 0.0, probs)
        probs = probs / probs.sum()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ShapingParams:
    """Family selector plus its parameters.

    ``lam`` is the Maxwell-Boltzmann rate; ``nu1``/``nu2`` weight the
    second and fourth power moments in the tailored family; ``ring_probs``
    gives total per-ring masses for the free per-ring family.
    """

    family: Family
    lam: float = 0.0
    nu1: float = 0.0
    nu2: float = 0.0
    ring_probs: tuple[float, ...] | None = None


def uniform_pmf(constellation: Constellation) -> Pmf:
    return tailored_pmf(constellation, 0.0, 0.0)


def mb_pmf(constellation: Constellation, lam: float) -> Pmf:
    """Maxwell-Boltzmann pmf, p_i proportional to exp(-lam |x_i|^2)."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    return tailored_pmf(constellation, lam, 0.0)


def tailored_pmf(constellation: Constellation, nu1: float, nu2: float) -> Pmf:
    """Two-parameter pmf, p_i proportional to exp(-nu1 |x_i|^2 - nu2 |x_i|^4).

    The one exponential builder: :func:`uniform_pmf` is its (0, 0) point
    and :func:`mb_pmf` its (lam, 0) point. Positive nu2 suppresses the
    outer tail harder than any Maxwell-Boltzmann pmf, which is what pulls
    the excess kurtosis down; nu2 may take either sign.
    """
    if not (math.isfinite(nu1) and math.isfinite(nu2)):
        raise ValueError(f"nu1/nu2 must be finite, got {nu1!r}, {nu2!r}")
    r2 = constellation.sq_magnitudes
    exponents = -nu1 * r2 - nu2 * r2 * r2
    # Subtract the max exponent so exp never overflows; underflow is benign.
    weights = np.exp(exponents - exponents.max())
    return Pmf(weights / weights.sum())


def ring_pmf(constellation: Constellation, ring_probs) -> Pmf:
    """Pmf from total per-ring masses, split equally inside each ring."""
    q = np.asarray(ring_probs, dtype=np.float64)
    sizes = constellation.ring_sizes
    if q.shape != sizes.shape:
        raise ValueError(f"expected {sizes.size} ring probabilities, got {q.shape}")
    if np.any(q < 0.0) or abs(q.sum() - 1.0) > PMF_SUM_TOL:
        raise ValueError("ring probabilities must be non-negative and sum to 1")
    return Pmf((q / sizes)[constellation.ring_index])


def build_pmf(constellation: Constellation, params: ShapingParams) -> Pmf:
    """Instantiate the pmf described by ``params`` on ``constellation``."""
    if params.family is Family.UNIFORM:
        return uniform_pmf(constellation)
    if params.family is Family.MAXWELL_BOLTZMANN:
        return mb_pmf(constellation, params.lam)
    if params.family is Family.KURTOSIS_TAILORED:
        return tailored_pmf(constellation, params.nu1, params.nu2)
    if params.family is Family.PER_RING:
        if params.ring_probs is None:
            raise ValueError("per-ring family requires ring_probs")
        return ring_pmf(constellation, params.ring_probs)
    raise ValueError(f"unknown family {params.family!r}")


def ring_masses(constellation: Constellation, pmf: Pmf) -> np.ndarray:
    """Total probability carried by each ring."""
    _check_pmf_length(constellation, pmf.probs)
    return np.bincount(constellation.ring_index, weights=pmf.probs,
                       minlength=constellation.ring_sizes.size)


def excess_kurtosis(constellation: Constellation, pmf: Pmf) -> float:
    """E|X|^4 / (E|X|^2)^2 - 2 of the complex symbol; 0 for a complex
    Gaussian, exactly -1 for constant-modulus sets. Scale-invariant."""
    _check_pmf_length(constellation, pmf.probs)
    r2 = constellation.sq_magnitudes
    m2 = float(pmf.probs @ r2)
    if m2 <= 0.0:
        raise ValueError("mean power must be positive to define kurtosis")
    m4 = float(pmf.probs @ (r2 * r2))
    return m4 / (m2 * m2) - 2.0


def _inverse_cdf(pmf: Pmf):
    """The map from uniforms u in [0, 1) to point indices that
    ``Generator.choice(len(pmf), size, p=pmf.probs)`` applies to its one
    ``random(size)`` draw: ``cdf.searchsorted(u, side="right")`` with
    ``cdf = p.cumsum(); cdf /= cdf[-1]``. So ``inverse(rng.random(k))``
    returns choice's indices bit for bit and leaves ``rng`` in the same
    state.

    A guide table (Chen & Asau 1974; Devroye 1986, sec. III.2) gives the
    index without a search for almost every u. There are T buckets, T a
    power of two so that u * T and b / T are exact. edges[b] =
    ``cdf.searchsorted(b / T, side="right")`` counts the CDF values at most
    b / T, those with ceil(cdf * T) <= b, so one bincount of the ceilings
    gives every edge. The search result is nondecreasing in u, so it is
    edges[b] for every u in [b / T, (b + 1) / T) when edges[b] ==
    edges[b + 1]. The uniforms in the other buckets, which hold a CDF step,
    go through the search.
    """
    cdf = pmf.probs.cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (GUIDE_BUCKETS_PER_POINT * cdf.size - 1).bit_length()
    edges = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1).cumsum()
    guide = edges[:-1]
    guide[edges[1:] != guide] = -1  # a bucket with a step: search it

    def inverse(u: np.ndarray) -> np.ndarray:
        idx = guide[(u * buckets).astype(np.intp)]
        stepped = np.flatnonzero(idx < 0)
        idx[stepped] = cdf.searchsorted(u[stepped], side="right")
        return idx

    return inverse


def entropy(pmf: Pmf) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = pmf.probs[pmf.probs > 0.0]
    return float(-(p * np.log2(p)).sum())
