"""Square QAM constellations: a level grid and what derives from it.

A constellation is its side and scale: sqrt(M) one-dimensional levels,
the odd integers {+-1, +-3, ..., +-(sqrt(M)-1)} times a positive scale;
its points are row-major over the (I, Q) level pairs. The scale-free
structure, which amplitude ring and which symmetry orbit each point
belongs to, comes once per side from the integer level indices, so
rescaling never rebuilds it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

SUPPORTED_ORDERS = (16, 64, 256, 1024, 4096)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _grid_structure(side: int):
    """Rings and dihedral orbits of the side x side odd-integer grid.

    Rings group points of equal squared magnitude, in ascending order,
    even when they come from different geometric shells (50 = 1 + 49 =
    25 + 25 in 64QAM). Orbits group points that map onto each other by a
    90-degree rotation or a reflection of the square; each is keyed by
    its larger and smaller absolute level and represented by its
    lowest-index point. All values are exact integers.

    Returns (ring_index, ring_sizes, ring_sq, orbit_reps, orbit_sizes).
    """
    k = np.arange(-(side - 1), side, 2)
    i, q = np.meshgrid(k, k, indexing="ij")
    ring_sq, ring_index, ring_sizes = np.unique(
        (i * i + q * q).ravel(), return_inverse=True, return_counts=True
    )
    a = np.maximum(np.abs(i), np.abs(q)).ravel()
    b = np.minimum(np.abs(i), np.abs(q)).ravel()
    _, orbit_reps, orbit_sizes = np.unique(
        a * (side + 1) + b, return_index=True, return_counts=True
    )
    return _read_only(ring_index, ring_sizes, ring_sq, orbit_reps, orbit_sizes)


_derived = functools.partial(field, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Constellation:
    """Square QAM constellation: ``side`` levels per axis, an even integer
    of at least 2 (QPSK is side 2), times ``scale``, finite and above 0.

    Equality and hash go by (side, scale), from which every other field
    derives. Per instance: the ascending ``levels``, ``order`` = side^2,
    the row-major ``points`` and their ``sq_magnitudes``. Shared by every
    instance of a side: ``ring_index`` (point -> ring), ``ring_sizes``,
    ``ring_sq`` (ring squared magnitudes on the integer grid), and one
    representative index per dihedral orbit with the orbit sizes. Arrays
    are read-only, so instances are safe to share across workers.
    """

    side: int
    scale: float = 1.0
    levels: np.ndarray = _derived()
    order: int = _derived()
    points: np.ndarray = _derived()
    sq_magnitudes: np.ndarray = _derived()
    ring_index: np.ndarray = _derived()
    ring_sizes: np.ndarray = _derived()
    ring_sq: np.ndarray = _derived()
    orbit_reps: np.ndarray = _derived()
    orbit_sizes: np.ndarray = _derived()

    def __post_init__(self):
        side = _int_at_least("side", self.side, 2)
        if side % 2:
            raise ValueError(f"side must be even, got {side}")
        scale = self.scale
        if (isinstance(scale, bool) or not isinstance(scale, numbers.Real)
                or not math.isfinite(scale) or scale <= 0):
            raise ValueError(f"scale must be a finite number above 0, got {scale!r}")
        scale = float(scale)
        # The largest squared magnitude, 2 (side - 1)^2 scale^2, as the
        # arrays below form it: the outer level squared, then the sum.
        top = (side - 1) * scale
        if not math.isfinite(top * top + top * top):
            raise ValueError(f"scale must keep 2 (side - 1)^2 scale^2 finite at side "
                             f"{side}, got {scale!r}")
        levels = np.arange(-(side - 1), side, 2, dtype=np.float64) * scale
        points = np.empty((side, side), dtype=np.complex128)
        points.real = levels[:, None]
        points.imag = levels
        # re^2 + im^2 rather than |x|^2: exact on the integer grid.
        sq = levels * levels
        derived = dict(side=side, scale=scale, levels=levels, order=side * side,
                       points=points.ravel(), sq_magnitudes=(sq[:, None] + sq).ravel())
        _read_only(levels, derived["points"], derived["sq_magnitudes"])
        names = ("ring_index", "ring_sizes", "ring_sq", "orbit_reps", "orbit_sizes")
        derived.update(zip(names, _grid_structure(side)))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def uniform_power(self) -> float:
        """P_u = 2 (M - 1) / 3 scale^2, the uniform pmf's mean power: exact on
        the integer grid, and the unit of the shaping searches' scaled rates."""
        return 2.0 * (self.order - 1) / 3.0 * self.scale * self.scale

    def level_indices(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices (i, q) of the levels nearest to the real and imaginary
        part of each value; ``points[i * side + q]`` is the point nearest
        to it. One rounding per axis instead of a distance to each of the
        M points."""
        lo, step = -(self.side - 1) * self.scale, 2.0 * self.scale
        return tuple(np.clip(np.rint((part - lo) / step), 0, self.side - 1).astype(np.intp)
                     for part in (values.real, values.imag))


def square_qam(order: int) -> Constellation:
    """Build the square QAM constellation of the given order on the
    odd-integer grid."""
    order = _int_at_least("order", order, 1)
    if order not in SUPPORTED_ORDERS:
        raise ValueError(
            f"order {order!r} outside the supported range: square QAM of "
            f"order {', '.join(map(str, SUPPORTED_ORDERS))}"
        )
    return Constellation(math.isqrt(order))


def _int_at_least(name: str, value, least: int) -> int:
    """``value`` as an ``int``: a Python or numpy integer, not a bool, of
    at least ``least``; otherwise a ValueError naming ``name``. A numpy
    integer would carry its width, or its lack of a sign, into later
    arithmetic."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _check_pmf_length(constellation: Constellation, probs: np.ndarray) -> None:
    if probs.shape != (constellation.order,):
        raise ValueError(
            f"pmf length {probs.shape} does not match constellation order "
            f"{constellation.order}"
        )


def mean_power(constellation: Constellation, pmf) -> float:
    """Average symbol power sum_i p_i |x_i|^2 under the given pmf."""
    probs = np.asarray(getattr(pmf, "probs", pmf), dtype=np.float64)
    _check_pmf_length(constellation, probs)
    power = float(probs @ constellation.sq_magnitudes)
    if power <= 0.0:
        raise ValueError("mean power is not positive under this pmf")
    return power


def normalized(constellation: Constellation, pmf) -> Constellation:
    """The constellation rescaled to unit mean power under ``pmf``.
    Rings, orbits and point ordering are unchanged."""
    scale = 1.0 / np.sqrt(mean_power(constellation, pmf))
    return replace(constellation, scale=constellation.scale * scale)
