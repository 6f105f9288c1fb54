"""Square QAM constellations: a level grid and what derives from it.

A constellation is its sqrt(M) one-dimensional levels, the odd integers
{+-1, +-3, ..., +-(sqrt(M)-1)} times a positive scale; its points are
row-major over the (I, Q) level pairs. The scale-free structure, which
amplitude ring and which symmetry orbit each point belongs to, comes
once per side from the integer level indices, so rescaling never
rebuilds it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class Constellation:
    """Square QAM constellation held as its 1-D levels.

    ``levels`` (ascending, length sqrt(M)) are the odd integers times a
    positive scale, on both axes. Derived once per instance: ``order``,
    the row-major ``points`` and their ``sq_magnitudes``. Shared by every
    instance of a side, from the integer level indices: ``ring_index``
    (point -> ring), ``ring_sizes``, ``ring_sq`` (ring squared magnitudes
    on the integer grid), and one representative index per dihedral
    orbit with the orbit sizes. Arrays are read-only, so instances are
    safe to share across workers. Equality and hash go by ``levels``,
    from which every other field derives.
    """

    levels: np.ndarray
    order: int = field(init=False)
    points: np.ndarray = field(init=False, repr=False)
    sq_magnitudes: np.ndarray = field(init=False, repr=False)
    ring_index: np.ndarray = field(init=False, repr=False)
    ring_sizes: np.ndarray = field(init=False, repr=False)
    ring_sq: np.ndarray = field(init=False, repr=False)
    orbit_reps: np.ndarray = field(init=False, repr=False)
    orbit_sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        levels = np.array(self.levels, dtype=np.float64)
        if levels.ndim != 1 or levels.size < 2:
            raise ValueError(f"levels must be a 1-D array of at least 2, got shape {levels.shape}")
        m = levels.size
        points = np.empty((m, m), dtype=np.complex128)
        points.real = levels[:, None]
        points.imag = levels
        # re^2 + im^2 rather than |x|^2: exact on the integer grid.
        sq = levels * levels
        derived = dict(
            levels=levels,
            order=m * m,
            points=points.ravel(),
            sq_magnitudes=(sq[:, None] + sq).ravel(),
        )
        _read_only(levels, derived["points"], derived["sq_magnitudes"])
        names = ("ring_index", "ring_sizes", "ring_sq", "orbit_reps", "orbit_sizes")
        derived.update(zip(names, _grid_structure(m)))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, Constellation):
            return NotImplemented
        return np.array_equal(self.levels, other.levels)

    def __hash__(self):
        return hash(self.levels.tobytes())


def square_qam(order: int) -> Constellation:
    """Build the square QAM constellation of the given order on the
    odd-integer grid."""
    order = _int_at_least("order", order, 1)
    if order not in SUPPORTED_ORDERS:
        raise ValueError(
            f"order {order!r} outside the supported range: square QAM of "
            f"order {', '.join(map(str, SUPPORTED_ORDERS))}"
        )
    m = math.isqrt(order)
    return Constellation(np.arange(-(m - 1), m, 2, dtype=np.float64))


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
    """Rescale the levels so the constellation has unit mean power under
    ``pmf``. Rings, orbits and point ordering are unchanged."""
    scale = 1.0 / np.sqrt(mean_power(constellation, pmf))
    return Constellation(constellation.levels * scale)
