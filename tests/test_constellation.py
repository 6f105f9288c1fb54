"""Geometry tests: grids, rings, moments, normalization."""

import hashlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from nlshaping import (
    Constellation,
    Pmf,
    mb_pmf,
    mean_power,
    normalized,
    square_qam,
    tailored_pmf,
    uniform_pmf,
)

ALL_ORDERS = [16, 64, 256, 1024, 4096]

# sha256 over the levels, points and squared magnitudes of the raw grid and
# of the grid normalized under a uniform, an MB and a tailored pmf
# (TestBitPins): however the grid is built, these bits stay.
PINNED_GRID_SHA256 = {
    16: "8a757495f981325d63b4eacd3717e758ed5fed6def64b2b498f746d6c6dbefaf",
    64: "6d71b0867b4ed2b40e531a03d1dc1c59dec38ed5e07fc88b9ea292335354a404",
    256: "b6b672d1e21ac49d13a367ce72f52fa6ffbe5aa660d6c6e809131a055654d629",
    1024: "0bf80cdb9330c9e7b574f2a6bb28151933e44f35b6f7f82cddd08461aa7180c2",
    4096: "81c099a72be3de464cc2eb743200be7370383a3fb79c172a7ae95d195cf81db1",
}


def enumerate_rings(order):
    """Independent oracle: bucket the odd-integer grid by squared radius."""
    m = int(round(order**0.5))
    levels = range(-(m - 1), m, 2)
    buckets = {}
    for i, q in itertools.product(levels, levels):
        buckets.setdefault(i * i + q * q, 0)
        buckets[i * i + q * q] += 1
    return buckets


class TestSquareQam:
    def test_16qam_rings(self):
        c = square_qam(16)
        assert c.order == 16
        assert len(c.points) == 16
        got = dict(zip(c.ring_sq.tolist(), c.ring_sizes.tolist()))
        assert got == {2: 4, 10: 8, 18: 4}
        assert got == enumerate_rings(16)

    def test_64qam_merged_shell(self):
        c = square_qam(64)
        assert c.ring_sq.size == 9
        # 50 = 1 + 49 = 25 + 25: two geometric shells, one ring of 12 points
        ring50 = np.flatnonzero(c.ring_index == np.flatnonzero(c.ring_sq == 50)[0])
        assert ring50.size == 12
        np.testing.assert_array_equal(ring50, np.flatnonzero(c.sq_magnitudes == 50.0))
        shells = {tuple(sorted((abs(x.real), abs(x.imag)))) for x in c.points[ring50]}
        assert shells == {(1.0, 7.0), (5.0, 5.0)}
        assert dict(zip(c.ring_sq.tolist(), c.ring_sizes.tolist())) == enumerate_rings(64)

    def test_order_4_rejected_qpsk_from_levels(self):
        with pytest.raises(ValueError, match="outside the supported range"):
            square_qam(4)
        c = Constellation(2)
        assert c.order == 4
        np.testing.assert_array_equal(c.ring_sizes, [4])
        np.testing.assert_array_equal(c.ring_index, np.zeros(4))

    @pytest.mark.parametrize("bad", [32, 15, 100, 8192, 2])
    def test_invalid_orders_rejected(self, bad):
        with pytest.raises(ValueError):
            square_qam(bad)

    def test_non_integer_rejected(self):
        for bad in (16.0, np.float64(64.0), True, "256"):
            message = f"order must be an integer, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                square_qam(bad)

    @pytest.mark.parametrize("order", [np.int64(256), np.int32(16), np.uint16(64)])
    def test_numpy_integer_order(self, order):
        c = square_qam(order)
        assert c == square_qam(int(order))
        assert type(c.order) is int

    def test_point_ordering_row_major(self):
        c = square_qam(16)
        expected = [complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)]
        np.testing.assert_array_equal(c.points, expected)

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_ring_partition_covers_all_points(self, order):
        c = square_qam(order)
        assert c.ring_index.shape == (order,)
        np.testing.assert_array_equal(np.bincount(c.ring_index), c.ring_sizes)
        assert np.all(np.diff(c.ring_sq) > 0)
        # Exact on the integer grid: every point sits on its ring.
        np.testing.assert_array_equal(c.sq_magnitudes, c.ring_sq[c.ring_index])

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_quadrant_symmetry(self, order):
        c = square_qam(order)
        original = sorted(map(tuple, np.column_stack([c.points.real, c.points.imag])))
        rotated = c.points * 1j
        got = sorted(map(tuple, np.column_stack([rotated.real, rotated.imag])))
        assert original == got

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_dihedral_orbits_partition(self, order):
        c = square_qam(order)
        assert int(c.orbit_sizes.sum()) == order
        r2 = c.sq_magnitudes
        covered = np.zeros(order, dtype=int)
        for rep, size in zip(c.orbit_reps, c.orbit_sizes):
            mask = np.isclose(
                np.maximum(np.abs(c.points.real), np.abs(c.points.imag)),
                max(abs(c.points[rep].real), abs(c.points[rep].imag)),
            ) & np.isclose(
                np.minimum(np.abs(c.points.real), np.abs(c.points.imag)),
                min(abs(c.points[rep].real), abs(c.points[rep].imag)),
            )
            assert mask.sum() == size
            assert np.flatnonzero(mask)[0] == rep
            assert np.allclose(r2[mask], r2[rep])
            covered += mask
        np.testing.assert_array_equal(covered, 1)


class TestConstruction:
    @pytest.mark.parametrize("side", [2, 4, 6, 8, 16, 64, np.int64(8)])
    @pytest.mark.parametrize("scale", [1.0, 0.25, 3, np.float32(0.5), 1e-3])
    def test_levels_are_odd_integers_times_scale(self, side, scale):
        c = Constellation(side, scale)
        assert type(c.side) is int and type(c.scale) is float
        assert c.order == side * side
        k = np.arange(-(side - 1), side, 2)
        np.testing.assert_array_equal(c.levels, k * float(scale))
        np.testing.assert_array_equal(c.points.real, np.repeat(c.levels, side))
        np.testing.assert_array_equal(c.points.imag, np.tile(c.levels, side))

    @pytest.mark.parametrize("side, message", [
        (3, "side must be even, got 3"),
        (1, "side must be at least 2, got 1"),
        (0, "side must be at least 2, got 0"),
        (-4, "side must be at least 2, got -4"),
        (4.0, "side must be an integer, got 4.0"),
        (True, "side must be an integer, got True"),
        ("4", "side must be an integer, got '4'"),
    ])
    def test_bad_side_named(self, side, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Constellation(side)

    @pytest.mark.parametrize("scale", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, True, "1", 1j])
    def test_bad_scale_named(self, scale):
        with pytest.raises(ValueError, match=re.escape(f"scale must be a finite number above 0, got {scale!r}")):
            Constellation(4, scale)

    @pytest.mark.parametrize("side, scale", [
        (2, 1e160),   # scale^2 itself overflows
        (64, 1e153),  # scale^2 = 1e306 is finite; 63^2 scale^2 is not
        (2, 1e154),   # each level squared is 1e308; only their sum overflows
    ])
    def test_overflowing_scale_named(self, side, scale):
        # Built, these grids held infinite squared magnitudes, and the
        # uniform pmf on them failed far from the cause.
        with pytest.raises(ValueError, match=re.escape(
                f"scale must keep 2 (side - 1)^2 scale^2 finite at side {side}, got {scale!r}")):
            Constellation(side, scale)

    def test_large_finite_scale_normalizes(self):
        c = Constellation(2, 1e77)
        assert np.all(np.isfinite(c.sq_magnitudes))
        assert normalized(c, uniform_pmf(c)).scale == pytest.approx(0.7071067811865476, rel=1e-15)

    def test_asymmetric_levels_cannot_be_built(self):
        # These levels are not the odd integers times a scale: the MI's
        # orbit reduction, which assumes the square's symmetry, scored the
        # grid 2.3241 bit at 6 dB against 2.0780 from a sum over every point.
        with pytest.raises(ValueError, match="side must be an integer"):
            Constellation(np.array([-3.0, -1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="cannot be specified with replace"):
            replace(square_qam(16), levels=np.array([-3.0, -1.0, 2.0, 3.0]))


class TestBitPins:
    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_grids_keep_their_bits(self, order):
        raw = square_qam(order)
        p_u = 2.0 * (order - 1) / 3.0
        pmfs = (uniform_pmf(raw), mb_pmf(raw, 1.0 / p_u), tailored_pmf(raw, -0.2 / p_u, 1.3 / p_u**2))
        digest = hashlib.sha256()
        for c in (raw, *(normalized(raw, pmf) for pmf in pmfs)):
            for a in (c.levels, c.points, c.sq_magnitudes):
                digest.update(a.tobytes())
        assert digest.hexdigest() == PINNED_GRID_SHA256[order]


class TestEquality:
    def test_same_order_and_scale_are_equal(self):
        assert square_qam(16) == square_qam(16)
        assert hash(square_qam(16)) == hash(square_qam(16))
        c = square_qam(64)
        assert normalized(c, uniform_pmf(c)) == normalized(square_qam(64), uniform_pmf(c))

    def test_scale_and_order_tell_apart(self):
        raw = square_qam(16)
        assert raw != normalized(raw, uniform_pmf(raw))
        assert raw != square_qam(64)

    def test_side_and_scale_are_the_whole_key(self):
        assert Constellation(4) == square_qam(16) == Constellation(np.int64(4), 1)
        assert hash(Constellation(4, 2)) == hash(Constellation(4, 2.0))
        assert Constellation(4, 2.0) != Constellation(4, np.nextafter(2.0, 3.0))
        assert replace(square_qam(16), scale=0.5) == Constellation(4, 0.5)

    def test_usable_as_dict_key(self):
        raw = square_qam(16)
        unit = normalized(raw, uniform_pmf(raw))
        table = {raw: "raw", unit: "unit"}
        assert len(table) == 2
        assert table[square_qam(16)] == "raw"
        assert table[normalized(square_qam(16), uniform_pmf(raw))] == "unit"


class TestMeanPower:
    def test_uniform_16qam(self):
        c = square_qam(16)
        assert mean_power(c, uniform_pmf(c)) == pytest.approx(10.0, abs=1e-12)

    def test_uniform_64qam(self):
        c = square_qam(64)
        assert mean_power(c, uniform_pmf(c)) == pytest.approx(42.0, abs=1e-12)

    def test_point_mass(self):
        c = square_qam(16)
        for k in (0, 5, 15):
            probs = np.zeros(16)
            probs[k] = 1.0
            assert mean_power(c, Pmf(probs)) == pytest.approx(
                abs(c.points[k]) ** 2, rel=1e-12
            )

    def test_length_mismatch(self):
        c = square_qam(16)
        with pytest.raises(ValueError, match="does not match"):
            mean_power(c, Pmf(np.full(64, 1 / 64)))


class TestUniformPower:
    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_is_exact_mean_power_of_uniform_pmf(self, order):
        # On the odd-integer grid P_u = 2 (M - 1) / 3 exactly.
        c = square_qam(order)
        assert c.uniform_power == 2.0 * (order - 1) / 3.0
        assert c.uniform_power == mean_power(c, uniform_pmf(c))

    @pytest.mark.filterwarnings("error")
    def test_finite_at_the_largest_scales(self):
        # Every scale the constructor takes keeps P_u finite; the mean of
        # the squared magnitudes overflowed here (inf at QPSK, 7e153).
        for side, scale in ((2, 7e153), (64, 1.4e152)):
            c = Constellation(side, scale)
            want = mean_power(c, uniform_pmf(c))
            assert np.isfinite(want)
            assert c.uniform_power == pytest.approx(want, rel=1e-15)


class TestNormalized:
    def test_uniform_16qam_scale(self):
        c = square_qam(16)
        n = normalized(c, uniform_pmf(c))
        np.testing.assert_allclose(n.points, c.points / np.sqrt(10.0), rtol=1e-14)
        assert mean_power(n, uniform_pmf(c)) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        c = square_qam(64)
        pmf = uniform_pmf(c)
        once = normalized(c, pmf)
        twice = normalized(once, pmf)
        np.testing.assert_allclose(twice.points, once.points, rtol=1e-12)

    def test_mb_shaped_64qam(self):
        c = square_qam(64)
        pmf = mb_pmf(c, 0.02)
        n = normalized(c, pmf)
        assert mean_power(n, pmf) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(n.sq_magnitudes, c.sq_magnitudes / mean_power(c, pmf),
                                   rtol=1e-15)

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_shares_structure_and_rescales_levels_only(self, order):
        raw = square_qam(order)
        pmf = mb_pmf(raw, 1.0 / order)
        n = normalized(raw, pmf)
        for name in ("ring_index", "ring_sizes", "ring_sq", "orbit_reps", "orbit_sizes"):
            assert getattr(n, name) is getattr(raw, name), name
        scale = 1.0 / np.sqrt(mean_power(raw, pmf))
        np.testing.assert_array_equal(n.levels, raw.levels * scale)
        # The points are the raw points rescaled, to the bit.
        np.testing.assert_array_equal(n.points, raw.points * scale)

    def test_structure_is_read_only(self):
        c = square_qam(16)
        for name in ("levels", "points", "sq_magnitudes", "ring_index", "ring_sizes",
                     "ring_sq", "orbit_reps", "orbit_sizes"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(c, name)[0] = 0

    def test_rejects_zero_power(self):
        # A grid of zero power has scale 0, which the constructor refuses.
        with pytest.raises(ValueError, match="scale must be a finite number above 0, got 0.0"):
            Constellation(2, 0.0)
        with pytest.raises(ValueError, match="not positive"):
            normalized(Constellation(2), np.zeros(4))
