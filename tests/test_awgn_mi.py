"""Quadrature and Monte-Carlo MI tests with independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlshaping import (
    Pmf,
    entropy,
    gauss_hermite,
    mb_pmf,
    mi_awgn_2d,
    mi_monte_carlo,
    normalized,
    ring_pmf,
    square_qam,
    uniform_pmf,
)
from nlshaping.awgn_mi import LN2, _is_dihedral
from nlshaping.shaping import is_ring_constant

SQRT_PI = math.sqrt(math.pi)


def dense_mi_awgn_2d(constellation, pmf, snr_db, rule=None):
    """Oracle: the same Gauss-Hermite MI from the dense M x M mixture.

    Sums the mixture over every constellation point for every node pair
    (in rep-axis chunks), with no use of the Cartesian structure; the
    orbit reduction is gated on ring-constancy.
    """
    rule = rule or gauss_hermite(16)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    sigma = np.sqrt(sigma2)

    x = constellation.points
    p = pmf.probs
    if is_ring_constant(constellation, pmf):
        reps = constellation.orbit_reps
        mult = constellation.orbit_sizes.astype(np.float64)
    else:
        reps = np.arange(constellation.order)
        mult = np.ones(constellation.order)
    keep = p[reps] > 0.0
    reps, mult = reps[keep], mult[keep]

    t = rule.nodes
    w2d = np.outer(rule.weights, rule.weights) / np.pi
    tmax = float(np.abs(t).max())

    acc = 0.0
    chunk = max(1, 3_000_000 // (rule.order * constellation.order))
    for lo in range(0, reps.size, chunk):
        r = reps[lo : lo + chunk]
        d = x[r][:, None] - x[None, :]                     # (R, M)
        dr, di = d.real, d.imag
        # term(a, b, j) = p_j exp(-(|d_j|^2 + 2 Re(d_j conj(n_ab))) / s2)
        # with n_ab = sigma (t_a + i t_b), split into two rank-one
        # exponents, each shifted by its maximum over the nodes.
        mu = (2.0 * tmax / sigma) * np.abs(dr)
        mv = (2.0 * tmax / sigma) * np.abs(di)
        base = p[None, :] * np.exp(-(dr * dr + di * di) / sigma2 + mu + mv)
        u = np.exp((-2.0 / sigma) * dr[:, None, :] * t[None, :, None] - mu[:, None, :])
        v = np.exp((-2.0 / sigma) * di[:, None, :] * t[None, :, None] - mv[:, None, :])
        inner = np.matmul(base[:, None, :] * u, np.swapaxes(v, 1, 2))  # (R, A, B)
        log_mix = np.log(inner)
        per_rep = np.tensordot(log_mix, w2d, axes=([1, 2], [0, 1]))
        acc += float((p[r] * mult[lo : lo + chunk] * per_rep).sum())

    return float(np.clip(-acc / LN2, 0.0, entropy(pmf)))


def dihedral_sum(grid):
    """Sum of a square matrix over the eight symmetries of the square."""
    out = np.zeros_like(grid)
    for g in (grid, grid.T):
        out += g + g[::-1] + g[:, ::-1] + g[::-1, ::-1]
    return out


def split_shell_64qam():
    """Dihedral 64QAM pmf that is not ring-constant: the merged ring
    |x|^2 = 50 = 1 + 49 = 25 + 25 carries two probabilities."""
    c = square_qam(64)
    probs = np.ones(64)
    probs[np.isclose(c.points, 5 + 5j)] = 3.0   # orbit of (5, 5)
    grid = dihedral_sum(probs.reshape(8, 8))
    return c, Pmf(grid.ravel() / grid.sum())


def hermite_moment(m: int) -> float:
    """Oracle: integral of t^m exp(-t^2) over the real line."""
    if m % 2 == 1:
        return 0.0
    return math.gamma((m + 1) / 2)


def bpsk_mi_quad(snr_per_dim: float) -> float:
    """Oracle: BPSK MI over the real AWGN channel by adaptive quadrature.

    Independent of the Gauss-Hermite path: different rule (QUADPACK),
    different decomposition (per real dimension).
    """
    s2 = 1.0 / snr_per_dim  # noise variance for unit symbol power

    def integrand(t):
        # y = 1 + sqrt(s2) * t with t standard normal, x = +1 sent
        arg = -2.0 * (1.0 + math.sqrt(s2) * t) / s2
        phi = math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
        return phi * math.log2(1.0 + math.exp(arg))

    loss, _ = quad(integrand, -40, 40, limit=200)
    return 1.0 - loss


def unit(order):
    c = square_qam(order)
    return normalized(c, uniform_pmf(c)), uniform_pmf(c)


class TestGaussHermite:
    def test_order_2_closed_form(self):
        rule = gauss_hermite(2)
        np.testing.assert_allclose(sorted(rule.nodes), [-1 / np.sqrt(2), 1 / np.sqrt(2)],
                                   atol=1e-14)
        np.testing.assert_allclose(rule.weights, [SQRT_PI / 2] * 2, atol=1e-14)

    def test_order_3_closed_form(self):
        rule = gauss_hermite(3)
        np.testing.assert_allclose(sorted(rule.nodes),
                                   [-np.sqrt(1.5), 0.0, np.sqrt(1.5)], atol=1e-14)
        weights = dict(zip(np.round(rule.nodes, 12), rule.weights))
        assert weights[0.0] == pytest.approx(2 * SQRT_PI / 3, abs=1e-14)
        assert weights[np.round(np.sqrt(1.5), 12)] == pytest.approx(SQRT_PI / 6, abs=1e-14)

    @pytest.mark.parametrize("order", [2, 8, 16, 33, 64])
    def test_weight_sum_and_symmetry(self, order):
        rule = gauss_hermite(order)
        assert rule.weights.sum() == pytest.approx(SQRT_PI, abs=1e-12)
        np.testing.assert_allclose(np.sort(rule.nodes), -np.sort(rule.nodes)[::-1],
                                   atol=1e-13)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_exactness_against_analytic_moments(self, order):
        rule = gauss_hermite(order)
        for m in range(2 * order):
            got = float(rule.weights @ rule.nodes**m)
            want = hermite_moment(m)
            if want == 0.0:
                assert abs(got) < 1e-8 * hermite_moment(m - 1 if m else 0)
            else:
                assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("order", [1, 0, 65, -3])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            gauss_hermite(order)


class TestMiQuadrature:
    def test_vanishing_snr(self):
        c, pmf = unit(16)
        assert mi_awgn_2d(c, pmf, -60.0) < 0.01

    def test_saturation_at_entropy(self):
        c, pmf = unit(16)
        assert mi_awgn_2d(c, pmf, 60.0) == pytest.approx(4.0, abs=1e-3)

    def test_rejects_unnormalized(self):
        c = square_qam(16)
        with pytest.raises(ValueError, match="unit power"):
            mi_awgn_2d(c, uniform_pmf(c), 10.0)

    @pytest.mark.parametrize("snr_db", [0.0, 5.0, 10.0])
    def test_qpsk_against_independent_quadrature(self, snr_db):
        qpsk = square_qam(4, min_order=4)
        pmf = uniform_pmf(qpsk)
        want = 2.0 * bpsk_mi_quad(10 ** (snr_db / 10))
        # QPSK = two independent BPSK channels at the same per-dimension SNR.
        # Order 64 pins the formula; order 16 carries ~5e-4 truncation at
        # mid SNR (it is ~1e-8 accurate at 18 dB).
        exact = mi_awgn_2d(normalized(qpsk, pmf), pmf, snr_db, gauss_hermite(64))
        assert exact == pytest.approx(want, abs=1e-6)
        production = mi_awgn_2d(normalized(qpsk, pmf), pmf, snr_db)
        assert production == pytest.approx(want, abs=1e-3)

    def test_matches_monte_carlo_64qam(self):
        c, pmf = unit(64)
        gh = mi_awgn_2d(c, pmf, 18.0)
        mc, se = mi_monte_carlo(c, pmf, 18.0, 200_000, seed=2)
        assert abs(gh - mc) < max(3 * se, 0.005)

    def test_shaped_pmf_matches_monte_carlo(self):
        c = square_qam(64)
        pmf = mb_pmf(c, 1.0 / 42.0)
        cn = normalized(c, pmf)
        gh = mi_awgn_2d(cn, pmf, 10.0)
        mc, se = mi_monte_carlo(cn, pmf, 10.0, 200_000, seed=3)
        assert abs(gh - mc) < max(3 * se, 0.005)

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_monotone_in_snr(self, order):
        c, pmf = unit(order)
        grid = np.arange(0.0, 26.0, 1.0)
        values = [mi_awgn_2d(c, pmf, s) for s in grid]
        assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("order", [1024, 4096])
    def test_monotone_in_snr_large(self, order):
        c, pmf = unit(order)
        grid = [0.0, 6.0, 12.0, 18.0, 24.0]
        values = [mi_awgn_2d(c, pmf, s) for s in grid]
        assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0])
    def test_bounds(self, snr_db):
        c, pmf = unit(64)
        mi = mi_awgn_2d(c, pmf, snr_db)
        cap = math.log2(1.0 + 10 ** (snr_db / 10))
        assert 0.0 <= mi <= min(entropy(pmf), cap) + 1e-6

    def test_quadrature_order_converged_1024(self):
        c, pmf = unit(1024)
        a = mi_awgn_2d(c, pmf, 18.0, gauss_hermite(16))
        b = mi_awgn_2d(c, pmf, 18.0, gauss_hermite(32))
        assert abs(a - b) < 1e-4

    def test_orbit_reduction_matches_full_path(self):
        # Defeat dihedral symmetry with a sum-preserving perturbation big
        # enough to force the full-sum path, small enough to keep MI put.
        # The split-shell pmf takes the reduced path although it is not
        # ring-constant.
        split_raw, split_pmf = split_shell_64qam()
        assert not is_ring_constant(split_raw, split_pmf)
        uniform_raw = square_qam(64)
        for raw, pmf in ((uniform_raw, uniform_pmf(uniform_raw)), (split_raw, split_pmf)):
            c = normalized(raw, pmf)
            probs = pmf.probs.copy()
            probs[0] += 5e-12
            probs[1] -= 5e-12
            perturbed = Pmf(probs)

            assert _is_dihedral(pmf.probs.reshape(8, 8))
            assert not _is_dihedral(perturbed.probs.reshape(8, 8))
            fast = mi_awgn_2d(c, pmf, 12.0)
            slow = mi_awgn_2d(c, perturbed, 12.0)
            assert fast == pytest.approx(slow, abs=1e-8)

    @given(
        order=st.sampled_from([16, 64, 256, 1024]),
        snr_db=st.floats(-5.0, 35.0),
        kind=st.sampled_from(
            ["ring_constant", "dihedral", "transpose_only", "flips_only", "asymmetric"]
        ),
        spread=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_separable_matches_dense_oracle(self, order, snr_db, kind, spread, seed):
        # Log-normal weights: spread 8 puts probabilities ~1e-10 apart.
        rng = np.random.default_rng(seed)
        raw = square_qam(order)
        m = int(math.isqrt(order))
        if kind == "ring_constant":
            w = np.exp(spread * rng.standard_normal(len(raw.rings)))
            pmf = ring_pmf(raw, w / w.sum())
        else:
            grid = np.exp(spread * rng.standard_normal((m, m)))
            if kind == "dihedral":
                grid = dihedral_sum(grid)
            elif kind == "transpose_only":
                grid = grid + grid.T
            elif kind == "flips_only":
                grid = grid + grid[::-1]
                grid = grid + grid[:, ::-1]
            pmf = Pmf(grid.ravel() / grid.sum())
        dihedral = kind in ("ring_constant", "dihedral")
        assert _is_dihedral(pmf.probs.reshape(m, m)) == dihedral
        c = normalized(raw, pmf)
        assert mi_awgn_2d(c, pmf, snr_db) == pytest.approx(
            dense_mi_awgn_2d(c, pmf, snr_db), abs=1e-12
        )


class TestMonteCarlo:
    def test_seed_repetition_bit_identical(self):
        c, pmf = unit(16)
        a = mi_monte_carlo(c, pmf, 10.0, 50_000, seed=11)
        b = mi_monte_carlo(c, pmf, 10.0, 50_000, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        c, pmf = unit(16)
        a = mi_monte_carlo(c, pmf, 10.0, 50_000, seed=11)
        b = mi_monte_carlo(c, pmf, 10.0, 50_000, seed=12)
        assert a != b

    def test_sample_floor(self):
        c, pmf = unit(16)
        with pytest.raises(ValueError, match="1e4"):
            mi_monte_carlo(c, pmf, 10.0, 9_999, seed=1)

    def test_standard_error_scaling(self):
        c, pmf = unit(64)
        _, se_n = mi_monte_carlo(c, pmf, 10.0, 100_000, seed=4)
        _, se_2n = mi_monte_carlo(c, pmf, 10.0, 200_000, seed=4)
        ratio = se_n / se_2n
        assert math.sqrt(2) * 0.8 < ratio < math.sqrt(2) * 1.2

    @pytest.mark.parametrize("snr_db", [-60.0, 60.0])
    def test_extreme_snr_consistent_with_quadrature(self, snr_db):
        c, pmf = unit(16)
        mc, se = mi_monte_carlo(c, pmf, snr_db, 50_000, seed=5)
        gh = mi_awgn_2d(c, pmf, snr_db)
        assert abs(mc - gh) < max(3 * se, 1e-3)
