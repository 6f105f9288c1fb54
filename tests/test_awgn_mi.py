"""Quadrature and Monte-Carlo MI tests with independent oracles."""

import contextlib
import math
import re
import resource
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlshaping import (
    Constellation,
    Pmf,
    awgn_mi,
    entropy,
    gauss_hermite,
    mb_pmf,
    mi_awgn_2d,
    mi_monte_carlo,
    normalized,
    ring_pmf,
    square_qam,
    ssfm,
    tailored_pmf,
    uniform_pmf,
)
from nlshaping.awgn_mi import (
    BLAS_ONE_THREAD_MNK,
    EXP_UNDERFLOW,
    LN2,
    MIX_FLOOR,
    POSTERIOR_BLOCK,
    POSTERIOR_CHUNK,
    PROB_TINY,
    ROW_SKEW,
    _is_dihedral,
    _mi_and_gradient,
    _neg_log_posterior,
    _neg_log_posterior_chunks,
    _posterior_layout,
    _require_unit_power,
    _snr_to_sigma2,
)
from nlshaping.constellation import SUPPORTED_ORDERS
from nlshaping.shaping import GUIDE_BUCKETS_PER_POINT
from nlshaping.ssfm import mi_from_samples

SQRT_PI = math.sqrt(math.pi)


def is_ring_constant(constellation, pmf, tol=1e-13):
    """Oracle: True when points of equal squared magnitude carry equal
    probability. Groups the magnitudes themselves (equal to one part in
    1e9 of the largest), not the constellation's ring arrays."""
    r2 = constellation.sq_magnitudes
    order = np.argsort(r2, kind="stable")
    breaks = np.flatnonzero(np.diff(r2[order]) > 1e-9 * r2.max()) + 1
    return all(np.ptp(pmf.probs[ring]) <= tol for ring in np.split(order, breaks))


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


def every_point_mi_awgn_2d(constellation, pmf, snr_db):
    """Oracle: the 16-node Gauss-Hermite MI summed over every sent point,
    each mixture a log-sum-exp over every point, with no orbit reduction
    and no split into I and Q kernels."""
    nodes, weights = np.polynomial.hermite.hermgauss(16)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    noise = (math.sqrt(sigma2) * (nodes[:, None] + 1j * nodes[None, :])).ravel()
    w = np.outer(weights, weights).ravel() / np.pi
    x, p = constellation.points, pmf.probs
    total = 0.0
    for s in np.flatnonzero(p > 0.0):
        y = x[s] + noise
        # log p_j - (|y - x_j|^2 - |y - x_s|^2) / sigma^2, over every j.
        a = np.log(p) - (np.abs(y[:, None] - x) ** 2 - np.abs(noise[:, None]) ** 2) / sigma2
        a_max = a.max(axis=1)
        total += p[s] * float(w @ (a_max + np.log(np.exp(a - a_max[:, None]).sum(axis=1))))
    return min(max(-total / LN2, 0.0), entropy(pmf))


def dense_neg_log_posterior(y, idx, x, logp, sigma2):
    """Oracle: -log P(x_idx | y) in nats from the dense (samples, M)
    log-sum-exp over every constellation point."""
    k = y.size
    xq = np.vstack([x.real, x.imag])                      # (2, M)
    x2 = np.abs(x) ** 2
    yq = np.empty((k, 2))
    yq[:, 0], yq[:, 1] = y.real, y.imag
    # a_j = log p_j - |y - x_j|^2 / s2, dropping the |y|^2 term common to all j
    a = logp[None, :] + (2.0 * (yq @ xq) - x2[None, :]) / sigma2
    a_max = a.max(axis=1)
    a_true = a[np.arange(k), idx]
    np.subtract(a, a_max[:, None], out=a)
    np.maximum(a, EXP_UNDERFLOW, out=a)
    lse = a_max + np.log(np.exp(a).sum(axis=1))
    return lse - a_true


def dense_mi_monte_carlo(constellation, pmf, snr_db, samples, seed):
    """Oracle: the Monte-Carlo estimator with the dense posterior, drawing
    the same symbols and noise in the same order as ``mi_monte_carlo``."""
    sigma2 = 10.0 ** (-snr_db / 10.0)

    rng = np.random.default_rng(seed)
    x = constellation.points
    p = pmf.probs
    logp = np.where(p > 0.0, np.log(np.maximum(p, PROB_TINY)), -np.inf)

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
        neg_log_post = dense_neg_log_posterior(y, idx, x, logp, sigma2) / LN2
        total += float(neg_log_post.sum())
        total_sq += float((neg_log_post**2).sum())
        done += k

    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    mi = entropy(pmf) - mean
    return float(np.clip(mi, 0.0, entropy(pmf))), float(np.sqrt(var / samples))


def allocating_mi_awgn_2d(constellation, pmf, snr_db, rule=None):
    """Oracle: ``mi_awgn_2d`` with fresh temporaries for every array, the
    one-line quadrature the work arrays replaced. Same operations on the
    same operand layouts, so the results must agree bit for bit."""
    rule = rule or gauss_hermite(16)
    _require_unit_power(constellation, pmf)
    sigma = np.sqrt(_snr_to_sigma2(snr_db))

    p = pmf.probs
    m = constellation.levels.size
    grid = p.reshape(m, m)
    if _is_dihedral(grid):
        reps = constellation.orbit_reps
        mult = constellation.orbit_sizes.astype(np.float64)
    else:
        reps = np.arange(constellation.order)
        mult = np.ones(constellation.order)
    keep = p[reps] > 0.0
    reps, mult = reps[keep], mult[keep]

    levels, t = constellation.levels, rule.nodes
    d = (levels[:, None] - levels[None, :])[:, None, :]
    ell = -(d * d) / (sigma * sigma) - (2.0 / sigma) * d * t[None, :, None]
    shift = ell.max(axis=2)
    k = np.exp(ell - shift[:, :, None])
    ri, rq = np.divmod(reps, m)
    mix = (k @ grid)[ri] @ np.swapaxes(k, 1, 2)[rq]
    log_mix = np.log(mix) + shift[ri][:, :, None] + shift[rq][:, None, :]
    w2d = np.outer(rule.weights, rule.weights) / np.pi
    per_rep = np.tensordot(log_mix, w2d, axes=([1, 2], [0, 1]))

    mi = -float((p[reps] * mult * per_rep).sum()) / LN2
    return float(np.clip(mi, 0.0, entropy(pmf)))


def posterior_work(m, n):
    """Work arrays of ``_neg_log_posterior`` for calls of at most n samples
    at m levels: three flat float arrays of ``_posterior_layout``'s size."""
    size = m * _posterior_layout(m, n)[2]
    return np.empty(size), np.empty(size), np.empty(size)


def allocating_neg_log_posterior(y, i, q, levels, grid, sigma2):
    """Oracle: ``_neg_log_posterior`` with fresh (sqrt(M), chunk) kernels
    for every call, the body the work arrays replaced; bit for bit."""
    samples = np.arange(y.size)
    log_p = np.where(grid > 0.0, np.log(np.maximum(grid, PROB_TINY)), -np.inf)
    neg = -log_p[i, q]
    kernels = []
    for coord, sent in ((y.real, i), (y.imag, q)):
        ell = levels[:, None] - coord
        np.square(ell, out=ell)
        ell /= -sigma2
        ell -= ell.max(axis=0)
        neg -= ell[sent, samples]
        np.maximum(ell, EXP_UNDERFLOW, out=ell)
        kernels.append(np.exp(ell, out=ell))
    k_i, k_q = kernels
    mix = np.einsum("js,js->s", grid.T @ k_i, k_q)
    if mix.min() >= MIX_FLOOR:
        return neg + np.log(mix)

    tail = np.flatnonzero(mix < MIX_FLOOR)
    mix[tail] = 1.0
    neg += np.log(mix)
    y, i, q = y[tail], i[tail], q[tail]
    si, sq = np.nonzero(grid > 0.0)
    a = log_p[si, sq] - ((y.real[:, None] - levels[si]) ** 2
                         + (y.imag[:, None] - levels[sq]) ** 2) / sigma2
    a_max = a.max(axis=1)
    a_sent = log_p[i, q] - ((y.real - levels[i]) ** 2 + (y.imag - levels[q]) ** 2) / sigma2
    neg[tail] = a_max + np.log(np.exp(a - a_max[:, None]).sum(axis=1)) - a_sent
    return neg


PMF_KINDS = ("ring_constant", "dihedral", "transpose_only", "flips_only", "asymmetric")


def random_pmf(raw, kind, spread, rng):
    """A pmf on ``raw`` with log-normal weights of the given spread and
    the symmetry named by ``kind``; "tiny" gives log-uniform weights
    from 1 down to 1e-250."""
    m = int(math.isqrt(raw.order))
    if kind == "ring_constant":
        w = np.exp(spread * rng.standard_normal(raw.ring_sizes.size))
        return ring_pmf(raw, w / w.sum())
    if kind == "tiny":
        grid = 10.0 ** rng.uniform(-250.0, 0.0, (m, m))
        grid.flat[rng.integers(raw.order)] = 1e-250
        return Pmf(grid.ravel() / grid.sum())
    grid = np.exp(spread * rng.standard_normal((m, m)))
    if kind == "dihedral":
        grid = dihedral_sum(grid)
    elif kind == "transpose_only":
        grid = grid + grid.T
    elif kind == "flips_only":
        grid = grid + grid[::-1]
        grid = grid + grid[:, ::-1]
    return Pmf(grid.ravel() / grid.sum())


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

    @pytest.mark.parametrize("order", [16.0, np.float64(16.0), True])
    def test_non_integer_order_rejected(self, order):
        message = f"quadrature order must be an integer, got {order!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            gauss_hermite(order)

    @pytest.mark.parametrize("order", [np.int64(16), np.uint8(23)])
    def test_numpy_integer_order(self, order):
        rule = gauss_hermite(order)
        assert type(rule.order) is int and rule.order == order == rule.nodes.size
        np.testing.assert_array_equal(rule.nodes, gauss_hermite(int(order)).nodes)


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
        qpsk = Constellation(2)
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
        kind=st.sampled_from(PMF_KINDS),
        spread=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_separable_matches_dense_oracle(self, order, snr_db, kind, spread, seed):
        # Log-normal weights: spread 8 puts probabilities ~1e-10 apart.
        raw = square_qam(order)
        m = int(math.isqrt(order))
        pmf = random_pmf(raw, kind, spread, np.random.default_rng(seed))
        dihedral = kind in ("ring_constant", "dihedral")
        assert _is_dihedral(pmf.probs.reshape(m, m)) == dihedral
        c = normalized(raw, pmf)
        assert mi_awgn_2d(c, pmf, snr_db) == pytest.approx(
            dense_mi_awgn_2d(c, pmf, snr_db), abs=1e-12
        )


class TestEveryPointSum:
    @pytest.mark.parametrize("snr_db", [0.0, 6.0, 15.0])
    @pytest.mark.parametrize("kind", ["uniform", "mb"])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("side", [2, 4, 6, 8])
    def test_matches_sum_over_every_point(self, side, scale, kind, snr_db):
        raw = Constellation(side, scale)
        lam = 1.0 / float(np.mean(raw.sq_magnitudes))
        pmf = uniform_pmf(raw) if kind == "uniform" else mb_pmf(raw, lam)
        c = normalized(raw, pmf)
        assert mi_awgn_2d(c, pmf, snr_db) == pytest.approx(
            every_point_mi_awgn_2d(c, pmf, snr_db), abs=1e-12
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

    @pytest.mark.parametrize("samples", [1e5, 50000.5, True])
    def test_rejects_non_integer_samples(self, samples):
        c, pmf = unit(16)
        with pytest.raises(ValueError, match="integer"):
            mi_monte_carlo(c, pmf, 10.0, samples, seed=1)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, None])
    def test_rejects_bad_seed_before_drawing(self, seed, monkeypatch):
        c, pmf = unit(16)
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(ValueError, match="seed"):
            mi_monte_carlo(c, pmf, 10.0, 20_000, seed=seed)

    def test_accepts_numpy_integer_seed(self):
        c, pmf = unit(16)
        assert mi_monte_carlo(c, pmf, 10.0, 20_000, seed=np.uint32(6)) == mi_monte_carlo(
            c, pmf, 10.0, 20_000, seed=6
        )

    def test_accepts_numpy_integer_samples(self):
        c, pmf = unit(16)
        assert mi_monte_carlo(c, pmf, 10.0, np.int64(20_000), seed=6) == mi_monte_carlo(
            c, pmf, 10.0, 20_000, seed=6
        )

    @pytest.mark.parametrize("order", [16, 64, 256])
    @pytest.mark.parametrize("family", ["uniform", "mb", "tailored"])
    def test_seeded_draws_match_dense_estimator(self, order, family):
        # Same draws in the same order: only the posterior's rounding moves.
        # 40,000 samples cross one chunk boundary.
        c = square_qam(order)
        pu = float(np.mean(c.sq_magnitudes))
        pmf = {
            "uniform": uniform_pmf(c),
            "mb": mb_pmf(c, 1.0 / pu),
            "tailored": tailored_pmf(c, -1e-3 * 170.0 / pu, 4.4e-5 * (170.0 / pu) ** 2),
        }[family]
        cn = normalized(c, pmf)
        for snr_db in (5.0, 18.0):
            got = mi_monte_carlo(cn, pmf, snr_db, 40_000, seed=order + int(snr_db))
            want = dense_mi_monte_carlo(cn, pmf, snr_db, 40_000, seed=order + int(snr_db))
            assert got == pytest.approx(want, abs=1e-12)


def no_generator(*args, **kwargs):
    raise AssertionError("a random generator was made before the arguments were checked")


class TestPmfLength:
    """A pmf of another order fails before any compute, naming both sizes."""

    @staticmethod
    def mismatch():
        c16, c64 = square_qam(16), square_qam(64)
        return normalized(c16, uniform_pmf(c16)), uniform_pmf(c64)

    def test_quadrature(self):
        c, pmf = self.mismatch()
        with pytest.raises(ValueError, match=r"pmf length \(64,\) does not match constellation order 16"):
            mi_awgn_2d(c, pmf, 10.0)

    def test_monte_carlo_before_drawing(self, monkeypatch):
        c, pmf = self.mismatch()
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(ValueError, match=r"\(64,\) does not match constellation order 16"):
            mi_monte_carlo(c, pmf, 10.0, 20_000, seed=1)

    def test_from_samples(self):
        c, pmf = self.mismatch()
        tx = np.full(20_000, c.points[0])
        with pytest.raises(ValueError, match=r"\(64,\) does not match constellation order 16"):
            mi_from_samples(tx + 0.1, tx, c, pmf)


class TestPosterior:
    @given(
        order=st.sampled_from([16, 64, 256, 1024, 4096]),
        snr_db=st.floats(-60.0, 60.0),
        kind=st.sampled_from(PMF_KINDS + ("tiny",)),
        spread=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_separable_matches_dense_oracle(self, order, snr_db, kind, spread, seed):
        # Sent points are drawn uniformly, so points of probability down to
        # 1e-250 are sent too.
        rng = np.random.default_rng(seed)
        raw = square_qam(order)
        pmf = random_pmf(raw, kind, spread, rng)
        c = normalized(raw, pmf)
        m = int(math.isqrt(order))
        sigma2 = 10.0 ** (-snr_db / 10.0)
        n = 2_000
        idx = rng.integers(0, order, n)
        y = c.points[idx] + np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        i, q = np.divmod(idx, m)
        got = _neg_log_posterior(y, i, q, c.points[::m].real, pmf.probs.reshape(m, m), sigma2,
                                 posterior_work(m, n))
        logp = np.log(np.maximum(pmf.probs, PROB_TINY))
        want = dense_neg_log_posterior(y, idx, c.points, logp, sigma2)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got / LN2, want / LN2, rtol=0.0, atol=1e-9)


class TestWorkArrays:
    """The kernels reuse their work arrays; the bits must not move."""

    SNRS_DB = (-5.0, 0.0, 6.0, 12.0, 18.0, 24.0, 30.0)

    @pytest.mark.parametrize("rule", [16, 32])
    @pytest.mark.parametrize("kind", ["ring_constant", "dihedral", "asymmetric"])
    @pytest.mark.parametrize("order", [16, 64, 256, 1024, 4096])
    def test_quadrature_bits_match_allocating_oracle(self, order, kind, rule):
        raw = square_qam(order)
        pmf = random_pmf(raw, kind, 1.5, np.random.default_rng(order + rule))
        m = int(math.isqrt(order))
        assert _is_dihedral(pmf.probs.reshape(m, m)) == (kind != "asymmetric")
        c = normalized(raw, pmf)
        gh = gauss_hermite(rule)
        got = [mi_awgn_2d(c, pmf, snr_db, gh) for snr_db in self.SNRS_DB]
        want = [allocating_mi_awgn_2d(c, pmf, snr_db, gh) for snr_db in self.SNRS_DB]
        assert np.array_equal(got, want)

    def test_alternating_calls_match_fresh_calls(self):
        # Each call changes the shapes of the work arrays, or keeps them
        # with another pmf and SNR; a second pass meets the arrays the
        # first pass left behind.
        rng = np.random.default_rng(17)
        cases = []
        for order, kind, rule in ((64, "dihedral", 16), (1024, "asymmetric", 16),
                                  (256, "ring_constant", 32), (64, "asymmetric", 32),
                                  (1024, "ring_constant", 16), (256, "transpose_only", 16),
                                  (16, "flips_only", 32), (1024, "dihedral", 32)):
            raw = square_qam(order)
            pmf = random_pmf(raw, kind, 1.0, rng)
            cases.append((normalized(raw, pmf), pmf, gauss_hermite(rule)))
        want = [allocating_mi_awgn_2d(c, pmf, 14.0, rule) for c, pmf, rule in cases]
        for _ in range(2):
            got = [mi_awgn_2d(c, pmf, 14.0, rule) for c, pmf, rule in cases]
            assert np.array_equal(got, want)
        c, pmf, rule = cases[1]
        same_shapes = [mi_awgn_2d(c, pmf, snr_db, rule) for snr_db in self.SNRS_DB]
        assert np.array_equal(
            same_shapes, [allocating_mi_awgn_2d(c, pmf, snr_db, rule) for snr_db in self.SNRS_DB]
        )

    def test_threads_match_serial_results(self):
        # Four threads, more than a two-core host has, switching every
        # microsecond: two on 1024QAM (dihedral path) and two on 256QAM
        # (full path), each pair with the same shapes and other pmfs, so
        # arrays shared between threads would be written by both.
        rng = np.random.default_rng(23)
        cases = []
        for order, kind in ((1024, "dihedral"), (256, "asymmetric")) * 2:
            raw = square_qam(order)
            pmf = random_pmf(raw, kind, 1.0, rng)
            cases.append((normalized(raw, pmf), pmf, gauss_hermite(16)))
        want = [mi_awgn_2d(c, pmf, 16.0, rule) for c, pmf, rule in cases]
        got = [[] for _ in cases]

        def worker(n):
            c, pmf, rule = cases[n]
            for _ in range(20):
                got[n].append(mi_awgn_2d(c, pmf, 16.0, rule))

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for n, values in enumerate(got):
            assert np.array_equal(values, [want[n]] * 20)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page fault counts are read on Linux")
    def test_quadrature_adds_no_page_faults(self):
        # Fresh temporaries cost about 240 minor faults per 1024QAM call,
        # as the allocator hands the memory back between calls.
        c = square_qam(1024)
        scale = 170.0 / float(np.mean(c.sq_magnitudes))
        pmf = tailored_pmf(c, -1e-3 * scale, 4.4e-5 * scale**2)
        cn = normalized(c, pmf)
        mi_awgn_2d(cn, pmf, 18.0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for n in range(100):
            mi_awgn_2d(cn, pmf, 17.0 + 0.01 * n)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    def test_posterior_short_last_chunk_matches_allocating_oracle(self):
        # 70,001 samples: two full chunks and a short last one, which reads
        # a contiguous prefix of the work arrays the full chunks filled.
        raw = square_qam(256)
        scale = 170.0 / float(np.mean(raw.sq_magnitudes))
        pmf = tailored_pmf(raw, -1e-3 * scale, 4.4e-5 * scale**2)
        c = normalized(raw, pmf)
        rng = np.random.default_rng(9)
        n, sigma2 = 70_001, 0.1
        idx = rng.choice(256, size=n, p=pmf.probs)
        y = c.points[idx] + np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        i, q = np.divmod(idx, 16)
        grid = pmf.probs.reshape(16, 16)
        work = posterior_work(16, n)
        for buf in work:
            buf.fill(np.nan)
        for lo in range(0, n, POSTERIOR_CHUNK):
            part = slice(lo, lo + POSTERIOR_CHUNK)
            got = _neg_log_posterior(y[part], i[part], q[part], c.levels, grid, sigma2, work)
            want = allocating_neg_log_posterior(y[part], i[part], q[part], c.levels, grid, sigma2)
            assert np.array_equal(got, want)
        assert n - lo < POSTERIOR_CHUNK

    def test_posterior_far_tail_matches_allocating_oracle(self):
        # The far-outlier case of mi_from_samples: corners empty, one sample
        # beyond a corner, so that sample takes the dense log-sum-exp.
        raw = square_qam(16)
        pmf = ring_pmf(raw, [0.5, 0.5, 0.0])
        c = normalized(raw, pmf)
        rng = np.random.default_rng(0)
        idx = rng.choice(16, size=20_000, p=pmf.probs)
        x = c.points[idx]
        y = x + 1e-3 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
        y[0] = 1.5 * c.points[0]
        sigma2 = float(np.mean(np.abs(y - x) ** 2))
        i, q = np.divmod(idx, 4)
        grid = pmf.probs.reshape(4, 4)
        got = _neg_log_posterior(y, i, q, c.levels, grid, sigma2, posterior_work(4, y.size))
        want = allocating_neg_log_posterior(y, i, q, c.levels, grid, sigma2)
        assert np.array_equal(got, want)

    @staticmethod
    def whole_chunk_oracle(y, i, q, levels, grid, sigma2):
        """The allocating oracle on a whole chunk. Run on the chunk repeated
        out to a multiple of 8 samples: a product whose width is not one
        may round its last columns in an edge kernel of its own (see
        ``TestBlockedProduct.test_matches_whole_product``). A lone sample
        is one matrix-vector product either way."""
        n = y.size
        cols = n if n == 1 else -(-n // 8) * 8
        padded = (np.resize(v, cols) for v in (y, i, q))
        return allocating_neg_log_posterior(*padded, levels, grid, sigma2)[:n]

    @pytest.mark.parametrize("length", ["1", "b-1", "b", "b+1", "c-1", "c", "2c+5"])
    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
    def test_posterior_blocks_match_allocating_oracle(self, m, length):
        # Both estimators draw and sum in chunks and evaluate each chunk in
        # blocks of at most POSTERIOR_BLOCK samples. They take at least 1e4
        # samples, so one full chunk comes first and the last chunk has the
        # named length; "2c+5" ends in two full chunks and five samples.
        # Every chunk must hold the bits of one evaluation of it whole.
        b, c = POSTERIOR_BLOCK, POSTERIOR_CHUNK
        n = {"1": c + 1, "b-1": c + b - 1, "b": c + b, "b+1": c + b + 1,
             "c-1": 2 * c - 1, "c": 2 * c, "2c+5": 2 * c + 5}[length]
        raw = square_qam(m * m)
        rng = np.random.default_rng(m)
        pmf = random_pmf(raw, "asymmetric", 1.0, rng)
        unit = normalized(raw, pmf)
        chunks = []

        def spy(samples, source, levels, grid, sigma2):
            taken = []

            def recorded(part):
                taken.append(source(part))
                return taken[-1]

            for got in _neg_log_posterior_chunks(samples, recorded, levels, grid, sigma2):
                chunks.append((got, self.whole_chunk_oracle(*taken[-1], levels, grid, sigma2)))
                yield got

        idx = rng.choice(m * m, size=n, p=pmf.probs)
        tx = unit.points[idx]
        rx = tx + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        with mock.patch.object(awgn_mi, "_neg_log_posterior_chunks", spy):
            mi_monte_carlo(unit, pmf, 12.0, n, seed=m)
        with mock.patch.object(ssfm, "_neg_log_posterior_chunks", spy):
            mi_from_samples(rx, tx, unit, pmf)
        last = [n - c] if n <= 2 * c else [c, n - 2 * c]
        assert [got.size for got, _ in chunks] == 2 * ([c] + last)
        for got, want in chunks:
            assert np.array_equal(got, want)

    def test_posterior_memory_is_one_block(self):
        # One estimate at 4096QAM over two chunks. Its traced peak is the
        # posterior's three work arrays for one block, 3 x 64 x
        # (POSTERIOR_BLOCK + ROW_SKEW) floats (12 MiB), the sampler's guide
        # table of GUIDE_BUCKETS_PER_POINT intp per point (2 MiB), and the
        # arrays of a chunk: its draws, noise, received samples, level
        # indices and posterior values, 12.6 floats per sample as measured,
        # allowed 16 (4 MiB). Work arrays for a whole chunk are 48 MiB.
        c = square_qam(4096)
        pmf = uniform_pmf(c)
        unit = normalized(c, pmf)
        mi_monte_carlo(unit, pmf, 12.0, 1 << 16, seed=1)
        tracemalloc.start()
        try:
            mi_monte_carlo(unit, pmf, 12.0, 1 << 16, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work = 3 * 64 * (POSTERIOR_BLOCK + ROW_SKEW) * 8
        guide = GUIDE_BUCKETS_PER_POINT * 4096 * 8
        assert peak <= work + guide + 16 * POSTERIOR_CHUNK * 8


class TestBlockedProduct:
    """The posterior's level product runs as one BLAS product per block of
    samples; the bits must be those of the whole product. Every product,
    the quadrature's too, stays within the one-thread bound."""

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_block_width_within_one_thread_bound(self, order):
        m = math.isqrt(order)
        blocks, width, _ = _posterior_layout(m, POSTERIOR_CHUNK)
        assert 1 <= width and m * m * width <= BLAS_ONE_THREAD_MNK
        assert blocks * width == POSTERIOR_CHUNK
        assert width == {16: 16384, 64: 4096, 256: 1024, 1024: 256, 4096: 64}[order]

    @staticmethod
    @contextlib.contextmanager
    def matmul_sizes():
        """The multiply-adds m * k * n of each product ``np.matmul`` makes
        while open; a stack of matrices makes one product per matrix."""
        matmul, sizes = np.matmul, []

        def spy(a, b, *args, **kwargs):
            sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        with mock.patch.object(np, "matmul", spy):
            yield sizes

    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_every_product_within_one_thread_bound(self, order):
        # Two full chunks and a short one, through the estimator: one
        # product per block of each full chunk, and one for the five
        # samples of the last.
        c = square_qam(order)
        pmf = uniform_pmf(c)
        with self.matmul_sizes() as sizes:
            mi_monte_carlo(normalized(c, pmf), pmf, 12.0, 2 * POSTERIOR_CHUNK + 5, seed=1)
        assert len(sizes) == 2 * POSTERIOR_CHUNK // POSTERIOR_BLOCK + 1
        assert max(sizes) <= BLAS_ONE_THREAD_MNK

    @pytest.mark.parametrize("kind", ["mb", "random"])
    def test_every_quadrature_product_within_one_thread_bound(self, kind):
        # The largest quadrature: 4096QAM with its gradient, over the
        # orbits of a dihedral pmf or over every point of a random one.
        c = square_qam(4096)
        if kind == "mb":
            pmf = mb_pmf(c, 1.0 / float(np.mean(c.sq_magnitudes)))
        else:
            pmf = random_pmf(c, "asymmetric", 1.0, np.random.default_rng(4096))
        assert _is_dihedral(pmf.probs.reshape(64, 64)) == (kind == "mb")
        with self.matmul_sizes() as sizes:
            _mi_and_gradient(normalized(c, pmf), pmf, 22.0)
        # Two products for the value and four for the derivatives.
        assert len(sizes) == 6
        assert max(sizes) <= BLAS_ONE_THREAD_MNK

    @staticmethod
    def product_of_chunk(m, n, rng_seed):
        """The first n samples of a seeded chunk through the kernel: its
        exponentiated I kernel and its level product, (m, n) each."""
        rng = np.random.default_rng(rng_seed)
        levels = np.arange(1.0 - m, m, 2.0)
        grid = rng.random((m, m)) ** 3
        grid /= grid.sum()
        i, q = rng.integers(0, m, (2, POSTERIOR_CHUNK))
        y = levels[i] + 1j * levels[q] + 0.7 * (rng.standard_normal(POSTERIOR_CHUNK)
                                                + 1j * rng.standard_normal(POSTERIOR_CHUNK))
        work = posterior_work(m, n)
        for buf in work:
            buf.fill(np.nan)
        _neg_log_posterior(y[:n], i[:n], q[:n], levels, grid, 0.98, work)
        stride = _posterior_layout(m, n)[2]
        ell_i, _, pk_i = (buf[: m * stride].reshape(m, stride)[:, :n] for buf in work)
        return grid, ell_i, pk_i

    @pytest.mark.parametrize("length", ["1", "w-1", "w", "w+1", "chunk-1", "chunk"])
    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
    def test_matches_whole_product(self, m, length):
        # The whole product of a chunk that is not a multiple of 8 samples
        # long may round its last n mod 8 columns in an edge kernel of its
        # own (OpenBLAS does at 64 levels), so the oracle for a short chunk
        # is the whole product of the full chunk it starts: a sample's
        # product must not depend on where it sits in its chunk. A lone
        # sample is one matrix-vector product either way.
        _, w, _ = _posterior_layout(m, POSTERIOR_CHUNK)
        n = {"1": 1, "w-1": w - 1, "w": w, "w+1": w + 1,
             "chunk-1": POSTERIOR_CHUNK - 1, "chunk": POSTERIOR_CHUNK}[length]
        grid, ell_full, pk_full = self.product_of_chunk(m, POSTERIOR_CHUNK, m)
        assert np.array_equal(pk_full, grid.T @ ell_full)
        _, ell, pk = self.product_of_chunk(m, n, m)
        assert np.array_equal(ell, ell_full[:, :n])
        want = grid.T @ ell if n == 1 else pk_full[:, :n]
        assert np.array_equal(pk, want)


class TestPinnedEstimates:
    """Seeded estimates, pinned bit for bit to the values the whole-product
    kernel gave, with sample counts that end in a short chunk."""

    @staticmethod
    def mb_256qam():
        c = square_qam(256)
        pmf = mb_pmf(c, 1.0 / float(np.mean(c.sq_magnitudes)))
        return normalized(c, pmf), pmf

    def test_mi_monte_carlo_256qam_mb(self):
        unit, pmf = self.mb_256qam()
        mi, se = mi_monte_carlo(unit, pmf, 10.0, 100_007, seed=2110)
        assert (mi.hex(), se.hex()) == ("0x1.b4c9312ade04ap+1", "0x1.266134fb742eep-8")

    def test_mi_monte_carlo_1024qam_uniform(self):
        c = square_qam(1024)
        pmf = uniform_pmf(c)
        mi, se = mi_monte_carlo(normalized(c, pmf), pmf, 18.0, 100_007, seed=2118)
        assert (mi.hex(), se.hex()) == ("0x1.6a544a73927c6p+2", "0x1.2b9756e5d905fp-8")

    def test_mi_from_samples_256qam_mb(self):
        unit, pmf = self.mb_256qam()
        rng = np.random.default_rng(2156)
        n = 50_000
        tx = unit.points[rng.choice(256, size=n, p=pmf.probs)]
        rx = tx + np.sqrt(0.05) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert mi_from_samples(rx, tx, unit, pmf).hex() == "0x1.b4bde6b96022ap+1"


GRADIENT_KINDS = ("uniform", "mb", "tailored", "per_ring", "asymmetric")


def gradient_case_pmf(raw, kind, rng):
    """A pmf of the named kind with random parameters, full support."""
    pu = float(np.mean(raw.sq_magnitudes))
    if kind == "uniform":
        return uniform_pmf(raw)
    if kind == "mb":
        return mb_pmf(raw, rng.uniform(0.0, 3.0) / pu)
    if kind == "tailored":
        return tailored_pmf(raw, rng.uniform(-1.0, 3.0) / pu, rng.uniform(0.0, 3.0) / pu**2)
    if kind == "per_ring":
        return random_pmf(raw, "ring_constant", 1.0, rng)
    return random_pmf(raw, "asymmetric", 1.0, rng)


def sigma_of(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 20.0)


class TestGradient:
    """``_mi_and_gradient`` against central differences of ``mi_awgn_2d``.

    Directions over the pmf grid keep the pmf's sum and the mean power,
    so every perturbed pmf is a unit-power pmf ``mi_awgn_2d`` accepts;
    they are random, so the perturbed pmfs take the full-point path.
    Steps are 1e-4 relative, and each change of MI across a step must
    agree with the gradient's prediction to 1e-7 of its scale (the sum
    of the terms' magnitudes) plus 1e-11 bit: the differences carry
    about 1e-8 relative truncation and 1e-14 bit of rounding. Over 150
    seeded cases the largest error was 0.17 of that bound.
    """

    @given(
        order=st.sampled_from([16, 64, 256, 1024]),
        snr_db=st.floats(0.0, 30.0),
        kind=st.sampled_from(GRADIENT_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_central_differences(self, order, snr_db, kind, seed):
        rng = np.random.default_rng(seed)
        raw = square_qam(order)
        pmf = gradient_case_pmf(raw, kind, rng)
        c = normalized(raw, pmf)
        mi, d_grid, d_sigma = _mi_and_gradient(c, pmf, snr_db)
        assert mi == mi_awgn_2d(c, pmf, snr_db)

        # v = p (n - alpha - beta |x|^2), with alpha and beta solving
        # sum v = 0 and sum v |x|^2 = 0.
        p, r2 = pmf.probs, c.sq_magnitudes
        basis = np.stack([np.ones(order), r2])
        n = rng.standard_normal(order)
        coef = np.linalg.solve((basis * p) @ basis.T, (basis * p) @ n)
        rel = n - coef @ basis
        h = 1e-4 / np.abs(rel).max()
        v = h * p * rel
        fd = (mi_awgn_2d(c, Pmf(p + v), snr_db) - mi_awgn_2d(c, Pmf(p - v), snr_db)) / 2.0
        assert abs(d_grid.ravel() @ v - fd) <= 1e-7 * np.abs(d_grid.ravel() * v).sum() + 1e-11

        sigma = sigma_of(snr_db)
        step = 1e-4 * sigma
        snr_up, snr_down = (-20.0 * math.log10(sigma + s) for s in (step, -step))
        fd = (mi_awgn_2d(c, pmf, snr_up) - mi_awgn_2d(c, pmf, snr_down)) / 2.0
        assert abs(d_sigma * step - fd) <= 1e-7 * abs(d_sigma * step) + 1e-11

    @given(
        order=st.sampled_from([16, 64, 256, 1024]),
        snr_db=st.floats(0.0, 30.0),
        kind=st.sampled_from(GRADIENT_KINDS[:4]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_orbit_reduction_matches_full_path(self, order, snr_db, kind, seed):
        raw = square_qam(order)
        pmf = gradient_case_pmf(raw, kind, np.random.default_rng(seed))
        c = normalized(raw, pmf)
        m = int(math.isqrt(order))
        assert _is_dihedral(pmf.probs.reshape(m, m))
        mi, d_grid, d_sigma = _mi_and_gradient(c, pmf, snr_db)
        with mock.patch.object(awgn_mi, "_is_dihedral", return_value=False):
            full_mi, full_grid, full_sigma = _mi_and_gradient(c, pmf, snr_db)
        assert mi == pytest.approx(full_mi, rel=0.0, abs=1e-12)
        np.testing.assert_allclose(d_grid, full_grid, rtol=0.0,
                                   atol=1e-10 * np.abs(full_grid).max())
        assert d_sigma == pytest.approx(full_sigma, rel=1e-10, abs=1e-12)

    def test_other_rules_and_work_array_reuse(self):
        # Alternating value and gradient calls over shapes and rules: the
        # value stays mi_awgn_2d's bit for bit.
        rng = np.random.default_rng(5)
        for order, kind, rule in ((64, "tailored", 32), (1024, "asymmetric", 16),
                                  (256, "per_ring", 16), (64, "tailored", 32)):
            raw = square_qam(order)
            pmf = gradient_case_pmf(raw, kind, rng)
            c = normalized(raw, pmf)
            gh = gauss_hermite(rule)
            for snr_db in (6.0, 18.0):
                assert _mi_and_gradient(c, pmf, snr_db, gh)[0] == mi_awgn_2d(c, pmf, snr_db, gh)


def unfloored():
    """The quadrature with its kernel floors off: the oracle of the floors."""
    return mock.patch.multiple(awgn_mi, KERNEL_LOG_FLOOR=-np.inf, KERNEL_GRID_FLOOR=0.0)


def floor_bounds(c, snr_db, rule):
    """How far the kernel floors may move one quadrature, in bits: the MI,
    sum_j p_j |dI/dP_j| and dI/dsigma.

    Each mixture rises by at most delta = 2 e^L + m KERNEL_GRID_FLOOR, and
    representative r's mixture at node pair (a, b) is at least its own
    term p_r e^-(t_a^2 + t_b^2), so sum_r p_r mult_r sum_ab w_ab / mix_r is
    at most M C, C = (sum_a w_a e^(t_a^2))^2 / pi. The MI moves by at most
    delta M C nats; the pmf gradient, weighted by the pmf, by 3 delta M C;
    dI/dsigma by 4 F delta M C, F the largest |2 d^2 / sigma^3 + 2 d t /
    sigma^2| of the kernel's sigma-derivative.
    """
    m = c.levels.size
    delta = 2.0 * math.exp(awgn_mi.KERNEL_LOG_FLOOR) + m * awgn_mi.KERNEL_GRID_FLOOR
    t, w = rule.nodes, rule.weights
    mc = c.order * float((w * np.exp(t * t)).sum()) ** 2 / math.pi
    sigma = sigma_of(snr_db)
    span = float(c.levels[-1] - c.levels[0])
    f = 2.0 * span**2 / sigma**3 + 2.0 * span * float(np.abs(t).max()) / sigma**2
    base = delta * mc / LN2
    return base, 3.0 * base, 4.0 * f * base


def extreme_floor_cases(order):
    """The 52 cases of one order in the floors' oracle sweep: 13 pmfs, MB
    u = lambda P_u in {0, 5, 30, 60} and tailored (nu1 P_u, nu2 P_u^2) in
    {0, 4, 10} x {-0.5, 2, 8}, each at 5, 18, 30 and 40 dB."""
    raw = square_qam(order)
    pu = float(np.mean(raw.sq_magnitudes))
    pmfs = [mb_pmf(raw, u / pu) for u in (0.0, 5.0, 30.0, 60.0)]
    pmfs += [tailored_pmf(raw, v1 / pu, v2 / pu**2)
             for v1 in (0.0, 4.0, 10.0) for v2 in (-0.5, 2.0, 8.0)]
    for snr_db in (5.0, 18.0, 30.0, 40.0):
        for pmf in pmfs:
            yield normalized(raw, pmf), pmf, snr_db


class TestQuadratureFloors:
    """The quadrature's kernel floors keep its products normal floats and
    every output within ``floor_bounds`` of the unfloored quadrature."""

    @pytest.mark.parametrize("order", [64, 256, 1024, 4096])
    def test_floors_keep_unfloored_bits(self, order):
        # The MI and the pmf gradient keep their bits in all 208 cases.
        # dI/dsigma keeps them except in 39 cases at 30 and 40 dB, where the
        # MI has saturated and dI/dsigma is at most 4.9e-135 either way: the
        # floored kernel's sigma-derivative adds up to 1.7e-140 (4096QAM,
        # 40 dB, u = 60), at most 2.5e-4 of the bound.
        gh = gauss_hermite(16)
        for c, pmf, snr_db in extreme_floor_cases(order):
            got = mi_awgn_2d(c, pmf, snr_db), _mi_and_gradient(c, pmf, snr_db)
            with unfloored():
                want = mi_awgn_2d(c, pmf, snr_db), _mi_and_gradient(c, pmf, snr_db)
            assert got[0] == want[0] == got[1][0] == want[1][0]
            assert np.array_equal(got[1][1], want[1][1])
            if got[1][2] != want[1][2]:
                assert abs(got[1][2] - want[1][2]) <= floor_bounds(c, snr_db, gh)[2]

    def test_masses_near_prob_floor(self):
        # Masses down to PROB_FLOOR: an outer ring of 1e-290, and a tailored
        # pmf whose outer points fall to 4.5e-300. Their own terms are far
        # below the floors, so the pmf gradient at those points moves (by
        # up to 4e2 at 4096QAM), but by no more than the bound once weighted
        # by their masses.
        raw = square_qam(256)
        rings = np.full(raw.ring_sizes.size, 1.0)
        rings[-1] = 1e-290
        ring = ring_pmf(raw, rings / rings.sum())
        raw4096 = square_qam(4096)
        pu = float(np.mean(raw4096.sq_magnitudes))
        steep = tailored_pmf(raw4096, 0.0, 200.0 / pu**2)
        gh = gauss_hermite(16)
        for raw, pmf, snrs in ((raw, ring, (5.0, 18.0, 30.0, 40.0)), (raw4096, steep, (30.0,))):
            assert pmf.probs[pmf.probs > 0.0].min() < 1e-289
            c = normalized(raw, pmf)
            for snr_db in snrs:
                mi, d_grid, d_sigma = _mi_and_gradient(c, pmf, snr_db)
                with unfloored():
                    want_mi, want_grid, want_sigma = _mi_and_gradient(c, pmf, snr_db)
                assert np.isfinite(d_grid).all() and math.isfinite(d_sigma)
                mi_bound, grid_bound, sigma_bound = floor_bounds(c, snr_db, gh)
                assert abs(mi - want_mi) <= mi_bound
                assert float(pmf.probs @ np.abs(d_grid - want_grid).ravel()) <= grid_bound
                assert abs(d_sigma - want_sigma) <= sigma_bound

        # With 32 nodes the steep pmf's outer points have mixtures whose
        # every term underflows to zero without the floors: the MI is then
        # clipped to the entropy and the gradient is not finite. With them
        # the MI agrees with the 64-node rule's.
        c = normalized(raw4096, steep)
        with unfloored(), np.errstate(all="ignore"):
            assert not np.isfinite(_mi_and_gradient(c, steep, 30.0, gauss_hermite(32))[1]).all()
        mi, d_grid, d_sigma = _mi_and_gradient(c, steep, 30.0, gauss_hermite(32))
        assert np.isfinite(d_grid).all() and math.isfinite(d_sigma)
        assert mi == pytest.approx(mi_awgn_2d(c, steep, 30.0, gauss_hermite(64)), rel=0.0, abs=1e-5)
        assert entropy(steep) - mi > 1e-4

    def test_kernels_hold_no_subnormal(self):
        # At 1024QAM, 18 dB and MB u = 30 the unfloored kernel held 144
        # subnormal entries, and each product with one took a microcode
        # assist. The steep tailored pmf's outer columns bring kernel @ grid
        # down to 1e-304, whose products with the kernel underflowed.
        tiny = np.finfo(np.float64).tiny
        raw1024, raw256 = square_qam(1024), square_qam(256)
        mb = mb_pmf(raw1024, 30.0 / float(np.mean(raw1024.sq_magnitudes)))
        steep = tailored_pmf(raw256, 0.0, 200.0 / float(np.mean(raw256.sq_magnitudes)) ** 2)
        for raw, pmf in ((raw1024, mb), (raw256, steep)):
            c = normalized(raw, pmf)
            for call in (mi_awgn_2d, _mi_and_gradient):
                call(c, pmf, 18.0)
                k, kg = awgn_mi._quadrature_work.value[1][:2]
                for kept in (k, kg):
                    assert not ((kept > 0.0) & (kept < tiny)).any()
                # Every product of a kernel entry and an entry of kernel @ grid.
                assert float(k.min()) * float(kg.min()) >= tiny
