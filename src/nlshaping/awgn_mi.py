"""Mutual information of discrete constellations on the complex AWGN channel.

The production path is tensor-product Gauss-Hermite quadrature over the
two noise quadratures; a seeded Monte-Carlo estimator with the exact
conditional densities serves as its independent check.

No estimator forms the M x M mixture. Square QAM points lie on a
Cartesian grid of I and Q levels and circular Gaussian noise factorizes
over I and Q, so the mixture sum_j p_j k(y - x_j) is the bilinear form
k_I^T P k_Q of two 1-D kernels over the sqrt(M) levels and the pmf
reshaped to the level grid. This holds for every pmf, product over I and
Q or not. The quadrature evaluates it at the node pairs; when the grid is
dihedrally symmetric (P = P^T = P[::-1] = P[:, ::-1]), every point of a
symmetry orbit contributes the same term, and the outer expectation runs
over one representative per orbit. The sample-based estimators, the
Monte-Carlo check here and ``ssfm.mi_from_samples``, evaluate it per
received sample through one evaluator, ``_neg_log_posterior_chunks``: it
takes the samples in chunks of ``POSTERIOR_CHUNK``, splits each into
near-equal blocks of at most ``POSTERIOR_BLOCK`` for the posterior kernel
``_neg_log_posterior``, whose sqrt(M) x sqrt(M) product then runs on one
thread, and allocates the kernel's three (sqrt(M), block) work arrays once
per estimate, 1, 2 and 4 MiB each at 256, 1024 and 4096QAM.

The Monte-Carlo check draws its sent points, like the split-step's
transmitter, through ``shaping._inverse_cdf``: a guide table over the
pmf's CDF, built once per call, maps each chunk's one ``rng.random`` draw
to exactly the indices ``Generator.choice`` would return, with a binary
search for at most 1/64 of the samples instead of all of them. The
generator's stream, and so every estimate, is what ``choice`` gave.

The quadrature also gives its exact gradient in the pmf grid and in the
noise scale, from the same kernels (``_mi_and_gradient``); the shaping
searches follow it.

The quadrature floors its two product operands, as the posterior flushes its
exponentials: each kernel entry at e^L (``KERNEL_LOG_FLOOR``, L = -345) and
each entry of kernel @ grid at 2 tiny / e^L (``KERNEL_GRID_FLOOR``). Every
product in a mixture is then a normal float, which takes no microcode
assist, and every mixture is at least m tiny, whatever the pmf. A mixture
rises by at most delta = 2 e^L + 2 m tiny / e^L, 2.9e-150 at m = 64 levels
(a kernel entry by at most e^L, an entry of kernel @ grid by at most e^L
times its column's mass plus 2 tiny / e^L): by at most one rounding above
delta / eps = 1.3e-134, the counterpart of the posterior's ``MIX_FLOOR``.
Representative r's mixture at node pair (a, b) is at least its own term p_r
e^-(t_a^2 + t_b^2), so with C = (sum_a w_a e^(t_a^2))^2 / pi (34 for 16
nodes) the floors move the MI by at most delta M C nats, the pmf gradient
dI/dP_j by at most 3 delta M C summed over j with weights p_j (every
family's derivative weights dI/dP_j by p_j), and dI/dsigma by at most 4 F
delta M C, F the largest factor |2 d^2 / sigma^3 + 2 d t / sigma^2| of the
kernel's sigma-derivative. Over MB and tailored pmfs at 64-4096QAM and 5-40
dB the MI and the pmf gradient kept their bits; dI/dsigma moved only where
the MI has saturated and it is itself below 1e-134. The quadrature keeps
its work arrays per thread, one set for the value and one more for the
gradient, each replaced when its shapes change (see ``mi_awgn_2d``).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .constellation import Constellation, _check_pmf_length, _int_at_least
from .shaping import Pmf, _inverse_cdf, entropy

LN2 = float(np.log(2.0))

DEFAULT_ORDER = 16

# Unit-power check guards against silently feeding an unnormalized
# constellation, which would reinterpret the SNR axis.
UNIT_POWER_TOL = 1e-6

# exp() arguments below this are flushed; keeps the hot loops out of the
# subnormal range, where libm is an order of magnitude slower.
EXP_UNDERFLOW = -700.0

PROB_TINY = 1e-320

# Flushing kernel entries at exp(EXP_UNDERFLOW) adds at most that much to
# a shifted mixture (entries are at most 1, the pmf sums to 1): below this
# floor, the flush may move the mixture by more than one rounding.
MIX_FLOOR = float(np.exp(EXP_UNDERFLOW) / np.finfo(np.float64).eps)

# The quadrature's floors (see the module docstring): the shifted log-kernel is
# clamped at L = KERNEL_LOG_FLOOR before exp(), and kernel @ grid at 2 tiny /
# e^L, with room for exp's rounding. A mixture then rises by at most
# 2 e^L + 2 m tiny / e^L, least near L = -352; but the gradient's products of
# the kernel with its weighted inverse mixtures leave the subnormal range as L
# rises: a 4096QAM gradient call (22 dB, MB u = 30, one core) took 20.4, 13.1,
# 11.0 and 10.5 ms at L = -360, -353, -345 and -330, while value calls took the
# same time at every L from -370 to -300. -345 is within 5% of the fastest and
# keeps the bound within 1e3 of its least.
KERNEL_LOG_FLOOR = -345.0
KERNEL_GRID_FLOOR = float(2.0 * np.finfo(np.float64).tiny / np.exp(KERNEL_LOG_FLOOR))

# Samples per chunk of the sample-based estimators: the unit of drawing
# and of summation.
POSTERIOR_CHUNK = 1 << 15

# Fewest samples a sample-based estimate takes: mi_monte_carlo's draws, and
# received symbols times polarizations in ssfm's estimate_snr and mi_from_samples.
MIN_MEASURED_SAMPLES = 10_000

# Most samples per evaluation of the posterior within a chunk. At 16-4096QAM
# 2^13 took the least CPU per estimate: 2^12 took 1-7% more, 2^11 40-60% more
# at 256 and 1024QAM, and whole chunks 1-23% more with four times the work
# arrays.
POSTERIOR_BLOCK = 1 << 13

# OpenBLAS runs a gemm of m x n x k multiply-adds on one thread at or below
# SMP_THRESHOLD_MIN (65536) x GEMM_MULTITHREAD_THRESHOLD (4), the bound in
# its interface/gemm.c; each block of the posterior's level product, and
# each product of the quadrature up to 4096QAM, stays within it.
BLAS_ONE_THREAD_MNK = 1 << 18

# Floats of padding after each row of the posterior's work arrays when a
# chunk takes more than one block. Rows of 2^15 samples would lie a power of
# two apart and share cache sets, which made the blocked level product 3-4x
# slower at 32 and 64 levels. A one-block chunk keeps contiguous rows, which
# a lone sample's matrix-vector product needs to keep its bits.
ROW_SKEW = 8

# Largest entry-wise asymmetry of the pmf grid that still counts as
# dihedral symmetry for the orbit reduction.
DIHEDRAL_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for weight function exp(-t^2)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def order(self) -> int:
        return self.nodes.size


@functools.lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Nodes and weights of the physicists' Gauss-Hermite rule.

    Exact for polynomials up to degree 2*order - 1 against exp(-t^2).
    """
    order = _int_at_least("quadrature order", order, 2)
    if order > 64:
        raise ValueError(f"quadrature order must be at most 64, got {order}")
    nodes, weights = hermgauss(order)
    return QuadratureRule(nodes, weights)


def _snr_to_sigma2(snr_db: float) -> float:
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    return 10.0 ** (-snr_db / 10.0)


def _require_unit_power(constellation: Constellation, pmf: Pmf) -> None:
    _check_pmf_length(constellation, pmf.probs)
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


def _log_kernel(levels: np.ndarray, sigma: float, t: np.ndarray, out: np.ndarray):
    """1-D Gaussian kernels between every sent and every candidate level.

    Entry (s, a, j) is exp(-(d^2 + 2 sigma d t_a) / sigma^2) with
    d = levels[s] - levels[j], divided by the largest entry of its row
    (s, a); the log of that divisor is returned. Every kernel entry is
    then at most 1, so products of kernels cannot overflow. The log is
    clamped at ``KERNEL_LOG_FLOOR`` = L before exp(), so every entry is at
    least e^L and its product with an entry of kernel @ grid, floored at
    2 tiny / e^L, is a normal float; a clamped entry rises by at most e^L
    (the module docstring gives the bound this puts on the MI). The kernel
    is written to ``out``, shape (levels, nodes, levels).
    """
    d = (levels[:, None] - levels[None, :])[:, None, :]
    np.multiply((2.0 / sigma) * d, t[None, :, None], out=out)
    np.subtract(-(d * d) / (sigma * sigma), out, out=out)
    shift = out.max(axis=2)
    np.subtract(out, shift[:, :, None], out=out)
    np.maximum(out, KERNEL_LOG_FLOOR, out=out)
    np.exp(out, out=out)
    return shift


_quadrature_work = threading.local()


def _work_arrays(name: str, shapes: tuple) -> tuple[np.ndarray, ...]:
    """This thread's work arrays of the set ``name``, one per shape. Kept
    while the shapes stay the same, replaced when they change."""
    kept = getattr(_quadrature_work, name, None)
    if kept is None or kept[0] != shapes:
        setattr(_quadrature_work, name, None)  # free the old set before the new one
        kept = (shapes, tuple(np.empty(shape) for shape in shapes))
        setattr(_quadrature_work, name, kept)
    return kept[1]


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

    The work arrays (the kernel, kernel @ grid, the two gathered operand
    stacks and the mixture) stay with the calling thread until a call
    with other shapes replaces them: with 16 nodes, 1.6 MiB at 1024QAM,
    about 10 MiB for a dihedral 4096QAM pmf and about 73 MiB for a
    non-dihedral one, the peak that call reaches with fresh arrays.
    """
    return _quadrature(constellation, pmf, snr_db, rule, gradient=False)


def _mi_and_gradient(
    constellation: Constellation,
    pmf: Pmf,
    snr_db: float,
    rule: QuadratureRule | None = None,
) -> tuple[float, np.ndarray, float]:
    """``mi_awgn_2d``'s value, bit for bit, with the exact derivatives of
    the unclamped quadrature sum: dI/dP over the (sqrt(M), sqrt(M)) pmf
    grid with the levels and sigma held fixed, and dI/dsigma with sigma
    = 10^(-snr_db/20), both in bits.

    I = -sum_s p_s E log mix_s, so dI/dP[j] is -E log mix at point j
    minus sum_s p_s E[K_s(j) / mix_s], a bilinear form in the kernels of
    the sent point's two levels (K_s(j) is point j's kernel term in
    mix_s). At a point of zero mass the first term is left out: it is
    not computed, and every pmf family scales dP[j] by p_j. Over orbit
    representatives, the second sum is completed by averaging over the
    eight symmetries of the square. Both come from the floored kernels and
    move within the floors' bound (see the module docstring).

    The gradient keeps a second set of work arrays per thread: the
    kernel's sigma-derivative and the weighted inverse mixture and its
    product with the Q kernels, 0.9 MiB at 1024QAM with 16 nodes.
    """
    return _quadrature(constellation, pmf, snr_db, rule, gradient=True)


def _quadrature(constellation, pmf, snr_db, rule, gradient):
    """The quadrature of ``mi_awgn_2d``, with ``_mi_and_gradient``'s
    derivatives when ``gradient``."""
    if rule is None:
        rule = gauss_hermite(DEFAULT_ORDER)
    _require_unit_power(constellation, pmf)
    sigma = np.sqrt(_snr_to_sigma2(snr_db))

    p = pmf.probs
    m = constellation.side
    grid = p.reshape(m, m)
    dihedral = _is_dihedral(grid)
    if dihedral:
        reps = constellation.orbit_reps
        mult = constellation.orbit_sizes.astype(np.float64)
    else:
        reps = np.arange(constellation.order)
        mult = np.ones(constellation.order)
    keep = p[reps] > 0.0
    reps, mult = reps[keep], mult[keep]
    weights = p[reps] * mult

    # A sent point enters the kernels only through its I and Q levels,
    # which are the same on both axes: build the kernel once per level,
    # then pick each representative's pair.
    a, r = rule.order, reps.size
    k, kg, left, right, mix = _work_arrays(
        "value", ((m, a, m), (m, a, m), (r, a, m), (r, a, m), (r, a, a)))
    shift = _log_kernel(constellation.levels, sigma, rule.nodes, k)  # (m, A, m)
    ri, rq = np.divmod(reps, m)
    np.matmul(k, grid, out=kg)
    np.maximum(kg, KERNEL_GRID_FLOOR, out=kg)
    # The right operand keeps the strides of a gathered (R, A, m) stack
    # seen as (R, m, A): the matmul's rounding depends on the layout.
    # mode="clip" (the indices are in range) keeps np.take from
    # buffering its output.
    np.matmul(np.take(kg, ri, axis=0, out=left, mode="clip"),
              np.swapaxes(np.take(k, rq, axis=0, out=right, mode="clip"), 1, 2),
              out=mix)                                                # (R, A, B)
    w2d = np.outer(rule.weights, rule.weights) / np.pi
    if gradient:
        k_sigma, ratio, prod = _work_arrays("gradient", ((m, a, m), (r, a, a), (r, a, m)))
        np.divide(w2d, mix, out=ratio)
        ratio *= weights[:, None, None]      # p_r mult_r w_a w_b / mix_r[a, b]
    np.log(mix, out=mix)
    mix += shift[ri][:, :, None]
    mix += shift[rq][:, None, :]
    per_rep = np.tensordot(mix, w2d, axes=([1, 2], [0, 1]))

    mi = -float((weights * per_rep).sum()) / LN2
    mi = float(np.clip(mi, 0.0, entropy(pmf)))
    if not gradient:
        return mi

    # The kernel's sigma-derivative: k times 2 d^2 / sigma^3 + 2 d t / sigma^2.
    d = (constellation.levels[:, None] - constellation.levels[None, :])[:, None, :]
    np.multiply((2.0 / (sigma * sigma)) * d, rule.nodes[None, :, None], out=k_sigma)
    k_sigma += (2.0 / sigma**3) * (d * d)
    k_sigma *= k
    # ratio @ k_Q, summed over the representatives of each I level (the
    # representatives ascend, so their I levels do too).
    np.matmul(ratio, right, out=prod)                                # (R, A, m)
    starts = np.flatnonzero(np.diff(ri, prepend=-1))
    levels_i = ri[starts]
    prod_i = np.add.reduceat(prod, starts, axis=0)
    # Batched products and einsum sums, where one large product or dot
    # would have BLAS start its threads.
    d_grid = -np.matmul(np.swapaxes(k[levels_i], 1, 2), prod_i).sum(axis=0)
    d_grid.flat[reps] -= mult * per_rep
    if dihedral:
        d_grid = d_grid + d_grid[::-1]
        d_grid = d_grid + d_grid[:, ::-1]
        d_grid = (d_grid + d_grid.T) / 8.0
    # d mix / d sigma has an I term and a Q term, one kernel differentiated.
    d_sigma = -np.einsum("iaj,iaj->", np.matmul(k_sigma[levels_i], grid), prod_i)
    np.matmul(np.swapaxes(ratio, 1, 2), left, out=prod)             # (R, B, m)
    d_sigma -= np.einsum("raj,raj->", np.take(k_sigma, rq, axis=0, out=right, mode="clip"), prod)
    return mi, d_grid / LN2, float(d_sigma) / LN2


def _posterior_layout(m: int, n: int) -> tuple[int, int, int]:
    """(blocks, width, stride) of ``_neg_log_posterior``'s arrays for a
    chunk of n samples at m levels. The chunk is split into blocks of
    ``width`` samples, the last one padded, with the most samples that keep
    one (m x m) @ (m x width) product within ``BLAS_ONE_THREAD_MNK``; each
    array is (m, blocks * width), its rows ``stride`` floats apart."""
    width = min(max(1, BLAS_ONE_THREAD_MNK // (m * m)), n)
    blocks = -(-n // width)
    return blocks, width, blocks * width + (ROW_SKEW if blocks > 1 else 0)


def _neg_log_posterior_chunks(samples, source, levels, grid, sigma2):
    """Yield ``_neg_log_posterior`` in nats for each chunk of ``samples``
    samples (see the module docstring); ``source(part)`` gives the samples
    of the slice ``part`` as (y, i, q).

    Every sample keeps the bits of one call on its whole chunk: all but the
    level product is per sample, and a column of the product keeps its bits
    in every layout ``_posterior_layout`` gives a block of more than one
    sample. A lone sample is a matrix-vector product, which rounds
    otherwise; equal blocks keep every block of a chunk longer than
    ``POSTERIOR_BLOCK`` above half a block.
    """
    size = levels.size * _posterior_layout(levels.size, POSTERIOR_BLOCK)[2]
    work = np.empty(size), np.empty(size), np.empty(size)
    for lo in range(0, samples, POSTERIOR_CHUNK):
        y, i, q = source(slice(lo, min(lo + POSTERIOR_CHUNK, samples)))
        n = y.size
        blocks = -(-n // POSTERIOR_BLOCK)
        bounds = n * np.arange(blocks + 1) // blocks
        yield np.concatenate([
            _neg_log_posterior(y[a:b], i[a:b], q[a:b], levels, grid, sigma2, work)
            for a, b in zip(bounds[:-1], bounds[1:])
        ])


def _neg_log_posterior(y, i, q, levels, grid, sigma2, work):
    """-log P(x_sent | y) in nats per sample, noise circular Gaussian of
    variance ``sigma2``.

    Sample s was sent from level indices (i[s], q[s]) of the square grid
    with ``levels`` on both axes and pmf ``grid``. The mixture is
    k_I^T P k_Q (see the module docstring) with per-sample 1-D kernels
    exp(-(y - level)^2 / sigma2), each divided by its largest entry. The
    divisors cancel against the sent point's term, taken in logs. Wherever
    the shifted mixture is at least ``MIX_FLOOR``, flushing the kernel
    entries below exp(EXP_UNDERFLOW) moves it by at most one rounding.
    Below the floor, for a sample far from all mass whose nearest cells
    carry none, the sample is recomputed exactly by a dense log-sum-exp
    over the support. ``work`` holds three flat float arrays of at least m
    times ``_posterior_layout``'s stride floats each.

    The product P^T k_I runs on one thread, as one BLAS product per column
    block of samples (``_posterior_layout``), batched into one matmul: on a
    2-core host, the threaded product took twice the CPU for no gain in
    wall time.
    """
    m, n = levels.size, y.size
    blocks, width, stride = _posterior_layout(m, n)
    cols = blocks * width
    ell_i, ell_q, pk_i = (buf[: m * stride].reshape(m, stride)[:, :cols] for buf in work)
    samples = np.arange(n)
    log_p = np.where(grid > 0.0, np.log(np.maximum(grid, PROB_TINY)), -np.inf)
    neg = -log_p[i, q]
    for coord, sent, ell in ((y.real, i, ell_i), (y.imag, q, ell_q)):
        # Levels along the first axis: the reductions over levels are then
        # elementwise passes over contiguous rows of samples. The padding
        # of the last block repeats samples from the start of the chunk.
        np.subtract(levels[:, None], np.resize(coord, cols) if cols > n else coord, out=ell)
        np.square(ell, out=ell)
        ell /= -sigma2
        ell -= ell.max(axis=0)
        neg -= ell[sent, samples]
        np.maximum(ell, EXP_UNDERFLOW, out=ell)
        np.exp(ell, out=ell)
    np.matmul(grid.T, ell_i.reshape(m, blocks, width).swapaxes(0, 1),
              out=pk_i.reshape(m, blocks, width).swapaxes(0, 1))
    mix = np.einsum("js,js->s", pk_i[:, :n], ell_q[:, :n])
    if mix.min() >= MIX_FLOOR:
        return neg + np.log(mix)

    tail = np.flatnonzero(mix < MIX_FLOOR)
    mix[tail] = 1.0  # a placeholder: these samples are recomputed below
    neg += np.log(mix)
    y, i, q = y[tail], i[tail], q[tail]
    si, sq = np.nonzero(grid > 0.0)
    a = log_p[si, sq] - ((y.real[:, None] - levels[si]) ** 2
                         + (y.imag[:, None] - levels[sq]) ** 2) / sigma2
    a_max = a.max(axis=1)
    a_sent = log_p[i, q] - ((y.real - levels[i]) ** 2 + (y.imag - levels[q]) ** 2) / sigma2
    neg[tail] = a_max + np.log(np.exp(a - a_max[:, None]).sum(axis=1)) - a_sent
    return neg


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
    entropy. Deterministic for a given seed, a non-negative integer.
    """
    seed = _int_at_least("seed", seed, 0)
    samples = _int_at_least("samples", samples, 1)
    if samples < MIN_MEASURED_SAMPLES:
        raise ValueError(f"need at least 1e4 samples for a stable estimate, got {samples}")
    _require_unit_power(constellation, pmf)
    sigma2 = _snr_to_sigma2(snr_db)

    rng = np.random.default_rng(seed)
    x = constellation.points
    m = constellation.side
    inverse_cdf = _inverse_cdf(pmf)

    def draw(part):
        k = part.stop - part.start
        idx = inverse_cdf(rng.random(k))  # Generator.choice's indices
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(k) + 1j * rng.standard_normal(k)
        )
        return (x[idx] + noise, *np.divmod(idx, m))

    total = 0.0
    total_sq = 0.0
    for nats in _neg_log_posterior_chunks(samples, draw, constellation.levels,
                                          pmf.probs.reshape(m, m), sigma2):
        bits = nats / LN2
        total += float(bits.sum())
        total_sq += float((bits**2).sum())

    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    mi = entropy(pmf) - mean
    return float(np.clip(mi, 0.0, entropy(pmf))), float(np.sqrt(var / samples))
