"""Reference computations the benchmark checks nlshaping against.

Written apart from ``nlshaping``: nothing here imports the package. Both MI
estimators evaluate the same tensor-product Gauss-Hermite expectation the
program uses, so on a correct program they agree to rounding:

- ``pam_mi_2d`` for pmfs that factor over I and Q (uniform,
  Maxwell-Boltzmann). Circular noise splits into two independent real
  noises, so the 2-D MI is exactly twice the MI of the 1-D PAM component.
- ``dense_mi_2d`` for pmfs that do not factor, such as the kurtosis-tailored
  family, whose exp(-nu2 |x|^4) factor couples I and Q. It is the plain sum
  over every node pair and every candidate point for each transmitted point
  (one per mirror orbit; see its docstring).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

# The program's default quadrature order; matching it makes the check exact.
GH_ORDER = 16

# exp() arguments below this are flushed to it. That moves the MI by less
# than M e^-700, while exp() of the subnormal range is many times slower.
EXP_FLOOR = -700.0

PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 299792458.0


def pam_levels(order: int) -> np.ndarray:
    """Odd-integer levels of one quadrature of square ``order``-QAM."""
    m = math.isqrt(order)
    if m * m != order or m < 2:
        raise ValueError(f"order {order} is not square QAM")
    return np.arange(-(m - 1), m, 2, dtype=np.float64)


def qam_points(order: int) -> np.ndarray:
    """Square QAM on the odd-integer grid, row-major over (I, Q) levels."""
    levels = pam_levels(order)
    re, im = np.meshgrid(levels, levels, indexing="ij")
    return (re + 1j * im).ravel()


def shaped_pmf(order: int, nu1: float = 0.0, nu2: float = 0.0) -> np.ndarray:
    """p_i proportional to exp(-nu1 |x_i|^2 - nu2 |x_i|^4) on the raw grid.

    nu1 = nu2 = 0 is uniform, nu2 = 0 is Maxwell-Boltzmann with rate nu1.
    """
    x = qam_points(order)
    r2 = x.real**2 + x.imag**2
    e = -nu1 * r2 - nu2 * r2 * r2
    p = np.exp(e - e.max())
    return p / p.sum()


def excess_kurtosis(order: int, probs: np.ndarray) -> float:
    """E|X|^4 / (E|X|^2)^2 - 2 of the complex symbol."""
    x = qam_points(order)
    r2 = x.real**2 + x.imag**2
    m2 = float(probs @ r2)
    return float(probs @ (r2 * r2)) / (m2 * m2) - 2.0


def effective_snr_db(snr_gauss_db: float, c: float, kurtosis: float) -> float:
    """Optimum-power SNR under NLI proportional to (1 + c K) P^3."""
    return snr_gauss_db + 10.0 * math.log10((1.0 / (1.0 + c * kurtosis)) ** (1.0 / 3.0))


def gaussian_mi_4d(snr_db: float) -> float:
    """Gaussian-input MI of two polarizations, bits per 4-D symbol."""
    return 2.0 * math.log2(1.0 + 10.0 ** (snr_db / 10.0))


def pam_mi_2d(order: int, lam: float, snr_db: float) -> float:
    """MI in bits per complex symbol of a product pmf exp(-lam |x|^2).

    The constellation is scaled to unit mean power; each real quadrature
    sees noise of variance sigma^2 / 2 with sigma^2 = 10^(-snr/10).
    """
    levels = pam_levels(order)
    q = np.exp(-lam * (levels**2 - (levels**2).min()))
    q /= q.sum()
    levels = levels / math.sqrt(2.0 * float(q @ levels**2))
    sigma = 10.0 ** (-snr_db / 20.0)
    t, w = hermgauss(GH_ORDER)
    n = sigma * t                                        # (A,)
    d = levels[:, None] - levels[None, :]                # (L, L): x_i - x_j
    # -((d + n)^2 - n^2) / sigma^2 per (i, a, j)
    expo = -(d[:, None, :] ** 2 + 2.0 * d[:, None, :] * n[None, :, None]) / sigma**2
    inner = np.exp(expo) @ q                             # (L, A)
    mi_1d = -float(q @ (np.log(inner) @ (w / math.sqrt(math.pi)))) / math.log(2.0)
    return 2.0 * mi_1d


def dense_mi_2d(order: int, probs: np.ndarray, snr_db: float) -> float:
    """MI in bits per complex symbol of a pmf on square QAM that is symmetric
    under the square's reflections, by the plain sum over transmitted
    points x (GH_ORDER^2) node pairs x all M candidate points.

    The Gauss-Hermite node set has the same symmetry, so the term of a
    transmitted point equals that of each of its mirror images; the outer
    sum runs over one octant (0 < Q <= I) with the orbit sizes as weights.
    """
    probs = np.asarray(probs, dtype=np.float64)
    grid = probs.reshape(math.isqrt(order), -1)              # [I level, Q level]
    for image in (grid[::-1, :], grid[:, ::-1], grid.T):
        if not np.allclose(image, grid, rtol=1e-12, atol=0.0):
            raise ValueError("dense_mi_2d needs a pmf symmetric under the square's reflections")
    x = qam_points(order)
    x = x / math.sqrt(float(probs @ (x.real**2 + x.imag**2)))
    octant = (x.imag > 0.0) & (x.real >= x.imag) & (probs > 0.0)
    outer = x[octant]
    outer_w = probs[octant] * np.where(np.isclose(outer.real, outer.imag), 4.0, 8.0)
    keep = probs > 0.0
    x, logp = x[keep], np.log(probs[keep])
    sigma = 10.0 ** (-snr_db / 20.0)
    t, w = hermgauss(GH_ORDER)
    na = sigma * np.repeat(t, t.size)                        # node (a, b) = na + i nb
    nb = sigma * np.tile(t, t.size)
    wab = np.outer(w, w).ravel() / math.pi
    # The exponent log p_j - (|d + n|^2 - |n|^2) / sigma^2, d = x_i - x_j, is
    # affine in (1, na, nb): one small product gives every (ab, j) term of x_i.
    node_coef = np.stack([np.ones_like(na), -2.0 * na / sigma**2, -2.0 * nb / sigma**2], axis=1)
    acc = 0.0
    for xi, wi in zip(outer, outer_w):
        d = xi - x
        per_point = np.stack([logp - (d.real**2 + d.imag**2) / sigma**2, d.real, d.imag])
        expo = node_coef @ per_point                                   # (AB, M)
        np.maximum(expo, EXP_FLOOR, out=expo)
        log_mix = np.log(np.exp(expo, out=expo).sum(axis=1))           # (AB,)
        acc += wi * float(log_mix @ wab)
    return -acc / math.log(2.0)


def entropy_bits(probs: np.ndarray) -> float:
    p = probs[probs > 0.0]
    return float(-(p * np.log2(p)).sum())


def ase_only_snr_db(launch_dbm: float, span_km: float, alpha_db_per_km: float,
                    nf_db: float, wavelength_nm: float, baud_ghz: float) -> float:
    """Per-channel SNR with amplifier noise as the only impairment.

    Per-polarization ASE PSD (h nu / 2)(G NF - 1) in the symbol band,
    against half the dual-polarization launch power.
    """
    gain = 10.0 ** (alpha_db_per_km * span_km / 10.0)
    nf = 10.0 ** (nf_db / 10.0)
    nu = LIGHT_SPEED_M_S / (wavelength_nm * 1e-9)
    psd = PLANCK_J_S * nu / 2.0 * (gain * nf - 1.0)
    p_pol = 1e-3 * 10.0 ** (launch_dbm / 10.0) / 2.0
    return 10.0 * math.log10(p_pol / (psd * baud_ghz * 1e9))
