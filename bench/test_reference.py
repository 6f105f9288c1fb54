"""Tests of the benchmark's reference code: python -m pytest bench"""

import math

import numpy as np
import pytest

import reference as ref


def full_dense_mi_2d(order, probs, snr_db):
    """Outer sum over every transmitted point, one at a time: the octant
    fold in ``dense_mi_2d`` must give the same number."""
    x = ref.qam_points(order)
    x = x / math.sqrt(float(probs @ np.abs(x) ** 2))
    sigma2 = 10.0 ** (-snr_db / 10.0)
    t, w = np.polynomial.hermite.hermgauss(ref.GH_ORDER)
    total = 0.0
    for i in range(order):
        for a in range(t.size):
            for b in range(t.size):
                y = x[i] + math.sqrt(sigma2) * (t[a] + 1j * t[b])
                mix = np.sum(probs * np.exp(-(np.abs(y - x) ** 2 - np.abs(y - x[i]) ** 2) / sigma2))
                total += probs[i] * w[a] * w[b] / math.pi * math.log2(mix)
    return -total


@pytest.mark.parametrize("order", [16, 64])
@pytest.mark.parametrize("snr_db", [0.0, 12.0, 25.0])
def test_dense_matches_plain_loop(order, snr_db):
    probs = ref.shaped_pmf(order, 0.02, 1e-4)
    assert ref.dense_mi_2d(order, probs, snr_db) == pytest.approx(
        full_dense_mi_2d(order, probs, snr_db), abs=1e-12)


@pytest.mark.parametrize("order", [16, 64, 256])
@pytest.mark.parametrize("lam_pu", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("snr_db", [5.0, 18.0, 30.0])
def test_product_pmf_two_by_pam(order, lam_pu, snr_db):
    lam = lam_pu / (2.0 * (order - 1) / 3.0)
    assert ref.pam_mi_2d(order, lam, snr_db) == pytest.approx(
        ref.dense_mi_2d(order, ref.shaped_pmf(order, lam), snr_db), abs=1e-12)


@pytest.mark.parametrize("order", [16, 64])
def test_high_snr_limit_is_entropy(order):
    for probs, mi in (
        (ref.shaped_pmf(order), ref.pam_mi_2d(order, 0.0, 40.0)),
        (ref.shaped_pmf(order, 0.05, 1e-3), ref.dense_mi_2d(order, ref.shaped_pmf(order, 0.05, 1e-3), 40.0)),
    ):
        assert mi == pytest.approx(ref.entropy_bits(probs), abs=1e-6)


@pytest.mark.parametrize("order", [16, 256])
def test_low_snr_limit_is_zero(order):
    # For a zero-mean unit-power input, I = snr log2(e) to first order.
    snr_db = -40.0
    snr = 10.0 ** (snr_db / 10.0)
    for mi in (ref.pam_mi_2d(order, 0.0, snr_db),
               ref.dense_mi_2d(order, ref.shaped_pmf(order, 0.01, 1e-4), snr_db)):
        assert 0.0 < mi < 2e-4
        assert mi == pytest.approx(snr / math.log(2.0), rel=1e-3)


def test_dense_rejects_asymmetric_pmf():
    probs = np.full(16, 1.0 / 16)
    probs[0], probs[1] = 0.5 / 16, 1.5 / 16
    with pytest.raises(ValueError):
        ref.dense_mi_2d(16, probs, 10.0)


def test_effective_snr_and_ase_budget():
    assert ref.effective_snr_db(18.0, 0.69, 0.0) == 18.0
    assert ref.effective_snr_db(18.0, 0.69, -0.5) > 18.0
    base = ref.ase_only_snr_db(0.0, 200.0, 0.165, 5.0, 1550.0, 33.0)
    assert ref.ase_only_snr_db(3.0, 200.0, 0.165, 5.0, 1550.0, 33.0) == pytest.approx(base + 3.0)
