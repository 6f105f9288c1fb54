"""Shaping family tests: pmf construction, moments, entropy."""

import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nlshaping import (
    Constellation,
    Family,
    Modulation,
    Pmf,
    QuadratureRule,
    ShapingParams,
    build_pmf,
    entropy,
    excess_kurtosis,
    gauss_hermite,
    mb_pmf,
    normalized,
    ring_pmf,
    square_qam,
    tailored_pmf,
    uniform_pmf,
)
from nlshaping.shaping import _inverse_cdf, ring_masses
from nlshaping.ssfm import DualPolField
from test_awgn_mi import is_ring_constant


def exact_uniform_kurtosis(order):
    """Oracle: exact rational moments of the uniform integer grid."""
    m = int(round(order**0.5))
    levels = [Fraction(2 * k - (m - 1)) for k in range(m)]
    r2 = [i * i + q * q for i in levels for q in levels]
    m2 = sum(r2) / len(r2)
    m4 = sum(v * v for v in r2) / len(r2)
    return m4 / (m2 * m2) - 2


class TestPmfValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            Pmf(np.full(4, 0.3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.5, np.nan, 0.0]) / 1.0)

    def test_flushes_subnormal_tails(self):
        probs = np.array([1.0 - 1e-301, 1e-301])
        pmf = Pmf(probs)
        assert pmf.probs[1] == 0.0
        assert pmf.probs.sum() == 1.0


class TestIdentityEquality:
    def test_array_holders_compare_and_hash_by_identity(self):
        # Compared field by field, their arrays made == raise ValueError
        # and hash() TypeError.
        c = square_qam(16)
        pmf = uniform_pmf(c)
        twin = Pmf(pmf.probs.copy())
        assert (pmf == twin) is False and (pmf == pmf) is True
        modulation = Modulation("uniform", c, pmf)
        assert (modulation == Modulation("uniform", c, twin)) is False
        assert modulation == Modulation("uniform", square_qam(16), pmf)
        assert len({pmf, twin, modulation, Modulation("uniform", c, pmf)}) == 3
        rule = gauss_hermite(16)
        assert (QuadratureRule(rule.nodes.copy(), rule.weights.copy()) == rule) is False
        field = DualPolField(np.zeros((2, 4), complex), 1.0, np.zeros((1, 2, 2), complex))
        assert {field: "field"}[field] == "field"


class TestMaxwellBoltzmann:
    def test_lambda_zero_is_uniform(self):
        c = square_qam(64)
        np.testing.assert_allclose(mb_pmf(c, 0.0).probs, 1 / 64, rtol=0, atol=0)

    def test_large_lambda_concentrates_on_inner_ring(self):
        c = square_qam(16)
        unit = normalized(c, uniform_pmf(c))
        pmf = mb_pmf(unit, 100.0)
        inner = unit.sq_magnitudes == unit.sq_magnitudes.min()
        np.testing.assert_allclose(pmf.probs[inner], 0.25, atol=1e-12)
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_ratio_matches_direct_evaluation(self):
        # On the raw integer grid: p(r2=2)/p(r2=18) = exp(0.05 * 16)
        c = square_qam(16)
        pmf = mb_pmf(c, 0.05)
        p_inner = pmf.probs[np.argmin(c.sq_magnitudes)]
        p_outer = pmf.probs[np.argmax(c.sq_magnitudes)]
        assert p_inner / p_outer == pytest.approx(math.exp(0.8), rel=1e-13)

    def test_extreme_rate_is_overflow_safe(self):
        c = square_qam(16)
        # |lam| * max|x|^2 = 700: still finite and normalized
        for lam in (700.0 / 18.0, -700.0 / 18.0):
            pmf = mb_pmf(c, lam)
            assert np.all(np.isfinite(pmf.probs))
            assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite(self):
        c = square_qam(16)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                mb_pmf(c, bad)


class TestTailored:
    def test_nu2_zero_reduces_to_mb(self):
        # Bit for bit: optimize_tailored reports the MB optimum through
        # this family without a tolerance.
        c = square_qam(256)
        a = tailored_pmf(c, 0.013, 0.0)
        b = mb_pmf(c, 0.013)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_origin_is_uniform(self):
        c = square_qam(64)
        np.testing.assert_allclose(tailored_pmf(c, 0.0, 0.0).probs, 1 / 64)

    def test_positive_nu2_cuts_kurtosis_below_equal_entropy_mb(self):
        # Sub-Gaussian tail decay (nu2 > 0) is what pushes kurtosis below
        # any Maxwell-Boltzmann pmf of the same entropy.
        c = square_qam(64)
        pu = float(np.mean(c.sq_magnitudes))
        shaped = tailored_pmf(c, -0.2 / pu, 0.5 / pu**2)
        target_h = entropy(shaped)
        lam_eq = brentq(
            lambda u: entropy(mb_pmf(c, u / pu)) - target_h, 1e-9, 60.0
        ) / pu
        mb_match = mb_pmf(c, lam_eq)
        assert entropy(mb_match) == pytest.approx(target_h, abs=1e-9)
        assert excess_kurtosis(c, shaped) < excess_kurtosis(c, mb_match) - 0.05

    def test_rejects_non_finite(self):
        c = square_qam(16)
        with pytest.raises(ValueError):
            tailored_pmf(c, np.inf, 0.0)
        with pytest.raises(ValueError):
            tailored_pmf(c, 0.0, np.nan)


# sha256 per side of the uniform pmf, of the MB pmfs at lam P_u in PIN_MB_U
# and of the tailored pmfs at (nu1 P_u, nu2 P_u^2) in PIN_TAILORED_V, with
# P_u the grid's uniform mean power: sides 4-64 (16-4096QAM) and side 6,
# an order that is not a power of two.
PIN_MB_U = (0.01, 1.0, 30.0)
PIN_TAILORED_V = ((-0.2, 1.3), (2.0, -0.1))
PINNED_PMF_SHA256 = {
    4: ('d5ced4a0fdc0dcd83f097357e679dbf69e71f01d4ada5a7f7670adac84ceb6c2', 'f59d314693e6c5a9b805d30ef641c6dc46d8686dc3024dd1a17bbfbadd213f78', '7e9dea6088aa711940cc2316f3b01a064ef1a04b73b7af4ef167205c13648696'),
    6: ('1211923806491eff6d1eedd080edd9b92364ae057709601fc830db33ed9ded5c', 'de25bb74e41fff51d4e6120afa63a5dcfce43fc08befa163a3b56a4ac04eaba4', '962e506facd9cfbd93040dbb5397070546326b3c65a7c76654308b5c39ab4d79'),
    8: ('25493ecc62734a68fad443881a595d122cb7a93ddf9d07e5ec2060baf84f03fd', '7afd7b5ab9e0fa77398d4f212405da272c321d5c8efd2131234a27eef0a0f635', 'b8f925e46943aa915659a7a6ab8b3645e2c89c177eca9d71cbf6fcee40083ae3'),
    16: ('62fd56f6dba82940fef0d2e81f7ee6eb90b9a1966386285b96b358940370ef9c', 'fab774eb5fabb4c9667988427c6024d3fd6996cd5aa57ec4b8f40ea93c6a2bd8', '56322fc961746740c611fe7b10734e7219f7c1306d954cdce09e2fbf39c17963'),
    32: ('2e9a3ef40f7a6b5212de9e8d5e6790f46751b08b405a11207b9099d51c786705', '99f9c596787da37ec27acbba6caec5c9c77e65dc3f79a9456dad53ad9b299447', '8a41452da644aca6eb4641885b3cbf41752e66a55aeae9d2a4ae08b877f15407'),
    64: ('e10c380eb61db0a578df4851abb1fb37be07e34dacf8189b86eb2c171f049ea4', 'a01639ddba402f3f01d783bc716ff6e0daccb6466deac2d7ca09eba46d13c51c', '80f588a8a84ddcbf5d6494b7103be43c57b806e539b25181c56e1ea8eb9244dc'),
}


class TestPmfBitPins:
    """The three families keep the bits they had when each had its own
    builder; uniform and MB are the tailored family's (0, 0) and
    (lam, 0) points byte for byte."""

    @staticmethod
    def digest(pmfs) -> str:
        h = hashlib.sha256()
        for pmf in pmfs:
            h.update(pmf.probs.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("side", sorted(PINNED_PMF_SHA256))
    def test_pmfs_keep_their_bits(self, side):
        c = Constellation(side)
        p_u = 2.0 * (side * side - 1) / 3.0
        digests = (self.digest([uniform_pmf(c)]),
                   self.digest(mb_pmf(c, u / p_u) for u in PIN_MB_U),
                   self.digest(tailored_pmf(c, a / p_u, b / p_u**2) for a, b in PIN_TAILORED_V))
        assert digests == PINNED_PMF_SHA256[side]

    @pytest.mark.parametrize("side", sorted(PINNED_PMF_SHA256))
    def test_uniform_and_mb_are_tailored_points(self, side):
        c = Constellation(side)
        p_u = 2.0 * (side * side - 1) / 3.0
        uniform = uniform_pmf(c).probs.tobytes()
        assert uniform == mb_pmf(c, 0.0).probs.tobytes() == tailored_pmf(c, 0.0, 0.0).probs.tobytes()
        for u in PIN_MB_U:
            assert mb_pmf(c, u / p_u).probs.tobytes() == tailored_pmf(c, u / p_u, 0.0).probs.tobytes()


class TestRingConstantProperty:
    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_mb_and_tailored_are_ring_constant(self, order):
        c = square_qam(order)
        pu = float(np.mean(c.sq_magnitudes))
        for pmf in (mb_pmf(c, 1.3 / pu), tailored_pmf(c, 0.4 / pu, 0.8 / pu**2)):
            assert is_ring_constant(c, pmf, tol=1e-14)
            for ring in range(c.ring_sizes.size):
                assert np.ptp(pmf.probs[c.ring_index == ring]) <= 1e-14

    def test_merged_shell_gets_single_probability(self):
        # ring at 50 in 64QAM mixes (1,7)- and (5,5)-type points
        c = square_qam(64)
        pmf = tailored_pmf(c, 0.01, 1e-4)
        ring50 = c.sq_magnitudes == 50.0
        assert ring50.sum() == 12
        assert np.ptp(pmf.probs[ring50]) == 0.0


class TestExcessKurtosis:
    def test_single_ring_is_minus_one(self):
        qpsk = Constellation(2)
        assert excess_kurtosis(qpsk, uniform_pmf(qpsk)) == pytest.approx(-1.0, abs=1e-15)

    def test_uniform_64qam_closed_form(self):
        c = square_qam(64)
        got = excess_kurtosis(c, uniform_pmf(c))
        assert got == pytest.approx(-0.61905, abs=1e-5)
        assert got == pytest.approx(float(exact_uniform_kurtosis(64)), abs=1e-12)

    @pytest.mark.parametrize("order", [16, 256, 1024])
    def test_uniform_matches_rational_oracle(self, order):
        c = square_qam(order)
        got = excess_kurtosis(c, uniform_pmf(c))
        assert got == pytest.approx(float(exact_uniform_kurtosis(order)), abs=1e-12)

    def test_complex_gaussian_reference_is_zero(self):
        rng = np.random.default_rng(1234)
        z = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000))
        r2 = np.abs(z) ** 2
        khat = np.mean(r2**2) / np.mean(r2) ** 2 - 2.0
        assert abs(khat) < 0.02

    def test_mb_limit_approaches_minus_one(self):
        # Kurtosis versus rate is continuous but not monotone (it peaks
        # near lam = 2 on normalized 16QAM before collapsing); only the
        # constant-modulus limit is pinned.
        c = square_qam(16)
        unit = normalized(c, uniform_pmf(c))
        lams = np.arange(0.0, 10.0, 0.05)
        kurts = [excess_kurtosis(unit, mb_pmf(unit, lam)) for lam in lams]
        assert max(abs(b - a) for a, b in zip(kurts, kurts[1:])) < 0.05
        assert excess_kurtosis(unit, mb_pmf(unit, 100.0)) == pytest.approx(
            -1.0, abs=1e-6
        )

    @pytest.mark.parametrize("scale", [0.1, 1.0, 7.0])
    def test_scale_invariance(self, scale):
        c = square_qam(64)
        pmf = mb_pmf(c, 0.01)
        scaled = replace(c, scale=scale)
        assert excess_kurtosis(scaled, pmf) == pytest.approx(
            excess_kurtosis(c, pmf), abs=1e-10
        )

    @given(
        lam_scaled=st.floats(0.0, 5.0),
        scale=st.floats(0.01, 100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance_property(self, lam_scaled, scale):
        c = square_qam(16)
        pmf = mb_pmf(c, lam_scaled / 10.0)
        scaled = replace(c, scale=scale)
        assert excess_kurtosis(scaled, pmf) == pytest.approx(
            excess_kurtosis(c, pmf), abs=1e-9
        )


class TestEntropy:
    def test_uniform(self):
        for order in (16, 256):
            assert entropy(uniform_pmf(square_qam(order))) == pytest.approx(
                math.log2(order), abs=1e-12
            )

    def test_point_mass(self):
        probs = np.zeros(16)
        probs[3] = 1.0
        assert entropy(Pmf(probs)) == 0.0

    def test_mb_entropy_against_high_precision_sum(self):
        import mpmath

        c = square_qam(16)
        pmf = mb_pmf(c, 0.05)
        with mpmath.workdps(60):
            weights = [mpmath.exp(-mpmath.mpf("0.05") * int(r2))
                       for r2 in c.sq_magnitudes]
            z = mpmath.fsum(weights)
            probs = [w / z for w in weights]
            expected = -mpmath.fsum(p * mpmath.log(p, 2) for p in probs)
        assert entropy(pmf) == pytest.approx(float(expected), abs=1e-12)


class TestRingPmf:
    def test_masses_split_equally(self):
        c = square_qam(16)
        pmf = ring_pmf(c, [0.5, 0.3, 0.2])
        for r2, mass, size in ((2.0, 0.5, 4), (10.0, 0.3, 8), (18.0, 0.2, 4)):
            ring = c.sq_magnitudes == r2
            assert ring.sum() == size
            np.testing.assert_allclose(pmf.probs[ring], mass / size)
        np.testing.assert_allclose(ring_masses(c, pmf), [0.5, 0.3, 0.2], atol=1e-15)

    @pytest.mark.parametrize("order", [16, 64, 256, 1024])
    def test_matches_loop_over_rings(self, order):
        # Reference: one ring at a time, each ring the points of one exact
        # squared magnitude of the integer grid. The split is the same
        # division; the masses are summed in another order.
        c = square_qam(order)
        rng = np.random.default_rng(order)
        shells = np.unique(c.sq_magnitudes)
        masses = rng.random(shells.size)
        masses /= masses.sum()
        want = np.zeros(order)
        for shell, mass in zip(shells, masses):
            ring = c.sq_magnitudes == shell
            want[ring] = mass / ring.sum()
        np.testing.assert_array_equal(ring_pmf(c, masses).probs, Pmf(want).probs)

        probs = rng.random(order)
        pmf = Pmf(probs / probs.sum())
        loop = [pmf.probs[c.sq_magnitudes == shell].sum() for shell in shells]
        np.testing.assert_allclose(ring_masses(c, pmf), loop, rtol=0.0,
                                   atol=4 * np.finfo(np.float64).eps)

    def test_wrong_length_rejected(self):
        c = square_qam(16)
        with pytest.raises(ValueError, match="ring probabilities"):
            ring_pmf(c, [0.5, 0.5])

    def test_build_pmf_dispatch(self):
        c = square_qam(16)
        cases = [
            (ShapingParams(Family.UNIFORM), uniform_pmf(c)),
            (ShapingParams(Family.MAXWELL_BOLTZMANN, lam=0.1), mb_pmf(c, 0.1)),
            (ShapingParams(Family.KURTOSIS_TAILORED, nu1=0.1, nu2=-0.001),
             tailored_pmf(c, 0.1, -0.001)),
            (ShapingParams(Family.PER_RING, ring_probs=(0.2, 0.5, 0.3)),
             ring_pmf(c, [0.2, 0.5, 0.3])),
        ]
        for params, want in cases:
            np.testing.assert_array_equal(build_pmf(c, params).probs, want.probs)

    def test_per_ring_requires_masses(self):
        with pytest.raises(ValueError, match="ring_probs"):
            build_pmf(square_qam(16), ShapingParams(Family.PER_RING))


def choice_cdf(probs):
    """The CDF Generator.choice searches: cumsum, divided by its last value."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def sampler_pmfs():
    """Pmfs, each a pytest.param with its label: the three families at every
    supported order, then pmfs with zero masses in awkward places."""
    cases = []
    for order in (16, 64, 256, 1024, 4096):
        c = square_qam(order)
        pu = float(np.mean(c.sq_magnitudes))
        cases += [
            pytest.param(uniform_pmf(c), id=f"uniform-{order}"),
            pytest.param(mb_pmf(c, 1.0 / pu), id=f"mb-{order}"),
            pytest.param(tailored_pmf(c, -1e-3 * 170.0 / pu, 4.4e-5 * (170.0 / pu) ** 2),
                         id=f"tailored-{order}"),
        ]
    c = square_qam(256)
    q = np.zeros(c.ring_sizes.size)
    q[1::3] = 1.0  # the innermost ring and two in every three after it stay empty,
    q[-1] = 0.0    # and the outermost, so the first point has no mass
    cases.append(pytest.param(ring_pmf(c, q / q.sum()), id="per-ring-empty-rings"))
    trailing = np.zeros(256)
    trailing[:150] = np.random.default_rng(3).random(150)
    cases.append(pytest.param(Pmf(trailing / trailing.sum()), id="trailing-zeros"))
    spike = np.full(1024, 1e-9 / 1023)
    spike[517] = 1.0 - 1e-9
    cases.append(pytest.param(Pmf(spike), id="one-point"))
    return cases


SAMPLER_PMFS = sampler_pmfs()


class TestInverseCdf:
    """shaping._inverse_cdf against Generator.choice: the same indices
    from the same single draw, whatever the pmf."""

    @pytest.mark.parametrize("pmf", SAMPLER_PMFS)
    @pytest.mark.parametrize("size", [1, 1 << 15, 40_000])
    def test_equals_generator_choice(self, pmf, size):
        inverse = _inverse_cdf(pmf)
        ours, theirs = np.random.default_rng(size + 7), np.random.default_rng(size + 7)
        for _ in range(2):
            got = inverse(ours.random(size))
            want = theirs.choice(len(pmf), size=size, p=pmf.probs)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_bucket_edges_and_cdf_values(self):
        # Uniform 16QAM: j/16 is a CDF value and a bucket edge, so choice's
        # search puts u = j/16 exactly at index j.
        pmf = uniform_pmf(square_qam(16))
        inverse = _inverse_cdf(pmf)
        j = np.arange(16)
        assert np.array_equal(inverse(j / 16.0), j)
        buckets = 1 << 10  # 64 per point for 16 points
        edges = np.arange(buckets) / buckets
        u = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
                            [np.nextafter(1.0, 0.0)]])
        assert np.array_equal(inverse(u), choice_cdf(pmf.probs).searchsorted(u, side="right"))

    @pytest.mark.parametrize("pmf", SAMPLER_PMFS[3:6] + SAMPLER_PMFS[-3:])
    def test_on_and_beside_cdf_values(self, pmf):
        cdf = choice_cdf(pmf.probs)
        inside = cdf[cdf < 1.0]
        u = np.concatenate([[0.0], inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0)])
        assert np.array_equal(_inverse_cdf(pmf)(u), cdf.searchsorted(u, side="right"))

    def test_zero_masses_never_drawn(self):
        pmf = SAMPLER_PMFS[-2].values[0]  # trailing zeros
        idx = _inverse_cdf(pmf)(np.random.default_rng(1).random(1 << 15))
        assert np.all(pmf.probs[idx] > 0.0)
