"""Effective-SNR model and shaping-optimizer tests."""

import math

import numpy as np
import pytest

from nlshaping import (
    Family,
    NlChannelModel,
    ShapingParams,
    effective_snr_db,
    evaluate_family,
    gauss_hermite,
    mi_awgn_2d,
    mi_curve,
    normalized,
    optimize_mb,
    optimize_per_ring,
    optimize_tailored,
    snr_ratio,
    square_qam,
    uniform_pmf,
)
from nlshaping.nl_model import _grid_power

RULE = gauss_hermite(16)


class TestSnrRatio:
    def test_identical_formats(self):
        assert snr_ratio(-0.5, -0.5, 0.69) == 1.0
        assert snr_ratio(0.3, 0.3, 0.2) == 1.0

    def test_kurtosis_insensitive_channel(self):
        assert snr_ratio(-0.9, 0.4, 0.0) == 1.0

    def test_uniform_64qam_against_gaussian(self):
        ratio = snr_ratio(-0.61905, 0.0, 0.69)
        assert ratio == pytest.approx(1.2041, abs=1e-3)
        assert 10 * math.log10(ratio) == pytest.approx(0.806, abs=0.01)

    def test_nonpositive_bracket_names_offender(self):
        with pytest.raises(ValueError, match="modulation A.*-2"):
            snr_ratio(-2.0, 0.0, 0.69)
        with pytest.raises(ValueError, match="modulation B"):
            snr_ratio(0.0, -1.5, 0.8)


class TestEffectiveSnr:
    def test_gaussian_kurtosis_is_identity(self):
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        assert effective_snr_db(model, 0.0) == 18.0

    def test_constant_modulus_boost(self):
        model = NlChannelModel(c=0.69, snr_gauss_db=10.0)
        want = 10.0 + 10 * math.log10((1 / 0.31) ** (1 / 3))
        assert effective_snr_db(model, -1.0) == pytest.approx(want, abs=1e-12)

    def test_uniform_64qam_at_18db(self):
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        assert effective_snr_db(model, -0.61905) == pytest.approx(18.806, abs=0.01)


class TestEvaluateFamily:
    def test_uniform_with_c_zero_is_plain_awgn(self):
        c = square_qam(64)
        model = NlChannelModel(c=0.0, snr_gauss_db=12.0)
        point = evaluate_family(c, ShapingParams(Family.UNIFORM), model, RULE)
        pmf = uniform_pmf(c)
        direct = 2.0 * mi_awgn_2d(normalized(c, pmf), pmf, 12.0, RULE)
        assert point.mi_4d == pytest.approx(direct, abs=1e-12)
        assert point.effective_snr_db == pytest.approx(12.0, abs=1e-12)

    def test_mb_at_zero_rate_equals_uniform(self):
        c = square_qam(64)
        model = NlChannelModel(c=0.69, snr_gauss_db=15.0)
        uni = evaluate_family(c, ShapingParams(Family.UNIFORM), model, RULE)
        mb = evaluate_family(
            c, ShapingParams(Family.MAXWELL_BOLTZMANN, lam=0.0), model, RULE
        )
        assert mb.mi_4d == pytest.approx(uni.mi_4d, abs=1e-12)
        assert mb.kurtosis == pytest.approx(uni.kurtosis, abs=1e-12)

    def test_point_is_consistent_with_model(self):
        c = square_qam(256)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        point = evaluate_family(
            c, ShapingParams(Family.KURTOSIS_TAILORED, nu1=0.001, nu2=1e-5),
            model, RULE,
        )
        recomputed = effective_snr_db(model, point.kurtosis)
        assert point.effective_snr_db == pytest.approx(recomputed, abs=1e-9)
        snr_lin = 10 ** (model.snr_gauss_db / 10)
        assert point.delta_mi_4d == pytest.approx(
            point.mi_4d - 2 * math.log2(1 + snr_lin), abs=1e-12
        )


class TestOptimizeMb:
    def test_awgn_channel_dominates_uniform(self):
        c = square_qam(64)
        model = NlChannelModel(c=0.0, snr_gauss_db=12.0)
        _, point = optimize_mb(c, model, RULE)
        uni = evaluate_family(c, ShapingParams(Family.UNIFORM), model, RULE)
        assert point.mi_4d >= uni.mi_4d - 1e-12

    @pytest.mark.parametrize("order", [16, 64])
    def test_grid_scan_oracle_never_beats_optimum(self, order):
        c = square_qam(order)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        _, point = optimize_mb(c, model, RULE)
        pu = _grid_power(c)
        best_scan = -np.inf
        for u in np.concatenate([[0.0], np.geomspace(1e-3, 30.0, 200)]):
            scan = evaluate_family(
                c, ShapingParams(Family.MAXWELL_BOLTZMANN, lam=u / pu), model, RULE
            ).mi_4d
            best_scan = max(best_scan, scan)
        assert best_scan <= point.mi_4d + 1e-4

    def test_256qam_mb_value_at_18db(self):
        # reference operating point: best MB MI for 256QAM at 18 dB, c=0.69
        c = square_qam(256)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        _, point = optimize_mb(c, model, RULE)
        assert point.mi_4d == pytest.approx(12.10, abs=0.05)

    def test_restart_consistency(self):
        c = square_qam(64)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        lam_a, point_a = optimize_mb(c, model, RULE)
        _, point_b = optimize_mb(c, model, RULE, initial_lam=lam_a * 3.0)
        _, point_c = optimize_mb(c, model, RULE, initial_lam=1e-4)
        assert point_b.mi_4d == pytest.approx(point_a.mi_4d, abs=1e-8)
        assert point_c.mi_4d == pytest.approx(point_a.mi_4d, abs=1e-8)


class TestOptimizeTailored:
    def test_awgn_channel_essentially_matches_mb_optimum(self):
        # With no kurtosis effect the extra parameter buys only the tiny
        # residual MB-versus-MI-optimal gap (MB maximizes entropy at fixed
        # power, not MI): about 2e-4 bit/4D here, an order of magnitude
        # below the nonlinear-channel gains.
        c = square_qam(64)
        model = NlChannelModel(c=0.0, snr_gauss_db=14.0)
        _, mb_point = optimize_mb(c, model, RULE)
        _, _, opt_point = optimize_tailored(c, model, RULE)
        assert opt_point.mi_4d >= mb_point.mi_4d - 1e-9
        assert opt_point.mi_4d - mb_point.mi_4d < 1e-3

    def test_never_below_mb(self):
        c = square_qam(16)
        for snr in (6.0, 12.0, 18.0):
            model = NlChannelModel(c=0.69, snr_gauss_db=snr)
            _, mb_point = optimize_mb(c, model, RULE)
            _, _, opt_point = optimize_tailored(c, model, RULE)
            assert opt_point.mi_4d >= mb_point.mi_4d - 1e-9

    def test_grid_scan_oracle_never_beats_optimum(self):
        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        _, _, point = optimize_tailored(c, model, RULE)
        pu = _grid_power(c)
        u1 = np.linspace(-1.0, 4.0, 60)
        u2 = np.linspace(-2.0, 4.0, 60)
        best_scan = -np.inf
        for a in u1:
            for b in u2:
                scan = evaluate_family(
                    c,
                    ShapingParams(Family.KURTOSIS_TAILORED,
                                  nu1=a / pu, nu2=b / (pu * pu)),
                    model, RULE,
                ).mi_4d
                best_scan = max(best_scan, scan)
        assert best_scan <= point.mi_4d + 1e-4

    def test_64qam_gain_below_256qam_gain_at_18db(self):
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        gains = {}
        for order in (64, 256):
            c = square_qam(order)
            _, mb_point = optimize_mb(c, model, RULE)
            _, _, opt_point = optimize_tailored(c, model, RULE)
            gains[order] = opt_point.mi_4d - mb_point.mi_4d
        assert gains[64] < gains[256]


class TestOptimizePerRing:
    def test_single_ring_has_no_freedom(self):
        qpsk = square_qam(4, min_order=4)
        model = NlChannelModel(c=0.69, snr_gauss_db=10.0)
        ring_probs, point = optimize_per_ring(qpsk, model, RULE)
        np.testing.assert_allclose(ring_probs, [1.0])
        direct = evaluate_family(
            qpsk, ShapingParams(Family.PER_RING, ring_probs=(1.0,)), model, RULE
        )
        assert point.mi_4d == pytest.approx(direct.mi_4d, abs=1e-15)

    def test_16qam_matches_tailored_and_never_below(self):
        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        _, _, tailored_point = optimize_tailored(c, model, RULE)
        ring_probs, ring_point = optimize_per_ring(c, model, RULE)
        # started from the tailored optimum: never below it
        assert ring_point.mi_4d >= tailored_point.mi_4d - 1e-12
        assert ring_point.mi_4d - tailored_point.mi_4d < 1e-4
        assert ring_probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestMiCurve:
    def test_dominance_chain_and_delta_identity(self):
        c = square_qam(16)
        triples = mi_curve(c, 0.69, [10.0, 12.0], RULE)
        assert len(triples) == 2
        for uni, mb, opt in triples:
            assert opt.mi_4d >= mb.mi_4d - 1e-9
            assert mb.mi_4d >= uni.mi_4d - 1e-9
            for point in (uni, mb, opt):
                snr_lin = 10 ** (point.snr_gauss_db / 10)
                assert point.delta_mi_4d == pytest.approx(
                    point.mi_4d - 2 * math.log2(1 + snr_lin), abs=1e-12
                )
                recomputed = effective_snr_db(
                    NlChannelModel(0.69, point.snr_gauss_db), point.kurtosis
                )
                assert point.effective_snr_db == pytest.approx(recomputed, abs=1e-9)

    def test_uniform_depends_on_c_only_through_effective_snr(self):
        c = square_qam(64)
        pmf = uniform_pmf(c)
        kurt = -0.6190476190476191
        for cc in (0.0, 0.3, 0.69):
            (uni, _, _), = mi_curve(c, cc, [14.0], RULE)
            eff = effective_snr_db(NlChannelModel(cc, 14.0), kurt)
            direct = 2.0 * mi_awgn_2d(normalized(c, pmf), pmf, eff, RULE)
            assert uni.mi_4d == pytest.approx(direct, abs=1e-12)

    def test_low_snr_families_tie_on_awgn(self):
        # At c = 0 every family's MI is capped by the Gaussian capacity at
        # the grid SNR, and shaping gains vanish at low SNR. (At c = 0.69
        # the kurtosis boost lifts all families above the Gaussian
        # reference instead, by up to ~0.5 bit/4D at 0 dB.)
        c = square_qam(64)
        (uni, mb, opt), = mi_curve(c, 0.0, [0.0], RULE)
        for point in (uni, mb, opt):
            assert point.delta_mi_4d <= 0.0
        assert opt.mi_4d - uni.mi_4d < 0.05

    def test_one_mb_search_per_grid_point(self, monkeypatch):
        # The tailored search reuses the MB optimum of its grid point.
        from nlshaping import nl_model

        calls = []
        real = nl_model.optimize_mb

        def counting(*args, **kwargs):
            calls.append(args[1].snr_gauss_db)
            return real(*args, **kwargs)

        monkeypatch.setattr(nl_model, "optimize_mb", counting)
        c = square_qam(16)
        mi_curve(c, 0.69, [12.0, 13.0], RULE)
        assert calls == [12.0, 13.0]
        calls.clear()
        optimize_per_ring(c, NlChannelModel(c=0.69, snr_gauss_db=18.0), RULE)
        assert calls == [18.0]

    def test_family_subsets_match_full_curve(self):
        c = square_qam(16)
        full = mi_curve(c, 0.69, [12.0, 13.0], RULE)
        uni, mb, opt = Family.UNIFORM, Family.MAXWELL_BOLTZMANN, Family.KURTOSIS_TAILORED
        assert mi_curve(c, 0.69, [12.0, 13.0], RULE, (opt,)) == [(t[2],) for t in full]
        assert mi_curve(c, 0.69, [12.0, 13.0], RULE, (opt, uni)) == [
            (t[0], t[2]) for t in full
        ]
        assert mi_curve(c, 0.69, [12.0, 13.0], RULE, (mb,)) == [(t[1],) for t in full]
        with pytest.raises(ValueError, match="subset"):
            mi_curve(c, 0.69, [12.0], RULE, (Family.PER_RING,))

    def test_deterministic_across_calls(self):
        c = square_qam(16)
        a = mi_curve(c, 0.69, [12.0, 13.0], RULE)
        b = mi_curve(c, 0.69, [12.0, 13.0], RULE)
        assert a == b

    def test_grid_validation(self):
        c = square_qam(16)
        with pytest.raises(ValueError, match="non-empty"):
            mi_curve(c, 0.69, [], RULE)
        with pytest.raises(ValueError, match="ascending"):
            mi_curve(c, 0.69, [10.0, 9.0], RULE)
