"""Effective-SNR model and shaping-optimizer tests."""

import math
import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

from nlshaping import (
    Constellation,
    Family,
    MiCurvePoint,
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
from nlshaping import nl_model
from nlshaping.nl_model import (
    _exp_gradient,
    _per_ring_gradient,
    _scaled_stats,
    _tailored,
)

RULE = gauss_hermite(16)
MODEL_18 = NlChannelModel(c=0.69, snr_gauss_db=18.0)


def scan_best(constellation, model, u1, u2) -> float:
    """Best tailored-family MI over the grid of scaled parameters
    (nu1 P_u, nu2 P_u^2) in u1 x u2."""
    pu, _ = _scaled_stats(constellation)
    return max(
        evaluate_family(constellation,
                        ShapingParams(Family.KURTOSIS_TAILORED, nu1=a / pu, nu2=b / (pu * pu)),
                        model).mi_4d
        for a in u1 for b in u2
    )


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


class TestNlChannelModel:
    @pytest.mark.parametrize("c", [1.0, 1.5, -2.0, -1e-9, math.nan])
    def test_c_outside_unit_interval_rejected(self, c):
        with pytest.raises(ValueError, match=r"c must be in \[0, 1\)"):
            NlChannelModel(c=c, snr_gauss_db=18.0)

    @pytest.mark.parametrize("c", [0.0, 0.69, 0.999])
    def test_c_inside_accepted(self, c):
        assert NlChannelModel(c=c).c == c

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
    def test_non_finite_snr_rejected(self, snr):
        # NaN used to pass and fail later, inside a search's quadrature.
        with pytest.raises(ValueError, match=f"^snr_gauss_db must be finite, got {snr}$"):
            NlChannelModel(c=0.69, snr_gauss_db=snr)


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
        point = evaluate_family(c, ShapingParams(Family.UNIFORM), model)
        pmf = uniform_pmf(c)
        direct = 2.0 * mi_awgn_2d(normalized(c, pmf), pmf, 12.0, RULE)
        assert point.mi_4d == pytest.approx(direct, abs=1e-12)
        assert point.effective_snr_db == pytest.approx(12.0, abs=1e-12)

    def test_mb_at_zero_rate_equals_uniform(self):
        c = square_qam(64)
        model = NlChannelModel(c=0.69, snr_gauss_db=15.0)
        uni = evaluate_family(c, ShapingParams(Family.UNIFORM), model)
        mb = evaluate_family(
            c, ShapingParams(Family.MAXWELL_BOLTZMANN, lam=0.0), model
        )
        assert mb.mi_4d == pytest.approx(uni.mi_4d, abs=1e-12)
        assert mb.kurtosis == pytest.approx(uni.kurtosis, abs=1e-12)

    def test_point_is_consistent_with_model(self):
        c = square_qam(256)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        point = evaluate_family(
            c, ShapingParams(Family.KURTOSIS_TAILORED, nu1=0.001, nu2=1e-5),
            model,
        )
        recomputed = effective_snr_db(model, point.kurtosis)
        assert point.effective_snr_db == pytest.approx(recomputed, abs=1e-9)
        snr_lin = 10.0 ** (model.snr_gauss_db / 10.0)
        assert point.delta_mi_4d == point.mi_4d - 2.0 * math.log2(1.0 + snr_lin)


class TestOptimizeMb:
    def test_awgn_channel_dominates_uniform(self):
        c = square_qam(64)
        model = NlChannelModel(c=0.0, snr_gauss_db=12.0)
        point = optimize_mb(c, model)
        uni = evaluate_family(c, ShapingParams(Family.UNIFORM), model)
        assert point.mi_4d >= uni.mi_4d - 1e-12

    @pytest.mark.parametrize("order", [16, 64])
    def test_grid_scan_oracle_never_beats_optimum(self, order):
        c = square_qam(order)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        point = optimize_mb(c, model)
        pu, _ = _scaled_stats(c)
        best_scan = -np.inf
        for u in np.concatenate([[0.0], np.geomspace(1e-3, 30.0, 200)]):
            scan = evaluate_family(
                c, ShapingParams(Family.MAXWELL_BOLTZMANN, lam=u / pu), model
            ).mi_4d
            best_scan = max(best_scan, scan)
        assert best_scan <= point.mi_4d + 1e-4

    def test_256qam_mb_value_at_18db(self):
        # reference operating point: best MB MI for 256QAM at 18 dB, c=0.69
        c = square_qam(256)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        point = optimize_mb(c, model)
        assert point.mi_4d == pytest.approx(12.10, abs=0.05)

    @pytest.mark.parametrize("order", [256, 1024])
    def test_low_snr_rate_stays_in_domain(self, order):
        # At 5 dB the MI keeps rising below u = 0, and the search on the
        # derivative runs there (to u = -0.155 at 256QAM, -0.170 at
        # 1024QAM); the rate returned is the scanned edge, exactly.
        point = optimize_mb(square_qam(order), NlChannelModel(c=0.69, snr_gauss_db=5.0))
        assert point.params.lam == 0.0

    def test_small_rate_found_from_the_scanned_zero(self):
        # At 16QAM 18 dB the best scanned rate is u = 0, and the optimum
        # is a small positive rate below the scan's first nonzero 0.05.
        c = square_qam(16)
        pu, _ = _scaled_stats(c)
        scan = [evaluate_family(c, ShapingParams(Family.MAXWELL_BOLTZMANN, lam=u / pu), MODEL_18).mi_4d
                for u in nl_model._COARSE_U]
        assert int(np.argmax(scan)) == 0
        point = optimize_mb(c, MODEL_18)
        assert point.params.lam * pu == pytest.approx(1.512e-3, abs=1e-6)
        assert point.mi_4d > scan[0]

    @pytest.mark.parametrize("order, snr", [(16, 18.0), (64, 10.0), (256, 5.0), (256, 18.0),
                                            (1024, 22.0)])
    def test_returned_point_is_evaluate_family(self, order, snr):
        # Every search returns the point it chose, exactly as
        # evaluate_family scores that point's params.
        c = square_qam(order)
        model = NlChannelModel(c=0.69, snr_gauss_db=snr)
        for search, family in ((optimize_mb, Family.MAXWELL_BOLTZMANN),
                               (optimize_tailored, Family.KURTOSIS_TAILORED),
                               (optimize_per_ring, Family.PER_RING)):
            point = search(c, model)
            assert point.family is family
            assert point == evaluate_family(c, point.params, model)


class TestOptimizeTailored:
    def test_awgn_channel_essentially_matches_mb_optimum(self):
        # With no kurtosis effect the extra parameter buys only the tiny
        # residual MB-versus-MI-optimal gap (MB maximizes entropy at fixed
        # power, not MI): about 2e-4 bit/4D here, an order of magnitude
        # below the nonlinear-channel gains.
        c = square_qam(64)
        model = NlChannelModel(c=0.0, snr_gauss_db=14.0)
        mb_point = optimize_mb(c, model)
        opt_point = optimize_tailored(c, model)
        assert opt_point.mi_4d >= mb_point.mi_4d - 1e-9
        assert opt_point.mi_4d - mb_point.mi_4d < 1e-3

    def test_never_below_mb(self):
        c = square_qam(16)
        for snr in (6.0, 12.0, 18.0):
            model = NlChannelModel(c=0.69, snr_gauss_db=snr)
            mb_point = optimize_mb(c, model)
            opt_point = optimize_tailored(c, model)
            assert opt_point.mi_4d >= mb_point.mi_4d - 1e-9

    def test_mb_candidate_is_exact(self):
        # One ring: every (nu1, nu2) gives the uniform pmf, so all
        # candidates tie and the MB optimum wins the |nu2| tie-break with
        # its exact rate; tailored_pmf(lam, 0) is mb_pmf(lam) bit for bit.
        qpsk = Constellation(2)
        model = NlChannelModel(c=0.69, snr_gauss_db=10.0)
        mb_point = optimize_mb(qpsk, model)
        point = optimize_tailored(qpsk, model, mb=mb_point)
        assert point.params.nu1 == mb_point.params.lam
        assert point.params.nu2 == 0.0
        assert point.mi_4d == mb_point.mi_4d
        assert point.kurtosis == mb_point.kurtosis

    def test_grid_scan_oracle_never_beats_optimum(self):
        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        point = optimize_tailored(c, model)
        best_scan = scan_best(c, model, np.linspace(-1.0, 4.0, 60), np.linspace(-2.0, 4.0, 60))
        assert best_scan <= point.mi_4d + 1e-4

    @pytest.mark.parametrize("order, kurtosis_c, snr", [(16, 0.69, 2.0), (64, 0.9, 9.0)])
    def test_dense_scan_oracle_needs_both_starts(self, order, kurtosis_c, snr):
        # Where one start alone falls short of an 81 x 81 scan: at 16QAM,
        # 2 dB the MB start alone reaches 3.0908 bit/4D, at 64QAM, 9 dB the
        # coarse-grid start alone 6.8117, against scan bests of 3.2026 and
        # 6.8180 (the search returns 3.2330 and 6.8184).
        c = square_qam(order)
        model = NlChannelModel(c=kurtosis_c, snr_gauss_db=snr)
        point = optimize_tailored(c, model)
        u2 = np.geomspace(0.01, 60.0, 40)
        best_scan = scan_best(c, model, np.linspace(-6.0, 10.0, 81),
                              np.concatenate([-u2, [0.0], u2]))
        assert best_scan <= point.mi_4d

    def test_64qam_gain_below_256qam_gain_at_18db(self):
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        gains = {}
        for order in (64, 256):
            c = square_qam(order)
            mb_point = optimize_mb(c, model)
            opt_point = optimize_tailored(c, model)
            gains[order] = opt_point.mi_4d - mb_point.mi_4d
        assert gains[64] < gains[256]


class TestOptimizePerRing:
    def test_single_ring_has_no_freedom(self):
        qpsk = Constellation(2)
        model = NlChannelModel(c=0.69, snr_gauss_db=10.0)
        point = optimize_per_ring(qpsk, model)
        np.testing.assert_allclose(point.params.ring_probs, [1.0])
        direct = evaluate_family(
            qpsk, ShapingParams(Family.PER_RING, ring_probs=(1.0,)), model
        )
        assert point.mi_4d == pytest.approx(direct.mi_4d, abs=1e-15)

    def test_16qam_matches_tailored_and_never_below(self):
        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        tailored_point = optimize_tailored(c, model)
        ring_point = optimize_per_ring(c, model)
        ring_probs = np.array(ring_point.params.ring_probs)
        # started from the tailored optimum: never below it
        assert ring_point.mi_4d >= tailored_point.mi_4d - 1e-12
        assert ring_point.mi_4d - tailored_point.mi_4d < 1e-4
        assert ring_probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_64qam_10db_converges(self):
        # The simplex search this replaced hit its 4000-evaluation cap here.
        c = square_qam(64)
        model = NlChannelModel(c=0.69, snr_gauss_db=10.0)
        tailored_point = optimize_tailored(c, model)
        ring_point = optimize_per_ring(c, model)
        ring_probs = np.array(ring_point.params.ring_probs)
        margin = ring_point.mi_4d - tailored_point.mi_4d
        assert margin >= -1e-12
        assert ring_probs.sum() == pytest.approx(1.0, abs=1e-12)
        print(f"per-ring over tailored at 64QAM, 10 dB: {margin:.4e} bit/4D")

    @pytest.mark.slow
    @pytest.mark.parametrize("order", [256, 1024])
    def test_paper_orders_within_1e3_of_tailored(self, order):
        # The README's claim at the orders of the paper's gains.
        c = square_qam(order)
        tailored_point = optimize_tailored(c, MODEL_18)
        ring_point = optimize_per_ring(c, MODEL_18)
        margin = ring_point.mi_4d - tailored_point.mi_4d
        assert margin >= -1e-12
        assert margin < 1e-3
        print(f"per-ring over tailored at {order}QAM, 18 dB: {margin:.4e} bit/4D")

    @pytest.mark.slow
    @pytest.mark.parametrize("order", [64, 256])
    @pytest.mark.parametrize("snr", [8.0, 10.0, 12.0, 14.0])
    def test_range_within_1e3_of_tailored(self, order, snr):
        # Where the README's 1e-3 bit/4D claim holds below 18 dB: from 12 dB
        # up (margins of 6.0e-4 and 6.0e-4 at 12 dB, 4.2e-4 and 2.3e-4 at
        # 14 dB, at 64 and 256QAM). At 10 dB the margin is 1.25e-3 and
        # 1.44e-3, at 8 dB 3.5e-3 and 4.1e-3; there it is printed, not gated.
        c = square_qam(order)
        model = NlChannelModel(c=0.69, snr_gauss_db=snr)
        tailored_point = optimize_tailored(c, model)
        ring_point = optimize_per_ring(c, model)
        margin = ring_point.mi_4d - tailored_point.mi_4d
        print(f"per-ring over tailored at {order}QAM, {snr:g} dB: {margin:.4e} bit/4D")
        assert margin >= -1e-12
        if snr >= 12.0:
            assert margin < 1e-3


class TestSearchGradients:
    """The searches' gradients against central differences of
    ``evaluate_family``: the chain through the pmf grid, the unit-power
    scale and the kurtosis-set SNR, then the family's parameters. Steps
    of 1e-5; each derivative must agree to 1e-6 of its size plus 1e-8
    bit/4D per unit."""

    @pytest.mark.parametrize("order, c, snr", [(16, 0.69, 6.0), (64, 0.0, 14.0),
                                               (256, 0.69, 18.0), (1024, 0.9, 18.0)])
    def test_tailored(self, order, c, snr):
        raw = square_qam(order)
        model = NlChannelModel(c=c, snr_gauss_db=snr)
        pu, stats = _scaled_stats(raw)
        for v in ([0.5, 0.2], [-0.3, 3.7], [2.0, -0.1]):
            point, grad = _exp_gradient(raw, model, _tailored(v, pu), stats)
            assert point == evaluate_family(raw, _tailored(v, pu), model)
            for k in range(2):
                step = np.zeros(2)
                step[k] = 1e-5
                up, down = (evaluate_family(raw, _tailored(np.add(v, s), pu), model).mi_4d
                            for s in (step, -step))
                assert grad[k] == pytest.approx((up - down) / 2e-5, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("order, snr", [(16, 18.0), (64, 5.0), (256, 18.0), (1024, 10.0)])
    def test_mb(self, order, snr):
        # The rate search's derivative in u = lam P_u: the tailored
        # family's first derivative at nu2 = 0.
        raw = square_qam(order)
        model = NlChannelModel(c=0.69, snr_gauss_db=snr)
        pu, stats = _scaled_stats(raw)
        t1 = raw.sq_magnitudes[np.newaxis] / pu

        def mb(u):
            return ShapingParams(Family.MAXWELL_BOLTZMANN, lam=u / pu)

        for u in (-0.1, 0.0, 1.4, 6.0):
            point, grad = _exp_gradient(raw, model, mb(u), t1)
            assert point == evaluate_family(raw, mb(u), model)
            tailored_grad = _exp_gradient(raw, model, _tailored([u, 0.0], pu), stats)[1]
            assert grad[0] == pytest.approx(tailored_grad[0],
                                            rel=1e-12, abs=1e-15)
            up, down = (evaluate_family(raw, mb(u + s), model).mi_4d for s in (1e-5, -1e-5))
            assert grad[0] == pytest.approx((up - down) / 2e-5, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("order, snr", [(16, 10.0), (64, 18.0), (256, 18.0)])
    def test_per_ring(self, order, snr):
        raw = square_qam(order)
        model = NlChannelModel(c=0.69, snr_gauss_db=snr)
        rng = np.random.default_rng(order)
        y = rng.uniform(0.2, 1.5, raw.ring_sizes.size - 1) * np.exp(-0.1 * np.arange(1, raw.ring_sizes.size))
        point, grad = _per_ring_gradient(raw, model, y)
        for k in sorted(rng.choice(y.size, size=min(y.size, 4), replace=False)):
            step = np.zeros(y.size)
            step[k] = 1e-5
            up, down = (_per_ring_gradient(raw, model, y + s)[0].mi_4d for s in (step, -step))
            assert grad[k] == pytest.approx((up - down) / 2e-5, rel=1e-6, abs=1e-8)


class TestSearchCaps:
    @pytest.mark.parametrize("search, cap_name, text", [
        (optimize_mb, "_MB_MAXFEV", "Maxwell-Boltzmann rate search"),
        (optimize_tailored, "_TAILORED_MAXFEV", "tailored-family search"),
        (optimize_per_ring, "_PER_RING_MAXFEV", "per-ring search"),
    ])
    def test_error_names_search_and_cap(self, search, cap_name, text, monkeypatch):
        from nlshaping import OptimizationError, nl_model

        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=12.0)
        monkeypatch.setattr(nl_model, cap_name, 3)
        with pytest.raises(OptimizationError, match=f"{text} .* cap of 3 evaluations") as exc:
            search(c, model)
        best = exc.value.best
        assert math.isfinite(best.mi_4d)
        assert best == evaluate_family(c, best.params, model)

    FAMILY = {optimize_mb: Family.MAXWELL_BOLTZMANN, optimize_tailored: Family.KURTOSIS_TAILORED,
              optimize_per_ring: Family.PER_RING}

    # Each search's OptimizationError.best is a point of its family; these
    # read the family's free parameters from the point's params.
    BEST_SHAPES = [
        (optimize_mb, "_MB_MAXFEV", "Maxwell-Boltzmann rate search",
         lambda params: (params.lam,)),
        (optimize_tailored, "_TAILORED_MAXFEV", "tailored-family search",
         lambda params: (params.nu1, params.nu2)),
        (optimize_per_ring, "_PER_RING_MAXFEV", "per-ring search",
         lambda params: params.ring_probs),
    ]

    @pytest.mark.parametrize("search, cap_name, text, free", BEST_SHAPES)
    def test_best_is_the_last_point_as_scored(self, search, cap_name, text, free, monkeypatch):
        from nlshaping import OptimizationError

        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=12.0)
        monkeypatch.setattr(nl_model, cap_name, 3)
        with pytest.raises(OptimizationError, match=f"^{text} did not converge") as exc:
            search(c, model)
        best = exc.value.best
        assert type(best) is MiCurvePoint
        assert best.family is self.FAMILY[search]
        values = free(best.params)
        if search is optimize_per_ring:
            assert len(values) == c.ring_sizes.size
            assert sum(values) == pytest.approx(1.0, abs=1e-12)
        else:
            assert all(type(value) is float for value in values)
        assert type(best.mi_4d) is float
        assert best == evaluate_family(c, best.params, model)

    @pytest.mark.parametrize("search, cap_name, text, free", BEST_SHAPES)
    def test_nan_mi_names_search(self, search, cap_name, text, free, monkeypatch):
        # The MB and tailored optima that the tailored and per-ring
        # searches start from are found first; then every value and
        # gradient call returns a NaN MI, so each search fails at its start.
        from nlshaping import OptimizationError

        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=12.0)
        optima = nl_model._curve_point(c, model.c, model.snr_gauss_db,
                                       (Family.MAXWELL_BOLTZMANN, Family.KURTOSIS_TAILORED))
        real = nl_model._mi_and_gradient
        monkeypatch.setattr(nl_model, "_mi_and_gradient", lambda *args: (math.nan, *real(*args)[1:]))
        monkeypatch.setattr(nl_model, "_curve_point", lambda *args: optima)
        kwargs = {"mb": optima[0]} if search is optimize_tailored else {}
        with pytest.raises(OptimizationError, match=f"^{text} did not converge: it met a NaN MI$") as exc:
            search(c, model, **kwargs)
        best = exc.value.best
        assert best.family is self.FAMILY[search]
        assert all(math.isfinite(value) for value in free(best.params))
        assert math.isnan(best.mi_4d)

    def test_error_survives_pickling(self):
        from nlshaping import OptimizationError

        best = evaluate_family(square_qam(16), ShapingParams(Family.MAXWELL_BOLTZMANN, lam=0.05),
                               MODEL_18)
        error = pickle.loads(pickle.dumps(OptimizationError("m", best=best)))
        assert type(error) is OptimizationError
        assert str(error) == "m"
        assert error.best == best


class TestMiCurve:
    def test_dominance_chain_and_delta_identity(self):
        c = square_qam(16)
        triples = mi_curve(c, 0.69, [10.0, 12.0])
        assert len(triples) == 2
        for uni, mb, opt in triples:
            assert opt.mi_4d >= mb.mi_4d - 1e-9
            assert mb.mi_4d >= uni.mi_4d - 1e-9
            for point in (uni, mb, opt):
                snr_lin = 10.0 ** (point.snr_gauss_db / 10.0)
                assert point.delta_mi_4d == point.mi_4d - 2.0 * math.log2(1.0 + snr_lin)
                recomputed = effective_snr_db(
                    NlChannelModel(0.69, point.snr_gauss_db), point.kurtosis
                )
                assert point.effective_snr_db == pytest.approx(recomputed, abs=1e-9)

    def test_uniform_depends_on_c_only_through_effective_snr(self):
        c = square_qam(64)
        pmf = uniform_pmf(c)
        kurt = -0.6190476190476191
        for cc in (0.0, 0.3, 0.69):
            (uni, _, _), = mi_curve(c, cc, [14.0])
            eff = effective_snr_db(NlChannelModel(cc, 14.0), kurt)
            direct = 2.0 * mi_awgn_2d(normalized(c, pmf), pmf, eff, RULE)
            assert uni.mi_4d == pytest.approx(direct, abs=1e-12)

    def test_low_snr_families_tie_on_awgn(self):
        # At c = 0 every family's MI is capped by the Gaussian capacity at
        # the grid SNR, and shaping gains vanish at low SNR. (At c = 0.69
        # the kurtosis boost lifts all families above the Gaussian
        # reference instead, by up to ~0.5 bit/4D at 0 dB.)
        c = square_qam(64)
        (uni, mb, opt), = mi_curve(c, 0.0, [0.0])
        for point in (uni, mb, opt):
            assert point.delta_mi_4d <= 0.0
        assert opt.mi_4d - uni.mi_4d < 0.05

    def test_one_mb_search_per_grid_point(self, mb_searches, cpus):
        # The tailored search reuses the MB optimum of its grid point. With
        # two CPUs the caller searches 12 and 14 dB and one forked worker
        # 13 dB; the processes append in no fixed order, so the log is
        # compared as a multiset.
        cpus(2)
        c = square_qam(16)
        mi_curve(c, 0.69, [12.0, 13.0, 14.0])
        calls = mb_searches()
        assert sorted(snr for _, snr in calls) == [12.0, 13.0, 14.0]
        by_pid = {}
        for pid, snr in calls:
            by_pid.setdefault(pid, []).append(snr)
        assert by_pid.pop(os.getpid()) == [12.0, 14.0]
        assert list(by_pid.values()) == [[13.0]]
        optimize_per_ring(c, NlChannelModel(c=0.69, snr_gauss_db=18.0))
        assert mb_searches() == [(os.getpid(), 18.0)]

    def test_forked_workers_match_serial_bit_for_bit(self, cpus):
        # Three processes for four points: the caller takes 14 and 18 dB.
        c = square_qam(256)
        grid = [14.0, 16.0, 17.0, 18.0]
        cpus(1)
        serial = mi_curve(c, 0.69, grid)
        cpus(3)
        forked = mi_curve(c, 0.69, grid)
        # repr spells every float exactly, so equal reprs are equal bits.
        assert repr(forked) == repr(serial)

    @pytest.mark.parametrize("why", ["one cpu", "one point", "thread alive", "daemonic"])
    def test_serial_cases_start_no_process(self, why, mb_searches, cpus, monkeypatch):
        cpus(1 if why == "one cpu" else 2)
        grid = [12.0] if why == "one point" else [12.0, 13.0]
        if why == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if why == "thread alive":
            thread.start()
        try:
            mi_curve(square_qam(16), 0.69, grid)
        finally:
            release.set()
            if why == "thread alive":
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert mb_searches() == [(os.getpid(), snr) for snr in grid]

    @pytest.mark.parametrize("fails_from", [1, 2])
    def test_failed_fork_leaves_the_share_to_the_caller(
        self, fails_from, mb_searches, cpus, failing_starts
    ):
        # Three CPUs for four points; forking worker ``fails_from`` and any
        # after it fails as under a process or memory limit, and the caller
        # computes those shares itself, with the same points.
        c = square_qam(16)
        grid = [12.0, 13.0, 14.0, 15.0]
        cpus(1)
        serial = mi_curve(c, 0.69, grid)
        mb_searches()
        fds = len(os.listdir("/proc/self/fd"))
        cpus(3)
        starts = failing_starts(fails_from)
        assert repr(mi_curve(c, 0.69, grid)) == repr(serial)
        assert len(starts) == fails_from
        assert len(os.listdir("/proc/self/fd")) == fds
        assert multiprocessing.active_children() == []
        calls = mb_searches()
        assert sorted(snr for _, snr in calls) == grid
        caller = sorted(snr for pid, snr in calls if pid == os.getpid())
        assert caller == ([12.0, 13.0, 14.0, 15.0] if fails_from == 1 else [12.0, 14.0, 15.0])

    def test_no_process_outlives_the_call(self, cpus, monkeypatch):
        from nlshaping import OptimizationError, nl_model

        cpus(2)
        c = square_qam(16)
        mi_curve(c, 0.69, [12.0, 13.0])
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(nl_model, "_TAILORED_MAXFEV", 3)
        with pytest.raises(OptimizationError, match="cap of 3 evaluations") as exc:
            mi_curve(c, 0.69, [12.0, 13.0, 14.0])
        best = exc.value.best
        assert all(math.isfinite(value) for value in (best.params.nu1, best.params.nu2, best.mi_4d))
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_caller_unchanged(self, cpus, monkeypatch):
        # 13 dB fails in the forked worker and 14 dB in the caller; the
        # lowest failing point raises, as in a serial run.
        from nlshaping import OptimizationError, nl_model

        params = ShapingParams(Family.KURTOSIS_TAILORED, nu1=0.5, nu2=0.0)

        def tailored(constellation, model, mb=None):
            if model.snr_gauss_db >= 13.0:
                raise OptimizationError(f"no optimum at {model.snr_gauss_db}",
                                        best=evaluate_family(constellation, params, model))
            return mb

        cpus(2)
        monkeypatch.setattr(nl_model, "optimize_tailored", tailored)
        with pytest.raises(OptimizationError) as exc:
            mi_curve(square_qam(16), 0.69, [12.0, 13.0, 14.0])
        assert str(exc.value) == "no optimum at 13.0"
        assert exc.value.best == evaluate_family(square_qam(16), params,
                                                 NlChannelModel(c=0.69, snr_gauss_db=13.0))
        assert multiprocessing.active_children() == []

    def test_interrupt_stops_the_workers(self, cpus, monkeypatch):
        # An interrupt in the caller ends the workers at once instead of
        # waiting for their share of the grid.
        import time

        from nlshaping import nl_model

        caller = os.getpid()

        def interrupted(constellation, c, snr_db, families):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(120.0)

        cpus(2)
        monkeypatch.setattr(nl_model, "_curve_point", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            mi_curve(square_qam(16), 0.69, [12.0, 13.0])
        assert time.monotonic() - start < 60.0
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error(self, cpus, monkeypatch):
        from nlshaping import nl_model

        caller = os.getpid()
        real = nl_model._curve_point

        def dying(constellation, c, snr_db, families):
            if os.getpid() != caller:
                os._exit(3)
            return real(constellation, c, snr_db, families)

        cpus(2)
        monkeypatch.setattr(nl_model, "_curve_point", dying)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            mi_curve(square_qam(16), 0.69, [12.0, 13.0])
        assert multiprocessing.active_children() == []

    def test_family_subsets_match_full_curve(self):
        c = square_qam(16)
        full = mi_curve(c, 0.69, [12.0, 13.0])
        uni, mb, opt = Family.UNIFORM, Family.MAXWELL_BOLTZMANN, Family.KURTOSIS_TAILORED
        assert mi_curve(c, 0.69, [12.0, 13.0], (opt,)) == [(t[2],) for t in full]
        assert mi_curve(c, 0.69, [12.0, 13.0], (opt, uni)) == [
            (t[0], t[2]) for t in full
        ]
        assert mi_curve(c, 0.69, [12.0, 13.0], (mb,)) == [(t[1],) for t in full]
        with pytest.raises(ValueError, match="subset"):
            mi_curve(c, 0.69, [12.0], (Family.PER_RING,))

    def test_repeated_family_fails_before_any_search(self, monkeypatch):
        # Two MB requests returned one point per SNR.
        def no_search(*args, **kwargs):
            raise AssertionError("the grid ran before the families were checked")

        monkeypatch.setattr(nl_model, "forked_map", no_search)
        with pytest.raises(ValueError, match=r"families must be distinct, got \['mb', 'mb'\]"):
            mi_curve(square_qam(16), 0.69, [12.0], (Family.MAXWELL_BOLTZMANN,) * 2)

    def test_point_independent_of_grid_position(self):
        # Every grid point is its own cold search: the same SNR gives the
        # same points, to the last bit, alone or inside a longer grid.
        for order, grid in ((16, [12.0, 13.0]), (64, [17.5, 18.0])):
            c = square_qam(order)
            curve = mi_curve(c, 0.69, grid)
            for snr, points in zip(grid, curve):
                assert points == mi_curve(c, 0.69, [snr])[0], (order, snr)

    def test_deterministic_across_calls(self):
        c = square_qam(16)
        a = mi_curve(c, 0.69, [12.0, 13.0])
        b = mi_curve(c, 0.69, [12.0, 13.0])
        assert a == b

    @pytest.mark.parametrize("c", [1.5, -2.0])
    def test_c_outside_domain_fails_before_any_search(self, c, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the grid ran before c was checked")

        monkeypatch.setattr(nl_model, "forked_map", no_search)
        with pytest.raises(ValueError, match=r"c must be in \[0, 1\)"):
            mi_curve(square_qam(16), c, [0.0, 18.0])

    @pytest.mark.parametrize("grid", [[10.0, math.nan], [math.nan, 10.0], [10.0, math.inf],
                                      [-math.inf, 10.0]])
    def test_non_finite_grid_fails_before_any_search(self, grid, cpus, monkeypatch):
        # [10, nan] passed the ascending check, and the 10 dB point was
        # designed before the nan one failed inside its search.
        def no_search(*args, **kwargs):
            raise AssertionError("a search started before the grid was checked")

        cpus(2)
        monkeypatch.setattr(nl_model, "optimize_mb", no_search)
        with pytest.raises(ValueError, match=r"^snr_grid_db must be finite"):
            mi_curve(square_qam(256), 0.69, grid)
        assert multiprocessing.active_children() == []

    def test_grid_validation(self):
        c = square_qam(16)
        with pytest.raises(ValueError, match="non-empty"):
            mi_curve(c, 0.69, [])
        with pytest.raises(ValueError, match="ascending"):
            mi_curve(c, 0.69, [10.0, 9.0])
