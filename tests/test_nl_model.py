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
        snr_lin = 10 ** (model.snr_gauss_db / 10)
        assert point.delta_mi_4d == pytest.approx(
            point.mi_4d - 2 * math.log2(1 + snr_lin), abs=1e-12
        )


class TestOptimizeMb:
    def test_awgn_channel_dominates_uniform(self):
        c = square_qam(64)
        model = NlChannelModel(c=0.0, snr_gauss_db=12.0)
        _, point = optimize_mb(c, model)
        uni = evaluate_family(c, ShapingParams(Family.UNIFORM), model)
        assert point.mi_4d >= uni.mi_4d - 1e-12

    @pytest.mark.parametrize("order", [16, 64])
    def test_grid_scan_oracle_never_beats_optimum(self, order):
        c = square_qam(order)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        _, point = optimize_mb(c, model)
        pu = _grid_power(c)
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
        _, point = optimize_mb(c, model)
        assert point.mi_4d == pytest.approx(12.10, abs=0.05)


class TestOptimizeTailored:
    def test_awgn_channel_essentially_matches_mb_optimum(self):
        # With no kurtosis effect the extra parameter buys only the tiny
        # residual MB-versus-MI-optimal gap (MB maximizes entropy at fixed
        # power, not MI): about 2e-4 bit/4D here, an order of magnitude
        # below the nonlinear-channel gains.
        c = square_qam(64)
        model = NlChannelModel(c=0.0, snr_gauss_db=14.0)
        _, mb_point = optimize_mb(c, model)
        _, _, opt_point = optimize_tailored(c, model)
        assert opt_point.mi_4d >= mb_point.mi_4d - 1e-9
        assert opt_point.mi_4d - mb_point.mi_4d < 1e-3

    def test_never_below_mb(self):
        c = square_qam(16)
        for snr in (6.0, 12.0, 18.0):
            model = NlChannelModel(c=0.69, snr_gauss_db=snr)
            _, mb_point = optimize_mb(c, model)
            _, _, opt_point = optimize_tailored(c, model)
            assert opt_point.mi_4d >= mb_point.mi_4d - 1e-9

    def test_mb_candidate_is_exact(self):
        # One ring: every (nu1, nu2) gives the uniform pmf, so all
        # candidates tie and the MB optimum wins the |nu2| tie-break with
        # its exact rate; tailored_pmf(lam, 0) is mb_pmf(lam) bit for bit.
        qpsk = Constellation(np.array([-1.0, 1.0]))
        model = NlChannelModel(c=0.69, snr_gauss_db=10.0)
        lam_star, mb_point = optimize_mb(qpsk, model)
        nu1, nu2, point = optimize_tailored(qpsk, model, mb=(lam_star, mb_point))
        assert nu1 == lam_star
        assert nu2 == 0.0
        assert point.mi_4d == mb_point.mi_4d
        assert point.kurtosis == mb_point.kurtosis

    def test_grid_scan_oracle_never_beats_optimum(self):
        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        _, _, point = optimize_tailored(c, model)
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
                    model,
                ).mi_4d
                best_scan = max(best_scan, scan)
        assert best_scan <= point.mi_4d + 1e-4

    def test_64qam_gain_below_256qam_gain_at_18db(self):
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        gains = {}
        for order in (64, 256):
            c = square_qam(order)
            _, mb_point = optimize_mb(c, model)
            _, _, opt_point = optimize_tailored(c, model)
            gains[order] = opt_point.mi_4d - mb_point.mi_4d
        assert gains[64] < gains[256]


class TestOptimizePerRing:
    def test_single_ring_has_no_freedom(self):
        qpsk = Constellation(np.array([-1.0, 1.0]))
        model = NlChannelModel(c=0.69, snr_gauss_db=10.0)
        ring_probs, point = optimize_per_ring(qpsk, model)
        np.testing.assert_allclose(ring_probs, [1.0])
        direct = evaluate_family(
            qpsk, ShapingParams(Family.PER_RING, ring_probs=(1.0,)), model
        )
        assert point.mi_4d == pytest.approx(direct.mi_4d, abs=1e-15)

    def test_16qam_matches_tailored_and_never_below(self):
        c = square_qam(16)
        model = NlChannelModel(c=0.69, snr_gauss_db=18.0)
        _, _, tailored_point = optimize_tailored(c, model)
        ring_probs, ring_point = optimize_per_ring(c, model)
        # started from the tailored optimum: never below it
        assert ring_point.mi_4d >= tailored_point.mi_4d - 1e-12
        assert ring_point.mi_4d - tailored_point.mi_4d < 1e-4
        assert ring_probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestSearchCaps:
    @pytest.mark.parametrize("search, cap_name, text", [
        (optimize_mb, "_MB_MAXFEV", "Maxwell-Boltzmann rate search"),
        (optimize_tailored, "_TAILORED_MAXFEV", "tailored-family search"),
        (optimize_per_ring, "_PER_RING_MAXFEV", "per-ring search"),
    ])
    def test_error_names_search_and_cap(self, search, cap_name, text, monkeypatch):
        from nlshaping import OptimizationError, nl_model

        monkeypatch.setattr(nl_model, cap_name, 3)
        with pytest.raises(OptimizationError, match=f"{text} .* cap of 3 evaluations") as exc:
            search(square_qam(16), NlChannelModel(c=0.69, snr_gauss_db=12.0))
        assert math.isfinite(exc.value.best[-1])

    def test_error_survives_pickling(self):
        from nlshaping import OptimizationError

        error = pickle.loads(pickle.dumps(OptimizationError("m", best=(1.0, 2.0))))
        assert type(error) is OptimizationError
        assert str(error) == "m"
        assert error.best == (1.0, 2.0)


def cpus(monkeypatch, n: int) -> None:
    """Make ``mi_curve`` see n usable CPUs: n = 1 forces the serial loop,
    n > 1 the forked workers, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestMiCurve:
    def test_dominance_chain_and_delta_identity(self):
        c = square_qam(16)
        triples = mi_curve(c, 0.69, [10.0, 12.0])
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

    def test_one_mb_search_per_grid_point(self, mb_searches, monkeypatch):
        # The tailored search reuses the MB optimum of its grid point. With
        # two CPUs the caller searches 12 and 14 dB and one forked worker
        # 13 dB; the processes append in no fixed order, so the log is
        # compared as a multiset.
        cpus(monkeypatch, 2)
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

    def test_forked_workers_match_serial_bit_for_bit(self, monkeypatch):
        # Three processes for four points: the caller takes 14 and 18 dB.
        c = square_qam(256)
        grid = [14.0, 16.0, 17.0, 18.0]
        cpus(monkeypatch, 1)
        serial = mi_curve(c, 0.69, grid)
        cpus(monkeypatch, 3)
        forked = mi_curve(c, 0.69, grid)
        # repr spells every float exactly, so equal reprs are equal bits.
        assert repr(forked) == repr(serial)

    @pytest.mark.parametrize("why", ["one cpu", "one point", "thread alive", "daemonic"])
    def test_serial_cases_start_no_process(self, why, mb_searches, monkeypatch):
        cpus(monkeypatch, 1 if why == "one cpu" else 2)
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
        self, fails_from, mb_searches, monkeypatch
    ):
        # Three CPUs for four points; forking worker ``fails_from`` and any
        # after it fails as under a process or memory limit, and the caller
        # computes those shares itself, with the same points.
        c = square_qam(16)
        grid = [12.0, 13.0, 14.0, 15.0]
        cpus(monkeypatch, 1)
        serial = mi_curve(c, 0.69, grid)
        mb_searches()
        real_start = multiprocessing.process.BaseProcess.start
        starts = []

        def start(process):
            starts.append(process)
            if len(starts) >= fails_from:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            real_start(process)

        fds = len(os.listdir("/proc/self/fd"))
        cpus(monkeypatch, 3)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        assert repr(mi_curve(c, 0.69, grid)) == repr(serial)
        assert len(starts) == fails_from
        assert len(os.listdir("/proc/self/fd")) == fds
        assert multiprocessing.active_children() == []
        calls = mb_searches()
        assert sorted(snr for _, snr in calls) == grid
        caller = sorted(snr for pid, snr in calls if pid == os.getpid())
        assert caller == ([12.0, 13.0, 14.0, 15.0] if fails_from == 1 else [12.0, 14.0, 15.0])

    def test_no_process_outlives_the_call(self, monkeypatch):
        from nlshaping import OptimizationError, nl_model

        cpus(monkeypatch, 2)
        c = square_qam(16)
        mi_curve(c, 0.69, [12.0, 13.0])
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(nl_model, "_TAILORED_MAXFEV", 3)
        with pytest.raises(OptimizationError, match="cap of 3 evaluations") as exc:
            mi_curve(c, 0.69, [12.0, 13.0, 14.0])
        assert all(math.isfinite(value) for value in exc.value.best)
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_caller_unchanged(self, monkeypatch):
        # 13 dB fails in the forked worker and 14 dB in the caller; the
        # lowest failing point raises, as in a serial run.
        from nlshaping import OptimizationError, nl_model

        def tailored(constellation, model, mb=None):
            if model.snr_gauss_db >= 13.0:
                raise OptimizationError(f"no optimum at {model.snr_gauss_db}",
                                        best=(0.5, model.snr_gauss_db, 1.25))
            return 0.0, 0.0, mb[1]

        cpus(monkeypatch, 2)
        monkeypatch.setattr(nl_model, "optimize_tailored", tailored)
        with pytest.raises(OptimizationError) as exc:
            mi_curve(square_qam(16), 0.69, [12.0, 13.0, 14.0])
        assert str(exc.value) == "no optimum at 13.0"
        assert exc.value.best == (0.5, 13.0, 1.25)
        assert multiprocessing.active_children() == []

    def test_interrupt_stops_the_workers(self, monkeypatch):
        # An interrupt in the caller ends the workers at once instead of
        # waiting for their share of the grid.
        import time

        from nlshaping import nl_model

        caller = os.getpid()

        def interrupted(constellation, c, snr_db, families):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(120.0)

        cpus(monkeypatch, 2)
        monkeypatch.setattr(nl_model, "_curve_point", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            mi_curve(square_qam(16), 0.69, [12.0, 13.0])
        assert time.monotonic() - start < 60.0
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error(self, monkeypatch):
        from nlshaping import nl_model

        caller = os.getpid()
        real = nl_model._curve_point

        def dying(constellation, c, snr_db, families):
            if os.getpid() != caller:
                os._exit(3)
            return real(constellation, c, snr_db, families)

        cpus(monkeypatch, 2)
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

    def test_grid_validation(self):
        c = square_qam(16)
        with pytest.raises(ValueError, match="non-empty"):
            mi_curve(c, 0.69, [])
        with pytest.raises(ValueError, match="ascending"):
            mi_curve(c, 0.69, [10.0, 9.0])
