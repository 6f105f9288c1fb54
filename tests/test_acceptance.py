"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-7 and 9 run at desk scale (default ``pytest``). Criterion 8
replays the full-scale transmission scenario and is marked ``expensive``
(hours); opt in with ``pytest -m expensive``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from nlshaping import (
    Constellation,
    LinkConfig,
    NlChannelModel,
    effective_snr_db,
    estimate_c,
    estimate_snr,
    excess_kurtosis,
    gauss_hermite,
    gaussian_modulation,
    mb_pmf,
    mi_awgn_2d,
    mi_curve,
    mi_monte_carlo,
    normalized,
    optimize_mb,
    optimize_per_ring,
    optimize_tailored,
    power_sweep,
    snr_ratio,
    square_qam,
    uniform_pmf,
)
from nlshaping.cli import default_probes, main as cli_main
from nlshaping.forks import forked_map
from nlshaping.ssfm import measure_nli, transmission_run

RULE = gauss_hermite(16)
MODEL_18 = NlChannelModel(c=0.69, snr_gauss_db=18.0)


def test_criterion_1_kurtosis_closed_forms():
    c64 = square_qam(64)
    got = excess_kurtosis(c64, uniform_pmf(c64))
    assert got == pytest.approx(-0.61905, abs=1e-5)
    # independent oracle: exact rational sum over the odd-integer grid
    levels = [Fraction(v) for v in range(-7, 8, 2)]
    r2 = [a * a + b * b for a in levels for b in levels]
    m2 = sum(r2) / 64
    m4 = sum(v * v for v in r2) / 64
    assert got == pytest.approx(float(m4 / m2**2 - 2), abs=1e-12)

    qpsk = Constellation(2)
    assert excess_kurtosis(qpsk, uniform_pmf(qpsk)) == -1.0

    # the Gaussian reference enters the model as exactly zero kurtosis
    assert effective_snr_db(MODEL_18, 0.0) == 18.0
    rng = np.random.default_rng(2024)
    z = rng.standard_normal(2_000_000) + 1j * rng.standard_normal(2_000_000)
    r2 = np.abs(z) ** 2
    assert abs(np.mean(r2**2) / np.mean(r2) ** 2 - 2.0) < 0.01
    print("ACCEPTANCE 1 PASS: kurtosis closed forms "
          f"(uniform 64QAM {got:.6f}, single ring -1, Gaussian 0)")


@pytest.mark.slow
def test_criterion_2_quadrature_vs_monte_carlo():
    cases = []
    for order in (16, 64, 256):
        c = square_qam(order)
        pu = float(np.mean(c.sq_magnitudes))
        pmfs = {"uniform": uniform_pmf(c), "mb": mb_pmf(c, 1.0 / pu)}
        for family_index, (name, pmf) in enumerate(pmfs.items()):
            for snr_db in (5.0, 10.0, 18.0):
                seed = order * 1000 + family_index * 100 + int(snr_db)
                cases.append((order, name, pmf, normalized(c, pmf), snr_db, seed))

    def estimate(k: int) -> tuple[float, float, float]:
        _, _, pmf, unit, snr_db, seed = cases[k]
        gh = mi_awgn_2d(unit, pmf, snr_db, RULE)
        return (gh, *mi_monte_carlo(unit, pmf, snr_db, 10_000_000, seed=seed))

    # The 18 estimates are independent and go one per usable CPU.
    worst = 0.0
    for (order, name, _, _, snr_db, _), (gh, mc, se) in zip(cases, forked_map(estimate, len(cases))):
        gap = abs(gh - mc)
        worst = max(worst, gap)
        assert gap < 0.01, (order, name, snr_db, gh, mc, se)
    print(f"ACCEPTANCE 2 PASS: GH(16) vs MC(1e7) within 0.01 bits "
          f"(worst gap {worst:.5f})")


def test_criterion_3_vertical_gains_at_18db():
    gains = {}
    for order in (64, 256, 1024):
        c = square_qam(order)
        mb_point = optimize_mb(c, MODEL_18)
        opt_point = optimize_tailored(c, MODEL_18)
        gains[order] = opt_point.mi_4d - mb_point.mi_4d
    assert gains[256] == pytest.approx(0.10, abs=0.05)
    assert gains[1024] == pytest.approx(0.10, abs=0.05)
    assert gains[64] < gains[256]
    print("ACCEPTANCE 3 PASS: tailored-minus-MB gains at 18 dB "
          f"(64QAM {gains[64]:.3f}, 256QAM {gains[256]:.3f}, "
          f"1024QAM {gains[1024]:.3f} bit/4D)")


@pytest.mark.slow
def test_criterion_4_horizontal_gains_at_13_bits():
    c = square_qam(1024)
    grid = [18.5, 19.0, 19.5, 20.0, 20.5, 21.0]
    triples = mi_curve(c, 0.69, grid)
    curves = {
        "uniform": [t[0].mi_4d for t in triples],
        "mb": [t[1].mi_4d for t in triples],
        "opt": [t[2].mi_4d for t in triples],
    }
    level = 13.0
    snr_at = {}
    for name, mi in curves.items():
        assert mi[0] < level < mi[-1], (name, mi)
        snr_at[name] = float(np.interp(level, mi, grid))
    mb_over_uniform = snr_at["uniform"] - snr_at["mb"]
    opt_over_mb = snr_at["mb"] - snr_at["opt"]
    assert mb_over_uniform == pytest.approx(0.5, abs=0.1)
    assert opt_over_mb == pytest.approx(0.2, abs=0.1)
    print("ACCEPTANCE 4 PASS: SNR gaps at MI=13 bit/4D for 1024QAM "
          f"(MB over uniform {mb_over_uniform:.3f} dB, "
          f"tailored over MB {opt_over_mb:.3f} dB)")


@pytest.mark.slow
def test_criterion_5_per_ring_heuristic():
    margins = {}
    for order in (16, 64):
        c = square_qam(order)
        opt_point = optimize_tailored(c, MODEL_18)
        ring_point = optimize_per_ring(c, MODEL_18)
        margin = ring_point.mi_4d - opt_point.mi_4d
        assert margin >= -1e-12  # multi-start includes the tailored optimum
        assert margin < 1e-3
        margins[order] = margin
    print("ACCEPTANCE 5 PASS: free per-ring search beats tailored by "
          f"{margins[16]:.2e} (16QAM) and {margins[64]:.2e} (64QAM) bit/4D")


def test_criterion_6_snr_ratio_arithmetic():
    ratio = snr_ratio(-0.61905, 0.0, 0.69)
    assert ratio == pytest.approx(1.2041, abs=1e-3)
    assert 10 * math.log10(ratio) == pytest.approx(0.806, abs=0.01)
    assert snr_ratio(-0.5, -0.5, 0.69) == 1.0
    assert snr_ratio(-0.9, 0.7, 0.0) == 1.0
    print(f"ACCEPTANCE 6 PASS: SNR ratio arithmetic (ratio {ratio:.4f}, "
          f"{10 * math.log10(ratio):.3f} dB)")


@pytest.mark.slow
class TestCriterion7SsfmPhysics:
    CONFIG = LinkConfig(seed=1234)

    def test_a_nli_power_law_slope(self):
        cfg = self.CONFIG
        powers = [3.0, 5.0, 7.0, 9.0]

        def nli_w(i: int) -> float:
            # The run's NLI against its own back-to-back reception, no ASE.
            probe = measure_nli(cfg, gaussian_modulation(), powers[i], tx_seed=500 + i)
            return probe.nli_variance_w

        # The independent runs go one per usable CPU.
        nli = forked_map(nli_w, len(powers))
        slope = np.polyfit(np.log([1e-3 * 10 ** (p / 10) for p in powers]),
                           np.log(nli), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.3)
        print(f"ACCEPTANCE 7a PASS: NLI power-law slope {slope:.3f}")

    def test_b_lower_kurtosis_gives_higher_snr(self):
        fit = estimate_c(self.CONFIG, default_probes(), probe_power_dbm=6.0)
        by_kurt = sorted(fit.probes, key=lambda p: p.kurtosis)
        snrs = [p.snr_db for p in by_kurt]
        assert all(a > b for a, b in zip(snrs, snrs[1:]))
        assert fit.c > 0.0
        assert fit.r_squared > 0.9
        print("ACCEPTANCE 7b PASS: lower kurtosis -> higher SNR at +6 dBm "
              f"(c {fit.c:.3f}, R^2 {fit.r_squared:.4f})")

    def test_c_step_doubling(self):
        mod = default_probes()[0]
        steps = (400, 800)

        def snr(i: int) -> float:
            cfg = LinkConfig(seed=1234, steps=steps[i])
            return estimate_snr(*transmission_run(cfg, mod, 6.0, tx_seed=777, amp_seed=778))

        snrs = forked_map(snr, len(steps))
        assert abs(snrs[0] - snrs[1]) < 0.05
        print("ACCEPTANCE 7c PASS: step doubling moves SNR by "
              f"{abs(snrs[0] - snrs[1]):.4f} dB")

    def test_d_ase_only_budget(self, ase_budget_db):
        cfg = LinkConfig(seed=1234, gamma_per_w_km=0.0)
        launch_dbm = -6.0  # ASE-dominated: linear crosstalk is 20 dB down
        rx, tx = transmission_run(cfg, gaussian_modulation(), launch_dbm,
                                  tx_seed=31, amp_seed=32)
        measured = estimate_snr(rx, tx)
        budget = ase_budget_db(cfg, launch_dbm)
        assert measured == pytest.approx(budget, abs=0.2)
        print("ACCEPTANCE 7d PASS: ASE-only SNR "
              f"{measured:.3f} dB vs budget {budget:.3f} dB")


@pytest.mark.expensive
class TestCriterion8FullScale:
    """Full transmission scenario; hours of runtime, run explicitly."""

    CONFIG = LinkConfig.full_scale(seed=2024)

    def test_a_gaussian_peak_snr(self):
        results = power_sweep(self.CONFIG, [gaussian_modulation()],
                              [2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        snrs = [r.snr_db for r in results]
        peak = max(snrs)
        peak_index = snrs.index(peak)
        assert peak == pytest.approx(18.0, abs=1.0)
        assert 0 < peak_index < len(snrs) - 1  # interior optimum
        print(f"ACCEPTANCE 8a PASS: Gaussian peak SNR {peak:.2f} dB at "
              f"{results[peak_index].launch_dbm_per_channel} dBm")

    def test_b_c_estimate_confidence_interval(self):
        from scipy import stats

        fit = estimate_c(self.CONFIG, default_probes(), probe_power_dbm=6.0)
        kurt = np.array([p.kurtosis for p in fit.probes])
        p_w = 1e-3 * 10 ** (6.0 / 10)
        y = np.array([p.nli_variance_w for p in fit.probes]) / p_w**3
        design = np.vstack([np.ones_like(kurt), kurt]).T
        coef, residuals, *_ = np.linalg.lstsq(design, y, rcond=None)
        dof = len(kurt) - 2
        resid = y - design @ coef
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(design.T @ design)
        # first-order delta-method interval for the ratio eta2/eta1
        c_hat = coef[1] / coef[0]
        grad = np.array([-coef[1] / coef[0] ** 2, 1.0 / coef[0]])
        c_se = math.sqrt(float(grad @ cov @ grad))
        half_width = stats.t.ppf(0.975, dof) * c_se
        assert abs(c_hat - 0.69) <= half_width, (c_hat, half_width)
        print(f"ACCEPTANCE 8b PASS: c = {c_hat:.3f} +- {half_width:.3f} "
              "covers 0.69")

    def test_c_fig2_optimum_power_gain(self):
        from nlshaping.cli import build_modulations

        mods = build_modulations(["mb", "opt"], 1024, 0.69, 18.0)
        results = power_sweep(self.CONFIG, mods, [3.0, 4.0, 5.0, 6.0])
        by_family = {}
        for r in results:
            by_family.setdefault(r.family, []).append(r.mi_4d)
        for family, mi in by_family.items():
            diffs = np.sign(np.diff(mi))
            assert np.sum(np.diff(diffs) != 0) <= 1, (family, mi)  # unimodal
        gain = max(by_family["opt"]) - max(by_family["mb"])
        assert gain == pytest.approx(0.1, abs=0.05)
        print(f"ACCEPTANCE 8c PASS: optimum-power tailored-vs-MB gain "
              f"{gain:.3f} bit/4D")


def test_criterion_9_deterministic_csv(tmp_path):
    cfg = tmp_path / "link.cfg"
    cfg.write_text(
        "channels = 1\nsamples_per_symbol = 4\n"
        "symbols_per_channel = 8192\nsteps = 100\nseed = 5\n",
        encoding="utf-8",
    )

    def run(args, path):
        assert cli_main(args + ["--out", str(path)]) == 0
        return [line for line in path.read_text().splitlines()
                if not line.startswith("#")]

    sim_args = ["simulate", "--config", str(cfg), "--order", "16",
                "--families", "uniform", "--power-min", "0", "--power-max", "0",
                "--seed", "5"]
    assert run(sim_args, tmp_path / "a.csv") == run(sim_args, tmp_path / "b.csv")

    curve_args = ["mi-curve", "--order", "16", "--snr-min", "12",
                  "--snr-max", "12"]
    assert run(curve_args, tmp_path / "c.csv") == run(curve_args, tmp_path / "d.csv")

    pmf_args = ["pmf", "--order", "16", "--snr", "12", "--family", "opt"]
    assert run(pmf_args, tmp_path / "e.csv") == run(pmf_args, tmp_path / "f.csv")
    print("ACCEPTANCE 9 PASS: seeded commands reproduce byte-identical payloads")
