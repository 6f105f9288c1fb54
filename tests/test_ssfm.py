"""Link-simulation tests: waveform generation, propagation, receiver DSP."""

import math
import multiprocessing
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlshaping import (
    Constellation,
    LinkConfig,
    Modulation,
    Pmf,
    amplify,
    estimate_c,
    estimate_snr,
    excess_kurtosis,
    gaussian_modulation,
    generate_wdm,
    mb_pmf,
    mi_awgn_2d,
    mi_from_samples,
    normalized,
    power_sweep,
    propagate,
    read_config,
    receive,
    ring_pmf,
    square_qam,
    tailored_pmf,
    uniform_pmf,
)
from nlshaping import ssfm
from nlshaping.awgn_mi import LN2
from nlshaping.cli import default_probes
from nlshaping.shaping import entropy
from nlshaping.ssfm import (
    KERR_BLOCK,
    DualPolField,
    LN10,
    _four_step,
    _pass_order,
    _spectral_filter,
    ase_psd_w_per_hz,
    measure_nli,
    rrc_spectrum,
    transmission_run,
)


def tiny_config(**overrides) -> LinkConfig:
    base = dict(channels=1, samples_per_symbol=4,
                symbols_per_channel=1 << 13, steps=100)
    base.update(overrides)
    return LinkConfig(**base)


def uniform_mod(order=16) -> Modulation:
    c = square_qam(order)
    return Modulation("uniform", c, uniform_pmf(c))


def traced_peak(call):
    """(result, peak bytes that tracemalloc saw allocated) of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_propagate(field, config: LinkConfig) -> np.ndarray:
    """The symmetrized split-step written plainly, with fresh arrays each
    step: the oracle for the in-place loop of ``propagate``."""
    n = field.samples.shape[1]
    omega = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / field.sample_rate_hz)
    dz = config.span_km * 1e3 / config.steps
    alpha = config.alpha_db_per_km * LN10 / 10.0 / 1e3
    gamma89 = config.gamma_per_w_km * 1e-3 * (8.0 / 9.0)
    half = np.exp((-alpha / 2.0 - 0.5j * config.beta2_s2_per_m * omega**2) * (dz / 2.0))
    full = half * half
    e = np.fft.ifft(np.fft.fft(field.samples, axis=1) * half, axis=1)
    for step in range(config.steps):
        power = np.abs(e[0]) ** 2 + np.abs(e[1]) ** 2
        e *= np.exp(-1j * gamma89 * power * dz)
        op = half if step == config.steps - 1 else full
        e = np.fft.ifft(np.fft.fft(e, axis=1) * op, axis=1)
    return e


def whole_field_propagate(field, config: LinkConfig) -> np.ndarray:
    """The in-place split-step with each step's Kerr phase built in one
    pass over the whole field: the bit-exact oracle for the blocked Kerr
    phase of ``propagate``."""
    n = field.samples.shape[1]
    twiddles = _four_step(n)
    omega = 2.0 * np.pi * _pass_order(np.fft.fftfreq(n, 1.0 / field.sample_rate_hz),
                                      twiddles.shape[1])
    dz = config.span_km * 1e3 / config.steps
    alpha = config.alpha_db_per_km * LN10 / 10.0 / 1e3
    gamma89 = config.gamma_per_w_km * 1e-3 * (8.0 / 9.0)
    half = np.exp((-alpha / 2.0 - 0.5j * config.beta2_s2_per_m * omega**2) * (dz / 2.0))
    full = half * half
    e = _spectral_filter(np.array(field.samples, dtype=np.complex128), half, twiddles)
    magnitude = np.empty(e.shape)
    power = np.empty(n)
    kerr = np.empty(n, dtype=np.complex128)
    for step in range(config.steps):
        np.abs(e, out=magnitude)
        np.square(magnitude, out=magnitude)
        np.add(magnitude[0], magnitude[1], out=power)
        power *= -gamma89 * dz
        np.cos(power, out=kerr.real)
        np.sin(power, out=kerr.imag)
        e *= kerr
        e = _spectral_filter(e, half if step == config.steps - 1 else full, twiddles)
    return e


class TestLinkConfig:
    def test_bandwidth_guard(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LinkConfig(channels=5, samples_per_symbol=4)

    def test_step_floor(self):
        with pytest.raises(ValueError, match="steps"):
            LinkConfig(channels=1, samples_per_symbol=4, steps=50)

    def test_noise_figure_below_0_db_rejected(self):
        # A noise factor below 1 made the ASE density negative: the sweep
        # ran and returned NaN, and estimate_c failed in a bare log.
        with pytest.raises(ValueError, match=r"edfa_nf_db must be at least 0 dB .* -40\.0"):
            power_sweep(LinkConfig(edfa_nf_db=-40.0, symbols_per_channel=8192, steps=100),
                        [gaussian_modulation()], [0.0])
        assert ase_psd_w_per_hz(LinkConfig(edfa_nf_db=0.0)) > 0.0

    def test_even_channel_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            LinkConfig(channels=4)

    # A NaN or infinite amplifier gain (the span loss) or noise figure gave
    # an all-NaN field.
    @pytest.mark.parametrize("name", ["gamma_per_w_km", "span_km", "baud_ghz",
                                      "alpha_db_per_km", "edfa_nf_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LinkConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("samples_per_symbol", 8.0),  # failed late: "n should be an integer"
        ("steps", 400.5),             # failed inside the run
        ("channels", True),           # was taken as one channel
        ("symbols_per_channel", "16384"),
        ("seed", 42.0),
    ])
    def test_integer_field_must_be_an_integer(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            LinkConfig(**{name: value})

    @pytest.mark.parametrize("name, value, least", [
        ("seed", -1, 0),  # failed in the run with a bare "expected non-negative integer"
        ("steps", 0, 1),
        ("symbols_per_channel", -8, 1),
    ])
    def test_integer_field_below_its_least_value(self, name, value, least):
        with pytest.raises(ValueError, match=f"{name} must be at least {least}, got {value}"):
            LinkConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("spacing_ghz", 0.0),             # put every channel at bin 0
        ("spacing_ghz", -33.0),           # numbered the channels from the top
        ("baud_ghz", 0.0),                # failed with "raise samples_per_symbol"
        ("baud_ghz", -33.0),
        ("center_wavelength_nm", -1550.0),  # failed in amplify as a gain problem
        ("center_wavelength_nm", 0.0),
    ])
    def test_non_positive_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive, got {value!r}"):
            LinkConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("span_km", -10.0),           # a span loss of -1.65 dB: propagate ran as a gain
        ("alpha_db_per_km", -0.2),    # a span loss of -40 dB
    ])
    def test_negative_field_named(self, name, value):
        message = f"{name} must be at least 0 (span loss >= 0 dB), got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            LinkConfig(**{name: value})

    def test_numpy_integers_taken_as_python_integers(self):
        # An unsigned channel count wrapped channel_bins(0) below zero.
        cfg = LinkConfig(seed=np.int64(0), steps=np.int32(400), channels=np.uint8(3))
        assert cfg == LinkConfig(seed=0)
        assert {type(cfg.seed), type(cfg.steps), type(cfg.channels)} == {int}
        assert cfg.channel_bins(0) == LinkConfig().channel_bins(0)

    def test_propagate_only_fields_accepted(self):
        # Few symbols suit propagate alone; power_sweep and estimate_c
        # refuse them. A lossless span suits every stage.
        cfg = tiny_config(alpha_db_per_km=0.0, symbols_per_channel=1 << 10)
        assert cfg.span_loss_db == 0.0
        assert tiny_config(span_km=0.0).span_loss_db == 0.0

    def test_scales(self):
        desk = LinkConfig()
        assert (desk.channels, desk.samples_per_symbol, desk.steps) == (3, 8, 400)
        assert desk.symbols_per_channel == 1 << 14
        full = LinkConfig.full_scale()
        assert (full.channels, full.samples_per_symbol, full.steps) == (5, 16, 2000)
        assert full.symbols_per_channel == 1 << 16

    @pytest.mark.parametrize("spacing", [37.5, 50.0])
    def test_off_grid_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="off the FFT grid.*nearest valid"):
            LinkConfig(spacing_ghz=spacing)

    @pytest.mark.parametrize("spacing", [33.0, 66.0])
    def test_on_grid_spacing_accepted(self, spacing):
        assert LinkConfig(spacing_ghz=spacing).spacing_ghz == spacing

    @pytest.mark.parametrize("spacing", [33.0, 37.5, 50.0, 12.345, 0.0, -33.0])
    def test_any_spacing_with_one_channel(self, spacing):
        assert tiny_config(spacing_ghz=spacing).spacing_ghz == spacing

    def test_off_grid_message_names_valid_neighbours(self):
        with pytest.raises(ValueError) as info:
            LinkConfig(spacing_ghz=37.5)
        step = 33.0 / (1 << 14)
        for bins in (18618, 18619):
            assert f"{bins * step:.9g}" in str(info.value)
            LinkConfig(spacing_ghz=bins * step)

    def test_beta2_sign_and_magnitude(self):
        cfg = tiny_config()
        # 16.3 ps/nm/km at 1550 nm is about -20.8 ps^2/km
        assert cfg.beta2_s2_per_m * 1e27 == pytest.approx(-20.79, abs=0.05)

    @pytest.mark.parametrize("cfg, rad", [
        (LinkConfig(), 0.502),
        (LinkConfig.full_scale(steps=1000), 0.558),
        (LinkConfig.full_scale(), 0.279),
    ])
    def test_edge_dispersive_phase_per_step(self, cfg, rad):
        # |beta2| = D lambda^2 / (2 pi c), in SI units
        beta2 = (cfg.dispersion_ps_nm_km * 1e-6 * (cfg.center_wavelength_nm * 1e-9) ** 2
                 / (2 * math.pi * 299_792_458.0))
        omega_edge = math.pi * cfg.channels * cfg.spacing_ghz * 1e9
        dz = cfg.span_km * 1e3 / cfg.steps
        assert cfg.edge_dispersive_phase_rad == pytest.approx(
            beta2 * omega_edge**2 * dz / 2, rel=1e-12)
        assert cfg.edge_dispersive_phase_rad == pytest.approx(rad, abs=1e-3)


class TestReadConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "link.cfg"
        path.write_text(
            "# single-channel regression setup\n"
            "span_km = 200\n"
            "channels = 1\n"
            "samples_per_symbol = 4\n"
            "symbols_per_channel = 8192\n"
            "steps = 100   # coarse\n"
            "seed = 7\n",
            encoding="utf-8",
        )
        cfg = read_config(path)
        assert cfg == tiny_config(seed=7)

    def test_missing_keys_take_desk_scale_defaults(self, tmp_path):
        path = tmp_path / "seed.cfg"
        path.write_text("seed = 7\n", encoding="utf-8")
        assert read_config(path) == LinkConfig(seed=7)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("span_km = 200\nnonsense = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad.cfg:2.*nonsense"):
            read_config(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("steps = soon\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad.cfg:1"):
            read_config(path)

    def test_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("span_km 200\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad.cfg:1"):
            read_config(path)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        # The last of two equal keys used to win silently.
        path = tmp_path / "bad.cfg"
        path.write_text("steps = 400\n# finer\nspan_km = 200\nsteps = 100\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_config(path)
        assert str(exc.value) == f"{path}:4: duplicate key 'steps' (first set on line 1)"


class TestRrcSpectrum:
    def test_passband_transition_stopband(self):
        baud = 33e9
        f = np.array([0.0, 0.4 * baud, 0.5 * baud, 0.6 * baud])
        h = rrc_spectrum(f, baud, 0.01)
        assert h[0] == 1.0
        assert h[1] == 1.0
        assert h[2] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert h[3] == 0.0

    def test_nyquist_partition(self):
        baud = 33e9
        f = np.linspace(0.0, baud, 2001)
        h2 = rrc_spectrum(f, baud, 0.01) ** 2 + rrc_spectrum(baud - f, baud, 0.01) ** 2
        np.testing.assert_allclose(h2, 1.0, atol=1e-12)


class TestGenerateWdm:
    def test_per_channel_power(self):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), launch_dbm=3.0, seed=1)
        power_w = float(np.mean(np.abs(field.samples[0]) ** 2
                                + np.mean(np.abs(field.samples[1]) ** 2)))
        target = 1e-3 * 10 ** (3.0 / 10)
        assert 10 * abs(math.log10(power_w / target)) < 0.01

    def test_total_power_scales_with_channels(self):
        cfg = LinkConfig(symbols_per_channel=1 << 12)
        field = generate_wdm(cfg, uniform_mod(), launch_dbm=0.0, seed=2)
        total = float(np.sum(np.mean(np.abs(field.samples) ** 2, axis=1)))
        assert total == pytest.approx(3e-3, rel=0.02)

    def test_occupied_bandwidth(self):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), launch_dbm=0.0, seed=3)
        spectrum = np.abs(np.fft.fft(field.samples[0])) ** 2
        freq = np.fft.fftfreq(spectrum.size, 1.0 / cfg.sample_rate_hz)
        order = np.argsort(np.abs(freq))
        cumulative = np.cumsum(spectrum[order]) / spectrum.sum()
        occupied = 2 * np.abs(freq[order])[np.searchsorted(cumulative, 0.99)]
        expected = cfg.baud_ghz * 1e9 * (1 + cfg.rrc_rolloff)
        assert occupied == pytest.approx(expected, rel=0.05)

    def test_bandwidth_guard_raises(self):
        with pytest.raises(ValueError, match="bandwidth"):
            tiny_config(channels=3)

    def test_empirical_kurtosis_matches_pmf(self):
        c = square_qam(64)
        pmf = mb_pmf(c, 1.0 / 42.0)
        cfg = tiny_config(symbols_per_channel=1 << 14)
        field = generate_wdm(cfg, Modulation("mb", c, pmf), launch_dbm=0.0, seed=4)
        symbols = field.tx_symbols[0].ravel()
        r2 = np.abs(symbols) ** 2
        m2, m4 = r2.mean(), (r2**2).mean()
        khat = m4 / m2**2 - 2.0
        # influence-function standard error of the moment-ratio estimator
        influence = (r2**2 - m4 - 2.0 * (m4 / m2) * (r2 - m2)) / m2**2
        se = influence.std() / math.sqrt(r2.size)
        assert abs(khat - excess_kurtosis(c, pmf)) < 3.0 * se

    def test_each_band_holds_its_channel_at_launch_power(self):
        # Three channels 66 GHz apart do not overlap. By Parseval, each
        # channel's RRC band of the field's FFT carries the launch power;
        # its flat passband is the FFT of that channel's symbols times one
        # positive scale; the bins outside every band carry no power.
        cfg = tiny_config(channels=3, samples_per_symbol=8, spacing_ghz=66.0)
        field = generate_wdm(cfg, uniform_mod(), 2.0, seed=29)
        n, nsym = field.samples.shape[1], cfg.symbols_per_channel
        spectrum = np.fft.fft(field.samples, axis=1)
        power = np.abs(spectrum) ** 2 / n**2
        freq = np.fft.fftfreq(n, 1.0 / cfg.sample_rate_hz)
        baud = cfg.baud_ghz * 1e9
        outside = np.ones(n, dtype=bool)
        for ch in range(cfg.channels):
            offset = freq - (ch - 1) * cfg.spacing_ghz * 1e9
            band = np.abs(offset) < (1.0 + cfg.rrc_rolloff) * baud / 2.0
            outside &= ~band
            assert power[:, band].sum() == pytest.approx(1e-3 * 10**0.2, rel=1e-12)
            flat = np.abs(offset) <= (1.0 - cfg.rrc_rolloff) * baud / 2.0
            bins = np.rint(offset[flat] * nsym / baud).astype(int) % nsym
            ratio = spectrum[:, flat] / np.fft.fft(field.tx_symbols[ch], axis=1)[:, bins]
            np.testing.assert_allclose(ratio, abs(ratio[0, 0]), rtol=1e-12)
        assert power[:, outside].sum() <= 1e-24 * power.sum()

    @pytest.mark.parametrize("launch_dbm", [math.nan, math.inf])
    def test_non_finite_launch_power_rejected(self, launch_dbm):
        with pytest.raises(ValueError, match="launch_dbm must be finite"):
            generate_wdm(tiny_config(), uniform_mod(), launch_dbm, seed=5)

    def test_symbols_are_generator_choice_draws(self):
        # Every channel and polarization in turn draws Generator.choice's
        # indices from the one seeded generator.
        c = square_qam(64)
        pmf = mb_pmf(c, 1.0 / 42.0)
        cfg = tiny_config(channels=3, samples_per_symbol=8, spacing_ghz=66.0)
        field = generate_wdm(cfg, Modulation("mb", c, pmf), 0.0, seed=31)
        rng, points = np.random.default_rng(31), normalized(c, pmf).points
        for ch in range(cfg.channels):
            for pol in range(2):
                want = points[rng.choice(64, size=cfg.symbols_per_channel, p=pmf.probs)]
                np.testing.assert_array_equal(field.tx_symbols[ch, pol], want)

    def test_modulation_rejects_pmf_of_another_order(self):
        c16, c64 = square_qam(16), square_qam(64)
        with pytest.raises(ValueError, match=r"pmf length \(64,\) does not match constellation order 16"):
            Modulation("x", c16, uniform_pmf(c64))

    def test_seed_determinism(self):
        cfg = tiny_config()
        a = generate_wdm(cfg, uniform_mod(), 0.0, seed=5)
        b = generate_wdm(cfg, uniform_mod(), 0.0, seed=5)
        other = generate_wdm(cfg, uniform_mod(), 0.0, seed=6)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, other.samples)


class TestPropagate:
    def test_linear_loss_is_exact(self):
        cfg = tiny_config(gamma_per_w_km=0.0)
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=7)
        out = propagate(field, cfg)
        ratio = float(np.sum(np.abs(out.samples) ** 2)
                      / np.sum(np.abs(field.samples) ** 2))
        assert 10 * math.log10(ratio) == pytest.approx(-cfg.span_loss_db, abs=1e-9)

    def test_lossless_inverse_dispersion_recovers_waveform(self):
        cfg = tiny_config(alpha_db_per_km=0.0, gamma_per_w_km=0.0)
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=8)
        out = propagate(field, cfg)
        omega = 2 * np.pi * np.fft.fftfreq(
            out.samples.shape[1], 1.0 / cfg.sample_rate_hz
        )
        inverse = np.exp(+0.5j * cfg.beta2_s2_per_m * omega**2 * cfg.span_km * 1e3)
        recovered = np.fft.ifft(np.fft.fft(out.samples, axis=1) * inverse, axis=1)
        err = np.sqrt(np.mean(np.abs(recovered - field.samples) ** 2)
                      / np.mean(np.abs(field.samples) ** 2))
        assert err < 1e-6

    def test_lossless_nonlinear_energy_conservation(self):
        cfg = tiny_config(alpha_db_per_km=0.0)
        field = generate_wdm(cfg, uniform_mod(), 6.0, seed=9)
        out = propagate(field, cfg)
        e_in = float(np.sum(np.abs(field.samples) ** 2))
        e_out = float(np.sum(np.abs(out.samples) ** 2))
        assert abs(e_out - e_in) / e_in < 1e-10

    def test_matches_reference_loop_in_nonlinear_regime(self):
        cfg = tiny_config(channels=3, samples_per_symbol=8)
        field = generate_wdm(cfg, uniform_mod(), 6.0, seed=24)
        got = propagate(field, cfg).samples
        want = reference_propagate(field, cfg)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12

    def test_equals_whole_field_loop_bit_for_bit(self):
        # 40,000 samples: four full Kerr blocks and a partial one. A lost
        # or doubled block would change the field.
        cfg = tiny_config(channels=3, samples_per_symbol=8, symbols_per_channel=5000)
        field = generate_wdm(cfg, uniform_mod(), 6.0, seed=27)
        assert field.samples.shape[1] % KERR_BLOCK != 0
        assert np.array_equal(propagate(field, cfg).samples, whole_field_propagate(field, cfg))

    def test_cyclic_shift_commutes(self):
        cfg = tiny_config(channels=3, samples_per_symbol=8)
        field = generate_wdm(cfg, uniform_mod(), 6.0, seed=25)
        shift = 12345
        shifted = replace(field, samples=np.roll(field.samples, shift, axis=1))
        a = np.roll(propagate(field, cfg).samples, shift, axis=1)
        b = propagate(shifted, cfg).samples
        assert np.abs(a - b).max() / np.abs(a).max() < 1e-12

    def test_input_untouched_and_calls_independent(self):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 6.0, seed=26)
        before = field.samples.copy()
        first = propagate(field, cfg)
        second = propagate(field, cfg)
        np.testing.assert_array_equal(field.samples, before)
        np.testing.assert_array_equal(first.samples, second.samples)
        assert not np.shares_memory(first.samples, field.samples)

    def test_allocates_nothing_per_step(self):
        # The field, its working copy, the twiddles, the two responses and
        # what building them takes: about 3.5 field sizes. A whole-field
        # temporary inside a step, such as an FFT that copies its input,
        # would raise the peak; anything kept per step would grow it with
        # the step count.
        field = generate_wdm(tiny_config(), uniform_mod(), 6.0, seed=30)
        propagate(field, tiny_config())
        peaks = [traced_peak(lambda: propagate(field, tiny_config(steps=steps)))[1]
                 for steps in (100, 200)]
        assert abs(peaks[1] - peaks[0]) <= 1024
        assert max(peaks) <= 4 * field.samples.nbytes

    def test_sample_rate_mismatch(self):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=10)
        other = replace(cfg, samples_per_symbol=8)
        with pytest.raises(ValueError, match="sample rate"):
            propagate(field, other)

    def test_non_finite_field_is_reported(self):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=10)
        samples = field.samples.copy()
        samples[0, 0] = np.inf
        broken = replace(field, samples=samples)
        with pytest.raises(FloatingPointError, match="increase steps"):
            propagate(broken, cfg)


class TestSpectralFilter:
    @pytest.mark.parametrize("n, n1", [(1 << 17, 256), (40_000, 200), (65_537, 1)])
    def test_matches_numpy_oracle(self, n, n1):
        # n1 is the largest divisor of n at most sqrt(n): 2^17 = 256 * 512,
        # 40,000 = 200 * 200, and the prime 65,537 takes the direct FFT.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        response = rng.uniform(0.5, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        want = np.fft.ifft(np.fft.fft(x, axis=1) * response, axis=1)
        twiddles = _four_step(n)
        assert twiddles.shape == (2, n1, n // n1)
        buffer = x.copy()
        got = _spectral_filter(buffer, _pass_order(response, n1), twiddles)
        assert got is buffer
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13

    @pytest.mark.parametrize("n", [1 << 17, 40_000, 65_537])
    def test_transforms_in_place(self, n):
        # Every pass writes into the buffer it reads: no copy of the field
        # is allocated, whatever the shape of the view, down to the prime
        # length's single full-length row.
        twiddles = _four_step(n)
        response = _pass_order(np.exp(1j * np.linspace(0.0, 1.0, n)), twiddles.shape[1])
        buffer = np.ones((2, n), dtype=np.complex128)
        got, peak = traced_peak(lambda: _spectral_filter(buffer, response, twiddles))
        assert got is buffer
        assert peak < buffer.nbytes / 64


class TestAmplify:
    def test_noiseless_edge(self):
        # No loss to restore and a noise factor of 1: G F = 1, no ASE.
        cfg = tiny_config(alpha_db_per_km=0.0, edfa_nf_db=0.0)
        assert ase_psd_w_per_hz(cfg) == 0.0
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=11)
        out = amplify(field, cfg, seed=12)
        np.testing.assert_array_equal(out.samples, field.samples)

    def test_gain_restores_the_span_loss(self):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=11)
        out = amplify(field, cfg, seed=12)
        noise = out.samples - field.samples * 10 ** (cfg.span_loss_db / 20)
        var = ase_psd_w_per_hz(cfg) * cfg.sample_rate_hz
        assert float(np.mean(np.abs(noise) ** 2)) == pytest.approx(var, rel=0.05)

    def test_noise_power_matches_psd(self):
        cfg = tiny_config()
        quiet = zero_field(cfg, n=1 << 20)
        out = amplify(quiet, cfg, seed=13)
        expected = ase_psd_w_per_hz(cfg) * cfg.sample_rate_hz
        measured = float(np.mean(np.abs(out.samples[0]) ** 2))
        assert measured == pytest.approx(expected, rel=0.01)
        measured_y = float(np.mean(np.abs(out.samples[1]) ** 2))
        assert measured_y == pytest.approx(expected, rel=0.01)

    def test_seeded_noise_is_independent_of_signal(self):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=14)
        a = amplify(field, cfg, seed=20)
        b = amplify(field, cfg, seed=21)
        gain = 10 ** (cfg.span_loss_db / 20)
        noise_a = a.samples - field.samples * gain
        noise_b = b.samples - field.samples * gain
        assert not np.array_equal(noise_a, noise_b)
        repeat = amplify(field, cfg, seed=20)
        np.testing.assert_array_equal(a.samples, repeat.samples)

    def test_sample_rate_mismatch_fails_before_any_noise(self, monkeypatch):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=15)

        def fail(*args, **kwargs):
            raise AssertionError("noise was drawn before the sample rate was checked")

        monkeypatch.setattr(np.random, "default_rng", fail)
        with pytest.raises(ValueError, match="field sample rate .* does not match the configuration"):
            amplify(field, replace(cfg, samples_per_symbol=8), seed=1)


def zero_field(cfg: LinkConfig, n: int) -> DualPolField:
    """An all-zero field of ``n`` samples at ``cfg``'s sample rate."""
    return DualPolField(
        samples=np.zeros((2, n), dtype=np.complex128),
        sample_rate_hz=cfg.sample_rate_hz,
        tx_symbols=np.zeros((1, 2, 1), dtype=np.complex128),
    )


class TestReceive:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_noiseless_linear_loopback_every_channel(self, channels):
        # No Kerr term or ASE, and a gain that restores the span loss.
        # Three channels lie on the FFT grid, spaced by (1 + roll-off) * baud
        # or more, so the matched filter sees no neighbour: every channel's
        # symbols come back to rounding (1.3e-13 measured with three
        # channels, 8.6e-14 with one).
        cfg = tiny_config(channels=channels, samples_per_symbol=8, spacing_ghz=66.0,
                          gamma_per_w_km=0.0)
        assert cfg.spacing_ghz >= (1.0 + cfg.rrc_rolloff) * cfg.baud_ghz
        field = propagate(generate_wdm(cfg, uniform_mod(), 0.0, seed=28), cfg)
        field = replace(field, samples=field.samples * 10.0 ** (cfg.span_loss_db / 20.0))
        for ch in range(cfg.channels):
            np.testing.assert_allclose(receive(field, cfg, ch), field.tx_symbols[ch],
                                       rtol=0.0, atol=1e-12)

    def test_ase_only_matches_analytic_budget(self, ase_budget_db):
        cfg = tiny_config(gamma_per_w_km=0.0)
        rx, tx = transmission_run(cfg, uniform_mod(), 0.0, tx_seed=17, amp_seed=18)
        snr = estimate_snr(rx, tx)
        assert snr == pytest.approx(ase_budget_db(cfg, 0.0), abs=0.2)

    def test_single_channel_budget_is_tight(self, ase_budget_db):
        cfg = tiny_config(gamma_per_w_km=0.0, symbols_per_channel=1 << 14)
        rx, tx = transmission_run(cfg, gaussian_modulation(), 0.0,
                                  tx_seed=19, amp_seed=20)
        snr = estimate_snr(rx, tx)
        assert snr == pytest.approx(ase_budget_db(cfg, 0.0), abs=0.05)

    @pytest.mark.slow
    def test_center_channel_sees_more_nli_than_edge(self):
        cfg = LinkConfig()
        field = generate_wdm(cfg, uniform_mod(64), launch_dbm=8.0, seed=21)
        field = propagate(field, cfg)
        field = amplify(field, cfg, seed=22)
        snr_center = estimate_snr(receive(field, cfg, 1), field.tx_symbols[1])
        snr_edge = estimate_snr(receive(field, cfg, 0), field.tx_symbols[0])
        assert snr_center <= snr_edge

    def test_sample_rate_mismatch_fails_before_any_fft(self, monkeypatch):
        # Received as if at 32 GBd, a field sampled at 4 x 33 GBd put the
        # matched filter on the wrong frequencies; its SNR read -13.5 dB.
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=23)

        def fail(*args, **kwargs):
            raise AssertionError("an FFT ran before the sample rate was checked")

        for name in ("fft", "ifft", "fftfreq"):
            monkeypatch.setattr(ssfm, name, fail)
        with pytest.raises(ValueError, match="field sample rate .* does not match the configuration"):
            receive(field, replace(cfg, baud_ghz=32.0), 0)

    def test_bad_channel_index(self):
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=23)
        with pytest.raises(ValueError, match="channel index"):
            receive(field, cfg, 1)

    def test_all_zero_field_named(self):
        # The least-squares gain of a silent reception is 0; dividing by it
        # used to return NaN symbols with a RuntimeWarning only.
        cfg = tiny_config()
        field = generate_wdm(cfg, uniform_mod(), 0.0, seed=23)
        silent = replace(field, samples=np.zeros_like(field.samples))
        with pytest.raises(ValueError, match="rx_symbols row 0 has no power along its sent row"):
            receive(silent, cfg, 0)


class TestEstimateSnr:
    def test_perfect_match_hits_cap(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        assert estimate_snr(x, x) >= 80.0

    def test_known_noise_level(self):
        rng = np.random.default_rng(1)
        n = 100_000
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        sigma2 = 10 ** (-12.0 / 10)
        y = x + np.sqrt(sigma2 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert estimate_snr(y, x) == pytest.approx(12.0, abs=0.1)

    def test_pure_scaling_is_invisible(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        y = (0.37 - 2.1j) * x
        assert estimate_snr(y, x) >= 80.0

    def test_length_checks(self):
        x = np.ones(20_000, dtype=complex)
        with pytest.raises(ValueError, match="mismatch"):
            estimate_snr(x, x[:-1])
        with pytest.raises(ValueError, match="1e4"):
            estimate_snr(x[:100], x[:100])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("name", ["rx_symbols", "tx_symbols"])
    def test_non_finite_sample_named(self, name, bad, monkeypatch):
        # One such sample used to make the SNR NaN, with RuntimeWarnings only.
        def no_compute(*args, **kwargs):
            raise AssertionError("the estimate ran on a non-finite sample")

        monkeypatch.setattr(ssfm, "_gain_removed", no_compute)
        x = np.ones((2, 10_000), dtype=complex)
        pair = {"rx_symbols": x.copy(), "tx_symbols": x.copy()}
        pair[name][1, 7] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite: 1 of 20000 samples are not"):
            estimate_snr(**pair)

    @pytest.mark.parametrize("name, message", [("rx_symbols", "has no power along its sent row"),
                                               ("tx_symbols", "has no power")])
    def test_zero_power_row_named(self, name, message):
        # A least-squares gain of 0 (rx) or 0/0 (tx) used to make the SNR
        # NaN, with a RuntimeWarning only.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 8192)) + 1j * rng.standard_normal((2, 8192))
        pair = {"rx_symbols": x.copy(), "tx_symbols": x.copy()}
        pair[name][1] = 0.0
        with pytest.raises(ValueError, match=f"{name} row 1 {message}"):
            estimate_snr(**pair)


def dense_mi_from_samples(rx, tx, constellation, pmf):
    """Oracle: the auxiliary-channel MI with the dense (samples, M)
    log-sum-exp posterior over every constellation point."""
    x = constellation.points
    sigma2 = float(np.mean(np.abs(rx - tx) ** 2))
    h_bits = entropy(pmf)
    logp = np.where(pmf.probs > 0.0, np.log(np.maximum(pmf.probs, 1e-320)), -np.inf)
    xq = np.vstack([x.real, x.imag])
    x2 = np.abs(x) ** 2
    i, q = constellation.level_indices(tx)
    idx = i * constellation.side + q
    total = 0.0
    chunk = 1 << 15
    buffer = np.empty((min(chunk, rx.size), x.size))
    for lo in range(0, rx.size, chunk):
        y = rx[lo : lo + chunk]
        yq = np.empty((y.size, 2))
        yq[:, 0], yq[:, 1] = y.real, y.imag
        a = np.matmul(yq, xq, out=buffer[: y.size])
        a *= 2.0
        a -= x2
        a /= sigma2
        a += logp
        a_max = a.max(axis=1)
        a_true = a[np.arange(y.size), idx[lo : lo + chunk]]
        np.subtract(a, a_max[:, None], out=a)
        np.maximum(a, -700.0, out=a)
        lse = a_max + np.log(np.exp(a, out=a).sum(axis=1))
        total += float((lse - a_true).sum())
    mi = h_bits - total / rx.size / LN2
    return float(np.clip(mi, 0.0, h_bits))


def shaped_symbols(order, n, seed):
    """A tailored pmf on ``order``-QAM, its unit-power constellation and
    ``n`` symbols drawn from it."""
    c = square_qam(order)
    scale = 170.0 / float(np.mean(c.sq_magnitudes))
    pmf = tailored_pmf(c, -1e-3 * scale, 4.4e-5 * scale**2)
    unit = normalized(c, pmf)
    rng = np.random.default_rng(seed)
    return unit, pmf, unit.points[rng.choice(order, size=n, p=pmf.probs)], rng


class TestMiFromSamples:
    def setup_method(self):
        self.c = square_qam(256)
        self.pmf = uniform_pmf(self.c)
        self.unit = normalized(self.c, self.pmf)

    def synthetic(self, snr_db, n=100_000, seed=3):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 256, n)
        x = self.unit.points[idx]
        sigma2 = 10 ** (-snr_db / 10)
        y = x + np.sqrt(sigma2 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return y, x

    def test_matches_quadrature_on_awgn(self):
        y, x = self.synthetic(18.0)
        got = mi_from_samples(y, x, self.unit, self.pmf)
        want = mi_awgn_2d(self.unit, self.pmf, 18.0)
        assert got == pytest.approx(want, abs=0.02)

    def test_zero_noise_gives_entropy(self):
        y, x = self.synthetic(60.0)
        got = mi_from_samples(x, x, self.unit, self.pmf)
        assert got == pytest.approx(8.0, abs=1e-3)

    def test_shuffled_pairing_has_no_information(self):
        y, x = self.synthetic(18.0)
        got = mi_from_samples(np.roll(y, 1), x, self.unit, self.pmf)
        assert got < 0.02

    def test_sample_floor(self):
        y, x = self.synthetic(18.0, n=5_000)
        with pytest.raises(ValueError, match="1e4"):
            mi_from_samples(y, x, self.unit, self.pmf)

    def test_requires_unit_power(self):
        y, x = self.synthetic(18.0)
        with pytest.raises(ValueError, match="unit power"):
            mi_from_samples(y, x, self.c, self.pmf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("name", ["rx_symbols", "tx_symbols"])
    def test_non_finite_sample_named(self, name, bad, monkeypatch):
        # One such sample in 20,000 used to make the MI NaN, with
        # RuntimeWarnings only.
        def no_compute(*args, **kwargs):
            raise AssertionError("the estimate ran on a non-finite sample")

        monkeypatch.setattr(Constellation, "level_indices", no_compute)
        monkeypatch.setattr(ssfm, "_neg_log_posterior_chunks", no_compute)
        y, x = self.synthetic(18.0, n=20_000)
        pair = {"rx_symbols": y, "tx_symbols": x}
        pair[name][123] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite: 1 of 20000 samples are not"):
            mi_from_samples(**pair, constellation=self.unit, pmf=self.pmf)

    def test_off_grid_tx_named(self, monkeypatch):
        # Each sent sample used to be taken for its nearest point: a
        # complex-Gaussian tx read 2.725 bit at 16QAM, and a tx at 1.5 times
        # the unit scale 3.996 bit.
        c = square_qam(16)
        pmf = uniform_pmf(c)
        unit = normalized(c, pmf)
        rng = np.random.default_rng(5)
        on_grid = unit.points[rng.integers(0, 16, 20_000)]
        gaussian = (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)) / np.sqrt(2)
        nudged = on_grid.copy()
        nudged[:3] += 2e-9 * unit.scale
        near = on_grid + 1e-10 * unit.scale
        assert mi_from_samples(on_grid, near, unit, pmf) == pytest.approx(4.0, abs=1e-9)

        def no_compute(*args, **kwargs):
            raise AssertionError("the posterior ran on an off-grid tx")

        monkeypatch.setattr(ssfm, "_neg_log_posterior_chunks", no_compute)
        for tx, off in ((gaussian, 20_000), (1.5 * on_grid, 20_000), (nudged, 3)):
            rx = tx + 0.1 * (rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000))
            with pytest.raises(ValueError, match=f"constellation points: {off} of 20000 samples"):
                mi_from_samples(rx, tx, unit, pmf)

    @pytest.mark.parametrize("order", [256, 1024])
    def test_matches_dense_oracle(self, order):
        # AWGN; a distorted channel (gain, phase rotation, AWGN), to which
        # the auxiliary channel is mismatched; and weak AWGN with one sample
        # far beyond a corner, hundreds of residual deviations from every
        # level. 66,536 samples cross two chunk boundaries.
        unit, pmf, x, rng = shaped_symbols(order, 66_536, seed=order)
        noise = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
        outlier = x + 1e-3 * noise
        outlier[0] = 3.0 * unit.points[0]
        for y in (x + 0.05 * noise, 0.97 * np.exp(0.02j) * x + 0.03 * noise, outlier):
            got = mi_from_samples(y, x, unit, pmf)
            assert got == pytest.approx(dense_mi_from_samples(y, x, unit, pmf), abs=1e-12)

    def test_far_outlier_beside_an_empty_corner(self):
        # Corners empty: a sample beyond a corner is nearest a zero cell and
        # hundreds of residual deviations from all mass, so every term of
        # its separable mixture sits under the exp() flush.
        c = square_qam(16)
        pmf = ring_pmf(c, [0.5, 0.5, 0.0])
        unit = normalized(c, pmf)
        rng = np.random.default_rng(0)
        x = unit.points[rng.choice(16, size=20_000, p=pmf.probs)]
        y = x + 1e-3 * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
        y[0] = 1.5 * unit.points[0]
        got = mi_from_samples(y, x, unit, pmf)
        assert got == pytest.approx(dense_mi_from_samples(y, x, unit, pmf), abs=1e-9)

    @given(
        order=st.sampled_from([16, 64, 256]),
        snr_db=st.floats(5.0, 50.0),
        empty=st.floats(0.0, 0.9),
        outliers=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                          min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_empty_cells_and_outliers_match_dense_oracle(
        self, order, snr_db, empty, outliers, seed
    ):
        # Log-normal cell weights with a random share of the cells empty;
        # a few received samples moved anywhere up to three times the
        # largest level along each axis.
        rng = np.random.default_rng(seed)
        c = square_qam(order)
        weights = np.exp(2.0 * rng.standard_normal(order))
        weights[rng.random(order) < empty] = 0.0
        weights[rng.integers(order)] = 1.0
        pmf = Pmf(weights / weights.sum())
        unit = normalized(c, pmf)
        x = unit.points[rng.choice(order, size=10_000, p=pmf.probs)]
        sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
        y = x + sigma * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
        y[: len(outliers)] = [unit.levels[-1] * complex(a, b) for a, b in outliers]
        got = mi_from_samples(y, x, unit, pmf)
        assert got == pytest.approx(dense_mi_from_samples(y, x, unit, pmf), abs=1e-9)

    def test_matches_quadrature_on_awgn_4096(self):
        unit, pmf, x, rng = shaped_symbols(4096, 200_000, seed=7)
        sigma2 = 10 ** (-22.0 / 10)
        y = x + np.sqrt(sigma2 / 2) * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
        got = mi_from_samples(y, x, unit, pmf)
        assert got == pytest.approx(mi_awgn_2d(unit, pmf, 22.0), abs=0.02)


@st.composite
def grid_inputs(draw):
    """A square QAM constellation (raw or unit-power) and complex values:
    grid points, points moved by up to a few level spacings, and
    arbitrary values, with the index of the nearest point by brute force.
    Values equidistant from two points are dropped."""
    order = draw(st.sampled_from([16, 64, 256, 1024, 4096]))
    c = square_qam(order)
    if draw(st.booleans()):
        c = normalized(c, uniform_pmf(c))
    spacing = abs(c.points[1] - c.points[0])
    offset = st.one_of(st.just(0.0), st.floats(-4.0, 4.0))
    moved = draw(st.lists(st.tuples(st.integers(0, order - 1), offset, offset),
                          min_size=1, max_size=30))
    loose = draw(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                             allow_infinity=False), max_size=10))
    values = np.array([c.points[i] + spacing * complex(dx, dy) for i, dx, dy in moved]
                      + loose, dtype=np.complex128)
    dist = np.abs(values[:, None] - c.points[None, :])
    two = np.sort(dist, axis=1)[:, :2]
    keep = two[:, 1] - two[:, 0] > 1e-9 * spacing
    assume(keep.any())
    return c, values[keep], np.argmin(dist[keep], axis=1)


@settings(max_examples=80, deadline=None)
@given(grid_inputs())
def test_nearest_indices_match_argmin(case):
    c, values, want = case
    i, q = c.level_indices(values)
    np.testing.assert_array_equal(i * c.side + q, want)


class TestPowerSweep:
    def test_single_point_single_row_per_family(self):
        cfg = tiny_config(seed=100)
        mods = [uniform_mod(), gaussian_modulation()]
        results = power_sweep(cfg, mods, [2.0])
        assert len(results) == 2
        assert {r.family for r in results} == {"uniform", "gaussian"}
        assert all(r.launch_dbm_per_channel == 2.0 for r in results)

    def test_identical_seed_identical_results(self):
        cfg = tiny_config(seed=101)
        mods = [uniform_mod()]
        a = power_sweep(cfg, mods, [0.0, 2.0])
        b = power_sweep(cfg, mods, [0.0, 2.0])
        assert a == b

    def test_gaussian_mi_is_capacity_at_measured_snr(self):
        cfg = tiny_config(seed=102)
        (res,) = power_sweep(cfg, [gaussian_modulation()], [0.0])
        want = 2 * math.log2(1 + 10 ** (res.snr_db / 10))
        assert res.mi_4d == pytest.approx(want, abs=1e-12)
        assert res.kurtosis == 0.0

    def test_grid_must_ascend(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="ascending"):
            power_sweep(cfg, [uniform_mod()], [3.0, 1.0])

    def test_point_does_not_depend_on_lower_grid_points(self):
        cfg = tiny_config(seed=107)
        mods = [uniform_mod(), gaussian_modulation()]
        alone = power_sweep(cfg, mods, [4.0])
        extended = power_sweep(cfg, mods, [2.0, 4.0])
        assert extended[2:] == alone

    def test_family_subset_gives_rows_of_full_sweep(self):
        cfg = tiny_config(seed=108)
        mods = [uniform_mod(), gaussian_modulation()]
        full = power_sweep(cfg, mods, [0.0, 2.0])
        subset = power_sweep(cfg, mods[1:], [0.0, 2.0])
        assert subset == [r for r in full if r.family == "gaussian"]

    def test_no_runs_rejected(self, monkeypatch):
        # Both returned [] with no error, where mi_curve refuses an empty grid.
        _no_link_compute(monkeypatch)
        with pytest.raises(ValueError, match="power_grid_dbm must be non-empty"):
            power_sweep(tiny_config(), [uniform_mod()], [])
        with pytest.raises(ValueError, match="modulations must be non-empty"):
            power_sweep(tiny_config(), [], [0.0])

    def test_duplicate_names_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="distinct"):
            power_sweep(cfg, [uniform_mod(), uniform_mod(64)], [0.0])

    def test_symbol_floor_is_measurable(self):
        # 5000 symbols on two polarizations are the 1e4 samples
        # estimate_snr and mi_from_samples need.
        (res,) = power_sweep(tiny_config(symbols_per_channel=5000, seed=5),
                             [uniform_mod()], [0.0])
        assert math.isfinite(res.snr_db) and res.mi_4d > 0.0

    def test_powers_sharing_a_seed_key_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="milli-dBm"):
            power_sweep(cfg, [uniform_mod()], [4.0001, 4.0004])

    @pytest.mark.parametrize("grid", [[math.nan], [0.0, math.inf], [-math.inf, 0.0]])
    def test_non_finite_power_rejected_before_any_run(self, grid, monkeypatch):
        # NaN failed converting its seed key, and infinity overflowed.
        _no_link_compute(monkeypatch)
        with pytest.raises(ValueError, match="power_grid_dbm must be finite"):
            power_sweep(tiny_config(), [uniform_mod()], grid)


def _no_link_compute(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the link ran before it was checked")

    for name in ("generate_wdm", "propagate"):
        monkeypatch.setattr(ssfm, name, fail)


@pytest.mark.parametrize("overrides, message", [
    (dict(symbols_per_channel=4096), "symbols_per_channel = 4096 is too few"),
    (dict(alpha_db_per_km=-0.2), "span loss"),    # LinkConfig rejects both
    (dict(span_km=-10.0), "span loss"),
])
class TestUnmeasurableLink:
    def test_power_sweep_fails_before_propagate(self, overrides, message, monkeypatch):
        _no_link_compute(monkeypatch)
        with pytest.raises(ValueError, match=message):
            power_sweep(tiny_config(**overrides), [uniform_mod()], [0.0])

    def test_estimate_c_fails_before_propagate(self, overrides, message, monkeypatch):
        _no_link_compute(monkeypatch)
        with pytest.raises(ValueError, match=message):
            estimate_c(tiny_config(**overrides), TestEstimateC.probes(), probe_power_dbm=6.0)


class TestEstimateC:
    @staticmethod
    def probes():
        # u = 30 sits on the descending branch of the kurtosis-vs-rate
        # curve: K is approximately -0.9 (deep shaping)
        c64 = square_qam(64)
        return [
            Modulation("uniform", c64, uniform_pmf(c64)),
            gaussian_modulation(),
            Modulation("mb_deep", c64, mb_pmf(c64, 30.0 / 42.0)),
        ]

    def test_gamma_zero_has_no_measurable_nli(self):
        # One channel: each reading is rounding, about 1e-27 of the signal,
        # and some are negative.
        cfg = tiny_config(gamma_per_w_km=0.0, seed=103)
        with pytest.raises(ValueError, match="no measurable NLI"):
            estimate_c(cfg, self.probes(), probe_power_dbm=6.0)

    def test_gamma_zero_on_three_channels_has_no_measurable_nli(self):
        # Three baud-spaced channels leave a back-to-back residue of about
        # 2.4e-3 of the signal, which the Kerr-free split-step repeats to
        # rounding: the reading is refused against that residue.
        cfg = tiny_config(channels=3, samples_per_symbol=8, gamma_per_w_km=0.0, seed=103)
        with pytest.raises(ValueError, match="no measurable NLI"):
            estimate_c(cfg, self.probes(), probe_power_dbm=6.0)

    def test_power_sweep_and_estimate_c_run_on_a_lossless_link(self):
        # No amplifier gain is needed to measure a run: power_sweep's
        # amplifier restores 0 dB, and estimate_c reads the NLI without one.
        cfg = tiny_config(alpha_db_per_km=0.0, seed=108)
        (res,) = power_sweep(cfg, [uniform_mod()], [0.0])
        assert math.isfinite(res.snr_db) and res.mi_4d > 0.0
        fit = estimate_c(cfg, self.probes(), probe_power_dbm=0.0)
        assert math.isfinite(fit.c) and math.isfinite(fit.r_squared)

    def test_duplicate_probes_rejected(self):
        cfg = tiny_config()
        c64 = square_qam(64)
        probes = [
            Modulation("a", c64, uniform_pmf(c64)),
            Modulation("b", c64, uniform_pmf(c64)),
            gaussian_modulation(),
        ]
        with pytest.raises(ValueError, match="separated"):
            estimate_c(cfg, probes, probe_power_dbm=6.0)

    def test_repeated_probe_name_rejected_before_calibration(self, monkeypatch):
        # Each probe's CSV row is keyed by its name; two differently shaped
        # probes with one name both ran. The check comes before any probe
        # run, whose generate_wdm _no_link_compute fails.
        _no_link_compute(monkeypatch)
        c64 = square_qam(64)
        probes = self.probes()
        probes[2] = Modulation("uniform", c64, mb_pmf(c64, 30.0 / 42.0))
        with pytest.raises(ValueError, match="probe names must be distinct, got "
                                             r"\['uniform', 'gaussian', 'uniform'\]"):
            estimate_c(tiny_config(), probes, probe_power_dbm=6.0)

    @pytest.mark.parametrize("power", [math.nan, math.inf])
    def test_non_finite_probe_power_rejected_before_calibration(self, power, monkeypatch):
        # NaN ran a crosstalk calibration, then failed in propagate with
        # "increase steps or lower power". The check comes before any probe
        # run, whose generate_wdm _no_link_compute fails.
        _no_link_compute(monkeypatch)
        with pytest.raises(ValueError, match="probe_power_dbm must be finite"):
            estimate_c(tiny_config(), self.probes(), probe_power_dbm=power)

    def test_too_few_probes(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="at least 3"):
            estimate_c(cfg, self.probes()[:2], probe_power_dbm=6.0)

    @pytest.mark.slow
    def test_desk_scale_fit_quality(self):
        cfg = LinkConfig(seed=104)
        fit = estimate_c(cfg, self.probes(), probe_power_dbm=6.0)
        assert fit.c == fit.eta2 / fit.eta1
        assert fit.c > 0.0
        assert 0.9 < fit.r_squared <= 1.0
        # lower kurtosis must mean higher SNR at this power
        by_kurt = sorted(fit.probes, key=lambda p: p.kurtosis)
        snrs = [p.snr_db for p in by_kurt]
        assert all(a > b for a, b in zip(snrs, snrs[1:]))


@pytest.fixture
def link_runs(tmp_path, monkeypatch):
    """Log of ``generate_wdm`` calls across processes, one per run of
    ``power_sweep`` or ``estimate_c``: each process appends its pid to one
    file. Calling the fixture's value reads and clears the log."""
    log = tmp_path / "link-runs"
    real = ssfm.generate_wdm

    def logged(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    def read() -> list[int]:
        lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return [int(pid) for pid in lines]

    monkeypatch.setattr(ssfm, "generate_wdm", logged)
    return read


# The fork helper's callers on the link, each making three independent
# runs (an odd count: with two CPUs the caller takes two), and the runs
# that fail in test_failing_run_raises_as_the_serial_loop, by (modulation,
# launch power): the second and the third, in run order.
SWEEPS = {
    "power_sweep": (
        lambda: power_sweep(tiny_config(seed=109), [uniform_mod()], [0.0, 1.0, 2.0]),
        (("uniform", 1.0), ("uniform", 2.0)),
    ),
    "estimate_c": (
        lambda: estimate_c(tiny_config(gamma_per_w_km=4.8, seed=110), default_probes(), 9.0),
        (("gaussian", 9.0), ("mb_deep", 9.0)),
    ),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
class TestForkedRuns:
    def test_result_does_not_depend_on_cpu_count(self, sweep, cpus, link_runs):
        # repr spells every float exactly, so equal reprs are equal bits.
        run, _ = SWEEPS[sweep]
        results = []
        for n in (1, 2, 3):
            cpus(n)
            results.append(repr(run()))
            assert multiprocessing.active_children() == []
            runs = link_runs()
            assert len(runs) == 3
            assert len(set(runs)) == n
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_failing_run_raises_as_the_serial_loop(self, sweep, cpus, monkeypatch):
        # With two CPUs the second run fails in the worker and the third in
        # the caller; the lowest failing run raises, as in a serial loop.
        run, failing = SWEEPS[sweep]
        real = ssfm.generate_wdm

        def transmit(config, modulation, launch_dbm, seed):
            if (modulation.name, launch_dbm) in failing:
                raise FloatingPointError(f"{modulation.name} at {launch_dbm} dBm diverged")
            return real(config, modulation, launch_dbm, seed)

        monkeypatch.setattr(ssfm, "generate_wdm", transmit)
        errors = []
        for n in (1, 2):
            cpus(n)
            with pytest.raises(FloatingPointError) as exc:
                run()
            errors.append(str(exc.value))
            assert multiprocessing.active_children() == []
        assert errors[1] == errors[0]
        assert errors[0] == "{} at {} dBm diverged".format(*failing[0])

    def test_failed_fork_gives_the_serial_result(self, sweep, cpus, failing_starts, link_runs):
        run, _ = SWEEPS[sweep]
        cpus(1)
        serial = repr(run())
        link_runs()
        fds = len(os.listdir("/proc/self/fd"))
        cpus(3)
        starts = failing_starts(1)
        assert repr(run()) == serial
        assert len(starts) == 1
        assert len(os.listdir("/proc/self/fd")) == fds
        assert multiprocessing.active_children() == []
        assert link_runs() == [os.getpid()] * 3


def back_to_back(cfg: LinkConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rx, tx) of the center channel of Gaussian symbols at 0 dBm, drawn
    from ``cfg.seed``, received back to back as ``measure_nli`` receives
    its reference: with no dispersion to compensate."""
    field = generate_wdm(cfg, gaussian_modulation(), 0.0, ssfm._run_seed(cfg.seed, 0xBA5E)[0])
    center = cfg.channels // 2
    return (receive(field, replace(cfg, dispersion_ps_nm_km=0.0), center),
            field.tx_symbols[center])


def residue(rx: np.ndarray, tx: np.ndarray) -> float:
    """sum |rx - tx|^2 / sum |tx|^2."""
    return float(np.sum(np.abs(rx - tx) ** 2) / np.sum(np.abs(tx) ** 2))


class TestLinearCrosstalk:
    """The back-to-back reception that ``measure_nli`` reads the NLI
    against: the run's own linear crosstalk."""

    def test_overlap_grid_leak_level(self):
        cfg = LinkConfig(seed=106)
        xt = residue(*back_to_back(cfg))
        # beta/8 per neighbor for baud-spaced RRC; two neighbors at the center
        assert xt == pytest.approx(2 * cfg.rrc_rolloff / 8, rel=0.25)

    def test_single_channel_has_none(self):
        assert residue(*back_to_back(tiny_config(seed=1))) < 1e-20

    def test_matches_linear_split_step(self):
        # Oracle: the noiseless link run through the split-step with the
        # Kerr term off, and a gain that restores the span loss.
        cfg = tiny_config(channels=3, samples_per_symbol=8, seed=3)
        tx_seed, _ = ssfm._run_seed(cfg.seed, 0xBA5E)
        linear = replace(cfg, gamma_per_w_km=0.0)
        field = propagate(generate_wdm(linear, gaussian_modulation(), 0.0, tx_seed), linear)
        field = replace(field, samples=field.samples * 10.0 ** (cfg.span_loss_db / 20.0))
        oracle = residue(receive(field, cfg, 1), field.tx_symbols[1])
        assert oracle > 1e-3
        assert residue(*back_to_back(cfg)) == pytest.approx(oracle, rel=1e-12)


class TestMeasureNli:
    CONFIG = tiny_config(channels=3, samples_per_symbol=8, gamma_per_w_km=4.8, seed=111)

    def test_reading_is_the_excess_over_back_to_back(self):
        # Oracle: the split-step reception's residue minus the back-to-back
        # residue, times the launch power; snr_db is the former's SNR.
        cfg = self.CONFIG
        probe = measure_nli(cfg, uniform_mod(), 6.0, tx_seed=41)
        field = generate_wdm(cfg, uniform_mod(), 6.0, 41)
        tx = field.tx_symbols[1]
        rx = receive(propagate(field, cfg), cfg, 1)
        b2b = receive(field, replace(cfg, dispersion_ps_nm_km=0.0), 1)
        p_w = 1e-3 * 10.0 ** 0.6
        assert probe.nli_variance_w == pytest.approx((residue(rx, tx) - residue(b2b, tx)) * p_w,
                                                     rel=1e-12)
        assert probe.snr_db == estimate_snr(rx, tx)
        assert (probe.family, probe.kurtosis) == ("uniform", uniform_mod().kurtosis)

    def test_reading_does_not_depend_on_the_span_gain(self, monkeypatch):
        # receive's least-squares gain absorbs a constant scale, so the
        # reading needs no amplifier: the propagated field times the span
        # gain reads the same NLI and SNR to rounding.
        cfg = self.CONFIG
        unamplified = measure_nli(cfg, uniform_mod(), 6.0, tx_seed=41)
        real = ssfm.propagate
        gain = 10.0 ** (cfg.span_loss_db / 20.0)

        def amplified_propagate(field, config):
            out = real(field, config)
            return replace(out, samples=out.samples * gain)

        monkeypatch.setattr(ssfm, "propagate", amplified_propagate)
        amplified = measure_nli(cfg, uniform_mod(), 6.0, tx_seed=41)
        assert amplified.nli_variance_w == pytest.approx(unamplified.nli_variance_w, rel=1e-12)
        assert amplified.snr_db == pytest.approx(unamplified.snr_db, rel=1e-12)


# A negative seed failed deep in numpy with a bare "expected non-negative
# integer", and a float with a TypeError from SeedSequence.
BAD_SEEDS = [(-1, "must be at least 0, got -1"),
             (1.5, "must be an integer, got 1.5"),
             (True, "must be an integer, got True")]


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
class TestBadSeeds:
    def test_generate_wdm(self, seed, message):
        with pytest.raises(ValueError, match=re.escape(f"seed {message}")):
            generate_wdm(tiny_config(), gaussian_modulation(), 0.0, seed=seed)

    def test_amplify(self, seed, message):
        field = generate_wdm(tiny_config(), uniform_mod(), 0.0, seed=31)
        with pytest.raises(ValueError, match=re.escape(f"seed {message}")):
            amplify(field, tiny_config(), seed=seed)

    def test_measure_nli_checks_tx_seed_before_transmitting(self, seed, message, monkeypatch):
        _no_link_compute(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"tx_seed {message}")):
            measure_nli(tiny_config(), uniform_mod(), 0.0, tx_seed=seed)

    def test_transmission_run_checks_amp_seed_before_propagating(self, seed, message, monkeypatch):
        _no_link_compute(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(f"amp_seed {message}")):
            transmission_run(tiny_config(), uniform_mod(), 0.0, tx_seed=1, amp_seed=seed)


def test_numpy_integer_seeds_taken_as_integers():
    cfg = tiny_config()
    field = generate_wdm(cfg, uniform_mod(), 0.0, seed=np.int64(5))
    assert np.array_equal(field.samples, generate_wdm(cfg, uniform_mod(), 0.0, seed=5).samples)
    assert np.array_equal(amplify(field, cfg, seed=np.uint32(6)).samples,
                          amplify(field, cfg, seed=6).samples)
