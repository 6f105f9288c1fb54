"""Split-step simulation of a single-span dual-polarization WDM link.

Transmit chain: per-channel i.i.d. symbols, root-raised-cosine shaping
on a cyclic grid, frequency comb assembly. Propagation integrates the
polarization-averaged (Manakov) equation with a symmetrized split-step
scheme; a single lumped amplifier restores the span loss and adds ASE.
The receiver applies ideal frequency-domain dispersion compensation,
matched filtering, and data-aided complex scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.constants import c as LIGHT_SPEED, h as PLANCK

from .awgn_mi import LN2
from .constellation import Constellation, normalized
from .shaping import Pmf, entropy, excess_kurtosis

LN10 = float(np.log(10.0))

# estimate_snr reports at most this; a zero-residual input would otherwise
# return infinity.
SNR_CAP_DB = 100.0

# NLI extraction refuses to fit when the excess over the linear baseline
# is below this fraction of the ASE variance.
MIN_NLI_FRACTION = 0.05


@dataclass(frozen=True)
class LinkConfig:
    """Fiber, amplifier, and WDM transmission parameters.

    Physical defaults follow the single-span ultra-low-loss scenario;
    numeric defaults (sampling, symbol count, step count) are the desk
    scale used by the validation suite. ``full_scale()`` switches to the
    heavy configuration.
    """

    span_km: float = 200.0
    alpha_db_per_km: float = 0.165
    dispersion_ps_nm_km: float = 16.3
    gamma_per_w_km: float = 1.2
    edfa_nf_db: float = 5.0
    channels: int = 5
    baud_ghz: float = 33.0
    spacing_ghz: float = 33.0
    center_wavelength_nm: float = 1550.0
    rrc_rolloff: float = 0.01
    samples_per_symbol: int = 8
    symbols_per_channel: int = 1 << 14
    steps: int = 400
    seed: int = 42

    def __post_init__(self):
        if self.channels < 1 or self.channels % 2 == 0:
            raise ValueError("channels must be a positive odd count")
        bw = self.baud_ghz * self.samples_per_symbol
        need = self.channels * self.spacing_ghz + 2.0 * self.baud_ghz
        if bw < need:
            raise ValueError(
                f"simulation bandwidth {bw} GHz below channel comb plus guard "
                f"band {need} GHz; raise samples_per_symbol"
            )
        if self.steps < math.ceil(self.span_km / 2.0):
            raise ValueError(
                f"steps = {self.steps} too coarse for {self.span_km} km; "
                "need at least one step per 2 km"
            )
        if not 0.0 < self.rrc_rolloff <= 1.0:
            raise ValueError("rrc_rolloff must be in (0, 1]")

    @classmethod
    def desk_scale(cls, **overrides) -> "LinkConfig":
        base = dict(channels=3, samples_per_symbol=8,
                    symbols_per_channel=1 << 14, steps=400)
        base.update(overrides)
        return cls(**base)

    @classmethod
    def full_scale(cls, **overrides) -> "LinkConfig":
        base = dict(channels=5, samples_per_symbol=16,
                    symbols_per_channel=1 << 16, steps=2000)
        base.update(overrides)
        return cls(**base)

    @property
    def sample_rate_hz(self) -> float:
        return self.baud_ghz * 1e9 * self.samples_per_symbol

    @property
    def span_loss_db(self) -> float:
        return self.alpha_db_per_km * self.span_km

    @property
    def beta2_s2_per_m(self) -> float:
        d = self.dispersion_ps_nm_km * 1e-6  # s/m^2
        lam = self.center_wavelength_nm * 1e-9
        return -d * lam * lam / (2.0 * math.pi * LIGHT_SPEED)

    def channel_offset_hz(self, channel_index: int) -> float:
        if not 0 <= channel_index < self.channels:
            raise ValueError(f"channel index {channel_index} out of range")
        return (channel_index - (self.channels - 1) / 2.0) * self.spacing_ghz * 1e9


@dataclass(frozen=True)
class Modulation:
    """What each WDM channel transmits: a shaped constellation, or
    complex-Gaussian symbols when ``constellation`` is None."""

    name: str
    constellation: Constellation | None = None
    pmf: Pmf | None = None

    def __post_init__(self):
        if (self.constellation is None) != (self.pmf is None):
            raise ValueError("constellation and pmf must be given together")

    @property
    def is_gaussian(self) -> bool:
        return self.constellation is None

    @property
    def kurtosis(self) -> float:
        if self.is_gaussian:
            return 0.0
        return excess_kurtosis(self.constellation, self.pmf)


def gaussian_modulation() -> Modulation:
    return Modulation("gaussian")


@dataclass(frozen=True)
class DualPolField:
    """Sampled dual-polarization field plus the symbols that made it."""

    samples: np.ndarray              # (2, n) complex, sqrt(W)
    sample_rate_hz: float
    center_wavelength_nm: float
    tx_symbols: np.ndarray           # (channels, 2, nsym), unit mean power

    def __post_init__(self):
        self.samples.setflags(write=False)
        self.tx_symbols.setflags(write=False)


@dataclass(frozen=True)
class SweepResult:
    launch_dbm_per_channel: float
    family: str
    snr_db: float
    mi_4d: float
    kurtosis: float


@dataclass(frozen=True)
class ProbeResult:
    family: str
    kurtosis: float
    snr_db: float
    nli_variance_w: float


@dataclass(frozen=True)
class CFitResult:
    """Least-squares decomposition of NLI power into format-independent
    and kurtosis-proportional parts."""

    eta1: float
    eta2: float
    c: float
    r_squared: float
    probes: tuple[ProbeResult, ...] = field(default_factory=tuple)


def rrc_spectrum(freq_hz: np.ndarray, baud_hz: float, rolloff: float) -> np.ndarray:
    """Root-raised-cosine amplitude response with unit passband gain."""
    af = np.abs(freq_hz)
    f1 = (1.0 - rolloff) * baud_hz / 2.0
    f2 = (1.0 + rolloff) * baud_hz / 2.0
    h = np.zeros_like(af)
    h[af <= f1] = 1.0
    ramp = (af > f1) & (af < f2)
    h[ramp] = 0.5 * (1.0 + np.cos(np.pi / (rolloff * baud_hz) * (af[ramp] - f1)))
    return np.sqrt(h)


def _draw_symbols(modulation: Modulation, count: int, rng: np.random.Generator) -> np.ndarray:
    if modulation.is_gaussian:
        return (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / np.sqrt(2.0)
    pmf = modulation.pmf
    points = modulation.constellation.points
    scale = 1.0 / np.sqrt(float(pmf.probs @ modulation.constellation.sq_magnitudes))
    idx = rng.choice(points.size, size=count, p=pmf.probs)
    return points[idx] * scale


def generate_wdm(
    config: LinkConfig,
    modulation: Modulation,
    launch_dbm: float,
    seed: int,
) -> DualPolField:
    """Assemble the dual-polarization WDM field at the fiber input.

    Every channel and polarization carries independent symbols from the
    same modulation. Pulse shaping is cyclic, so the waveform is exactly
    periodic and the matched filter is exactly Nyquist on the grid. Each
    channel is normalized so its measured dual-pol power equals
    ``launch_dbm`` before being shifted to its comb slot.
    """
    rng = np.random.default_rng(seed)
    nsym = config.symbols_per_channel
    sps = config.samples_per_symbol
    n = nsym * sps
    fs = config.sample_rate_hz
    freq = np.fft.fftfreq(n, 1.0 / fs)
    shaping = rrc_spectrum(freq, config.baud_ghz * 1e9, config.rrc_rolloff)
    p_target = 1e-3 * 10.0 ** (launch_dbm / 10.0)
    t = np.arange(n) / fs

    total = np.zeros((2, n), dtype=np.complex128)
    tx_symbols = np.zeros((config.channels, 2, nsym), dtype=np.complex128)
    for ch in range(config.channels):
        wave = np.empty((2, n), dtype=np.complex128)
        for pol in range(2):
            symbols = _draw_symbols(modulation, nsym, rng)
            tx_symbols[ch, pol] = symbols
            upsampled = np.zeros(n, dtype=np.complex128)
            upsampled[::sps] = symbols
            wave[pol] = np.fft.ifft(np.fft.fft(upsampled) * shaping)
        measured = float(np.mean(np.abs(wave) ** 2)) * 2.0
        wave *= np.sqrt(p_target / measured)
        total += wave * np.exp(2j * np.pi * config.channel_offset_hz(ch) * t)

    return DualPolField(total, fs, config.center_wavelength_nm, tx_symbols)


def propagate(field: DualPolField, config: LinkConfig) -> DualPolField:
    """Symmetrized split-step integration of the Manakov equation.

    Linear half-steps carry attenuation and dispersion in the frequency
    domain; the nonlinear step applies the polarization-averaged Kerr
    phase (8/9 factor) from the instantaneous local power. Deterministic.
    """
    if not math.isclose(field.sample_rate_hz, config.sample_rate_hz, rel_tol=1e-12):
        raise ValueError(
            f"field sample rate {field.sample_rate_hz} does not match the "
            f"configuration ({config.sample_rate_hz})"
        )
    if not np.all(np.isfinite(field.samples)):
        raise FloatingPointError(
            "field contains non-finite samples; increase steps or lower power"
        )
    n = field.samples.shape[1]
    omega = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / field.sample_rate_hz)
    span_m = config.span_km * 1e3
    dz = span_m / config.steps
    alpha = config.alpha_db_per_km * LN10 / 10.0 / 1e3        # 1/m, power
    beta2 = config.beta2_s2_per_m
    gamma89 = config.gamma_per_w_km * 1e-3 * (8.0 / 9.0)       # 1/W/m

    half = np.exp((-alpha / 2.0 - 0.5j * beta2 * omega**2) * (dz / 2.0))
    full = half * half
    e = np.fft.ifft(np.fft.fft(field.samples, axis=1) * half, axis=1)
    for step in range(config.steps):
        power = np.abs(e[0]) ** 2 + np.abs(e[1]) ** 2
        e *= np.exp(-1j * gamma89 * power * dz)
        op = half if step == config.steps - 1 else full
        e = np.fft.ifft(np.fft.fft(e, axis=1) * op, axis=1)
    if not np.all(np.isfinite(e)):
        raise FloatingPointError(
            "field became non-finite during propagation; increase steps"
        )
    return replace(field, samples=e)


def ase_psd_w_per_hz(gain_db: float, nf_db: float, wavelength_nm: float) -> float:
    """One-sided ASE power spectral density per polarization."""
    gain = 10.0 ** (gain_db / 10.0)
    nf = 10.0 ** (nf_db / 10.0)
    nu = LIGHT_SPEED / (wavelength_nm * 1e-9)
    return (PLANCK * nu / 2.0) * (gain * nf - 1.0)


def amplify(field: DualPolField, gain_db: float, nf_db: float, seed: int) -> DualPolField:
    """Flat-gain amplifier with white circular ASE per polarization."""
    if gain_db <= 0.0:
        raise ValueError(f"gain_db must be positive, got {gain_db}")
    rng = np.random.default_rng(seed)
    psd = ase_psd_w_per_hz(gain_db, nf_db, field.center_wavelength_nm)
    var = psd * field.sample_rate_hz
    noise = np.sqrt(var / 2.0) * (
        rng.standard_normal(field.samples.shape)
        + 1j * rng.standard_normal(field.samples.shape)
    )
    out = field.samples * 10.0 ** (gain_db / 20.0) + noise
    return replace(field, samples=out)


def receive(field: DualPolField, config: LinkConfig, channel_index: int) -> np.ndarray:
    """Recover one channel's symbols: ideal CD compensation on the full
    band, downconversion, matched filtering, symbol-rate decimation, and
    per-polarization data-aided complex scaling (which absorbs any
    constant phase). Returns a (2, nsym) array aligned with
    ``field.tx_symbols[channel_index]``."""
    n = field.samples.shape[1]
    fs = field.sample_rate_hz
    omega = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / fs)
    span_m = config.span_km * 1e3

    spectrum = np.fft.fft(field.samples, axis=1)
    spectrum *= np.exp(+0.5j * config.beta2_s2_per_m * omega**2 * span_m)
    e = np.fft.ifft(spectrum, axis=1)

    t = np.arange(n) / fs
    e = e * np.exp(-2j * np.pi * config.channel_offset_hz(channel_index) * t)

    freq = np.fft.fftfreq(n, 1.0 / fs)
    matched = rrc_spectrum(freq, config.baud_ghz * 1e9, config.rrc_rolloff)
    e = np.fft.ifft(np.fft.fft(e, axis=1) * matched, axis=1)
    symbols = e[:, :: config.samples_per_symbol]

    reference = field.tx_symbols[channel_index]
    out = np.empty_like(symbols)
    for pol in range(2):
        # Least-squares complex gain of y = h x + n against the known
        # sequence; dividing by h leaves the additive noise unbiased.
        h = np.vdot(reference[pol], symbols[pol]) / np.vdot(reference[pol], reference[pol])
        out[pol] = symbols[pol] / h
    return out


def estimate_snr(rx_symbols: np.ndarray, tx_symbols: np.ndarray) -> float:
    """SNR in dB after per-polarization MMSE scaling, pooled over both
    polarizations, capped at ``SNR_CAP_DB``."""
    rx = np.atleast_2d(np.asarray(rx_symbols))
    tx = np.atleast_2d(np.asarray(tx_symbols))
    if rx.shape != tx.shape:
        raise ValueError(f"shape mismatch: rx {rx.shape} vs tx {tx.shape}")
    if rx.size < 10_000:
        raise ValueError(f"need at least 1e4 symbols, got {rx.size}")
    signal = 0.0
    residual = 0.0
    for pol in range(rx.shape[0]):
        h = np.vdot(tx[pol], rx[pol]) / np.vdot(tx[pol], tx[pol])
        scaled = rx[pol] / h
        signal += float(np.sum(np.abs(tx[pol]) ** 2))
        residual += float(np.sum(np.abs(scaled - tx[pol]) ** 2))
    if residual <= signal * 10.0 ** (-SNR_CAP_DB / 10.0):
        return SNR_CAP_DB
    return 10.0 * math.log10(signal / residual)


def mi_from_samples(
    rx_symbols: np.ndarray,
    tx_symbols: np.ndarray,
    constellation: Constellation,
    pmf: Pmf,
) -> float:
    """Auxiliary-channel MI estimate in bits per complex symbol.

    Uses the mismatched-decoding lower bound with a circular Gaussian
    auxiliary channel whose variance is the measured residual power, so
    the estimate is achievable by a receiver that treats all distortion
    as AWGN.
    """
    rx = np.asarray(rx_symbols).ravel()
    tx = np.asarray(tx_symbols).ravel()
    if rx.shape != tx.shape:
        raise ValueError(f"shape mismatch: rx {rx.shape} vs tx {tx.shape}")
    if rx.size < 10_000:
        raise ValueError(f"need at least 1e4 symbols, got {rx.size}")
    power = float(pmf.probs @ constellation.sq_magnitudes)
    if abs(power - 1.0) > 1e-6:
        raise ValueError("constellation must be normalized to unit power")

    x = constellation.points
    sigma2 = float(np.mean(np.abs(rx - tx) ** 2))
    h_bits = entropy(pmf)
    if sigma2 == 0.0:
        return h_bits

    logp = np.where(pmf.probs > 0.0, np.log(np.maximum(pmf.probs, 1e-320)), -np.inf)
    xq = np.vstack([x.real, x.imag])
    x2 = np.abs(x) ** 2
    total = 0.0
    chunk = 1 << 15
    for lo in range(0, rx.size, chunk):
        y = rx[lo : lo + chunk]
        xt = tx[lo : lo + chunk]
        idx = np.argmin(np.abs(xt[:, None] - x[None, :]), axis=1)
        yq = np.empty((y.size, 2))
        yq[:, 0], yq[:, 1] = y.real, y.imag
        a = logp[None, :] + (2.0 * (yq @ xq) - x2[None, :]) / sigma2
        a_max = a.max(axis=1)
        a_true = a[np.arange(y.size), idx]
        np.subtract(a, a_max[:, None], out=a)
        np.maximum(a, -700.0, out=a)
        lse = a_max + np.log(np.exp(a).sum(axis=1))
        total += float((lse - a_true).sum())
    mi = h_bits - total / rx.size / LN2
    return float(np.clip(mi, 0.0, h_bits))


def analytic_ase_snr_db(config: LinkConfig, launch_dbm: float) -> float:
    """Per-channel SNR if ASE were the only impairment: half the dual-pol
    launch power against the per-polarization ASE in the symbol band."""
    psd = ase_psd_w_per_hz(config.span_loss_db, config.edfa_nf_db,
                           config.center_wavelength_nm)
    p_pol = 1e-3 * 10.0 ** (launch_dbm / 10.0) / 2.0
    return 10.0 * math.log10(p_pol / (psd * config.baud_ghz * 1e9))


def _run_seed(master_seed: int, *indices: int) -> tuple[int, int]:
    """Independent (transmit, amplifier) seeds for one pipeline run."""
    ss = np.random.SeedSequence((master_seed, *indices))
    tx_ss, amp_ss = ss.spawn(2)
    return (
        int(tx_ss.generate_state(1, dtype=np.uint32)[0]),
        int(amp_ss.generate_state(1, dtype=np.uint32)[0]),
    )


def transmission_run(
    config: LinkConfig,
    modulation: Modulation,
    launch_dbm: float,
    tx_seed: int,
    amp_seed: int,
    *,
    noiseless: bool = False,
    gamma_override: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One full transmit-propagate-amplify-receive pipeline on the center
    channel. Returns (rx symbols, tx symbols), each (2, nsym)."""
    run_config = config
    if gamma_override is not None:
        run_config = replace(config, gamma_per_w_km=gamma_override)
    field = generate_wdm(run_config, modulation, launch_dbm, tx_seed)
    field = propagate(field, run_config)
    if noiseless:
        field = replace(field, samples=field.samples * 10.0 ** (config.span_loss_db / 20.0))
    else:
        field = amplify(field, config.span_loss_db, config.edfa_nf_db, amp_seed)
    center = config.channels // 2
    rx = receive(field, run_config, center)
    return rx, field.tx_symbols[center]


def power_sweep(
    config: LinkConfig,
    modulations,
    power_grid_dbm,
) -> list[SweepResult]:
    """Full pipeline per (launch power, modulation) on the center channel.

    Seeds for each run derive from ``config.seed`` hashed with the grid
    and modulation indices, so distinct points are independent and the
    whole sweep is reproducible. Gaussian-modulated runs report the
    Gaussian-input MI 2 log2(1 + SNR).
    """
    powers = [float(p) for p in power_grid_dbm]
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise ValueError("power grid must be strictly ascending")
    results = []
    for p_idx, launch_dbm in enumerate(powers):
        for m_idx, modulation in enumerate(modulations):
            tx_seed, amp_seed = _run_seed(config.seed, p_idx, m_idx)
            rx, tx = transmission_run(config, modulation, launch_dbm, tx_seed, amp_seed)
            snr_db = estimate_snr(rx, tx)
            if modulation.is_gaussian:
                mi_4d = 2.0 * math.log2(1.0 + 10.0 ** (snr_db / 10.0))
            else:
                unit = normalized(modulation.constellation, modulation.pmf)
                mi_4d = 2.0 * mi_from_samples(rx, tx, unit, modulation.pmf)
            results.append(
                SweepResult(launch_dbm, modulation.name, snr_db, mi_4d,
                            modulation.kurtosis)
            )
    return results


def linear_crosstalk_fraction(config: LinkConfig, seed: int) -> float:
    """Residual noise-to-signal ratio of the linear noiseless link.

    With overlapping root-raised-cosine spectra the neighbors leak a
    deterministic, power-proportional residue into the matched filter;
    this calibrates it so NLI extraction can subtract the full linear
    baseline, not just ASE.
    """
    tx_seed, _ = _run_seed(seed, 0xBA5E)
    rx, tx = transmission_run(
        config, gaussian_modulation(), 0.0, tx_seed, 0,
        noiseless=True, gamma_override=0.0,
    )
    return float(np.sum(np.abs(rx - tx) ** 2) / np.sum(np.abs(tx) ** 2))


def estimate_c(
    config: LinkConfig,
    probes,
    probe_power_dbm: float,
) -> CFitResult:
    """Estimate the kurtosis sensitivity c = eta2/eta1 from simulation.

    Each probe modulation is transmitted at ``probe_power_dbm``; its NLI
    variance is the measured total noise minus the analytic ASE budget
    and the calibrated linear crosstalk baseline. A straight-line fit of
    NLI / P^3 against excess kurtosis yields (eta1, eta2).
    """
    probes = list(probes)
    if len(probes) < 3:
        raise ValueError("need at least 3 probe modulations")
    kurts = [probe.kurtosis for probe in probes]
    for i in range(len(kurts)):
        for j in range(i + 1, len(kurts)):
            if abs(kurts[i] - kurts[j]) < 0.1:
                raise ValueError(
                    "probe kurtoses must be pairwise separated by at least 0.1; "
                    f"probes {probes[i].name!r} and {probes[j].name!r} have "
                    f"{kurts[i]:.4f} and {kurts[j]:.4f}"
                )

    xtalk = linear_crosstalk_fraction(config, config.seed)
    ase_rel = 10.0 ** (-analytic_ase_snr_db(config, probe_power_dbm) / 10.0)
    p_w = 1e-3 * 10.0 ** (probe_power_dbm / 10.0)

    rows = []
    for idx, probe in enumerate(probes):
        tx_seed, amp_seed = _run_seed(config.seed, 0xC0, idx)
        rx, tx = transmission_run(config, probe, probe_power_dbm, tx_seed, amp_seed)
        snr_db = estimate_snr(rx, tx)
        total_rel = 10.0 ** (-snr_db / 10.0)
        nli_rel = total_rel - ase_rel - xtalk
        if nli_rel < MIN_NLI_FRACTION * ase_rel:
            raise ValueError(
                f"no measurable NLI for probe {probe.name!r} at "
                f"{probe_power_dbm} dBm; increase the probe power"
            )
        rows.append(ProbeResult(probe.name, probe.kurtosis, snr_db, nli_rel * p_w))

    kurt = np.array([r.kurtosis for r in rows])
    y = np.array([r.nli_variance_w for r in rows]) / p_w**3
    design = np.vstack([np.ones_like(kurt), kurt]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    eta1, eta2 = float(coef[0]), float(coef[1])
    if eta1 <= 0.0:
        raise ValueError("ill-conditioned fit: non-positive format-independent NLI")
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("ill-conditioned fit: probes show identical NLI")
    return CFitResult(eta1, eta2, eta2 / eta1, 1.0 - ss_res / ss_tot, tuple(rows))


def read_config(path) -> LinkConfig:
    """Parse a flat ``key = value`` configuration file into a LinkConfig.

    Lines starting with ``#`` (or empty) are skipped; unknown keys and
    malformed lines are reported with their line number.
    """
    known = {f.name: f.type for f in fields(LinkConfig)}
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if known[key] == "int":
                    values[key] = int(value)
                else:
                    values[key] = float(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return LinkConfig(**values)
