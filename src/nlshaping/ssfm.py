"""Split-step simulation of a single-span dual-polarization WDM link.

Transmit chain: per-channel i.i.d. symbols, root-raised-cosine shaping
on a cyclic grid, frequency comb assembly. Propagation integrates the
polarization-averaged (Manakov) equation with a symmetrized split-step
scheme; a single lumped amplifier restores the span loss and adds ASE.
The receiver applies ideal dispersion compensation, matched filtering,
and data-aided complex scaling. ``measure_nli`` reads a run's NLI with
no amplifier and no ASE, against the same field received back to back;
``estimate_c`` fits it. Each channel sits whole FFT bins from
the band center, so shaping, comb assembly and the receive filters run
on the spectrum and move channels by bin shifts. All FFTs go through
``numpy.fft`` (pocketfft), in place with ``out=`` where the input may be
overwritten; the link loads no scipy.

The linear step of the split-step is a four-step FFT of length
n = n1 * n2, n1 the largest divisor of n at most sqrt(n): FFTs over n1
of the (2, n1, n2) view, then a row pass over the whole view (twiddles,
FFTs over n2, the response, the inverse FFTs and the conjugate
twiddles), then inverse FFTs over n1. The response is kept in the order
the passes leave the spectrum in, so nothing is transposed. The Kerr
phase runs in cache-sized blocks. Every transmission run steps on one
thread. ``power_sweep`` and ``estimate_c`` spread their independent runs
over processes with ``forks.forked_map``; the output does not depend on
the process count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from .awgn_mi import LN2, MIN_MEASURED_SAMPLES, _neg_log_posterior_chunks, _require_unit_power
from .constellation import Constellation, _check_pmf_length, _int_at_least, normalized
from .forks import forked_map
from .shaping import Pmf, _inverse_cdf, entropy, excess_kurtosis

LN10 = float(np.log(10.0))

# Exact SI values (m/s and J s), equal to scipy.constants.c and .h.
LIGHT_SPEED = 299792458.0
PLANCK = 6.62607015e-34

# estimate_snr reports at most this; a zero-residual input would otherwise
# return infinity.
SNR_CAP_DB = 100.0

# Samples per block of the Kerr phase: its two block buffers take
# 192 KiB, so they stay in cache.
KERR_BLOCK = 1 << 13

# Largest distance of spacing * symbols / baud from an integer for the
# WDM comb to count as lying on the FFT grid.
COMB_GRID_TOL = 1e-9

# measure_nli refuses a reading, a difference of two residues of one run,
# below this fraction of max(its back-to-back residue, 10^(-SNR_CAP_DB/10)):
# there it is rounding or the NLI's cross term with that residue, not NLI.
# At gamma = 0 on one channel it reads +-1e-27 of the signal.
MIN_NLI_FRACTION = 0.05


@dataclass(frozen=True)
class LinkConfig:
    """Fiber, amplifier, and WDM transmission parameters.

    Physical defaults follow the single-span ultra-low-loss scenario;
    the channel count and numeric defaults (sampling, symbol count, step
    count) are the desk scale used by the validation suite.
    ``full_scale()`` switches to the heavy configuration.
    """

    span_km: float = 200.0
    alpha_db_per_km: float = 0.165
    dispersion_ps_nm_km: float = 16.3
    gamma_per_w_km: float = 1.2
    edfa_nf_db: float = 5.0
    channels: int = 3
    baud_ghz: float = 33.0
    spacing_ghz: float = 33.0
    center_wavelength_nm: float = 1550.0
    rrc_rolloff: float = 0.01
    samples_per_symbol: int = 8
    symbols_per_channel: int = 1 << 14
    steps: int = 400
    seed: int = 42

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                # The seed may be 0; every other integer field counts something.
                least = 0 if f.name == "seed" else 1
                object.__setattr__(self, f.name, _int_at_least(f.name, value, least))
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        # Below zero, a span or an attenuation makes the span loss a gain,
        # and a noise figure (a noise factor F below 1) makes the ASE density
        # negative.
        for name, bound in (("span_km", " (span loss >= 0 dB)"),
                            ("alpha_db_per_km", " (span loss >= 0 dB)"),
                            ("edfa_nf_db", " dB (noise factor F >= 1)")):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be at least 0{bound}, got {value!r}")
        if self.channels < 1 or self.channels % 2 == 0:
            raise ValueError("channels must be a positive odd count")
        # At or below zero, a baud leaves no band, a wavelength makes the ASE
        # density negative, and a spacing stacks or reverses the comb.
        positive = ("baud_ghz", "center_wavelength_nm", "spacing_ghz")
        for name in positive if self.channels > 1 else positive[:2]:
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
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
        # Channel offsets are multiples of the spacing; each must be a
        # whole number of FFT bins for the waveform to be periodic on the
        # grid.
        bins = self._spacing_bins()
        if self.channels > 1 and abs(bins - round(bins)) > COMB_GRID_TOL:
            step = self.baud_ghz / self.symbols_per_channel
            raise ValueError(
                f"spacing_ghz = {self.spacing_ghz} puts the WDM comb off the FFT "
                f"grid: spacing * symbols_per_channel / baud_ghz = {bins:.6f} is "
                f"not an integer; nearest valid spacings are "
                f"{math.floor(bins) * step:.9g} and {math.ceil(bins) * step:.9g} GHz"
            )

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

    @property
    def edge_dispersive_phase_rad(self) -> float:
        """Dispersive phase per split-step at the edge of the WDM comb,
        |beta2| * omega_edge^2 * dz / 2 with omega_edge = 2 pi * channels *
        spacing / 2. The step error of the split-step jumps once it
        passes about 0.8-1 rad."""
        omega_edge = 2.0 * math.pi * self.channels * self.spacing_ghz * 1e9 / 2.0
        dz = self.span_km * 1e3 / self.steps
        return abs(self.beta2_s2_per_m) * omega_edge**2 * dz / 2.0

    def _spacing_bins(self) -> float:
        """The channel spacing in FFT bins, baud / symbols_per_channel wide."""
        return self.spacing_ghz * self.symbols_per_channel / self.baud_ghz

    def channel_bins(self, channel_index: int) -> int:
        """Whole FFT bins from the band center to the center of channel
        ``channel_index``; the channels count up from the lowest
        frequency."""
        if not 0 <= channel_index < self.channels:
            raise ValueError(f"channel index {channel_index} out of range")
        return (channel_index - self.channels // 2) * round(self._spacing_bins())


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
        if self.pmf is not None:
            _check_pmf_length(self.constellation, self.pmf.probs)

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


@dataclass(frozen=True, eq=False)
class DualPolField:
    """Sampled dual-polarization field plus the symbols that made it."""

    samples: np.ndarray              # (2, n) complex, sqrt(W)
    sample_rate_hz: float
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
    r_squared: float
    probes: tuple[ProbeResult, ...] = field(default_factory=tuple)

    @property
    def c(self) -> float:
        return self.eta2 / self.eta1


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


def _four_step(n: int) -> np.ndarray:
    """Twiddles of the four-step FFT of length n = n1 * n2, n1 the largest
    divisor of n at most sqrt(n): a (2, n1, n2) array holding w[k1, j2] =
    exp(-2 pi i k1 j2 / n) and its conjugate. For a prime n, n1 = 1 and
    every twiddle is 1: the transform is the direct FFT."""
    n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    n2 = n // n1
    # k1 j2 mod n is exact in integers, so every angle is within 2 pi.
    angle = np.outer(np.arange(n1), np.arange(n2)) % n * (-2.0 * math.pi / n)
    twiddles = np.empty((2, n1, n2), dtype=np.complex128)
    np.cos(angle, out=twiddles[0].real)
    np.sin(angle, out=twiddles[0].imag)
    np.conjugate(twiddles[0], out=twiddles[1])
    return twiddles


def _pass_order(values: np.ndarray, n1: int) -> np.ndarray:
    """The per-bin ``values`` of an n-point spectrum in the order that the
    four-step passes leave it in: bin k1 + n1 k2 at [k1, k2], an (n1, n2)
    array."""
    return np.ascontiguousarray(values.reshape(-1, n1).T)


def _spectral_filter(x: np.ndarray, response: np.ndarray, twiddles: np.ndarray) -> np.ndarray:
    """ifft(fft(x) * response) along the last axis of the (2, n) field
    ``x``, computed in its buffer, which is overwritten and returned. The
    transform is the four-step FFT of ``twiddles = _four_step(n)``: viewed
    as (2, n1, n2), FFTs over n1, then the row pass (twiddles, FFTs over
    n2, ``response``, given in ``_pass_order``, and the inverse of both),
    then inverse FFTs over n1. ``numpy.fft`` with ``out=`` set to its
    input transforms the strided view in place, without a copy."""
    forward, inverse = twiddles
    y = x.reshape(2, *response.shape)
    fft(y, axis=1, out=y)
    y *= forward
    fft(y, axis=2, out=y)
    y *= response
    ifft(y, axis=2, out=y)
    y *= inverse
    ifft(y, axis=1, out=y)
    return x


def _require_finite(**values: float) -> None:
    """Raise a ValueError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_sample_rate(field: DualPolField, config: LinkConfig) -> None:
    """Raise a ValueError unless the field was sampled at ``config``'s rate."""
    if not math.isclose(field.sample_rate_hz, config.sample_rate_hz, rel_tol=1e-12):
        raise ValueError(
            f"field sample rate {field.sample_rate_hz} does not match the "
            f"configuration ({config.sample_rate_hz})"
        )


def _draw_symbols(points, inverse_cdf, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` unit-power symbols: complex Gaussian when ``points`` is
    None, else ``points`` at the indices ``inverse_cdf`` (from
    ``shaping._inverse_cdf``) maps one uniform draw to."""
    if points is None:
        return (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / np.sqrt(2.0)
    return points[inverse_cdf(rng.random(count))]


def generate_wdm(
    config: LinkConfig,
    modulation: Modulation,
    launch_dbm: float,
    seed: int,
) -> DualPolField:
    """Assemble the dual-polarization WDM field at the fiber input.

    Every channel and polarization carries independent symbols from the
    same modulation. A channel's spectrum is the FFT of its symbols, tiled
    ``samples_per_symbol`` times (the zero-stuffed sequence), times the
    RRC response; scaled by Parseval to a dual-pol power of ``launch_dbm``,
    it is added into the field spectrum at the channel's bin offset. One
    inverse FFT gives the field. Pulse shaping is cyclic, so the waveform
    is exactly periodic and the matched filter is exactly Nyquist on the
    grid.
    """
    _int_at_least("seed", seed, 0)
    _require_finite(launch_dbm=launch_dbm)
    rng = np.random.default_rng(seed)
    nsym = config.symbols_per_channel
    sps = config.samples_per_symbol
    n = nsym * sps
    fs = config.sample_rate_hz
    shaping = rrc_spectrum(fftfreq(n, 1.0 / fs), config.baud_ghz * 1e9, config.rrc_rolloff)
    p_target = 1e-3 * 10.0 ** (launch_dbm / 10.0)

    points = inverse_cdf = None
    if not modulation.is_gaussian:
        points = normalized(modulation.constellation, modulation.pmf).points
        inverse_cdf = _inverse_cdf(modulation.pmf)

    spectrum = np.zeros((2, n), dtype=np.complex128)
    tx_symbols = np.zeros((config.channels, 2, nsym), dtype=np.complex128)
    # One buffer holds each channel's shaped spectrum in turn.
    shaped = np.empty((2, n), dtype=np.complex128)
    for ch in range(config.channels):
        for pol in range(2):
            tx_symbols[ch, pol] = _draw_symbols(points, inverse_cdf, nsym, rng)
        tiles = fft(tx_symbols[ch], axis=-1)[:, None, :]
        np.multiply(tiles, shaping.reshape(sps, nsym), out=shaped.reshape(2, sps, nsym))
        # Parseval: the dual-pol power of the waveform is sum |X|^2 / n^2.
        # einsum sums without BLAS, whose bits depend on its thread count.
        parts = shaped.view(np.float64)
        shaped *= math.sqrt(p_target * n * n / np.einsum("ij,ij->", parts, parts))
        k = config.channel_bins(ch) % n
        spectrum[:, k:] += shaped[:, : n - k]
        spectrum[:, :k] += shaped[:, n - k :]

    samples = ifft(spectrum, axis=-1, out=spectrum)
    return DualPolField(samples, fs, tx_symbols)


def _kerr_phase(e, scale, power, kerr):
    """Multiply the (2, n) field ``e`` in place by exp(i scale (|e_0|^2 +
    |e_1|^2)), one block of at most KERR_BLOCK samples at a time, in the
    block buffers ``power`` (float) and ``kerr`` (complex), whose bytes
    also hold the block's two magnitude rows. Each sample meets the same
    ufuncs in the same order as in a whole-field pass, so the result does
    not depend on the blocking."""
    n = e.shape[1]
    for start in range(0, n, KERR_BLOCK):
        block = e[:, start:min(start + KERR_BLOCK, n)]
        width = block.shape[1]
        p, k = power[:width], kerr[:width]
        magnitude = k.view(np.float64).reshape(2, width)
        np.abs(block, out=magnitude)
        np.square(magnitude, out=magnitude)
        np.add(magnitude[0], magnitude[1], out=p)
        p *= scale
        np.cos(p, out=k.real)
        np.sin(p, out=k.imag)
        block *= k


def propagate(field: DualPolField, config: LinkConfig) -> DualPolField:
    """Symmetrized split-step integration of the Manakov equation.

    Linear half-steps carry attenuation and dispersion in the frequency
    domain; the nonlinear step applies the polarization-averaged Kerr
    phase (8/9 factor) from the instantaneous local power. Runs on the
    calling thread. Deterministic, and bit-identical to a whole-field
    loop: the Kerr phase goes block by block through the field.
    """
    _require_sample_rate(field, config)
    if not np.all(np.isfinite(field.samples)):
        raise FloatingPointError(
            "field contains non-finite samples; increase steps or lower power"
        )
    n = field.samples.shape[1]
    twiddles = _four_step(n)
    omega = 2.0 * np.pi * _pass_order(fftfreq(n, 1.0 / field.sample_rate_hz),
                                      twiddles.shape[1])
    span_m = config.span_km * 1e3
    dz = span_m / config.steps
    alpha = config.alpha_db_per_km * LN10 / 10.0 / 1e3        # 1/m, power
    beta2 = config.beta2_s2_per_m
    gamma89 = config.gamma_per_w_km * 1e-3 * (8.0 / 9.0)       # 1/W/m

    half = np.exp((-alpha / 2.0 - 0.5j * beta2 * omega**2) * (dz / 2.0))
    full = half * half
    # The loop runs in these buffers and allocates nothing per step: the
    # FFTs overwrite e, and the Kerr phase is built block by block in one
    # pair of block buffers.
    e = np.array(field.samples, dtype=np.complex128)
    power = np.empty(KERR_BLOCK)
    kerr = np.empty(KERR_BLOCK, dtype=np.complex128)
    scale = -gamma89 * dz
    e = _spectral_filter(e, half, twiddles)
    for step in range(config.steps):
        _kerr_phase(e, scale, power, kerr)
        e = _spectral_filter(e, half if step == config.steps - 1 else full, twiddles)
    if not np.all(np.isfinite(e)):
        raise FloatingPointError(
            "field became non-finite during propagation; increase steps"
        )
    return replace(field, samples=e)


def ase_psd_w_per_hz(config: LinkConfig) -> float:
    """One-sided ASE power spectral density per polarization of the amplifier
    restoring ``config``'s span loss: never negative, as LinkConfig keeps G F >= 1."""
    gain = 10.0 ** (config.span_loss_db / 10.0)
    nf = 10.0 ** (config.edfa_nf_db / 10.0)
    nu = LIGHT_SPEED / (config.center_wavelength_nm * 1e-9)
    return (PLANCK * nu / 2.0) * (gain * nf - 1.0)


def amplify(field: DualPolField, config: LinkConfig, seed: int) -> DualPolField:
    """Flat-gain amplifier that restores ``config``'s span loss, with
    white circular ASE per polarization."""
    _int_at_least("seed", seed, 0)
    _require_sample_rate(field, config)
    rng = np.random.default_rng(seed)
    var = ase_psd_w_per_hz(config) * field.sample_rate_hz
    scale = np.sqrt(var / 2.0)
    out = field.samples * 10.0 ** (config.span_loss_db / 20.0)
    # The real parts of the noise are drawn first, then the imaginary
    # parts, through one float buffer.
    noise = rng.standard_normal(out.shape)
    noise *= scale
    out.real += noise
    rng.standard_normal(out=noise)
    noise *= scale
    out.imag += noise
    return replace(field, samples=out)


def receive(field: DualPolField, config: LinkConfig, channel_index: int) -> np.ndarray:
    """Recover one channel's symbols: ideal CD compensation on the full
    band and the matched filter moved up to the channel, as one response
    on the field's FFT; symbol-rate decimation, which folds the spectrum
    onto nsym bins, where a roll shifts the channel to baseband; one
    nsym-point inverse FFT; and per-polarization data-aided complex
    scaling (which absorbs any constant phase). Returns a (2, nsym) array
    aligned with ``field.tx_symbols[channel_index]``."""
    _require_sample_rate(field, config)
    k = config.channel_bins(channel_index)
    sps = config.samples_per_symbol
    freq = fftfreq(field.samples.shape[1], 1.0 / field.sample_rate_hz)

    response = np.multiply(+0.5j * config.beta2_s2_per_m * config.span_km * 1e3,
                           (2.0 * np.pi * freq) ** 2)
    np.exp(response, out=response)
    response *= np.roll(rrc_spectrum(freq, config.baud_ghz * 1e9, config.rrc_rolloff), k)
    e = fft(field.samples, axis=-1)
    e *= response
    folded = np.roll(e.reshape(2, sps, -1).sum(axis=1), -k, axis=-1)
    folded /= sps
    symbols = ifft(folded, axis=-1, out=folded)
    return _gain_removed(symbols, field.tx_symbols[channel_index])


def _gain_removed(rx: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """Each row of ``rx`` over its least-squares complex gain h in rx = h tx
    + n, against the known row of ``tx``: the noise is left unbiased. The
    sums are einsum's, not BLAS's, whose bits depend on its thread count.
    A ValueError names a row whose gain is 0/0 or 0: a ``tx`` row with no
    power, or an ``rx`` row with none along its ``tx`` row."""
    sums = [(np.einsum("i,i->", x.conj(), y), np.einsum("i,i->", x.conj(), x))
            for y, x in zip(rx, tx)]
    for row, (cross, power) in enumerate(sums):
        if power == 0.0:
            raise ValueError(f"tx_symbols row {row} has no power")
        if cross == 0.0:
            raise ValueError(f"rx_symbols row {row} has no power along its sent row")
    return np.array([y / (cross / power) for y, (cross, power) in zip(rx, sums)])


def _require_symbol_pair(rx: np.ndarray, tx: np.ndarray) -> None:
    """Raise a ValueError unless received ``rx`` and sent ``tx`` have one
    shape, at least ``MIN_MEASURED_SAMPLES`` samples, and no NaN or
    infinite sample: one would make the estimate NaN."""
    if rx.shape != tx.shape:
        raise ValueError(f"shape mismatch: rx {rx.shape} vs tx {tx.shape}")
    if rx.size < MIN_MEASURED_SAMPLES:
        raise ValueError(f"need at least 1e4 symbols, got {rx.size}")
    for name, values in (("rx_symbols", rx), ("tx_symbols", tx)):
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            raise ValueError(f"{name} must be finite: {bad} of {values.size} samples are not")


def estimate_snr(rx_symbols: np.ndarray, tx_symbols: np.ndarray) -> float:
    """SNR in dB after per-polarization MMSE scaling, pooled over both
    polarizations, capped at ``SNR_CAP_DB``."""
    rx = np.atleast_2d(np.asarray(rx_symbols))
    tx = np.atleast_2d(np.asarray(tx_symbols))
    _require_symbol_pair(rx, tx)
    signal = 0.0
    residual = 0.0
    for scaled, x in zip(_gain_removed(rx, tx), tx):
        signal += float(np.sum(np.abs(x) ** 2))
        residual += float(np.sum(np.abs(scaled - x) ** 2))
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
    as AWGN. Each sent sample must be a point of ``constellation``, to
    within 1e-9 of its scale.
    """
    rx = np.asarray(rx_symbols).ravel()
    tx = np.asarray(tx_symbols).ravel()
    _require_symbol_pair(rx, tx)
    _require_unit_power(constellation, pmf)
    i, q = constellation.level_indices(tx)
    nearest = constellation.points[i * constellation.side + q]
    off = np.count_nonzero(np.abs(tx - nearest) > 1e-9 * constellation.scale)
    if off:
        raise ValueError(f"tx_symbols must be constellation points: {off} of {tx.size} "
                         "samples lie off the grid")

    sigma2 = float(np.mean(np.abs(rx - tx) ** 2))
    h_bits = entropy(pmf)
    if sigma2 == 0.0:
        return h_bits

    grid = pmf.probs.reshape(constellation.side, constellation.side)
    total = 0.0
    for nats in _neg_log_posterior_chunks(rx.size, lambda part: (rx[part], i[part], q[part]),
                                          constellation.levels, grid, sigma2):
        total += float(nats.sum())
    mi = h_bits - total / rx.size / LN2
    return float(np.clip(mi, 0.0, h_bits))


def _run_seed(master_seed: int, *indices: int) -> tuple[int, int]:
    """Independent (transmit, amplifier) seeds for one pipeline run."""
    spawned = np.random.SeedSequence((master_seed, *indices)).spawn(2)
    return tuple(int(ss.generate_state(1, dtype=np.uint32)[0]) for ss in spawned)


def _require_measurable(config: LinkConfig) -> None:
    """Fail before any propagation if a run on ``config`` cannot be
    measured: the received symbols of both polarizations must reach
    MIN_MEASURED_SAMPLES."""
    if 2 * config.symbols_per_channel < MIN_MEASURED_SAMPLES:
        raise ValueError(
            f"symbols_per_channel = {config.symbols_per_channel} is too few to "
            f"measure: need {MIN_MEASURED_SAMPLES // 2}, {MIN_MEASURED_SAMPLES} samples "
            "over the two polarizations"
        )


def transmission_run(
    config: LinkConfig,
    modulation: Modulation,
    launch_dbm: float,
    tx_seed: int,
    amp_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Transmit, propagate, amplify by the span loss, and receive the
    center channel. Returns (rx symbols, tx symbols), each (2, nsym)."""
    _int_at_least("tx_seed", tx_seed, 0)
    _int_at_least("amp_seed", amp_seed, 0)
    field = generate_wdm(config, modulation, launch_dbm, tx_seed)
    field = propagate(field, config)
    field = amplify(field, config, amp_seed)
    center = config.channels // 2
    return receive(field, config, center), field.tx_symbols[center]


def power_sweep(
    config: LinkConfig,
    modulations,
    power_grid_dbm,
) -> list[SweepResult]:
    """Full pipeline per (launch power, modulation) on the center channel.

    Seeds for each run derive from ``config.seed`` with the launch power
    (in whole milli-dBm) and the modulation's name, so a point draws the
    same symbols and noise whatever else the sweep holds: sweeps can be
    split, extended or resumed point by point. Gaussian-modulated runs
    report the Gaussian-input MI 2 log2(1 + SNR). Each run steps on one
    thread, and the runs are spread over processes by ``forks.forked_map``,
    whose result and failures are the serial loop's (see ``forks``).
    """
    powers = [float(p) for p in power_grid_dbm]
    modulations = list(modulations)
    for name, values in (("power_grid_dbm", powers), ("modulations", modulations)):
        if not values:
            raise ValueError(f"{name} must be non-empty")
    if not all(map(math.isfinite, powers)):
        raise ValueError(f"power_grid_dbm must be finite, got {powers}")
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise ValueError("power grid must be strictly ascending")
    names = [m.name for m in modulations]
    if len(set(names)) != len(names):
        raise ValueError(f"modulation names must be distinct, got {names}")
    _require_measurable(config)
    millis = [round(p * 1000.0) for p in powers]
    for i in range(1, len(powers)):
        if millis[i] == millis[i - 1]:
            raise ValueError(
                f"launch powers {powers[i - 1]} and {powers[i]} dBm round to the "
                "same milli-dBm seed key; space the grid by at least 0.001 dB"
            )
    runs = [(launch_dbm, milli, modulation)
            for launch_dbm, milli in zip(powers, millis) for modulation in modulations]

    def run(i: int) -> SweepResult:
        launch_dbm, milli, modulation = runs[i]
        # SeedSequence takes non-negative words: the power as a 32-bit
        # two's complement, the name as its UTF-8 bytes after their count.
        name = modulation.name.encode("utf-8")
        tx_seed, amp_seed = _run_seed(config.seed, milli % (1 << 32), len(name), *name)
        rx, tx = transmission_run(config, modulation, launch_dbm, tx_seed, amp_seed)
        snr_db = estimate_snr(rx, tx)
        if modulation.is_gaussian:
            mi_4d = 2.0 * math.log2(1.0 + 10.0 ** (snr_db / 10.0))
        else:
            unit = normalized(modulation.constellation, modulation.pmf)
            mi_4d = 2.0 * mi_from_samples(rx, tx, unit, modulation.pmf)
        return SweepResult(launch_dbm, modulation.name, snr_db, mi_4d, modulation.kurtosis)

    return forked_map(run, len(runs))


def measure_nli(
    config: LinkConfig,
    modulation: Modulation,
    launch_dbm: float,
    tx_seed: int,
) -> ProbeResult:
    """Read one run's NLI on the center channel, with no amplifier and no ASE.

    The field is received back to back, with no dispersion to compensate,
    and after the split-step. Without the Kerr term the span is one linear
    filter, which the ideal dispersion compensation and the receiver's
    least-squares gain undo exactly, so the back-to-back residue is the
    run's own linear crosstalk. The NLI variance is the split-step
    residue's excess over it, (sum |rx - tx|^2 - sum |rx_b2b - tx|^2) /
    sum |tx|^2 times the launch power; ``snr_db`` is the split-step
    reception's SNR.
    """
    _int_at_least("tx_seed", tx_seed, 0)
    field = generate_wdm(config, modulation, launch_dbm, tx_seed)
    center = config.channels // 2
    tx = field.tx_symbols[center]
    back_to_back = receive(field, replace(config, dispersion_ps_nm_km=0.0), center)
    rx = receive(propagate(field, config), config, center)
    signal = float(np.sum(np.abs(tx) ** 2))
    linear_rel = float(np.sum(np.abs(back_to_back - tx) ** 2)) / signal
    nli_rel = float(np.sum(np.abs(rx - tx) ** 2)) / signal - linear_rel
    if nli_rel < MIN_NLI_FRACTION * max(linear_rel, 10.0 ** (-SNR_CAP_DB / 10.0)):
        raise ValueError(
            f"no measurable NLI for probe {modulation.name!r} at "
            f"{launch_dbm} dBm; increase the probe power"
        )
    p_w = 1e-3 * 10.0 ** (launch_dbm / 10.0)
    return ProbeResult(modulation.name, modulation.kurtosis, estimate_snr(rx, tx), nli_rel * p_w)


def estimate_c(
    config: LinkConfig,
    probes,
    probe_power_dbm: float,
) -> CFitResult:
    """Estimate the kurtosis sensitivity c = eta2/eta1 from simulation.

    Each probe modulation is transmitted at ``probe_power_dbm``, and
    ``measure_nli`` reads its NLI variance against its own back-to-back
    reception, free of ASE. A straight-line fit of NLI / P^3 against
    excess kurtosis yields (eta1, eta2). The probe runs are spread over
    processes by ``forks.forked_map`` (see ``forks``).
    """
    _require_finite(probe_power_dbm=probe_power_dbm)
    probes = list(probes)
    if len(probes) < 3:
        raise ValueError("need at least 3 probe modulations")
    names = [probe.name for probe in probes]
    if len(set(names)) != len(names):
        raise ValueError(f"probe names must be distinct, got {names}")
    kurts = [probe.kurtosis for probe in probes]
    for i in range(len(kurts)):
        for j in range(i + 1, len(kurts)):
            if abs(kurts[i] - kurts[j]) < 0.1:
                raise ValueError(
                    "probe kurtoses must be pairwise separated by at least 0.1; "
                    f"probes {probes[i].name!r} and {probes[j].name!r} have "
                    f"{kurts[i]:.4f} and {kurts[j]:.4f}"
                )

    _require_measurable(config)

    def run(i: int) -> ProbeResult:
        tx_seed = _run_seed(config.seed, 0xC0, i)[0]
        return measure_nli(config, probes[i], probe_power_dbm, tx_seed)

    rows = forked_map(run, len(probes))
    p_w = 1e-3 * 10.0 ** (probe_power_dbm / 10.0)
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
    return CFitResult(eta1, eta2, 1.0 - ss_res / ss_tot, tuple(rows))


def read_config(path) -> LinkConfig:
    """Parse a flat ``key = value`` configuration file into a LinkConfig.

    Lines starting with ``#`` (or empty) are skipped; unknown or repeated
    keys and malformed lines are reported with their line number.
    """
    known = {f.name: f.type for f in fields(LinkConfig)}
    values, first_line = {}, {}
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
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                                 f"(first set on line {first_line[key]})")
            first_line[key] = lineno
            try:
                if known[key] == "int":
                    values[key] = int(value)
                else:
                    values[key] = float(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return LinkConfig(**values)
