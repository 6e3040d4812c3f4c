"""Analog front end of the sensor node, from structure motion to ADC codes.

The simulated chain is:

    base excitation -> structural modes -> MEMS accelerometer -> 12-bit ADC

Structural response is modeled as white noise driving one second-order
resonator per mode (outputs summed), which stands in for the shaker used on
the physical test structure.  The accelerometer adds its own broadband noise
and maps acceleration to a ratiometric voltage around mid-supply.  The ADC is
an ideal mid-tread quantizer with saturation accounting.

Units: acceleration in g, voltage in volts, frequencies in Hz.  All
randomness flows through an explicit seed; the same seed gives the same
series, sample for sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModeSpec:
    """One structural vibration mode."""

    freq_hz: float
    damping_ratio: float = 0.01
    rms_amp_g: float = 0.01

    def __post_init__(self):
        if self.freq_hz <= 0:
            raise ValueError(f"mode frequency must be positive, got {self.freq_hz}")
        if not 0 < self.damping_ratio < 1:
            raise ValueError(f"damping ratio must be in (0, 1), got {self.damping_ratio}")
        if self.rms_amp_g < 0:
            raise ValueError(f"mode rms amplitude must be >= 0, got {self.rms_amp_g}")


@dataclass(frozen=True)
class StructureModel:
    """A set of modes plus a human-readable condition label."""

    modes: tuple[ModeSpec, ...]
    label: str = "structure"

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("structure model needs at least one mode")
        freqs = [m.freq_hz for m in self.modes]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("modes must be strictly ascending in frequency")

    def mode_freqs(self) -> list[float]:
        return [m.freq_hz for m in self.modes]


@dataclass(frozen=True)
class SensorSpec:
    """MEMS accelerometer: LIS344ALH-class analog output part."""

    noise_density_ug_sqrthz: float = 50.0
    sensitivity_v_per_g: float = 0.66
    full_scale_g: float = 2.0
    supply_v: float = 3.3

    def __post_init__(self):
        if not 0 <= self.noise_density_ug_sqrthz < math.inf:
            raise ValueError("noise density must be >= 0 and finite")
        if not all(0 < v < math.inf
                   for v in (self.sensitivity_v_per_g, self.full_scale_g, self.supply_v)):
            raise ValueError("sensitivity, full scale and supply must be positive and finite")

    def noise_rms_g(self, f_os_hz: float) -> float:
        """Broadband noise RMS over the oversampled bandwidth [0, f_os/2]."""
        return self.noise_density_ug_sqrthz * 1e-6 * np.sqrt(f_os_hz / 2.0)


@dataclass(frozen=True)
class AdcSpec:
    """Ideal unsigned ADC sampling at the oversampled rate."""

    bits: int = 12
    vref_v: float = 3.3
    f_os_hz: float = 25600.0

    def __post_init__(self):
        if not 1 <= self.bits <= 24:
            raise ValueError(f"ADC bits out of range: {self.bits}")
        if not all(0 < v < math.inf for v in (self.vref_v, self.f_os_hz)):
            raise ValueError("vref and sample rate must be positive and finite")

    @property
    def n_codes(self) -> int:
        return 1 << self.bits

    @property
    def midscale(self) -> int:
        return 1 << (self.bits - 1)


@dataclass(frozen=True)
class EventSpec:
    """A transient burst riding on the ambient response."""

    onset_s: float
    peak_g: float
    duration_s: float

    def __post_init__(self):
        if self.onset_s < 0 or self.duration_s < 0:
            raise ValueError("event onset and duration must be >= 0")
        if not 0 <= self.peak_g < math.inf:
            raise ValueError(f"event peak_g must be >= 0 and finite, got {self.peak_g}")


def _resonator_coeffs(freq_hz: float, damping: float, fs_hz: float):
    # Matched-pole mapping of s^2 + 2*zeta*w0*s + w0^2; gain is irrelevant
    # because the output is rescaled to the requested RMS afterwards.
    w0 = 2.0 * np.pi * freq_hz / fs_hz
    r = np.exp(-damping * w0)
    theta = w0 * np.sqrt(1.0 - damping * damping)
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    b = np.array([1.0])
    return b, a


def record_samples(
    model: StructureModel,
    duration_s: float,
    f_os_hz: float = AdcSpec.f_os_hz,
    excitation: str = "ambient",
) -> int:
    """Length of the record synth_structure_response returns for these inputs.

    Raises ValueError for any input it would reject, so a caller that
    synthesizes block by block can fail before the first block.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if excitation not in ("ambient", "dwell"):
        raise ValueError(f"unknown excitation {excitation!r}")
    nyquist = f_os_hz / 2.0
    for m in model.modes:
        if m.freq_hz >= nyquist:
            raise ValueError(
                f"mode at {m.freq_hz} Hz is at or above Nyquist ({nyquist} Hz)"
            )
    return int(round(duration_s * f_os_hz))


# Spacing of the dwell-tone anchors, in record samples; not a block size.
_ANCHOR = 4096


@functools.lru_cache(maxsize=32)
def _offset_tables(freq_hz: float, f_os_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sin and cos of 2*pi*freq*j/f_os for j in [0, _ANCHOR)."""
    delta = 2.0 * np.pi * freq_hz * (np.arange(_ANCHOR) / f_os_hz)
    tables = np.sin(delta), np.cos(delta)
    for t in tables:
        t.flags.writeable = False
    return tables


def synth_structure_response(
    model: StructureModel,
    duration_s: float,
    f_os_hz: float = AdcSpec.f_os_hz,
    seed: int = 0,
    excitation: str = "ambient",
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Synthesize the acceleration seen at the sensor mount, in g.

    excitation="ambient": each mode is an independent white-noise
    realization filtered by its resonator, scaled so that its sample RMS
    over the record equals ``rms_amp_g`` exactly.  The realized spectral
    peak of such a record wanders around the mode frequency by a fraction
    of the resonance width (roughly damping_ratio * freq); that is physics,
    not estimator error.

    excitation="dwell": a coherent tone per mode (random phase), the way a
    shaker dwelling on the resonances excites the structure.  Use this for
    tone-accuracy comparisons where sub-bin truth matters.  A tone's
    amplitude is ``rms_amp_g * sqrt(2)``, so its sample RMS equals
    ``rms_amp_g`` only over whole periods.

    A model where every mode has rms_amp_g == 0 returns an all-zero series.

    Returns samples [start, stop) of the record, all of it by default.  A
    dwell tone is evaluated by angle addition from anchors every 4096
    samples of the record: sin and cos of the phase at each anchor, times
    cached sin and cos tables of the phase advance within an anchor span.
    The anchors sit at the same record samples whatever ``start`` is, and
    every call draws the same phases from ``seed`` in mode order, so dwell
    blocks of any bounds concatenate to the whole record bit for bit.
    Ambient synthesis normalizes each mode over the whole record and
    returns only the whole record.
    """
    n = record_samples(model, duration_s, f_os_hz, excitation)
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise ValueError(f"samples [{start}, {stop}) are not within a record of {n}")
    if excitation == "ambient" and (start, stop) != (0, n):
        raise ValueError("ambient synthesis returns only the whole record")

    rng = np.random.default_rng(seed)
    if excitation == "dwell":
        # amp * sin(theta_k + delta_j)
        #   = (amp * sin theta_k) * cos delta_j + (amp * cos theta_k) * sin delta_j
        # over one (anchors, _ANCHOR) buffer, anchor k at record sample
        # k * _ANCHOR.
        k0, k1 = start // _ANCHOR, -(-stop // _ANCHOR)
        t_anchor = np.arange(k0 * _ANCHOR, k1 * _ANCHOR, _ANCHOR) / f_os_hz
        accel = np.zeros((k1 - k0, _ANCHOR))
        term = np.empty_like(accel)
        for m in model.modes:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            if m.rms_amp_g == 0.0:
                continue  # draw consumed anyway so seeds stay comparable across models
            theta = 2.0 * np.pi * m.freq_hz * t_anchor + phase
            amp = m.rms_amp_g * np.sqrt(2.0)
            sin_d, cos_d = _offset_tables(m.freq_hz, f_os_hz)
            accel += np.multiply.outer(amp * np.sin(theta), cos_d, out=term)
            accel += np.multiply.outer(amp * np.cos(theta), sin_d, out=term)
        offset = start - k0 * _ANCHOR
        return accel.reshape(-1)[offset:offset + stop - start]

    # scipy.signal is imported here, not with the module: importing it
    # loads most of scipy, which costs a one-shot dwell run more than the
    # run itself.
    from scipy.signal import lfilter

    # Each ambient mode is evaluated in one reused buffer (``arg``) with the
    # same operations in the same order as the plain expression
    # y * (rms_amp / sqrt(mean(y * y))), so the series is bit-identical to
    # it without a full-length temporary per operator.
    accel = np.zeros(n)
    arg = np.empty(n)
    for m in model.modes:
        rng.standard_normal(out=arg)
        if m.rms_amp_g == 0.0:
            continue  # draw consumed anyway so seeds stay comparable across models
        b, a = _resonator_coeffs(m.freq_hz, m.damping_ratio, f_os_hz)
        y = lfilter(b, a, arg)
        np.multiply(y, y, out=arg)
        rms = np.sqrt(np.mean(arg))
        if rms > 0:
            y *= m.rms_amp_g / rms
            accel += y
    return accel


def inject_transient(
    accel: np.ndarray,
    event: EventSpec,
    carrier_hz: float,
    f_os_hz: float = AdcSpec.f_os_hz,
    start: int = 0,
    record_len: int | None = None,
) -> np.ndarray:
    """Add a half-sine-enveloped tone burst; returns a new array.

    The carrier, the first mode of the structure under test, is phased to hit its crest at the envelope center, so the burst peak
    equals ``event.peak_g`` up to sampling granularity.  Samples outside
    [onset, onset + duration) are unchanged.

    ``accel`` may be one block of a longer record: it then holds samples
    [start, start + len(accel)) of a record of ``record_len`` samples, and
    gets the part of the burst that falls inside it.  By default the block
    ends the record.
    """
    n = start + len(accel) if record_len is None else record_len
    i0 = int(round(event.onset_s * f_os_hz))
    i1 = int(round((event.onset_s + event.duration_s) * f_os_hz))
    if i1 > n:
        raise ValueError("event extends past the end of the series")
    out = np.array(accel, dtype=float, copy=True)
    i0, i1 = max(i0, start), min(i1, start + len(accel))
    if i1 <= i0 or event.peak_g == 0.0:
        return out
    t = (np.arange(i0, i1) / f_os_hz) - event.onset_s
    envelope = np.sin(np.pi * t / event.duration_s)
    carrier = np.cos(2.0 * np.pi * carrier_hz * (t - event.duration_s / 2.0))
    out[i0 - start:i1 - start] += event.peak_g * envelope * carrier
    return out


def trigger_index(accel: np.ndarray, threshold_g: float) -> int | None:
    """First sample index where |accel| crosses the wake threshold, else None.

    Models the wake-on-event comparator of the always-on companion
    accelerometer; the main node treats a crossing as a wake request.
    """
    if threshold_g <= 0:
        raise ValueError("trigger threshold must be positive")
    hits = np.nonzero(np.abs(accel) >= threshold_g)[0]
    return int(hits[0]) if hits.size else None


def apply_sensor(
    accel: np.ndarray,
    spec: SensorSpec = SensorSpec(),
    f_os_hz: float = AdcSpec.f_os_hz,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Map acceleration to sensor output voltage, adding broadband noise.

    v[n] = supply/2 + sensitivity * (a[n] + w[n]) with w white Gaussian,
    RMS = density * sqrt(f_os/2).  The default density over a 12.8 kHz
    bandwidth works out to about 5.66 mg RMS.

    ``seed`` may also be a ``numpy.random.Generator``, which is drawn from
    as it stands: passing one Generator for every block of a record gives
    the same noise, bit for bit, as one call on the whole record.
    """
    rng = np.random.default_rng(seed)
    volts = rng.standard_normal(len(accel))
    volts *= spec.noise_rms_g(f_os_hz)
    volts += accel
    volts *= spec.sensitivity_v_per_g
    volts += spec.supply_v / 2.0
    return volts


def quantize(volts: np.ndarray, adc: AdcSpec = AdcSpec()) -> tuple[np.ndarray, int]:
    """Quantize voltage to ADC codes; returns (codes, saturated sample count).

    code = floor(v / vref * 2^bits), clipped to [0, 2^bits - 1], as
    integral float64 values, which the chain takes without a cast.
    Mid-supply lands exactly on the midscale code (2048 for 12 bits).
    Non-finite input is rejected rather than clipped to an arbitrary code.
    """
    v = np.asarray(volts, dtype=float)
    with np.errstate(over="ignore"):  # a finite input that overflows saturates
        scaled = v / adc.vref_v
        scaled *= adc.n_codes
    np.floor(scaled, out=scaled)
    # The block's range decides which of the full-block passes below run;
    # the initial 0 is in range and only lets an empty block through.
    top = adc.n_codes - 1
    lo, hi = scaled.min(initial=0.0), scaled.max(initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        n_bad = v.size - int(np.count_nonzero(np.isfinite(v)))
        if n_bad:
            raise ValueError(f"{n_bad} of {v.size} input samples are not finite")
    n_sat = 0
    if lo < 0 or hi > top:
        n_sat = int(np.count_nonzero((scaled < 0) | (scaled > top)))
        np.clip(scaled, 0, top, out=scaled)
    return scaled, n_sat
