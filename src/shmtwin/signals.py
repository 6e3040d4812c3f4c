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


# Every mode of a structure has this damping ratio and this RMS amplitude
# in g; a dwell tone's amplitude is MODE_RMS_G * sqrt(2).
MODE_DAMPING = 0.01
MODE_RMS_G = 0.01
# The ADC's default sample rate, which is the decimation chain's input rate.
F_OS_HZ = 25600.0


@dataclass(frozen=True)
class StructureModel:
    """Mode frequencies in Hz, strictly ascending, plus a condition label."""

    freqs: tuple[float, ...]
    label: str

    def __post_init__(self):
        object.__setattr__(self, "freqs", tuple(self.freqs))
        if not self.freqs:
            raise ValueError("structure model needs at least one mode")
        if not all(a < b for a, b in zip((0.0, *self.freqs), self.freqs)):
            raise ValueError(f"mode frequencies must be positive and strictly ascending, "
                             f"got {self.freqs}")


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
    """Ideal unsigned ADC sampling at the decimation chain's input rate."""

    bits: int = 12
    vref_v: float = 3.3

    def __post_init__(self):
        if not 1 <= self.bits <= 24:
            raise ValueError(f"ADC bits out of range: {self.bits}")
        if not 0 < self.vref_v < math.inf:
            raise ValueError("vref must be positive and finite")

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
        if not (0 <= self.onset_s < math.inf and 0 <= self.duration_s < math.inf):
            raise ValueError("event onset and duration must be >= 0 and finite, got "
                             f"{self.onset_s} and {self.duration_s}")
        if not 0 <= self.peak_g < math.inf:
            raise ValueError(f"event peak_g must be >= 0 and finite, got {self.peak_g}")


def _resonator_coeffs(freq_hz: float, fs_hz: float):
    # Matched-pole mapping of s^2 + 2*zeta*w0*s + w0^2 at zeta = MODE_DAMPING;
    # gain is irrelevant because the output is rescaled to MODE_RMS_G afterwards.
    w0 = 2.0 * np.pi * freq_hz / fs_hz
    r = np.exp(-MODE_DAMPING * w0)
    theta = w0 * np.sqrt(1.0 - MODE_DAMPING * MODE_DAMPING)
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    b = np.array([1.0])
    return b, a


def check_record(model: StructureModel, n: int, f_os_hz: float, excitation: str) -> None:
    """Raise ValueError for a record synth_structure_response would reject,
    so a caller that synthesizes block by block can fail before the first block."""
    if n < 1:
        raise ValueError(f"a record needs at least one sample, got {n}")
    if excitation not in ("ambient", "dwell"):
        raise ValueError(f"unknown excitation {excitation!r}")
    nyquist = f_os_hz / 2.0
    for f in model.freqs:
        if f >= nyquist:
            raise ValueError(f"mode at {f} Hz is at or above Nyquist ({nyquist} Hz)")


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
    n: int,
    f_os_hz: float = F_OS_HZ,
    seed: int = 0,
    excitation: str = "ambient",
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Synthesize ``n`` samples at ``f_os_hz`` of the acceleration seen at
    the sensor mount, in g.

    excitation="ambient": each mode is an independent white-noise
    realization filtered by its resonator, scaled so that its sample RMS
    over the record equals ``MODE_RMS_G`` exactly.  The realized spectral
    peak of such a record wanders around the mode frequency by a fraction
    of the resonance width (roughly MODE_DAMPING * freq); that is physics,
    not estimator error.

    excitation="dwell": a coherent tone per mode (random phase), the way a
    shaker dwelling on the resonances excites the structure.  Use this for
    tone-accuracy comparisons where sub-bin truth matters.  A tone's
    amplitude is ``MODE_RMS_G * sqrt(2)``, so its sample RMS equals
    ``MODE_RMS_G`` only over whole periods.

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
    check_record(model, n, f_os_hz, excitation)
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
        amp = MODE_RMS_G * np.sqrt(2.0)
        for f in model.freqs:
            theta = 2.0 * np.pi * f * t_anchor + rng.uniform(0.0, 2.0 * np.pi)
            sin_d, cos_d = _offset_tables(f, f_os_hz)
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
    # y * (MODE_RMS_G / sqrt(mean(y * y))), so the series is bit-identical
    # to it without a full-length temporary per operator.
    accel = np.zeros(n)
    arg = np.empty(n)
    for f in model.freqs:
        rng.standard_normal(out=arg)
        y = lfilter(*_resonator_coeffs(f, f_os_hz), arg)
        np.multiply(y, y, out=arg)
        rms = np.sqrt(np.mean(arg))
        if rms > 0:
            y *= MODE_RMS_G / rms
            accel += y
    return accel


def event_span(event: EventSpec, f_os_hz: float, n: int) -> tuple[int, int]:
    """Samples [i0, i1) of the event's burst in a record of ``n`` samples at
    ``f_os_hz``; raises ValueError if the burst ends past the record."""
    end = (event.onset_s + event.duration_s) * f_os_hz
    if not math.isfinite(end) or round(end) > n:  # an end beyond any float never fits
        raise ValueError("event extends past the end of the record")
    return int(round(event.onset_s * f_os_hz)), int(round(end))


def inject_transient(
    accel: np.ndarray,
    event: EventSpec,
    carrier_hz: float,
    n: int,
    f_os_hz: float = F_OS_HZ,
    start: int = 0,
) -> np.ndarray:
    """Add a half-sine-enveloped tone burst; returns a new array.

    The carrier, the first mode of the structure under test, is phased to hit its crest at the envelope center, so the burst peak
    equals ``event.peak_g`` up to sampling granularity.  Samples outside
    [onset, onset + duration) are unchanged.

    ``accel`` holds samples [start, start + len(accel)) of a record of ``n``
    samples, and gets the part of the burst that falls inside it.
    """
    i0, i1 = event_span(event, f_os_hz, n)
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
    f_os_hz: float = F_OS_HZ,
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
