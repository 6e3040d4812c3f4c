"""Multistage FIR decimation from the oversampled ADC rate to the output rate.

The default chain takes 25.6 kHz down to 100 Hz (256x) in six stages.  Each
stage is a linear-phase Kaiser-windowed lowpass designed just tight enough
that the cascade protects the measurement band: any input frequency that would
fold onto the protected band after full decimation is attenuated by the
stated stopband floor, while the protected band itself stays flat within the
stated ripple.  Early stages run at high rate but have generous transition
bands and therefore very few taps; the final stage does the sharp work at
the lowest rate.  This is the standard trade that keeps the whole chain a
few hundred coefficients instead of tens of thousands for a single-stage
design.

The protected band is [0, 0.9 * cutoff]: the outer 10 % of the nominal
passband is transition region, and ripple/attenuation are specified and
measured against the protected band.  With the default 50 Hz cutoff that
means flatness to 45 Hz and aliasing protection for everything folding onto
0..45 Hz.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .signals import AdcSpec, SensorSpec, apply_sensor, quantize


class FilterDesignError(RuntimeError):
    """Raised when a chain cannot meet its spec within the coefficient budget."""


@dataclass(frozen=True, eq=False)
class FilterStage:
    """One FIR lowpass plus the decimation that follows it.

    The coefficients are a private read-only copy, so a stage can be shared
    between callers without any of them changing it for the others.  Two
    stages are equal when their decimation and their taps, bit for bit, are.
    """

    coeffs: np.ndarray
    decim: int

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("stage needs a non-empty 1-D coefficient vector")
        if self.decim < 1:
            raise ValueError(f"decimation factor must be >= 1, got {self.decim}")

    def __eq__(self, other):
        if not isinstance(other, FilterStage):
            return NotImplemented
        return self.decim == other.decim and self.coeffs.tobytes() == other.coeffs.tobytes()

    def __hash__(self):
        return hash((self.decim, self.coeffs.tobytes()))

    @property
    def n_taps(self) -> int:
        return int(self.coeffs.size)


def _default_stage_decims(total_decim: int, n_stages: int) -> tuple[int, ...]:
    """Split total_decim into n_stages factors, big factors last.

    Prime-factorize, then merge smallest factors until the count fits; pad
    with 1s in front if there are fewer factors than stages.  For the default
    256x / 6-stage chain this yields (2, 2, 2, 2, 4, 4).
    """
    factors = []
    rest = total_decim
    p = 2
    while rest > 1:
        while rest % p == 0:
            factors.append(p)
            rest //= p
        p += 1 if p == 2 else 2
    factors.sort()
    while len(factors) > n_stages:
        merged = factors[0] * factors[1]
        factors = sorted([merged] + factors[2:])
    while len(factors) < n_stages:
        factors.insert(0, 1)
    return tuple(factors)


@dataclass(frozen=True)
class DecimatorSpec:
    """Target figures for the whole cascade; output rate and stage split are derived."""

    n_stages: int = 6
    total_decim: int = 256
    f_in_hz: float = AdcSpec.f_os_hz
    cutoff_hz: float = 50.0
    passband_ripple_db: float = 0.1
    stopband_atten_db: float = 60.0
    coeff_budget: int = 1000

    def __post_init__(self):
        if self.n_stages < 1 or self.total_decim < 1:
            raise ValueError("need at least one stage and decimation >= 1")
        if self.f_in_hz % self.total_decim:
            raise ValueError(f"input rate {self.f_in_hz} Hz must divide evenly by "
                             f"total_decim {self.total_decim}")
        if not 0 < self.cutoff_hz <= self.f_out_hz / 2.0:
            raise ValueError("cutoff must lie in (0, f_out/2]")
        if not all(0 < v < math.inf for v in (self.passband_ripple_db, self.stopband_atten_db)):
            raise ValueError("ripple and attenuation targets must be positive and finite")

    @property
    def f_out_hz(self) -> float:
        return self.f_in_hz / self.total_decim

    @property
    def stage_decims(self) -> tuple[int, ...]:
        return _default_stage_decims(self.total_decim, self.n_stages)

    @property
    def protected_edge_hz(self) -> float:
        """Upper edge of the band the chain keeps flat and alias-free."""
        return 0.9 * self.cutoff_hz


@dataclass(frozen=True)
class FilterReport:
    """Measured figures of a designed cascade."""

    passband_ripple_db: float
    stopband_atten_db: float
    total_coeffs: int
    group_delay_samples_out: float
    stage_taps: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# design


def _ripple_db_to_delta(pp_db: float) -> float:
    r = 10.0 ** (pp_db / 20.0)
    return (r - 1.0) / (r + 1.0)


def _kaiser_taps(atten_db: float, trans_frac: float) -> int:
    # Kaiser's length estimate; the design loop verifies and grows from here
    n = int(math.ceil((atten_db - 7.95) / (2.285 * 2.0 * math.pi * trans_frac))) + 1
    return max(n | 1, 3)


def _gain(stages: Sequence[FilterStage], fs: float, freqs: np.ndarray) -> np.ndarray:
    """|H| of a cascade fed at rate fs, at input-rate frequencies, normalized to DC."""
    h_total = np.ones(len(freqs), dtype=complex)
    dc = 1.0
    for st in stages:
        _, hf = signal.freqz(st.coeffs, worN=freqs, fs=fs)
        h_total *= hf
        dc *= np.sum(st.coeffs)
        fs /= st.decim
    return np.abs(h_total) / abs(dc)


def _ripple_db(gain: np.ndarray) -> float:
    """Peak-to-peak spread of a gain, dB."""
    return float(20.0 * (np.log10(gain.max()) - np.log10(gain.min())))


def _atten_db(gain: np.ndarray) -> float:
    """Least attenuation of a gain, dB, counting no gain below 1e-12."""
    return float(np.min(-20.0 * np.log10(np.maximum(gain, 1e-12))))


def _stage_meets(h, fs, f_pass, f_stop, pp_budget_db, atten_target_db) -> bool:
    stage = (FilterStage(h, 1),)
    if _ripple_db(_gain(stage, fs, np.linspace(0.0, f_pass, 512))) > pp_budget_db:
        return False
    return _atten_db(_gain(stage, fs, np.linspace(f_stop, fs / 2.0, 2048))) >= atten_target_db


@functools.lru_cache(maxsize=8)
def design_decimator(
    spec: DecimatorSpec = DecimatorSpec(),
) -> tuple[tuple[FilterStage, ...], FilterReport]:
    """Design all stages and verify the cascade against the spec.

    Returns the stages, as a tuple, and the measured report the verification
    used.  The design is cached per spec: equal specs get the same stage
    objects back, whose coefficients are read-only.  Raises
    FilterDesignError if a stage cannot close, the coefficient budget is
    exceeded, or the composite response misses the targets; a failing spec
    is not cached and raises again on every call.
    """
    f_protect = spec.protected_edge_hz
    filtering = [d for d in spec.stage_decims if d > 1]
    n_filtering = max(len(filtering), 1)
    # Split the composite ripple evenly; cascaded peak-to-peak ripples add
    # to first order.  Stopband gets a fixed 3 dB design margin.
    pp_budget = spec.passband_ripple_db / n_filtering
    delta_p = _ripple_db_to_delta(pp_budget)
    atten_target = spec.stopband_atten_db + 3.0
    delta_s = 10.0 ** (-atten_target / 20.0)

    stages: list[FilterStage] = []
    fs = spec.f_in_hz
    for d in spec.stage_decims:
        if d == 1:
            stages.append(FilterStage(np.array([1.0]), 1))
            continue
        f_next = fs / d
        f_stop = f_next - f_protect
        if f_stop <= f_protect:
            raise FilterDesignError(
                f"no transition band left at stage rate {fs} Hz / {d}: "
                f"stop edge {f_stop} Hz <= pass edge {f_protect} Hz"
            )
        # Kaiser-windowed sinc: passband and stopband deviations are equal,
        # so size the window for whichever requirement is tighter.
        delta = min(delta_p, delta_s)
        atten_design = -20.0 * math.log10(delta)
        beta = signal.kaiser_beta(atten_design)
        n = _kaiser_taps(atten_design, (f_stop - f_protect) / fs)
        n_cap = 4 * n + 257
        while True:
            h = signal.firwin(
                n,
                (f_protect + f_stop) / 2.0,
                window=("kaiser", beta),
                fs=fs,
            )
            h = 0.5 * (h + h[::-1])  # symmetry is exact up to rounding
            if _stage_meets(h, fs, f_protect, f_stop, pp_budget, atten_target):
                break
            n += 2
            if n > n_cap:
                raise FilterDesignError(
                    f"stage at {fs} Hz did not converge by {n_cap} taps"
                )
        stages.append(FilterStage(h / np.sum(h), d))
        fs = f_next

    total = sum(s.n_taps for s in stages)
    if total > spec.coeff_budget:
        raise FilterDesignError(
            f"chain needs {total} coefficients, budget is {spec.coeff_budget}"
        )
    report = measure_response(stages, spec)
    if report.passband_ripple_db > spec.passband_ripple_db:
        raise FilterDesignError(
            f"composite ripple {report.passband_ripple_db:.4f} dB exceeds "
            f"{spec.passband_ripple_db} dB"
        )
    if len(filtering) and report.stopband_atten_db < spec.stopband_atten_db:
        raise FilterDesignError(
            f"composite attenuation {report.stopband_atten_db:.2f} dB below "
            f"{spec.stopband_atten_db} dB"
        )
    return tuple(stages), report


# ---------------------------------------------------------------------------
# measurement


def _alias_bands(spec: DecimatorSpec) -> list[tuple[float, float]]:
    """Input-rate bands that fold onto the protected band after decimation."""
    f_protect = spec.protected_edge_hz
    bands = []
    m = 1
    while True:
        lo = m * spec.f_out_hz - f_protect
        hi = m * spec.f_out_hz + f_protect
        if lo > spec.f_in_hz / 2.0:
            break
        bands.append((max(lo, f_protect), min(hi, spec.f_in_hz / 2.0)))
        m += 1
    return bands


def measure_response(stages: Sequence[FilterStage], spec: DecimatorSpec) -> FilterReport:
    """Sweep the cascade and report ripple, attenuation, size and delay.

    Attenuation is the worst case over every alias band; a chain with no
    decimation has no alias bands and honestly reports 0 dB.
    """
    fs = spec.f_in_hz
    ripple = _ripple_db(_gain(stages, fs, np.linspace(0.0, spec.protected_edge_hz, 2001)))
    sweeps = (np.linspace(lo, hi, max(int((hi - lo) / 0.1), 64) + 1)
              for lo, hi in _alias_bands(spec))
    atten = min((_atten_db(_gain(stages, fs, w)) for w in sweeps), default=0.0)
    return FilterReport(
        passband_ripple_db=ripple,
        stopband_atten_db=atten,
        total_coeffs=sum(s.n_taps for s in stages),
        group_delay_samples_out=_delay_input_samples(stages) / spec.total_decim,
        stage_taps=tuple(s.n_taps for s in stages),
    )


# ---------------------------------------------------------------------------
# running


def _delay_input_samples(stages: Sequence[FilterStage]) -> float:
    """Cascade group delay referred to the input rate."""
    delay = 0.0
    rate_factor = 1  # input samples per sample at the current stage's input
    for st in stages:
        delay += (st.n_taps - 1) / 2.0 * rate_factor
        rate_factor *= st.decim
    return delay


def warmup_input_samples(stages: Sequence[FilterStage]) -> int:
    """Cascade group delay referred to the input rate, rounded up."""
    return int(math.ceil(_delay_input_samples(stages)))


def check_warmup(n_in: int, stages: Sequence[FilterStage]) -> None:
    """Raise ValueError if a record of n_in input samples cannot fill the chain."""
    need = warmup_input_samples(stages)
    if n_in < max(need, 1):
        raise ValueError(
            f"input of {n_in} samples is shorter than the chain warm-up ({need})"
        )


class ChainState:
    """A cascade fed one block at a time.

    Output k of a stage is the full convolution at its input index
    k * decim (phase-0 alignment), which reads the taps - 1 inputs before
    that index.  Each stage therefore carries its latest
    ceil((taps - 1) / decim) * decim inputs or fewer, starting on a multiple
    of decim, into the next block.  A record pushed in blocks of any sizes
    gives, concatenated, the same samples bit for bit as the record pushed
    whole (multistage polyphase decimation with state, Crochiere & Rabiner
    1983).
    """

    def __init__(self, stages: Sequence[FilterStage]):
        self.stages = tuple(stages)
        n = len(self.stages)
        self._tail = [np.zeros(0)] * n  # inputs each stage still needs
        self._tail_at = [0] * n  # input index of each tail's first sample
        self._n_in = [0] * n  # inputs each stage has seen

    def push(self, x: np.ndarray) -> np.ndarray:
        """Filter-and-decimate the next block; returns the outputs it completes."""
        y = np.asarray(x, dtype=float)
        for i, st in enumerate(self.stages):
            y = self._push_stage(i, st, y)
        return y

    def _push_stage(self, i: int, st: FilterStage, x: np.ndarray) -> np.ndarray:
        d = st.decim
        history = -(-(st.n_taps - 1) // d) * d
        tail, at = self._tail[i], self._tail_at[i]
        z = np.concatenate((tail, x)) if tail.size else x
        end = self._n_in[i] + len(x)
        k0 = -(-self._n_in[i] // d)  # first output this block completes
        k1 = -(-end // d)  # one past its last
        y = np.zeros(0)
        if k1 > k0:
            start = max(k0 * d - history, 0)  # a multiple of d, never before at
            skip = (k0 * d - start) // d
            y = signal.upfirdn(st.coeffs, z[start - at:], up=1, down=d)[skip:skip + k1 - k0]
        keep = min(max(k1 * d - history, 0), end)
        self._tail[i] = z[keep - at:].copy()
        self._tail_at[i] = keep
        self._n_in[i] = end
        return y


def cascade(x: np.ndarray, stages: Sequence[FilterStage]) -> np.ndarray:
    """Filter-and-decimate a whole record through all stages (float in, float out).

    One push through a fresh ChainState, so output sample k of a stage
    equals the full convolution at input index k * decim and the result
    matches naive lfilter-then-slice composition sample for sample.
    """
    return ChainState(stages).push(x)


def _output_counts(
    codes: np.ndarray,
    stages: Sequence[FilterStage],
    adc: AdcSpec,
    sensor: SensorSpec,
    state: ChainState | None = None,
) -> np.ndarray:
    """Decimate ADC codes to float output counts, before rounding."""
    codes = np.asarray(codes)
    if state is None:
        check_warmup(len(codes), stages)
        state = ChainState(stages)
    elif state.stages != tuple(stages):
        raise ValueError("the chain state was built for other stages")
    x = codes.astype(float)
    x -= adc.midscale
    y = state.push(x)
    lsb_to_g = adc.vref_v / adc.n_codes / sensor.sensitivity_v_per_g
    return y * lsb_to_g * (32768.0 / sensor.full_scale_g)


def run_chain(
    codes: np.ndarray,
    stages: Sequence[FilterStage],
    adc: AdcSpec = AdcSpec(),
    sensor: SensorSpec = SensorSpec(),
    state: ChainState | None = None,
) -> np.ndarray:
    """Decimate raw ADC codes to a signed 16-bit series at the output rate.

    Midscale is subtracted first, so a rail-to-rail-centered input maps to
    zero and the output is signed acceleration: full scale +/-32768 counts
    corresponds to +/-sensor.full_scale_g.

    Without ``state`` the codes are a whole record, checked against the
    chain warm-up.  With a ``ChainState`` over the same stages they are the
    next block of a record whose length the caller has checked with
    ``check_warmup``; the state carries each stage's tail between calls,
    and the blocks' outputs concatenate to the whole record's.
    """
    counts = np.rint(_output_counts(codes, stages, adc, sensor, state))
    return np.clip(counts, -32768, 32767).astype(np.int16)


def measure_enob(
    stages: Sequence[FilterStage],
    adc: AdcSpec = AdcSpec(),
    quantize_output: bool = True,
) -> float:
    """Effective bits of the quantize-and-decimate chain, (SINAD - 1.76)/6.02.

    Drives a 40 s full-scale 10 Hz sine (amplitude = sensor full scale)
    through the sensor model, the quantizer and the chain, then takes SINAD
    from an FFT of the steady-state output.  Everything that is not the
    fundamental or DC counts as noise-plus-distortion, spurs included.

    The record is cut to whole tone periods, so the tone lands on a bin
    with no window; an output rate that is not a multiple of 10 Hz raises
    ValueError.

    The sensor noise is set to 2 ug/rtHz, a fraction of an LSB over the
    oversampled band: enough to decorrelate quantization error, small
    enough not to dominate the decimated noise floor.

    quantize_output=False skips the 16-bit output rounding and measures the
    float cascade instead; useful to observe the oversampling law itself,
    which the fixed output word length otherwise starts to mask.
    """
    f_tone = 10.0
    sensor = SensorSpec(noise_density_ug_sqrthz=2.0)
    total_decim = math.prod(st.decim for st in stages)
    fs_out = adc.f_os_hz / total_decim
    period = fs_out / f_tone
    if abs(period - round(period)) >= 1e-9:
        raise ValueError(f"a {f_tone} Hz tone is not coherent at the {fs_out} Hz output rate")
    n = int(round(40.0 * adc.f_os_hz))
    t = np.arange(n) / adc.f_os_hz
    accel = sensor.full_scale_g * np.sin(2.0 * np.pi * f_tone * t)
    volts = apply_sensor(accel, sensor, adc.f_os_hz, seed=1)
    codes, _ = quantize(volts, adc)
    if quantize_output:
        out = run_chain(codes, stages, adc, sensor).astype(float)
    else:
        out = _output_counts(codes, stages, adc, sensor)

    skip = int(math.ceil(warmup_input_samples(stages) / total_decim)) * 2 + 8
    x = out[skip:]
    if len(x) < 256:
        raise ValueError("record too short for a meaningful SINAD estimate")

    p = int(round(period))
    x = x[: (len(x) // p) * p]
    spec_mag2 = np.abs(np.fft.rfft(x)) ** 2
    k0 = int(round(f_tone / (fs_out / len(x))))
    p_fund = float(np.sum(spec_mag2[max(k0 - 1, 0):k0 + 2]))
    p_dc = float(np.sum(spec_mag2[:2]))
    p_total = float(np.sum(spec_mag2))
    p_nd = max(p_total - p_fund - p_dc, 1e-300)
    sinad_db = 10.0 * np.log10(p_fund / p_nd)
    return (sinad_db - 1.76) / 6.02


# ---------------------------------------------------------------------------
# stage file format


def save_stages(path, stages: Sequence[FilterStage]) -> None:
    """Write the chain as text: one block per stage, full-precision taps."""
    lines = [f"# decimation chain: {len(stages)} stages"]
    for i, st in enumerate(stages, start=1):
        lines.append(f"stage {i}")
        lines.append(f"decim {st.decim}")
        lines.append(f"taps {st.n_taps}")
        lines.extend(repr(float(c)) for c in st.coeffs)
        lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
