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
        if self.coeff_budget < 1:
            raise ValueError(f"coeff_budget must be >= 1, got {self.coeff_budget}")
        if self.f_in_hz % self.total_decim:
            raise ValueError(f"input rate {self.f_in_hz} Hz must divide evenly by "
                             f"total_decim {self.total_decim}")
        if not 0 < self.cutoff_hz <= self.f_out_hz / 2.0:
            raise ValueError("cutoff must lie in (0, f_out/2]")
        if not all(0 < v < math.inf for v in (self.passband_ripple_db, self.stopband_atten_db)):
            raise ValueError("ripple and attenuation targets must be positive and finite")
        try:
            deviations = _stage_targets(self)[2:]
        except OverflowError:  # 10 ** (ripple / 20) is beyond a float
            deviations = (math.nan, math.nan)
        for key, delta in zip(("passband_ripple_db", "stopband_atten_db"), deviations):
            if not delta > 0.0:  # 0 where the deviation underflows
                raise ValueError(f"{key} = {getattr(self, key)!r} is out of range: its "
                                 f"per-stage deviation {delta} is not a positive float")

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


def _stage_targets(spec: DecimatorSpec) -> tuple[float, float, float, float]:
    """Each filtering stage's ripple budget and attenuation target in dB,
    and the passband and stopband deviations they stand for."""
    n_filtering = max(sum(d > 1 for d in spec.stage_decims), 1)
    # Split the composite ripple evenly; cascaded peak-to-peak ripples add
    # to first order.  Stopband gets a fixed 3 dB design margin.
    pp_budget = spec.passband_ripple_db / n_filtering
    atten_target = spec.stopband_atten_db + 3.0
    return (pp_budget, atten_target, _ripple_db_to_delta(pp_budget),
            10.0 ** (-atten_target / 20.0))


def _kaiser_taps(atten_db: float, trans_frac: float) -> int:
    # Kaiser's length estimate; the design loop verifies and grows from here
    n = int(math.ceil((atten_db - 7.95) / (2.285 * 2.0 * math.pi * trans_frac))) + 1
    return max(n | 1, 3)


def _kaiser_beta(atten_db: float) -> float:
    """Kaiser window shape for a stopband attenuation in dB (Kaiser 1974)."""
    if atten_db > 50:
        return 0.1102 * (atten_db - 8.7)
    if atten_db > 21:
        return 0.5842 * (atten_db - 21) ** 0.4 + 0.07886 * (atten_db - 21)
    return 0.0


# Chebyshev coefficients of exp(-x) I0(x) on [0, 8] and of
# exp(-x) sqrt(x) I0(x) on (8, inf) in 32/x, from the Cephes library's i0.
_I0_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
    1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
    9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
    1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
    1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
    1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
    3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
    -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
    -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
    2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def _chbevl(x: float, coeffs: tuple[float, ...]) -> float:
    b0, b1, b2 = coeffs[0], 0.0, 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0(x: float) -> float:
    """Modified Bessel function I0, as Cephes evaluates it.

    Scalar ``math.exp`` keeps it equal to the Cephes value bit for bit;
    numpy's vectorized exp differs from it by an ulp on some inputs.
    """
    x = abs(x)
    if x <= 8.0:
        return math.exp(x) * _chbevl(x / 2.0 - 2.0, _I0_A)
    return math.exp(x) * _chbevl(32.0 / x - 2.0, _I0_B) / math.sqrt(x)


def _kaiser_lowpass(n: int, cutoff_hz: float, beta: float, fs: float) -> np.ndarray:
    """Window-method lowpass: n taps of sinc times a Kaiser window, unit DC gain."""
    right = cutoff_hz / (0.5 * fs)
    alpha = 0.5 * (n - 1)
    m = np.arange(n, dtype=float) - alpha
    h = right * np.sinc(right * m)
    arg = beta * np.sqrt(1 - (m / alpha) ** 2.0)
    h *= np.array([_i0(v) for v in arg.tolist()]) / _i0(beta)
    return h / np.sum(h)


def _response(taps: np.ndarray, freqs: np.ndarray, fs: float) -> np.ndarray:
    """Complex response of FIR taps at frequencies in Hz: Horner's rule in z^-1."""
    zm1 = np.exp(-1j * (2 * math.pi * freqs / fs))
    h = np.full(zm1.shape, taps[-1], dtype=complex)
    for c in taps[-2::-1]:
        h = c + h * zm1
    return h


def _gain(stages: Sequence[FilterStage], fs: float, freqs: np.ndarray) -> np.ndarray:
    """|H| of a cascade fed at rate fs, at input-rate frequencies, normalized to DC."""
    h_total = np.ones(len(freqs), dtype=complex)
    dc = 1.0
    for st in stages:
        h_total *= _response(st.coeffs, freqs, fs)
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
    pp_budget, atten_target, delta_p, delta_s = _stage_targets(spec)

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
        beta = _kaiser_beta(atten_design)
        n = _kaiser_taps(atten_design, (f_stop - f_protect) / fs)
        n_cap = 4 * n + 257
        while True:
            h = _kaiser_lowpass(n, (f_protect + f_stop) / 2.0, beta, fs)
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
    if any(d > 1 for d in spec.stage_decims) and report.stopband_atten_db < spec.stopband_atten_db:
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


# Outputs a stage gathers before it filters them, unless the record ends
# first.  The tap loop makes two numpy calls per tap, so a late stage run
# on the few outputs it completes per block pays mostly call overhead:
# with every stage run on every 64 Ki-sample block, the default chain
# takes 0.098 s over a 180 s record, against 0.067 s with this wait
# (2-vCPU VM, numpy 2.4).
_MIN_RUN = 4096


def _fir_decimate(taps: np.ndarray, x: np.ndarray, first: int, d: int, n: int) -> np.ndarray:
    """Outputs k < n of x filtered by taps, output k at x[first + k * d].

    Inputs before x[0] count as zeros.  Each tap adds one rounded product,
    the oldest input's first: the operations, in order, of a direct-form
    polyphase decimator such as scipy's ``upfirdn``.
    """
    pad = len(taps) - 1 - first
    if pad > 0:
        x = np.concatenate((np.zeros(pad), x))
        first += pad
    span = (n - 1) * d + 1
    y = np.zeros(n)
    term = np.empty(n)
    for t in range(len(taps) - 1, -1, -1):
        j = first - t
        y += np.multiply(x[j:j + span:d], taps[t], out=term)
    return y


class ChainState:
    """A cascade fed one block at a time over a record of ``n_in`` samples.

    Output k of a stage is the full convolution at its input index
    k * decim (phase-0 alignment), which reads the taps - 1 inputs before
    that index.  A stage holds its inputs until they complete at least
    ``_MIN_RUN`` outputs, or until it has seen all of the record, then
    filters them and keeps only the inputs its next output reads.  A record
    pushed in blocks of any sizes gives, concatenated, the same samples bit
    for bit as the record pushed whole (multistage polyphase decimation
    with state, Crochiere & Rabiner 1983); each push returns the outputs
    the last stage completes, which may be none.
    """

    def __init__(self, stages: Sequence[FilterStage], n_in: int):
        self.stages = tuple(stages)
        self._total = []  # inputs each stage sees over the record
        for st in self.stages:
            self._total.append(n_in)
            n_in = -(-n_in // st.decim)
        n = len(self.stages)
        self._held = [[] for _ in range(n)]  # inputs each stage holds, in order
        self._held_at = [0] * n  # input index of the first held sample
        self._n_in = [0] * n  # inputs each stage has seen
        self._next = [0] * n  # the next output each stage completes

    def push(self, x: np.ndarray) -> np.ndarray:
        """Filter-and-decimate the next block; returns the outputs it completes."""
        y = np.asarray(x, dtype=float)
        if self.stages and self._n_in[0] + len(y) > self._total[0]:
            raise ValueError(f"block runs past the end of the {self._total[0]}-sample record")
        for i, st in enumerate(self.stages):
            y = self._push_stage(i, st, y)
        return y

    def _push_stage(self, i: int, st: FilterStage, x: np.ndarray) -> np.ndarray:
        d = st.decim
        end = self._n_in[i] + len(x)
        self._n_in[i] = end
        k0, k1 = self._next[i], -(-end // d)
        if k1 - k0 < (1 if end == self._total[i] else _MIN_RUN):
            if len(x):
                self._held[i].append(x.copy())  # the caller may reuse its block
            return np.zeros(0)
        at = self._held_at[i]
        z = np.concatenate((*self._held[i], x)) if self._held[i] else x
        y = _fir_decimate(st.coeffs, z, k0 * d - at, d, k1 - k0)
        keep = min(max(k1 * d - (st.n_taps - 1), 0), end)  # first input output k1 reads
        self._held[i] = [z[keep - at:].copy()]
        self._held_at[i] = keep
        self._next[i] = k1
        return y


def cascade(x: np.ndarray, stages: Sequence[FilterStage]) -> np.ndarray:
    """Filter-and-decimate a whole record through all stages (float in, float out).

    One push through a fresh ChainState, so output sample k of a stage
    equals the full convolution at input index k * decim and the result
    matches naive lfilter-then-slice composition sample for sample.
    """
    return ChainState(stages, len(x)).push(x)


def _output_counts(
    codes: np.ndarray,
    stages: Sequence[FilterStage],
    adc: AdcSpec,
    sensor: SensorSpec,
    state: ChainState | None = None,
) -> np.ndarray:
    """Decimate ADC codes to float output counts, before rounding."""
    if state is None:
        check_warmup(len(codes), stages)
        state = ChainState(stages, len(codes))
    elif state.stages != tuple(stages):
        raise ValueError("the chain state was built for other stages")
    y = state.push(np.subtract(codes, adc.midscale, dtype=float))
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
    next block of the record it was built for, whose length the caller has
    checked with ``check_warmup``; the state carries each stage's held
    inputs between calls, and the blocks' outputs concatenate to the whole
    record's.
    """
    return _int16(_output_counts(codes, stages, adc, sensor, state))


def _int16(counts: np.ndarray) -> np.ndarray:
    """Output counts rounded to the signed 16-bit output word, saturating."""
    return np.clip(np.rint(counts), -32768, 32767).astype(np.int16)


def measure_enob(
    stages: Sequence[FilterStage],
    adc: AdcSpec = AdcSpec(),
) -> tuple[float, float]:
    """Effective bits of the quantize-and-decimate chain, (SINAD - 1.76)/6.02.

    Drives a 40 s full-scale 10 Hz sine (amplitude = sensor full scale)
    through the sensor model, the quantizer and the chain, then takes SINAD
    from an FFT of the steady-state output.  Everything that is not the
    fundamental or DC counts as noise-plus-distortion, spurs included.

    Returns two figures from the one pass: the effective bits of the int16
    series ``run_chain`` emits, and those of the float counts before that
    rounding.  The float figure shows the oversampling law, which the fixed
    output word length otherwise masks.

    The record is cut to whole tone periods, so the tone lands on a bin
    with no window; an output rate that is not a multiple of 10 Hz raises
    ValueError.

    The sensor noise is set to 2 ug/rtHz, a fraction of an LSB over the
    oversampled band: enough to decorrelate quantization error, small
    enough not to dominate the decimated noise floor.
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
    counts = _output_counts(codes, stages, adc, sensor)

    skip = int(math.ceil(warmup_input_samples(stages) / total_decim)) * 2 + 8
    if len(counts) - skip < 256:
        raise ValueError("record too short for a meaningful SINAD estimate")
    p = int(round(period))

    def enob(out: np.ndarray) -> float:
        x = out[skip:]
        x = x[: (len(x) // p) * p]
        spec_mag2 = np.abs(np.fft.rfft(x)) ** 2
        k0 = int(round(f_tone / (fs_out / len(x))))
        p_fund = float(np.sum(spec_mag2[max(k0 - 1, 0):k0 + 2]))
        p_dc = float(np.sum(spec_mag2[:2]))
        p_total = float(np.sum(spec_mag2))
        p_nd = max(p_total - p_fund - p_dc, 1e-300)
        return float((10.0 * np.log10(p_fund / p_nd) - 1.76) / 6.02)

    return enob(_int16(counts).astype(float)), enob(counts)


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
