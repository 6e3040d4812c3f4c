import dataclasses

import numpy as np
import pytest
from scipy import signal as sp_signal

from shmtwin.decimator import (
    DecimatorSpec,
    FilterDesignError,
    ChainState,
    FilterStage,
    cascade,
    design_decimator,
    measure_enob,
    run_chain,
    save_stages,
    warmup_input_samples,
)
from shmtwin.signals import AdcSpec, SensorSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        DecimatorSpec(total_decim=255)                     # rate mismatch
    with pytest.raises(ValueError):
        DecimatorSpec(cutoff_hz=60.0)                      # beyond output Nyquist


def test_default_stage_split():
    spec = DecimatorSpec()
    assert spec.stage_decims == (2, 2, 2, 2, 4, 4)
    assert int(np.prod(spec.stage_decims)) == 256


def test_rates_and_split_follow_the_total_decimation():
    spec = dataclasses.replace(DecimatorSpec(), total_decim=128)
    assert spec.f_out_hz == 200.0
    assert spec.stage_decims == (2, 2, 2, 2, 2, 4)


def test_designed_chain_meets_targets(default_chain):
    spec, stages, report = default_chain
    assert len(stages) == 6
    assert report.total_coeffs <= spec.coeff_budget
    assert report.passband_ripple_db <= spec.passband_ripple_db
    assert report.stopband_atten_db >= spec.stopband_atten_db
    for st in stages:
        assert np.allclose(st.coeffs, st.coeffs[::-1], atol=1e-12)


def test_budget_too_small_fails_loudly():
    spec = DecimatorSpec(coeff_budget=20)
    for _ in range(2):  # a failed design is not cached: it fails every time
        with pytest.raises(FilterDesignError):
            design_decimator(spec)


def test_equal_specs_share_one_design():
    stages, report = design_decimator(DecimatorSpec())
    again, report_again = design_decimator(DecimatorSpec(n_stages=6))
    assert isinstance(stages, tuple)
    assert again is stages and report_again is report
    assert all(a is b for a, b in zip(again, stages))


def test_different_specs_get_different_designs(default_chain):
    _, stages, _ = default_chain
    tighter, _ = design_decimator(DecimatorSpec(stopband_atten_db=80.0))
    assert [st.n_taps for st in tighter] != [st.n_taps for st in stages]


def test_designed_stages_are_read_only(default_chain):
    _, stages, _ = default_chain
    before = stages[0].coeffs.copy()
    with pytest.raises(ValueError):
        stages[0].coeffs[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        stages[0].decim = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        stages[0].coeffs = before
    assert np.array_equal(stages[0].coeffs, before)


def test_stage_keeps_a_private_copy_of_its_taps():
    taps = np.array([0.25, 0.5, 0.25])
    st = FilterStage(taps, 2)
    taps[0] = 9.0
    assert st.coeffs[0] == 0.25
    assert taps.flags.writeable


def test_cascade_equals_naive_filter_then_decimate(default_chain):
    _, stages, _ = default_chain
    rng = np.random.default_rng(5)
    x = rng.standard_normal(25600)
    y = cascade(x, stages)
    ref = x
    for st in stages:
        ref = sp_signal.lfilter(st.coeffs, [1.0], ref)[:: st.decim]
    assert y.shape == ref.shape
    assert np.max(np.abs(y - ref)) < 1e-12


@pytest.mark.parametrize("chain", ["designed", "edge"])
def test_chain_state_blocks_equal_whole_cascade(default_chain, chain):
    stages = default_chain[1]
    if chain == "edge":  # a one-tap decimator carries no history; decim 1 passes through
        stages = (FilterStage([0.5], 3), FilterStage([0.25, 0.5, 0.25], 1), *stages[:2])
    rng = np.random.default_rng(8)
    x = rng.standard_normal(100_003)  # not a multiple of any stage's decimation
    whole = cascade(x, stages)
    sizes = [1, 2, 255, 1000, 4103, 12345, 7, 65536]
    state = ChainState(stages)
    parts, i = [], 0
    while i < len(x):
        n = sizes[len(parts) % len(sizes)]
        parts.append(state.push(x[i:i + n]))
        i += n
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_run_chain_state_must_match_its_stages(default_chain):
    _, stages, _ = default_chain
    with pytest.raises(ValueError):
        run_chain(np.zeros(10, dtype=int), stages[:3], state=ChainState(stages))


def test_filter_stage_value_equality_and_hash():
    a = FilterStage([0.25, 0.5, 0.25], 2)
    b = FilterStage(np.array([0.25, 0.5, 0.25]), 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != FilterStage([0.25, 0.5, 0.25], 4)
    assert a != FilterStage([0.25, 0.5, 0.2500000000000001], 2)
    assert a != FilterStage([0.25, 0.5], 2)
    assert a != "stage"


def test_90hz_tone_rejected_below_minus_60_dbfs(default_chain):
    spec, stages, _ = default_chain
    fs = spec.f_in_hz
    t = np.arange(int(20 * fs)) / fs
    x = np.sin(2 * np.pi * 90.0 * t)
    y = cascade(x, stages)
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    resid = np.max(np.abs(y[settle:]))
    assert 20 * np.log10(resid) <= -60.0


def test_passband_tone_amplitude_preserved(default_chain):
    spec, stages, _ = default_chain
    fs = spec.f_in_hz
    t = np.arange(int(20 * fs)) / fs
    x = np.sin(2 * np.pi * 10.0 * t)
    y = cascade(x, stages)
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    body = y[settle:-settle]
    body = body[: len(body) - len(body) % 10]       # integer periods at 10 Hz
    amp = np.sqrt(2.0) * np.sqrt(np.mean(body**2))
    assert abs(20 * np.log10(amp)) < 0.05


def test_constant_input_settles_to_dc_gain(default_chain):
    spec, stages, _ = default_chain
    x = np.full(int(4 * spec.f_in_hz), 0.37)
    y = cascade(x, stages)
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    assert np.allclose(y[settle:], 0.37, atol=1e-9)


def test_identity_spec_reports_zero_margins():
    spec = DecimatorSpec(n_stages=1, total_decim=1, f_in_hz=100.0, cutoff_hz=50.0)
    _, report = design_decimator(spec)
    assert report.stopband_atten_db == 0.0   # no alias bands exist; reported honestly


def test_run_chain_scaling_and_dtype(default_chain):
    spec, stages, _ = default_chain
    adc, sensor = AdcSpec(), SensorSpec()
    codes = np.full(int(2 * spec.f_in_hz), adc.midscale + 64)
    out = run_chain(codes, stages, adc, sensor)
    assert out.dtype == np.int16
    # 64 ADC LSB above midscale = 64 * (3.3/4096) / 0.66 g = 78.1 mg;
    # output counts at 2 g full scale: 78.1 mg * 32768 / 2 = 1280.
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    assert abs(int(np.median(out[settle:])) - 1280) <= 1


def test_run_chain_rejects_short_input(default_chain):
    spec, stages, _ = default_chain
    with pytest.raises(ValueError):
        run_chain(np.zeros(10, dtype=int), stages, AdcSpec(), SensorSpec())


def test_stage_file_round_trip(tmp_path, default_chain):
    _, stages, _ = default_chain
    path = tmp_path / "stages.txt"
    save_stages(path, stages)
    back = []                                   # (decim, taps) per stage
    for line in path.read_text().splitlines():
        if line.startswith("decim "):
            back.append((int(line.split()[1]), []))
        elif line and not line.startswith(("#", "stage ", "taps ")):
            back[-1][1].append(float(line))
    assert len(back) == len(stages)
    for a, (decim, taps) in zip(stages, back):
        assert a.decim == decim
        assert np.array_equal(a.coeffs, np.array(taps))


def test_enob_default_chain_exceeds_15_bits(default_chain):
    _, stages, _ = default_chain
    assert measure_enob(stages, AdcSpec()) >= 15.0


def test_oversampling_law_half_bit_per_octave():
    # On the float path (before 16-bit output rounding), doubling the
    # decimation factor should buy about half an effective bit.
    adc = AdcSpec()
    enobs = []
    for total in (64, 128, 256):
        spec = DecimatorSpec(n_stages=6, total_decim=total, f_in_hz=adc.f_os_hz,
                             cutoff_hz=50.0)
        stages, _ = design_decimator(spec)
        enobs.append(measure_enob(stages, adc, quantize_output=False))
    deltas = np.diff(enobs)
    assert np.all(deltas > 0.35) and np.all(deltas < 0.65)
