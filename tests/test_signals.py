import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from shmtwin.decimator import ChainState, run_chain
from shmtwin.presets import STRUCTURES
from shmtwin.signals import (
    _offset_tables,
    _resonator_coeffs,
    MODE_DAMPING,
    F_OS_HZ,
    MODE_RMS_G,
    AdcSpec,
    EventSpec,
    SensorSpec,
    StructureModel,
    apply_sensor,
    event_span,
    inject_transient,
    quantize,
    synth_structure_response,
    trigger_index,
)

FOUR_MODES = StructureModel((2.807, 8.379, 13.125, 16.052), "test")


def test_mode_validation():
    assert StructureModel([2.0, 8.0], "list").freqs == (2.0, 8.0)
    for freqs in [(), (0.0,), (-1.0, 2.0), (8.0, 2.0), (2.0, 2.0), (float("nan"),)]:
        with pytest.raises(ValueError):
            StructureModel(freqs, "bad")


def test_mode_above_nyquist_rejected():
    model = StructureModel((60.0,), "hot")
    with pytest.raises(ValueError):
        synth_structure_response(model, 100, f_os_hz=100.0)


def test_bad_excitation_and_duration_rejected():
    with pytest.raises(ValueError, match="unknown excitation 'hammer'"):
        synth_structure_response(FOUR_MODES, 25600, excitation="hammer")
    with pytest.raises(ValueError, match="a record needs at least one sample, got 0"):
        synth_structure_response(FOUR_MODES, 0)


def test_ambient_rms_matches_spec():
    model = StructureModel((2.807,), "one")
    x = synth_structure_response(model, 30 * 25600, seed=1)
    assert np.sqrt(np.mean(x**2)) == pytest.approx(MODE_RMS_G, rel=1e-9)


def _raw_peak_bin_err(x, f_os, freq, half_window_hz=0.5):
    """Distance (in bins) between freq and the spectral argmax near freq."""
    mags = np.abs(np.fft.rfft(x * np.hanning(x.size)))
    df = f_os / x.size
    lo, hi = int((freq - half_window_hz) / df), int((freq + half_window_hz) / df)
    k = lo + int(np.argmax(mags[lo:hi]))
    return abs(k * df - freq) / df


def test_dwell_peaks_within_one_bin_of_modes():
    x = synth_structure_response(FOUR_MODES, 180 * 25600, seed=0, excitation="dwell")
    for f in FOUR_MODES.freqs:
        assert _raw_peak_bin_err(x, 25600.0, f) <= 1.0


def test_ambient_peaks_near_modes():
    # A noise-driven resonance's single-record spectral peak wanders within
    # the resonance width (~ damping * freq), so the bound scales with mode
    # frequency rather than being a fixed bin count.
    x = synth_structure_response(FOUR_MODES, 180 * 25600, seed=0, excitation="ambient")
    df = 25600.0 / x.size
    for f in FOUR_MODES.freqs:
        width_bins = MODE_DAMPING * f / df
        assert _raw_peak_bin_err(x, 25600.0, f) <= 1.2 * width_bins + 2.0


def test_sensor_offset_only_when_silent():
    v = apply_sensor(np.zeros(1000), SensorSpec(noise_density_ug_sqrthz=1e-12), seed=0)
    assert np.allclose(v, 3.3 / 2, atol=1e-9)


def test_sensor_noise_rms():
    spec = SensorSpec()  # 50 ug/rtHz
    v = apply_sensor(np.zeros(20 * 25600), spec, seed=2)
    noise_g = (v - 3.3 / 2) / spec.sensitivity_v_per_g
    want = 50e-6 * np.sqrt(25600 / 2)
    assert np.std(noise_g) == pytest.approx(want, rel=0.05)


def test_quantize_midscale_and_saturation():
    adc = AdcSpec()
    codes, n_sat = quantize(np.array([3.3 / 2]), adc)
    assert codes[0] == 2048 and n_sat == 0
    codes, n_sat = quantize(np.array([-0.1, 3.4, 1.0]), adc)
    assert n_sat == 2
    assert codes.min() >= 0 and codes.max() <= 4095


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError, match="3 of 4 input samples are not finite"):
        quantize(np.array([1.0, np.nan, np.inf, -np.inf]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(min_value=-0.1, max_value=3.4),
                          st.floats(allow_nan=False, allow_infinity=False)), max_size=50),
       st.sampled_from([AdcSpec(), AdcSpec(bits=1), AdcSpec(bits=24, vref_v=1e-3)]))
def test_quantize_equals_plain_clip_floor(volts, adc):
    v = np.array(volts, dtype=float)
    with np.errstate(over="ignore"):
        raw = np.floor(v / adc.vref_v * adc.n_codes)
    top = adc.n_codes - 1
    codes, n_sat = quantize(v, adc)
    assert codes.dtype == np.float64
    assert np.array_equal(codes, np.clip(raw, 0, top))
    assert n_sat == np.count_nonzero((raw < 0) | (raw > top))


def test_event_injection_peak_and_bounds():
    ev = EventSpec(onset_s=0.5, peak_g=0.8, duration_s=0.2)
    x = inject_transient(np.zeros(25600), ev, 2.807, 25600)
    k = int(np.argmax(np.abs(x)))
    assert abs(x[k]) == pytest.approx(0.8, rel=1e-6)
    assert abs(k / 25600.0 - 0.6) < 0.01          # crest at envelope center
    assert np.all(x[: int(0.5 * 25600) - 1] == 0)
    with pytest.raises(ValueError):
        inject_transient(np.zeros(1000), EventSpec(0.0, 0.5, 1.0), 2.807, 1000)  # too long


def test_event_span_is_the_bursts_samples_within_the_record():
    ev = EventSpec(onset_s=0.5, peak_g=0.8, duration_s=0.5)
    assert event_span(ev, 100.0, 100) == (50, 100)  # ends at the last sample
    with pytest.raises(ValueError, match="event extends past the end of the record"):
        event_span(ev, 100.0, 99)


def test_event_whose_end_overflows_is_past_the_end():
    # its end, times the rate, is not a finite float; rounding it raised
    # OverflowError, which no stage maps
    ev = EventSpec(onset_s=1e308, peak_g=0.1, duration_s=1e308)
    with pytest.raises(ValueError, match="event extends past the end of the record"):
        inject_transient(np.zeros(10), ev, 2.8, 10)


@pytest.mark.parametrize("onset, duration", [
    (float("nan"), 1.0), (float("inf"), 1.0), (0.5, float("nan")), (0.5, float("inf")),
    (-1.0, 1.0), (0.5, -1.0),
])
def test_event_onset_and_duration_must_be_finite_and_non_negative(onset, duration):
    # inject_transient would fail on them only after the record's synthesis,
    # with a float-to-int conversion error
    with pytest.raises(ValueError, match="event onset and duration must be >= 0 and finite"):
        EventSpec(onset_s=onset, peak_g=0.5, duration_s=duration)


@pytest.mark.parametrize("carrier_hz", [2.284, 2.807, 8.379])
def test_event_burst_rings_at_its_carrier(carrier_hz):
    ev = EventSpec(onset_s=0.5, peak_g=0.8, duration_s=2.0)
    x = inject_transient(np.zeros(3 * 25600), ev, carrier_hz, 3 * 25600)
    burst = x[int(0.5 * 25600) + 1:int(2.5 * 25600)]
    crossings = np.count_nonzero(np.diff(np.signbit(burst)))
    assert abs(crossings - 2 * carrier_hz * ev.duration_s) <= 1
    assert np.max(np.abs(x)) == pytest.approx(0.8, rel=1e-6)  # crest at the center


def test_trigger_index():
    ev = EventSpec(onset_s=0.5, peak_g=0.8, duration_s=0.2)
    x = inject_transient(np.zeros(25600), ev, 2.807, 25600)
    idx = trigger_index(x, 0.4)
    assert idx is not None and 0.5 <= idx / 25600.0 <= 0.7
    assert trigger_index(x, 0.9) is None
    with pytest.raises(ValueError):
        trigger_index(x, 0.0)


def test_synth_deterministic_per_seed():
    a = synth_structure_response(FOUR_MODES, 51200, seed=7)
    b = synth_structure_response(FOUR_MODES, 51200, seed=7)
    c = synth_structure_response(FOUR_MODES, 51200, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _naive_front_end(model, n, f_os_hz, seed, excitation, sensor, adc):
    """The front end written as plain whole-array expressions: the oracle."""
    rng = np.random.default_rng(seed)
    accel = np.zeros(n)
    # dwell: angle addition from anchors every 4096 record samples
    k_anchor = np.arange(-(-n // 4096)) * 4096
    j_offset = np.arange(4096)
    for f in model.freqs:
        if excitation == "dwell":
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = MODE_RMS_G * np.sqrt(2.0)
            theta = 2.0 * np.pi * f * (k_anchor / f_os_hz) + phase
            delta = 2.0 * np.pi * f * (j_offset / f_os_hz)
            accel += np.outer(amp * np.sin(theta), np.cos(delta)).ravel()[:n]
            accel += np.outer(amp * np.cos(theta), np.sin(delta)).ravel()[:n]
            continue
        noise = rng.standard_normal(n)
        b, a = _resonator_coeffs(f, f_os_hz)
        y = sp_signal.lfilter(b, a, noise)
        accel += y * (MODE_RMS_G / np.sqrt(np.mean(y * y)))
    noise = np.random.default_rng(seed + 1).standard_normal(n) * sensor.noise_rms_g(f_os_hz)
    volts = sensor.supply_v / 2.0 + sensor.sensitivity_v_per_g * (accel + noise)
    raw = np.floor(volts / adc.vref_v * adc.n_codes).astype(np.int64)
    return accel, volts, np.clip(raw, 0, adc.n_codes - 1)


@pytest.mark.parametrize("excitation", ["dwell", "ambient"])
def test_front_end_matches_plain_expressions_bit_for_bit(excitation):
    # 100 times the default sensitivity puts the modes past the rails, so
    # the clip path is driven too
    sensor, adc = SensorSpec(sensitivity_v_per_g=66.0), AdcSpec()
    accel_ref, volts_ref, codes_ref = _naive_front_end(
        FOUR_MODES, 3 * 25600, F_OS_HZ, 11, excitation, sensor, adc)
    accel = synth_structure_response(FOUR_MODES, 3 * 25600, F_OS_HZ, seed=11,
                                     excitation=excitation)
    volts = apply_sensor(accel, sensor, F_OS_HZ, seed=12)
    codes, n_sat = quantize(volts, adc)
    assert 0 < n_sat < codes.size
    assert np.array_equal(accel, accel_ref)
    assert np.array_equal(volts, volts_ref)
    assert np.array_equal(codes, codes_ref)


def _np_sin_tones(model, n, f_os_hz, seed):
    """Dwell tones as one np.sin per sample, the expression the anchors replace."""
    t = np.arange(n) / f_os_hz
    rng = np.random.default_rng(seed)
    accel = np.zeros(t.size)
    for f in model.freqs:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        accel += MODE_RMS_G * np.sqrt(2.0) * np.sin(2.0 * np.pi * f * t + phase)
    return accel


def test_dwell_tones_within_1e_12_g_of_np_sin():
    accel = synth_structure_response(FOUR_MODES, 180 * 25600, seed=0, excitation="dwell")
    err = np.max(np.abs(accel - _np_sin_tones(FOUR_MODES, 180 * 25600, 25600.0, 0)))
    assert err <= 1e-12, f"{err:.3g} g"


@pytest.mark.parametrize("block", [1000, 4096 + 7])
def test_dwell_blocks_with_unaligned_bounds_join_the_whole_record(block):
    whole = synth_structure_response(FOUR_MODES, 3 * 25600, seed=5, excitation="dwell")
    blocks = [synth_structure_response(FOUR_MODES, whole.size, seed=5, excitation="dwell",
                                       start=i0, stop=min(i0 + block, whole.size))
              for i0 in range(0, whole.size, block)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()


@pytest.mark.parametrize("structure", ["NO_DAMAGE", "DAMAGE_1", "DAMAGE_2"])
def test_dwell_codes_equal_the_np_sin_codes(structure):
    # The anchored tones differ from np.sin by ~1e-13 g, far below the
    # 1.2e-3 g LSB; no code may move, or the shipped bundles would change.
    model, adc = STRUCTURES[structure], AdcSpec()
    codes = []
    for accel in (synth_structure_response(model, 60 * 25600, seed=0, excitation="dwell"),
                  _np_sin_tones(model, 60 * 25600, F_OS_HZ, 0)):
        codes.append(quantize(apply_sensor(accel, SensorSpec(), F_OS_HZ, seed=1), adc))
    assert np.array_equal(codes[0][0], codes[1][0])
    assert codes[0][1] == codes[1][1]


def test_dwell_block_takes_one_sin_and_cos_per_anchor_and_mode(monkeypatch):
    def block_at(i0):
        return synth_structure_response(FOUR_MODES, 10 * 25600, seed=2, excitation="dwell",
                                        start=i0, stop=i0 + 65536)

    def counting(ufunc):
        def call(x, *args, **kwargs):
            sizes.append(np.size(x))
            return ufunc(x, *args, **kwargs)
        return call

    block_at(0)  # fills the offset-table cache
    sizes = []
    for name in ("sin", "cos"):
        monkeypatch.setattr(np, name, counting(getattr(np, name)))
    block_at(4096 * 3 + 5)  # straddles 17 anchors
    assert sizes == [17] * 2 * len(FOUR_MODES.freqs)
    tables = _offset_tables(2.807, 25600.0)
    assert tables is _offset_tables(2.807, 25600.0)
    assert not any(t.flags.writeable for t in tables)


def test_front_end_stages_leave_their_inputs_unchanged(default_chain):
    _, stages, _ = default_chain
    accel = synth_structure_response(FOUR_MODES, 51200, seed=4, excitation="dwell")
    accel_before = accel.copy()
    inject_transient(accel, EventSpec(onset_s=0.5, peak_g=0.3, duration_s=0.5), 2.807, 51200)
    volts = apply_sensor(accel, seed=5)
    assert np.array_equal(accel, accel_before)
    volts_before = volts.copy()
    codes, _ = quantize(volts)
    assert np.array_equal(volts, volts_before)
    codes_before = codes.copy()
    run_chain(codes, stages, AdcSpec(), SensorSpec(), ChainState(stages, len(codes)))
    assert np.array_equal(codes, codes_before)


def test_synthesis_outside_the_record_or_a_block_of_ambient_rejected():
    with pytest.raises(ValueError, match=r"samples \[50, 101\) are not within a record of 100"):
        synth_structure_response(FOUR_MODES, 100, 100.0, excitation="dwell", start=50, stop=101)
    with pytest.raises(ValueError, match="ambient synthesis returns only the whole record"):
        synth_structure_response(FOUR_MODES, 100, 100.0, excitation="ambient", stop=50)
