import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmtwin.signals import (
    AdcSpec,
    EventSpec,
    ModeSpec,
    SensorSpec,
    StructureModel,
    apply_sensor,
    dequantize,
    inject_transient,
    quantize,
    synth_structure_response,
    trigger_index,
)

FOUR_MODES = StructureModel(
    modes=(ModeSpec(2.807), ModeSpec(8.379), ModeSpec(13.125), ModeSpec(16.052)),
    label="test",
)


def test_mode_validation():
    with pytest.raises(ValueError):
        ModeSpec(0.0)
    with pytest.raises(ValueError):
        ModeSpec(5.0, damping_ratio=1.0)
    with pytest.raises(ValueError):
        ModeSpec(5.0, rms_amp_g=-1.0)
    with pytest.raises(ValueError):
        StructureModel(modes=(), label="empty")
    with pytest.raises(ValueError):
        StructureModel(modes=(ModeSpec(8.0), ModeSpec(2.0)), label="unsorted")


def test_zero_amplitude_modes_give_zero_series():
    model = StructureModel(modes=(ModeSpec(2.807, rms_amp_g=0.0),), label="quiet")
    x = synth_structure_response(model, 1.0, seed=3)
    assert x.shape == (25600,)
    assert np.all(x == 0.0)


def test_mode_above_nyquist_rejected():
    model = StructureModel(modes=(ModeSpec(60.0),), label="hot")
    with pytest.raises(ValueError):
        synth_structure_response(model, 1.0, f_os_hz=100.0)


def test_bad_excitation_and_duration_rejected():
    with pytest.raises(ValueError):
        synth_structure_response(FOUR_MODES, 1.0, excitation="hammer")
    with pytest.raises(ValueError):
        synth_structure_response(FOUR_MODES, 0.0)


def test_ambient_rms_matches_spec():
    model = StructureModel(modes=(ModeSpec(2.807, rms_amp_g=0.01),), label="one")
    x = synth_structure_response(model, 30.0, seed=1)
    assert np.sqrt(np.mean(x**2)) == pytest.approx(0.01, rel=1e-9)


def _raw_peak_bin_err(x, f_os, freq, half_window_hz=0.5):
    """Distance (in bins) between freq and the spectral argmax near freq."""
    mags = np.abs(np.fft.rfft(x * np.hanning(x.size)))
    df = f_os / x.size
    lo, hi = int((freq - half_window_hz) / df), int((freq + half_window_hz) / df)
    k = lo + int(np.argmax(mags[lo:hi]))
    return abs(k * df - freq) / df


def test_dwell_peaks_within_one_bin_of_modes():
    x = synth_structure_response(FOUR_MODES, 180.0, seed=0, excitation="dwell")
    for m in FOUR_MODES.modes:
        assert _raw_peak_bin_err(x, 25600.0, m.freq_hz) <= 1.0


def test_ambient_peaks_near_modes():
    # A noise-driven resonance's single-record spectral peak wanders within
    # the resonance width (~ damping * freq), so the bound scales with mode
    # frequency rather than being a fixed bin count.
    x = synth_structure_response(FOUR_MODES, 180.0, seed=0, excitation="ambient")
    df = 25600.0 / x.size
    for m in FOUR_MODES.modes:
        width_bins = m.damping_ratio * m.freq_hz / df
        assert _raw_peak_bin_err(x, 25600.0, m.freq_hz) <= 1.2 * width_bins + 2.0


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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=3.2999), min_size=1, max_size=50))
def test_quantize_dequantize_round_trip(volts):
    adc = AdcSpec()
    codes, n_sat = quantize(np.array(volts), adc)
    assert n_sat == 0
    again, _ = quantize(dequantize(codes, adc), adc)
    assert np.array_equal(codes, again)


def test_event_injection_peak_and_bounds():
    ev = EventSpec(onset_s=0.5, peak_g=0.8, duration_s=0.2)
    x = inject_transient(np.zeros(25600), ev)
    k = int(np.argmax(np.abs(x)))
    assert abs(x[k]) == pytest.approx(0.8, rel=1e-6)
    assert abs(k / 25600.0 - 0.6) < 0.01          # crest at envelope center
    assert np.all(x[: int(0.5 * 25600) - 1] == 0)
    with pytest.raises(ValueError):
        inject_transient(np.zeros(1000), EventSpec(0.0, 0.5, 1.0))  # too long


def test_trigger_index():
    ev = EventSpec(onset_s=0.5, peak_g=0.8, duration_s=0.2)
    x = inject_transient(np.zeros(25600), ev)
    idx = trigger_index(x, 0.4)
    assert idx is not None and 0.5 <= idx / 25600.0 <= 0.7
    assert trigger_index(x, 0.9) is None
    with pytest.raises(ValueError):
        trigger_index(x, 0.0)


def test_synth_deterministic_per_seed():
    a = synth_structure_response(FOUR_MODES, 2.0, seed=7)
    b = synth_structure_response(FOUR_MODES, 2.0, seed=7)
    c = synth_structure_response(FOUR_MODES, 2.0, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
