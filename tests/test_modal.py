import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmtwin.modal import (
    _local_maxima,
    _parabolic_refine,
    ModalSpec,
    Verdict,
    compare_modes,
    compute_spectrum,
    detect_peaks,
    verdict_line,
)

FS = 100.0


def _tone(freqs, duration_s=180.0, amps=None, fs=FS):
    t = np.arange(int(duration_s * fs)) / fs
    amps = amps if amps is not None else [1.0] * len(freqs)
    return sum(a * np.sin(2 * np.pi * f * t + 0.3) for f, a in zip(freqs, amps))


def test_requires_minimum_record():
    with pytest.raises(ValueError):
        compute_spectrum(np.zeros(1023), f_s_hz=FS)


def test_zero_input_zero_spectrum():
    spec = compute_spectrum(np.zeros(4096), f_s_hz=FS)
    assert np.all(spec.mags == 0.0)
    assert len(detect_peaks(spec).peaks) == 0


def test_single_tone_lands_on_bin():
    spec = compute_spectrum(_tone([10.0]), f_s_hz=FS)
    assert abs(spec.freqs[np.argmax(spec.mags)] - 10.0) <= spec.df_hz


def test_peak_refinement_subbin_accuracy():
    # parabolic interpolation should localize a clean tone far below bin width
    rng = np.random.default_rng(7)
    for f0 in rng.uniform(1.0, 45.0, size=8):
        spec = compute_spectrum(_tone([f0]), f_s_hz=FS)
        est = detect_peaks(spec, ModalSpec(max_peaks=1))
        assert len(est.peaks) == 1
        err_pct = abs(est.peaks[0] - f0) / f0 * 100.0
        assert err_pct < 0.02, f"{f0:.4f} Hz off by {err_pct:.4f}%"


def test_two_equal_tones_both_found():
    spec = compute_spectrum(_tone([8.0, 21.0]), f_s_hz=FS)
    est = detect_peaks(spec, ModalSpec(max_peaks=2))
    got = sorted(est.peaks)
    assert abs(got[0] - 8.0) < 0.05 and abs(got[1] - 21.0) < 0.05


def test_close_pair_resolved():
    # 0.3 Hz apart, 180 s record: separation is ~54 half-bins of resolution
    spec = compute_spectrum(_tone([8.0, 8.3]), f_s_hz=FS)
    est = detect_peaks(spec, ModalSpec(max_peaks=2))
    got = sorted(est.peaks)
    assert len(got) == 2
    assert abs(got[0] - 8.0) < 0.05 and abs(got[1] - 8.3) < 0.05


def test_scale_invariant_frequencies():
    x = _tone([5.0, 17.0])
    f1 = detect_peaks(compute_spectrum(x, f_s_hz=FS), ModalSpec(max_peaks=2)).peaks
    f2 = detect_peaks(compute_spectrum(250.0 * x, f_s_hz=FS), ModalSpec(max_peaks=2)).peaks
    assert np.allclose(f1, f2, atol=1e-12)


def test_flat_noise_yields_no_confident_peaks():
    rng = np.random.default_rng(3)
    spec = compute_spectrum(rng.standard_normal(8192), f_s_hz=FS)
    est = detect_peaks(spec, ModalSpec(max_peaks=8, min_prominence=10.0))
    assert len(est.peaks) <= 1     # nothing in white noise clears a 10x floor by right


def test_self_comparison_reports_no_damage():
    base = (2.807, 8.379, 13.125, 16.052)
    report = compare_modes(base, base)
    assert report.verdict is Verdict.NO_DAMAGE
    assert report.missing == ()
    assert all(s.shift_pct == 0.0 for s in report.shifts)


def test_missing_mode_counted():
    base = (2.807, 8.379, 13.125, 16.052)
    cur = (2.807, 13.125, 16.052)
    report = compare_modes(base, cur)
    assert report.missing == (8.379,)
    # one row per baseline mode, the missing one carried as a placeholder
    assert len(report.shifts) == 4
    gap = [s for s in report.shifts if s.baseline_hz == 8.379]
    assert gap[0].current_hz is None and gap[0].shift_pct is None
    assert "missing=1" in verdict_line(report)


def test_verdict_thresholds():
    def verdict_for(shift_pct):
        return compare_modes((10.0,), (10.0 * (1 + shift_pct / 100.0),)).verdict

    assert verdict_for(-0.5) is Verdict.NO_DAMAGE
    assert verdict_for(-1.5) is Verdict.LIGHT
    assert verdict_for(-12.0) is Verdict.MODERATE


def test_verdict_monotone_in_shift():
    order = [Verdict.NO_DAMAGE, Verdict.LIGHT, Verdict.MODERATE]
    last = 0
    for shift in np.linspace(0.0, 15.0, 40):
        rank = order.index(compare_modes((10.0,), (10.0 * (1 - shift / 100.0),)).verdict)
        assert rank >= last
        last = rank


def test_verdict_line_format():
    line = verdict_line(compare_modes((10.0,), (9.9,)))
    assert line.startswith("verdict=")
    assert "worst_shift_pct=" in line and "matched=1" in line


def test_a_flat_top_is_refined_to_its_middle_bin():
    mags = np.array([0.1, 1.0, 2.0, 2.0, 2.0, 1.0, 0.1])
    assert _local_maxima(mags).tolist() == [3]
    assert _parabolic_refine(mags, 3) == 3.0


# few distinct levels, so that ties and plateaus are common, or magnitudes
# over the whole range, zero and the log floor included
_MAGS = st.one_of(
    st.lists(st.integers(0, 6), min_size=3, max_size=60).map(lambda v: np.array(v) * 0.37),
    st.lists(st.floats(0.0, 1e300), min_size=3, max_size=60).map(np.array))


@settings(max_examples=150, deadline=None)
@given(_MAGS)
def test_refinement_keeps_each_local_maximum_within_its_neighbours(mags):
    # detect_peaks refines only local maxima, where the vertex lies within
    # half a bin in exact arithmetic; refinement has no clamp to one bin
    for k in _local_maxima(mags).tolist():
        assert abs(_parabolic_refine(mags, k) - k) < 1.0
