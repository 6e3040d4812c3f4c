import hashlib
import inspect
import sys
import tempfile
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shmtwin import decimator, presets, scenario
from shmtwin.decimator import ChainState, DecimatorSpec, design_decimator, run_chain
from shmtwin.energy import LS336000, SessionPlan
from shmtwin.modal import Verdict, compare_modes, detect_peaks
from shmtwin.radio import CoverageClass, session_energy_j
from shmtwin.signals import (
    AdcSpec,
    SensorSpec,
    apply_sensor,
    inject_transient,
    quantize,
    record_samples,
    synth_structure_response,
    trigger_index,
)
from shmtwin.scenario import (
    ConfigError,
    StageError,
    load_scenario,
    parse_scenario_text,
    run_scenario,
    serialize_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"

MINIMAL = """\
[scenario]
seed = 5
"""


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def test_minimal_text_gets_defaults():
    s = parse_scenario_text(MINIMAL)
    assert s.seed == 5
    assert s.structure.label == "NO_DAMAGE"
    assert s.baseline.label == "NO_DAMAGE"
    assert s.excitation == "dwell"
    assert s.coverage is CoverageClass.GOOD
    assert s.plan.t_acq_s == 180.0
    assert s.loss_prob == 0.0


def test_seed_is_mandatory():
    with pytest.raises(ConfigError):
        parse_scenario_text("[scenario]\nlabel = x\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_scenario_text(MINIMAL + "typo_key = 1\n")


@pytest.mark.parametrize("key", ["t3324_s", "t3412_s"])
def test_nbiot_timer_keys_rejected(key):
    # the session energies already bill the timers; the keys are not accepted
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[nbiot-sim\\]"):
        parse_scenario_text(MINIMAL + f"[nbiot-sim]\n{key} = 60\n")


@pytest.mark.parametrize("window", ["hann", "rect"])
def test_window_key_rejected(window):
    # the spectrum is always Hann-windowed, the window the sidelobe gate models
    with pytest.raises(ConfigError, match="unknown key 'window' in \\[modal-analysis\\]"):
        parse_scenario_text(MINIMAL + f"[modal-analysis]\nwindow = {window}\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_scenario_text(MINIMAL + "[mystery]\nx = 1\n")


def test_coverage_and_rssi_mutually_exclusive():
    text = MINIMAL + "[nbiot-sim]\ncoverage = GOOD\nrssi_dbm = -80\n"
    with pytest.raises(ConfigError):
        parse_scenario_text(text)


def test_rssi_sets_coverage_class():
    s = parse_scenario_text(MINIMAL + "[nbiot-sim]\nrssi_dbm = -100\n")
    assert s.coverage is CoverageClass.MEDIUM


def test_unknown_structure_preset():
    with pytest.raises(ConfigError):
        parse_scenario_text(MINIMAL + "[signal-synth]\nstructure = BRIDGE_9\n")


def test_unknown_battery_preset():
    with pytest.raises(ConfigError):
        parse_scenario_text(MINIMAL + "[energy-model]\nbattery = AAA\n")


def test_bare_seed_gets_the_owners_defaults():
    s = parse_scenario_text("[scenario]\nseed = 0\n")
    assert s.sensor == SensorSpec()
    assert s.adc == AdcSpec()
    assert s.decimator == DecimatorSpec()
    assert s.plan == SessionPlan(t_acq_s=180.0, f_s_hz=DecimatorSpec().f_out_hz)
    assert s.battery == LS336000
    assert (s.harvester, s.event, s.rssi_dbm, s.trigger_threshold_g) == (None,) * 4

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert s.max_peaks == default(detect_peaks, "max_peaks")
    assert s.min_prominence == default(detect_peaks, "min_prominence")
    assert s.light_shift_pct == default(compare_modes, "light_pct")
    assert s.moderate_shift_pct == default(compare_modes, "moderate_pct")


@pytest.mark.parametrize("text", [
    "[nbiot-sim]\nrssi_dbm = nan\n",
    "[nbiot-sim]\nrssi_dbm = -inf\n",
    "[dsp-chain]\ntotal_decim = 0\n",
    "[energy-model]\nt_acq_s = inf\n",
    "[energy-model]\nk_acq = nan\n",
    "[energy-model]\nk_acq = inf\n",
    "[signal-synth]\nvref_v = nan\n",
    "[signal-synth]\nfull_scale_g = inf\n",
    "[signal-synth]\nnoise_density_ug_sqrthz = nan\n",
    "[signal-synth]\nnoise_density_ug_sqrthz = inf\n",
    "[signal-synth]\nsensitivity_v_per_g = inf\n",
    "[signal-synth]\nsupply_v = nan\n",
    "[dsp-chain]\npassband_ripple_db = nan\n",
    "[dsp-chain]\nstopband_atten_db = inf\n",
    "[modal-analysis]\nmin_prominence = nan\n",
], ids=["rssi-nan", "rssi-inf", "decim-0", "tacq-inf", "kacq-nan", "kacq-inf",
        "vref-nan", "full-scale-inf", "noise-nan", "noise-inf", "sensitivity-inf",
        "supply-nan", "ripple-nan", "atten-inf", "prominence-nan"])
def test_out_of_domain_values_are_config_errors(text):
    with pytest.raises(ConfigError):
        parse_scenario_text(MINIMAL + text)


@pytest.mark.parametrize("text, field", [
    ("[modal-analysis]\nmax_peaks = 0\n", "max_peaks"),
    ("[modal-analysis]\nlight_shift_pct = 20\n", "light_shift_pct"),
    ("[signal-synth]\ntrigger_threshold_g = 0\n", "trigger_threshold_g"),
    ("[dsp-chain]\nstopband_atten_db = 1e6\n", "stopband_atten_db"),
    ("[dsp-chain]\npassband_ripple_db = 1e-300\n", "passband_ripple_db"),
    ("[dsp-chain]\npassband_ripple_db = 1e6\n", "passband_ripple_db"),
    ("[signal-synth]\nevent_onset_s = 1\nevent_peak_g = nan\nevent_duration_s = 1\n",
     "peak_g"),
    ("[signal-synth]\nevent_onset_s = 1\nevent_peak_g = inf\nevent_duration_s = 1\n",
     "peak_g"),
    ("[signal-synth]\ntrigger_threshold_g = inf\n", "trigger_threshold_g"),
    ("[dsp-chain]\ncoeff_budget = 0\n", "coeff_budget"),
], ids=["no-peaks", "light-above-moderate", "zero-trigger", "atten-underflow",
        "ripple-underflow", "ripple-overflow", "event-peak-nan", "event-peak-inf",
        "infinite-trigger", "zero-budget"])
def test_stage_domains_are_checked_at_parse(text, field):
    # the modal and trigger stages would reject these only after the
    # front end had run; a design tolerance that underflows to 0, or a
    # ripple beyond a float, would fail the filter design with a bare
    # math error; a non-finite event peak would fail only after the whole
    # record's synthesis, and an infinite trigger threshold never fires
    with pytest.raises(ConfigError, match=field):
        parse_scenario_text(MINIMAL + text)


def test_plan_longer_than_a_day_is_a_config_error():
    # the energy stage would reject it only after the front end had run
    with pytest.raises(ConfigError, match="more than one day"):
        parse_scenario_text(MINIMAL + "[energy-model]\nt_acq_s = 15000\n")


def test_plan_that_bills_other_packets_than_it_sends_is_a_config_error():
    # round(13.0001 * 100) = 1300 samples bill 2 packets; the chain emits
    # ceil(round(13.0001 * 25600) / 256) = 1301 samples, which fill 3
    with pytest.raises(ConfigError, match="t_acq_s = 13.0001 bills 2 packets"):
        parse_scenario_text(MINIMAL + "[energy-model]\nt_acq_s = 13.0001\n")


@pytest.mark.parametrize("error", [ValueError, RuntimeError, OSError])
def test_stage_names_the_failing_stage(error):
    cause = error("boom")
    with pytest.raises(StageError) as exc:
        with scenario.stage("modal"):
            raise cause
    assert exc.value.stage == "modal"
    assert exc.value.__cause__ is cause
    assert str(exc.value) == "stage modal: boom"


def test_stage_lets_other_errors_through():
    with pytest.raises(KeyError):
        with scenario.stage("modal"):
            raise KeyError("x")


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        parse_scenario_text("[scenario]\nseed = -5\n")


def test_percent_sign_is_literal():
    s = parse_scenario_text(MINIMAL + "label = 50%\n")
    assert s.label == "50%"
    assert parse_scenario_text(serialize_scenario(s)) == s


_FINITE = {"allow_nan": False, "allow_infinity": False}

# A value for each key, mostly inside its domain; the odd one outside
# (a negative seed, no decimation) gives a ConfigError.
_VALUES = {
    "label": st.text("abcXYZ019_-%", max_size=8),
    "seed": st.integers(-1, 2**32 - 1),
    "outputs": st.text("abc019_/", max_size=8),
    "noise_density_ug_sqrthz": st.floats(0.0, 500.0, **_FINITE),
    "sensitivity_v_per_g": st.floats(0.01, 5.0, **_FINITE),
    "full_scale_g": st.floats(0.1, 16.0, **_FINITE),
    "supply_v": st.floats(0.5, 5.5, **_FINITE),
    "adc_bits": st.integers(1, 24),
    "vref_v": st.floats(0.5, 5.5, **_FINITE),
    "f_os_hz": st.sampled_from([12800.0, 25600.0, 51200.0]),
    "event_onset_s": st.floats(0.0, 200.0, **_FINITE),
    "event_peak_g": st.floats(0.0, 3.0, **_FINITE),
    "event_duration_s": st.floats(0.0, 10.0, **_FINITE),
    "trigger_threshold_g": st.floats(0.01, 1.0, **_FINITE),
    "n_stages": st.integers(1, 8),
    "total_decim": st.sampled_from([0, 64, 128, 256]),
    "cutoff_hz": st.floats(1.0, 25.0, **_FINITE),
    "passband_ripple_db": st.floats(0.01, 1.0, **_FINITE),
    "stopband_atten_db": st.floats(20.0, 100.0, **_FINITE),
    "coeff_budget": st.integers(10, 5000),
    "max_peaks": st.integers(1, 16),
    "min_prominence": st.floats(1.0, 100.0, **_FINITE),
    "light_shift_pct": st.floats(0.1, 5.0, **_FINITE),
    "moderate_shift_pct": st.floats(5.0, 20.0, **_FINITE),
    "rssi_dbm": st.floats(-130.0, -60.0, **_FINITE),
    "loss_prob": st.floats(0.0, 0.99, **_FINITE),
    "n_sessions_per_day": st.integers(0, 24),
    "t_acq_s": st.floats(1.0, 1200.0, **_FINITE),
    "k_acq": st.floats(0.5, 10.0, **_FINITE),
    "battery_derating": st.floats(0.5, 1.0, **_FINITE),
}


def test_value_strategies_cover_the_table():
    table_keys = {k for keys in scenario._TABLE.values() for k in keys}
    assert set(_VALUES) == table_keys - set(scenario._NAMES)


def _value(key):
    if key in scenario._NAMES:
        return st.sampled_from(sorted(scenario._NAMES[key]))
    return _VALUES[key].map(lambda v: repr(v) if isinstance(v, float) else str(v))


@st.composite
def scenario_texts(draw, fixed=None):
    """INI text with a random subset of the table's keys.  The event keys
    come all three or none, so that most drawn texts parse.  Each key of
    ``fixed`` is always written, its value drawn from the strategy given."""
    fixed = fixed or {}
    with_event = draw(st.booleans())
    sections = []
    for section, keys in scenario._TABLE.items():
        lines = [f"[{section}]"]
        for key, path in keys.items():
            if key in fixed:
                lines.append(f"{key} = {draw(fixed[key])!r}")
                continue
            if path.startswith("event."):
                use = with_event
            else:
                use = key == "seed" or draw(st.booleans())
            if use:
                lines.append(f"{key} = {draw(_value(key))}")
        sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)


@settings(max_examples=100, deadline=None)
@given(scenario_texts())
def test_serialize_round_trips_any_parsed_scenario(text):
    try:
        s = parse_scenario_text(text)
    except ConfigError:
        assume(False)
    assert parse_scenario_text(serialize_scenario(s)) == s


@settings(max_examples=25, deadline=None)
@given(scenario_texts(fixed={"t_acq_s": st.sampled_from([13.0, 19.5, 26.0])}))
def test_any_scenario_runs_or_fails_as_config_or_stage_error(text):
    # the whole pipeline, bundle included, on short records
    try:
        s = parse_scenario_text(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run_scenario(replace(s, outputs=out))
        except StageError:
            pass


def test_serialize_round_trip_minimal():
    s = parse_scenario_text(MINIMAL)
    assert parse_scenario_text(serialize_scenario(s)) == s


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.ini")))
def test_shipped_scenarios_round_trip(name):
    s = load_scenario(SCENARIO_DIR / name)
    assert parse_scenario_text(serialize_scenario(s)) == s


def _short_run_text(tmp_path, label="t", extra=""):
    return (f"[scenario]\nlabel = {label}\nseed = 3\noutputs = {tmp_path}/out\n"
            f"[energy-model]\nt_acq_s = 45\n" + extra)


def test_no_damage_run_says_no_damage(tmp_path):
    s = parse_scenario_text(_short_run_text(tmp_path))
    r = run_scenario(s, write=False)
    assert r.report.verdict is Verdict.NO_DAMAGE
    assert abs(r.report.worst_shift_pct()) < 0.05
    assert len(r.estimate.peaks) == 4


def test_lossless_pipeline_conserves_samples(tmp_path):
    s = parse_scenario_text(_short_run_text(tmp_path))
    r = run_scenario(s, write=False)
    assert r.sink.missing_seqs == ()
    assert r.sink.samples.size == r.samples_out.size
    assert r.uplink.energy_j > 0


def test_damage_presets_detected(tmp_path):
    s = parse_scenario_text(
        _short_run_text(tmp_path, extra="[signal-synth]\nstructure = DAMAGE_2\n"))
    r = run_scenario(s, write=False)
    assert r.report.verdict is Verdict.MODERATE
    assert r.report.shifts[0].shift_pct == pytest.approx(-18.6, abs=1.0)


def test_run_writes_stable_bundle(tmp_path):
    s = parse_scenario_text(_short_run_text(tmp_path))
    r = run_scenario(s)
    out = r.outputs
    names = sorted(p.name for p in out.iterdir())
    assert names == ["energy.csv", "spectrum.csv", "summary.csv",
                     "uplink.csv", "verdict.txt"]
    first = _dir_digest(out)
    run_scenario(s)
    assert _dir_digest(out) == first          # byte-identical rerun
    assert "verdict=NO_DAMAGE" in (out / "verdict.txt").read_text()


def test_too_short_record_is_a_stage_error(tmp_path):
    s = parse_scenario_text(
        f"[scenario]\nseed = 1\noutputs = {tmp_path}/o\n[energy-model]\nt_acq_s = 2\n")
    with pytest.raises(StageError) as exc:
        run_scenario(s, write=False)
    assert exc.value.stage == "modal"


# A non-finite event peak is rejected at parse, so these runs reach the
# front end's finite-sample guard through an overflow instead: a finite peak
# and a finite sensitivity whose product, the burst's crests as sensed
# acceleration in volts, is infinite.
_OVERFLOWING_EVENT = ("[signal-synth]\nsensitivity_v_per_g = 2\nevent_onset_s = {}\n"
                      "event_peak_g = 1e308\nevent_duration_s = 1\n")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_acceleration_is_a_synth_error(tmp_path):
    text = _short_run_text(tmp_path, extra=_OVERFLOWING_EVENT.format(1))
    with pytest.raises(StageError) as exc:
        run_scenario(parse_scenario_text(text), write=False)
    assert exc.value.stage == "synth"


def test_run_measures_the_chain_once(tmp_path, monkeypatch):
    measure = decimator.measure_response
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return measure(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("shmtwin."):
            monkeypatch.setattr(module, "measure_response", counting, raising=False)
    decimator.design_decimator.cache_clear()
    s = parse_scenario_text(_short_run_text(tmp_path))
    run_scenario(s, write=False)
    assert len(calls) == 1
    run_scenario(s, write=False)  # same spec: the cached design is reused
    assert len(calls) == 1


def test_run_peak_memory_in_record_sizes(tmp_path):
    s = parse_scenario_text(
        f"[scenario]\nseed = 3\noutputs = {tmp_path}/out\n[energy-model]\nt_acq_s = 30\n")
    run_scenario(s, write=False)  # warm-up: filter design and lazy imports
    record_bytes = int(round(s.plan.t_acq_s * s.adc.f_os_hz)) * 8
    tracemalloc.start()
    try:
        run_scenario(s, write=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * record_bytes, f"peak {peak / record_bytes:.2f} record-sizes"


def test_event_trigger_location(tmp_path):
    text = (f"[scenario]\nseed = 9\noutputs = {tmp_path}/o\n"
            "[signal-synth]\nexcitation = ambient\nevent_onset_s = 20\n"
            "event_peak_g = 0.5\nevent_duration_s = 2\ntrigger_threshold_g = 0.2\n"
            "[energy-model]\nt_acq_s = 45\n")
    s = parse_scenario_text(text)
    r = run_scenario(s, write=False)
    assert r.trigger_sample is not None
    # trigger fires once the half-sine envelope clears 0.2 g, shortly after onset
    assert 20.0 <= r.trigger_sample / 25600.0 <= 21.0


def test_stochastic_uplink_scenario_runs(tmp_path):
    text = _short_run_text(tmp_path, extra="[nbiot-sim]\nmode = stochastic\nloss_prob = 0.2\n")
    s = parse_scenario_text(text)
    r = run_scenario(s, write=False)
    # the lognormal draw reached the record: not the class-mean session bill
    assert r.uplink.energy_j != pytest.approx(session_energy_j(len(r.uplink.packets),
                                                               s.coverage))


def test_dwell_peak_memory_flat_in_record_length(tmp_path):
    peaks = []
    for t_acq in (30, 120):
        s = parse_scenario_text(f"[scenario]\nseed = 3\noutputs = {tmp_path}/out\n"
                                f"[energy-model]\nt_acq_s = {t_acq}\n")
        run_scenario(s, write=False)  # warm-up: filter design and lazy imports
        tracemalloc.start()
        try:
            run_scenario(s, write=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], f"peaks {peaks[0]} -> {peaks[1]} bytes"


_STRADDLE = (
    # the burst starts in the first default block and the trigger fires in
    # the second; a 3 g peak drives the ADC into saturation
    "[signal-synth]\nexcitation = ambient\nevent_onset_s = 2.5\n"
    "event_peak_g = 3.0\nevent_duration_s = 1.0\ntrigger_threshold_g = 0.2\n"
)


@pytest.mark.parametrize("extra", ["", _STRADDLE], ids=["dwell", "ambient-event"])
@pytest.mark.parametrize("block", [1000, 4096 + 7, 10**9])
def test_block_size_does_not_change_the_run(tmp_path, monkeypatch, extra, block):
    real = scenario.run_chain
    sizes = []  # outputs of each block's run_chain call

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(scenario, "run_chain", counting)

    def run(name):
        # 307,201 input samples: no multiple of any stage's decimation
        text = (f"[scenario]\nseed = 11\noutputs = {tmp_path}/{name}\n"
                f"[energy-model]\nt_acq_s = 12.00002\n" + extra)
        sizes.clear()
        r = run_scenario(parse_scenario_text(text))
        # the last stage holds its 1,201 outputs, fewer than a run, until
        # the record's last block flushes them
        assert sizes[-1] == r.samples_out.size == 1201 < decimator._MIN_RUN
        assert not any(sizes[:-1])
        return r, (r.outputs / "summary.csv").read_text(), _dir_digest(r.outputs)

    ref, ref_summary, ref_digest = run("default")
    if extra:
        assert ref.trigger_sample is not None
        assert 2.5 * 25600 < scenario._BLOCK < ref.trigger_sample
        assert "saturated_codes,0\n" not in ref_summary
    monkeypatch.setattr(scenario, "_BLOCK", block)
    r, summary, digest = run("other")
    assert r.samples_out.tobytes() == ref.samples_out.tobytes()
    assert r.trigger_sample == ref.trigger_sample
    assert summary == ref_summary  # saturated_codes among the rest
    assert digest == ref_digest


@pytest.mark.parametrize("excitation", ["ambient", "dwell"])
@pytest.mark.parametrize("onset, duration", [(179, 5), (11, 1.0001), ("inf", 1)])
def test_event_past_the_end_is_a_config_error(tmp_path, excitation, onset, duration):
    text = _short_run_text(tmp_path, extra=(
        f"[signal-synth]\nexcitation = {excitation}\nevent_onset_s = {onset}\n"
        f"event_peak_g = 0.5\nevent_duration_s = {duration}\n"))
    with pytest.raises(ConfigError, match="past the end"):
        parse_scenario_text(text.replace("t_acq_s = 45", "t_acq_s = 12"))


def test_event_ending_at_the_last_sample_runs(tmp_path):
    text = _short_run_text(tmp_path, extra=("[signal-synth]\nevent_onset_s = 11\n"
                                            "event_peak_g = 0.5\nevent_duration_s = 1\n"))
    s = parse_scenario_text(text.replace("t_acq_s = 45", "t_acq_s = 12"))
    assert run_scenario(s, write=False).samples_out.size == 12 * 100


def test_event_does_not_hide_damage_2():
    # The burst is 50 times the modes' amplitude; ringing at the first mode
    # of the structure under test, it leaves that mode's shift in place.
    shipped = [load_scenario(p) for p in sorted(SCENARIO_DIR.glob("*.ini"))]
    with_event = [s for s in shipped if s.event is not None]
    assert with_event
    for s in with_event:
        for seed in (2000, 2001, 2002):
            r = run_scenario(replace(s, structure=presets.DAMAGE_2, seed=seed), write=False)
            assert r.report.verdict is not Verdict.NO_DAMAGE, (s.label, seed)


def test_record_shorter_than_the_warm_up_is_a_dsp_error(tmp_path):
    text = _short_run_text(tmp_path).replace("t_acq_s = 45", "t_acq_s = 0.1")
    with pytest.raises(StageError) as exc:
        run_scenario(parse_scenario_text(text), write=False)
    assert exc.value.stage == "dsp"
    assert "2560 samples" in str(exc.value)


# a dwell record of five default blocks; a 3 g burst in the third block
# saturates the ADC and fires the trigger
_DWELL_EVENT = (
    "[signal-synth]\nevent_onset_s = 6\nevent_peak_g = 3.0\n"
    "event_duration_s = 1.0\ntrigger_threshold_g = 0.2\n"
)


def _sequential_front_end(s):
    """The front end as one plain loop over blocks of the public stage functions."""
    f_os = s.adc.f_os_hz
    n = record_samples(s.structure, s.plan.t_acq_s, f_os, s.excitation)
    stages, _ = design_decimator(s.decimator)
    noise = np.random.default_rng(s.seed + 1)
    chain = ChainState(stages, n)
    out, n_sat, trig = [], 0, None
    for i0 in range(0, n, scenario._BLOCK):
        i1 = min(i0 + scenario._BLOCK, n)
        accel = synth_structure_response(s.structure, s.plan.t_acq_s, f_os_hz=f_os,
                                         seed=s.seed, excitation=s.excitation,
                                         start=i0, stop=i1)
        accel = inject_transient(accel, s.event, s.structure.modes[0].freq_hz,
                                 f_os_hz=f_os, start=i0, record_len=n)
        hit = trigger_index(accel, s.trigger_threshold_g)
        if trig is None and hit is not None:
            trig = i0 + hit
        codes, sat = quantize(apply_sensor(accel, s.sensor, f_os_hz=f_os, seed=noise), s.adc)
        n_sat += sat
        out.append(run_chain(codes, stages, s.adc, s.sensor, state=chain))
    return np.concatenate(out), n_sat, trig


def test_pipelined_front_end_equals_the_sequential_composition(tmp_path):
    s = parse_scenario_text(_short_run_text(tmp_path, extra=_DWELL_EVENT).replace(
        "t_acq_s = 45", "t_acq_s = 12"))
    assert s.excitation == "dwell"
    samples, n_sat, trig = _sequential_front_end(s)
    assert n_sat > 0 and trig > 2 * scenario._BLOCK
    r = run_scenario(s)
    summary = (r.outputs / "summary.csv").read_text()
    assert np.array_equal(r.samples_out, samples)
    assert f"saturated_codes,{n_sat}\n" in summary
    assert r.trigger_sample == trig


def test_concurrent_runs_under_a_short_switch_interval_equal_the_oracle(tmp_path, monkeypatch):
    # three runs at once, each with its worker: more threads than cores,
    # switching as often as the interpreter allows, on short blocks
    monkeypatch.setattr(scenario, "_BLOCK", 4096 + 7)
    runs = [parse_scenario_text(_short_run_text(tmp_path, extra=_DWELL_EVENT).replace(
        "seed = 3", f"seed = {seed}").replace("t_acq_s = 45", "t_acq_s = 12"))
        for seed in (3, 4, 5)]
    expected = [_sequential_front_end(s) for s in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            futures = [pool.submit(run_scenario, s, write=False) for s in runs]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for r, (samples, _, trig) in zip(results, expected):
        assert np.array_equal(r.samples_out, samples)
        assert r.trigger_sample == trig


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_block_late_in_the_record_is_a_synth_error(tmp_path):
    text = _short_run_text(tmp_path, extra=_OVERFLOWING_EVENT.format(6))
    assert 6 * 25600 >= 2 * scenario._BLOCK
    threads = threading.active_count()
    with pytest.raises(StageError) as exc:
        run_scenario(parse_scenario_text(text), write=False)
    assert exc.value.stage == "synth"
    assert threading.active_count() == threads


@pytest.mark.parametrize("name, stage", [("apply_sensor", "synth"), ("run_chain", "dsp")])
def test_stage_failing_on_its_third_block_names_its_stage(tmp_path, monkeypatch, name, stage):
    real = getattr(scenario, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError(f"{name} fails on block 3")
        return real(*args, **kwargs)

    monkeypatch.setattr(scenario, name, failing)
    threads = threading.active_count()
    with pytest.raises(StageError) as exc:
        run_scenario(parse_scenario_text(_short_run_text(tmp_path)), write=False)
    assert exc.value.stage == stage
    assert "fails on block 3" in str(exc.value)
    assert len(calls) >= 3
    assert threading.active_count() == threads
