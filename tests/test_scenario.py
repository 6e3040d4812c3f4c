import hashlib
import math
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
from shmtwin.decimator import ChainState, DecimatorSpec, design_decimator, int16_output, run_chain
from shmtwin.energy import LS336000, SessionPlan, session
from shmtwin.modal import ModalSpec, Verdict, compute_spectrum
from shmtwin.radio import CoverageClass
from shmtwin.signals import (
    AdcSpec,
    SensorSpec,
    StructureModel,
    apply_sensor,
    inject_transient,
    quantize,
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
from test_pinned_outputs import BUNDLE_SHA256

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
    assert s.harvester is False
    assert (s.event, s.trigger_threshold_g) == (None,) * 2
    assert s.modal == ModalSpec()


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
    ("[signal-synth]\nevent_onset_s = inf\nevent_peak_g = 0.5\nevent_duration_s = 1\n",
     "event onset and duration must be >= 0 and finite"),
    ("[dsp-chain]\ncoeff_budget = 0\n", "coeff_budget"),
    ("[signal-synth]\nsensitivity_v_per_g = 2\nevent_onset_s = 1\nevent_peak_g = 1e308\n"
     "event_duration_s = 1\n", "event_peak_g"),
    ("[dsp-chain]\nn_stages = 100000\n", "n_stages = 100000 .* total_decim = 256"),
    ("[dsp-chain]\nn_stages = 7\ntotal_decim = 64\n", "n_stages = 7 .* total_decim = 64"),
    ("[signal-synth]\nadc_bits = 25\n", "ADC bits out of range: 25"),
    ("[signal-synth]\nevent_onset_s = 2\n",
     "event needs all of event_onset_s, event_peak_g, event_duration_s"),
], ids=["no-peaks", "light-above-moderate", "zero-trigger", "atten-underflow",
        "ripple-underflow", "ripple-overflow", "event-peak-nan", "event-peak-inf",
        "infinite-trigger", "event-onset-inf", "zero-budget", "event-volts-overflow",
        "stages-100000-of-256", "stages-7-of-64", "adc-bits-25", "event-onset-only"])
def test_stage_domains_are_checked_at_parse(text, field):
    # the modal and trigger stages would reject these only after the
    # front end had run; a design tolerance that underflows to 0, or a
    # ripple beyond a float, would fail the filter design with a bare
    # math error; a non-finite event peak, or one the sensor turns into a
    # non-finite voltage, would fail only after the whole record's
    # synthesis, and an infinite trigger threshold never fires; a split
    # into more stages than total_decim has prime factors once padded
    # itself with pass-through stages, without bound
    with pytest.raises(ConfigError, match=field):
        parse_scenario_text(MINIMAL + text)


@pytest.mark.parametrize("change", [
    lambda s: replace(s, decimator=replace(s.decimator, f_in_hz=51200.0)),
    lambda s: replace(s, decimator=replace(s.decimator, total_decim=128)),
], ids=["decimator-input", "decimator-output"])
def test_a_scenario_whose_rates_disagree_is_a_config_error(change):
    # the parser sets both copies of the output rate; a scenario built in
    # Python may not
    with pytest.raises(ConfigError, match="sample rates disagree"):
        change(parse_scenario_text(MINIMAL))


def test_plan_longer_than_a_day_is_a_config_error():
    # the energy stage would reject it only after the front end had run
    with pytest.raises(ConfigError, match="more than one day"):
        parse_scenario_text(MINIMAL + "[energy-model]\nt_acq_s = 15000\n")


def _sent(s):
    """A run's output samples, packets sent and data bytes, as its bundle reports them."""
    with tempfile.TemporaryDirectory() as out:
        r = run_scenario(replace(s, outputs=out))
        rows = dict(line.split(",", 1)
                    for line in (r.outputs / "summary.csv").read_text().splitlines())
    return r.samples_out.size, int(rows["packets_sent"]), int(rows["data_bytes"])


@pytest.mark.parametrize("t_acq, samples, packets", [(13.0001, 1300, 2), (180.004, 18000, 28)])
def test_run_sends_the_samples_its_plan_bills(t_acq, samples, packets):
    # 13.0001 s is 1300.01 samples at 100 Hz and 332,802.56 at 25.6 kHz:
    # the record is the plan's 1300 samples times the decimation, so the
    # chain emits 1300 samples in the 2 packets billed, not 1301 in 3
    s = parse_scenario_text(MINIMAL + f"[energy-model]\nt_acq_s = {t_acq}\n")
    assert (s.plan.samples_per_session, s.plan.n_packets) == (samples, packets)
    assert s.record_samples == samples * 256
    assert _sent(s) == (samples, packets, 2 * samples)


@settings(max_examples=15, deadline=None)
@given(st.floats(11.0, 30.0), st.sampled_from([64, 128, 256]), st.integers(0, 2**32 - 1))
def test_any_dwell_run_sends_the_samples_its_plan_bills(t_acq, total_decim, seed):
    s = parse_scenario_text(f"[scenario]\nseed = {seed}\n[dsp-chain]\n"
                            f"total_decim = {total_decim}\n[energy-model]\nt_acq_s = {t_acq!r}\n")
    assert s.excitation == "dwell"
    assert _sent(s) == (s.plan.samples_per_session, s.plan.n_packets,
                        2 * s.plan.samples_per_session)


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


def _mostly(common, rare):
    """Draws from ``common`` unless a drawn digit is 0, else from ``rare``:
    about five draws in six, since Hypothesis draws 0 more often than 1/10."""
    return st.integers(0, 9).flatmap(lambda i: common if i else rare)


# A value for each key, mostly inside its domain; the odd one outside
# (a negative seed, no decimation, a budget below the chain's Kaiser
# floor) gives a ConfigError.
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
    "event_onset_s": _mostly(st.floats(0.0, 10.0, **_FINITE), st.floats(0.0, 200.0, **_FINITE)),
    "event_peak_g": st.floats(0.0, 3.0, **_FINITE),
    "event_duration_s": _mostly(st.floats(0.0, 2.0, **_FINITE), st.floats(0.0, 10.0, **_FINITE)),
    "trigger_threshold_g": st.floats(0.01, 1.0, **_FINITE),
    "n_stages": st.integers(1, 8),
    "total_decim": _mostly(st.sampled_from([64, 128, 256]), st.integers(0, 2**53)),
    "cutoff_hz": st.floats(1.0, 25.0, **_FINITE),
    "passband_ripple_db": st.floats(0.01, 1.0, **_FINITE),
    "stopband_atten_db": st.floats(20.0, 100.0, **_FINITE),
    "coeff_budget": _mostly(st.integers(300, 5000), st.integers(0, 299)),
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
    come all three or none, and ``rssi_dbm`` never with ``coverage``, so
    that most drawn texts parse.  Each key of ``fixed`` is always written,
    its value drawn from the strategy given."""
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
            elif key == "rssi_dbm":
                use = (not any(line.startswith("coverage =") for line in lines)
                       and draw(st.booleans()))
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


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2**53), st.integers(1, 8))
def test_any_total_decimation_parses_or_is_a_config_error(total, n_stages):
    # the input rate is the decimation itself, so the rates always divide;
    # a decimation above the cap is rejected, one within it splits exactly;
    # no chain's Kaiser floor reaches the budget of 2**53 (a stage at the
    # cap needs ~8e10 taps), so the floor rejects none
    text = MINIMAL + (f"[signal-synth]\nf_os_hz = {float(total)!r}\n[dsp-chain]\n"
                      f"total_decim = {total}\nn_stages = {n_stages}\ncutoff_hz = 0.5\n"
                      f"coeff_budget = {2**53}\n")
    try:
        s = parse_scenario_text(text)
    except ConfigError as e:
        assert total <= decimator.MAX_TOTAL_DECIM or "above the cap" in str(e)
    else:
        assert math.prod(s.decimator.stage_decims) == total


def _bundle_names(label: str) -> list[str]:
    return sorted(k.partition("/")[2] for k in BUNDLE_SHA256 if k.startswith(label + "/"))


def test_a_bundle_written_over_longer_files_keeps_its_pinned_bytes(tmp_path):
    # a run into an existing outputs directory leaves no byte of the old files
    out = tmp_path / "long_term_plan"
    out.mkdir()
    junk = b"\xff" * 2**21
    for name in _bundle_names(out.name):
        (out / name).write_bytes(junk)
    ini = SCENARIO_DIR / "long_term_plan.ini"
    run_scenario(replace(load_scenario(ini), outputs=str(out)))
    for name in _bundle_names(out.name):
        data = (out / name).read_bytes()
        assert len(data) < len(junk)
        assert hashlib.sha256(data).hexdigest() == BUNDLE_SHA256[f"{out.name}/{name}"], name
    assert sorted(p.name for p in out.iterdir()) == _bundle_names(out.name)


def test_serialize_round_trip_minimal():
    s = parse_scenario_text(MINIMAL)
    assert parse_scenario_text(serialize_scenario(s)) == s


def test_a_structure_that_no_name_parses_to_does_not_serialize():
    s = replace(parse_scenario_text(MINIMAL), structure=StructureModel((3.0,), "X"))
    with pytest.raises(ValueError, match=r"^structure StructureModel\(freqs=\(3.0,\), "
                                         r"label='X'\) has no name$"):
        serialize_scenario(s)


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
    assert names == ["energy.csv", "spectrum.npy", "summary.csv",
                     "uplink.csv", "verdict.txt"]
    first = _dir_digest(out)
    run_scenario(s)
    assert _dir_digest(out) == first          # byte-identical rerun
    assert "verdict=NO_DAMAGE" in (out / "verdict.txt").read_text()


def test_bundle_holds_the_spectrum_the_peaks_were_picked_from(tmp_path):
    s = parse_scenario_text(_short_run_text(tmp_path))
    r = run_scenario(s)
    rec = np.load(r.outputs / "spectrum.npy", allow_pickle=False)
    spectrum = compute_spectrum(r.sink.samples, f_s_hz=s.decimator.f_out_hz)
    assert rec.dtype.names == ("freq_hz", "magnitude")
    assert np.array_equal(rec["freq_hz"], spectrum.freqs)
    assert np.array_equal(rec["magnitude"], spectrum.mags)


def _bundle(tmp_path, name, extra="") -> dict[str, bytes]:
    text = _short_run_text(tmp_path / name, extra=extra)
    out = run_scenario(parse_scenario_text(text)).outputs
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_harvester_adds_only_the_harvest_rows(tmp_path):
    # the text ends inside [energy-model], so the key lands there
    plain = _bundle(tmp_path, "plain")
    harvested = _bundle(tmp_path, "harvested", extra="harvester = default\n")
    assert plain.keys() == harvested.keys()
    for name in ("energy.csv", "summary.csv"):
        lines = harvested.pop(name).decode().splitlines(keepends=True)
        added = [ln for ln in lines if ln.startswith("harvest_margin_ratio,")]
        assert len(added) == 1
        kept = [ln for ln in lines if ln not in added]
        assert kept == plain.pop(name).decode().splitlines(keepends=True)
    assert harvested == plain


def test_lossless_nbiot_section_changes_nothing(tmp_path):
    assert (_bundle(tmp_path, "lossless", extra="[nbiot-sim]\nloss_prob = 0\n")
            == _bundle(tmp_path, "plain"))


def test_too_short_record_is_a_stage_error(tmp_path):
    s = parse_scenario_text(
        f"[scenario]\nseed = 1\noutputs = {tmp_path}/o\n[energy-model]\nt_acq_s = 2\n")
    with pytest.raises(StageError) as exc:
        run_scenario(s, write=False)
    assert exc.value.stage == "modal"


# An event whose sensed peak is not a finite voltage is rejected at parse;
# the front end's finite-sample guard still stands for the random draws.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_acceleration_is_a_synth_error(tmp_path):
    # noise so loud that the sensed voltage overflows on some samples
    text = _short_run_text(tmp_path, extra=("[signal-synth]\nsensitivity_v_per_g = 1e12\n"
                                            "noise_density_ug_sqrthz = 1e300\n"))
    with pytest.raises(StageError) as exc:
        run_scenario(parse_scenario_text(text), write=False)
    assert exc.value.stage == "synth"
    assert "not finite" in str(exc.value)


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
    record_bytes = int(round(s.plan.t_acq_s * s.decimator.f_in_hz)) * 8
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
    assert len(r.uplink.packets) == s.plan.n_packets
    _, _, _, e_radio = session(s.plan, s.coverage)
    assert r.uplink.energy_j != pytest.approx(e_radio)


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
        # 307,200 input samples, the plan's 1,200 times the decimation
        text = (f"[scenario]\nseed = 11\noutputs = {tmp_path}/{name}\n"
                f"[energy-model]\nt_acq_s = 12\n" + extra)
        sizes.clear()
        r = run_scenario(parse_scenario_text(text))
        # the last stage holds its 1,200 outputs, fewer than a run, until
        # the record's last block flushes them
        assert sizes[-1] == r.samples_out.size == 1200 < decimator._MIN_RUN
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
@pytest.mark.parametrize("onset, duration", [(179, 5), (11, 1.0001), ("1e305", 1)])
def test_event_past_the_end_is_a_config_error(tmp_path, excitation, onset, duration):
    # a finite onset of 1e305 s is past the end too: times f_os_hz, it overflows
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
    f_os, n = s.decimator.f_in_hz, s.record_samples
    stages, _ = design_decimator(s.decimator)
    noise = np.random.default_rng(s.seed + 1)
    chain = ChainState(stages, n)
    out, n_sat, trig = [], 0, None
    for i0 in range(0, n, scenario._BLOCK):
        i1 = min(i0 + scenario._BLOCK, n)
        accel = synth_structure_response(s.structure, n, f_os_hz=f_os,
                                         seed=s.seed, excitation=s.excitation,
                                         start=i0, stop=i1)
        accel = inject_transient(accel, s.event, s.structure.freqs[0], n,
                                 f_os_hz=f_os, start=i0)
        hit = trigger_index(accel, s.trigger_threshold_g)
        if trig is None and hit is not None:
            trig = i0 + hit
        codes, sat = quantize(apply_sensor(accel, s.sensor, f_os_hz=f_os, seed=noise), s.adc)
        n_sat += sat
        out.append(run_chain(codes, stages, s.adc, s.sensor, state=chain))
    return int16_output(np.concatenate(out)), n_sat, trig


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


def test_non_finite_block_late_in_the_record_is_a_synth_error(tmp_path, monkeypatch):
    real = scenario.apply_sensor
    calls = []

    def nan_on_third_block(*args, **kwargs):
        calls.append(None)
        volts = real(*args, **kwargs)
        return np.full_like(volts, np.nan) if len(calls) == 3 else volts

    monkeypatch.setattr(scenario, "apply_sensor", nan_on_third_block)
    threads = threading.active_count()
    with pytest.raises(StageError) as exc:
        run_scenario(parse_scenario_text(_short_run_text(tmp_path)), write=False)
    assert exc.value.stage == "synth"
    assert "not finite" in str(exc.value)
    assert len(calls) >= 3
    assert threading.active_count() == threads


# two of the per-block functions run on each thread of the front end
@pytest.mark.parametrize("name, stage", [("synth_structure_response", "synth"),
                                         ("apply_sensor", "synth"), ("quantize", "synth"),
                                         ("run_chain", "dsp")])
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


@pytest.mark.parametrize("text, message", [
    ("seed = 1\n", "cannot parse scenario: File contains no section headers"),
    (MINIMAL + "seed = 2\n",
     "cannot parse scenario: .* option 'seed' in section 'scenario' already exists"),
], ids=["no-section", "duplicate-key"])
def test_text_configparser_cannot_read_is_a_config_error(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_scenario_text(text)
