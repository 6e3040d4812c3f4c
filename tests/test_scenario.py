import hashlib
import sys
import tracemalloc
from pathlib import Path

import pytest

from shmtwin import decimator, scenario
from shmtwin.modal import Verdict
from shmtwin.radio import CoverageClass
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


# an infinite peak times the envelope's zero at onset gives NaN as well as inf
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_acceleration_is_a_synth_error(tmp_path):
    text = _short_run_text(tmp_path, extra=("[signal-synth]\nevent_onset_s = 1\n"
                                            "event_peak_g = inf\nevent_duration_s = 1\n"))
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
    r = run_scenario(parse_scenario_text(text), write=False)
    assert r.uplink.mode == "stochastic"


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
    def run(name):
        text = (f"[scenario]\nseed = 11\noutputs = {tmp_path}/{name}\n"
                f"[energy-model]\nt_acq_s = 12\n" + extra)
        r = run_scenario(parse_scenario_text(text))
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


def test_event_past_the_end_is_a_synth_error(tmp_path):
    text = _short_run_text(tmp_path, extra=("[signal-synth]\nevent_onset_s = 179\n"
                                            "event_peak_g = 0.5\nevent_duration_s = 5\n"))
    text = text.replace("t_acq_s = 45", "t_acq_s = 180")
    with pytest.raises(StageError) as exc:
        run_scenario(parse_scenario_text(text), write=False)
    assert exc.value.stage == "synth"


def test_record_shorter_than_the_warm_up_is_a_dsp_error(tmp_path):
    text = _short_run_text(tmp_path).replace("t_acq_s = 45", "t_acq_s = 0.1")
    with pytest.raises(StageError) as exc:
        run_scenario(parse_scenario_text(text), write=False)
    assert exc.value.stage == "dsp"
    assert "2560 samples" in str(exc.value)
