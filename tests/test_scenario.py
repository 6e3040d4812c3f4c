import hashlib
import sys
from pathlib import Path

import pytest

from shmtwin import decimator
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
    run_scenario(parse_scenario_text(_short_run_text(tmp_path)), write=False)
    assert len(calls) == 1


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
