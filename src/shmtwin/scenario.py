"""Scenario files and the end-to-end pipeline they drive.

A scenario is a flat INI-style file with one section per stage of the
node: signal synthesis, the decimation chain, modal analysis, the uplink,
and the energy plan.  Each key sets one field of ``Scenario`` or of a spec
it holds (``_TABLE``); a key left out keeps that field's default.  Unknown
sections or keys are errors.  Every run is fully seeded; two runs of the
same file produce byte-identical outputs.

The pipeline mirrors the device: synthesize ground-truth acceleration,
apply the sensor and ADC, decimate to the output rate, packetize and
uplink, reassemble at the sink, estimate modal peaks, compare against the
baseline structure, and account the day's energy.  The front end, up to
the decimated output, runs in fixed blocks of the record with its state
carried between them, so its memory does not grow with the record.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import inspect
import math
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import presets
from .decimator import (
    ChainState,
    DecimatorSpec,
    FilterReport,
    FilterStage,
    check_warmup,
    design_decimator,
    run_chain,
)
from .energy import (
    DAYS_PER_YEAR,
    BatterySpec,
    EnergyBreakdown,
    HarvesterSpec,
    SessionPlan,
    battery_life_days,
    energy_day,
    energy_neutral,
)
from .modal import (
    DamageReport,
    ModalEstimate,
    compare_modes,
    compute_spectrum,
    detect_peaks,
    verdict_line,
)
from .radio import (
    SAMPLES_PER_PACKET,
    CoverageClass,
    EnergyParams,
    SinkReport,
    UplinkRecord,
    classify_coverage,
    deliver,
    event_rows,
    packetize,
    uplink_session,
    write_event_log,
)
from .signals import (
    AdcSpec,
    EventSpec,
    SensorSpec,
    StructureModel,
    apply_sensor,
    inject_transient,
    quantize,
    record_samples,
    synth_structure_response,
    trigger_index,
)
from .seriesio import write_csv_columns, write_csv_rows


class ConfigError(Exception):
    """Bad scenario file: unknown key, missing requirement, bad value."""


class StageError(Exception):
    """A pipeline stage failed; carries the stage name for exit reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@contextlib.contextmanager
def stage(name: str):
    """Re-raise a failure of the stage run inside as a ``StageError``."""
    try:
        yield
    except (ValueError, RuntimeError, OSError) as e:
        raise StageError(name, e) from e


def _default(fn, name: str):
    """The default that function ``fn`` gives its parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


@dataclass(frozen=True)
class Scenario:
    """One configured run of the node.

    A field a scenario file leaves out keeps its default here, and each of
    those defaults is the one its owner gives: the spec dataclasses, or the
    modal functions for their parameters.  The scenario's own choices are
    the dwell excitation, the NO_DAMAGE structure and a 180 s record.
    """

    label: str
    seed: int
    outputs: str
    structure: StructureModel = presets.NO_DAMAGE
    baseline: StructureModel = presets.NO_DAMAGE
    excitation: str = "dwell"
    sensor: SensorSpec = SensorSpec()
    adc: AdcSpec = AdcSpec()
    decimator: DecimatorSpec = DecimatorSpec()
    max_peaks: int = _default(detect_peaks, "max_peaks")
    min_prominence: float = _default(detect_peaks, "min_prominence")
    light_shift_pct: float = _default(compare_modes, "light_pct")
    moderate_shift_pct: float = _default(compare_modes, "moderate_pct")
    rssi_dbm: float | None = None
    coverage: CoverageClass = CoverageClass.GOOD
    uplink_mode: str = "deterministic"
    loss_prob: float = 0.0
    plan: SessionPlan = SessionPlan(t_acq_s=180.0)
    battery: BatterySpec = presets.BATTERIES["LS336000"]
    harvester: HarvesterSpec | None = None
    event: EventSpec | None = None
    trigger_threshold_g: float | None = None

    def __post_init__(self):
        # every stage seeds a numpy Generator from it, and those take no
        # negative seed
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigError(f"loss_prob must be in [0, 1), got {self.loss_prob}")
        # the stages that use these check them only after the front end ran
        if self.max_peaks < 1:
            raise ConfigError(f"max_peaks must be >= 1, got {self.max_peaks}")
        if not 0.0 <= self.min_prominence < math.inf:
            raise ConfigError(f"min_prominence must be in [0, inf), got {self.min_prominence}")
        if not 0.0 < self.light_shift_pct < self.moderate_shift_pct:
            raise ConfigError("need 0 < light_shift_pct < moderate_shift_pct")
        if self.trigger_threshold_g is not None and not 0 < self.trigger_threshold_g < math.inf:
            raise ConfigError("trigger_threshold_g must be in (0, inf), "
                              f"got {self.trigger_threshold_g}")
        try:
            energy_day(self.plan, self.coverage)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        f_os = self.adc.f_os_hz
        n_in = round(self.plan.t_acq_s * f_os)
        # the plan bills round(t_acq_s * f_s) samples, the chain emits
        # ceil(n_in / total_decim), and the two may fall either side of a
        # packet boundary
        n_out = -(-n_in // self.decimator.total_decim)
        n_pkt = -(-n_out // SAMPLES_PER_PACKET)
        if n_pkt != self.plan.n_packets:
            raise ConfigError(f"t_acq_s = {self.plan.t_acq_s!r} bills {self.plan.n_packets} "
                              f"packets but its {n_out}-sample record sends {n_pkt}")
        if self.event is not None:
            # inject_transient's sample arithmetic; an infinite event never fits
            end = (self.event.onset_s + self.event.duration_s) * f_os
            if not math.isfinite(end) or round(end) > n_in:
                raise ConfigError("event extends past the end of the record")


# The scenario file: section -> key -> the Scenario field the key reads and
# writes, as a dotted path into the spec that holds it.  The order is the
# order serialize_scenario writes.
_TABLE: dict[str, dict[str, str]] = {
    "scenario": {
        "label": "label",
        "seed": "seed",
        "outputs": "outputs",
        "baseline": "baseline",
    },
    "signal-synth": {
        "structure": "structure",
        "excitation": "excitation",
        "noise_density_ug_sqrthz": "sensor.noise_density_ug_sqrthz",
        "sensitivity_v_per_g": "sensor.sensitivity_v_per_g",
        "full_scale_g": "sensor.full_scale_g",
        "supply_v": "sensor.supply_v",
        "adc_bits": "adc.bits",
        "vref_v": "adc.vref_v",
        "f_os_hz": "adc.f_os_hz",
        "event_onset_s": "event.onset_s",
        "event_peak_g": "event.peak_g",
        "event_duration_s": "event.duration_s",
        "trigger_threshold_g": "trigger_threshold_g",
    },
    "dsp-chain": {
        "n_stages": "decimator.n_stages",
        "total_decim": "decimator.total_decim",
        "cutoff_hz": "decimator.cutoff_hz",
        "passband_ripple_db": "decimator.passband_ripple_db",
        "stopband_atten_db": "decimator.stopband_atten_db",
        "coeff_budget": "decimator.coeff_budget",
    },
    "modal-analysis": {
        "max_peaks": "max_peaks",
        "min_prominence": "min_prominence",
        "light_shift_pct": "light_shift_pct",
        "moderate_shift_pct": "moderate_shift_pct",
    },
    "nbiot-sim": {
        "coverage": "coverage",
        "rssi_dbm": "rssi_dbm",
        "mode": "uplink_mode",
        "loss_prob": "loss_prob",
    },
    "energy-model": {
        "n_sessions_per_day": "plan.n_sessions_per_day",
        "t_acq_s": "plan.t_acq_s",
        "k_acq": "plan.k_acq",
        "battery": "battery",
        "battery_derating": "battery.derating",
        "harvester": "harvester",
    },
}

# Keys whose values are names: name -> the value it stands for.
_NAMES = {
    "baseline": presets.STRUCTURES,
    "structure": presets.STRUCTURES,
    "excitation": {n: n for n in ("ambient", "dwell")},
    "coverage": CoverageClass.__members__,
    "mode": {n: n for n in ("deterministic", "stochastic")},
    "battery": presets.BATTERIES,
    "harvester": {"none": None, "default": presets.DEFAULT_HARVESTER},
}


_hints = functools.cache(typing.get_type_hints)


def _leaf_type(path: str) -> type:
    """Type of the field a path ends on, with ``X | None`` read as X."""
    t = Scenario
    for name in path.split("."):
        t = _hints(t)[name]
        t = (typing.get_args(t) or (t,))[0]
    return t


# Every other key converts with the type of its field.
_TYPES = {key: _leaf_type(path) for keys in _TABLE.values()
          for key, path in keys.items() if key not in _NAMES}


def _convert(key: str, raw: str):
    if key in _TYPES:
        return _TYPES[key](raw)
    if raw not in _NAMES[key]:
        raise ValueError(f"{raw!r} is not one of {sorted(_NAMES[key])}")
    return _NAMES[key][raw]


def _name_of(key: str, value) -> str:
    """The name that parses to ``value``; a derated battery keeps its name."""
    for name, v in _NAMES[key].items():
        if v == value or isinstance(v, BatterySpec) and v.name == value.name:
            return name
    raise ValueError(f"{key} {value!r} has no name")


def _get(obj, path: str):
    for name in path.split("."):
        obj = None if obj is None else getattr(obj, name)
    return obj


def parse_scenario_text(text: str) -> Scenario:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True,
                                    interpolation=None)
    try:
        cfg.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse scenario: {e}") from e
    # the keys given, by the path of the object they set fields of; "" is
    # the Scenario itself
    given: dict[str, dict] = {"": {}}
    for section in cfg.sections():
        if section not in _TABLE:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg[section]:
            if key not in _TABLE[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            path = _TABLE[section][key]
            try:
                value = _convert(key, cfg.get(section, key))
            except ValueError as e:
                raise ConfigError(f"bad value for {key} in [{section}]: {e}") from e
            owner, _, name = path.rpartition(".")
            given.setdefault(owner, {})[name] = value
    top = given.pop("")
    if "seed" not in top:
        raise ConfigError("missing required key 'seed' in [scenario]")

    if len(given.get("event", ())) not in (0, 3):
        raise ConfigError("event needs all of event_onset_s, event_peak_g, event_duration_s")
    if "coverage" in top and "rssi_dbm" in top:
        raise ConfigError("give coverage or rssi_dbm, not both")
    label = top.get("label") or top.get("structure", Scenario.structure).label
    top.update(label=label, outputs=top.get("outputs") or f"runs/{label.lower()}")
    try:
        if "rssi_dbm" in top:
            top["coverage"] = classify_coverage(top["rssi_dbm"])
        f_os = given.get("adc", {}).get("f_os_hz", Scenario.adc.f_os_hz)
        top["decimator"] = replace(Scenario.decimator, f_in_hz=f_os,
                                   **given.pop("decimator", {}))
        given.setdefault("plan", {})["f_s_hz"] = top["decimator"].f_out_hz
        for owner, values in given.items():
            top[owner] = (EventSpec(**values) if owner == "event" else
                          replace(top.get(owner, getattr(Scenario, owner)), **values))
        return Scenario(**top)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read scenario: {e}") from e
    return parse_scenario_text(text)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    sections = []
    for section, keys in _TABLE.items():
        lines = [f"[{section}]"]
        for key, path in keys.items():
            if key == "coverage" and s.rssi_dbm is not None:
                continue  # the RSSI sets the class
            value = _get(s, path)
            if key in _NAMES:
                value = _name_of(key, value)
            elif value is None:
                continue
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
        sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)


# ---------------------------------------------------------------------------
# pipeline

@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    filter_report: FilterReport
    samples_out: np.ndarray
    uplink: UplinkRecord
    sink: SinkReport
    estimate: ModalEstimate
    report: DamageReport
    breakdown: EnergyBreakdown
    life_days: float
    margin: float | None
    trigger_sample: int | None
    outputs: Path


# Input samples per block of the streamed front end.  Each block pays a
# hand-off between the pipeline's two threads: on two cores a 180 s dwell
# run is fastest at 64 Ki, ~5-15 % slower at 128-256 Ki and 1.3-2x slower
# at 32 Ki and 16 Ki.  Peak memory grows with the block.
_BLOCK = 65536


def _sense(s: Scenario, n: int,
           stages: tuple[FilterStage, ...]) -> tuple[np.ndarray, int, int | None]:
    """Synthesize, sense, quantize and decimate the record block by block.

    The blocks run through a two-stage pipeline, one block ahead.  A
    worker thread runs the analog half of each block in record order:
    synthesis, the event, the trigger search and the sensor noise, drawn
    from one Generator.  The calling thread runs the digital half of the
    block before it: the quantizer and the chain, whose held stage inputs
    it carries.  Each half has one thread and sees its blocks in order, so
    the output is the same, bit for bit, as running the blocks one after
    the other.  Both halves spend most of their time in numpy calls that
    release the GIL, so they overlap.  The worker is joined
    before this returns or raises.

    Dwell tones are synthesized per block.  Ambient modes are normalized
    over the whole record, so that record is synthesized in one pass and
    read in block slices.  Only the output series is a whole-record
    array.  Returns the output samples, the saturated-code count and the
    trigger sample.
    """
    f_os = s.adc.f_os_hz
    noise = np.random.default_rng(s.seed + 1)
    chain = ChainState(stages, n)
    trig = None

    def analog(i0: int) -> np.ndarray:
        # Runs in the worker thread, which alone draws from ``noise`` and
        # sets ``trig``.
        nonlocal trig
        i1 = min(i0 + _BLOCK, n)
        if ambient is None:
            accel = synth_structure_response(
                s.structure, s.plan.t_acq_s, f_os_hz=f_os, seed=s.seed,
                excitation=s.excitation, start=i0, stop=i1,
            )
        else:
            accel = ambient[i0:i1]
        if s.event is not None:
            accel = inject_transient(accel, s.event, s.structure.modes[0].freq_hz,
                                     f_os_hz=f_os, start=i0, record_len=n)
        if trig is None and s.trigger_threshold_g is not None:
            hit = trigger_index(accel, s.trigger_threshold_g)
            trig = None if hit is None else i0 + hit
        return apply_sensor(accel, s.sensor, f_os_hz=f_os, seed=noise)

    out = []
    n_sat = 0
    with stage("synth"):
        ambient = (synth_structure_response(s.structure, s.plan.t_acq_s, f_os_hz=f_os,
                                            seed=s.seed, excitation=s.excitation)
                   if s.excitation == "ambient" else None)
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(analog, 0)
        for i0 in range(0, n, _BLOCK):
            with stage("synth"):
                volts = ahead.result()
                if i0 + _BLOCK < n:
                    ahead = worker.submit(analog, i0 + _BLOCK)
                codes, sat = quantize(volts, s.adc)
            n_sat += sat
            with stage("dsp"):
                out.append(run_chain(codes, stages, s.adc, s.sensor, state=chain))
    return np.concatenate(out), n_sat, trig


def run_scenario(s: Scenario, write: bool = True) -> RunResult:
    params = EnergyParams()

    with stage("synth"):
        n = record_samples(s.structure, s.plan.t_acq_s, s.adc.f_os_hz, s.excitation)

    with stage("dsp"):
        stages, filt_report = design_decimator(s.decimator)
        check_warmup(n, stages)

    samples, n_sat, trig = _sense(s, n, stages)

    with stage("uplink"):
        packets = packetize(samples, session_id=0)
        uplink = uplink_session(packets, s.coverage, params,
                                mode=s.uplink_mode, seed=s.seed + 2)
        sink = deliver(packets, s.loss_prob, seed=s.seed + 3)

    with stage("modal"):
        spectrum = compute_spectrum(sink.samples, f_s_hz=s.decimator.f_out_hz)
        estimate = detect_peaks(spectrum, max_peaks=s.max_peaks,
                                min_prominence=s.min_prominence)
        report = compare_modes(s.baseline.mode_freqs(), estimate.peaks,
                               light_pct=s.light_shift_pct,
                               moderate_pct=s.moderate_shift_pct)

    with stage("energy"):
        breakdown = energy_day(s.plan, s.coverage, params)
        life = battery_life_days(s.plan, s.battery, s.coverage, params)
        margin = None
        if s.harvester is not None:
            _, margin = energy_neutral(s.plan, s.harvester, s.coverage, params)

    outputs = Path(s.outputs)
    result = RunResult(
        scenario=s, filter_report=filt_report, samples_out=samples,
        uplink=uplink, sink=sink, estimate=estimate, report=report,
        breakdown=breakdown, life_days=life, margin=margin,
        trigger_sample=trig, outputs=outputs,
    )
    if write:
        with stage("write"):
            _write_bundle(result, spectrum, n_sat)
    return result


def _write_bundle(r: RunResult, spectrum, n_sat: int) -> None:
    s = r.scenario
    out = r.outputs
    out.mkdir(parents=True, exist_ok=True)

    write_csv_columns(out / "spectrum.csv",
                      {"freq_hz": spectrum.freqs, "magnitude": spectrum.mags})

    write_event_log(out / "uplink.csv", event_rows(r.uplink, sink=r.sink))

    energy_rows = r.breakdown.rows()
    energy_rows += [
        ("battery", s.battery.name),
        ("battery_capacity_j", s.battery.usable_j),
        ("battery_life_days", r.life_days),
        ("battery_life_years", r.life_days / DAYS_PER_YEAR),
    ]
    if r.margin is not None:
        energy_rows.append(("harvest_margin_ratio", r.margin))
    write_csv_rows(out / "energy.csv", ("parameter", "value"), energy_rows)

    summary: list[tuple[str, object]] = [
        ("label", s.label),
        ("seed", s.seed),
        ("structure", s.structure.label),
        ("baseline", s.baseline.label),
        ("excitation", s.excitation),
        ("coverage", s.coverage.name),
        ("samples_out", int(r.samples_out.size)),
        ("saturated_codes", int(n_sat)),
        ("trigger_sample", -1 if r.trigger_sample is None else int(r.trigger_sample)),
        ("packets_sent", len(r.uplink.packets)),
        ("packets_delivered", r.sink.delivered_count),
        ("packets_missing", len(r.sink.missing_seqs)),
        ("session_energy_j", r.uplink.energy_j),
        ("session_duration_s", r.uplink.duration_s),
        ("data_bytes", 2 * int(r.samples_out.size)),
        ("filter_taps", r.filter_report.total_coeffs),
        ("filter_ripple_db", r.filter_report.passband_ripple_db),
        ("filter_atten_db", r.filter_report.stopband_atten_db),
        ("e_day_j", r.breakdown.e_day_j),
        ("battery_life_days", r.life_days),
        ("verdict", r.report.verdict.name),
        ("worst_shift_pct", r.report.worst_shift_pct()),
        ("missing_modes", len(r.report.missing)),
    ]
    for i, f in enumerate(r.estimate.peaks, 1):
        summary.append((f"peak{i}_hz", f))
    for i, sh in enumerate(r.report.shifts, 1):
        summary.append((f"mode{i}_baseline_hz", sh.baseline_hz))
        summary.append((f"mode{i}_current_hz",
                        "" if sh.current_hz is None else sh.current_hz))
        summary.append((f"mode{i}_shift_hz",
                        "" if sh.shift_hz is None else sh.shift_hz))
    if r.margin is not None:
        summary.append(("harvest_margin_ratio", r.margin))
    write_csv_rows(out / "summary.csv", ("metric", "value"), summary)

    with open(out / "verdict.txt", "w", encoding="utf-8") as f:
        f.write(verdict_line(r.report) + "\n")
