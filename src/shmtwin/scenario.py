"""Scenario files and the end-to-end pipeline they drive.

A scenario is a flat INI-style file with one section per stage of the
node: signal synthesis, the decimation chain, modal analysis, the uplink,
and the energy plan.  Unknown sections or keys are errors.  Every run is
fully seeded; two runs of the same file produce byte-identical outputs.

The pipeline mirrors the device: synthesize ground-truth acceleration,
apply the sensor and ADC, decimate to the output rate, packetize and
uplink, reassemble at the sink, estimate modal peaks, compare against the
baseline structure, and account the day's energy.  The front end, up to
the decimated output, runs in fixed blocks of the record with its state
carried between them, so its memory does not grow with the record.
"""

from __future__ import annotations

import configparser
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
    Peak,
    compare_modes,
    compute_spectrum,
    detect_peaks,
    verdict_line,
)
from .radio import (
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
from .seriesio import write_csv_columns


class ConfigError(Exception):
    """Bad scenario file: unknown key, missing requirement, bad value."""


class StageError(Exception):
    """A pipeline stage failed; carries the stage name for exit reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class Scenario:
    label: str
    seed: int
    outputs: str
    structure: StructureModel
    baseline: StructureModel
    excitation: str
    sensor: SensorSpec
    adc: AdcSpec
    decimator: DecimatorSpec
    modal_window: str
    max_peaks: int
    min_prominence: float
    light_shift_pct: float
    moderate_shift_pct: float
    rssi_dbm: float | None
    coverage: CoverageClass
    uplink_mode: str
    loss_prob: float
    plan: SessionPlan
    battery: BatterySpec
    harvester: HarvesterSpec | None
    event: EventSpec | None
    trigger_threshold_g: float | None


# Schema: section -> key -> (converter, default).  REQUIRED means the key
# must be present in the file.
REQUIRED = object()

_SCHEMA: dict[str, dict[str, tuple]] = {
    "scenario": {
        "label": (str, ""),
        "seed": (int, REQUIRED),
        "outputs": (str, ""),
        "baseline": (str, "NO_DAMAGE"),
    },
    "signal-synth": {
        "structure": (str, "NO_DAMAGE"),
        "excitation": (str, "dwell"),
        "noise_density_ug_sqrthz": (float, 50.0),
        "sensitivity_v_per_g": (float, 0.66),
        "full_scale_g": (float, 2.0),
        "supply_v": (float, 3.3),
        "adc_bits": (int, 12),
        "vref_v": (float, 3.3),
        "f_os_hz": (float, 25600.0),
        "event_onset_s": (float, None),
        "event_peak_g": (float, None),
        "event_duration_s": (float, None),
        "trigger_threshold_g": (float, None),
    },
    "dsp-chain": {
        "n_stages": (int, 6),
        "total_decim": (int, 256),
        "cutoff_hz": (float, 50.0),
        "passband_ripple_db": (float, 0.1),
        "stopband_atten_db": (float, 60.0),
        "coeff_budget": (int, 1000),
    },
    "modal-analysis": {
        "window": (str, "hann"),
        "max_peaks": (int, 8),
        "min_prominence": (float, 10.0),
        "light_shift_pct": (float, 1.0),
        "moderate_shift_pct": (float, 10.0),
    },
    "nbiot-sim": {
        "coverage": (str, None),
        "rssi_dbm": (float, None),
        "mode": (str, "deterministic"),
        "loss_prob": (float, 0.0),
    },
    "energy-model": {
        "n_sessions_per_day": (int, 6),
        "t_acq_s": (float, 180.0),
        "k_acq": (float, 6.5),
        "battery": (str, "LS336000"),
        "battery_derating": (float, 1.0),
        "harvester": (str, "none"),
    },
}


def _collect(cfg: configparser.ConfigParser) -> dict[str, dict]:
    """Apply the schema: reject unknowns, convert types, fill defaults."""
    for section in cfg.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    out: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        out[section] = {}
        for key, (conv, default) in keys.items():
            if cfg.has_option(section, key):
                raw = cfg.get(section, key)
                try:
                    out[section][key] = conv(raw)
                except ValueError as e:
                    raise ConfigError(f"bad value for {key} in [{section}]: {e}") from e
            elif default is REQUIRED:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            else:
                out[section][key] = default
    return out


def parse_scenario_text(text: str) -> Scenario:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True)
    try:
        cfg.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse scenario: {e}") from e
    d = _collect(cfg)

    sc, syn, dsp, mod, nb, en = (d["scenario"], d["signal-synth"], d["dsp-chain"],
                                 d["modal-analysis"], d["nbiot-sim"], d["energy-model"])

    def preset_structure(name):
        if name not in presets.STRUCTURES:
            raise ConfigError(f"unknown structure preset {name!r}; "
                              f"one of {sorted(presets.STRUCTURES)}")
        return presets.STRUCTURES[name]

    structure = preset_structure(syn["structure"])
    baseline = preset_structure(sc["baseline"])
    if syn["excitation"] not in ("ambient", "dwell"):
        raise ConfigError(f"excitation must be ambient or dwell, got {syn['excitation']!r}")
    if mod["window"] not in ("rect", "hann"):
        raise ConfigError(f"window must be rect or hann, got {mod['window']!r}")
    if nb["mode"] not in ("deterministic", "stochastic"):
        raise ConfigError(f"mode must be deterministic or stochastic, got {nb['mode']!r}")
    if not 0.0 <= nb["loss_prob"] < 1.0:
        raise ConfigError(f"loss_prob must be in [0, 1), got {nb['loss_prob']}")

    if nb["coverage"] is not None and nb["rssi_dbm"] is not None:
        raise ConfigError("give coverage or rssi_dbm, not both")
    if nb["rssi_dbm"] is not None:
        coverage = classify_coverage(nb["rssi_dbm"])
    elif nb["coverage"] is not None:
        try:
            coverage = CoverageClass[nb["coverage"]]
        except KeyError:
            raise ConfigError(f"unknown coverage {nb['coverage']!r}") from None
    else:
        coverage = CoverageClass.GOOD

    event_keys = (syn["event_onset_s"], syn["event_peak_g"], syn["event_duration_s"])
    if any(v is not None for v in event_keys) and not all(v is not None for v in event_keys):
        raise ConfigError("event needs all of event_onset_s, event_peak_g, event_duration_s")

    if en["battery"] not in presets.BATTERIES:
        raise ConfigError(f"unknown battery {en['battery']!r}; one of {sorted(presets.BATTERIES)}")
    if en["harvester"] not in ("none", "default"):
        raise ConfigError(f"harvester must be none or default, got {en['harvester']!r}")

    label = sc["label"] or syn["structure"]
    try:
        sensor = SensorSpec(
            noise_density_ug_sqrthz=syn["noise_density_ug_sqrthz"],
            sensitivity_v_per_g=syn["sensitivity_v_per_g"],
            full_scale_g=syn["full_scale_g"],
            supply_v=syn["supply_v"],
        )
        adc = AdcSpec(bits=syn["adc_bits"], vref_v=syn["vref_v"], f_os_hz=syn["f_os_hz"])
        if syn["f_os_hz"] % dsp["total_decim"]:
            raise ValueError("f_os_hz must divide evenly by total_decim")
        decimator = DecimatorSpec(
            n_stages=dsp["n_stages"],
            total_decim=dsp["total_decim"],
            f_in_hz=syn["f_os_hz"],
            f_out_hz=syn["f_os_hz"] / dsp["total_decim"],
            cutoff_hz=dsp["cutoff_hz"],
            passband_ripple_db=dsp["passband_ripple_db"],
            stopband_atten_db=dsp["stopband_atten_db"],
            coeff_budget=dsp["coeff_budget"],
        )
        battery = replace(presets.BATTERIES[en["battery"]], derating=en["battery_derating"])
        plan = SessionPlan(
            n_sessions_per_day=en["n_sessions_per_day"],
            t_acq_s=en["t_acq_s"],
            f_s_hz=decimator.f_out_hz,
            k_acq=en["k_acq"],
        )
        event = (EventSpec(onset_s=syn["event_onset_s"], peak_g=syn["event_peak_g"],
                           duration_s=syn["event_duration_s"])
                 if syn["event_onset_s"] is not None else None)
    except ValueError as e:
        raise ConfigError(str(e)) from e

    return Scenario(
        label=label,
        seed=sc["seed"],
        outputs=sc["outputs"] or f"runs/{label.lower()}",
        structure=structure,
        baseline=baseline,
        excitation=syn["excitation"],
        sensor=sensor,
        adc=adc,
        decimator=decimator,
        modal_window=mod["window"],
        max_peaks=mod["max_peaks"],
        min_prominence=mod["min_prominence"],
        light_shift_pct=mod["light_shift_pct"],
        moderate_shift_pct=mod["moderate_shift_pct"],
        rssi_dbm=nb["rssi_dbm"],
        coverage=coverage,
        uplink_mode=nb["mode"],
        loss_prob=nb["loss_prob"],
        plan=plan,
        battery=battery,
        harvester=presets.DEFAULT_HARVESTER if en["harvester"] == "default" else None,
        event=event,
        trigger_threshold_g=syn["trigger_threshold_g"],
    )


def load_scenario(path) -> Scenario:
    text = Path(path).read_text(encoding="utf-8")
    return parse_scenario_text(text)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    def fmt(v):
        return "" if v is None else (v.name if isinstance(v, CoverageClass) else repr(v) if isinstance(v, float) else str(v))

    lines = []
    sections = {
        "scenario": {
            "label": s.label, "seed": s.seed, "outputs": s.outputs,
            "baseline": s.baseline.label,
        },
        "signal-synth": {
            "structure": s.structure.label,
            "excitation": s.excitation,
            "noise_density_ug_sqrthz": s.sensor.noise_density_ug_sqrthz,
            "sensitivity_v_per_g": s.sensor.sensitivity_v_per_g,
            "full_scale_g": s.sensor.full_scale_g,
            "supply_v": s.sensor.supply_v,
            "adc_bits": s.adc.bits,
            "vref_v": s.adc.vref_v,
            "f_os_hz": s.adc.f_os_hz,
            "event_onset_s": s.event.onset_s if s.event else None,
            "event_peak_g": s.event.peak_g if s.event else None,
            "event_duration_s": s.event.duration_s if s.event else None,
            "trigger_threshold_g": s.trigger_threshold_g,
        },
        "dsp-chain": {
            "n_stages": s.decimator.n_stages,
            "total_decim": s.decimator.total_decim,
            "cutoff_hz": s.decimator.cutoff_hz,
            "passband_ripple_db": s.decimator.passband_ripple_db,
            "stopband_atten_db": s.decimator.stopband_atten_db,
            "coeff_budget": s.decimator.coeff_budget,
        },
        "modal-analysis": {
            "window": s.modal_window,
            "max_peaks": s.max_peaks,
            "min_prominence": s.min_prominence,
            "light_shift_pct": s.light_shift_pct,
            "moderate_shift_pct": s.moderate_shift_pct,
        },
        "nbiot-sim": {
            "coverage": None if s.rssi_dbm is not None else s.coverage,
            "rssi_dbm": s.rssi_dbm,
            "mode": s.uplink_mode,
            "loss_prob": s.loss_prob,
        },
        "energy-model": {
            "n_sessions_per_day": s.plan.n_sessions_per_day,
            "t_acq_s": s.plan.t_acq_s,
            "k_acq": s.plan.k_acq,
            "battery": s.battery.name,
            "battery_derating": s.battery.derating,
            "harvester": "default" if s.harvester else "none",
        },
    }
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        for k, v in keys.items():
            if v is None:
                continue
            lines.append(f"{k} = {fmt(v)}")
        lines.append("")
    return "\n".join(lines)


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


def _truth_estimate(model: StructureModel) -> ModalEstimate:
    peaks = tuple(Peak(freq_hz=f, magnitude=1.0, prominence=1.0) for f in model.mode_freqs())
    return ModalEstimate(peaks=peaks)


# Input samples per block of the streamed front end.  Throughput is flat
# from 16 Ki to 128 Ki samples; peak memory grows with the block.
_BLOCK = 65536


def _sense(s: Scenario, n: int,
           stages: tuple[FilterStage, ...]) -> tuple[np.ndarray, int, int | None]:
    """Synthesize, sense, quantize and decimate the record block by block.

    Dwell tones are synthesized per block.  Ambient modes are normalized
    over the whole record, so that record is synthesized in one pass and
    read in block slices.  Sensor noise comes from one Generator drawn
    block by block and the chain carries its stage tails, so only the
    output series is a whole-record array.  Returns the output samples, the
    saturated-code count and the trigger sample.
    """
    f_os = s.adc.f_os_hz
    noise = np.random.default_rng(s.seed + 1)
    chain = ChainState(stages)
    out = []
    n_sat = 0
    trig = None
    stage = "synth"
    try:
        ambient = (synth_structure_response(s.structure, s.plan.t_acq_s, f_os_hz=f_os,
                                            seed=s.seed, excitation=s.excitation)
                   if s.excitation == "ambient" else None)
        for i0 in range(0, n, _BLOCK):
            i1 = min(i0 + _BLOCK, n)
            stage = "synth"
            if ambient is None:
                accel = synth_structure_response(
                    s.structure, s.plan.t_acq_s, f_os_hz=f_os, seed=s.seed,
                    excitation=s.excitation, start=i0, stop=i1,
                )
            else:
                accel = ambient[i0:i1]
            if s.event is not None:
                accel = inject_transient(accel, s.event, f_os_hz=f_os,
                                         start=i0, record_len=n)
            if trig is None and s.trigger_threshold_g is not None:
                hit = trigger_index(accel, s.trigger_threshold_g)
                trig = None if hit is None else i0 + hit
            volts = apply_sensor(accel, s.sensor, f_os_hz=f_os, seed=noise)
            codes, sat = quantize(volts, s.adc)
            n_sat += sat
            stage = "dsp"
            out.append(run_chain(codes, stages, s.adc, s.sensor, state=chain))
    except (ValueError, RuntimeError) as e:
        raise StageError(stage, e) from e
    return np.concatenate(out), n_sat, trig


def run_scenario(s: Scenario, write: bool = True) -> RunResult:
    params = EnergyParams()

    try:
        n = record_samples(s.structure, s.plan.t_acq_s, s.adc.f_os_hz, s.excitation)
    except ValueError as e:
        raise StageError("synth", e) from e

    try:
        stages, filt_report = design_decimator(s.decimator)
        check_warmup(n, stages)
    except (ValueError, RuntimeError) as e:
        raise StageError("dsp", e) from e

    samples, n_sat, trig = _sense(s, n, stages)

    try:
        packets = packetize(samples, session_id=0)
        uplink = uplink_session(packets, s.coverage, params,
                                mode=s.uplink_mode, seed=s.seed + 2)
        sink = deliver(packets, s.loss_prob, seed=s.seed + 3)
    except (ValueError, RuntimeError) as e:
        raise StageError("uplink", e) from e

    try:
        spectrum = compute_spectrum(sink.samples, f_s_hz=s.decimator.f_out_hz,
                                    window=s.modal_window)
        estimate = detect_peaks(spectrum, max_peaks=s.max_peaks,
                                min_prominence=s.min_prominence)
        report = compare_modes(_truth_estimate(s.baseline), estimate,
                               light_pct=s.light_shift_pct,
                               moderate_pct=s.moderate_shift_pct)
    except (ValueError, RuntimeError) as e:
        raise StageError("modal", e) from e

    try:
        breakdown = energy_day(s.plan, s.coverage, params)
        life = battery_life_days(s.plan, s.battery, s.coverage, params)
        margin = None
        if s.harvester is not None:
            _, margin = energy_neutral(s.plan, s.harvester, s.coverage, params)
    except (ValueError, RuntimeError) as e:
        raise StageError("energy", e) from e

    outputs = Path(s.outputs)
    result = RunResult(
        scenario=s, filter_report=filt_report, samples_out=samples,
        uplink=uplink, sink=sink, estimate=estimate, report=report,
        breakdown=breakdown, life_days=life, margin=margin,
        trigger_sample=trig, outputs=outputs,
    )
    if write:
        try:
            _write_bundle(result, spectrum, n_sat)
        except OSError as e:
            raise StageError("write", e) from e
    return result


def _write_bundle(r: RunResult, spectrum, n_sat: int) -> None:
    s = r.scenario
    out = r.outputs
    out.mkdir(parents=True, exist_ok=True)

    write_csv_columns(out / "spectrum.csv",
                      {"freq_hz": spectrum.freqs, "magnitude": spectrum.mags})

    rows = event_rows(r.uplink, sink=r.sink)
    write_event_log(out / "uplink.csv", rows)

    energy_rows = r.breakdown.rows()
    energy_rows += [
        ("battery", s.battery.name),
        ("battery_capacity_j", s.battery.usable_j),
        ("battery_life_days", r.life_days),
        ("battery_life_years", r.life_days / 365.25),
    ]
    if r.margin is not None:
        energy_rows.append(("harvest_margin_ratio", r.margin))
    with open(out / "energy.csv", "w", newline="", encoding="utf-8") as f:
        f.write("parameter,value\n")
        for k, v in energy_rows:
            f.write(f"{k},{v!r}\n" if isinstance(v, float) else f"{k},{v}\n")

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
    for i, p in enumerate(r.estimate.peaks, 1):
        summary.append((f"peak{i}_hz", p.freq_hz))
    for i, sh in enumerate(r.report.shifts, 1):
        summary.append((f"mode{i}_baseline_hz", sh.baseline_hz))
        summary.append((f"mode{i}_current_hz",
                        "" if sh.current_hz is None else sh.current_hz))
        summary.append((f"mode{i}_shift_hz",
                        "" if sh.shift_hz is None else sh.shift_hz))
    if r.margin is not None:
        summary.append(("harvest_margin_ratio", r.margin))
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as f:
        f.write("metric,value\n")
        for k, v in summary:
            f.write(f"{k},{v!r}\n" if isinstance(v, float) else f"{k},{v}\n")

    with open(out / "verdict.txt", "w", encoding="utf-8") as f:
        f.write(verdict_line(r.report) + "\n")
