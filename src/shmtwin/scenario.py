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
    design_decimator,
    int16_output,
    run_chain,
    warmup_input_samples,
)
from .energy import (
    BATTERIES,
    DAYS_PER_YEAR,
    BatterySpec,
    EnergyBreakdown,
    SessionPlan,
    battery_life_days,
    energy_day,
    energy_neutral,
)
from .modal import (
    DamageReport,
    ModalEstimate,
    ModalSpec,
    compare_modes,
    compute_spectrum,
    detect_peaks,
    verdict_line,
)
from .radio import (
    CoverageClass,
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
    check_record,
    event_span,
    inject_transient,
    quantize,
    synth_structure_response,
    trigger_index,
)
from .seriesio import write_csv_rows, write_npy_columns, write_text


class ConfigError(Exception):
    """Bad scenario file: unknown key, missing requirement, bad value."""


class StageError(Exception):
    """A pipeline stage failed; carries the stage name for exit reporting."""

    def __init__(self, stage: str, cause: Exception):
        # a bare MemoryError() has no message of its own
        super().__init__(f"stage {stage}: {str(cause) or type(cause).__name__}")
        self.stage = stage


@contextlib.contextmanager
def stage(name: str):
    """Re-raise a failure of the stage run inside as a ``StageError``; a
    failed allocation is a stage failure too."""
    try:
        yield
    except (ValueError, RuntimeError, OSError, MemoryError) as e:
        raise StageError(name, e) from e


@dataclass(frozen=True)
class Scenario:
    """One configured run of the node.

    A field a scenario file leaves out keeps its default here, and each of
    those defaults is the one its spec dataclass gives.  The scenario's own
    choices are the dwell excitation, the NO_DAMAGE structure and a 180 s
    record.  The two copies of the output rate must agree:
    ``decimator.f_out_hz`` is ``plan.f_s_hz``.
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
    modal: ModalSpec = ModalSpec()
    coverage: CoverageClass = CoverageClass.GOOD
    uplink_mode: str = "deterministic"
    loss_prob: float = 0.0
    plan: SessionPlan = SessionPlan(t_acq_s=180.0)
    battery: BatterySpec = BATTERIES["LS336000"]
    harvester: bool = False
    event: EventSpec | None = None
    trigger_threshold_g: float | None = None

    def __post_init__(self):
        # every stage seeds a numpy Generator from it, and those take no
        # negative seed
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigError(f"loss_prob must be in [0, 1), got {self.loss_prob}")
        if self.trigger_threshold_g is not None and not 0 < self.trigger_threshold_g < math.inf:
            raise ConfigError("trigger_threshold_g must be in (0, inf), "
                              f"got {self.trigger_threshold_g}")
        dec = self.decimator
        if self.plan.f_s_hz != dec.f_out_hz:
            raise ConfigError(f"sample rates disagree: decimator {dec.f_in_hz!r} -> "
                              f"{dec.f_out_hz!r} Hz, plan {self.plan.f_s_hz!r} Hz")
        try:
            energy_day(self.plan, self.coverage)
            check_record(self.structure, self.record_samples, dec.f_in_hz, self.excitation)
            if self.event is not None:
                event_span(self.event, dec.f_in_hz, self.record_samples)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if (self.event is not None
                and not math.isfinite(self.sensor.sensitivity_v_per_g * self.event.peak_g)):
            raise ConfigError(f"event_peak_g = {self.event.peak_g!r} senses to a "
                              "non-finite voltage")

    @property
    def record_samples(self) -> int:
        """Input samples of a run's record: ``total_decim`` for each sample
        the plan bills, so the chain emits exactly the samples the plan bills."""
        return self.plan.samples_per_session * self.decimator.total_decim


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
        "f_os_hz": "decimator.f_in_hz",
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
        "max_peaks": "modal.max_peaks",
        "min_prominence": "modal.min_prominence",
        "light_shift_pct": "modal.light_shift_pct",
        "moderate_shift_pct": "modal.moderate_shift_pct",
    },
    "nbiot-sim": {
        "coverage": "coverage",
        "rssi_dbm": "coverage",
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
    "battery": BATTERIES,
    "harvester": {"none": False, "default": True},
}


_hints = functools.cache(typing.get_type_hints)


def _leaf_type(path: str) -> type:
    """Type of the field a path ends on, with ``X | None`` read as X."""
    t = Scenario
    for name in path.split("."):
        t = _hints(t)[name]
        t = (typing.get_args(t) or (t,))[0]
    return t


# Every other key converts with the type of its field, save the RSSI, which
# converts to the coverage class it falls in.
_TYPES = {key: _leaf_type(path) for keys in _TABLE.values()
          for key, path in keys.items() if key not in _NAMES}
_TYPES["rssi_dbm"] = lambda raw: classify_coverage(float(raw))


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
            if name in given.setdefault(owner, {}):  # two keys set the coverage
                raise ConfigError("give coverage or rssi_dbm, not both")
            given[owner][name] = value
    top = given.pop("")
    if "seed" not in top:
        raise ConfigError("missing required key 'seed' in [scenario]")

    if len(given.get("event", ())) not in (0, 3):
        raise ConfigError("event needs all of event_onset_s, event_peak_g, event_duration_s")
    label = top.get("label") or top.get("structure", Scenario.structure).label
    top.update(label=label, outputs=top.get("outputs") or f"runs/{label.lower()}")
    try:
        top["decimator"] = replace(Scenario.decimator, **given.pop("decimator", {}))
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
            if key == "rssi_dbm":
                continue  # the class it sets is written
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

    @property
    def outputs(self) -> Path:
        return Path(self.scenario.outputs)


# Input samples per block of the streamed front end.  Each block pays a
# hand-off between the pipeline's two threads.  On a 2-vCPU VM the
# benchmark's seed-sweep ran 12.9-13.0 items/s at 32 Ki, 15.1-15.8 at
# 64 Ki and 13.2-13.4 at 128 Ki, and scenario-suite 15.0-15.1, 17.4-17.9
# and 15.1-15.6; peak RSS was 47.2-48.2, 48.5-49.2 and 51.5-52.0 MiB.
_BLOCK = 65536


def _sense(synth, n: int, f_os_hz: float, sensor: SensorSpec, adc: AdcSpec,
           noise: np.random.Generator, chain: ChainState) -> tuple[np.ndarray, int]:
    """Sense, quantize and decimate ``n`` samples at ``f_os_hz``, block by block.

    ``synth(i0, i1)`` returns the acceleration of samples [i0, i1), called
    once per block in record order.  The blocks run through a two-stage
    pipeline, one block ahead.  The calling thread synthesizes each block
    and hands it to a worker thread.  The worker draws the block's sensor
    noise from ``noise``, applies the sensor and quantizes; meanwhile the
    calling thread synthesizes the next block and runs the chain, whose
    held stage inputs it carries, over the codes of the block before.  The
    worker alone draws noise, in block order, and the chain sees its blocks
    in order, so the output is the same, bit for bit, as running the blocks
    one after the other.  Both threads spend most of their time in numpy
    calls that release the GIL, so they overlap.  The worker is joined
    before this returns or raises.

    ``chain`` is a fresh state over the record.  Only the output series is
    a whole-record array.  Returns the output counts, unrounded, and the
    saturated-code count.
    """
    out, n_sat = [], 0

    def sense(accel: np.ndarray) -> tuple[np.ndarray, int]:
        # Runs in the worker thread, which alone draws from ``noise``.
        return quantize(apply_sensor(accel, sensor, f_os_hz=f_os_hz, seed=noise), adc)

    def decimate(sensed) -> None:
        nonlocal n_sat
        with stage("synth"):
            codes, sat = sensed.result()
        n_sat += sat
        with stage("dsp"):
            out.append(run_chain(codes, chain.stages, adc, sensor, chain))

    with ThreadPoolExecutor(max_workers=1) as worker:
        behind = None  # the block before, being sensed
        for i0 in range(0, n, _BLOCK):
            with stage("synth"):
                ahead = worker.submit(sense, synth(i0, min(i0 + _BLOCK, n)))
            if behind is not None:
                decimate(behind)
            behind = ahead
        decimate(behind)
    return np.concatenate(out), n_sat


def measure_enob(stages: tuple[FilterStage, ...]) -> tuple[float, float]:
    """Effective bits of the quantize-and-decimate chain, (SINAD - 1.76)/6.02.

    Drives a 40 s full-scale 10 Hz sine (amplitude = sensor full scale)
    through ``_sense``, with the default rate and ADC and the chain, then takes
    SINAD from an FFT of the steady-state output.  Everything that is not the
    fundamental or DC counts as noise-plus-distortion, spurs included.

    Returns two figures from the one pass: the effective bits of the int16
    series ``int16_output`` rounds, and those of the counts before that
    rounding.  The float figure shows the oversampling law, which the fixed
    output word length otherwise masks.

    The record is cut to whole tone periods, so the tone lands on a bin
    with no window.  An output rate that is not a multiple of 10 Hz, or a
    warm-up that leaves fewer than 256 output samples, raises ValueError.

    The sensor noise is set to 2 ug/rtHz, a fraction of an LSB over the
    oversampled band: enough to decorrelate quantization error, small
    enough not to dominate the decimated noise floor.
    """
    f_tone = 10.0
    f_os, adc, sensor = DecimatorSpec.f_in_hz, AdcSpec(), SensorSpec(noise_density_ug_sqrthz=2.0)
    total_decim = math.prod(st.decim for st in stages)
    fs_out = f_os / total_decim
    period = fs_out / f_tone
    if abs(period - round(period)) >= 1e-9:
        raise ValueError(f"a {f_tone} Hz tone is not coherent at the {fs_out} Hz output rate")
    n = int(round(40.0 * f_os))
    skip = int(math.ceil(warmup_input_samples(stages) / total_decim)) * 2 + 8
    if -(-n // total_decim) - skip < 256:
        raise ValueError("record too short for a meaningful SINAD estimate")

    def tone(i0: int, i1: int) -> np.ndarray:
        t = np.arange(i0, i1) / f_os
        return sensor.full_scale_g * np.sin(2.0 * np.pi * f_tone * t)

    counts, _ = _sense(tone, n, f_os, sensor, adc, np.random.default_rng(1), ChainState(stages, n))
    p = int(round(period))

    def enob(out: np.ndarray) -> float:
        x = out[skip:]
        x = x[: (len(x) // p) * p]
        spec_mag2 = np.abs(np.fft.rfft(x)) ** 2
        k0 = int(round(f_tone / (fs_out / len(x))))
        p_fund = float(np.sum(spec_mag2[max(k0 - 1, 0):k0 + 2]))
        p_dc = float(np.sum(spec_mag2[:2]))
        p_total = float(np.sum(spec_mag2))
        p_nd = max(p_total - p_fund - p_dc, 1e-300)
        return float((10.0 * np.log10(p_fund / p_nd) - 1.76) / 6.02)

    return enob(int16_output(counts).astype(float)), enob(counts)


def run_scenario(s: Scenario, write: bool = True) -> RunResult:
    """Run the pipeline, and write the bundle if ``write``.  The front end is
    ``_sense`` over this scenario's synthesis, event and trigger search; its
    output counts are rounded to the int16 word once, over the whole record."""
    f_os, n = s.decimator.f_in_hz, s.record_samples

    with stage("dsp"):
        stages, filt_report = design_decimator(s.decimator)
        chain = ChainState(stages, n)

    with stage("synth"):
        ambient = (synth_structure_response(s.structure, n, f_os_hz=f_os,
                                            seed=s.seed, excitation=s.excitation)
                   if s.excitation == "ambient" else None)
    trig = None

    def synth(i0: int, i1: int) -> np.ndarray:
        nonlocal trig
        if ambient is None:
            accel = synth_structure_response(s.structure, n, f_os_hz=f_os,
                                             seed=s.seed, excitation=s.excitation,
                                             start=i0, stop=i1)
        else:
            accel = ambient[i0:i1]
        if s.event is not None:
            accel = inject_transient(accel, s.event, s.structure.freqs[0], n,
                                     f_os_hz=f_os, start=i0)
        if trig is None and s.trigger_threshold_g is not None:
            hit = trigger_index(accel, s.trigger_threshold_g)
            trig = None if hit is None else i0 + hit
        return accel

    counts, n_sat = _sense(synth, n, f_os, s.sensor, s.adc, np.random.default_rng(s.seed + 1),
                           chain)
    samples = int16_output(counts)

    with stage("uplink"):
        packets = packetize(samples, session_id=0)
        uplink = uplink_session(packets, s.coverage, mode=s.uplink_mode, seed=s.seed + 2)
        sink = deliver(packets, s.loss_prob, seed=s.seed + 3)

    with stage("modal"):
        spectrum = compute_spectrum(sink.samples, f_s_hz=s.decimator.f_out_hz)
        estimate = detect_peaks(spectrum, s.modal)
        report = compare_modes(s.baseline.freqs, estimate.peaks, s.modal)

    with stage("energy"):
        breakdown = energy_day(s.plan, s.coverage)
        life = battery_life_days(s.plan, s.battery, s.coverage)
        margin = energy_neutral(s.plan, s.coverage) if s.harvester else None

    result = RunResult(
        scenario=s, filter_report=filt_report, samples_out=samples,
        uplink=uplink, sink=sink, estimate=estimate, report=report,
        breakdown=breakdown, life_days=life, margin=margin,
        trigger_sample=trig,
    )
    if write:
        with stage("write"):
            _write_bundle(result, spectrum, n_sat)
    return result


def _write_bundle(r: RunResult, spectrum, n_sat: int) -> None:
    s = r.scenario
    out = r.outputs
    out.mkdir(parents=True, exist_ok=True)

    write_npy_columns(out / "spectrum.npy",
                      {"freq_hz": spectrum.freqs, "magnitude": spectrum.mags})

    write_event_log(out / "uplink.csv", event_rows(r.uplink, r.sink))

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

    write_text(out / "verdict.txt", verdict_line(r.report) + "\n")
