"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``shmtwin`` module at every
``shmtwin.*`` import site, records one span per call (name, item id, start,
end, parent span) plus a few counts taken from arguments and results, and
turns the spans into the per-layer metrics named in ``BENCHMARK.json``.
Nothing here is imported by the untraced run.

A function that is missing from its module (removed by a refactor) is
skipped: it yields no span and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

MIB = 1024.0 * 1024.0


def _bundle_bytes(args, kwargs, result):
    out = args[0].outputs
    return {"bundle_bytes": sum(f.stat().st_size for f in out.iterdir() if f.is_file())}


def _matched(args, kwargs, result):
    return {"modes_matched": sum(1 for s in result.shifts if s.current_hz is not None),
            "modes_baseline": len(result.shifts)}


# module -> {function: count hook (args, kwargs, result) -> {counter: amount}}
WRAPPED = {
    "signals": {
        "synth_structure_response": lambda a, k, r: {"samples_in": len(r)},
        "apply_sensor": None,
        "quantize": lambda a, k, r: {"saturated_codes": int(r[1])},
        "inject_transient": None,
        "trigger_index": None,
    },
    "decimator": {
        "design_decimator": None,
        "measure_response": None,
        "run_chain": lambda a, k, r: {"samples_out": len(r)},
    },
    "radio": {
        "packetize": lambda a, k, r: {"packets_sent": len(r)},
        "uplink_session": None,
        "deliver": lambda a, k, r: {"packets_lost": len(r.missing_seqs),
                                    "packets_delivered": r.delivered_count},
        "event_rows": None,
        "write_event_log": None,
    },
    "energy": {
        "energy_day": None,
        "battery_life_days": None,
        "energy_neutral": None,
        "battery_life_days_sim": lambda a, k, r: {"sim_days": float(r)},
        "simulate_power_trace": lambda a, k, r: {"trace_points": len(r[0])},
        "validate_window": None,
    },
    "modal": {
        "compute_spectrum": lambda a, k, r: {"fft_len": 2 * (len(r.freqs) - 1)},
        "detect_peaks": lambda a, k, r: {"peaks_found": len(r.peaks)},
        "compare_modes": _matched,
    },
    "scenario": {
        "parse_scenario_text": None,
        "load_scenario": None,
        "run_scenario": None,
        "_write_bundle": _bundle_bytes,
    },
    "seriesio": {
        "write_csv_columns": lambda a, k, r: {"csv_rows": len(next(iter(a[1].values())))},
    },
    "repro": {
        "repro_table5": None,
    },
}

# Functions whose tracemalloc peak is taken (start/stop around the call,
# outside the span's own timing).
MEMORY_PEAKS = {"signals.synth_structure_response": "signals.synth_peak_mb",
                "decimator.run_chain": "decimator.chain_peak_mb"}
# Functions whose first call's arguments are kept, for stage_times.
CAPTURE = {"decimator.run_chain"}

# metric -> (span names, span names under which a call does not count).
# A span also does not count when an ancestor is in the first set, so a
# group's nested calls (battery_life_days -> energy_day) are not counted
# twice.  Times are inclusive of child spans.
TIME_METRICS = {
    "signals.synth_s": ({"signals.synth_structure_response"}, ()),
    "signals.sensor_s": ({"signals.apply_sensor"}, ()),
    "signals.quantize_s": ({"signals.quantize"}, ()),
    "signals.event_s": ({"signals.inject_transient", "signals.trigger_index"}, ()),
    "decimator.design_s": ({"decimator.design_decimator"}, ()),
    # the re-measure outside design; design's own verification is in design_s
    "decimator.measure_s": ({"decimator.measure_response"}, ("decimator.design_decimator",)),
    "decimator.chain_s": ({"decimator.run_chain"}, ()),
    "radio.packetize_s": ({"radio.packetize"}, ()),
    "radio.uplink_s": ({"radio.uplink_session"}, ()),
    "radio.deliver_s": ({"radio.deliver"}, ()),
    "radio.event_log_s": ({"radio.event_rows", "radio.write_event_log"}, ()),
    "energy.budget_s": ({"energy.energy_day", "energy.battery_life_days",
                         "energy.energy_neutral"}, ()),
    "energy.sim_s": ({"energy.battery_life_days_sim"}, ()),
    "energy.trace_s": ({"energy.simulate_power_trace", "energy.validate_window"}, ()),
    "modal.spectrum_s": ({"modal.compute_spectrum"}, ()),
    "modal.peaks_s": ({"modal.detect_peaks"}, ()),
    "modal.compare_s": ({"modal.compare_modes"}, ()),
    "scenario.parse_s": ({"scenario.parse_scenario_text", "scenario.load_scenario"}, ()),
    "scenario.bundle_write_s": ({"scenario._write_bundle"}, ()),
    "seriesio.write_csv_s": ({"seriesio.write_csv_columns"}, ()),
    "repro.table5_s": ({"repro.repro_table5"}, ()),
}
# time metric -> the metric counting its calls
CALL_METRICS = {
    "decimator.design_s": "decimator.design_calls",
    "decimator.measure_s": "decimator.measure_calls",
}
N_STAGES = 6


@dataclass
class Span:
    name: str
    item: int
    parent: int  # index into Tracer.spans, -1 for a root span
    t0: float
    t1: float = 0.0
    error: str = ""
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory while installed; see ``install``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.peaks_mb: dict[str, float] = defaultdict(float)
        self.item = -1
        self.first_call: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self
        peak_metric = MEMORY_PEAKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in CAPTURE and name not in tracer.first_call:
                tracer.first_call[name] = (fn, args, kwargs)
            started = peak_metric is not None and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            span = Span(name, tracer.item, tracer._stack[-1] if tracer._stack else -1,
                        time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                tracer._stack.pop()
                if started:
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    tracer.peaks_mb[peak_metric] = max(tracer.peaks_mb[peak_metric], peak)
            if hook is not None:
                span.counts = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each wrapped function wherever a shmtwin module binds it."""
        for mod_name, functions in WRAPPED.items():
            try:
                module = importlib.import_module(f"shmtwin.{mod_name}")
            except ImportError:
                continue
            for fname, hook in functions.items():
                orig = getattr(module, fname, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fname}", orig, hook)
                for site_name, site in list(sys.modules.items()):
                    if site is None or not (site_name == "shmtwin"
                                            or site_name.startswith("shmtwin.")):
                        continue
                    for attr, val in list(vars(site).items()):
                        if val is orig:
                            setattr(site, attr, wrapper)
                            self._restore.append((site, attr, orig))

    def uninstall(self) -> None:
        for site, attr, orig in reversed(self._restore):
            setattr(site, attr, orig)
        self._restore.clear()

    # -- aggregation ------------------------------------------------------

    def _ancestors(self, i):
        p = self.spans[i].parent
        while p >= 0:
            yield self.spans[p].name
            p = self.spans[p].parent

    def layer_metrics(self, n_items: int, items: set) -> dict[str, float]:
        """Per-layer metrics over the spans of the item ids in ``items``.

        Times and counts are per item; ``fft_len`` is per spectrum call;
        ratios are over all calls; peaks are the maximum over calls.
        """
        idx = [i for i, s in enumerate(self.spans) if s.item in items]
        n = max(n_items, 1)
        out: dict[str, float] = {}
        for metric, (names, under) in TIME_METRICS.items():
            stop = names | set(under)
            chosen = [i for i in idx if self.spans[i].name in names
                      and not any(a in stop for a in self._ancestors(i))]
            out[metric] = sum(self.spans[i].t1 - self.spans[i].t0 for i in chosen) / n
            if metric in CALL_METRICS:
                out[CALL_METRICS[metric]] = len(chosen) / n

        child_time = Counter()
        for i in idx:
            s = self.spans[i]
            if s.parent >= 0:
                child_time[s.parent] += s.t1 - s.t0
        runs = [i for i in idx if self.spans[i].name == "scenario.run_scenario"]
        out["scenario.run_self_s"] = sum(
            self.spans[i].t1 - self.spans[i].t0 - child_time[i] for i in runs) / n
        out["scenario.stage_errors"] = sum(
            1 for i in runs if self.spans[i].error == "StageError") / n

        counts = Counter()
        calls = Counter()
        for i in idx:
            counts.update(self.spans[i].counts)
            calls[self.spans[i].name] += 1
        for key, metric in [("samples_in", "signals.samples_in"),
                            ("saturated_codes", "signals.saturated_codes"),
                            ("samples_out", "decimator.samples_out"),
                            ("packets_sent", "radio.packets_sent"),
                            ("packets_lost", "radio.packets_lost"),
                            ("sim_days", "energy.sim_days"),
                            ("trace_points", "energy.trace_points"),
                            ("peaks_found", "modal.peaks_found"),
                            ("bundle_bytes", "scenario.bundle_bytes"),
                            ("csv_rows", "seriesio.csv_rows")]:
            out[metric] = counts[key] / n
        out["modal.fft_len"] = counts["fft_len"] / max(calls["modal.compute_spectrum"], 1)
        sent = counts["packets_delivered"] + counts["packets_lost"]
        out["radio.delivered_ratio"] = counts["packets_delivered"] / sent if sent else 0.0
        base = counts["modes_baseline"]
        out["modal.modes_matched_ratio"] = counts["modes_matched"] / base if base else 0.0
        for metric in MEMORY_PEAKS.values():
            out[metric] = self.peaks_mb.get(metric, 0.0)
        return out


def stage_times(run_chain_call, cascade, repeats: int = 3) -> dict[str, float]:
    """Seconds for each cascade stage run alone on the input it sees.

    ``run_chain_call`` is the captured ``(run_chain, args, kwargs)`` of one
    traced item; the chain input is its codes with midscale removed, and each
    stage's output feeds the next.  Reports the median of ``repeats`` calls.
    Stages beyond ``N_STAGES`` are not reported.
    """
    out = {}
    fn, args, kwargs = run_chain_call
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        codes, stages, adc = (bound.arguments[k] for k in ("codes", "stages", "adc"))
    except (KeyError, TypeError):  # run_chain's signature changed: no stage spans
        return out
    x = np.asarray(codes).astype(float) - adc.midscale
    for k, st in enumerate(stages[:N_STAGES], 1):
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            y = cascade(x, [st])
            times.append(time.perf_counter() - t)
        out[f"decimator.stage{k}_s"] = statistics.median(times)
        x = y
    return out
