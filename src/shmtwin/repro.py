"""Reproduction targets: published values versus the model, one row per cell.

Each target recomputes one published table or figure from the packaged
constants and presets, emitting (published, computed, tolerance, PASS/FAIL)
rows; ``published`` is the value the rule compares against.  Known
model-measurement gaps keep their documented widened tolerances and are
flagged in the row name rather than silently absorbed, and a row that
compares two copies of one figure, which the model cannot fail, ends in
``_consistency``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import presets
from .decimator import DecimatorSpec, cascade, design_decimator, warmup_input_samples
from .energy import (
    DAYS_PER_YEAR,
    LS336000,
    VL34570,
    SessionPlan,
    battery_life_days,
    energy_day,
    energy_neutral,
    harvest_day_wh,
    simulate_power_trace,
    validate_window,
)
from .radio import (
    DEFAULT_DISPERSION_SIGMA,
    CoverageClass,
    EnergyParams,
    epb_uj_per_bit,
    packetize,
    uplink_session,
)
from .scenario import measure_enob, parse_scenario_text, run_scenario
from .seriesio import write_csv_rows

TABLE3_PLAN = SessionPlan(**presets.PLANS["table3"])
VALIDATION_PLAN = SessionPlan(**presets.PLANS["validation"])
TEN_YEAR_PLAN = SessionPlan(**presets.PLANS["ten_year"])
DRAIN_PLAN = SessionPlan(**presets.PLANS["drain"])


@dataclass(frozen=True)
class ReproRow:
    name: str
    published: float
    computed: float
    tolerance: str
    ok: bool


def _pct_row(name: str, published: float, computed: float, tol_pct: float) -> ReproRow:
    ok = abs(computed - published) <= abs(published) * tol_pct / 100.0
    return ReproRow(name, published, computed, f"{tol_pct}%", ok)


def _abs_row(name: str, published: float, computed: float, tol_abs: float) -> ReproRow:
    return ReproRow(name, published, computed, f"abs {tol_abs}",
                    abs(computed - published) <= tol_abs)


def _floor_row(name: str, floor: float, computed: float) -> ReproRow:
    return ReproRow(name, floor, computed, f">= {floor}", computed >= floor)


def _ceiling_row(name: str, ceiling: float, computed: float) -> ReproRow:
    return ReproRow(name, ceiling, computed, f"<= {ceiling}", computed <= ceiling)


def repro_table1(outdir=None) -> list[ReproRow]:
    """Energy-per-bit column of the payload characterization."""
    return [
        _pct_row(f"epb_{nbytes}B_uj", epb_pub, epb_uj_per_bit(nbytes, e_j), 0.5)
        for nbytes, e_j, epb_pub in presets.PAYLOAD_EPB_ROWS
    ]


def repro_table2_check(outdir=None) -> list[ReproRow]:
    """Energy contribution constants, and the session bill against the uplink's booking."""
    rows = [
        _abs_row(f"{name}_consistency", pub, getattr(EnergyParams, name), 1e-12)
        for name, pub in presets.ENERGY_CONTRIBUTIONS_MJ.items()
    ]
    bd = energy_day(TABLE3_PLAN)
    e_tx, e_acq = bd.e_tx_session_j, bd.e_acq_session_j
    booked = uplink_session(packetize(np.zeros(TABLE3_PLAN.samples_per_session))).energy_j
    rows.append(_pct_row("e_tx_10pkt_j", presets.TABLE3_PUBLISHED["e_tx_j"], e_tx, 0.1))
    rows.append(_pct_row("e_acq_10pkt_j", presets.TABLE3_PUBLISHED["e_acq_j"], e_acq, 0.1))
    rows.append(_abs_row("e_tot_identity_j", bd.e_session_j, booked + e_acq, 0.0))
    return rows


def repro_table3(outdir=None) -> list[ReproRow]:
    """Long-term plan summary: all nine published cells."""
    pub = presets.TABLE3_PUBLISHED
    bd = energy_day(TABLE3_PLAN)
    life_y = battery_life_days(TABLE3_PLAN, VL34570) / DAYS_PER_YEAR
    return [
        _abs_row("n_sessions_consistency", pub["n_sessions"], bd.plan.n_sessions_per_day, 0.0),
        _abs_row("t_acq_s_consistency", pub["t_acq_s"], bd.plan.t_acq_s, 0.0),
        _abs_row("t_active_s", pub["t_active_s"], bd.t_active_s, 1e-9),
        _abs_row("t_sleep_s", pub["t_sleep_s"], bd.t_sleep_s, 1e-9),
        _pct_row("e_tx_j", pub["e_tx_j"], bd.e_tx_session_j, 0.1),
        _pct_row("e_acq_j", pub["e_acq_j"], bd.e_acq_session_j, 0.1),
        _pct_row("e_day_j", pub["e_day_j"], bd.e_day_j, 1.0),
        _abs_row("e_cell_j_consistency", pub["e_cell_j"], VL34570.usable_j, 1e-6),
        _pct_row("battery_life_y", pub["battery_life_y"], life_y, 2.0),
    ]


_TABLE5_SCENARIO = """\
[scenario]
seed = {seed}
[signal-synth]
structure = NO_DAMAGE
excitation = dwell
[energy-model]
t_acq_s = 180
"""


def repro_table5(outdir=None, seed: int = 0) -> list[ReproRow]:
    """Tone comparison: run the scenario pipeline on the reference modes
    and compare each estimated frequency to the reference column."""
    sc = parse_scenario_text(_TABLE5_SCENARIO.format(seed=seed))
    freqs = run_scenario(sc, write=False).estimate.peaks
    rows = []
    for (label, _mems_hz, ref_hz, _delta), got in zip(presets.TONE_COMPARISON, freqs):
        rows.append(_pct_row(f"mode_{label}_hz", ref_hz, got, 0.1))
    if len(freqs) != len(presets.TONE_COMPARISON):
        rows.append(_abs_row("n_modes", len(presets.TONE_COMPARISON), len(freqs), 0.0))
    return rows


def repro_fig5(outdir=None) -> list[ReproRow]:
    """Lifetime curves plus the two headline points read off them."""
    curve = [(t_acq, n_sess, battery_life_days(SessionPlan(n_sess, t_acq), LS336000))
             for n_sess in presets.LIFETIME_SESSION_COUNTS
             for t_acq in presets.LIFETIME_TACQ_GRID_S]
    if outdir is not None:
        write_csv_rows(Path(outdir) / "fig5_curve.csv",
                       ("t_acq_s", "n_sessions", "lifetime_days"), curve)

    ten_y = battery_life_days(TEN_YEAR_PLAN, LS336000) / DAYS_PER_YEAR
    drain_d = battery_life_days(DRAIN_PLAN, LS336000)
    monotone = all(
        b[2] < a[2]
        for a, b in zip(curve, curve[1:])
        if a[1] == b[1]   # same session count, t_acq grows by 60 s
    )
    rows = [
        _floor_row("ten_year_plan_years", 10.0, ten_y),
        _pct_row("drain_plan_days_widened", presets.DRAIN_POINT_DAYS, drain_d,
                 presets.DRAIN_POINT_TOL * 100),
        _abs_row("curves_strictly_decreasing", 1.0, float(monotone), 0.0),
    ]
    return rows


def repro_fig3_classes(outdir=None) -> list[ReproRow]:
    """Coverage-class energy ratios as the uplink books them, and the good-coverage dispersion."""
    nbytes, good_mean, _ = presets.COVERAGE_PAYLOAD_ROW
    packets = packetize(np.zeros(nbytes // 2))
    e_good, e_medium, e_bad = (uplink_session(packets, c).energy_j for c in CoverageClass)
    bad_over_good = e_bad / e_good

    rng = np.random.default_rng(0)
    s = DEFAULT_DISPERSION_SIGMA
    draws = good_mean * np.exp(s * rng.standard_normal(4000) - 0.5 * s * s)
    p95_over_mean = float(np.quantile(draws, 0.95) / np.mean(draws))
    frac_below_2j = float(np.mean(draws <= presets.GOOD_SINGLE_CAP_J))

    return [
        _abs_row("bad_over_good", presets.BAD_OVER_GOOD, bad_over_good, 1e-12),
        _abs_row("bad_over_medium", presets.BAD_OVER_MEDIUM, e_bad / e_medium, 1e-12),
        _pct_row(f"bad_mean_{nbytes}B_j", presets.BAD_MEAN_1300B_J, good_mean * bad_over_good, 5.0),
        _ceiling_row(f"good_mean_{nbytes}B_j_consistency", presets.GOOD_MEAN_CAP_J, good_mean),
        _pct_row("p95_over_mean_good", presets.GOOD_P95_OVER_MEAN, p95_over_mean, 10.0),
        _pct_row("frac_good_below_2j", presets.GOOD_BELOW_CAP_FRAC, frac_below_2j, 3.0),
    ]


def repro_validation_window(outdir=None) -> list[ReproRow]:
    """1000 s bench window: closed-form model against an integrated trace."""
    t, p = simulate_power_trace(VALIDATION_PLAN)
    v = validate_window(t, p, VALIDATION_PLAN)
    gap_pct = (v.e_model_j - presets.WINDOW_MEASURED_J) / presets.WINDOW_MEASURED_J * 100
    return [
        _pct_row("model_window_j", presets.WINDOW_MODEL_J, v.e_model_j, 0.5),
        _pct_row("trace_integral_j", presets.WINDOW_MEASURED_J, v.e_measured_j, 1.5),
        _abs_row("model_vs_bench_pct", presets.WINDOW_GAP_PCT, gap_pct, presets.WINDOW_GAP_TOL_PCT),
    ]


def repro_filter(outdir=None) -> list[ReproRow]:
    """The default decimation chain against its published figures."""
    spec = DecimatorSpec()
    stages, report = design_decimator(spec)
    pub = presets.FILTER_PUBLISHED
    t = np.arange(int(20 * spec.f_in_hz)) / spec.f_in_hz
    y = cascade(np.sin(2 * np.pi * pub["tone_hz"] * t), stages)
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    return [
        _abs_row("n_stages", pub["n_stages"], len(stages), 0.0),
        _abs_row("total_decim", pub["total_decim"], math.prod(st.decim for st in stages), 0.0),
        _ceiling_row("total_coeffs", pub["max_coeffs"], report.total_coeffs),
        _floor_row("stopband_atten_db", pub["min_atten_db"], report.stopband_atten_db),
        _ceiling_row("passband_ripple_db", pub["max_ripple_db"], report.passband_ripple_db),
        _ceiling_row(f"residual_{pub['tone_hz']:g}hz_tone_dbfs", pub["max_tone_dbfs"],
                     float(20 * np.log10(np.max(np.abs(y[settle:]))))),
    ]


def repro_enob(outdir=None) -> list[ReproRow]:
    """Effective bits at int16 output, and the float-path gain per doubling."""
    sweep = []
    for decim in presets.ENOB_DECIMS:
        spec = DecimatorSpec(total_decim=decim)
        stages, _ = design_decimator(spec)
        sweep.append((decim, spec.f_out_hz, *measure_enob(stages)))
    if outdir is not None:
        write_csv_rows(Path(outdir) / "enob_vs_rate.csv",
                       ("decim", "f_out_hz", "enob_int16", "enob_float"), sweep)
    decim, _, enob, _ = sweep[-1]
    return [_floor_row(f"enob_{decim}x_int16_bits_widened", presets.ENOB_FLOOR_BITS, enob)] + [
        _abs_row(f"float_gain_{d0}x_to_{d1}x_bits", presets.OCTAVE_GAIN_BITS, e1 - e0,
                 presets.OCTAVE_GAIN_TOL_BITS)
        for (d0, _, _, e0), (d1, _, _, e1) in zip(sweep, sweep[1:])
    ]


def repro_damage(outdir=None) -> list[ReproRow]:
    """Per damage case, the table-5 run at seed 42: first-mode shift and verdict."""
    rows = []
    for label, shift_hz in presets.DAMAGE_SHIFTS_HZ.items():
        text = _TABLE5_SCENARIO.format(seed=42).replace("NO_DAMAGE", label)
        report = run_scenario(parse_scenario_text(text), write=False).report
        got_hz = report.shifts[0].shift_hz     # None: the first mode went unmatched
        tol_hz, verdict = presets.DAMAGE_CHECKS[label]
        rows += [_abs_row(f"{label}_mode_I_shift_hz", shift_hz,
                          math.nan if got_hz is None else float(got_hz), tol_hz),
                 _abs_row(f"{label}_verdict_{verdict}", 1.0,
                          float(report.verdict.name == verdict), 0.0)]
    return rows


def repro_harvest(outdir=None) -> list[ReproRow]:
    """Daily panel harvest, and its margin (neutral at 1) over the 6 x 60 s plan."""
    return [_abs_row("harvest_day_wh", presets.HARVEST_DAY_WH, harvest_day_wh(), 0.0),
            _floor_row("neutral_margin", presets.HARVEST_MIN_MARGIN,
                       energy_neutral(TABLE3_PLAN))]


TARGETS = {
    "table1": repro_table1,
    "table2_check": repro_table2_check,
    "table3": repro_table3,
    "table5": repro_table5,
    "fig5": repro_fig5,
    "fig3_classes": repro_fig3_classes,
    "validation_window": repro_validation_window,
    "filter": repro_filter,
    "enob": repro_enob,
    "damage": repro_damage,
    "harvest": repro_harvest,
}


def run_repro(target: str, outdir=None) -> tuple[list[ReproRow], bool]:
    """Run one target, optionally writing its CSV report; returns (rows, all ok)."""
    if target not in TARGETS:
        raise ValueError(f"unknown repro target {target!r}; one of {sorted(TARGETS)}")
    if outdir is not None:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    rows = TARGETS[target](outdir=outdir)
    if outdir is not None:
        write_csv_rows(Path(outdir) / f"{target}.csv",
                       ("name", "published", "computed", "tolerance", "status"),
                       [(r.name, r.published, r.computed, r.tolerance, "PASS" if r.ok else "FAIL")
                        for r in rows])
    return rows, all(r.ok for r in rows)
