"""Daily energy budget, battery lifetime, solar sizing, and model validation.

The node's day is a fixed number of acquire-and-transmit sessions plus deep
sleep.  Each session acquires t_acq seconds at the output rate, stores and
uplinks the samples in 650-sample packets, then returns to sleep.  Session
energy is billed from measured per-packet constants; sleep is a flat
current floor.  Everything here is closed-form arithmetic, with a
session-by-session lifetime and a power-trace integrator kept as
independent cross-checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import presets
from .radio import COVERAGE_MULT, SAMPLES_PER_PACKET, CoverageClass, EnergyParams

SECONDS_PER_DAY = 86400.0
DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class SessionPlan:
    """One day's acquisition schedule.

    k_acq is the billing factor for acquisition energy per packet: the
    measured per-second activity cost is charged for k_acq seconds per
    packet of SAMPLES_PER_PACKET samples.  The physical block duration is
    SAMPLES_PER_PACKET/f_s (6.5 s at defaults) regardless of k_acq.
    """

    n_sessions_per_day: int = 6
    t_acq_s: float = 60.0
    f_s_hz: float = 100.0
    k_acq: float = 6.5

    def __post_init__(self):
        if self.n_sessions_per_day < 0:
            raise ValueError("session count cannot be negative")
        if self.n_sessions_per_day > sys.float_info.max:  # exact; the int is not converted
            raise ValueError(f"session count must be at most {sys.float_info.max:.6g}")
        if not all(0 < v < math.inf for v in (self.t_acq_s, self.f_s_hz, self.k_acq)):
            raise ValueError("t_acq_s, f_s_hz and k_acq must be positive and finite")
        samples = self.t_acq_s * self.f_s_hz
        if samples == math.inf or round(samples) < 1:
            raise ValueError(f"a session acquires t_acq_s * f_s_hz = {samples:.3g} samples; "
                             "it needs at least one and a finite count")

    @property
    def samples_per_session(self) -> int:
        return int(round(self.t_acq_s * self.f_s_hz))

    @property
    def n_packets(self) -> int:
        return -(-self.samples_per_session // SAMPLES_PER_PACKET)

    @property
    def block_s(self) -> float:
        """Physical duration of one packet's worth of samples."""
        return SAMPLES_PER_PACKET / self.f_s_hz

    def daily_data_bytes(self) -> int:
        """Payload bytes produced per day (16-bit samples, no padding)."""
        return 2 * self.samples_per_session * self.n_sessions_per_day


@dataclass(frozen=True)
class BatterySpec:
    name: str
    capacity_j: float
    derating: float = 1.0       # scalar capacity multiplier (temperature etc.)

    def __post_init__(self):
        if self.capacity_j <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < self.derating <= 1:
            raise ValueError("derating must be in (0, 1]")

    @property
    def usable_j(self) -> float:
        return self.capacity_j * self.derating


# The two D-size cells of presets.CELL_ENERGY_J, by name.
LS336000 = BatterySpec("LS336000", presets.CELL_ENERGY_J["LS336000"])
VL34570 = BatterySpec("VL34570", presets.CELL_ENERGY_J["VL34570"])
BATTERIES = {b.name: b for b in (LS336000, VL34570)}


# The node's solar panel, 120 mm x 60 mm to fit the board, and the share its
# recharge and storage circuitry loses.
PANEL_AREA_CM2 = 72.0
PANEL_MW_PER_CM2 = 15.0
PANEL_SUN_HOURS = 4.0
PANEL_LOSS_FRAC = 0.25


def harvest_day_wh() -> float:
    """The panel's daily harvest in Wh: area x density x sun hours x (1 - loss)."""
    return PANEL_AREA_CM2 * PANEL_MW_PER_CM2 * PANEL_SUN_HOURS * (1.0 - PANEL_LOSS_FRAC) / 1000.0


# ---------------------------------------------------------------------------
# per-session and per-day energies

def session(
    plan: SessionPlan,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> tuple[float, float, float, float]:
    """A session's schedule and deterministic bill, and the only code that
    works one out: (acquisition s, radio s, acquisition J, radio J).  The n
    packets' blocks come first, then the radio window; each packet bills
    k_acq seconds of acquisition activity plus one flash write."""
    n = plan.n_packets
    mj = (params.e_connect_first_tx_mj + params.e_session_tail_mj
          + (n - 1) * params.e_packet_tx_mj)
    return (n * plan.block_s, params.radio_window_s(n, coverage),
            n * (plan.k_acq * params.e_acq_1s_mj + params.e_sd_write_mj) * 1e-3,
            COVERAGE_MULT[coverage] * mj * 1e-3)


def session_active_s(
    plan: SessionPlan,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> float:
    """Wall-clock active seconds per session: acquisition plus radio window."""
    t_acq, t_radio, _, _ = session(plan, coverage, params)
    return t_acq + t_radio


@dataclass(frozen=True)
class EnergyBreakdown:
    plan: SessionPlan
    e_acq_session_j: float
    e_tx_session_j: float
    t_active_s: float        # total over the day
    e_sleep_j: float
    e_day_j: float

    @property
    def e_session_j(self) -> float:
        return self.e_acq_session_j + self.e_tx_session_j

    @property
    def t_sleep_s(self) -> float:
        return SECONDS_PER_DAY - self.t_active_s

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("n_sessions", self.plan.n_sessions_per_day),
            ("t_acq_s", self.plan.t_acq_s),
            ("n_packets", self.plan.n_packets),
            ("e_acq_j", self.e_acq_session_j),
            ("e_tx_j", self.e_tx_session_j),
            ("e_tot_j", self.e_session_j),
            ("t_active_s", self.t_active_s),
            ("t_sleep_s", self.t_sleep_s),
            ("e_sleep_j", self.e_sleep_j),
            ("e_day_j", self.e_day_j),
        ]


def energy_day(
    plan: SessionPlan,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> EnergyBreakdown:
    """Daily energy: session costs times session count plus sleep floor."""
    t_acq, t_radio, e_acq, e_tx = session(plan, coverage, params)
    # a run acquires one session even where the plan bills none
    t_need = max(plan.n_sessions_per_day, 1) * (t_acq + t_radio)
    if t_need > SECONDS_PER_DAY:
        raise ValueError(f"plan needs {t_need:.6g} s of activity, more than one day")
    t_active = plan.n_sessions_per_day * (t_acq + t_radio)
    e_sleep = (SECONDS_PER_DAY - t_active) * params.sleep_power_w
    e_day = plan.n_sessions_per_day * (e_acq + e_tx) + e_sleep
    if not math.isfinite(e_day):  # a finite but huge k_acq
        raise ValueError(f"plan's daily energy {e_day} J is not finite")
    return EnergyBreakdown(plan=plan, e_acq_session_j=e_acq, e_tx_session_j=e_tx,
                           t_active_s=t_active, e_sleep_j=e_sleep, e_day_j=e_day)


def battery_life_days(
    plan: SessionPlan,
    battery: BatterySpec,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> float:
    e_day = energy_day(plan, coverage, params).e_day_j
    return battery.usable_j / e_day


def battery_life_days_sim(
    plan: SessionPlan,
    battery: BatterySpec,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> float:
    """Battery lifetime from a day billed session by session.  Cross-check
    for the closed form, deliberately not routed through energy_day: it
    adds the one session's bill once per session instead of multiplying."""
    t_acq, t_radio, e_acq, e_radio = session(plan, coverage, params)
    # a run acquires one session even where the plan bills none
    t_sess = t_acq + t_radio
    if max(plan.n_sessions_per_day, 1) * t_sess > SECONDS_PER_DAY:
        raise ValueError("plan exceeds one day of activity")
    spent = (SECONDS_PER_DAY - plan.n_sessions_per_day * t_sess) * params.sleep_power_w
    for _ in range(plan.n_sessions_per_day):
        spent = spent + e_radio + e_acq
    if not math.isfinite(spent):
        raise ValueError(f"plan's daily energy {spent} J is not finite")
    return battery.usable_j / spent


def energy_neutral(
    plan: SessionPlan,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> float:
    """The panel's harvest over consumption for one day; the plan is
    energy-neutral when this margin is at least 1."""
    e_day = energy_day(plan, coverage, params).e_day_j
    return harvest_day_wh() * 3600.0 / e_day


# ---------------------------------------------------------------------------
# power-trace validation

@dataclass(frozen=True)
class WindowValidation:
    e_measured_j: float
    e_model_j: float


# The trace's 10 ms time grid, kept read-only and rebuilt only when a longer
# window asks for more points.  numpy fills a float arange as start + i * step,
# so every prefix of it is bit for bit the arange of a shorter window.  Two
# threads that grow it at once each build a whole grid; neither view is torn.
_DT_S = 0.01
_grid = np.empty(0)


def _trace_grid(window_s: float) -> np.ndarray:
    """A read-only view equal to np.arange(0.0, window_s + _DT_S / 2, _DT_S)."""
    global _grid
    stop = window_s + _DT_S / 2
    n = math.ceil(stop / _DT_S)         # np.arange's length, ceil((stop - start) / step)
    grid = _grid
    if n > grid.size:
        grid = np.arange(0.0, stop, _DT_S)
        grid.flags.writeable = False
        _grid = grid
    return grid[:n]


def simulate_power_trace(
    plan: SessionPlan,
    params: EnergyParams = EnergyParams(),
    window_s: float = 1000.0,
    coverage: CoverageClass = CoverageClass.GOOD,
) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant power trace (t, watts) over one observation window.

    The window holds one session, 20 s in: an acquisition plateau followed
    by a radio plateau, at powers that integrate to the deterministic
    session energies.  The rest of the window sits at the sleep floor, and
    the trace is sampled every 10 ms.  Raises ValueError if window_s is not
    finite or the session does not fit in the window after its lead.

    ``t`` is a read-only view of one grid that the module keeps between
    calls, equal to ``np.arange(0.0, window_s + 0.005, 0.01)`` bit for bit,
    so a call maps no memory for it; copy it to change it.  The grid holds 8
    bytes per point of the longest window asked for so far: 0.8 MB for the
    1000 s validation window, 2.2 MB for the longest window of the
    radio-plan benchmark.  ``p`` is a new writable array on each call.
    """
    lead_s = 20.0
    if not math.isfinite(window_s):
        raise ValueError(f"window_s must be finite, got {window_s}")
    t_blocks, t_radio, e_acq, e_radio = session(plan, coverage, params)
    t_sess = t_blocks + t_radio
    if t_sess > window_s - lead_s:
        raise ValueError(f"a {t_sess:.6g} s session does not fit in a {window_s} s window")
    p_acq = e_acq / t_blocks
    p_radio = e_radio / t_radio

    t = _trace_grid(window_s)
    # t is sorted, so sleep, each plateau lead <= t < end, and sleep again
    # are four index ranges, each written once
    i0, i1, i2 = np.searchsorted(t, (lead_s, lead_s + t_blocks, lead_s + t_sess))
    p = np.empty_like(t)
    p[:i0] = params.sleep_power_w
    p[i0:i1] = p_acq
    p[i1:i2] = p_radio
    p[i2:] = params.sleep_power_w
    return t, p


# numpy sums a contiguous float64 array pairwise: a node of more than 128
# terms splits after half its terms, rounded down to a multiple of 8.  The
# same split applied down to nodes of at most `size` terms, each finished
# by numpy's own .sum(), adds up in numpy's order for any `size` >= 128.
# validate_window stops at the tree's four quarters, each at most a quarter
# of the trace plus 12 terms, so past 512 points its two leaf rows hold
# less than one trace array; on a long trace it stops at nodes of at most
# _LEAF terms, 256 KiB a row.
_LEAF = 32768


def _pairwise(a: int, b: int, leaf, size: int) -> float:
    """Sum leaf(i, j) over [a, b) split as numpy's pairwise sum splits it,
    down to nodes of at most ``size`` terms."""
    if b - a <= size:
        return leaf(a, b)
    n2 = (b - a) // 2
    n2 -= n2 % 8
    return _pairwise(a, a + n2, leaf, size) + _pairwise(a + n2, b, leaf, size)


def validate_window(
    trace_t_s: np.ndarray,
    trace_p_w: np.ndarray,
    plan: SessionPlan,
    params: EnergyParams = EnergyParams(),
    coverage: CoverageClass = CoverageClass.GOOD,
) -> WindowValidation:
    """Integrate a measured power trace and compare against the closed-form
    model of a window holding one session.

    The model bills acquisition at the plan's k_acq seconds of activity
    per packet (6 in ``repro.VALIDATION_PLAN``, the calibration that
    matches bench measurements of this window), transmission at the
    deterministic session energy, and sleep over the remainder of the
    window after physical active time.

    The trace is checked before it is integrated.  Its timestamps, and the
    intervals between them, must be finite, and the times must strictly
    increase.  A gap is an interval over twice the median interval; the
    median, the one pass over a whole-trace ``np.diff``, is computed only
    when the longest interval is over twice the shortest, since it is never
    below the shortest.  The integral is numpy's trapezoid rule,
    ``np.trapezoid(p, t)``, bit for bit, and must be finite, so a
    non-finite power sample is rejected.

    No other temporary spans the trace: the intervals are walked along
    numpy's own pairwise-sum tree (see ``_pairwise``), and each leaf's
    intervals and trapezoid terms are formed in the two rows of one reused
    buffer, each row at most about a quarter of the trace (see ``_LEAF``),
    and summed by ``.sum()``, so the leaf sums, added back up the tree,
    give the bits ``np.trapezoid`` gives.
    """
    t = np.asarray(trace_t_s, dtype=float)
    p = np.asarray(trace_p_w, dtype=float)
    if t.ndim != 1 or t.shape != p.shape or t.size < 2:
        raise ValueError("trace must be two equal-length 1-D arrays")
    size = min(_LEAF, (t.size - 1) // 4 + 128)
    dt_buf, area_buf = np.empty((2, min(t.size - 1, size)))
    dt_lo, dt_hi = math.inf, -math.inf

    def leaf(a: int, b: int) -> float:
        nonlocal dt_lo, dt_hi
        dt = dt_buf[:b - a]
        np.subtract(t[a + 1:b + 1], t[a:b], out=dt)
        lo, hi = float(dt.min()), float(dt.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("trace timestamps and their intervals must be finite")
        dt_lo, dt_hi = min(dt_lo, lo), max(dt_hi, hi)
        if dt_lo <= 0:
            return 0.0          # rejected below, once every interval is known finite
        # np.trapezoid's expression, dt * (p[1:] + p[:-1]) / 2.0; halving by
        # a multiply rounds to the same float as the divide and costs less
        area = area_buf[:b - a]
        np.add(p[a + 1:b + 1], p[a:b], out=area)
        area *= dt
        area *= 0.5
        return float(area.sum())

    e_measured = _pairwise(0, t.size - 1, leaf, size)
    if dt_lo <= 0:
        raise ValueError("trace timestamps must strictly increase")
    if dt_hi > 2.0 * dt_lo and dt_hi > 2.0 * np.median(np.diff(t)):
        raise ValueError("trace has gaps (sample interval jump over 2x median)")
    if not math.isfinite(e_measured):
        raise ValueError(f"trace power samples must be finite; they integrate to {e_measured}")

    window_s = float(t[-1] - t[0])
    t_acq, t_radio, e_acq, e_radio = session(plan, coverage, params)
    t_active = t_acq + t_radio
    if t_active > window_s:
        raise ValueError("active time exceeds the window")
    e_model = (e_acq + e_radio) + (window_s - t_active) * params.sleep_power_w
    return WindowValidation(e_measured_j=e_measured, e_model_j=e_model)
