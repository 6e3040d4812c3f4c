"""Daily energy budget, battery lifetime, solar sizing, and model validation.

The node's day is a fixed number of acquire-and-transmit sessions plus deep
sleep.  Each session acquires t_acq seconds at the output rate, stores and
uplinks the samples in 650-sample packets, then returns to sleep.  Session
energy is billed from measured per-packet constants; sleep is a flat
current floor.  Everything here is closed-form arithmetic, with a
day-by-day battery decrement simulation and a power-trace integrator kept
as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .radio import SAMPLES_PER_PACKET, CoverageClass, EnergyParams, session_energy_j

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
        if not all(0 < v < math.inf for v in (self.t_acq_s, self.f_s_hz, self.k_acq)):
            raise ValueError("t_acq_s, f_s_hz and k_acq must be positive and finite")

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


# D-size cells used throughout: a primary Li-SOCl2 cell and a secondary
# Li-ion of the same footprint.  17 Ah and 5.4 Ah at 3.7 V nominal.
LS336000 = BatterySpec("LS336000", 226440.0)
VL34570 = BatterySpec("VL34570", 71928.0)


@dataclass(frozen=True)
class HarvesterSpec:
    area_cm2: float = 72.0              # 120 mm x 60 mm board-sized panel
    power_density_mw_cm2: float = 15.0
    sun_hours: float = 4.0
    loss_frac: float = 0.25             # recharge and storage circuitry

    def __post_init__(self):
        if self.area_cm2 < 0 or self.power_density_mw_cm2 < 0 or self.sun_hours < 0:
            raise ValueError("harvester geometry cannot be negative")
        if not 0 <= self.loss_frac < 1:
            raise ValueError("loss fraction must be in [0, 1)")


def harvest_day_wh(h: HarvesterSpec) -> float:
    """Daily harvested energy in Wh: area x density x sun hours x (1 - loss)."""
    return h.area_cm2 * h.power_density_mw_cm2 * h.sun_hours * (1.0 - h.loss_frac) / 1000.0


# ---------------------------------------------------------------------------
# per-session and per-day energies

def energy_acquisition_j(plan: SessionPlan, params: EnergyParams = EnergyParams()) -> float:
    """Acquire-and-store energy for one session: per-packet sampling
    activity billed at k_acq seconds plus one flash write."""
    n = plan.n_packets
    return n * (plan.k_acq * params.e_acq_1s_mj + params.e_sd_write_mj) * 1e-3


def session_active_s(
    plan: SessionPlan,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> float:
    """Wall-clock active seconds per session: acquisition blocks plus the
    radio window (connect plus per-packet airtime, repetitions included)."""
    n = plan.n_packets
    return n * plan.block_s + params.radio_window_s(n, coverage)


@dataclass(frozen=True)
class EnergyBreakdown:
    n_sessions: int
    t_acq_s: float
    n_packets: int
    e_acq_session_j: float
    e_tx_session_j: float
    t_active_s: float        # total over the day
    t_sleep_s: float
    e_sleep_j: float
    e_day_j: float

    @property
    def e_session_j(self) -> float:
        return self.e_acq_session_j + self.e_tx_session_j

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("n_sessions", self.n_sessions),
            ("t_acq_s", self.t_acq_s),
            ("n_packets", self.n_packets),
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
    if plan.n_sessions_per_day == 0:
        sleep_j = SECONDS_PER_DAY * params.sleep_power_w
        return EnergyBreakdown(0, plan.t_acq_s, plan.n_packets, 0.0, 0.0,
                               0.0, SECONDS_PER_DAY, sleep_j, sleep_j)
    e_acq = energy_acquisition_j(plan, params)
    e_tx = session_energy_j(plan.n_packets, coverage, params)
    t_active = plan.n_sessions_per_day * session_active_s(plan, coverage, params)
    if t_active > SECONDS_PER_DAY:
        raise ValueError(
            f"plan needs {t_active:.0f} s of activity, more than one day"
        )
    t_sleep = SECONDS_PER_DAY - t_active
    e_sleep = t_sleep * params.sleep_power_w
    e_day = plan.n_sessions_per_day * (e_acq + e_tx) + e_sleep
    return EnergyBreakdown(
        n_sessions=plan.n_sessions_per_day,
        t_acq_s=plan.t_acq_s,
        n_packets=plan.n_packets,
        e_acq_session_j=e_acq,
        e_tx_session_j=e_tx,
        t_active_s=t_active,
        t_sleep_s=t_sleep,
        e_sleep_j=e_sleep,
        e_day_j=e_day,
    )


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
    """Day-by-day battery decrement, the day's sessions billed one by one
    from the radio model.  Cross-check for the closed form, deliberately
    not routed through energy_day."""
    n = plan.n_packets
    t_active = plan.n_sessions_per_day * session_active_s(plan, coverage, params)
    if t_active > SECONDS_PER_DAY:
        raise ValueError("plan exceeds one day of activity")
    spent = (SECONDS_PER_DAY - t_active) * params.sleep_power_w
    for _ in range(plan.n_sessions_per_day):
        spent += session_energy_j(n, coverage, params)
        spent += n * (plan.k_acq * params.e_acq_1s_mj + params.e_sd_write_mj) * 1e-3
    remaining = battery.usable_j
    days = 0
    while True:
        if remaining < spent:
            return days + remaining / spent
        remaining -= spent
        days += 1
        if days > 200000:   # > 500 years; sleep floor makes this unreachable
            raise RuntimeError("battery simulation did not terminate")


def lifetime_curve(
    t_acq_grid_s,
    sessions_list,
    battery: BatterySpec,
) -> list[tuple[float, int, float]]:
    """Rows (t_acq_s, n_sessions, lifetime_days) over a plan grid, in good
    coverage with the measured constants."""
    rows = []
    for n_sess in sessions_list:
        for t_acq in t_acq_grid_s:
            plan = SessionPlan(n_sessions_per_day=n_sess, t_acq_s=float(t_acq))
            rows.append((float(t_acq), int(n_sess), battery_life_days(plan, battery)))
    return rows


def energy_neutral(
    plan: SessionPlan,
    h: HarvesterSpec,
    coverage: CoverageClass = CoverageClass.GOOD,
    params: EnergyParams = EnergyParams(),
) -> tuple[bool, float]:
    """(neutral flag, harvest/consumption ratio) for one day."""
    e_day = energy_day(plan, coverage, params).e_day_j
    margin = harvest_day_wh(h) * 3600.0 / e_day
    return margin >= 1.0, margin


# ---------------------------------------------------------------------------
# power-trace validation

@dataclass(frozen=True)
class WindowValidation:
    e_measured_j: float
    e_model_j: float
    error_pct: float         # signed, model relative to measured


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
    the trace is sampled every 10 ms.  Raises ValueError if the session
    does not fit in the window after its lead.
    """
    lead_s, dt_s = 20.0, 0.01
    n = plan.n_packets
    t_blocks = n * plan.block_s
    t_radio = params.radio_window_s(n, coverage)
    t_sess = t_blocks + t_radio
    if t_sess > window_s - lead_s:
        raise ValueError(f"a {t_sess:.0f} s session does not fit in a {window_s} s window")
    p_acq = energy_acquisition_j(plan, params) / t_blocks
    p_radio = session_energy_j(n, coverage, params) / t_radio

    t = np.arange(0.0, window_s + dt_s / 2, dt_s)
    p = np.full_like(t, params.sleep_power_w)
    p[(t >= lead_s) & (t < lead_s + t_blocks)] = p_acq
    p[(t >= lead_s + t_blocks) & (t < lead_s + t_sess)] = p_radio
    return t, p


def validate_window(
    trace_t_s: np.ndarray,
    trace_p_w: np.ndarray,
    plan: SessionPlan,
    params: EnergyParams = EnergyParams(),
    coverage: CoverageClass = CoverageClass.GOOD,
) -> WindowValidation:
    """Integrate a measured power trace and compare against the closed-form
    model of a window holding one session.

    The model bills acquisition at 6 seconds of activity per packet (the
    calibration that matches bench measurements of this window),
    transmission at the deterministic session energy, and sleep
    over the remainder of the window after physical active time.
    """
    t = np.asarray(trace_t_s, dtype=float)
    p = np.asarray(trace_p_w, dtype=float)
    if t.ndim != 1 or t.shape != p.shape or t.size < 2:
        raise ValueError("trace must be two equal-length 1-D arrays")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("trace timestamps must strictly increase")
    if np.max(dt) > 2.0 * np.median(dt):
        raise ValueError("trace has gaps (sample interval jump over 2x median)")

    window_s = float(t[-1] - t[0])
    e_measured = float(np.trapezoid(p, t))

    model_plan = replace(plan, k_acq=6.0)
    e_sess = (energy_acquisition_j(model_plan, params)
              + session_energy_j(model_plan.n_packets, coverage, params))
    t_active = session_active_s(plan, coverage, params)
    if t_active > window_s:
        raise ValueError("active time exceeds the window")
    e_model = e_sess + (window_s - t_active) * params.sleep_power_w
    err = (e_model - e_measured) / e_measured * 100.0 if e_measured else math.inf
    return WindowValidation(e_measured_j=e_measured, e_model_j=e_model, error_pct=err)
