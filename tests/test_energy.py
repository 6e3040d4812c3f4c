import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shmtwin import energy
from shmtwin.energy import (
    DAYS_PER_YEAR,
    LS336000,
    SECONDS_PER_DAY,
    VL34570,
    BatterySpec,
    HarvesterSpec,
    SessionPlan,
    battery_life_days,
    battery_life_days_sim,
    energy_acquisition_j,
    energy_day,
    energy_neutral,
    harvest_day_wh,
    session_active_s,
    simulate_power_trace,
    validate_window,
)
from shmtwin.presets import (
    DEFAULT_HARVESTER,
    TABLE3_PLAN,
    TEN_YEAR_PLAN,
    VALIDATION_PLAN,
)
from shmtwin.radio import CoverageClass, session_energy_j

SLEEP_W = 34e-6 * 3.3


def test_plan_derived_quantities():
    assert TABLE3_PLAN.samples_per_session == 6000
    assert TABLE3_PLAN.n_packets == 10
    assert TABLE3_PLAN.block_s == 6.5
    assert TEN_YEAR_PLAN.n_packets == 65          # 42000 samples / 650
    assert TEN_YEAR_PLAN.daily_data_bytes() == 84000
    with pytest.raises(ValueError):
        SessionPlan(n_sessions_per_day=-1)
    with pytest.raises(ValueError):
        SessionPlan(t_acq_s=0.0)


@pytest.mark.parametrize("field", ["t_acq_s", "k_acq"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_plan_rejects_non_finite_times(field, value):
    with pytest.raises(ValueError, match="positive and finite"):
        SessionPlan(**{field: value})


def test_battery_presets_and_validation():
    assert LS336000.capacity_j == 226440.0
    assert VL34570.capacity_j == 71928.0
    derated = BatterySpec("c", 1000.0, derating=0.8)
    assert derated.usable_j == 800.0
    with pytest.raises(ValueError):
        BatterySpec("d", -5.0)
    with pytest.raises(ValueError):
        BatterySpec("e", 100.0, derating=1.5)


def test_harvester_daily_energy():
    assert harvest_day_wh(DEFAULT_HARVESTER) == 3.24    # 72 * 15 * 4 * 0.75 / 1000
    assert harvest_day_wh(DEFAULT_HARVESTER) * 3600.0 == 3.24 * 3600.0
    with pytest.raises(ValueError):
        HarvesterSpec(area_cm2=-1.0)
    with pytest.raises(ValueError):
        HarvesterSpec(loss_frac=1.0)


def test_session_energies_match_hand_arithmetic():
    assert energy_acquisition_j(TABLE3_PLAN) == pytest.approx(3.440556, abs=1e-9)
    assert energy_acquisition_j(VALIDATION_PLAN) == pytest.approx(3.177576, abs=1e-9)
    assert session_energy_j(TABLE3_PLAN.n_packets) == pytest.approx(5.33416, abs=1e-9)


def test_active_time_is_physical_not_billing():
    # 10 blocks of 6.5 s plus 6 s connect plus 20 s airtime
    assert session_active_s(TABLE3_PLAN) == pytest.approx(91.0)
    # the acquisition billing constant must not move wall-clock time
    assert session_active_s(VALIDATION_PLAN) == pytest.approx(91.0)
    # ECL 2 repetitions quadruple airtime only
    assert session_active_s(TABLE3_PLAN, CoverageClass.BAD) == pytest.approx(151.0)


def test_daily_breakdown_reference_plan():
    b = energy_day(TABLE3_PLAN)
    assert b.t_active_s == pytest.approx(546.0)
    assert b.t_sleep_s == pytest.approx(85854.0)
    assert b.e_session_j == b.e_acq_session_j + b.e_tx_session_j
    assert b.e_day_j == pytest.approx(62.2811, abs=1e-3)
    assert b.e_day_j == pytest.approx(
        6 * b.e_session_j + b.t_sleep_s * SLEEP_W, rel=1e-12)
    keys = [k for k, _ in b.rows()]
    assert keys[:3] == ["n_sessions", "t_acq_s", "n_packets"]


def test_sleep_only_floor():
    b = energy_day(SessionPlan(n_sessions_per_day=0))
    assert b.e_day_j == pytest.approx(SECONDS_PER_DAY * SLEEP_W, rel=1e-12)
    assert b.e_day_j == pytest.approx(9.69408, abs=1e-9)


def test_overcommitted_day_rejected():
    with pytest.raises(ValueError):
        energy_day(SessionPlan(n_sessions_per_day=6, t_acq_s=14400.0))


def test_reference_lifetime():
    assert battery_life_days(TABLE3_PLAN, VL34570) / DAYS_PER_YEAR == pytest.approx(3.18, rel=0.02)
    assert battery_life_days(TEN_YEAR_PLAN, LS336000) / DAYS_PER_YEAR >= 10.0


def test_lifetime_monotone_in_load():
    lives = [battery_life_days(SessionPlan(n_sessions_per_day=6, t_acq_s=t), VL34570)
             for t in (60.0, 120.0, 240.0, 480.0, 960.0)]
    assert all(a > b for a, b in zip(lives, lives[1:]))
    lives = [battery_life_days(SessionPlan(n_sessions_per_day=n, t_acq_s=600.0), VL34570)
             for n in (1, 2, 4, 6)]
    assert all(a > b for a, b in zip(lives, lives[1:]))


def test_sim_agrees_with_closed_form():
    plans = [SessionPlan(n_sessions_per_day=n, t_acq_s=t)
             for n in (1, 2, 3, 4, 5) for t in (30.0, 60.0, 300.0, 900.0)]
    assert len(plans) >= 20
    for plan in plans:
        closed = battery_life_days(plan, VL34570)
        sim = battery_life_days_sim(plan, VL34570)
        assert abs(sim - closed) / closed < 0.01, plan


def test_sim_bills_the_day_once(monkeypatch):
    real = energy.session_energy_j
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(energy, "session_energy_j", counting)
    days = battery_life_days_sim(TABLE3_PLAN, VL34570)
    assert days > 1
    assert len(calls) <= TABLE3_PLAN.n_sessions_per_day


ROOT = Path(__file__).resolve().parents[1]


def _scipy_signal_loaded_after(code: str) -> bool:
    """Whether a fresh interpreter holds scipy.signal after running code."""
    code += "\nimport sys; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.splitlines()[-1] == "True"


def test_importing_energy_leaves_the_signal_chain_unloaded():
    # a package that imported its submodules would pull in scipy.signal here
    assert not _scipy_signal_loaded_after("import shmtwin.energy")


def test_a_dwell_run_leaves_scipy_signal_unloaded(tmp_path):
    # importing scipy.signal costs a one-shot dwell run more than the run
    # itself; only ambient synthesis needs it
    ini = ROOT / "scripts" / "scenarios" / "no_damage.ini"
    run = (f"from shmtwin.cli import main\n"
           f"assert main(['run', {str(ini)!r}, '--outputs', {str(tmp_path)!r}]) == 0")
    assert not _scipy_signal_loaded_after(run)


def test_sim_bad_coverage_shortens_life():
    good = battery_life_days_sim(TABLE3_PLAN, VL34570)
    bad = battery_life_days_sim(TABLE3_PLAN, VL34570, CoverageClass.BAD)
    assert bad < 0.5 * good


def test_energy_neutrality():
    neutral, margin = energy_neutral(TABLE3_PLAN, DEFAULT_HARVESTER)
    assert neutral and margin == pytest.approx(187.3, rel=0.01)
    neutral, margin = energy_neutral(TABLE3_PLAN, HarvesterSpec(sun_hours=0.0))
    assert not neutral and margin == 0.0
    neutral, margin = energy_neutral(TABLE3_PLAN, HarvesterSpec(area_cm2=72.0 / 200))
    assert not neutral and margin < 1.0


def test_window_model_value():
    t, p = simulate_power_trace(VALIDATION_PLAN)
    v = validate_window(t, p, VALIDATION_PLAN)
    assert v.e_model_j == pytest.approx(8.6137258, abs=1e-6)
    assert abs(v.error_pct) < 0.05      # synthetic trace edges land on the grid


def test_window_must_hold_the_session_after_its_lead():
    # 91 s active (65 s of blocks, 26 s of radio) after a 20 s lead
    t, p = simulate_power_trace(VALIDATION_PLAN, window_s=111.0)
    assert p[-1] == SLEEP_W and p[int(21.0 / 0.01)] > SLEEP_W
    assert abs(validate_window(t, p, VALIDATION_PLAN).error_pct) < 0.1
    with pytest.raises(ValueError, match="does not fit"):
        simulate_power_trace(VALIDATION_PLAN, window_s=110.0)


def test_window_rejects_malformed_traces():
    t, p = simulate_power_trace(VALIDATION_PLAN)
    with pytest.raises(ValueError):
        validate_window(t[::-1], p, VALIDATION_PLAN)            # non-increasing
    keep = np.concatenate([np.arange(0, 40000), np.arange(60000, t.size)])
    with pytest.raises(ValueError):
        validate_window(t[keep], p[keep], VALIDATION_PLAN)      # 200 s gap
    with pytest.raises(ValueError):
        validate_window(t[:-5], p, VALIDATION_PLAN)             # shape mismatch
    short_t = np.linspace(0.0, 50.0, 5001)
    short_p = np.full_like(short_t, SLEEP_W)
    with pytest.raises(ValueError):
        validate_window(short_t, short_p, VALIDATION_PLAN)      # 91 s active > 50 s
