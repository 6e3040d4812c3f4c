import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmtwin import energy
from shmtwin.energy import (
    DAYS_PER_YEAR,
    LS336000,
    SECONDS_PER_DAY,
    VL34570,
    BatterySpec,
    SessionPlan,
    battery_life_days,
    battery_life_days_sim,
    energy_day,
    energy_neutral,
    harvest_day_wh,
    session,
    session_active_s,
    simulate_power_trace,
    validate_window,
)
from shmtwin.radio import COVERAGE_ECL, COVERAGE_MULT, CoverageClass, EnergyParams
from shmtwin.repro import DRAIN_PLAN, TABLE3_PLAN, TEN_YEAR_PLAN, VALIDATION_PLAN

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
    assert SessionPlan(t_acq_s=0.015).samples_per_session == 2        # 1.5 rounds to 2
    assert SessionPlan(t_acq_s=1e300).n_packets > 0


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
    assert harvest_day_wh() == 3.24    # 72 * 15 * 4 * 0.75 / 1000
    assert harvest_day_wh() * 3600.0 == 3.24 * 3600.0


def test_session_energies_match_hand_arithmetic():
    _, _, e_acq, e_radio = session(TABLE3_PLAN)
    assert e_acq == pytest.approx(3.440556, abs=1e-9)
    assert e_radio == pytest.approx(5.33416, abs=1e-9)
    assert session(VALIDATION_PLAN)[2] == pytest.approx(3.177576, abs=1e-9)


def test_session_keeps_the_bits_of_each_expression_it_replaced():
    # the schedule and bill each reader used to work out for itself, as
    # they were written, in the same order
    params = EnergyParams()
    for coverage in CoverageClass:
        for t_acq in (0.01, 6.5, 13.0001, 60.0, 422.5, 1200.0, 3600.0, 1e5):
            for k_acq in (6.0, 6.5, 0.37):
                plan = SessionPlan(t_acq_s=t_acq, k_acq=k_acq)
                n = plan.n_packets
                old = (n * plan.block_s,
                       params.t_connect_s + n * params.t_packet_s * 2 ** COVERAGE_ECL[coverage],
                       n * (plan.k_acq * params.e_acq_1s_mj + params.e_sd_write_mj) * 1e-3,
                       COVERAGE_MULT[coverage] * (params.e_connect_first_tx_mj
                                                  + params.e_session_tail_mj
                                                  + (n - 1) * params.e_packet_tx_mj) * 1e-3)
                assert session(plan, coverage, params) == old
                assert session_active_s(plan, coverage, params) == old[0] + old[1]


@pytest.mark.parametrize("kwargs", [dict(t_acq_s=0.001), dict(t_acq_s=0.005),
                                    dict(t_acq_s=1.0, f_s_hz=1e-3), dict(t_acq_s=1e307),
                                    dict(t_acq_s=1e200, f_s_hz=1e200)])
def test_plan_that_samples_nothing_or_overflows_is_refused(kwargs):
    # 0.1 and 0.5 samples round to none; 1e309 and 1e400 samples are not finite
    with pytest.raises(ValueError, match="at least one and a finite count"):
        SessionPlan(**kwargs)


def test_active_time_is_physical_not_billing():
    # 10 blocks of 6.5 s plus 6 s connect plus 20 s airtime
    assert session(TABLE3_PLAN)[:2] == (65.0, 26.0)
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
    with pytest.raises(ValueError, match="plan needs 113052 s of activity, more than one day"):
        energy_day(SessionPlan(n_sessions_per_day=6, t_acq_s=14400.0))


@pytest.mark.parametrize("coverage", list(CoverageClass))
def test_zero_session_plan_still_fits_one_session_in_the_day(coverage):
    # a run acquires one session even where the plan bills none, so a plan
    # of no sessions is refused exactly where a plan of one is
    def fits(n_packets):
        plan = SessionPlan(t_acq_s=6.5 * n_packets)
        return session_active_s(plan, coverage) <= SECONDS_PER_DAY

    lo, hi = 1, 2**20  # the longest session that fits has lo packets
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    assert fits(lo) and not fits(hi)
    floor = energy_day(SessionPlan(n_sessions_per_day=0, t_acq_s=6.5 * lo), coverage)
    assert floor.t_active_s == 0.0
    assert floor.e_day_j == pytest.approx(SECONDS_PER_DAY * SLEEP_W, rel=1e-12)
    refusals = []
    for n_sessions in (0, 1):
        with pytest.raises(ValueError, match="more than one day") as e:
            energy_day(SessionPlan(n_sessions_per_day=n_sessions, t_acq_s=6.5 * hi), coverage)
        refusals.append(str(e.value))
    assert refusals[0] == refusals[1]


@pytest.mark.parametrize("coverage", list(CoverageClass))
def test_sim_refuses_the_zero_session_plans_the_closed_form_refuses(coverage):
    # the cross-check keeps the one-session rule without energy_day: a plan
    # of no sessions is refused exactly where the closed form refuses it
    def refused(f, n_packets):
        try:
            f(SessionPlan(n_sessions_per_day=0, t_acq_s=6.5 * n_packets), LS336000, coverage)
        except ValueError:
            return True
        return False

    lo, hi = 1, 2**20  # the longest session that fits has lo packets
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refused(battery_life_days, mid) else (mid, hi)
    assert [refused(battery_life_days_sim, n) for n in (lo, hi)] == [False, True]
    plan = SessionPlan(n_sessions_per_day=0, t_acq_s=6.5 * lo)
    assert (battery_life_days_sim(plan, LS336000, coverage)
            == pytest.approx(battery_life_days(plan, LS336000, coverage), rel=1e-12))


def test_overcommitted_day_message_stays_short():
    # a huge but finite acquisition prints its activity compactly
    with pytest.raises(ValueError, match="more than one day") as e:
        energy_day(SessionPlan(t_acq_s=1e300))
    assert len(str(e.value)) < 60, str(e.value)


def test_day_whose_energy_overflows_rejected():
    assert math.isfinite(energy_day(SessionPlan(k_acq=1e300)).e_day_j)
    with pytest.raises(ValueError, match="daily energy inf J is not finite"):
        energy_day(SessionPlan(k_acq=1e306))


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


# Energy is monotone: a grid of acquisition lengths, from one packet (6.5 s)
# to an hour, with 60 s and 65 s both ten packets, and every session count
# that fits in a day
T_ACQ_GRID = (6.5, 10.0, 60.0, 65.0, 300.0, 600.0, 1200.0, 1800.0, 3600.0)
SESSION_GRID = range(12)


def _feasible(n_sessions, t_acq, coverage):
    plan = SessionPlan(n_sessions_per_day=n_sessions, t_acq_s=t_acq)
    return n_sessions * session_active_s(plan, coverage) <= SECONDS_PER_DAY


def _lives(n_sessions, t_acq, coverage):
    """Closed-form and session-by-session lifetime on both cells."""
    plan = SessionPlan(n_sessions_per_day=n_sessions, t_acq_s=t_acq)
    return [f(plan, cell, coverage) for cell in (LS336000, VL34570)
            for f in (battery_life_days, battery_life_days_sim)]


def test_daily_energy_is_affine_in_the_session_count():
    for t_acq in T_ACQ_GRID:
        for coverage in CoverageClass:
            e = [energy_day(SessionPlan(n_sessions_per_day=n, t_acq_s=t_acq), coverage).e_day_j
                 for n in SESSION_GRID if _feasible(n, t_acq, coverage)]
            assert len(e) >= 3, (t_acq, coverage)
            steps = np.diff(e)
            assert steps == pytest.approx(np.full_like(steps, steps[0]), rel=1e-9), (t_acq, coverage)


def test_lifetime_falls_as_the_session_count_rises():
    for t_acq in T_ACQ_GRID:
        for coverage in CoverageClass:
            lives = [_lives(n, t_acq, coverage)
                     for n in SESSION_GRID if _feasible(n, t_acq, coverage)]
            for fewer, more in zip(lives, lives[1:]):
                assert all(a > b for a, b in zip(fewer, more)), (t_acq, coverage)


def test_lifetime_does_not_rise_with_the_acquisition_length():
    n_equal = n_fall = 0
    for n in SESSION_GRID[1:]:
        for coverage in CoverageClass:
            t_acqs = [t for t in T_ACQ_GRID if _feasible(n, t, coverage)]
            for short, long in zip(t_acqs, t_acqs[1:]):
                more_packets = (SessionPlan(t_acq_s=long).n_packets
                                > SessionPlan(t_acq_s=short).n_packets)
                for a, b in zip(_lives(n, short, coverage), _lives(n, long, coverage)):
                    assert a > b if more_packets else a >= b, (n, short, long, coverage)
                n_fall += more_packets
                n_equal += not more_packets
    assert n_equal > 0 and n_fall > 0


def test_lifetime_falls_from_good_to_bad_coverage():
    for n in SESSION_GRID[1:]:
        for t_acq in T_ACQ_GRID:
            if not _feasible(n, t_acq, CoverageClass.BAD):
                continue
            good, medium, bad = (_lives(n, t_acq, c) for c in
                                 (CoverageClass.GOOD, CoverageClass.MEDIUM, CoverageClass.BAD))
            assert all(g > m > b for g, m, b in zip(good, medium, bad)), (n, t_acq)


def test_sim_agrees_with_closed_form():
    # the two billing paths agree to rounding, so a drift of either shows
    plans = [SessionPlan(n_sessions_per_day=n, t_acq_s=t)
             for n in (0, 1, 2, 3, 4, 5, 6) for t in (30.0, 60.0, 300.0, 900.0, 1200.0)]
    plans += [TABLE3_PLAN, TEN_YEAR_PLAN, DRAIN_PLAN, VALIDATION_PLAN]
    assert len(plans) >= 20
    for plan in plans:
        for coverage in CoverageClass:
            # the last cell outlives any day count a loop could reach
            for cell in (LS336000, VL34570, BatterySpec("big", 5e6)):
                closed = battery_life_days(plan, cell, coverage)
                sim = battery_life_days_sim(plan, cell, coverage)
                assert sim == pytest.approx(closed, rel=1e-12), (plan, coverage, cell)


def test_sim_bills_the_day_once(monkeypatch):
    real = energy.session
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(energy, "session", counting)
    days = battery_life_days_sim(TABLE3_PLAN, VL34570)
    assert days > 1
    assert len(calls) == 1


def test_sim_raises_as_the_closed_form_does_on_an_overflowing_day():
    plan = SessionPlan(k_acq=1e306)
    for f in (battery_life_days, battery_life_days_sim):
        with pytest.raises(ValueError, match="plan's daily energy inf J is not finite"):
            f(plan, VL34570)


def test_sim_rejects_a_plan_that_exceeds_one_day():
    with pytest.raises(ValueError, match="plan exceeds one day of activity"):
        battery_life_days_sim(SessionPlan(n_sessions_per_day=6, t_acq_s=14400.0), VL34570)


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
    # neutral is a margin of at least 1
    assert energy_neutral(TABLE3_PLAN) == pytest.approx(187.3, rel=0.01)
    bad = energy_neutral(TABLE3_PLAN, CoverageClass.BAD)
    assert bad == harvest_day_wh() * 3600.0 / energy_day(TABLE3_PLAN, CoverageClass.BAD).e_day_j
    assert 1.0 < bad < energy_neutral(TABLE3_PLAN)


def test_window_model_value():
    t, p = simulate_power_trace(VALIDATION_PLAN)
    v = validate_window(t, p, VALIDATION_PLAN)
    assert v.e_model_j == pytest.approx(8.6137258, abs=1e-6)
    # synthetic trace edges land on the grid
    assert v.e_model_j == pytest.approx(v.e_measured_j, rel=0.05e-2)


def test_window_must_hold_the_session_after_its_lead():
    # 91 s active (65 s of blocks, 26 s of radio) after a 20 s lead
    t, p = simulate_power_trace(VALIDATION_PLAN, window_s=111.0)
    assert p[-1] == SLEEP_W and p[int(21.0 / 0.01)] > SLEEP_W
    v = validate_window(t, p, VALIDATION_PLAN)
    assert v.e_model_j == pytest.approx(v.e_measured_j, rel=0.1e-2)
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


def _reference_trace(plan, params, window_s, coverage):
    """simulate_power_trace's plateaus written as boolean masks over the grid."""
    lead_s, n = 20.0, plan.n_packets
    t_blocks = n * plan.block_s
    t_radio = params.radio_window_s(n, coverage)
    t_sess = t_blocks + t_radio
    t = np.arange(0.0, window_s + 0.01 / 2, 0.01)
    p = np.full_like(t, params.sleep_power_w)
    _, _, e_acq, e_radio = session(plan, coverage, params)
    p[(t >= lead_s) & (t < lead_s + t_blocks)] = e_acq / t_blocks
    p[(t >= lead_s + t_blocks) & (t < lead_s + t_sess)] = e_radio / t_radio
    return t, p


def test_power_trace_equals_the_boolean_mask_reference():
    # the radio-plan benchmark grid: a window holding one session with 40 s
    # of sleep after it, ending on and just off a 10 ms grid point
    params = EnergyParams()
    for n_sess in (1, 2, 4, 6):
        for t_acq in (60.0, 120.0, 300.0, 600.0, 900.0, 1200.0):
            for cov in CoverageClass:
                plan = SessionPlan(n_sessions_per_day=n_sess, t_acq_s=t_acq)
                on_grid = round((20.0 + session_active_s(plan, cov, params) + 40.0) * 100) / 100
                for window_s in (on_grid, np.nextafter(on_grid, 0.0), on_grid + 0.004):
                    t, p = simulate_power_trace(plan, params, window_s, cov)
                    rt, rp = _reference_trace(plan, params, window_s, cov)
                    assert t.tobytes() == rt.tobytes()
                    assert p.tobytes() == rp.tobytes()


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 10**7), off=st.sampled_from(["on", "below", "above", "half"]))
def test_arange_length_is_the_ceil_of_its_span_over_its_step(k, off):
    # energy._trace_grid sizes its views by this rule instead of calling arange
    stop = k * 0.01
    stop = {"on": stop, "below": np.nextafter(stop, 0.0), "above": np.nextafter(stop, np.inf),
            "half": stop + 0.005}[off]
    assert np.arange(0.0, stop, 0.01).size == math.ceil((stop - 0.0) / 0.01)


@settings(max_examples=40, deadline=None)
@given(windows=st.lists(st.floats(111.0, 1e4), min_size=1, max_size=6))
def test_power_trace_grid_is_the_arange_of_any_window_in_any_order(windows):
    # the kept grid grows and is sliced shorter again as the windows come
    for window_s in windows:
        t, p = simulate_power_trace(VALIDATION_PLAN, window_s=window_s)
        assert t.tobytes() == np.arange(0.0, window_s + 0.005, 0.01).tobytes()
        assert not t.flags.writeable and p.flags.writeable and p.shape == t.shape


def test_power_trace_grid_cannot_be_changed_through_a_returned_t():
    t, _ = simulate_power_trace(VALIDATION_PLAN, window_s=500.0)
    with pytest.raises(ValueError, match="read-only"):
        t[0] = 1.0
    with pytest.raises(ValueError):
        t.flags.writeable = True
    mine = t.copy()
    mine[:] = -1.0
    t, _ = simulate_power_trace(VALIDATION_PLAN, window_s=500.0)
    assert t.tobytes() == np.arange(0.0, 500.005, 0.01).tobytes()


def test_a_repeat_power_trace_allocates_only_its_power_array():
    simulate_power_trace(VALIDATION_PLAN, window_s=1500.0)
    tracemalloc.start()
    try:
        _, p = simulate_power_trace(VALIDATION_PLAN, window_s=1200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.size == 120_001 and peak < 1.1 * p.nbytes


def _reference_integral(t, p):
    """validate_window's trace checks and integral as plain numpy calls."""
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("trace timestamps must strictly increase")
    if np.max(dt) > 2.0 * np.median(dt):
        raise ValueError("trace has gaps (sample interval jump over 2x median)")
    return float(np.trapezoid(p, t))


def _outcome(f):
    """The bytes f() returns, or the message of the ValueError it raises."""
    try:
        return np.float64(f()).tobytes()
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 600),
       kind=st.sampled_from(["uniform", "under_2x", "over_2x", "gapped", "repeated"]),
       t0=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_window_integral_equals_the_plain_reference(n, kind, t0, seed):
    rng = np.random.default_rng(seed)
    h = 150.0 / (n - 1)                     # every window outlasts the 91 s session
    dt = np.full(n - 1, h)
    if kind == "under_2x":
        dt *= 1.0 + rng.uniform(0.0, 0.9, n - 1)
    elif kind == "over_2x":
        dt *= 1.0 + rng.uniform(0.0, 3.0, n - 1)
    elif kind == "gapped":
        dt[rng.integers(n - 1)] *= rng.uniform(1.5, 4.0)
    elif kind == "repeated":
        dt[rng.integers(n - 1)] *= rng.choice([0.0, -1.0])
    t = t0 + np.concatenate([[0.0], np.cumsum(dt)])
    p = rng.uniform(0.0, 0.5, n)
    measured = _outcome(lambda: validate_window(t, p, VALIDATION_PLAN).e_measured_j)
    assert measured == _outcome(lambda: _reference_integral(t, p))


@pytest.mark.parametrize("array, index, value, match", [
    ("t", 70000, np.nan, "timestamps"),
    ("t", -1, np.inf, "timestamps"),
    ("t", 0, -np.inf, "timestamps"),
    ("p", 70000, np.nan, "power"),
    ("p", 70000, np.inf, "power"),
    ("p", 0, -np.inf, "power"),
])
def test_window_rejects_non_finite_traces(array, index, value, match):
    t, p = simulate_power_trace(VALIDATION_PLAN)
    t = t.copy()                        # the returned t is a read-only view
    {"t": t, "p": p}[array][index] = value
    with pytest.raises(ValueError, match=match):
        validate_window(t, p, VALIDATION_PLAN)


@pytest.mark.parametrize("window_s", [np.nan, np.inf])
def test_power_trace_rejects_a_non_finite_window(window_s):
    with pytest.raises(ValueError, match="window_s"):
        simulate_power_trace(VALIDATION_PLAN, window_s=window_s)


def _whole_trace_reference(t, p):
    """validate_window's checks, in order, and its integral over whole-trace arrays."""
    dt = np.diff(t)
    if not np.isfinite(dt).all():
        raise ValueError("trace timestamps and their intervals must be finite")
    if dt.min() <= 0:
        raise ValueError("trace timestamps must strictly increase")
    if dt.max() > 2.0 * np.median(dt):
        raise ValueError("trace has gaps (sample interval jump over 2x median)")
    e = float(np.trapezoid(p, t))
    if not math.isfinite(e):
        raise ValueError(f"trace power samples must be finite; they integrate to {e}")
    return e


def _long_trace(n, kind, seed):
    """An n-point trace over 150 s, uniform or jittered below or above 2x."""
    rng = np.random.default_rng(seed)
    dt = np.full(n - 1, 150.0 / (n - 1))
    if kind == "under_2x":
        dt *= 1.0 + rng.uniform(0.0, 0.9, n - 1)
    elif kind == "over_2x":
        dt *= 1.0 + rng.uniform(0.0, 3.0, n - 1)
    t = rng.uniform(-1e3, 1e3) + np.concatenate([[0.0], np.cumsum(dt)])
    return t, rng.uniform(0.0, 0.5, n)


def _radio_plan_grids():
    """The radio-plan benchmark's trace grids: one session, 40 s of sleep after."""
    params = EnergyParams()
    for t_acq in (60.0, 120.0, 300.0, 600.0, 900.0, 1200.0):
        for coverage in CoverageClass:
            plan = SessionPlan(t_acq_s=t_acq)
            window_s = 20.0 + session_active_s(plan, coverage, params) + 40.0
            yield simulate_power_trace(plan, params, window_s, coverage)


# Lengths at and one past the splits of numpy's pairwise sum at 8,192
# intervals and its doubles, and two whose halves round down to a multiple
# of 8: validate_window sums leaf by leaf in numpy's order, so a numpy that
# splits its sum otherwise fails here by name.  The last three are past four
# leaves of energy._LEAF intervals, where the leaves stop being quarters.
@pytest.mark.parametrize("n", [8193, 8194, 8211, 16385, 16386, 50013, 131073,
                               131074, 131105, 262146])
@pytest.mark.parametrize("kind", ["uniform", "under_2x", "over_2x"])
def test_long_trace_integral_equals_np_trapezoid_bit_for_bit(n, kind):
    t, p = _long_trace(n, kind, seed=n)
    e = validate_window(t, p, VALIDATION_PLAN).e_measured_j
    assert np.float64(e).tobytes() == np.trapezoid(p, t).tobytes()


def test_radio_plan_trace_integrals_equal_np_trapezoid_bit_for_bit():
    rng = np.random.default_rng(25)
    sizes = set()
    for t, p in _radio_plan_grids():
        sizes.add(t.size)
        for power in (p, rng.uniform(0.0, 0.5, t.size)):
            e = validate_window(t, power, VALIDATION_PLAN).e_measured_j
            assert np.float64(e).tobytes() == np.trapezoid(power, t).tobytes(), t.size
    assert min(sizes) < 16_000 and max(sizes) > 270_000 and len(sizes) == 18


def _nan_late(t, p, k):
    t[k] = np.nan


def _repeat_late(t, p, k):
    t[k] = t[k - 1]


def _gap_late(t, p, k):
    t[k:] += 5.0 * (t[1] - t[0])


def _inf_power_late(t, p, k):
    p[k] = np.inf


def _repeat_early_nan_late(t, p, k):
    t[5] = t[4]
    t[k] = np.nan


@pytest.mark.parametrize("fault, match", [
    (_nan_late, "timestamps and their intervals must be finite"),
    (_repeat_late, "strictly increase"),
    (_gap_late, "gaps"),
    (_inf_power_late, "power samples must be finite; they integrate to inf"),
    (_repeat_early_nan_late, "timestamps and their intervals must be finite"),
])
def test_a_fault_in_a_late_leaf_raises_the_whole_trace_message(fault, match):
    t, p = _long_trace(131073, "uniform", seed=7)
    fault(t, p, t.size - 100)           # inside the last of four leaves
    with pytest.raises(ValueError, match=match) as raised:
        validate_window(t, p, VALIDATION_PLAN)
    assert str(raised.value) == _outcome(lambda: _whole_trace_reference(t, p))


def test_window_check_holds_no_trace_length_temporary():
    t, p = simulate_power_trace(VALIDATION_PLAN)
    assert t.size >= 98_000
    validate_window(t, p, VALIDATION_PLAN)
    tracemalloc.start()
    try:
        validate_window(t, p, VALIDATION_PLAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes


def test_window_check_of_the_shortest_radio_plan_trace_holds_no_trace_length_temporary():
    t, p = min(_radio_plan_grids(), key=lambda tp: tp[0].size)
    assert t.size < 16_000
    validate_window(t, p, VALIDATION_PLAN)
    tracemalloc.start()
    try:
        validate_window(t, p, VALIDATION_PLAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes
