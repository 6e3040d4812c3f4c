"""Acceptance gate: one test per published claim the package must reproduce.

Each test asserts the claim at its stated tolerance; `pytest -v` then
prints one pass/fail line per criterion.  Claimed runtime budgets are
enforced with wall-clock checks inside the relevant tests.
"""

import time

import numpy as np
import pytest

from shmtwin.decimator import (
    AdcSpec,
    DecimatorSpec,
    cascade,
    design_decimator,
    measure_enob,
    warmup_input_samples,
)
from shmtwin.energy import (
    LS336000,
    VL34570,
    SessionPlan,
    battery_life_days,
    battery_life_days_sim,
    battery_life_years,
    energy_day,
    energy_neutral,
    harvest_day_wh,
    simulate_power_trace,
    validate_window,
)
from shmtwin.modal import Verdict
from shmtwin.presets import (
    CLAIMED_ENOB_BITS,
    DAMAGE_SHIFTS_HZ,
    DEFAULT_HARVESTER,
    DRAIN_PLAN,
    DRAIN_POINT_DAYS,
    DRAIN_POINT_TOL,
    PAYLOAD_EPB_ROWS,
    TABLE3_PLAN,
    TABLE3_PUBLISHED,
    TEN_YEAR_DAILY_BYTES,
    TEN_YEAR_PLAN,
    VALIDATION_PLAN,
    WINDOW_MEASURED_J,
    WINDOW_MODEL_J,
)
from shmtwin.radio import (
    RadioEvent,
    RadioState,
    RadioStateMachine,
    epb_uj_per_bit,
    packetize,
    reassemble,
    step,
)
from shmtwin.repro import repro_table5
from shmtwin.scenario import parse_scenario_text, run_scenario


def test_criterion_01_epb_table():
    t0 = time.perf_counter()
    computed = [epb_uj_per_bit(n, e) for n, e, _ in PAYLOAD_EPB_ROWS]
    elapsed = time.perf_counter() - t0
    for (n, _, published), got in zip(PAYLOAD_EPB_ROWS, computed):
        assert got == pytest.approx(published, rel=0.005), f"{n} B payload"
    assert elapsed < 1e-3


def test_criterion_02_daily_energy_chain():
    t0 = time.perf_counter()
    assert TABLE3_PLAN.n_packets == 10
    b = energy_day(TABLE3_PLAN)
    years = battery_life_years(TABLE3_PLAN, VL34570)
    elapsed = time.perf_counter() - t0
    assert b.e_tx_session_j == pytest.approx(TABLE3_PUBLISHED["e_tx_j"], rel=0.001)
    assert b.e_acq_session_j == pytest.approx(TABLE3_PUBLISHED["e_acq_j"], rel=0.001)
    assert b.e_day_j == pytest.approx(TABLE3_PUBLISHED["e_day_j"], rel=0.01)
    assert years == pytest.approx(TABLE3_PUBLISHED["battery_life_y"], rel=0.02)
    assert elapsed < 1.0


def test_criterion_03_validation_window():
    t0 = time.perf_counter()
    t, p = simulate_power_trace(VALIDATION_PLAN)
    v = validate_window(t, p, VALIDATION_PLAN)
    elapsed = time.perf_counter() - t0
    assert v.e_model_j == pytest.approx(WINDOW_MODEL_J, rel=0.005)
    assert v.e_measured_j == pytest.approx(WINDOW_MEASURED_J, rel=0.015)
    assert elapsed < 5.0


def test_criterion_04_ten_year_plan_and_drain_point():
    assert battery_life_years(TEN_YEAR_PLAN, LS336000) >= 10.0
    assert TEN_YEAR_PLAN.daily_data_bytes() == TEN_YEAR_DAILY_BYTES
    drain_days = battery_life_days(DRAIN_PLAN, LS336000)
    assert drain_days == pytest.approx(DRAIN_POINT_DAYS, rel=DRAIN_POINT_TOL)


def test_criterion_05_filter_compliance():
    t0 = time.perf_counter()
    spec = DecimatorSpec()
    stages, report = design_decimator(spec)
    assert len(stages) == 6
    assert int(np.prod([st.decim for st in stages])) == 256
    assert report.total_coeffs <= 1000
    assert report.stopband_atten_db >= 60.0
    assert report.passband_ripple_db <= 0.1

    fs = spec.f_in_hz
    tt = np.arange(int(20 * fs)) / fs
    y = cascade(np.sin(2 * np.pi * 90.0 * tt), stages)
    settle = 4 * warmup_input_samples(stages) // spec.total_decim
    residual_dbfs = 20 * np.log10(np.max(np.abs(y[settle:])))
    assert residual_dbfs <= -60.0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_enob():
    t0 = time.perf_counter()
    stages, _ = design_decimator()
    enob = measure_enob(stages, AdcSpec())
    elapsed = time.perf_counter() - t0
    gap_bits = CLAIMED_ENOB_BITS - enob
    print(f"\nENOB = {enob:.3f} bits; {gap_bits:+.3f} bits short of the "
          f"{CLAIMED_ENOB_BITS:g}-bit claim")
    assert enob >= 15.0, f"ENOB {enob:.3f} (gap to claim: {gap_bits:+.3f})"
    assert elapsed < 10.0


def test_criterion_07_modal_accuracy_20_seeds():
    for seed in range(20):
        rows = repro_table5(seed=seed)
        for r in rows:
            err_pct = abs(r.computed - r.published) / r.published * 100.0
            assert err_pct < 0.1, f"seed {seed}: {r.name} off by {err_pct:.4f}%"


def test_criterion_08_damage_detection():
    for label, tol_hz, verdict in (
        ("DAMAGE_1", 0.01, Verdict.LIGHT),
        ("DAMAGE_2", 0.02, Verdict.MODERATE),
    ):
        shift_hz = DAMAGE_SHIFTS_HZ[label]
        text = (f"[scenario]\nseed = 42\n[signal-synth]\nstructure = {label}\n"
                "[energy-model]\nt_acq_s = 180\n")
        r = run_scenario(parse_scenario_text(text), write=False)
        first = r.report.shifts[0]
        assert first.shift_hz == pytest.approx(shift_hz, abs=tol_hz), label
        # only the first mode moves in these presets, so it decides the verdict
        assert r.report.verdict is verdict, label


def test_criterion_09_harvest_margin():
    assert harvest_day_wh(DEFAULT_HARVESTER) == 3.24
    neutral, margin = energy_neutral(TABLE3_PLAN, DEFAULT_HARVESTER)
    assert neutral and margin >= 100.0


def test_criterion_10_property_suites():
    rng = np.random.default_rng(0)

    # packetize round trip on random int16 inputs
    for _ in range(60):
        n = int(rng.integers(1, 4000))
        x = rng.integers(-32768, 32768, size=n).astype(np.int16)
        assert np.array_equal(reassemble(packetize(x)), x)

    # state machine closed under 10^4 random events, audit only on illegal
    # (no legal transition is a self-loop, so state change identifies them)
    legal = {(s, e) for s in RadioState for e in RadioEvent if step(s, e) is not s}
    m = RadioStateMachine()
    events = list(RadioEvent)
    illegal_seen = 0
    for idx in rng.integers(0, len(events), size=10_000):
        before = m.state
        e = events[int(idx)]
        after = m.step(e)
        assert isinstance(after, RadioState)
        if (before, e) not in legal:
            assert after is before
            illegal_seen += 1
    assert len(m.audit) == illegal_seen

    # closed-form lifetime vs day-by-day decrement over a 20-plan grid
    plans = [SessionPlan(n_sessions_per_day=n, t_acq_s=t)
             for n in (1, 2, 3, 4, 5) for t in (30.0, 60.0, 300.0, 900.0)]
    for plan in plans:
        closed = battery_life_days(plan, VL34570)
        sim = battery_life_days_sim(plan, VL34570)
        assert abs(sim - closed) / closed < 0.01

    # energy per bit falls monotonically with payload size
    epbs = [epb_uj_per_bit(n, e) for n, e, _ in PAYLOAD_EPB_ROWS]
    assert all(a > b for a, b in zip(epbs, epbs[1:]))
