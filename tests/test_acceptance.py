"""Acceptance gate: one test per published claim the package must reproduce.

Each claim is checked once, by the rows of its ``shmtwin.repro`` target at
the tolerance stated there; a criterion here asserts that every row of its
target passes, and holds the claimed runtime budget on the target's
computation, not on its report.  ``test_repro.py`` asserts that each target
writes the committed ``repro_out/``; the ``repro_run`` fixture runs each
target once per session for both.  Criterion 07 reruns the table-5 pipeline
over 20 seeds.
"""

import math
from pathlib import Path

from shmtwin.repro import TARGETS, repro_table5

REPRO_OUT = Path(__file__).resolve().parents[1] / "repro_out"


def _passes(run, budget_s=math.inf):
    rows, compute_s, _ = run
    assert [f"{r.name}: {r.computed} vs {r.published} ({r.tolerance})"
            for r in rows if not r.ok] == []
    assert compute_s < budget_s


def test_criterion_01_epb_table(repro_run):
    _passes(repro_run("table1"), budget_s=1e-3)


def test_criterion_02_daily_energy_chain(repro_run):
    _passes(repro_run("table3"), budget_s=1.0)


def test_criterion_03_validation_window(repro_run):
    _passes(repro_run("validation_window"), budget_s=5.0)


def test_criterion_04_ten_year_plan_and_drain_point(repro_run):
    _passes(repro_run("fig5"))


def test_criterion_05_filter_compliance(repro_run):
    _passes(repro_run("filter"), budget_s=10.0)


def test_criterion_06_enob(repro_run):
    _passes(repro_run("enob"), budget_s=10.0)


def test_criterion_07_modal_accuracy_20_seeds():
    for seed in range(20):
        failed = [f"{r.name}: {r.computed}" for r in repro_table5(seed=seed) if not r.ok]
        assert failed == [], f"seed {seed}"


def test_criterion_08_damage_detection(repro_run):
    _passes(repro_run("damage"))


def test_criterion_09_harvest_margin(repro_run):
    _passes(repro_run("harvest"))


def test_repro_out_holds_the_targets_csvs_alone(repro_run):
    written = {p.name for t in TARGETS for p in repro_run(t)[2].iterdir()}
    assert sorted(p.name for p in REPRO_OUT.iterdir()) == sorted(written)
