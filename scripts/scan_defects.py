"""Seeded scans of the twin's known modal-analysis defects, each held to a bound.

Each scan runs a fixed set of scenarios in process, through
``run_scenario(..., write=False)``, so it writes no files, and counts the
runs that read wrong:

- ``ambient <structure>``: 180 s ambient records of NO_DAMAGE, DAMAGE_1 and
  DAMAGE_2 against the NO_DAMAGE baseline, seeds 1000-1039.  A run reads
  wrong when its verdict differs from the one the structure's true shifts
  earn: its largest shift, each mode against the baseline mode of the same
  index, judged by the run's thresholds.
- ``dwell first-mode sweep``: 60 s dwell records whose first mode is 1.5 to
  50.1 % low in 0.6 % steps, the seed set to the step's index.  Wrong as
  above.
- ``DAMAGE_1 + event``: ``scenarios/event_trigger.ini`` with the DAMAGE_1
  structure, seeds 2000-2009.  Wrong as above.
- ``loss <t> s <p>``: DAMAGE_1 dwell records of 60 and 180 s sent over a link
  that loses each packet with probability 0.05, 0.2 or 0.4, seeds 0-9.  A
  run reads wrong when its matched first mode is more than 0.01 Hz from the
  true one, or no peak matched it.

BOUNDS holds each scan's bound, set at the count the program gave when the
scan was committed.  The script prints one line per scan and exits 1 when
any count is above its bound.  A change that lowers a count lowers its
bound with it; seeds, record lengths and ranges stay as they are.

Run from anywhere, with the package installed (``pip install -e .``) or
``src`` on ``PYTHONPATH``:

    python scripts/scan_defects.py

It makes about 270 runs, two to three minutes on a two-core machine.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

from shmtwin import presets
from shmtwin.modal import Verdict
from shmtwin.scenario import load_scenario, parse_scenario_text, run_scenario
from shmtwin.signals import StructureModel

ROOT = Path(__file__).resolve().parents[1]

# Each scan's count of wrong readings may not rise above these.
BOUNDS = {
    "ambient NO_DAMAGE": 11,
    "ambient DAMAGE_1": 12,
    "ambient DAMAGE_2": 0,
    "dwell first-mode sweep": 51,
    "DAMAGE_1 + event": 10,
    "loss 180 s 0.05": 1,
    "loss 180 s 0.2": 1,
    "loss 180 s 0.4": 6,
    "loss 60 s 0.05": 1,
    "loss 60 s 0.2": 6,
    "loss 60 s 0.4": 6,
}

# Criterion 08's tolerance on the first mode of DAMAGE_1.
LOSS_TOL_HZ = presets.DAMAGE_CHECKS["DAMAGE_1"][0]

_SCENARIO = """\
[scenario]
seed = {seed}
[signal-synth]
structure = {structure}
excitation = {excitation}
[nbiot-sim]
loss_prob = {loss}
[energy-model]
t_acq_s = {t_acq}
"""


def _scenario(structure="NO_DAMAGE", excitation="dwell", t_acq=180, seed=0, loss=0.0):
    return parse_scenario_text(_SCENARIO.format(structure=structure, excitation=excitation,
                                                t_acq=t_acq, seed=seed, loss=loss))


def _true_verdict(s) -> Verdict:
    worst = max(abs(f - b) / b * 100.0 for f, b in zip(s.structure.freqs, s.baseline.freqs))
    if worst >= s.modal.moderate_shift_pct:
        return Verdict.MODERATE
    return Verdict.LIGHT if worst >= s.modal.light_shift_pct else Verdict.NO_DAMAGE


def _verdicts(scenarios):
    """(wrong count, runs, the verdicts read) over scenarios, each judged
    against the verdict its structure's true shifts earn."""
    read, wrong = Counter(), 0
    for s in scenarios:
        truth = _true_verdict(s)
        verdict = run_scenario(s, write=False).report.verdict
        read[verdict.name] += 1
        wrong += verdict is not truth
    return wrong, sum(read.values()), " ".join(f"{k}={v}" for k, v in sorted(read.items()))


def _sweep_structure(step: int) -> StructureModel:
    low_pct = 1.5 + 0.6 * step
    freqs = presets.NO_DAMAGE.freqs
    return StructureModel((freqs[0] * (1.0 - low_pct / 100.0), *freqs[1:]),
                          f"first mode {low_pct:.1f} % low")


def _loss_errors(t_acq, loss):
    errors = []
    for seed in range(10):
        s = _scenario("DAMAGE_1", t_acq=t_acq, seed=seed, loss=loss)
        got = run_scenario(s, write=False).report.shifts[0].current_hz
        errors.append(float("inf") if got is None else abs(got - s.structure.freqs[0]))
    wrong = sum(e > LOSS_TOL_HZ for e in errors)
    return wrong, len(errors), f"max error {max(errors):.4f} Hz"


def scans():
    """Yield (scan name, wrong count, runs, detail) for each scan of BOUNDS."""
    for label in ("NO_DAMAGE", "DAMAGE_1", "DAMAGE_2"):
        yield (f"ambient {label}",
               *_verdicts(_scenario(label, "ambient", seed=seed) for seed in range(1000, 1040)))
    dwell = _scenario(t_acq=60)
    yield ("dwell first-mode sweep",
           *_verdicts(replace(dwell, structure=_sweep_structure(step), seed=step)
                      for step in range(82)))
    event = load_scenario(ROOT / "scripts" / "scenarios" / "event_trigger.ini")
    yield ("DAMAGE_1 + event",
           *_verdicts(replace(event, structure=presets.DAMAGE_1, seed=seed)
                      for seed in range(2000, 2010)))
    for t_acq in (180, 60):
        for loss in (0.05, 0.2, 0.4):
            yield (f"loss {t_acq} s {loss}", *_loss_errors(t_acq, loss))


def main() -> int:
    t0 = time.perf_counter()
    worse = []
    for n, (name, wrong, runs, detail) in enumerate(scans(), start=1):
        bound = BOUNDS[name]
        note = "WORSE" if wrong > bound else "below its bound" if wrong < bound else "at its bound"
        print(f"{name}: {wrong} of {runs} wrong, bound {bound}, {note} ({detail})", flush=True)
        if wrong > bound:
            worse.append(name)
    print(f"{n} scans in {time.perf_counter() - t0:.0f} s; "
          f"{len(worse)} above their bound{': ' + ', '.join(worse) if worse else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
