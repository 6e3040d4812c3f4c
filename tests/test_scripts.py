import os
import subprocess
import sys
from pathlib import Path

from shmtwin.energy import DAYS_PER_YEAR, LS336000, lifetime_curve
from shmtwin.presets import LIFETIME_SESSION_COUNTS, LIFETIME_TACQ_GRID_S

ROOT = Path(__file__).resolve().parents[1]


def test_lifetime_sweep_prints_the_fig5_curve_in_years(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "lifetime_sweep.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "t_acq_min 1x/day  2x/day  4x/day  6x/day"
    days = {(t, n): d for t, n, d in lifetime_curve(
        LIFETIME_TACQ_GRID_S, LIFETIME_SESSION_COUNTS, LS336000)}
    assert len(lines) == 1 + len(LIFETIME_TACQ_GRID_S)
    for line, t_acq in zip(lines[1:], LIFETIME_TACQ_GRID_S):
        cells = line.split()
        assert float(cells[0]) == t_acq / 60
        assert cells[1:] == [f"{days[t_acq, n] / DAYS_PER_YEAR:.2f}y"
                             for n in LIFETIME_SESSION_COUNTS]
    assert list(tmp_path.iterdir()) == []       # prints only; fig5 writes the CSV
