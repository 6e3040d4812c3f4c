from pathlib import Path

import pytest

from shmtwin import presets
from shmtwin.repro import TARGETS, ReproRow, repro_table5, run_repro

REPRO_OUT = Path(__file__).resolve().parents[1] / "repro_out"


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_repro_target_passes_and_writes_report(target, repro_run):
    rows, _, outdir = repro_run(target)
    assert [f"{r.name}: {r.computed} vs {r.published}" for r in rows if not r.ok] == []
    written = sorted(p.name for p in outdir.iterdir())
    assert f"{target}.csv" in written
    for name in written:
        assert (REPRO_OUT / name).is_file(), f"{name} is not committed in repro_out/"
        assert (outdir / name).read_bytes() == (REPRO_OUT / name).read_bytes(), name


def test_unknown_target_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_repro("table9", outdir=tmp_path)


def test_table5_reports_a_mode_the_run_does_not_find(monkeypatch):
    # the run finds the structure's four modes; a fifth published mode is a
    # failing n_modes row, not dropped by the pairing
    monkeypatch.setattr(presets, "TONE_COMPARISON",
                        presets.TONE_COMPARISON + (("V", 20.0, 20.0, 0.0),))
    rows = repro_table5()
    assert [r.name for r in rows[:4]] == ["mode_I_hz", "mode_II_hz", "mode_III_hz", "mode_IV_hz"]
    assert all(r.ok for r in rows[:4])
    assert rows[4:] == [ReproRow("n_modes", 5, 4, "abs 0.0", False)]
