from pathlib import Path

import pytest

from shmtwin.repro import TARGETS, run_repro

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
