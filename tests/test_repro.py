import pytest

from shmtwin.repro import TARGETS, run_repro


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_repro_target_passes_and_writes_report(target, tmp_path):
    rows, ok = run_repro(target, outdir=tmp_path)
    assert ok, [f"{r.name}: {r.computed} vs {r.published}" for r in rows if not r.ok]
    report = tmp_path / f"{target}.csv"
    assert report.exists()
    text = report.read_text()
    assert text.splitlines()[0] == "name,published,computed,tolerance,status"
    assert len(text.splitlines()) == len(rows) + 1
    assert "FAIL" not in text


def test_unknown_target_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_repro("table9", outdir=tmp_path)
