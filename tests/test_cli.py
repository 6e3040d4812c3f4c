import pytest

from shmtwin.cli import EXIT_ACCEPT, EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from shmtwin.repro import TARGETS, ReproRow

GOOD = """\
[scenario]
label = smoke
seed = 2

[energy-model]
t_acq_s = 45
"""


def _write(tmp_path, text, name="s.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_ok_and_outputs(tmp_path, capsys):
    path = _write(tmp_path, GOOD)
    out = tmp_path / "bundle"
    assert main(["run", path, "--outputs", str(out)]) == EXIT_OK
    assert (out / "verdict.txt").exists()
    assert "verdict = NO_DAMAGE" in capsys.readouterr().out


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_bad_config(tmp_path, capsys):
    path = _write(tmp_path, GOOD + "[mystery]\nx = 1\n")
    assert main(["run", path]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_stage_failure(tmp_path, capsys):
    path = _write(tmp_path, "[scenario]\nseed = 1\n[energy-model]\nt_acq_s = 2\n")
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_STAGE
    assert "stage failure" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("stopband_atten_db", "1e6"),
                                        ("passband_ripple_db", "1e-300")])
def test_run_tolerance_that_underflows_is_a_config_error(tmp_path, capsys, key, value):
    path = _write(tmp_path, GOOD + f"[dsp-chain]\n{key} = {value}\n")
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err


def test_run_filter_design_failure_is_a_stage_error(tmp_path, capsys):
    path = _write(tmp_path, GOOD + "[dsp-chain]\ncoeff_budget = 50\n")
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_STAGE
    assert ("stage failure: stage dsp: chain needs 218 coefficients, budget is 50"
            in capsys.readouterr().err)


def test_run_seed_override_changes_outputs(tmp_path):
    path = _write(tmp_path, GOOD + "[nbiot-sim]\nmode = stochastic\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--outputs", str(a)]) == EXIT_OK
    assert main(["run", path, "--outputs", str(b), "--seed", "77"]) == EXIT_OK
    assert (a / "uplink.csv").read_bytes() != (b / "uplink.csv").read_bytes()


@pytest.mark.parametrize("seed", ["-1", "-5"])
def test_run_negative_seed_override_is_a_config_error(tmp_path, capsys, seed):
    path = _write(tmp_path, GOOD)
    assert main(["run", path, "--outputs", str(tmp_path / "o"), "--seed", seed]) == EXIT_CONFIG
    assert "config error: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_repro_single_target(tmp_path, capsys):
    assert main(["repro", "table2_check", "--outdir", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "table2_check.csv").exists()
    out = capsys.readouterr().out
    assert "table2_check: PASS" in out and "[PASS]" in out


def test_repro_failing_row_is_exit_4_and_every_target_still_reports(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(TARGETS, "enob",
                        lambda outdir=None: [ReproRow("off", 1.0, 2.0, "abs 0.0", False)])
    assert main(["repro", "all", "--outdir", str(tmp_path)]) == EXIT_ACCEPT
    out = capsys.readouterr().out
    assert "enob: FAIL\n  [FAIL] off: published=1.0 computed=2 tol=abs 0.0\n" in out
    assert out.count("[FAIL]") == 1
    for t in sorted(TARGETS):
        assert t == "enob" or f"{t}: PASS" in out
        assert (tmp_path / f"{t}.csv").exists()
    assert (tmp_path / "enob.csv").read_text().endswith(",FAIL\n")


def test_repro_rejects_unknown_target(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["repro", "table9"])
    assert exc.value.code == 2        # argparse choice failure is a config error


def test_design_filter_reports_and_saves(tmp_path, capsys):
    save = tmp_path / "stages.txt"
    assert main(["design-filter", "--save", str(save)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "stages = 6" in out and "stopband attenuation" in out
    assert save.exists()


def test_design_filter_infeasible_budget(capsys):
    assert main(["design-filter", "--budget", "20"]) == EXIT_STAGE
    assert "stage failure" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_design_filter_budget_below_one_is_a_config_error(capsys, budget):
    assert main(["design-filter", "--budget", budget]) == EXIT_CONFIG
    assert "config error: coeff_budget must be >= 1" in capsys.readouterr().err


def test_lifetime_command(capsys):
    assert main(["lifetime", "--tacq", "60", "--sessions", "6",
                 "--battery", "VL34570"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "3.16" in out or "1154" in out


def test_run_directory_is_a_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == EXIT_CONFIG
    assert "config error: cannot read scenario" in capsys.readouterr().err


def test_run_binary_file_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "s.ini"
    path.write_bytes(b"\x00\xff\xfe\x80")
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "config error: cannot read scenario" in capsys.readouterr().err


def test_repro_outdir_that_is_a_file_is_a_stage_error(tmp_path, capsys):
    outdir = tmp_path / "taken"
    outdir.write_text("")
    assert main(["repro", "table1", "--outdir", str(outdir)]) == EXIT_STAGE
    assert "stage failure: stage repro" in capsys.readouterr().err


def test_design_filter_save_to_a_directory_is_a_stage_error(tmp_path, capsys):
    assert main(["design-filter", "--save", str(tmp_path)]) == EXIT_STAGE
    assert "stage failure: stage write" in capsys.readouterr().err
