import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shmtwin import scenario
from shmtwin.cli import EXIT_ACCEPT, EXIT_CONFIG, EXIT_OK, EXIT_PIPE, EXIT_STAGE, main
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


def test_run_attenuation_whose_kaiser_beta_overflows_is_a_config_error(tmp_path, capsys):
    # its window would not fit a float, but the ceiling on what the design
    # can verify refuses it before Kaiser's beta is taken
    path = _write(tmp_path, GOOD + "[dsp-chain]\nstopband_atten_db = 6455\n"
                  "coeff_budget = 100000\n")
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == ("config error: stopband_atten_db = 6455.0 is above "
                                       "237.0 dB, the most the design can verify\n")


def test_run_plan_whose_daily_energy_overflows_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, GOOD + "k_acq = 1e308\n")
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == "config error: plan's daily energy inf J is not finite\n"
    assert not (tmp_path / "o").exists()


def test_run_filter_design_failure_is_a_stage_error(tmp_path, capsys):
    # above the chain's Kaiser floor of 214, below the 218 its design needs
    path = _write(tmp_path, GOOD + "[dsp-chain]\ncoeff_budget = 215\n")
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_STAGE
    assert capsys.readouterr().err == ("stage failure: stage dsp: chain needs 218 coefficients, "
                                       "budget is 215\n")


def test_run_budget_below_the_kaiser_floor_is_a_config_error(tmp_path, capsys):
    # Kaiser's estimates (9 + 9 + 9 + 11 + 21 + 155) already exceed the
    # budget, so the spec refuses it at parse, before any window is designed
    path = _write(tmp_path, GOOD + "[dsp-chain]\ncoeff_budget = 50\n")
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: chain needs at least 214 coefficients, "
                                       "budget is 50\n")


def test_run_with_a_prime_decimation_fails_fast_on_the_budget(tmp_path, capsys):
    # one stage of 1000003: its window alone would hold ~38 M taps
    path = _write(tmp_path, GOOD + "[signal-synth]\nf_os_hz = 100000300\n"
                  "[dsp-chain]\ntotal_decim = 1000003\nn_stages = 1\n")
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: chain needs at least ")
    assert err.endswith(" coefficients, budget is 1000\n")


def test_run_with_a_decimation_above_the_cap_is_a_config_error(tmp_path, capsys):
    # a prime near 2**53 would take seconds of trial division to split
    path = _write(tmp_path, GOOD + "[signal-synth]\nf_os_hz = 9007199254740881.0\n"
                  "[dsp-chain]\ntotal_decim = 9007199254740881\nn_stages = 1\n"
                  "cutoff_hz = 0.5\n")
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: total_decim = 9007199254740881 is "
                                       "above the cap 2147483648 (2**31)\n")


def test_run_with_an_alias_sweep_above_the_cap_fails_fast(tmp_path, capsys):
    # ~1.07e9 alias bands at the 512 Hz output rate: the sweep's grid alone
    # would take ~7 TiB
    path = _write(tmp_path, GOOD + "[signal-synth]\nf_os_hz = 1099511627776.0\n"
                  "[dsp-chain]\ntotal_decim = 2147483648\ncoeff_budget = 5000\n")
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_STAGE
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("stage failure: stage dsp: the alias sweep needs ")
    assert err.endswith(" points, above the cap 4194304 (2**22)\n")


def test_run_out_of_memory_is_a_stage_error(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(scenario, "compute_spectrum", no_memory)
    path = _write(tmp_path, GOOD)
    with pytest.raises(scenario.StageError) as exc:
        scenario.run_scenario(scenario.load_scenario(path), write=False)
    assert exc.value.stage == "modal"
    assert isinstance(exc.value.__cause__, MemoryError)
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_STAGE
    assert capsys.readouterr().err == "stage failure: stage modal: MemoryError\n"


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


def test_design_filter_saves_to_a_device(capsys):
    assert main(["design-filter", "--save", os.devnull]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_design_filter_infeasible_budget(capsys):
    # below the Kaiser floor the spec refuses it; above, the design fails
    assert main(["design-filter", "--budget", "20"]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("config error: chain needs at least 214 coefficients, "
                                       "budget is 20\n")
    assert main(["design-filter", "--budget", "215"]) == EXIT_STAGE
    assert capsys.readouterr().err == ("stage failure: stage design: chain needs 218 "
                                       "coefficients, budget is 215\n")


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_design_filter_budget_below_one_is_a_config_error(capsys, budget):
    assert main(["design-filter", "--budget", budget]) == EXIT_CONFIG
    assert "config error: coeff_budget must be >= 1" in capsys.readouterr().err


def test_lifetime_command(capsys):
    assert main(["lifetime", "--tacq", "60", "--sessions", "6",
                 "--battery", "VL34570"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "3.16" in out or "1154" in out


def test_lifetime_of_a_plan_whose_daily_energy_overflows_is_a_config_error(capsys):
    assert main(["lifetime", "--tacq", "60", "--sessions", "6",
                 "--k-acq", "1e306"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: plan's daily energy inf J is not finite\n"


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


PLAN_MESSAGE = "a session acquires t_acq_s * f_s_hz = {} samples; it needs at least one and a finite count"


@pytest.mark.parametrize("tacq, samples", [("1e308", "inf"), ("0.001", "0.1")])
def test_lifetime_of_a_plan_that_overflows_or_samples_nothing_is_a_config_error(
        capsys, tacq, samples):
    t0 = time.perf_counter()
    assert main(["lifetime", "--tacq", tacq, "--sessions", "1"]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {PLAN_MESSAGE.format(samples)}\n"


@pytest.mark.parametrize("t_acq, err", [
    ("1e307", f"config error: {PLAN_MESSAGE.format('inf')}\n"),
    ("1e300", "config error: plan needs 7.84615e+300 s of activity, more than one day\n"),
], ids=["1e307", "1e300"])
def test_run_plan_that_overflows_is_a_short_config_error(tmp_path, capsys, t_acq, err):
    path = _write(tmp_path, GOOD.replace("t_acq_s = 45", f"t_acq_s = {t_acq}"))
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("t_acq, need", [("1e300", "1.30769e+300"), ("1e5", "130778")])
def test_lifetime_refuses_the_zero_session_plans_run_refuses(tmp_path, capsys, t_acq, need):
    # a run acquires one session even where the plan bills none; lifetime
    # judges the plan by the same rule and prints no plan
    err = f"config error: plan needs {need} s of activity, more than one day\n"
    assert main(["lifetime", "--tacq", t_acq, "--sessions", "0"]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", err)
    path = _write(tmp_path, GOOD.replace("t_acq_s = 45", f"t_acq_s = {t_acq}")
                  + "n_sessions_per_day = 0\n")
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", err)


COUNT_MESSAGE = "config error: session count must be at most 1.79769e+308\n"
HUGE_COUNT = "1" + "0" * 400


def test_lifetime_session_count_too_large_for_a_float_is_a_config_error(capsys):
    t0 = time.perf_counter()
    assert main(["lifetime", "--tacq", "60", "--sessions", HUGE_COUNT]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == COUNT_MESSAGE


def test_run_session_count_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, GOOD + f"n_sessions_per_day = {HUGE_COUNT}\n")
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == COUNT_MESSAGE


def _signed(magnitudes):
    return st.tuples(st.booleans(), magnitudes).map(lambda t: -t[1] if t[0] else t[1])


# Every float: zero, both infinities, NaN and subnormals, and magnitudes of
# either sign drawn log-uniformly from the least subnormal to the largest float.
_REALS = st.one_of(st.floats(), _signed(st.floats(-1074.0, 1024.0, exclude_max=True)
                                        .map(lambda e: 2.0 ** e)))
# Counts of either sign with up to 2000 bits, far past 2**63 and the largest float.
_COUNTS = _signed(st.integers(0, 2000).flatmap(lambda bits: st.integers(0, 2 ** bits)))


@settings(max_examples=200, deadline=1000)
@example(tacq=60.0, k_acq=6.5, sessions=int(HUGE_COUNT), battery="LS336000", coverage="GOOD")
@given(tacq=_REALS, k_acq=_REALS, sessions=_COUNTS,
       battery=st.sampled_from(["LS336000", "VL34570"]),
       coverage=st.sampled_from(["GOOD", "MEDIUM", "BAD"]))
def test_lifetime_over_every_input_exits_0_or_2(tacq, k_acq, sessions, battery, coverage):
    # "--flag=value", so that argparse takes "-inf" as a value, not a flag
    argv = ["lifetime", f"--tacq={tacq!r}", f"--k-acq={k_acq!r}", f"--sessions={sessions}",
            f"--battery={battery}", f"--coverage={coverage}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (EXIT_OK, EXIT_CONFIG)


def test_run_loss_probability_of_one_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, GOOD + "[nbiot-sim]\nloss_prob = 1.0\n")
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: loss_prob must be in [0, 1), got 1.0\n"


@pytest.mark.parametrize("argv", [["lifetime", "--tacq", "60", "--sessions", "6"],
                                  ["repro", "table1", "--outdir", "{tmp}"]],
                         ids=["lifetime", "repro"])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path, argv):
    # the reader is gone before the first write, as when `| head -1` has
    # read its line, so every write meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        done = subprocess.run([sys.executable, "-m", "shmtwin",
                               *[a.format(tmp=tmp_path) for a in argv]],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_PIPE
    assert done.stderr == b""


# Path text of every kind: empty, a NUL, a name that exists as a file or a
# directory, and any other characters, "/" excepted, so that each path
# stays inside the working directory.
_PATHS = st.one_of(st.sampled_from(["", "\0", "a\0b", "taken", "subdir", "."]),
                   st.text(st.characters(exclude_characters="/"), max_size=40)
                   .filter(lambda s: s != ".."))


@contextlib.contextmanager
def _in_fresh_dir(tmp_path_factory):
    """Run in a new directory holding a file ``taken`` and a directory ``subdir``."""
    path = tmp_path_factory.mktemp("cli")
    (path / "taken").write_text("")
    (path / "subdir").mkdir()
    back = os.getcwd()
    os.chdir(path)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            yield
    finally:
        os.chdir(back)


def _exits_cleanly(argv):
    t0 = time.perf_counter()
    code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_STAGE, EXIT_ACCEPT)
    assert code == EXIT_OK or time.perf_counter() - t0 < 1.0


# each budget at or above the Kaiser floor designs a chain afresh, ~0.07 s
@settings(max_examples=12, deadline=None)
@example(budget=2 ** 64, save="taken")
@example(budget=-(2 ** 64), save="subdir")
@given(budget=_COUNTS, save=_PATHS)
def test_design_filter_over_every_budget_and_save_path_exits_cleanly(
        tmp_path_factory, budget, save):
    with _in_fresh_dir(tmp_path_factory):
        _exits_cleanly(["design-filter", f"--budget={budget}", f"--save={save}"])


@settings(max_examples=40, deadline=None)
@example(target="table1", outdir="taken")
@given(target=st.sampled_from(["table1", "table2_check", "table3", "harvest"]), outdir=_PATHS)
def test_repro_over_every_outdir_exits_cleanly(tmp_path_factory, target, outdir):
    with _in_fresh_dir(tmp_path_factory):
        _exits_cleanly(["repro", target, f"--outdir={outdir}"])


def test_run_mode_at_or_above_nyquist_is_a_config_error(tmp_path, capsys):
    # a 20 Hz ADC cannot sample the structure's 13.125 Hz mode; the parser
    # checks the record with synthesis's own check, which refuses it
    path = _write(tmp_path, "[scenario]\nseed = 2\n[signal-synth]\nf_os_hz = 20\n"
                  "[dsp-chain]\nn_stages = 1\ntotal_decim = 1\ncutoff_hz = 5\n"
                  "[energy-model]\nt_acq_s = 100\n")
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == ("config error: mode at 13.125 Hz is at or above "
                                       "Nyquist (10.0 Hz)\n")


def test_run_attenuation_the_design_cannot_measure_is_a_config_error(tmp_path, capsys):
    # the stage check reads at most 240 dB; 238 dB plus the 3 dB design
    # margin used to grow a stage for 0.8 s before failing to converge
    path = _write(tmp_path, GOOD + "[dsp-chain]\nstopband_atten_db = 238\ncoeff_budget = 100000\n")
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == ("config error: stopband_atten_db = 238.0 is above "
                                       "237.0 dB, the most the design can verify\n")


def test_run_of_a_plan_with_no_sessions_still_acquires_at_most_a_day(tmp_path, capsys):
    # a run acquires one session even where the plan bills none; this one,
    # a 1e5 s record of 2.56e9 input samples, would run well past 1 s
    path = _write(tmp_path, GOOD.replace("t_acq_s = 45", "t_acq_s = 1e5")
                  + "n_sessions_per_day = 0\n")
    t0 = time.perf_counter()
    assert main(["run", path, "--outputs", str(tmp_path / "o")]) == EXIT_CONFIG
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == ("config error: plan needs 130778 s of activity, "
                                       "more than one day\n")


# Each key of the scenario table that takes a number, drawn over its whole
# range; the event keys come all three or none.
_NUMBERS = {key: _COUNTS if t is int else _REALS for key, t in scenario._TYPES.items()
            if t in (int, float) or key == "rssi_dbm"}
_EVENT = ("event_onset_s", "event_peak_g", "event_duration_s")
_NUMERIC_KEYS = st.builds(
    lambda keys, event: {**keys, **event},
    st.fixed_dictionaries({}, optional={k: s for k, s in _NUMBERS.items() if k not in _EVENT}),
    st.one_of(st.just({}), st.fixed_dictionaries({k: _NUMBERS[k] for k in _EVENT})))


def _scenario_text(values: dict) -> str:
    """A scenario file setting each key given, in its section, and seed 2 if no seed is."""
    values = {"seed": 2, **values}
    return "".join(f"[{section}]\n" + "".join(f"{key} = {values[key]!r}\n"
                                              for key in keys if key in values)
                   for section, keys in scenario._TABLE.items())


@settings(max_examples=40, deadline=None)
@example(values={"f_os_hz": 20.0, "n_stages": 1, "total_decim": 1, "cutoff_hz": 5.0,
                 "t_acq_s": 100.0}, expect=EXIT_CONFIG)
@example(values={"stopband_atten_db": 238.0, "coeff_budget": 100000}, expect=EXIT_CONFIG)
@example(values={"t_acq_s": 1e307}, expect=EXIT_CONFIG)
@example(values={"n_sessions_per_day": 0, "t_acq_s": 1e300}, expect=EXIT_CONFIG)
@given(values=_NUMERIC_KEYS, expect=st.none())
def test_run_over_every_numeric_key_exits_cleanly(tmp_path_factory, values, expect):
    with _in_fresh_dir(tmp_path_factory):
        Path("s.ini").write_text(_scenario_text(values))
        t0 = time.perf_counter()
        code = main(["run", "s.ini", "--outputs=out"])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_STAGE)
        assert code == EXIT_OK or time.perf_counter() - t0 < 1.0
        assert expect is None or code == expect
