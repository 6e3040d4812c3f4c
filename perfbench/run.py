"""shmtwin benchmark launcher.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each exists): scenario-suite,
seed-sweep, radio-plan.  A fourth, long-record, runs from here but is not
in BENCHMARK.json: on ambient records the modal stage misreads the
undamaged structure as damaged for a few seeds in a hundred, so its runs
can report ``correct: false`` until the peak estimator is fixed.  For the
same reason scenario-suite leaves out the ambient event_trigger.ini.
``--workload all`` runs the four in turn, printing each one's metrics and
JSON line.

The launcher starts each workload in a fresh Python process
(``perfbench/worker.py``) with BLAS/OpenMP pools at one thread, ``src/`` on
``PYTHONPATH``, no bytecode writing, and a temporary directory under
``.perfbench_tmp/`` that it removes afterwards, so a run leaves the working
tree as it found it.  With ``--trace 0`` it also starts two set-up-only
processes and reports the median of the three set-up times as ``setup_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scenario-suite", "seed-sweep", "long-record", "radio-plan")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result; no JSON is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, tmp: Path, deadline: float, setup_only: bool) -> tuple[dict, list[str]]:
    """Run one worker process; returns its JSON result and its other lines."""
    tmp.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=_env(),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {e.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        return json.loads(lines[-1]), lines[:-1]
    except (json.JSONDecodeError, IndexError):
        raise BenchError("worker printed no result") from None


def run_workload(args, tmp_root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups, attempted, failed = [], 0, 0
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            res, _ = _worker(args, tmp_root / f"setup{k}", deadline, setup_only=True)
            setups.append(res["setup_s"])
            attempted += res["attempted"]
            failed += res["failed"]
    res, lines = _worker(args, tmp_root / "main", deadline, setup_only=False)
    for line in lines:
        print(line)
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics = {"setup_s": statistics.median(setups), **metrics}
    attempted += res["attempted"]
    failed += res["failed"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    if setups:
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    out = {}
    for m in declared:
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shmtwin benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    need = [ROOT / "BENCHMARK.json", ROOT / "src" / "shmtwin" / "__init__.py",
            ROOT / "scripts" / "scenarios"]
    missing = [str(p.relative_to(ROOT)) for p in need if not p.exists()]
    if missing:
        print(f"benchmark: not a shmtwin checkout, missing {missing}", file=sys.stderr)
        return 2

    # SystemExit inside subprocess.run makes it kill and reap the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp_base = ROOT / ".perfbench_tmp"
    tmp_root = tmp_base / f"run-{os.getpid()}"
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                  tmp_root / name)
            print(json.dumps(result))
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
