"""Mutation audit of the published figures in src/shmtwin/presets.py.

Each numeric literal of presets.py is moved once, in a temporary copy of
src/: a float is multiplied by 1.05 and an int is raised by 1.  The copy
then runs ``python -m shmtwin repro all``, and a non-zero exit means some
repro row, or a target's own check, caught the move.  A literal that no row
catches survives.  The audit fails when a survivor is not listed in
SURVIVORS below, or when a listed one is caught or no longer exists, so the
list stays exact.  Literals are named by where they sit in presets.py:
``NAME[index]`` or ``NAME['key']`` inside a tuple or dict, else
``NAME <literal>``.

Run from anywhere, with the packages the program needs installed:

    python scripts/audit_presets.py

It runs two mutants at a time, about a minute on a two-core machine.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = Path("shmtwin") / "presets.py"

# The literals that no row catches, grouped by why.
SURVIVORS = {
    # ROADMAP item 4: table5 scores the pipeline against the reference
    # column, from which the structures are synthesized, and reads neither
    # the MEMS column nor the published deltas; mode I alone is caught,
    # through the damage structures' absolute first modes
    "TONE_COMPARISON's MEMS and delta columns, and modes II-IV": (
        "TONE_COMPARISON[0][1]", "TONE_COMPARISON[0][3]",
        "TONE_COMPARISON[1][1]", "TONE_COMPARISON[1][2]", "TONE_COMPARISON[1][3]",
        "TONE_COMPARISON[2][1]", "TONE_COMPARISON[2][2]", "TONE_COMPARISON[2][3]",
        "TONE_COMPARISON[3][1]", "TONE_COMPARISON[3][2]", "TONE_COMPARISON[3][3]",
    ),
    # moved up, a tolerance or ceiling only loosens; a floor or ceiling that
    # the model clears by more than 5 % holds when it tightens
    "a tolerance, or a bound with more than 5 % margin": (
        "DAMAGE_CHECKS['DAMAGE_1'][0]", "DAMAGE_CHECKS['DAMAGE_2'][0]",
        "GOOD_MEAN_CAP_J", "GOOD_SINGLE_CAP_J", "WINDOW_GAP_TOL_PCT", "DRAIN_POINT_TOL",
        "HARVEST_MIN_MARGIN", "FILTER_PUBLISHED['max_coeffs']",
        "FILTER_PUBLISHED['min_atten_db']", "FILTER_PUBLISHED['max_ripple_db']",
        "FILTER_PUBLISHED['max_tone_dbfs']", "OCTAVE_GAIN_TOL_BITS",
    ),
    # the moved figure stays inside its row's tolerance: the DAMAGE_1 shift
    # by 0.0045 Hz of 0.01, the drain point inside the documented 20 % band,
    # a payload byte by under 0.5 % of its energy per bit, the SD write by
    # 0.03 % of a session's acquisition bill, 3.8 from 3.6 % under the
    # published bad-coverage mean to 1.2 % over it
    "a figure whose row's tolerance holds a 5 % move": (
        "DAMAGE_SHIFTS_HZ['DAMAGE_1']", "DRAIN_POINT_DAYS", "WINDOW_GAP_PCT",
        "OCTAVE_GAIN_BITS", "BAD_OVER_GOOD", "ENERGY_CONTRIBUTIONS_MJ['e_sd_write_mj']",
        "COVERAGE_PAYLOAD_ROW[0]", "PAYLOAD_EPB_ROWS[1][0]", "PAYLOAD_EPB_ROWS[2][0]",
        "PAYLOAD_EPB_ROWS[4][0]", "PAYLOAD_EPB_ROWS[5][0]", "FILTER_PUBLISHED['tone_hz']",
    ),
    # the model reads the figure, and the one row that checks it compares
    # the model with the same figure; no other published value pins it
    "a figure only the model and its own row read": (
        "BAD_OVER_MEDIUM", "GOOD_P95_OVER_MEAN",
    ),
    # a plan or curve read only through a floor, a band or a curve's shape;
    # the validation window bills one session of 10 packets whatever the
    # day's count; a session bills whole 650-sample packets, and 63 s still
    # fills the 10 that the table-3 and validation plans' 60 s fill
    "a plan or curve grid": (
        "TABLE3_PUBLISHED['t_acq_s']",
        "PLANS['validation']['n_sessions_per_day']", "PLANS['validation']['t_acq_s']",
        "PLANS['ten_year']['k_acq']", "PLANS['drain']['n_sessions_per_day']",
        "PLANS['drain']['t_acq_s']", "PLANS['drain']['k_acq']",
        "LIFETIME_TACQ_GRID_S 240", "LIFETIME_TACQ_GRID_S 1201", "LIFETIME_TACQ_GRID_S 60",
        "LIFETIME_SESSION_COUNTS[1]", "LIFETIME_SESSION_COUNTS[2]",
        "LIFETIME_SESSION_COUNTS[3]",
    ),
}


def literals(source: str) -> dict[str, ast.Constant]:
    """Every int or float literal of a module, by its name (see above)."""
    found: dict[str, ast.Constant] = {}

    def add(path, node):
        if path in found:
            raise SystemExit(f"two literals are both named {path}")
        found[path] = node

    def walk(node, path):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            add(path, node)
        elif isinstance(node, (ast.Tuple, ast.List)):
            for i, elt in enumerate(node.elts):
                walk(elt, f"{path}[{i}]")
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                walk(value, f"{path}[{ast.unparse(key)}]")
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand, path)
        else:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and type(sub.value) in (int, float):
                    add(f"{path} {ast.unparse(sub)}", sub)

    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            walk(stmt.value, ast.unparse(stmt.targets[0]))
        elif isinstance(stmt, ast.AnnAssign):
            walk(stmt.value, ast.unparse(stmt.target))
        else:
            walk(stmt, getattr(stmt, "name", type(stmt).__name__))
    return found


def mutate(source: str, node: ast.Constant) -> str:
    """The source with one literal moved: a float times 1.05, an int plus 1."""
    value = node.value * 1.05 if isinstance(node.value, float) else node.value + 1
    lines = source.splitlines(keepends=True)
    line = lines[node.lineno - 1]
    lines[node.lineno - 1] = line[:node.col_offset] + repr(value) + line[node.end_col_offset:]
    return "".join(lines)


def repro_all_fails(presets_source: str) -> bool:
    """Whether ``shmtwin repro all`` exits non-zero on a copy of src/ whose
    presets.py holds the given source."""
    with tempfile.TemporaryDirectory(prefix="audit-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / PRESETS).write_text(presets_source, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        init = str(src / "shmtwin" / "__init__.py")
        check = f"import shmtwin, sys; sys.exit(shmtwin.__file__ != {init!r})"
        if subprocess.run([sys.executable, "-c", check], env=env, cwd=tmp).returncode:
            raise SystemExit("the copy of src/ is not the one python imports")
        done = subprocess.run([sys.executable, "-m", "shmtwin", "repro", "all",
                               "--outdir", str(Path(tmp) / "out")],
                              env=env, cwd=tmp, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=600)
        return done.returncode != 0


def main() -> int:
    source = (ROOT / "src" / PRESETS).read_text(encoding="utf-8")
    if repro_all_fails(source):
        print("shmtwin repro all fails before any literal is moved")
        return 1
    found = literals(source)
    with ThreadPoolExecutor(max_workers=2) as pool:
        caught = dict(zip(found, pool.map(lambda n: repro_all_fails(mutate(source, n)),
                                          found.values())))
    survivors = {path for path, hit in caught.items() if not hit}
    listed = {path for group in SURVIVORS.values() for path in group}
    for path in found:
        print(f"{'caught ' if caught[path] else 'SURVIVED'} {path}")
    print(f"{len(found)} literals: {len(found) - len(survivors)} caught, "
          f"{len(survivors)} survived")
    unlisted = sorted(survivors - listed)
    stale = sorted(listed - survivors)
    for path in unlisted:
        print(f"survivor not listed in SURVIVORS: {path}")
    for path in stale:
        print(f"listed in SURVIVORS but {'caught' if path in found else 'not found'}: {path}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
