import threading
import time

import pytest

from shmtwin.decimator import DecimatorSpec, design_decimator
from shmtwin.repro import TARGETS, run_repro


@pytest.fixture(scope="session")
def default_chain():
    """The 256x chain is used all over; design it once per test session."""
    spec = DecimatorSpec()
    stages, report = design_decimator(spec)
    return spec, stages, report


@pytest.fixture(scope="session")
def repro_run(tmp_path_factory):
    """Run each repro target once per test session, into an outdir of its own.

    ``repro_run(target)`` returns ``(rows, compute_s, outdir)``, where
    ``compute_s`` times the target's computation and not the report it writes.
    """
    runs = {}

    def run(target):
        if target not in runs:
            elapsed = []

            def timed(outdir, compute=TARGETS[target]):
                t0 = time.perf_counter()
                rows = compute(outdir=outdir)
                elapsed.append(time.perf_counter() - t0)
                return rows

            outdir = tmp_path_factory.mktemp(target)
            with pytest.MonkeyPatch.context() as mp:
                mp.setitem(TARGETS, target, timed)
                rows, _ = run_repro(target, outdir=outdir)
            runs[target] = (rows, elapsed[0], outdir)
        return runs[target]

    return run


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running which it did not find."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
