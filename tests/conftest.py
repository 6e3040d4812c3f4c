import threading

import pytest

from shmtwin.decimator import DecimatorSpec, design_decimator


@pytest.fixture(scope="session")
def default_chain():
    """The 256x chain is used all over; design it once per test session."""
    spec = DecimatorSpec()
    stages, report = design_decimator(spec)
    return spec, stages, report


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running which it did not find."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {left}")
