import pytest

from shmtwin.decimator import DecimatorSpec, design_decimator


@pytest.fixture(scope="session")
def default_chain():
    """The 256x chain is used all over; design it once per test session."""
    spec = DecimatorSpec()
    stages, report = design_decimator(spec)
    return spec, stages, report
