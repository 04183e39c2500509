"""Simulation-kernel test fixtures."""

import signal

import pytest


@pytest.fixture
def wall_clock_guard():
    """Fail the test after 10 host seconds instead of letting a
    livelocked event loop hang the suite."""
    def on_alarm(_signum, _frame):
        raise TimeoutError("test exceeded its wall-clock guard")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
