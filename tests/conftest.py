import contextlib
import signal

import pytest

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@contextlib.contextmanager
def _deadline(seconds):
    # pytest.fail raises a BaseException, which no handler in cli.main catches
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s):`` makes a body that runs longer than s seconds
    fail instead of hang (SIGALRM, so POSIX and the main thread only)."""
    return _deadline
