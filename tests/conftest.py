"""Shared fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture
def time_limit():
    """A context manager that raises TimeoutError in the test if its body
    runs longer than the given seconds, so a hung worker pool fails the
    test instead of stalling the suite."""

    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
