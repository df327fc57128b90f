"""A SIGALRM deadline for tests of loads that once stalled."""

import contextlib
import signal


@contextlib.contextmanager
def alarm(seconds: int):
    """Fail the block with a TimeoutError once it has run for seconds."""
    def stalled(signum, frame):
        raise TimeoutError(f"stalled for {seconds} s")
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
