"""The closed-loop client: one request at a time, each under a time limit.

A request is a CLI argv handed to ``omegatt.cli.run_cli`` in-process, or a
library call.  The client captures stdout and stderr and records the result
(the exit code of a CLI request), the latency and how the request ended.
"""

from __future__ import annotations

import contextlib
import io
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Callable


class RequestTimeout(BaseException):
    """Raised from the interval timer when a request runs past its limit.

    A ``BaseException`` so that no ``except Exception`` inside the program
    can swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise RequestTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    result: object = None  # exit code of a CLI request, or a library call's value
    out: str = ""
    err: str = ""
    seconds: float = 0.0
    crash: str | None = None  # traceback, or "timeout after N s"


def run_request(call: Callable[[], object], limit: float) -> Outcome:
    """Run one request under ``limit`` seconds; the latency covers ``call``."""
    outcome = Outcome()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with time_limit(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                outcome.result = call()
            except SystemExit as exc:  # argparse usage errors
                outcome.result = exc.code if isinstance(exc.code, int) else 2
            outcome.seconds = time.perf_counter() - start
    except RequestTimeout:
        outcome.seconds = time.perf_counter() - start
        outcome.crash = f"timeout after {limit:g} s"
    except Exception:  # a traceback is a failed request, not a failed benchmark
        outcome.seconds = time.perf_counter() - start
        outcome.crash = traceback.format_exc(limit=-3)
    outcome.out, outcome.err = out.getvalue(), err.getvalue()
    return outcome
