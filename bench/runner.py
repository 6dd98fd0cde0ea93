"""Run one query under an in-process deadline and classify its outcome."""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass


class Deadline(BaseException):
    """Raised by the interval timer; a ``BaseException`` so that no
    ``except Exception`` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline


@dataclass
class Result:
    outcome: str  # "yes", "no", "timeout", "refused" or "error"
    seconds: float
    answer: object = None
    error: str = ""


class QueryRunner:
    """Calls ``dispatch(host, pattern)`` with a SIGALRM deadline.

    The handler is installed for the runner's lifetime; :meth:`close`
    restores the previous one.  The timer is disarmed in ``finally`` on
    every path, so an overrun never leaks into the next query.
    """

    def __init__(self, dispatch, refusal: type[Exception], deadline_s: float):
        self.dispatch = dispatch
        self.refusal = refusal
        self.deadline_s = deadline_s
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, host, pattern) -> Result:
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
                answer = self.dispatch(host, pattern)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            return Result("timeout", time.perf_counter() - start)
        except self.refusal:
            return Result("refused", time.perf_counter() - start)
        except Exception as exc:  # any error is a recorded failure, not a crash
            return Result("error", time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        outcome = "yes" if answer.contains else "no"
        return Result(outcome, time.perf_counter() - start, answer)
