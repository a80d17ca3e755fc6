"""A clock that runs at a fixed reference speed of the machine.

The virtual machine this benchmark was built on switches between a fast and
a slow speed every few seconds: a fixed piece of pure-Python work takes
either about 0.3 ms or about 0.5 ms, with no sign of it in steal time or in
the load. Raw wall time therefore spreads by up to 1.7x between runs of the
same code. ``SpeedClock`` samples the machine's current speed with a fixed
calibration task every ``PERIOD_S`` seconds, from a SIGALRM handler, and
advances at ``CAL_REF_S / task time`` virtual seconds per wall second. Its
readings are wall time rescaled to the speed at which the task takes
``CAL_REF_S``; the calibration work itself is excluded. The task uses the
standard library only, so no change to the measured package can move it.

Standard library only: the clock must be running before the package and
numpy are imported, so that their import time is measured with it.
"""
from __future__ import annotations

import json
import re
import signal
import time

_perf = time.perf_counter

CAL_REF_S = 0.0003  # about the task's time at the 2-core VM's fast speed
PERIOD_S = 0.2
_CAL_REPEATS = 3

_DOC = {f"k{i:03d}": {"id": i, "name": f"fund {i}", "value": i * 0.5, "tags": ["a", "b"]}
        for i in range(60)}
_ROWS = list(_DOC.values())
_TOKEN = re.compile(r"[a-z0-9]+")


def calibration_task() -> int:
    """Fixed work mixing what the workloads spend their time on: JSON
    rendering, regex tokenizing, sorting and filtered scans over dicts."""
    text = json.dumps(_DOC, sort_keys=True)
    tokens = _TOKEN.findall(text.lower())
    hits = [r for r in _ROWS
            if r.get("value") is not None and r["id"] % 3 == 0 and r.get("name") != "x"]
    return len(tokens) + len(hits) + len(sorted(tokens))


def calibrate() -> float:
    """Seconds the task takes now: the fastest of a few back-to-back runs."""
    best = float("inf")
    for _ in range(_CAL_REPEATS):
        start = _perf()
        calibration_task()
        best = min(best, _perf() - start)
    return best


class SpeedClock:
    """Reference-speed clock; use as a context manager. ``read`` returns
    reference seconds. While it runs, the process's SIGALRM handler and
    ITIMER_REAL belong to it."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # calibration task times, seconds
        self._virtual = 0.0
        self._factor = 1.0
        self._last = _perf()
        self._ticks = 0
        self._previous_handler = None

    def _tick(self, signum=None, frame=None) -> None:
        # close the interval at the speed sampled at its start, so that
        # readings stay continuous and never run backwards
        self._ticks += 1
        self._virtual += (_perf() - self._last) * self._factor
        sample = calibrate()
        self._factor = CAL_REF_S / sample
        self.samples.append(sample)
        self._last = _perf()

    def read(self) -> float:
        # the handler runs between two bytecodes of this method; if it ran,
        # the fields were read across a tick and the reading is retried
        while True:
            ticks = self._ticks
            value = self._virtual + (_perf() - self._last) * self._factor
            if ticks == self._ticks:
                return value

    def __enter__(self) -> "SpeedClock":
        sample = calibrate()
        self.samples.append(sample)
        self._factor = CAL_REF_S / sample
        self._last = _perf()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
