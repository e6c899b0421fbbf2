"""Step timing corrected for the machine's speed at the time.

The shared machine the benchmark was tuned on switches between a fast state
and one about 1.6x slower, in spells from under a second to minutes; runs of
the same code read up to 1.8x apart. Each step is therefore timed between
two runs of a fixed probe and reported as

    wall time x reference / (mean of the two probe times),

i.e. in seconds at the speed at which the probe takes its reference time.
The probe resembles the work it corrects: a pure-Python loop for work inside
the benchmark's interpreter, a bare interpreter start for set-up samples
(fresh interpreters, which the slow state hits harder), and both for CLI
commands. On that machine the loop probe cut the spread of the CLI chain's
time over six seeds from 22 % to 5 %, and the start probe that of 8-sample
windows of ``import survkit.cli`` times from 7.7 % to 3.0 %. A probe only
sees the machine at a step's ends, so short steps are corrected best. The
raw wall times and probe times stay in the run record.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time


def loop_probe() -> float:
    """Wall time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    return time.perf_counter() - t0


def start_probe() -> float:
    """Wall time of starting and ending a bare interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


def command_probe() -> float:
    """A bare interpreter start plus the loop: the two kinds of work a CLI
    command does."""
    return start_probe() + loop_probe()


# Each probe's time in the fast state of the machine the benchmark was tuned
# on (2-core Intel Xeon VM, Python 3.11), so that corrected times read close
# to wall times there. They only set the scale: comparisons between commits
# on one machine do not depend on them.
REFERENCE_S = {loop_probe: 0.004, start_probe: 0.012, command_probe: 0.016}


class Steps:
    """Wall time and surrounding probe time of each named step of a pass.

    Consecutive steps share a probe: the one after a step is the one before
    the next.
    """

    def __init__(self, probe):
        self.wall: dict[str, float] = {}
        self.probe: dict[str, float] = {}
        self._probe = probe
        self._last_probe: float | None = None

    @contextlib.contextmanager
    def time(self, name: str):
        before = self._probe() if self._last_probe is None else self._last_probe
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall[name] = time.perf_counter() - t0
            self._last_probe = self._probe()
            self.probe[name] = (before + self._last_probe) / 2

    def corrected(self, name: str) -> float:
        return self.wall[name] * REFERENCE_S[self._probe] / self.probe[name]

    def record(self) -> dict:
        return {"steps": self.wall, "probes": self.probe,
                "corrected": {k: self.corrected(k) for k in self.wall}}
