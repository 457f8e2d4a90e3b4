"""Host-speed probe: scales measured times to one reference speed.

On a shared host the machine's speed changes by up to 1.6x, for
stretches of seconds to minutes, and every piece of Python code slows
alike: a 25-second run can fall wholly in a fast or a slow stretch.  A
fixed probe, pure Python that never calls seqmod, runs between verdicts
at least every `EVERY_S` seconds.  A time measured from a given start
is multiplied by `REFERENCE_S` over the median probe time of the
samples taken nearest that start (`NEIGHBOURS` before it and as many
after), so it reads what it would on a host where the probe takes
`REFERENCE_S`.  The probe is the same for every version of seqmod, so a
slower program still reads slower; only the host's swings cancel.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.6e-3  # about the probe's time on a 2-vCPU VM with Python 3.11
EVERY_S = 0.05
REPEATS = 3
NEIGHBOURS = 3


def _size(term) -> int:
    return 1 + sum(_size(a) for a in term[1:]) if isinstance(term, tuple) else 1


def probe() -> int:
    """Fixed interpreter-bound work of the kind a prover does: build
    nested tuples, look them up in a dict, walk them recursively."""
    memo: dict = {}
    acc = 0
    for i in range(120):
        term = ("f", ("g", i, "x"), ("h", ("g", "y", i), ("k", i & 3)))
        key = (term, i & 15)
        if key not in memo:
            memo[key] = _size(term)
        acc += memo[key] + len(repr(i))
    return acc


class Speedometer:
    """Probe samples of one run: when each was taken and how long the
    probe took (the median of `REPEATS` back-to-back probes)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probe_s: list[float] = []

    def sample(self) -> None:
        durations = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            probe()
            durations.append(time.perf_counter() - start)
        self.probe_s.append(statistics.median(durations))
        self.times.append(time.perf_counter())

    def maybe_sample(self) -> None:
        """Sample when `EVERY_S` has gone by since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float) -> float:
        """Multiplier that takes a time measured from `start` to the
        reference speed.  Call it once the samples after `start` exist."""
        j = bisect.bisect_right(self.times, start)
        near = self.probe_s[max(0, j - NEIGHBOURS): j + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)
