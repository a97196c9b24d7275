"""Machine-speed probe: a fixed computation timed at regular CPU-time ticks.

On a shared host the speed of one core drifts by a fifth or more within
seconds and between runs minutes apart, and it moves the package's code and
any other code together.  `SpeedProbe` times `reference()`, which uses no
code of the package, every `interval` seconds of process CPU time while the
measured passes run.  An operation's time multiplied by the mean reference
speed (1 / sample time) of the samples taken during it is in units of the
reference ("ref") and no longer carries that drift.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

_X = np.linspace(0.1, 2.0, 6)
_PERM = (2, 0, 3, 1)


def reference() -> float:
    """Small-array numpy arithmetic and tuple/dict work, as in the package."""
    acc = 0.0
    seen = {}
    for i in range(200):
        c, s = np.cosh(_X + i * 1e-3), np.sinh(_X + i * 1e-3)
        u = (c[:, None] * c[None, :]) / (s[:, None] * s[None, :])
        acc += float(np.arccos(np.clip(u / u.max(), -1.0, 1.0)).sum())
        p = tuple(_PERM[(j + i) % 4] for j in range(4))
        seen[p] = seen.get(p, 0) + 1
    return acc + len(seen)


class SpeedProbe:
    """Context manager sampling `reference()` on SIGVTALRM."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        return False

    def median(self) -> float:
        return statistics.median(d for _t, d in self.samples)

    def normalise(self, records: list) -> None:
        """For each operation record ("start", "s"), take the probe's own
        time inside it out of "s" and add "ref": the remaining time times
        the mean reference speed of the samples taken during it, or of the
        last sample before it."""
        starts = [t for t, _d in self.samples]
        for r in records:
            lo = bisect_left(starts, r["start"])
            hi = bisect_right(starts, r["start"] + r["s"])
            inside = [d for _t, d in self.samples[lo:hi]]
            r["s"] -= sum(inside)
            near = inside or [self.samples[max(lo - 1, 0)][1]]
            r["ref"] = r["s"] * statistics.fmean(1.0 / d for d in near)
