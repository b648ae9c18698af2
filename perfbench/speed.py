"""Wall times corrected for the machine's own changes of speed.

On a shared virtual machine the same code can run 1.5x slower for seconds or
minutes at a time, whatever it is. A `SpeedClock` samples that speed while
the program runs: every PROBE_INTERVAL_S a SIGALRM handler runs a fixed probe
(float parsing, dict and list work, a small numpy product, the mix the
program spends its time in) in the main thread and records how long it
took. The corrected time of a call is its wall time, less the probes that ran
inside it, scaled by NOMINAL_PROBE_S over the mean probe time around it: the
seconds the call would have taken had the probe run at its nominal speed. A
slow spell slows the probe and the program alike and cancels out; a slower
program is still slower.

Only benchmark code runs in the handler, and Python retries the system calls
a signal interrupts, so the program's behaviour does not change.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.25
# About the probe's time when this 2-vCPU Xeon VM runs at its full speed;
# corrected seconds are wall seconds at that speed.
NOMINAL_PROBE_S = 0.002

_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_TEXT = " ".join(f"{x:.6f}" for x in np.linspace(-3.0, 3.0, 64))


def probe() -> float:
    acc = 0.0
    for _ in range(72):
        values = [float(t) for t in _TEXT.split()]
        table = dict(enumerate(values))
        acc += sum(table[i] * table[63 - i] for i in range(64))
        acc += float(np.tanh(_MATRIX @ np.array(values[:16])).sum())
    return acc


class SpeedClock:
    """Samples the probe time while active (use as a context manager)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.probes: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        probe()
        self.starts.append(started)
        self.probes.append(time.perf_counter() - started)

    def __enter__(self) -> SpeedClock:
        for _ in range(20):  # warm the probe's code paths before the first sample
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        # one more sample, so that the last call has a probe after it
        wanted = len(self.starts) + 1
        while len(self.starts) < wanted:
            time.sleep(0.01)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Corrected seconds of the call that ran from `start` to `end`."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = self.probes[lo:hi]
        around = self.probes[max(lo - 1, 0) : hi + 1]
        return (end - start - sum(inside)) * NOMINAL_PROBE_S / statistics.fmean(around)

    def summary(self) -> dict:
        ms = [1000 * p for p in self.probes]
        q = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
        return {"samples": len(ms), "probe_ms_p10": round(q[0], 3), "probe_ms_median": round(statistics.median(ms), 3),
                "probe_ms_p90": round(q[-1], 3)}
