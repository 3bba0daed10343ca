"""Machine-speed probe: rescales host seconds to one reference speed.

On a shared host the speed of a single-threaded process drifts between
states up to 2x apart, for stretches from under a second to over half a
minute; the same fixed loop takes 13.5 ms in a fast state and 24.5 ms in
the slow one, in CPU time as well as wall time. Raw host seconds of a 20 s
round then spread by a fifth between identical runs.

So while a timed interval runs, a SIGALRM handler times a fixed pure-Python
LRU loop every ``PERIOD_S`` seconds, in the benchmark's own process and
thread. An interval's reference seconds are its host seconds, less the
probe's own time, with each stretch between probes scaled by
``REF_PROBE_S`` over the probe duration there: the host seconds the same
work would take at the speed where the probe takes ``REF_PROBE_S``. The
probe costs about 2% of the host time, and that time is subtracted. The
probe is pure Python so that it can also run while numpy and swizzlesim are
being imported.
"""

import signal
import time
from collections import OrderedDict
from statistics import median

PERIOD_S = 0.05
# The probe takes 0.5-0.8 ms in the fast states and 1.0-1.05 ms in the slow
# state of the machine the README's figures come from; a round 1.0 ms makes
# reference seconds read close to host seconds in its slow state.
REF_PROBE_S = 1.0e-3
_KEYS = [(i * 7919) % 1543 for i in range(2500)]


def _probe_work() -> None:
    lru: OrderedDict = OrderedDict()
    for key in _KEYS:
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = None
            if len(lru) > 1024:
                lru.popitem(last=False)


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_work()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a signal already raised is dropped

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds [start, end) would take at the reference speed, probe excluded.

        The host time before each probe counts at that probe's local speed:
        the median duration of it and its two neighbours on each side, so
        one probe the host stalls does not weigh like a change of state.
        """
        inside = [(t, d) for t, d in self.samples if start <= t < end]
        if not inside:
            return end - start
        durations = [d for _, d in inside]
        seconds = 0.0
        prev = start
        for i, (t, d) in enumerate(inside):
            local = median(durations[max(0, i - 2):i + 3])
            seconds += (t - prev) / local
            prev = t + d
        seconds += (end - prev) / local
        return seconds * REF_PROBE_S

    def median_probe_s(self, start: float, end: float) -> float:
        return median([d for t, d in self.samples if start <= t < end] or [REF_PROBE_S])
