"""Timings scaled to a fixed reference speed.

On a shared host the speed at which the same Python code runs drifts by up
to 1.6x, in phases of seconds to minutes.  Those phases are longer than a
benchmark pass, so taking the fastest of several passes does not remove
them.  ``ScaledClock`` samples the machine's speed while it times a call: it
runs a small fixed reference task between calls and, from a timer signal,
every ``interval`` seconds during a call.  It then rescales the call's time
to what it would have been at the speed where the task takes
``REF_SECONDS``:

    scaled = raw * REF_SECONDS / mean(reference samples around and during the call)

``raw`` excludes the time spent in the samples themselves.  The task is a
breadth-first search written here, not in pillarkit, so no change to the
library alters the yardstick.  It does the same kind of set, dict and tuple
work as the library, so a machine slowdown hits both alike.
"""

from __future__ import annotations

import random
import signal
import time
from collections import deque

# Seconds the reference task takes on the machine the baseline was recorded
# on, at the fast end of its drift (Python 3.11, 2 shared cores).
REF_SECONDS = 0.0006


def _reference_graph(n: int = 1000, k: int = 3, seed: int = 20220119) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        for w in rng.sample(range(n), k):
            if w != v:
                adj[v].add(w)
                adj[w].add(v)
    return tuple(tuple(sorted(a)) for a in adj)


_ADJ = _reference_graph()


def reference_task() -> int:
    """Breadth-first search of a fixed random graph; returns the vertices reached."""
    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in _ADJ[u]:
            if w not in dist:
                dist[w] = du
                queue.append(w)
    return len(dist)


class ScaledClock:
    """Times calls one at a time; not reentrant, main thread only (it
    installs a SIGALRM handler for the duration of each call)."""

    def __init__(self, interval: float = 0.1):
        self._interval = interval
        self._samples: list[tuple[float, float]] = []  # (start, seconds)
        self._last = self._reference()[1]

    def _reference(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        reference_task()
        return t0, time.perf_counter() - t0

    def _on_timer(self, signum, frame) -> None:
        self._samples.append(self._reference())

    def measure(self, fn, *args):
        """Call ``fn(*args)``.  Return its result, the elapsed seconds, the
        raw seconds (elapsed minus the reference samples taken during the
        call) and the raw seconds scaled to the reference speed."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # a sample can still run after t1, before the timer is disarmed;
        # it is not part of the elapsed time, so it is not subtracted
        during = [d for start, d in self._samples if start < t1]
        elapsed = t1 - t0
        raw = elapsed - sum(during)
        after = self._reference()[1]
        refs = [self._last, *during, after]
        self._last = after
        return result, elapsed, raw, raw * REF_SECONDS * len(refs) / sum(refs)
