"""How fast the shared host runs right now, measured between ops.

The host's speed moves by up to 1.7 times over stretches of seconds to
minutes, and a whole run can fall into a fast or a slow stretch.  A fixed
piece of pure-Python graph work that never calls regext, the probe, is
timed between ops, at most every ``GAP_S`` seconds.  An op's time is scaled
by ``REFERENCE_S`` over the median probe time of the ``WINDOW`` probes
nearest to it, which gives its time at the host's usual speed.  The probe
follows the host's swings closely: over 2 s windows the time of repeated
regext work moved by up to 1.7 times, while its ratio to the probe kept a
quartile spread of 2.5 % (see NOTES.md).
"""

from __future__ import annotations

import gc
import random
import statistics
from bisect import bisect_left
from time import perf_counter

# median probe time on the 2-vCPU reference host in its usual state
REFERENCE_S = 0.0050
GAP_S = 0.2
WINDOW = 5


def _probe() -> int:
    """BFS from every vertex, bitmask intersections and a sort on a fixed
    random 60-vertex graph: the kind of work regext does, in plain Python."""
    rng = random.Random(5)
    n = 60
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(240):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    total = 0
    for s in range(n):
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        total += len(seen)
    masks = [sum(1 << w for w in adj[v]) for v in range(n)]
    for a in masks:
        for b in masks:
            total += bin(a & b).count("1")
    order = sorted((len(adj[v]), tuple(sorted(adj[v]))) for v in range(n))
    return total + len(order)


class HostClock:
    """Probe times taken between ops, and the scale they give each op."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._due = 0.0

    def probe(self) -> None:
        """Time one probe, with the collector off so the heap the library
        leaves behind does not slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            _probe()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self._due = end + GAP_S

    def tick(self) -> None:
        """Probe if the last probe is at least ``GAP_S`` old."""
        if perf_counter() >= self._due:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """Reference probe time over the median of the probes nearest the
        middle of [start, end]."""
        i = bisect_left(self.times, (start + end) / 2)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_S / statistics.median(self.durations[lo:lo + WINDOW])

    def median_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.durations)
