"""A fixed pure-Python kernel that gauges how fast the host runs right now.

On a shared host the same pure-Python loop runs 20% faster or slower from
one minute to the next, whatever the window: on a shared 2-vCPU virtual
machine, the quartile spread of one-minute medians of such a loop was 20%.
Raw pass times then measure the neighbours as much as medsim.

So every timed pass runs this kernel three times right after set-up and
then between units, every ``INTERVAL_S``, and the benchmark reports times
scaled to reference speed: a unit's time is multiplied by ``REFERENCE_S``
over the median kernel time within ``WINDOW_S`` of it, a pass's time by
its units' time-weighted factor, and set-up time by the factor of the
three runs after it. Windows of medsim work scaled this way varied by 4-9%
where their raw times varied by 14-30%. The raw times are recorded next to
the scaled ones.

Changing the kernel or ``REFERENCE_S`` makes every earlier figure
incomparable; do neither.
"""

import bisect
import heapq
import statistics

REFERENCE_S = 0.015    # the kernel's duration at reference speed
INTERVAL_S = 0.2       # run the kernel after a unit once this much time has passed
WINDOW_S = 1.0         # a unit is scaled by the kernel runs this close to it
SETUP_RUNS = 3


def kernel():
    """Dict updates, heap pushes and pops and float sums, as medsim's routing does."""
    table, heap = {}, []
    for i in range(20000):
        k = i % 977
        table[k] = table.get(k, 0.0) + i * 0.5
        heapq.heappush(heap, (i * 7919) % 10007)
    acc = 0.0
    while heap:
        acc += heapq.heappop(heap) * 1e-3
    return acc + len(table)


def scale(durations):
    """Factor that turns a time measured alongside ``durations`` into reference time."""
    return REFERENCE_S / statistics.median(durations)


class Gauge:
    """The kernel runs of one pass: when, how long, and the time they took out of it."""

    def __init__(self, clock):
        self.clock = clock
        self.mids, self.durations = [], []
        self.spent_s = 0.0
        self.last = clock()

    def run(self):
        t0 = self.clock()
        kernel()
        self.last = self.clock()
        self.mids.append((t0 + self.last) / 2)
        self.durations.append(self.last - t0)
        self.spent_s += self.last - t0

    def between_units(self):
        if self.clock() - self.last >= INTERVAL_S:
            self.run()

    def scale_at(self, t):
        """Scale from the kernel runs within ``WINDOW_S`` of ``t``, else the nearest one."""
        lo = bisect.bisect_left(self.mids, t - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t + WINDOW_S)
        if lo == hi:
            lo = min(range(len(self.mids)), key=lambda k: abs(self.mids[k] - t))
            hi = lo + 1
        return scale(self.durations[lo:hi])
