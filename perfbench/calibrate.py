"""Host speed, measured by a fixed kernel that does not call nervecheck.

The host this benchmark runs on is shared: its speed for one process
drifts by up to ~2x over tens of seconds, and every timing in a run
drifts with it.  ``Meter`` times a fixed kernel shaped like the
program's own hot loop right after each timed item, and run.py scales
a pass's time by ``NOMINAL_S`` over the mean kernel time beside it: the
time the pass would take on a host where the kernel takes ``NOMINAL_S``.
The kernel never calls the program, so a change to the program moves
the scaled times as it moves the raw ones, while the host's drift, which
moves the kernel too, largely cancels.

    python3 perfbench/calibrate.py      # print a few kernel times
"""

from __future__ import annotations

import heapq
import time
from itertools import combinations

# kernel seconds on the reference host (2-vCPU x86_64, CPython 3.11, at
# its faster state); only the unit of the scaled times depends on it
NOMINAL_S = 0.15
VERTICES, DIM = 34, 3


def _kernel() -> int:
    """Greedy collapse of the 3-skeleton of a 33-simplex (~53k simplices).

    Written here, not imported: tuples of ints, ``combinations``, a dict
    of coface sets and a heap, at a working set of tens of MB like the
    complexes the program builds.  A small cache-resident loop slows down
    about twice as much as the program when the host is busy.
    """
    present = set()
    for k in range(1, DIM + 2):
        present.update(combinations(range(VERTICES), k))
    cofaces: dict[tuple[int, ...], set] = {s: set() for s in present}
    for s in present:
        if len(s) > 1:
            for f in combinations(s, len(s) - 1):
                cofaces[f].add(s)
    heap = [(len(s), s) for s in present if len(cofaces[s]) == 1]
    heapq.heapify(heap)
    pairs = 0

    def drop(u):
        present.discard(u)
        if len(u) > 1:
            for f in combinations(u, len(u) - 1):
                links = cofaces[f]
                links.discard(u)
                if f in present and len(links) == 1:
                    heapq.heappush(heap, (len(f), f))

    while heap:
        _, s = heapq.heappop(heap)
        if s in present and len(cofaces[s]) == 1:
            (tau,) = cofaces[s]
            drop(s)
            drop(tau)
            pairs += 1
    return pairs


def _time_kernel() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Meter:
    """Host slowdown over windows of timed work, measured beside that work.

    ``follow(seconds)`` runs the kernel, right after a timed item, for
    SHARE of the item's time; ``take()`` closes the window and returns its
    slowdown: kernel seconds per run over NOMINAL_S.  Because the kernel
    runs in proportion to the time it follows, the window's mean kernel
    time is the time-weighted harmonic mean of the host's speed, so
    ``seconds / slowdown`` is the work done at nominal speed.
    """

    SHARE = 0.2

    def __init__(self):
        self._kernel_s = 0.0
        self._runs = 0
        self._owed = 0.0

    def follow(self, seconds: float) -> None:
        self._owed += self.SHARE * seconds
        while self._owed > 0 or not self._runs:
            took = _time_kernel()
            self._kernel_s += took
            self._runs += 1
            self._owed -= took

    def take(self) -> float:
        self.follow(0.0)
        slowdown = self._kernel_s / self._runs / NOMINAL_S
        self._kernel_s, self._runs = 0.0, 0
        return slowdown


if __name__ == "__main__":
    for _ in range(10):
        print(f"{_time_kernel():.5f}")
