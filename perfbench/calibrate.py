"""A fixed reference loop that measures the host's current speed.

On a shared host the machine's own speed drifts: the same pass can take
twice as long a minute later, while the process sees no steal time and
its CPU time tracks its wall time.  :func:`reference_loop` does a fixed
amount of work of the kinds the simulator does - interpreted integer
arithmetic, a heap-ordered event loop over small objects with callbacks,
and NumPy gathers and sorts over arrays larger than the L2 cache - so its
time rises and falls with the host's speed as a pass's does.  The
benchmark times it before and after each pass and a few times inside it,
and divides the pass's wall time (less the loop's own time) by the mean
of those loop times.  Spreading the samples across the pass follows the
host's speed more closely than timing the loop only at the pass's ends.

Nothing here imports the simulator, so a change to the program cannot
change the loop.  The collector is off while it runs, so a program that
tunes the ``gc`` thresholds does not change it either.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: iterations of the interpreted arithmetic loop
ARITH_ITERS = 300_000
#: events delivered by the heap-ordered event loop
EVENTS = 20_000
#: rounds of NumPy gathers and sorts
NUMPY_ROUNDS = 4
_TABLE_SIZE, _GATHER_SIZE, _SORT_SIZE = 1_000_000, 200_000, 200_000

_arrays: tuple | None = None


class _Event:
    __slots__ = ("t", "key", "callback")

    def __init__(self, t: int, key: int, callback) -> None:
        self.t, self.key, self.callback = t, key, callback

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def _arith() -> int:
    s = 0
    for i in range(ARITH_ITERS):
        s += i * i % 7
    return s


def _event_loop() -> int:
    queue: list[_Event] = []
    seen: dict[int, int] = {}

    def deliver(key: int) -> None:
        seen[key % 509] = seen.get(key % 509, 0) + 1

    for i in range(2000):
        heapq.heappush(queue, _Event((i * 7919) % 10007, i, deliver))
    for n in range(EVENTS):
        ev = heapq.heappop(queue)
        ev.callback(ev.key)
        heapq.heappush(queue, _Event(ev.t + (ev.key * 31 + n) % 97 + 1,
                                     ev.key, deliver))
    return sum(seen.values())


def _numpy() -> int:
    global _arrays
    if _arrays is None:
        rng = np.random.default_rng(0)
        _arrays = (rng.integers(0, 1 << 30, size=_TABLE_SIZE),
                   rng.integers(0, _TABLE_SIZE, size=_GATHER_SIZE))
    table, index = _arrays
    s = 0
    for _ in range(NUMPY_ROUNDS):
        s += int(table[index].sum())
        s += int(np.sort(table[:_SORT_SIZE])[-1])
    return s


def reference_loop() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _arith()
        _event_loop()
        _numpy()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
