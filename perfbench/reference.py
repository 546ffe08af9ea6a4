"""A frozen reference kernel that measures the host's current speed.

The host this benchmark was tuned on runs Python up to 2x slower for
tens of seconds at a time (contention from outside the container), so
raw operation times spread across runs by more than any useful bound.
The kernel below is a small discrete-event loop — heap of slotted
events, a comparison method, a callback that updates a dict — written
here once and never changed, so it does the same work on every run and
on every version of the program. Timed between operations, it slows
down with the host the way the simulator does, but more: in slow
stretches the kernel takes about twice as long, the simulator about 1.3
times.  :func:`normalize` therefore scales an operation's host time by
the kernel's speed raised to :data:`SLOWDOWN_SHARE`, the exponent that
left the least spread between repeated rounds (see README.md).
"""

from __future__ import annotations

import heapq
import time

__all__ = [
    "REFERENCE_S",
    "SLOWDOWN_SHARE",
    "normalize",
    "reference_checksum",
    "reference_sample",
    "reference_time",
]

#: The kernel's duration on the 2-vCPU container the bounds were tuned on.
#: Normalized times are host seconds on a host where the kernel takes this long.
REFERENCE_S = 0.02

#: The share, on a log scale, of the kernel's slowdown that the simulator
#: suffers too.  Fitted on the same container: over repeated rounds of
#: ``tcp-bbr`` and ``tcp-aqm`` and over 302 adjacent pairs of the kernel
#: and a 1 s Cubic transfer, exponents of 0.5 to 0.7 left the least
#: spread; 1.0 over-corrected and 0 did not correct.
SLOWDOWN_SHARE = 0.6

#: Kernel runs per sample; their median drops a run the scheduler cut into.
_SAMPLE_RUNS = 3

_INITIAL_EVENTS = 1500
_TOTAL_EVENTS = 6000


class _Event:
    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time_s: float, seq: int, callback, args: tuple) -> None:
        self.time = time_s
        self.seq = seq
        self.callback = callback
        self.args = args

    def __lt__(self, other: "_Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


def _kernel() -> int:
    heap: list[_Event] = []
    hits: dict[int, int] = {}

    def count(key: int) -> None:
        hits[key] = hits.get(key, 0) + 1

    for seq in range(1, _INITIAL_EVENTS + 1):
        heapq.heappush(heap, _Event((seq * 7919 % 1000) / 1000, seq, count, (seq % 97,)))
    seq = _INITIAL_EVENTS
    while heap:
        event = heapq.heappop(heap)
        event.callback(*event.args)
        if seq < _TOTAL_EVENTS:
            seq += 1
            heapq.heappush(
                heap, _Event(event.time + (seq * 7919 % 1000) / 1000, seq, count, (seq % 97,))
            )
    return sum(key * n for key, n in hits.items())


def reference_checksum() -> int:
    """The kernel's result, which never changes: it proves the work is fixed."""
    return _kernel()


def reference_time() -> float:
    """Host seconds one run of the kernel takes right now."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def reference_sample() -> float:
    """The kernel's time right now: the median of a few runs."""
    return sorted(reference_time() for _ in range(_SAMPLE_RUNS))[_SAMPLE_RUNS // 2]


def normalize(host_s: float, kernel_s: float) -> float:
    """``host_s`` as it would read on a host where the kernel takes
    :data:`REFERENCE_S`, given that it took ``kernel_s`` around it."""
    return host_s * (REFERENCE_S / kernel_s) ** SLOWDOWN_SHARE
