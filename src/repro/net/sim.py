"""A minimal discrete-event simulator.

Every network and transport component schedules callbacks on one shared
:class:`Simulator`.  The design favours raw event throughput — packet-level
TCP at hundreds of megabits produces millions of events per simulated
minute — so events are plain slotted objects with a cancellation flag
rather than process objects.  The heap holds ``(time, seq, event)``
tuples, where ``seq`` is the simulator's running count of scheduled
events.  It is unique, so ``heapq`` orders entries by ``(time, seq)``
with tuple comparisons in C and never compares two events, and
equal-time events fire in scheduling order.

Each simulator keeps lightweight event counters (scheduled / executed /
cancelled), and the module aggregates the same counters across every
instance in the process so campaign instrumentation
(:mod:`repro.runner.instrument`) can report how much simulation work an
experiment performed without wrapping individual simulators.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from heapq import heappop, heappush
from typing import Any, NamedTuple

from repro.audit import core as audit
from repro.trace import core as trace

__all__ = ["Event", "SimCounters", "Simulator", "global_counters"]

#: Scheduling slightly in the past happens when callers compute an absolute
#: timestamp as ``now + dt`` and float rounding pushes the reconstructed
#: delay a few ULPs negative.  Delays within this tolerance are clamped to
#: "fire immediately" instead of crashing mid-simulation.
PAST_TOLERANCE_S = 1e-9


class SimCounters(NamedTuple):
    """A snapshot of event counters (per simulator or process-wide)."""

    scheduled: int
    executed: int
    cancelled: int


# Process-wide totals across all Simulator instances, for instrumentation.
_total_scheduled = 0
_total_executed = 0
_total_cancelled = 0


def global_counters() -> SimCounters:
    """Snapshot of event counters summed over every simulator in the process."""
    return SimCounters(_total_scheduled, _total_executed, _total_cancelled)


class Event:
    """A scheduled callback; cancel with :meth:`cancel`."""

    __slots__ = ("time", "callback", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        sim: "Simulator | None",
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing (O(1); removal is lazy)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            global _total_cancelled
            sim.events_cancelled += 1
            _total_cancelled += 1


class Simulator:
    """Event loop with virtual time.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, fired.append, "hello")
        >>> sim.run()
        >>> (sim.now, fired)
        (1.5, ['hello'])
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self.events_scheduled = 0
        self.events_executed = 0
        self.events_cancelled = 0
        # Captured once at construction: with no tracer installed this is the
        # module-level null tracer and run() takes the untraced loop.
        self.tracer = trace.current()
        self.auditor = audit.current()

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # `not >=` also rejects NaN, which would otherwise fire first.
        if not delay >= 0:
            raise ValueError(f"event delay must be a number >= 0, got {delay}")
        global _total_scheduled
        time = self.now + delay
        self.events_scheduled = seq = self.events_scheduled + 1
        event = Event(time, callback, args, self)
        heappush(self._heap, (time, seq, event))
        _total_scheduled += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        ``time`` a few ULPs before ``now`` (|delay| <= ``PAST_TOLERANCE_S``)
        is treated as "now": float rounding in ``time - now`` must not crash
        a simulation that computed the timestamp from ``now`` itself.
        """
        delay = time - self.now
        if -PAST_TOLERANCE_S <= delay < 0.0:
            delay = 0.0
        return self.schedule(delay, callback, *args)

    def run(self, until: float | None = None) -> None:
        """Run events in order until the heap drains or ``until`` is reached.

        With ``until`` set, simulation time always advances exactly to
        ``until`` even if the heap drains earlier.  A NaN ``until`` raises
        ``ValueError``: it would compare false and bound nothing.

        The loop is duplicated rather than branching per event: tracing and
        auditing are decided once per ``run()`` call, so with both disabled
        the hot path is identical to the uninstrumented loop.
        """
        if until is not None and math.isnan(until):
            raise ValueError("run(until=nan): the bound must be a number")
        if self.auditor.enabled or self.tracer.enabled:
            self._run_instrumented(until)
            return
        global _total_executed
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                break
            time, _, event = heappop(heap)
            if event.cancelled:
                continue
            # Detach so a late cancel() on a fired event cannot skew counters.
            event.sim = None
            self.events_executed += 1
            _total_executed += 1
            self.now = time
            event.callback(*event.args)
        if until is not None and self.now < until:
            self.now = until

    def _run_instrumented(self, until: float | None) -> None:
        """The ``run`` loop with a virtual-time probe and dispatch tracing.

        ``schedule()`` rejects negative delays, so a dispatch time behind
        ``now`` can only come from a future bookkeeping regression (heap
        corruption, a mutated ``Event.time``); the probe turns that from
        silent causality violation into a flagged audit event (a no-op on
        the null auditor).  When tracing is active, each dispatch emits a
        ``sim.dispatch`` span and a ``sim.queue_depth`` counter sample.
        """
        global _total_executed
        heap = self._heap
        tracer = self.tracer
        auditor = self.auditor
        traced = tracer.enabled
        now = self.now  # local mirror: one compare per event, no attr load
        while heap:
            if until is not None and heap[0][0] > until:
                break
            event = heappop(heap)[2]
            if event.cancelled:
                continue
            event.sim = None
            self.events_executed += 1
            _total_executed += 1
            etime = event.time
            if etime < now:
                auditor.flag(
                    "audit.sim.time_regression_s",
                    etime,
                    regression_s=now - etime,
                )
            now = etime
            self.now = etime
            callback = event.callback
            callback(*event.args)
            if traced:
                # __qualname__ keeps the label deterministic; repr() of a bound
                # method or partial would embed a memory address.
                label = getattr(callback, "__qualname__", None) or type(callback).__name__
                tracer.complete("sim.dispatch", event.time, self.now, callback=label)
                pending = self.events_scheduled - self.events_executed - self.events_cancelled
                tracer.counter("sim.queue_depth", self.now, float(pending))
        if until is not None and self.now < until:
            self.now = until

    def counters(self) -> SimCounters:
        """Snapshot of this simulator's event counters."""
        return SimCounters(self.events_scheduled, self.events_executed, self.events_cancelled)

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self.events_scheduled - self.events_executed - self.events_cancelled
