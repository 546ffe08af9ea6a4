"""Event-core microbench: events/s of the simulator and µs per link hop.

Two measurements, each timed min-of-5:

* self-rescheduling no-op events with about 1k pending and 15% of all
  scheduled events cancelled (an RTO-like timer re-armed every few
  events), run on the real :class:`Simulator` and, interleaved, on an
  in-file replica of the old event core, whose heap entries were
  ``Event`` objects ordered by a Python ``__lt__``.  The guard compares
  the two on the same host, so it does not depend on the host's speed:
  the tuple-keyed heap must dispatch at least 1.25x the replica's events/s;
* packets through a three-link drop-tail chain, reported as µs per hop
  (two events each: serialization done, then delivery).

Run with plain ``pytest benchmarks/test_sim_core_perf.py -s`` (these
tests time themselves and do not use the pytest-benchmark fixture).
"""

import heapq
import time

from repro.net.link import Link
from repro.net.packet import DATA, Packet
from repro.net.sim import Simulator

ROUNDS = 5
#: Self-rescheduling event chains, each with its own fixed delay.
CHAINS = 1000
#: Chains that also re-arm a timer on every fire, cancelling the previous
#: one: each such fire schedules two events and cancels one, so 176 of
#: 1000 chains cancel 15% of all scheduled events.
REARMING_CHAINS = 176
#: Longer than any chain's delay, so a timer is always cancelled before it
#: fires, and the cancelled ones wait in the heap for lazy removal.
TIMEOUT_S = 0.002
#: Simulated time per round: about 50k dispatches.
HORIZON_S = 0.05

PACKETS = 20_000
HOPS = 3

#: The replica's own module globals, as the old core kept process-wide totals.
_replica_scheduled = 0
_replica_executed = 0
_replica_cancelled = 0


class _OldEvent:
    """Replica of the old heap entry: ordered by a Python ``__lt__``."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = None

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            global _replica_cancelled
            sim._pending -= 1
            sim.events_cancelled += 1
            _replica_cancelled += 1

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class _OldSimulator:
    """Replica of the old ``schedule`` and plain ``run`` loop."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._pending = 0
        self.events_scheduled = 0
        self.events_executed = 0
        self.events_cancelled = 0

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        global _replica_scheduled
        self._seq += 1
        event = _OldEvent(self.now + delay, self._seq, callback, args)
        event.sim = self
        heapq.heappush(self._heap, event)
        self._pending += 1
        self.events_scheduled += 1
        _replica_scheduled += 1
        return event

    def run(self, until=None):
        global _replica_executed
        heap = self._heap
        while heap:
            event = heap[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(heap)
            if event.cancelled:
                continue
            event.sim = None
            self._pending -= 1
            self.events_executed += 1
            _replica_executed += 1
            self.now = event.time
            event.callback(*event.args)
        if until is not None and self.now < until:
            self.now = until


def _noop():
    pass


def _event_storm(sim):
    """Run ``CHAINS`` self-rescheduling no-op chains through ``sim`` for
    ``HORIZON_S``; return its clock and counters, which show that both
    cores did the same work."""
    schedule = sim.schedule

    def tick(delay):
        schedule(delay, tick, delay)

    def rearm(delay, timer):
        timer[0].cancel()
        timer[0] = schedule(TIMEOUT_S, _noop)
        schedule(delay, rearm, delay, timer)

    for chain in range(CHAINS):
        delay = (500 + chain * 7919 % 1000) * 1e-6
        if chain < REARMING_CHAINS:
            schedule(delay, rearm, delay, [schedule(TIMEOUT_S, _noop)])
        else:
            schedule(delay, tick, delay)
    sim.run(until=HORIZON_S)
    return sim.now, sim.events_scheduled, sim.events_executed, sim.events_cancelled


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def test_event_core_beats_the_old_object_heap():
    times = {Simulator: [], _OldSimulator: []}
    results = {}
    for i in range(ROUNDS):
        # Alternate which core runs first, so neither always follows the other.
        for core in (Simulator, _OldSimulator)[:: 1 if i % 2 == 0 else -1]:
            elapsed, results[core] = _timed(_event_storm, core())
            times[core].append(elapsed)
    real, replica = results[Simulator], results[_OldSimulator]
    real_times, replica_times = times[Simulator], times[_OldSimulator]
    assert real == replica
    _, scheduled, executed, cancelled = real
    real_rate = executed / min(real_times)
    replica_rate = executed / min(replica_times)
    speedup = real_rate / replica_rate
    print(f"\nevent core: {real_rate / 1e3:.0f}k events/s "
          f"(old object heap {replica_rate / 1e3:.0f}k, x{speedup:.2f}), "
          f"{cancelled / scheduled:.0%} of {scheduled} scheduled cancelled, "
          f"min of {ROUNDS}")
    assert speedup >= 1.25, f"tuple-keyed heap only x{speedup:.2f} the old object heap"


def _hop_chain():
    """Time ``PACKETS`` back-to-back packets through ``HOPS`` drop-tail
    links, from the first send to the last delivery."""
    sim = Simulator()
    links = [
        Link(sim, rate_bps=100e6, delay_s=0.001, queue_capacity_packets=PACKETS, name=f"hop{i}")
        for i in range(HOPS)
    ]
    for upstream, downstream in zip(links, links[1:]):
        upstream.connect(downstream.send)
    delivered = []
    links[-1].connect(delivered.append)
    packets = [Packet(1, DATA, 1500, seq=i) for i in range(PACKETS)]

    def run():
        for packet in packets:
            links[0].send(packet)
        sim.run()

    elapsed, _ = _timed(run)
    assert len(delivered) == PACKETS
    assert sim.events_executed == 2 * HOPS * PACKETS
    return elapsed


def test_link_hop_cost():
    us_per_hop = min(_hop_chain() for _ in range(ROUNDS)) / (PACKETS * HOPS) * 1e6
    print(f"\nlink hop: {us_per_hop:.2f} us per hop "
          f"({HOPS} drop-tail links, {PACKETS} packets, min of {ROUNDS})")
