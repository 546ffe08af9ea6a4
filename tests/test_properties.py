"""Property-based tests over the simulation core.

These pin down the invariants everything else relies on: event ordering,
FIFO delivery, packet conservation, TCP reassembly correctness, and the
monotonicity of the radio chain.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LTE_PROFILE, NR_PROFILE
from repro.net import DropTailQueue, Link, Packet, PathConfig, Simulator, build_cellular_path
from repro.net.link import DelayProcess
from repro.net.sim import PAST_TOLERANCE_S
from repro.radio.linkadapt import spectral_efficiency_from_sinr
from repro.radio.propagation import uma_los_path_loss_db, uma_nlos_path_loss_db
from repro.transport.base import TcpConnection
from repro.transport.iperf import make_cc


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_until_never_fires_late_events(self, delays, horizon):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run(until=horizon)
        assert all(d <= horizon for d in fired)
        assert sorted(fired) == sorted(d for d in delays if d <= horizon)


class _ListEvent:
    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time, seq, callback, args):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        self.cancelled = True


class _ListSimulator:
    """Dispatch-order oracle: a plain list, scanned for the smallest
    ``(time, seq)`` live entry on every step."""

    def __init__(self):
        self.now = 0.0
        self.entries = []

    def schedule(self, delay, callback, *args):
        assert delay >= 0
        event = _ListEvent(self.now + delay, len(self.entries) + 1, callback, args)
        self.entries.append(event)
        return event

    def schedule_at(self, time, callback, *args):
        delay = time - self.now
        return self.schedule(0.0 if -PAST_TOLERANCE_S <= delay < 0.0 else delay, callback, *args)

    def live(self):
        return [e for e in self.entries if not e.cancelled and not e.fired]

    def run(self, until=None):
        while live := self.live():
            event = min(live, key=lambda e: (e.time, e.seq))
            if until is not None and event.time > until:
                break
            event.fired = True
            self.now = event.time
            event.callback(*event.args)
        if until is not None and self.now < until:
            self.now = until

    def counters(self):
        fired = sum(e.fired for e in self.entries)
        # A cancel counts only while the event is still queued.
        cancelled = sum(e.cancelled and not e.fired for e in self.entries)
        return (len(self.entries), fired, cancelled)

    def pending_events(self):
        return len(self.live())


#: Few distinct delays, so equal-time ties are common.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=2.0)
#: Offsets from ``now`` for ``schedule_at``: inside the clamp tolerance,
#: exactly now, or ahead.
_OFFSETS = st.sampled_from([-PAST_TOLERANCE_S / 2, -1e-12, 0.0]) | st.floats(0.0, 2.0)
_ACTIONS = st.one_of(
    st.tuples(st.just("after"), _DELAYS),
    st.tuples(st.just("at"), _OFFSETS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
)
#: Events a schedule may create, so dispatch-time spawning stays bounded.
_MAX_EVENTS = 60


def _drive(sim, initial, pre_cancels, plans, stages):
    """Run one drawn schedule on ``sim``; return the fired event ids, their
    times, and a ``(now, counters, pending)`` snapshot after every ``run``."""
    handles, fired, snapshots = [], [], []

    def spawn(kind, value):
        if kind == "after":
            handles.append(sim.schedule(value, fire, len(handles)))
        else:
            handles.append(sim.schedule_at(sim.now + value, fire, len(handles)))

    def fire(event_id):
        fired.append(event_id)
        for kind, value in plans[event_id % len(plans)]:
            if kind == "cancel":
                handles[value % len(handles)].cancel()
            elif len(handles) < _MAX_EVENTS:
                spawn(kind, value)

    for delay in initial:
        spawn("after", delay)
    for index in pre_cancels:
        handles[index % len(handles)].cancel()
    for until in [*stages, None]:
        sim.run(until)
        snapshots.append((sim.now, tuple(sim.counters()), sim.pending_events()))
    return fired, [handles[i].time for i in fired], snapshots


class TestDispatchOrderProperties:
    @given(
        st.lists(_DELAYS, min_size=1, max_size=15),
        st.lists(st.integers(min_value=0, max_value=100), max_size=5),
        st.lists(st.lists(_ACTIONS, max_size=3), min_size=1, max_size=8),
        st.lists(st.floats(min_value=0.0, max_value=4.0), max_size=4).map(sorted),
    )
    @settings(max_examples=150, deadline=None)
    def test_dispatch_matches_a_plain_list_oracle(self, initial, pre_cancels, plans, stages):
        """Callbacks fire in ``(time, seq)`` order of the events not
        cancelled before their turn, through equal-time ties, clamped
        ``schedule_at`` times, cancels before and during dispatch and a
        run split at ``until`` bounds; counters and the pending count
        agree with the oracle after every stage."""
        real = _drive(Simulator(), initial, pre_cancels, plans, stages)
        assert real == _drive(_ListSimulator(), initial, pre_cancels, plans, stages)
        fired_ids, fired_times, _ = real
        assert list(zip(fired_times, fired_ids)) == sorted(zip(fired_times, fired_ids))


class TestLinkProperties:
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_packet_conservation(self, num_packets, capacity):
        """sent == delivered + dropped + queued, always."""
        sim = Simulator()
        link = Link(sim, rate_bps=8e5, delay_s=0.001, queue_capacity_packets=capacity)
        delivered = []
        link.connect(delivered.append)
        for i in range(num_packets):
            link.send(Packet(1, "data", 100, seq=i))
        sim.run()
        assert len(delivered) + link.queue.drops + link.queue.occupancy == num_packets

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fifo_under_random_delay_process(self, seed):
        sim = Simulator()
        dp = DelayProcess(np.random.default_rng(seed), max_extra_s=0.05, redraw_interval_s=0.02)
        link = Link(sim, rate_bps=8e6, delay_s=0.001, delay_process=dp)
        seqs = []
        link.connect(lambda p: seqs.append(p.seq))
        for i in range(100):
            sim.schedule(i * 0.003, lambda i=i: link.send(Packet(1, "data", 500, seq=i)))
        sim.run()
        assert seqs == sorted(seqs)

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_droptail_never_exceeds_capacity(self, capacity):
        q = DropTailQueue(capacity)
        for i in range(capacity * 3):
            q.push(Packet(1, "data", 100, seq=i))
        assert len(q) == capacity
        assert q.drops == capacity * 2


class TestTcpProperties:
    @given(
        st.integers(min_value=1_000, max_value=300_000),
        st.sampled_from(["reno", "cubic", "vegas", "veno", "bbr"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_transfer_always_completes_and_reassembles(self, size, algorithm, seed):
        """Any transfer over a lossy path completes with exact reassembly."""
        config = PathConfig(profile=NR_PROFILE, scale=0.02)
        sim = Simulator()
        path = build_cellular_path(sim, config, np.random.default_rng(seed))
        cc = make_cc(algorithm, config.mss_bytes, rate_scale=0.02)
        conn = TcpConnection.establish(sim, path, cc, transfer_bytes=size)
        conn.start()
        sim.run(until=240.0)
        assert conn.sender.done
        assert conn.receiver.rcv_next == size

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_delivered_bytes_monotone(self, seed):
        config = PathConfig(profile=LTE_PROFILE, scale=0.02)
        sim = Simulator()
        path = build_cellular_path(sim, config, np.random.default_rng(seed))
        conn = TcpConnection.establish(
            sim, path, make_cc("cubic", config.mss_bytes, 0.02)
        )
        conn.start()
        sim.run(until=10.0)
        trace = conn.sender.stats.delivered_trace
        values = [d for _, d in trace]
        assert values == sorted(values)
        times = [t for t, _ in trace]
        assert times == sorted(times)


class TestRadioProperties:
    @given(st.floats(min_value=-20.0, max_value=45.0), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50)
    def test_spectral_efficiency_monotone(self, sinr, delta):
        assert spectral_efficiency_from_sinr(sinr + delta) >= spectral_efficiency_from_sinr(sinr)

    @given(
        st.floats(min_value=1.0, max_value=900.0),
        st.floats(min_value=1.01, max_value=3.0),
        st.sampled_from([1840.0, 3500.0]),
    )
    @settings(max_examples=50)
    def test_path_loss_monotone_both_classes(self, d, factor, carrier):
        assert uma_los_path_loss_db(d * factor, carrier) > uma_los_path_loss_db(d, carrier)
        assert uma_nlos_path_loss_db(d * factor, carrier) > uma_nlos_path_loss_db(d, carrier)

    @given(st.floats(min_value=1.0, max_value=900.0))
    @settings(max_examples=50)
    def test_5g_attenuates_at_least_as_much(self, d):
        assert uma_nlos_path_loss_db(d, 3500.0) >= uma_nlos_path_loss_db(d, 1840.0)
