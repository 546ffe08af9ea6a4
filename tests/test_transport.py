"""Tests for the transport layer: TCP machinery, CC algorithms, UDP."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NR_PROFILE
from repro.net import PathConfig, Simulator, build_cellular_path
from repro.net.packet import DATA, Packet
from repro.transport import (
    CC_ALGORITHMS,
    Bbr,
    Cubic,
    Reno,
    TcpConnection,
    TcpReceiver,
    UdpSender,
    UdpSink,
    Vegas,
    Veno,
    loss_runs,
    make_cc,
    run_tcp,
    run_udp,
)

MSS = 1448


def quiet_config(**overrides):
    """A clean path: no cross traffic or stalls, fast to simulate."""
    defaults = dict(
        profile=NR_PROFILE,
        scale=0.02,
        with_cross_traffic=False,
        with_scheduling_stalls=False,
    )
    defaults.update(overrides)
    return PathConfig(**defaults)


class TestCcAlgorithms:
    def test_registry_complete(self):
        assert set(CC_ALGORITHMS) == {"reno", "cubic", "vegas", "veno", "bbr"}

    def test_make_cc_unknown(self):
        with pytest.raises(ValueError):
            make_cc("turbo", MSS)

    def test_make_cc_sets_rate_scale(self):
        cc = make_cc("reno", MSS, rate_scale=0.1)
        assert cc.rate_scale == 0.1

    def test_reno_slow_start_doubles(self):
        cc = Reno(MSS)
        start = cc.cwnd_bytes
        cc.on_ack(start, 0.02, 0.0)
        assert cc.cwnd_bytes == pytest.approx(2 * start)

    def test_reno_halves_on_loss(self):
        cc = Reno(MSS)
        cc.cwnd_bytes = 100 * MSS
        cc.on_loss(1.0)
        assert cc.cwnd_bytes == pytest.approx(50 * MSS)
        assert not cc.in_slow_start

    def test_reno_congestion_avoidance_linear(self):
        cc = Reno(MSS, rate_scale=1.0)
        cc.cwnd_bytes = 10 * MSS
        cc.ssthresh_bytes = 5 * MSS  # force CA
        cc.on_ack(10 * MSS, 0.02, 0.0)  # one full window acked
        assert cc.cwnd_bytes == pytest.approx(11 * MSS, rel=0.01)

    def test_timeout_collapses_window(self):
        cc = Reno(MSS)
        cc.cwnd_bytes = 100 * MSS
        cc.on_timeout(1.0)
        assert cc.cwnd_bytes == MSS
        assert cc.ssthresh_bytes == pytest.approx(50 * MSS)

    def test_cubic_decrease_factor(self):
        cc = Cubic(MSS)
        cc.cwnd_bytes = 100 * MSS
        cc.ssthresh_bytes = 1.0  # out of slow start
        cc.on_loss(1.0)
        assert cc.cwnd_bytes == pytest.approx(70 * MSS)

    def test_cubic_regrows_toward_wmax(self):
        cc = Cubic(MSS, rate_scale=1.0)
        cc.cwnd_bytes = 100 * MSS
        cc.ssthresh_bytes = 1.0
        cc.on_loss(0.0)
        before = cc.cwnd_bytes
        for i in range(200):
            cc.on_ack(MSS, 0.02, 0.01 * (i + 1))
        assert cc.cwnd_bytes > before

    def test_vegas_decreases_on_inflated_rtt(self):
        cc = Vegas(MSS, rate_scale=1.0)
        cc.ssthresh_bytes = 1.0
        cc.cwnd_bytes = 50 * MSS
        cc.on_ack(MSS, 0.020, 0.1)  # establishes base RTT
        before = cc.cwnd_bytes
        t = 0.2
        for _ in range(30):  # persistent 2x RTT: heavy queueing signal
            cc.on_ack(MSS, 0.040, t)
            t += 0.05
        assert cc.cwnd_bytes < before

    def test_vegas_increases_when_no_queueing(self):
        cc = Vegas(MSS, rate_scale=1.0)
        cc.ssthresh_bytes = 1.0
        cc.cwnd_bytes = 10 * MSS
        t = 0.1
        before = cc.cwnd_bytes
        for _ in range(10):
            cc.on_ack(MSS, 0.020, t)
            t += 0.05
        assert cc.cwnd_bytes > before

    def test_veno_random_loss_gentler(self):
        congested = Veno(MSS)
        random_loss = Veno(MSS)
        for cc, rtt in ((congested, 0.08), (random_loss, 0.0201)):
            cc.ssthresh_bytes = 1.0
            cc.cwnd_bytes = 100 * MSS
            cc.on_ack(MSS, 0.02, 0.0)  # base rtt
            cc.on_ack(MSS, rtt, 0.1)
        congested.on_loss(1.0)
        random_loss.on_loss(1.0)
        assert random_loss.cwnd_bytes > congested.cwnd_bytes

    def test_bbr_paces(self):
        cc = Bbr(MSS)
        assert cc.pacing_rate_bps is not None
        assert cc.pacing_rate_bps > 0

    def test_bbr_tracks_delivery_rate(self):
        cc = Bbr(MSS)
        cc.on_ack(MSS, 0.02, 0.1, delivery_rate_bps=50e6)
        assert cc.bottleneck_bw_bps == pytest.approx(50e6)

    def test_bbr_ignores_loss(self):
        cc = Bbr(MSS)
        cc.on_ack(MSS, 0.02, 0.1, delivery_rate_bps=50e6)
        cwnd = cc.cwnd_bytes
        cc.on_loss(0.2)
        assert cc.cwnd_bytes == cwnd

    def test_invalid_rate_scale(self):
        with pytest.raises(ValueError):
            Reno(MSS, rate_scale=0.0)


class TestTcpEndToEnd:
    def test_clean_path_high_utilization(self):
        cfg = quiet_config()
        res = run_tcp(cfg, "cubic", duration_s=20.0, baseline_bps=cfg.access_rate_bps() * cfg.scale)
        assert res.utilization > 0.7
        assert res.timeouts == 0

    def test_bbr_clean_path(self):
        cfg = quiet_config()
        res = run_tcp(cfg, "bbr", duration_s=20.0, baseline_bps=cfg.access_rate_bps() * cfg.scale)
        assert res.utilization > 0.6

    def test_fixed_transfer_completes(self):
        cfg = quiet_config()
        sim = Simulator()
        path = build_cellular_path(sim, cfg, np.random.default_rng(0))
        conn = TcpConnection.establish(sim, path, make_cc("cubic", MSS), transfer_bytes=200_000)
        conn.start()
        sim.run(until=30.0)
        assert conn.sender.done
        assert conn.sender.completed_at is not None
        assert conn.receiver.rcv_next == 200_000

    def test_transfer_survives_heavy_loss(self):
        # Tiny wired buffer forces drops; SACK recovery must still finish.
        cfg = PathConfig(
            profile=NR_PROFILE,
            scale=0.02,
            with_cross_traffic=True,
            with_scheduling_stalls=True,
        )
        sim = Simulator()
        path = build_cellular_path(sim, cfg, np.random.default_rng(5))
        conn = TcpConnection.establish(sim, path, make_cc("reno", MSS), transfer_bytes=500_000)
        conn.start()
        sim.run(until=120.0)
        assert conn.sender.done

    def test_receiver_reassembles_in_order(self):
        cfg = quiet_config()
        sim = Simulator()
        path = build_cellular_path(sim, cfg, np.random.default_rng(0))
        conn = TcpConnection.establish(sim, path, make_cc("reno", MSS), transfer_bytes=100_000)
        conn.start()
        sim.run(until=20.0)
        assert conn.receiver.rcv_next == 100_000
        assert conn.receiver.bytes_received >= 100_000

    def test_rtt_samples_close_to_base(self):
        cfg = quiet_config()
        sim = Simulator()
        path = build_cellular_path(sim, cfg, np.random.default_rng(0))
        conn = TcpConnection.establish(sim, path, make_cc("vegas", MSS), transfer_bytes=50_000)
        conn.start()
        sim.run(until=20.0)
        rtts = [r for _, r in conn.sender.stats.rtt_samples]
        assert min(rtts) >= path.base_rtt_s

    def test_cwnd_trace_recorded(self):
        cfg = quiet_config()
        res = run_tcp(cfg, "cubic", duration_s=5.0, baseline_bps=1e6)
        assert len(res.cwnd_trace) > 10
        times = [t for t, _ in res.cwnd_trace]
        assert times == sorted(times)


class TestUdp:
    def test_lossless_at_low_rate(self):
        cfg = quiet_config()
        res = run_udp(cfg, cfg.access_rate_bps() * cfg.scale * 0.2, duration_s=5.0)
        assert res.loss_rate == pytest.approx(0.0, abs=0.01)

    def test_overload_drops(self):
        cfg = quiet_config()
        res = run_udp(cfg, cfg.access_rate_bps() * cfg.scale * 3.0, duration_s=5.0)
        assert res.loss_rate > 0.3

    def test_throughput_capped_by_access(self):
        cfg = quiet_config()
        capacity = cfg.access_rate_bps() * cfg.scale
        res = run_udp(cfg, capacity * 3.0, duration_s=5.0)
        assert res.throughput_bps <= capacity * 1.05

    def test_sink_seq_accounting(self):
        sim = Simulator()
        cfg = quiet_config()
        path = build_cellular_path(sim, cfg, np.random.default_rng(0))
        sender = UdpSender(sim, path, 1e6)
        sink = UdpSink(path)
        sender.start()
        sim.run(until=1.0)
        sender.stop()
        sim.run(until=2.0)
        assert sink.received == sender.sent
        assert sink.lost_seqs(sender.sent) == []

    def test_invalid_rate(self):
        sim = Simulator()
        path = build_cellular_path(sim, quiet_config(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            UdpSender(sim, path, 0.0)


class TestLossRuns:
    def test_empty(self):
        assert loss_runs([]) == []

    def test_isolated_losses(self):
        assert loss_runs([3, 7, 11]) == [1, 1, 1]

    def test_burst(self):
        assert loss_runs([5, 6, 7, 8, 20, 21]) == [4, 2]

    def test_single(self):
        assert loss_runs([9]) == [1]


class _OracleBwWindow:
    """Brute-force BBR bandwidth window: every live sample, linear max."""

    def __init__(self) -> None:
        self.samples: deque[tuple[int, float]] = deque()

    def add(self, round_: int, bps: float) -> None:
        self.samples.append((round_, bps))
        while self.samples[0][0] < round_ - 10:
            self.samples.popleft()

    def max(self) -> float:
        return max(bps for _, bps in self.samples)


#: One BBR filter step: (rounds to advance, new rate or None for a query).
_BW_STEPS = st.tuples(
    st.one_of(st.integers(0, 2), st.integers(0, 30)),
    st.one_of(
        st.none(),
        st.sampled_from([1e6, 2e6, 5e6]),  # small alphabet: many ties
        st.floats(min_value=1.0, max_value=1e10),
    ),
)


class TestBbrBandwidthFilter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_BW_STEPS, min_size=1, max_size=200))
    def test_windowed_max_matches_brute_force(self, steps):
        cc = Bbr(MSS)
        oracle = _OracleBwWindow()
        round_ = 0
        for now, (advance, bps) in enumerate(steps):
            round_ += advance
            # Zero acked bytes never complete a round, so the filter sees
            # exactly the round set here.
            cc._round = round_
            cc.on_ack(0, 0.0, float(now), delivery_rate_bps=bps)
            if bps is not None:
                oracle.add(round_, bps)
            if oracle.samples:
                assert cc.bottleneck_bw_bps == oracle.max()
            else:
                assert cc.bottleneck_bw_bps == 8.0 * MSS / 0.01

    def test_dominated_samples_are_dropped(self):
        cc = Bbr(MSS)
        for bps in (1e6, 3e6, 2e6, 2e6):
            cc.on_ack(0, 0.0, 0.0, delivery_rate_bps=bps)
        assert list(cc._bw_samples) == [(0, 3e6), (0, 2e6)]


class _OracleScoreboard:
    """The sort-based receiver scoreboard: a dict of buffered segments,
    re-sorted and summed on every ACK."""

    def __init__(self) -> None:
        self.rcv_next = 0
        self.out_of_order: dict[int, int] = {}

    def receive(self, seq: int, payload: int) -> None:
        if seq == self.rcv_next:
            self.rcv_next += payload
            while self.rcv_next in self.out_of_order:
                self.rcv_next += self.out_of_order.pop(self.rcv_next)
        elif seq > self.rcv_next:
            self.out_of_order[seq] = payload

    @property
    def sacked(self) -> int:
        return sum(self.out_of_order.values())

    def holes(self, limit: int = 16) -> tuple[tuple[int, int], ...]:
        holes: list[tuple[int, int]] = []
        cursor = self.rcv_next
        for seq in sorted(self.out_of_order):
            if seq > cursor:
                holes.append((cursor, seq))
                if len(holes) >= limit:
                    break
            cursor = max(cursor, seq + self.out_of_order[seq])
        return tuple(holes)


class _AckCapture:
    """Stands in for a path: keeps the receiver's callback and its ACKs."""

    def __init__(self) -> None:
        self.acks: list[Packet] = []

    def on_forward_delivery(self, callback) -> None:
        self.deliver = callback

    def send_reverse(self, packet: Packet) -> None:
        self.acks.append(packet)


def _segment(seq: int, payload: int) -> Packet:
    return Packet(1, DATA, payload + 52, seq=seq, meta={"payload": payload, "ts": 0.0})


@st.composite
def _arrivals(draw):
    """A transfer cut into MSS segments (the last one possibly short) and a
    random arrival order with losses, duplicates and retransmissions."""
    transfer = draw(st.integers(1, 60)) * MSS - draw(st.integers(0, MSS - 1))
    segments = [(seq, min(MSS, transfer - seq)) for seq in range(0, transfer, MSS)]
    order = draw(st.lists(st.sampled_from(segments), max_size=3 * len(segments)))
    if draw(st.booleans()):  # finish with a full repair pass
        order += draw(st.permutations(segments))
    return order


class TestReceiverScoreboard:
    @settings(max_examples=200, deadline=None)
    @given(_arrivals(), st.integers(1, 20))
    def test_runs_match_sorted_oracle(self, order, limit):
        path = _AckCapture()
        receiver = TcpReceiver(Simulator(), path, flow_id=1)
        oracle = _OracleScoreboard()
        for seq, payload in order:
            path.deliver(_segment(seq, payload))
            oracle.receive(seq, payload)
            meta = path.acks[-1].meta
            assert meta["ack"] == oracle.rcv_next
            assert meta["sacked"] == oracle.sacked
            assert meta["holes"] == oracle.holes()
            assert receiver._holes(limit) == oracle.holes(limit)

    def test_adjacent_segments_merge_into_one_run(self):
        path = _AckCapture()
        receiver = TcpReceiver(Simulator(), path, flow_id=1)
        for seq in (3 * MSS, 5 * MSS, 4 * MSS, 4 * MSS):
            path.deliver(_segment(seq, MSS))
        assert receiver._run_starts == [3 * MSS]
        assert receiver._run_ends == [6 * MSS]
        assert receiver.sacked_bytes == 3 * MSS
        assert path.acks[-1].meta["holes"] == ((0, 3 * MSS),)
        path.deliver(_segment(0, 3 * MSS))
        assert receiver.rcv_next == 6 * MSS
        assert receiver.sacked_bytes == 0
        assert path.acks[-1].meta["holes"] == ()
