"""Transport per-ACK microbench: the cost of each congestion controller's
``on_ack`` and of the receiver's SACK scoreboard, timed min-of-5.

Two guards are host-independent because they compare a cost with itself
at a different size: a BBR bandwidth query must not grow with the number
of live delivery-rate samples, and a receiver ACK must not grow with the
number of buffered out-of-order segments.  Both grew linearly (or worse)
when the filter was a ``max()`` over the window and the scoreboard was
re-sorted on every ACK.

Run with plain ``pytest benchmarks/test_transport_perf.py -s`` (these
tests time themselves and do not use the pytest-benchmark fixture).
"""

import math
import time

import pytest

from repro.net.packet import DATA, Packet
from repro.net.sim import Simulator
from repro.transport import CC_ALGORITHMS, Bbr, TcpReceiver, make_cc

MSS = 1448
ROUNDS = 5
ACKS = 20_000


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _min_time(fn):
    return min(_timed(fn) for _ in range(ROUNDS))


def _min_times(small, large):
    """Min-of-5 of two variants, interleaved so host drift hits both."""
    pairs = [(_timed(small), _timed(large)) for _ in range(ROUNDS)]
    return min(s for s, _ in pairs), min(g for _, g in pairs)


def _ack_stream(name):
    """A fixed ACK stream: ~100 Mbit/s of delivery-rate samples with a
    wandering RTT, and a loss signal every 1000 ACKs."""
    cc = make_cc(name, MSS)
    for i in range(ACKS):
        now = i * 1e-4
        cc.on_ack(MSS, 0.02 + 0.01 * math.sin(i / 50), now, 100e6 * (1 + 0.2 * math.sin(i / 7)))
        if i % 1000 == 999:
            cc.on_loss(now)


@pytest.mark.parametrize("name", sorted(CC_ALGORITHMS))
def test_on_ack_cost_per_cca(name):
    us_per_ack = _min_time(lambda: _ack_stream(name)) / ACKS * 1e6
    print(f"\n{name}: {us_per_ack:.2f} us per on_ack (min of {ROUNDS}, {ACKS} ACKs)")


def _bbr_with_live_samples(count):
    """A BBR whose bandwidth window holds ``count`` live samples: strictly
    falling rates within one round, so none is dominated."""
    cc = Bbr(MSS)
    for i in range(count):
        cc.on_ack(0, 0.0, 0.0, delivery_rate_bps=1e9 - i)
    assert len(cc._bw_samples) == count
    return cc


QUERIES = 100_000


def _queries(cc):
    def run():
        for _ in range(QUERIES):
            cc.bottleneck_bw_bps

    return run


def test_bbr_bw_query_does_not_scale_with_window():
    small, large = _min_times(
        _queries(_bbr_with_live_samples(10)), _queries(_bbr_with_live_samples(10_000))
    )
    print(f"\nBBR bw query: {small / QUERIES * 1e6:.3f} us at 10 samples, "
          f"{large / QUERIES * 1e6:.3f} us at 10k ({large / small:.2f}x)")
    assert large <= 3 * small


class _NullPath:
    def on_forward_delivery(self, callback):
        pass

    def send_reverse(self, packet):
        pass


def _receiver_with_buffered(count):
    """A receiver holding ``count`` out-of-order segments, each its own
    run (every other segment above the cumulative ACK is missing)."""
    receiver = TcpReceiver(Simulator(), _NullPath(), flow_id=1)
    segments = [_segment((2 * i + 1) * MSS) for i in range(count)]
    for packet in segments:
        receiver._on_data(packet)
    assert receiver.sacked_bytes == count * MSS
    return receiver, segments


def _segment(seq):
    return Packet(1, DATA, MSS + 52, seq=seq, meta={"payload": MSS, "ts": 0.0})


DELIVERIES = 20_000


def _duplicate_deliveries(count):
    """Duplicate deliveries of buffered segments: each one builds a full
    ACK (SACKed total and holes) and leaves the scoreboard as it was."""
    receiver, segments = _receiver_with_buffered(count)
    duplicates = [segments[i % count] for i in range(DELIVERIES)]

    def run():
        for packet in duplicates:
            receiver._on_data(packet)

    return run


def test_receiver_on_data_does_not_scale_with_buffer():
    small, large = _min_times(_duplicate_deliveries(5), _duplicate_deliveries(5_000))
    print(f"\nreceiver _on_data: {small / DELIVERIES * 1e6:.2f} us at 5 buffered, "
          f"{large / DELIVERIES * 1e6:.2f} us at 5k ({large / small:.2f}x)")
    assert large <= 3 * small
