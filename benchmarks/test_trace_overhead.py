"""Tracing overhead benchmark: the disabled path must stay (nearly) free.

Two measurements:

* the dispatch loop with tracing disabled vs. a local replica of the
  uninstrumented seed loop — the only addition is one ``tracer.enabled``
  check per ``run()`` call, so the ratio must stay under 3%;
* a reduced fig7 campaign with tracing enabled vs. disabled — enabled
  tracing records millions of events, so it is allowed to cost real time,
  but it must not change the result and must stay within a loose bound.

Run with plain ``pytest benchmarks/test_trace_overhead.py -s`` (these
tests time themselves and do not use the pytest-benchmark fixture).
"""

import time
from heapq import heappop

from repro.experiments import fig7_throughput
from repro.net.sim import Simulator
from repro.trace import Tracer, tracing

#: Replica's own module global, so the counter increment compiles to the
#: same LOAD_GLOBAL/STORE_GLOBAL bytecode as the seed loop's.
_replica_executed = 0


def _seed_loop(sim, until=None):
    """Verbatim replica of the pre-tracing ``Simulator.run`` hot loop."""
    global _replica_executed
    heap = sim._heap
    while heap:
        if until is not None and heap[0][0] > until:
            break
        time, _, event = heappop(heap)
        if event.cancelled:
            continue
        event.sim = None
        sim.events_executed += 1
        _replica_executed += 1
        sim.now = time
        event.callback(*event.args)
    if until is not None and sim.now < until:
        sim.now = until


def _noop():
    pass


def _filled_simulator(num_events):
    sim = Simulator()
    for i in range(num_events):
        sim.schedule(i * 1e-6, _noop)
    return sim


def _min_time(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_disabled_path_overhead_vs_seed_loop():
    num_events, rounds = 100_000, 5
    # Interleave the two variants so clock drift hits both equally; time
    # only the drain, not the heap construction.
    real_times, replica_times = [], []
    for _ in range(rounds):
        sim = _filled_simulator(num_events)
        real_times.append(_min_time(sim.run, 1))
        sim = _filled_simulator(num_events)
        replica_times.append(_min_time(lambda: _seed_loop(sim), 1))
    real, replica = min(real_times), min(replica_times)
    ratio = real / replica
    rate = num_events / real / 1e6
    print(f"\ndisabled-path dispatch: {rate:.2f} M events/s, "
          f"vs seed loop x{ratio:.3f}")
    assert ratio < 1.03, (
        f"disabled tracing costs {(ratio - 1) * 100:.1f}% over the seed loop"
    )


def test_fig7_reduced_traced_vs_untraced():
    kwargs = dict(seed=7, duration_s=6.0, algorithms=("cubic", "bbr"), repeats=1)

    started = time.perf_counter()
    plain = fig7_throughput.run(**kwargs)
    untraced_s = time.perf_counter() - started

    started = time.perf_counter()
    with tracing(Tracer()) as tracer:
        traced = fig7_throughput.run(**kwargs)
    traced_s = time.perf_counter() - started

    stats = tracer.stats()
    print(f"\nfig7 (reduced): untraced {untraced_s:.2f}s, traced {traced_s:.2f}s "
          f"(x{traced_s / untraced_s:.2f}), {stats.emitted} records emitted")
    # Tracing must never perturb the physics.
    assert traced.udp_baselines_bps == plain.udp_baselines_bps
    assert traced.utilization == plain.utilization
    # The enabled path records per-ACK counters and per-dispatch spans, so
    # it costs real time; 3x is the loose alarm threshold.
    assert traced_s < 3.0 * untraced_s
    assert stats.spans > 0 and stats.counter_samples > 0
