"""The traced run: spans at layer boundaries, self time per layer, counts.

Nothing under ``src/`` knows about this tracer.  :class:`Tracer` patches,
for the duration of a ``with`` block, the public entry points of each
layer (the :data:`SPANS` table) and :meth:`Simulator.schedule`, whose
every callback is re-routed through a dispatcher that opens a span for
the callback's layer, named by its qualified name.  A callback's layer
comes from its module (:data:`LAYER_OF_MODULE`).

Spans live in memory in four parallel arrays (label, parent, start, end)
and are written out once the run ends.  Because the load is one thread
and spans nest in stack order, the child spans of a span never overlap,
so its self time is its duration minus the sum of its children's.
Counts are taken at the same boundaries: every span counts one call of
its label, and a wrapper may tally amounts from its arguments or result
(points surveyed, matrix cells evaluated, hand-offs made).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from typing import Any

import numpy as np

__all__ = [
    "LAYER_OF_MODULE",
    "PER_LAYER_METRICS",
    "SPANS",
    "SpanLog",
    "Tracer",
    "layer_metrics",
    "layer_of",
    "round_summary",
    "self_times",
]

#: Module prefix -> layer, most specific first.
LAYER_OF_MODULE: tuple[tuple[str, str], ...] = (
    ("repro.net.sim", "sim"),
    ("repro.net.link", "link"),
    ("repro.net.path", "path"),
    ("repro.transport.bbr", "cc.bbr"),
    ("repro.transport.cubic", "cc.cubic"),
    ("repro.transport.udp", "udp"),
    ("repro.transport", "tcp"),
    ("repro.qdisc.pep", "pep"),
    ("repro.qdisc", "qdisc"),
    ("repro.radio", "radio"),
    ("repro.geometry", "geometry"),
    ("repro.mobility", "mobility"),
    ("repro.energy", "energy"),
    ("repro.topology", "topology"),
    ("repro.audit", "audit"),
    ("repro.runner", "runner"),
)


def layer_of(module: str) -> str:
    """The layer a module belongs to (``other`` when unmapped)."""
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _segments(args: tuple, result: Any) -> Iterable[tuple[str, int]]:
    return (("energy.transfers", len(args[0])), ("energy.segments", len(result.segments)))


#: (module, attribute path, layer, tally) for every wrapped entry point;
#: ``tally(args, result)`` yields (count name, amount) pairs.  Every
#: ``Qdisc`` subclass's own ``enqueue`` and ``dequeue`` are wrapped too.
SPANS: tuple[tuple[str, str, str, Callable[..., Iterable[tuple[str, int]]] | None], ...] = (
    ("repro.net.sim", "Simulator.run", "sim", None),
    ("repro.net.link", "Link.send", "link", None),
    ("repro.net.link", "CrossTraffic.load_at", "path", None),
    ("repro.net.link", "DelayProcess.extra_delay_s", "path", None),
    ("repro.transport.base", "TcpSender._on_ack", "tcp", None),
    ("repro.transport.base", "TcpReceiver._on_data", "tcp", None),
    ("repro.transport.udp", "UdpSink._on_packet", "udp", None),
    ("repro.transport.bbr", "Bbr.on_ack", "cc.bbr", None),
    ("repro.transport.bbr", "Bbr.bottleneck_bw_bps", "cc.bbr", None),
    ("repro.transport.cubic", "Cubic.on_ack", "cc.cubic", None),
    ("repro.transport.cubic", "Cubic.on_loss", "cc.cubic", None),
    ("repro.qdisc.pep", "PepIngress._on_data", "pep", None),
    ("repro.qdisc.pep", "PepEgressSender._on_ack", "pep", None),
    ("repro.radio.coverage", "survey_at_locations", "radio",
     lambda args, result: (("radio.survey_points", len(result)),)),
    ("repro.radio.batch", "path_loss_matrix_db", "radio",
     lambda args, result: (("radio.point_sectors", int(result.size)),)),
    ("repro.geometry.buildings", "BuildingMap.wall_crossings_counts", "geometry", None),
    ("repro.mobility.handoff", "HandoffEngine.run", "mobility",
     lambda args, result: (("mobility.handoffs", len(result.events)),)),
    ("repro.energy.simulator", "MODEL_RUNNERS", "energy", _segments),
    ("repro.audit.core", "Auditor.watch", "audit", None),
    ("repro.audit.core", "Auditor.checkpoint", "audit", None),
    ("repro.topology.generate", "generate_world", "topology", None),
)

#: Classes whose instances a traced round keeps, to read their counters.
TRACKED = (
    ("repro.net.link", "Link"),
    ("repro.transport.base", "TcpSender"),
    ("repro.transport.udp", "UdpSender"),
)

#: Every per-layer metric: name -> (unit, better).
PER_LAYER_METRICS: dict[str, tuple[str, str]] = {
    "sim.events_executed": ("count", "lower"),
    "sim.events_scheduled": ("count", "lower"),
    "sim.events_cancelled": ("count", "lower"),
    "sim.cancelled_ratio": ("ratio", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "link.sends": ("count", "lower"),
    "link.drops": ("count", "lower"),
    "link.drop_ratio": ("ratio", "lower"),
    "link.self_s": ("s", "lower"),
    "link.us_per_hop": ("us", "lower"),
    "path.stall_events": ("count", "lower"),
    "path.self_s": ("s", "lower"),
    "tcp.acks": ("count", "lower"),
    "tcp.segments_sent": ("count", "lower"),
    "tcp.retransmissions": ("count", "lower"),
    "tcp.goodput_ratio": ("ratio", "higher"),
    "tcp.pace_ticks": ("count", "lower"),
    "tcp.self_s": ("s", "lower"),
    "tcp.us_per_ack": ("us", "lower"),
    "cc.bbr.on_ack_calls": ("count", "lower"),
    "cc.bbr.on_ack_us": ("us", "lower"),
    "cc.bbr.bw_queries": ("count", "lower"),
    "cc.bbr.bw_query_us": ("us", "lower"),
    "cc.bbr.self_s": ("s", "lower"),
    "cc.cubic.on_ack_calls": ("count", "lower"),
    "cc.cubic.on_ack_us": ("us", "lower"),
    "cc.cubic.self_s": ("s", "lower"),
    "udp.datagrams_sent": ("count", "higher"),
    "udp.self_s": ("s", "lower"),
    "qdisc.enqueues": ("count", "lower"),
    "qdisc.dequeues": ("count", "lower"),
    "qdisc.aqm_drops": ("count", "lower"),
    "qdisc.wakeups": ("count", "lower"),
    "qdisc.self_s": ("s", "lower"),
    "qdisc.us_per_packet": ("us", "lower"),
    "pep.self_s": ("s", "lower"),
    "radio.survey_points": ("count", "higher"),
    "radio.point_sectors": ("count", "lower"),
    "radio.shadow_draws": ("count", "lower"),
    "radio.survey_s": ("s", "lower"),
    "radio.path_loss_s": ("s", "lower"),
    "radio.ns_per_point_sector": ("ns", "lower"),
    "geometry.wall_crossing_calls": ("count", "lower"),
    "geometry.wall_crossings_s": ("s", "lower"),
    "mobility.walk_steps": ("count", "higher"),
    "mobility.handoffs": ("count", "lower"),
    "mobility.walk_s": ("s", "lower"),
    "mobility.us_per_step": ("us", "lower"),
    "energy.transfers": ("count", "higher"),
    "energy.segments": ("count", "lower"),
    "energy.replay_s": ("s", "lower"),
    "topology.generate_s": ("s", "lower"),
    "audit.watches": ("count", "lower"),
    "audit.checkpoint_s": ("s", "lower"),
    "runner.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class SpanLog:
    """Spans in four parallel arrays; ``labels[i]`` is label i's (layer, name)."""

    def __init__(self) -> None:
        self.labels: list[tuple[str, str]] = []
        self._label_ids: dict[tuple[str, str], int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.tallies: Counter[str] = Counter()

    def label_id(self, layer: str, name: str) -> int:
        """The id of a (layer, name) label, registering it on first use."""
        key = (layer, name)
        found = self._label_ids.get(key)
        if found is None:
            found = self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        return found

    def clear(self) -> None:
        """Drop every span and tally, keeping the label table."""
        for column in (self.label, self.parent, self.start, self.end):
            del column[:]
        self.stack[:] = [-1]
        self.tallies.clear()

    def spanned(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        tally: Callable[..., Iterable[tuple[str, int]]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so that each call records one span."""
        label_id = self.label_id(layer, name)
        labels, parents, starts, ends, stack = (
            self.label, self.parent, self.start, self.end, self.stack,
        )
        tallies = self.tallies
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(labels)
            labels.append(label_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                for key, amount in tally(args, result):
                    tallies[key] += amount
            return result

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays (label, parent, start, end)."""
        return {
            "label": np.frombuffer(self.label, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans nest in stack order on one thread, so siblings never overlap
    and the covered time is the sum of the children's durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs the span wrappers on entry and restores the originals on exit.

    Entry points missing from the program (renamed or removed) are
    reported on stderr and skipped; their metrics then read 0.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.instances: dict[str, list[Any]] = {name: [] for _, name in TRACKED}
        self.walk_steps = 0
        self._restore: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        log = self.log
        for module, path, layer, tally in SPANS:
            try:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError, ImportError):
                print(f"perfbench: trace target {module}.{path} not found", file=sys.stderr)
                continue
            if isinstance(original, property):
                self._patch(owner, attr, property(log.spanned(original.fget, layer, path, tally)))
            elif isinstance(original, dict):
                wrapped = {
                    key: log.spanned(fn, layer, f"{path}[{key}]", tally)
                    for key, fn in original.items()
                }
                self._restore.append((original, "", dict(original)))
                original.update(wrapped)
            else:
                self._patch(owner, attr, log.spanned(original, layer, path, tally))
        from repro.qdisc.base import Qdisc

        pending = Qdisc.__subclasses__()
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr in ("enqueue", "dequeue"):
                if attr in cls.__dict__:
                    wrapped = log.spanned(cls.__dict__[attr], "qdisc", f"{cls.__name__}.{attr}")
                    self._patch(cls, attr, wrapped)
        for module, name in TRACKED:
            cls = getattr(importlib.import_module(module), name)
            self._patch(cls, "__init__", self._tracking_init(cls.__init__, self.instances[name]))
        self._hook_schedule()
        self._hook_walker()
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._restore):
            if attr:
                setattr(owner, attr, original)
            else:
                owner.clear()
                owner.update(original)
        self._restore.clear()

    def reset(self) -> None:
        """Start a new round: clear spans, tallies and tracked instances."""
        self.log.clear()
        for found in self.instances.values():
            found.clear()
        self.walk_steps = 0

    @staticmethod
    def _tracking_init(init: Callable[..., None], found: list[Any]) -> Callable[..., None]:
        @functools.wraps(init)
        def wrapper(instance: Any, *args: Any, **kwargs: Any) -> None:
            init(instance, *args, **kwargs)
            found.append(instance)

        return wrapper

    def _hook_schedule(self) -> None:
        """Route every scheduled callback through a span for its layer."""
        from repro.net.sim import Simulator

        log = self.log
        labels, parents, starts, ends, stack = log.label, log.parent, log.start, log.end, log.stack
        clock = time.perf_counter
        label_of: dict[Any, int] = {}

        # The body of SpanLog.spanned's wrapper, inlined: it runs once per
        # event, and the label depends on the callback.
        def dispatch(label_id: int, callback: Callable[..., None], *args: Any) -> None:
            index = len(labels)
            labels.append(label_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                callback(*args)
            finally:
                ends[index] = clock()
                stack.pop()

        original = Simulator.schedule

        def schedule(sim: Any, delay: float, callback: Callable[..., None], *args: Any) -> Any:
            func = getattr(callback, "__func__", callback)
            label_id = label_of.get(func)
            if label_id is None:
                name = getattr(func, "__qualname__", type(func).__name__)
                label_id = label_of[func] = log.label_id(
                    layer_of(getattr(func, "__module__", "") or ""), name
                )
            return original(sim, delay, dispatch, label_id, callback, *args)

        self._patch(Simulator, "schedule", log.spanned(schedule, "sim", "Simulator.schedule"))

    def _hook_walker(self) -> None:
        """Count trajectory steps as the walker yields them."""
        from repro.mobility.walker import RouteWalker

        tracer = self
        original = RouteWalker.trajectory

        @functools.wraps(original)
        def trajectory(walker: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
            for point in original(walker, *args, **kwargs):
                tracer.walk_steps += 1
                yield point

        self._patch(RouteWalker, "trajectory", trajectory)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def round_summary(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Counts and times of one traced round.

    ``times`` holds every layer's self time (``<layer>.self_s``) and the
    inclusive time of the entry points some metrics are defined on.
    """
    log = tracer.log
    spans = log.arrays()
    own = self_times(spans["parent"], spans["start"], spans["end"])
    layers = sorted({layer for layer, _ in log.labels})
    layer_index = {layer: i for i, layer in enumerate(layers)}
    label_layer = np.array([layer_index[layer] for layer, _ in log.labels], dtype=np.int64)
    label_calls = np.bincount(spans["label"], minlength=len(log.labels))
    label_total = np.bincount(
        spans["label"], weights=spans["end"] - spans["start"], minlength=len(log.labels)
    )
    layer_self = np.bincount(
        label_layer[spans["label"]], weights=own, minlength=len(layers)
    )
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    for i, (_, name) in enumerate(log.labels):
        calls[name] += int(label_calls[i])
        total[name] += float(label_total[i])

    def total_of(prefix: str) -> float:
        return sum(t for name, t in total.items() if name.startswith(prefix))

    senders = tracer.instances["TcpSender"]
    # Only the qdisc a link serves counts: FQ-CoDel and CAKE queue through
    # per-flow CoDel sub-queues, which would count each packet again.
    qdiscs = [link.qdisc.stats for link in tracer.instances["Link"] if link.qdisc is not None]
    counts = {
        "link.sends": calls["Link.send"],
        "link.drops": sum(len(link.dropped_packets) for link in tracer.instances["Link"]),
        "path.stall_events": calls["_StallProcess._stall"],
        "tcp.acks": calls["TcpSender._on_ack"],
        "tcp.segments_sent": sum(s.stats.packets_sent for s in senders),
        "tcp.retransmissions": sum(s.stats.retransmissions for s in senders),
        # Every transfer is unbounded, so each segment carries one full MSS.
        "tcp.payload_bytes_sent": sum(s.stats.packets_sent * s.mss for s in senders),
        "tcp.bytes_acked": sum(s.stats.bytes_acked for s in senders),
        "tcp.pace_ticks": calls["TcpSender._pace_tick"],
        "cc.bbr.on_ack_calls": calls["Bbr.on_ack"],
        "cc.bbr.bw_queries": calls["Bbr.bottleneck_bw_bps"],
        "cc.cubic.on_ack_calls": calls["Cubic.on_ack"],
        "udp.datagrams_sent": sum(s.sent for s in tracer.instances["UdpSender"]),
        "qdisc.enqueues": sum(q.enqueued for q in qdiscs),
        "qdisc.dequeues": sum(q.dequeued for q in qdiscs),
        "qdisc.aqm_drops": sum(q.aqm_drops for q in qdiscs),
        "qdisc.wakeups": calls["Link._wake"],
        "radio.survey_points": log.tallies["radio.survey_points"],
        "radio.point_sectors": log.tallies["radio.point_sectors"],
        "geometry.wall_crossing_calls": calls["BuildingMap.wall_crossings_counts"],
        "mobility.walk_steps": tracer.walk_steps,
        "mobility.handoffs": log.tallies["mobility.handoffs"],
        "energy.transfers": log.tallies["energy.transfers"],
        "energy.segments": log.tallies["energy.segments"],
        "audit.watches": calls["Auditor.watch"],
    }
    times = {f"{layer}.self_s": float(layer_self[i]) for layer, i in layer_index.items()}
    times.update({
        "radio.survey_s": total["survey_at_locations"],
        "radio.path_loss_s": total["path_loss_matrix_db"],
        "mobility.walk_s": total["HandoffEngine.run"],
        "energy.replay_s": total_of("MODEL_RUNNERS["),
        "audit.checkpoint_s": total["Auditor.checkpoint"],
        "cc.bbr.on_ack_s": total["Bbr.on_ack"],
        "cc.bbr.bw_query_s": total["Bbr.bottleneck_bw_bps"],
        "cc.cubic.on_ack_s": total["Cubic.on_ack"],
        "topology.generate_s": total["generate_world"],
        "runner.overhead_s": total["instrumented_call"] - total_of("op:"),
    })
    return {"counts": {k: int(v) for k, v in counts.items()}, "times": times}


def layer_metrics(
    rounds: list[dict[str, dict[str, float]]],
    setup_rounds: list[dict[str, dict[str, float]]],
    untraced_wall_s: float,
    traced_wall_s: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value from the traced rounds.

    Counts come from the first round; the caller checks that they repeat
    exactly.  Times are medians over the rounds, except world generation,
    which happens in set-up and comes from ``setup_rounds``.
    """
    counts = rounds[0]["counts"]

    def median_time(key: str, source: list[dict[str, dict[str, float]]] = rounds) -> float:
        return statistics.median(r["times"].get(key, 0.0) for r in source)

    def per(key: str, count: str, scale: float) -> float:
        return _ratio(median_time(key) * scale, counts[count])

    derived = {
        "sim.cancelled_ratio": _ratio(counts["sim.events_cancelled"], counts["sim.events_scheduled"]),
        "sim.events_per_s": _ratio(counts["sim.events_executed"], untraced_wall_s),
        "link.drop_ratio": _ratio(counts["link.drops"], counts["link.sends"]),
        "link.us_per_hop": per("link.self_s", "link.sends", 1e6),
        "tcp.goodput_ratio": _ratio(counts["tcp.bytes_acked"], counts["tcp.payload_bytes_sent"]),
        "tcp.us_per_ack": per("tcp.self_s", "tcp.acks", 1e6),
        "cc.bbr.on_ack_us": per("cc.bbr.on_ack_s", "cc.bbr.on_ack_calls", 1e6),
        "cc.bbr.bw_query_us": per("cc.bbr.bw_query_s", "cc.bbr.bw_queries", 1e6),
        "cc.cubic.on_ack_us": per("cc.cubic.on_ack_s", "cc.cubic.on_ack_calls", 1e6),
        "qdisc.us_per_packet": per("qdisc.self_s", "qdisc.enqueues", 1e6),
        "radio.ns_per_point_sector": per("radio.path_loss_s", "radio.point_sectors", 1e9),
        "geometry.wall_crossings_s": median_time("geometry.self_s"),
        "mobility.us_per_step": per("mobility.walk_s", "mobility.walk_steps", 1e6),
        "topology.generate_s": median_time("topology.generate_s", setup_rounds),
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }
    values = {}
    for key in PER_LAYER_METRICS:
        if key in derived:
            values[key] = float(derived[key])
        elif key in counts:
            values[key] = float(counts[key])
        else:
            values[key] = median_time(key)
    return values
