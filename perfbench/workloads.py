"""The benchmark's four workloads: each builds a fixed batch of operations.

A workload's ``setup(seed)`` does everything a run pays once before its
first operation — scenario resolution, path configuration, world
generation — and returns the batch.  Every operation then calls the
layers' public entry points, so the timed code is the code ``repro run``
executes.  All inputs derive from the workload seed; the same seed gives
the same batch, operation for operation.

Each operation also names the model outputs the oracle digests
(``fields``) and the invariants that must hold for any seed (``check``).
Cost counters — event counts, RNG stream counts — are deliberately not
fields, so a change that does less work for identical outputs still
passes.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.core.rng import RngFactory, default_rng
from repro.energy.simulator import MODEL_RUNNERS
from repro.energy.traffic import file_transfer_trace, video_telephony_trace, web_browsing_trace
from repro.experiments.common import path_config
from repro.experiments.dense_survey import grid_locations
from repro.experiments.remedy_comparison import REMEDY_VARIANTS
from repro.mobility.handoff import HandoffEngine
from repro.mobility.walker import RouteWalker
from repro.net.path import build_cellular_path
from repro.net.sim import Simulator
from repro.radio import coverage
from repro.radio.cell import RadioNetwork
from repro.radio.propagation import Environment
from repro.scenario import resolve_scenario
from repro.topology import generate
from repro.transport.base import TcpConnection
from repro.transport.iperf import make_cc, run_tcp, run_udp

__all__ = ["Op", "Workload", "WORKLOADS", "derive_seed"]

#: Simulated seconds per UDP operation, and the offered loads as shares of
#: the access capacity: below it, and above it so the drop path runs.
UDP_DURATION_S = 3.0
UDP_LOADS = (0.5, 1.1)

#: BBR transfer lengths (simulated seconds): the 3 s and 5 s transfers the
#: per-event costs of BBR were profiled on.  Per-event cost changes with
#: transfer length, so both are measured.
BBR_TRANSFERS_S = (3.0, 5.0)

#: Simulated seconds per Cubic transfer, one per remedy variant.  A 1 s
#: transfer is mostly slow start, which doubles the TCP layer's share of
#: the time against the 45 s transfers of ``remedy-comparison``; from 5 s
#: on the shares are within a few points of theirs, and the cake-autorate
#: controller runs ten ticks and changes state.
AQM_DURATION_S = 5.0

#: Grid spacing of the district survey and length of the hand-off walk.
SURVEY_SPACING_M = 50.0
WALK_DURATION_S = 300.0
WALK_STEP_S = 0.108


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``run`` is the timed call.  ``fields`` maps its result to the model
    outputs the oracle digests; ``check`` returns the invariants the
    result breaks (empty when it is sound).
    """

    name: str
    run: Callable[[], Any]
    fields: Callable[[Any], dict[str, Any]]
    check: Callable[[Any], list[str]]


@dataclass(frozen=True)
class Workload:
    """A named batch of operations; ``why`` says what it isolates."""

    name: str
    why: str
    setup: Callable[[int], list[Op]]


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit operation seed derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _failures(*conditions: tuple[bool, str]) -> list[str]:
    return [message for ok, message in conditions if not ok]


# -- udp-cbr -------------------------------------------------------------


def _udp_fields(result: Any) -> dict[str, Any]:
    return {
        "sent": result.sent,
        "received": result.received,
        "throughput_bps": result.throughput_bps,
        "loss_rate": result.loss_rate,
        "lost_seqs": result.lost_seqs,
    }


def _udp_check(result: Any) -> list[str]:
    return _failures(
        (0 < result.received <= result.sent, "delivered <= sent"),
        (0.0 <= result.loss_rate <= 1.0, "loss in [0, 1]"),
        (len(result.lost_seqs) == result.sent - result.received, "lost = sent - delivered"),
    )


def _udp_setup(seed: int) -> list[Op]:
    config = path_config(resolve_scenario(None))
    capacity_bps = config.access_rate_bps() * config.scale
    ops = []
    for rep in range(2):
        for load in UDP_LOADS:
            name = f"udp-{load}x-{rep}"
            op_seed = derive_seed(seed, name)
            ops.append(
                Op(
                    name,
                    lambda rate=capacity_bps * load, s=op_seed: run_udp(
                        config, rate, duration_s=UDP_DURATION_S, seed=s
                    ),
                    _udp_fields,
                    _udp_check,
                )
            )
    return ops


# -- tcp-bbr -------------------------------------------------------------


def bulk_transfer(config: Any, algorithm: str, duration_s: float, seed: int) -> Any:
    """One unbounded TCP transfer built from the layers' public API.

    The same construction :func:`repro.transport.iperf.run_tcp` performs,
    returning the sender, whose :class:`~repro.transport.base.FlowStats`
    give the oracle the delivered-bytes trace, not only its mean.
    """
    sim = Simulator()
    path = build_cellular_path(sim, config, default_rng(seed))
    cc = make_cc(algorithm, config.mss_bytes, rate_scale=config.scale)
    connection = TcpConnection.establish(sim, path, cc)
    connection.start()
    sim.run(until=duration_s)
    return connection.sender


def _flow_fields(sender: Any) -> dict[str, Any]:
    stats = sender.stats
    return {
        "delivered_trace": stats.delivered_trace,
        "cwnd_trace": stats.cwnd_trace,
        "rtt_samples": stats.rtt_samples,
        "packets_sent": stats.packets_sent,
        "retransmissions": stats.retransmissions,
        "timeouts": stats.timeouts,
        "fast_retransmits": stats.fast_retransmits,
    }


def _flow_check(sender: Any) -> list[str]:
    stats = sender.stats
    sent_bytes = stats.packets_sent * sender.mss
    times = [t for t, _ in stats.delivered_trace]
    delivered = [d for _, d in stats.delivered_trace]
    return _failures(
        (0 < stats.bytes_acked <= sent_bytes, "delivered <= sent"),
        (0 <= stats.retransmissions <= stats.packets_sent, "retransmit share in [0, 1]"),
        (times == sorted(times) and delivered == sorted(delivered), "delivery is monotone"),
        (all(rtt > 0 for _, rtt in stats.rtt_samples), "RTT samples positive"),
    )


def _bbr_setup(seed: int) -> list[Op]:
    config = path_config(resolve_scenario(None))
    ops = []
    for index, duration_s in enumerate(BBR_TRANSFERS_S):
        name = f"bbr-{duration_s:g}s-{index}"
        op_seed = derive_seed(seed, name)
        ops.append(
            Op(
                name,
                lambda d=duration_s, s=op_seed: bulk_transfer(config, "bbr", d, s),
                _flow_fields,
                _flow_check,
            )
        )
    return ops


# -- tcp-aqm -------------------------------------------------------------


def _tcp_result_fields(result: Any) -> dict[str, Any]:
    return {
        "algorithm": result.algorithm,
        "throughput_bps": result.throughput_bps,
        "utilization": result.utilization,
        "retransmissions": result.retransmissions,
        "timeouts": result.timeouts,
        "fast_retransmits": result.fast_retransmits,
        "cwnd_trace": result.cwnd_trace,
        "rtt_samples": result.rtt_samples,
    }


def _tcp_result_check(result: Any) -> list[str]:
    return _failures(
        (0.0 < result.utilization <= 1.0, "delivered <= capacity"),
        (result.retransmissions >= 0, "retransmissions >= 0"),
        (all(rtt > 0 for _, rtt in result.rtt_samples), "RTT samples positive"),
    )


def _aqm_setup(seed: int) -> list[Op]:
    scenario = resolve_scenario(None)
    drop_tail = path_config(scenario)
    baseline_bps = drop_tail.access_rate_bps() * drop_tail.scale
    ops = []
    for variant, remedy in REMEDY_VARIANTS.items():
        name = f"cubic-{variant}"
        op_seed = derive_seed(seed, name)
        ops.append(
            Op(
                name,
                lambda c=path_config(scenario, remedy=remedy), s=op_seed: run_tcp(
                    c, "cubic", duration_s=AQM_DURATION_S, seed=s, baseline_bps=baseline_bps
                ),
                _tcp_result_fields,
                _tcp_result_check,
            )
        )
    return ops


# -- coverage-walk ---------------------------------------------------------


def _survey_fields(points: Any) -> dict[str, Any]:
    return {
        "pci": [p.pci for p in points],
        "rsrp_dbm": [p.rsrp_dbm for p in points],
        "rsrq_db": [p.rsrq_db for p in points],
        "sinr_db": [p.sinr_db for p in points],
        "bit_rate_bps": [p.bit_rate_bps for p in points],
        "indoor": [p.indoor for p in points],
    }


def _walk_fields(campaign: Any) -> dict[str, Any]:
    return {
        "handoff_events": [
            (e.time_s, e.kind, e.source_pci, e.target_pci, e.latency_s,
             e.rsrq_before_db, e.rsrq_after_db)
            for e in campaign.events
        ],
        "serving_rsrq_db": [(s.time_s, s.rat, s.serving_pci, s.serving_rsrq_db)
                            for s in campaign.trace],
        "outages": campaign.outages,
    }


def _walk_check(campaign: Any) -> list[str]:
    times = [e.time_s for e in campaign.events]
    return _failures(
        (times == sorted(times), "hand-offs in time order"),
        (all(0.0 <= t <= WALK_DURATION_S for t in times), "hand-offs inside the walk"),
        (all(e.latency_s > 0 for e in campaign.events), "hand-off latency positive"),
    )


def _energy_fields(results: Any) -> dict[str, Any]:
    return {
        "total_energy_j": {key: r.total_energy_j for key, r in results.items()},
        "end_s": {key: r.end_s for key, r in results.items()},
        "states": {key: [s.state for s in r.segments] for key, r in results.items()},
    }


def _energy_check(results: Any) -> list[str]:
    return _failures(
        (len(results) == 3 * len(MODEL_RUNNERS), "every model replays every trace"),
        (all(r.total_energy_j > 0 for r in results.values()), "energy positive"),
    )


def _coverage_setup(seed: int) -> list[Op]:
    district = resolve_scenario("urban-canyon")
    campus = resolve_scenario(None)
    district_world = generate.generate_world(seed, district.topology)
    campus_world = generate.generate_world(seed, campus.topology)
    grid = grid_locations(district_world.width_m, district_world.height_m, SURVEY_SPACING_M)
    survey_seed = derive_seed(seed, "survey")
    walk_seed = derive_seed(seed, "walk")
    energy_seed = derive_seed(seed, "energy")

    def survey() -> Any:
        environment = Environment(district_world.buildings, RngFactory(survey_seed))
        network = RadioNetwork.from_world(district_world, district.radio.nr, environment)
        return coverage.survey_at_locations(network, grid)

    def survey_check(points: Any) -> list[str]:
        return _failures(
            (len(points) == len(grid), "survey point count equals the grid size"),
            (all(math.isfinite(p.sinr_db) for p in points), "SINR finite"),
        )

    def walk() -> Any:
        rngf = RngFactory(walk_seed)
        environment = Environment(campus_world.buildings, rngf)
        nr = RadioNetwork.from_world(campus_world, campus.radio.nr, environment)
        lte = RadioNetwork.from_world(campus_world, campus.radio.lte, environment)
        walker = RouteWalker(
            campus_world, rngf.stream("ho-walk"), speed_kmh=campus.workload.walk_speed_kmh
        )
        engine = HandoffEngine(
            nr,
            lte,
            rngf.stream("ho-engine"),
            config=campus.handoff,
            measurement_noise_db=campus.workload.measurement_noise_db,
            sa_mode=campus.radio.sa_mode,
        )
        return engine.run(walker.trajectory(WALK_DURATION_S, dt_s=WALK_STEP_S))

    def energy() -> Any:
        rng = RngFactory(energy_seed).stream("energy.web")
        traces = {
            "web": (web_browsing_trace(rng=rng), campus.energy.web),
            "video": (video_telephony_trace(), campus.energy.video),
            "file": (file_transfer_trace(), campus.energy.file),
        }
        return {
            f"{model}/{name}": runner(trace, capacities)
            for model, runner in MODEL_RUNNERS.items()
            for name, (trace, capacities) in traces.items()
        }

    return [
        Op("survey", survey, _survey_fields, survey_check),
        Op("walk", walk, _walk_fields, _walk_check),
        Op("energy", energy, _energy_fields, _energy_check),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "udp-cbr",
            "CBR UDP at 0.5x and 1.1x access capacity: event core, link hop and path "
            "processes work; TCP and qdisc do none",
            _udp_setup,
        ),
        Workload(
            "tcp-bbr",
            "paced BBR bulk transfers of 3 s and 5 s over drop-tail: the TCP and BBR per-ACK "
            "hot paths",
            _bbr_setup,
        ),
        Workload(
            "tcp-aqm",
            "5 s Cubic transfers through droptail, codel, fq-codel, cake, cake-autorate and pep: "
            "the only workload driving qdisc and PEP",
            _aqm_setup,
        ),
        Workload(
            "coverage-walk",
            "district grid survey, campus hand-off walk and energy replay: radio, geometry, "
            "mobility, energy; no DES",
            _coverage_setup,
        ),
    )
}
