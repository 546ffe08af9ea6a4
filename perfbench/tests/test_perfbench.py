"""Tests of the benchmark itself: the oracle, span arithmetic, metric
names, count repeatability and the per-layer predictions.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from oracle import PINNED_PATH, digest_fields, diverged_fields
from reference import reference_checksum, reference_time
from tracing import PER_LAYER_METRICS, SpanLog, Tracer, self_times
from workloads import WORKLOADS

ROOT = run.HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}\Z")


def test_digest_check_rejects_a_perturbed_result(capsys):
    op = WORKLOADS["udp-cbr"].setup(3)[0]
    result = op.run()
    checker = run.Checker(None)
    checker.record(op, 1, result)
    nudged = math.nextafter(result.throughput_bps, math.inf)
    checker.record(op, 2, dataclasses.replace(result, throughput_bps=nudged))
    checker.record(op, 3, dataclasses.replace(result, lost_seqs=result.lost_seqs[1:]))
    assert (checker.attempted, checker.failed) == (3, 2)
    out = capsys.readouterr().out
    assert f"op {op.name} round 2: throughput_bps diverged" in out
    assert f"op {op.name} round 3: invariant broken: lost = sent - delivered" in out


def test_digests_cover_every_field_exactly():
    base = {"trace": [(0.5, 1.25), (1.0, 2.5)], "count": 3}
    moved = {"trace": [(0.5, 1.25), (1.0, math.nextafter(2.5, 0.0))], "count": 3}
    assert diverged_fields(digest_fields(base), digest_fields(moved)) == ["trace"]
    assert diverged_fields(digest_fields(base), digest_fields({"trace": base["trace"]})) == [
        "count"
    ]


def test_every_operation_has_a_pinned_digest():
    pinned = json.loads(PINNED_PATH.read_text())
    assert pinned["seed"] == 7
    for name, workload in WORKLOADS.items():
        assert sorted(pinned["workloads"][name]) == sorted(op.name for op in workload.setup(7))


def test_reference_kernel_does_fixed_work():
    assert reference_checksum() == 287502
    assert 0.0 < reference_time() < 1.0


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_span_log_records_nesting():
    log = SpanLog()
    inner = log.spanned(lambda: None, "link", "inner")
    outer = log.spanned(lambda: (inner(), inner()), "sim", "outer")
    outer()
    spans = log.arrays()
    assert spans["parent"].tolist() == [-1, 0, 0]
    assert [log.labels[i] for i in spans["label"]] == [
        ("sim", "outer"), ("link", "inner"), ("link", "inner")
    ]
    assert (spans["end"] >= spans["start"]).all()
    assert self_times(spans["parent"], spans["start"], spans["end"]).min() >= 0.0


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert metric["unit"], metric
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER_METRICS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.fixture(scope="module")
def traced():
    """Two traced rounds of every workload at seed 7."""
    summaries = {}
    for name, workload in WORKLOADS.items():
        ops = workload.setup(7)
        tracer = Tracer(SpanLog())
        checker = run.Checker(None)
        summaries[name] = [
            run.traced_round(tracer, ops, 7, checker, index)[1] for index in (1, 2)
        ]
        assert checker.failed == 0
    return summaries


def test_per_layer_counts_repeat_exactly(traced):
    for name, (first, second) in traced.items():
        assert first["counts"] == second["counts"], name


def test_predictions_hold(traced):
    qdisc = ("qdisc.enqueues", "qdisc.dequeues", "qdisc.aqm_drops", "qdisc.wakeups")
    for name, (summary, _) in traced.items():
        counts = summary["counts"]
        if name == "tcp-aqm":
            assert all(counts[key] > 0 for key in qdisc)
        else:
            assert all(counts[key] == 0 for key in qdisc), name
    assert traced["udp-cbr"][0]["counts"]["tcp.acks"] == 0
    assert traced["coverage-walk"][0]["counts"]["sim.events_executed"] == 0
    assert traced["coverage-walk"][0]["counts"]["radio.survey_points"] > 0


def test_qdisc_counts_each_packet_once():
    # FQ-CoDel queues through per-flow CoDel sub-queues; only the qdisc the
    # link serves may count, or every packet and AQM drop counts twice.
    ops = [op for op in WORKLOADS["tcp-aqm"].setup(7) if "fq-codel" in op.name][:1]
    tracer = Tracer(SpanLog())
    checker = run.Checker(None)
    counts = run.traced_round(tracer, ops, 7, checker, 1)[1]["counts"]
    assert checker.failed == 0
    served = [link.qdisc for link in tracer.instances["Link"] if link.qdisc is not None]
    assert [type(q).__name__ for q in served] == ["FqCodelQueue"]
    (qdisc,) = served
    assert counts["qdisc.enqueues"] == qdisc.stats.enqueued
    assert counts["qdisc.aqm_drops"] > 0
    outer_calls = sum(
        1 for label in tracer.log.label if tracer.log.labels[label][1] == "FqCodelQueue.enqueue"
    )
    assert counts["qdisc.enqueues"] == outer_calls - qdisc.stats.drops
    assert counts["qdisc.enqueues"] == (
        counts["qdisc.dequeues"] + counts["qdisc.aqm_drops"] + qdisc.occupancy
    )


def _largest_share(summary, group):
    times = {k: v for k, v in summary["times"].items() if k.endswith(".self_s")}
    combined = sum(times.pop(f"{layer}.self_s", 0.0) for layer in group)
    return combined > max(times.values())


def test_self_time_shares_match_the_predictions(traced):
    assert _largest_share(traced["tcp-bbr"][0], ("tcp", "cc.bbr"))
    assert _largest_share(traced["udp-cbr"][0], ("sim", "link"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "udp-cbr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
