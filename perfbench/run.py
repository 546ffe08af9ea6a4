"""Run one benchmark workload; print its metrics as the last line of JSON.

    python3 perfbench/run.py --workload udp-cbr --seed 7 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 33 --trace 0
    python3 perfbench/run.py --pin

One client runs the workload's batch of operations back to back (closed
loop), in rounds, for about ``--seconds``; every operation runs under
``repro.runner.instrument.instrumented_call`` with the audit on and its
outputs are checked against the oracle.  Round times are normalized for
host speed by the reference kernel in ``reference.py``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run.
``--workload all`` runs every workload, each in its own process.
``--pin`` rewrites the pinned seed-7 digests.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import PINNED_PATH, PINNED_SEED, digest_fields, diverged_fields, load_pinned
from reference import normalize, reference_sample

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("udp-cbr", "tcp-bbr", "tcp-aqm", "coverage-walk")

#: End-to-end metrics and their units.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB", "ok_ratio": "ratio"}

#: Set-ups per run, each in a fresh process timed from its spawn.
SETUP_SAMPLES = 5

#: Set-ups per traced run, for the world-generation time.
TRACED_SETUPS = 3

SPANS_DIR = HERE / "out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the seed-7 digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Checker:
    """Checks every operation's result: no exception, invariants, digests.

    With pinned digests (seed 7) each operation must match them; for any
    other seed its digests must repeat exactly those of its first run.
    """

    def __init__(self, pinned: dict[str, dict[str, str]] | None) -> None:
        self.reference = dict(pinned or {})
        self.pinned = pinned is not None
        self.attempted = 0
        self.failed = 0

    def record(self, op, round_index: int, result=None, error: Exception | None = None) -> None:
        self.attempted += 1
        where = f"op {op.name} round {round_index}"
        if error is not None:
            self._fail(f"{where}: raised {type(error).__name__}: {error}")
            return
        problems = op.check(result)
        if problems:
            self._fail(f"{where}: invariant broken: {'; '.join(problems)}")
            return
        digests = digest_fields(op.fields(result))
        if self.pinned:
            expected = self.reference.get(op.name)
        else:
            expected = self.reference.setdefault(op.name, digests)
        if expected is None:
            self._fail(f"{where}: no pinned digest")
            return
        diverged = diverged_fields(expected, digests)
        if diverged:
            source = "pinned" if self.pinned else "first-run"
            self._fail(f"{where}: {', '.join(diverged)} diverged from the {source} digest")

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}")


def timed_round(
    ops, seed: int, checker: Checker, round_index: int, wrap=None
) -> tuple[float, float]:
    """Run the batch once, checking each result.

    Returns the ops' summed host time, and that time normalized for host
    speed by the mean time of the reference kernel, sampled before each op
    and after the last (see :mod:`reference`).  ``wrap`` (a
    :meth:`tracing.SpanLog.spanned`) adds spans around ``instrumented_call``
    and the operation inside it.
    """
    from repro.runner.instrument import instrumented_call

    wall = 0.0
    references = [reference_sample()]
    for op in ops:
        call, fn = instrumented_call, op.run
        if wrap is not None:
            call = wrap(instrumented_call, "runner", "instrumented_call")
            fn = wrap(op.run, "op", f"op:{op.name}")
        started = time.perf_counter()
        try:
            result, error = call(op.name, seed, fn)[0], None
        except Exception as exc:  # an AuditError or any model failure fails the op
            result, error = None, exc
        wall += time.perf_counter() - started
        references.append(reference_sample())
        checker.record(op, round_index, result, error)
    return wall, normalize(wall, statistics.fmean(references))


def traced_round(tracer, ops, seed: int, checker: Checker, round_index: int):
    """One round under ``tracer``; returns (normalized wall time, round summary)."""
    from repro.core.rng import streams_drawn
    from repro.net import sim
    from tracing import round_summary

    tracer.reset()
    events_before, draws_before = sim.global_counters(), streams_drawn()
    with tracer:
        _, wall = timed_round(ops, seed, checker, round_index, tracer.log.spanned)
    events_after = sim.global_counters()
    summary = round_summary(tracer)
    summary["counts"].update({
        "sim.events_scheduled": events_after.scheduled - events_before.scheduled,
        "sim.events_executed": events_after.executed - events_before.executed,
        "sim.events_cancelled": events_after.cancelled - events_before.cancelled,
        "radio.shadow_draws": streams_drawn() - draws_before,
    })
    return wall, summary


def _another_round(deadline: float, started: float, done: int, minimum: int) -> bool:
    """Whether to run another round: always until ``minimum`` are done, then
    only if one more round as long as the mean of the rounds started at
    ``started`` still ends by ``deadline``."""
    now = time.perf_counter()
    return done < minimum or now + (now - started) / done <= deadline


def setup_times(workload: str, seed: int, count: int) -> list[float]:
    """Host set-up times of ``count`` fresh processes.

    Each is timed from just before its process is spawned until the
    process reports that its first operation is ready, so interpreter
    start-up counts.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            samples.append(time.perf_counter() - started)
            probe.stdout.read()
            if probe.wait(timeout=120) != 0 or ready.strip() != "ready":
                raise RuntimeError(f"set-up probe of {workload} failed")
    return samples


def _pinned(args: argparse.Namespace, workload_name: str):
    return load_pinned(workload_name) if args.seed == PINNED_SEED else None


def _result(correct: bool, checker: Checker, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def _run_untraced(args, workload, ops) -> int:
    # The set-up probes count against --seconds, so a run's length is fixed.
    deadline = time.perf_counter() + args.seconds
    setups = setup_times(workload.name, args.seed, SETUP_SAMPLES)
    checker = Checker(_pinned(args, workload.name))
    rounds = []
    started = time.perf_counter()
    # Two rounds at least, so every op's digests are compared across rounds.
    while _another_round(deadline, started, len(rounds), minimum=2):
        rounds.append(timed_round(ops, args.seed, checker, len(rounds) + 1))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(normalized for _, normalized in rounds),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
    }
    print(f"{workload.name} seed {args.seed}: {len(rounds)} rounds of {len(ops)} ops, "
          f"failed_ratio {checker.failed / checker.attempted:g} "
          f"({checker.failed}/{checker.attempted})")
    print("  set-ups, host s:       " + " ".join(f"{raw:.3f}" for raw in setups))
    print("  rounds, host s:       " + " ".join(f"{wall:.3f}" for wall, _ in rounds))
    print("  rounds, normalized s: " + " ".join(f"{norm:.3f}" for _, norm in rounds))
    for name, value in values.items():
        print(f"  {name:14s} {value:12.4f} {END_TO_END[name]}")
    metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}
    correct = checker.failed == 0
    print(_result(correct, checker, metrics))
    return 0 if correct else 1


def _run_traced(args, workload) -> int:
    from tracing import PER_LAYER_METRICS, SpanLog, Tracer, layer_metrics, round_summary

    deadline = time.perf_counter() + args.seconds
    tracer = Tracer(SpanLog())
    setup_rounds = []
    for _ in range(TRACED_SETUPS):
        tracer.reset()
        with tracer:
            ops = workload.setup(args.seed)
        setup_rounds.append(round_summary(tracer))

    checker = Checker(_pinned(args, workload.name))
    untraced_walls, traced_walls, rounds = [], [], []
    started = time.perf_counter()
    while _another_round(deadline, started, len(rounds), minimum=1):
        untraced_walls.append(timed_round(ops, args.seed, checker, 2 * len(rounds) + 1)[1])
        wall, summary = traced_round(tracer, ops, args.seed, checker, 2 * len(rounds) + 2)
        traced_walls.append(wall)
        rounds.append(summary)

    repeat = all(r["counts"] == rounds[0]["counts"] for r in rounds)
    if not repeat:
        print("FAILED per-layer counts differ between traced rounds")
    _write_spans(tracer.log, workload.name)
    metrics = layer_metrics(
        rounds, setup_rounds, statistics.median(untraced_walls), statistics.median(traced_walls)
    )
    shares = {k[:-7]: v for k, v in rounds[-1]["times"].items() if k.endswith(".self_s") and v}
    total = sum(shares.values()) or 1.0
    print(f"{workload.name} seed {args.seed}: {len(rounds)} traced rounds, "
          f"{checker.failed}/{checker.attempted} ops failed")
    print("  self time by layer (last traced round):")
    for layer, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:10s} {value / total:6.1%} {value:9.4f} s")
    correct = checker.failed == 0 and repeat
    print(_result(
        correct,
        checker,
        {name: (metrics[name], unit) for name, (unit, _) in PER_LAYER_METRICS.items()},
    ))
    return 0 if correct else 1


def _write_spans(log, workload: str) -> None:
    """Write the last traced round's spans out (``numpy.load`` reads them)."""
    import numpy as np

    SPANS_DIR.mkdir(exist_ok=True)
    np.savez(
        SPANS_DIR / f"spans-{workload}.npz",
        layers=np.array([layer for layer, _ in log.labels]),
        names=np.array([name for _, name in log.labels]),
        **log.arrays(),
    )


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one summary line at the end."""
    merged: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def _pin() -> int:
    """Recompute and store the seed-7 digests of every operation."""
    from repro.runner.instrument import instrumented_call
    from workloads import WORKLOADS

    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = {}
        for op in workload.setup(PINNED_SEED):
            result, _ = instrumented_call(op.name, PINNED_SEED, op.run)
            problems = op.check(result)
            if problems:
                print(f"{name}/{op.name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            pinned[name][op.name] = digest_fields(op.fields(result))
    PINNED_PATH.write_text(json.dumps({"seed": PINNED_SEED, "workloads": pinned}, indent=1) + "\n")
    print(f"pinned {sum(map(len, pinned.values()))} operations in {PINNED_PATH.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The audit stays on, as in `repro run`, and writes no flight-recorder files.
    for variable in ("REPRO_NO_AUDIT", "REPRO_AUDIT_DIR", "REPRO_AUDIT_DUMP"):
        os.environ.pop(variable, None)
    if args.pin:
        return _pin()
    if args.workload == "all":
        return _run_all(args)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        return _run_traced(args, workload)
    ops = workload.setup(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    return _run_untraced(args, workload, ops)


if __name__ == "__main__":
    sys.exit(main())
