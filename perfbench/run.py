#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload commit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --list

``--trace 0`` reports the end-to-end metrics (CPU time, no spans);
``--trace 1`` reports the per-layer metrics from a traced run, prints
a layer × (calls, self_s, share) table and writes the spans to
``perfbench/out/``.  The last line of standard output is always one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory and from
nowhere else; without it the command exits with status 2 and prints no
result.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: name -> (unit, better); the end-to-end metrics of every workload.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "commit_p50_us": ("us", "lower"),
    "commit_p99_us": ("us", "lower"),
    "txn_per_s": ("1/s", "higher"),
    "restart_s": ("s", "lower"),
    "log_bytes_per_txn": ("B/txn", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); the per-layer metrics of a traced run.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "client.self_s": ("s", "lower"),
    "client.calls": ("count", "lower"),
    "server.self_s": ("s", "lower"),
    "server.commit_forces_per_txn": ("count/txn", "lower"),
    "server.pages_served": ("count", "lower"),
    "server.callbacks_sent": ("count", "lower"),
    "codec.self_s": ("s", "lower"),
    "codec.encodes_per_txn": ("count/txn", "lower"),
    "codec.decodes_per_txn": ("count/txn", "lower"),
    "stable_log.self_s": ("s", "lower"),
    "stable_log.forces_per_txn": ("count/txn", "lower"),
    "stable_log.full_decodes": ("count", "lower"),
    "stable_log.header_peeks": ("count", "lower"),
    "stable_log.decode_cache_hit_ratio": ("ratio", "higher"),
    "buffer_pool.self_s": ("s", "lower"),
    "buffer_pool.client_hit_ratio": ("ratio", "higher"),
    "buffer_pool.server_hit_ratio": ("ratio", "higher"),
    "buffer_pool.evictions": ("count", "lower"),
    "disk.reads": ("count", "lower"),
    "disk.writes": ("count", "lower"),
    "disk.bytes_written_per_txn": ("B/txn", "lower"),
    "locking.self_s": ("s", "lower"),
    "locking.glm_requests_per_txn": ("count/txn", "lower"),
    "locking.conflict_ratio": ("ratio", "lower"),
    "locking.llm_local_grant_ratio": ("ratio", "higher"),
    "net.self_s": ("s", "lower"),
    "net.msgs_per_txn": ("count/txn", "lower"),
    "net.bytes_per_txn": ("B/txn", "lower"),
    "net.retries": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.committed_ratio": ("ratio", "higher"),
    "engine.max_rounds": ("count", "lower"),
    "engine.wave_slowdown": ("ratio", "lower"),
    "engine.txn_p50_ticks": ("ticks", "lower"),
    "engine.txn_p99_ticks": ("ticks", "lower"),
    "recovery.self_s": ("s", "lower"),
    "recovery.records_processed": ("count", "lower"),
    "recovery.redos_applied": ("count", "lower"),
    "recovery.clrs_written": ("count", "lower"),
    "recovery.client_recoveries": ("count", "lower"),
    "recovery.client_recovery_s": ("s", "lower"),
    "replication.self_s": ("s", "lower"),
    "replication.frames_shipped_per_txn": ("count/txn", "lower"),
    "replication.records_applied": ("count", "lower"),
    "replication.promotion_records": ("count", "lower"),
    "replication.detection_ticks": ("ticks", "lower"),
    "gc.self_s": ("s", "lower"),
    "gc.collections": ("count", "lower"),
    "other.self_s": ("s", "lower"),
    "failed_txn_ratio": ("ratio", "lower"),
    "tracing.overhead_ratio": ("ratio", "lower"),
}

#: Per-layer metrics that are exact counts of one seed's inputs; they
#: must repeat across rounds and runs.  Codec counts need the spans.
TRACED_COUNTS = ("codec.encodes_per_txn", "codec.decodes_per_txn")


def import_library() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no library at {SRC}/repro; run from "
                         "a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: repro imported from {repro.__file__}, "
                         f"not {SRC}\n")
        raise SystemExit(2)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of the raw samples (no binning)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_rounds(round_fn: Any, seed: int, seconds: float,
               **kwargs: Any) -> List[Any]:
    """Repeat identical rounds until ``seconds`` of wall time pass."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(round_fn(seed, **kwargs))
        if time.perf_counter() >= deadline:
            return rounds


def count_mismatches(rounds: Sequence[Any], skip: Sequence[str] = ()
                     ) -> List[str]:
    """Counts that differ between rounds of one seed."""
    problems = []
    first = rounds[0].counts
    for index, rnd in enumerate(rounds[1:], start=1):
        for key, value in rnd.counts.items():
            if key in skip or key not in first:
                continue
            if value != first[key]:
                problems.append(f"round {index}: {key} = {value!r}, "
                                f"round 0 had {first[key]!r}")
    return problems


def end_to_end(rounds: Sequence[Any]) -> Dict[str, float]:
    from workloads import median

    samples = [us for rnd in rounds for us in rnd.txn_us]
    load = sum(rnd.load_s for rnd in rounds)
    return {
        "commit_p50_us": percentile(samples, 0.50),
        "commit_p99_us": percentile(samples, 0.99),
        "txn_per_s": sum(rnd.committed for rnd in rounds) / load,
        "restart_s": median([s for rnd in rounds for s in rnd.restart_s]),
        "log_bytes_per_txn": rounds[0].counts["log_bytes_per_txn"],
        "setup_s": median([s for rnd in rounds for s in rnd.setup_s]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds: Sequence[Any], recorder: Any,
              baseline: Any) -> Dict[str, float]:
    from spans import LAYER_NAMES
    from workloads import median

    first = rounds[0]
    metrics = {name: float(first.counts.get(name, 0.0))
               for name in PER_LAYER}
    for index, layer in enumerate(LAYER_NAMES):
        metrics[f"{layer}.self_s"] = (
            recorder.work_self_ns[index] / 1e9 / len(rounds))
    metrics["client.calls"] = recorder.work_calls[LAYER_NAMES.index(
        "client")] / len(rounds)
    metrics["gc.collections"] = recorder.work_calls[LAYER_NAMES.index(
        "gc")] / len(rounds)
    metrics["engine.committed_ratio"] = (
        first.committed / first.attempted if first.ticks else 0.0)
    metrics["engine.wave_slowdown"] = median(
        [x for rnd in rounds for x in rnd.wave_slowdown])
    metrics["engine.txn_p50_ticks"] = percentile(first.ticks, 0.50)
    metrics["engine.txn_p99_ticks"] = percentile(first.ticks, 0.99)
    metrics["recovery.client_recovery_s"] = median(
        [s for rnd in rounds for s in rnd.client_recovery_s])
    traced = median([rnd.work_s for rnd in rounds])
    metrics["tracing.overhead_ratio"] = traced / baseline.work_s - 1.0
    return metrics


def print_layer_table(workload: str, recorder: Any, rounds: int) -> None:
    from spans import layer_table

    print(f"\nper-layer self time, {workload}, per round "
          f"(mean of {rounds} traced round(s)):")
    print(f"  {'layer':<12} {'calls':>10} {'self_s':>10} {'share':>7}")
    for name, calls, self_s, share in layer_table(recorder.work_self_ns,
                                                  recorder.work_calls):
        print(f"  {name:<12} {calls / rounds:>10.0f} {self_s / rounds:>10.4f}"
              f" {share:>7.1%}")


def print_metrics(metrics: Dict[str, float],
                  catalogue: Dict[str, Tuple[str, str]]) -> None:
    for name, value in metrics.items():
        unit, better = catalogue[name]
        print(f"  {name:<36} {value:>14.6g} {unit:<10} ({better} is better)")


def list_metrics() -> None:
    """Every metric, by name, unit and direction."""
    print("end-to-end (--trace 0), every workload:")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {name:<36} {unit:<10} {better}")
    print("per-layer (--trace 1), every workload:")
    for name, (unit, better) in PER_LAYER.items():
        print(f"  {name:<36} {unit:<10} {better}")


def traced_run(round_fn: Any, opts: argparse.Namespace
               ) -> Tuple[List[Any], Dict[str, float], List[str]]:
    """One untraced baseline round, then traced rounds; per-layer
    metrics, the layer table, and the span file."""
    from spans import SpanRecorder

    baseline = round_fn(opts.seed)
    recorder = SpanRecorder()
    recorder.install()
    try:
        rounds = run_rounds(round_fn, opts.seed, opts.seconds,
                            recorder=recorder)
    finally:
        recorder.uninstall()
    mismatches = (count_mismatches([baseline] + rounds, skip=TRACED_COUNTS)
                  + count_mismatches(rounds))
    metrics = per_layer(rounds, recorder, baseline)
    print_layer_table(opts.workload, recorder, len(rounds))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{opts.workload}-seed{opts.seed}.spans.tsv.gz")
    written = recorder.write(path)
    print(f"wrote {written} spans to {os.path.relpath(path, ROOT)} "
          f"({recorder.spans_dropped} past the cap not kept)")
    return [baseline] + rounds, metrics, mismatches


def untraced_run(round_fn: Any, opts: argparse.Namespace
                 ) -> Tuple[List[Any], Dict[str, float], List[str]]:
    """Speed-normalized rounds; end-to-end metrics."""
    from speed import NOMINAL_NS, SpeedMeter

    meter = SpeedMeter()
    rounds = run_rounds(round_fn, opts.seed, opts.seconds, meter=meter)
    probes = meter.reference_ns
    print(f"speed reference: {len(probes)} runs, median "
          f"{percentile(probes, 0.5) / 1e3:.0f} us, p10 "
          f"{percentile(probes, 0.1) / 1e3:.0f} us (nominal "
          f"{NOMINAL_NS / 1e3:.0f} us)")
    return rounds, end_to_end(rounds), count_mismatches(rounds)


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("commit", "crowd", "failover"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric by name and unit, then exit")
    opts = parser.parse_args(list(argv) or None)
    if opts.list:
        list_metrics()
        return 0
    if opts.workload is None:
        parser.error("--workload is required")
    import_library()
    import workloads

    print(f"perfbench {opts.workload} seed={opts.seed} seconds={opts.seconds} "
          f"trace={opts.trace} python={sys.version.split()[0]} "
          f"nproc={os.cpu_count()}", flush=True)
    round_fn = workloads.WORKLOADS[opts.workload]
    measure = untraced_run
    catalogue = END_TO_END
    if opts.trace:
        round_fn = workloads.TRACED.get(opts.workload, round_fn)
        measure = traced_run
        catalogue = PER_LAYER
    metrics: Dict[str, float] = {}
    try:
        rounds, metrics, problems = measure(round_fn, opts)
        attempted = sum(rnd.attempted for rnd in rounds)
        failed = sum(rnd.failed for rnd in rounds) + len(problems)
        problems += [p for rnd in rounds for p in rnd.problems]
        print(f"\n{len(rounds)} round(s), {attempted} transactions "
              f"attempted, {failed} failed:")
        print_metrics(metrics, catalogue)
    except Exception:  # the result must still be printed, as a failure
        traceback.print_exc()
        attempted, failed = 1, 1
        problems = ["exception; see the traceback above"]
    for problem in problems:
        print(f"FAIL: {problem}")
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": catalogue[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
