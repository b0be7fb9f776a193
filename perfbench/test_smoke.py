"""The benchmark's own smoke test: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload must emit every named metric, traced and untraced, with
its oracle check passing; per-layer counts must repeat across rounds
and across processes; and ``BENCHMARK.json`` must name exactly the
metrics the runner prints.  The repository's own suite does not collect
this file (its ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from repro.workloads.driver import DriverSpec  # noqa: E402
from spans import LAYER_NAMES, SpanRecorder  # noqa: E402
from speed import SpeedMeter  # noqa: E402

TINY = {
    "commit": functools.partial(
        workloads.commit_round,
        shape=workloads.CommitShape(pages=4, records_per_page=4, txns=40)),
    "crowd": functools.partial(
        workloads.crowd_round,
        spec=DriverSpec(clients=24, ops_per_txn=4, read_fraction=0.5,
                        zipf_theta=0.99, ordered_access=True, waves=2,
                        churn_rate=0.1, table_pages=4, records_per_page=4),
        complexes=2),
    "failover": functools.partial(
        workloads.failover_round,
        shape=workloads.FailoverShape(clients=4, pages_per_client=2,
                                      records_per_page=2,
                                      txns_per_client=3)),
}
SEED = 5


def _assert_clean(rounds):
    for rnd in rounds:
        assert rnd.failed == 0, rnd.problems
        assert rnd.attempted > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics(workload):
    meter = SpeedMeter()
    rounds = [TINY[workload](SEED, meter=meter) for _ in range(2)]
    _assert_clean(rounds)
    assert run.count_mismatches(rounds) == []
    metrics = run.end_to_end(rounds)
    assert list(metrics) == list(run.END_TO_END)
    for name, value in metrics.items():
        assert value > 0, name


@pytest.mark.parametrize("workload", sorted(TINY))
def test_per_layer_metrics(workload):
    baseline = TINY[workload](SEED)
    recorder = SpanRecorder()
    recorder.install()
    try:
        rounds = [TINY[workload](SEED, recorder=recorder)
                  for _ in range(2)]
    finally:
        recorder.uninstall()
    _assert_clean([baseline] + rounds)
    assert run.count_mismatches([baseline] + rounds,
                                skip=run.TRACED_COUNTS) == []
    assert run.count_mismatches(rounds) == []
    metrics = run.per_layer(rounds, recorder, baseline)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["client.calls"] > 0
    assert metrics["codec.encodes_per_txn"] > 0
    for layer in ("client", "server", "codec", "net", "other"):
        assert recorder.work_self_ns[LAYER_NAMES.index(layer)] > 0, layer
    exercised = {"commit": "recovery", "crowd": "engine",
                 "failover": "replication"}[workload]
    assert metrics[f"{exercised}.self_s"] > 0


def test_uninstall_restores_the_library():
    from repro.core.client import Client
    from repro.storage import stable_log

    original = (Client.commit, stable_log.encode_record)
    recorder = SpanRecorder()
    recorder.install()
    assert Client.commit is not original[0]
    recorder.uninstall()
    assert (Client.commit, stable_log.encode_record) == original


_COUNTS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_smoke
from spans import SpanRecorder
recorder = SpanRecorder()
recorder.install()
rnd = test_smoke.TINY[sys.argv[2]](test_smoke.SEED, recorder=recorder)
print(json.dumps(rnd.counts, sort_keys=True))
"""


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_across_processes(workload):
    here = os.path.dirname(os.path.abspath(__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", _COUNTS_SCRIPT, here, workload],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == sorted(TINY)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(run.HERE, name), bench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "commit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
