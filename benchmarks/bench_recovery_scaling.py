"""Recovery-scaling ablation: restart work vs history length and
checkpoint interval.

Not a single paper claim but the load-bearing property of the whole
design (sections 1.1.2, 2.6, 2.7): recovery work is bounded by the
distance from the last checkpoint, not by the total history.  Reported
as records processed per pass; the pytest-benchmark timing covers the
full crash + restart.

Run standalone to sweep the same histories under every recovery engine
and emit ``BENCH_recovery_scaling.json``::

    PYTHONPATH=src python benchmarks/bench_recovery_scaling.py
"""

import json
import random
import time
from pathlib import Path

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.harness.report import format_table
from repro.recovery.engines import ENGINE_NAMES
from repro.workloads.generator import seed_table


def run_history(total_txns: int, ckpt_interval: int,
                engine: str = SystemConfig.recovery_engine):
    config = SystemConfig(
        client_buffer_frames=4,
        client_checkpoint_interval=max(1, ckpt_interval // 4),
        server_checkpoint_interval=ckpt_interval,
        recovery_engine=engine,
    )
    system = ClientServerSystem(config, client_ids=["C1", "C2"])
    system.bootstrap(data_pages=8, free_pages=8)
    rids = seed_table(system, "C1", "t", 8, 3)
    rng = random.Random(61)
    for i in range(total_txns):
        client = system.client("C1" if i % 2 == 0 else "C2")
        txn = client.begin()
        client.update(txn, rids[rng.randrange(len(rids))], ("h", i))
        client.commit(txn)
    system.crash_all()
    start = time.perf_counter()
    report = system.restart_all()
    elapsed = time.perf_counter() - start
    return {
        "engine": engine,
        "txns_in_history": total_txns,
        "server_ckpt_interval": ckpt_interval,
        "log_records_total": system.server.log.stable.record_count(),
        "analysis_records": report.analysis_records,
        "redos_applied": report.redos_applied,
        "restart_s": round(elapsed, 4),
    }


def main():
    out = Path(__file__).resolve().parent.parent / "BENCH_recovery_scaling.json"
    rows = []
    for engine in ENGINE_NAMES:
        for total in (100, 400, 1600):
            for interval in (0, 50):          # 0 = no server checkpoints
                rows.append(run_history(total, interval, engine))
    print(format_table(
        rows, title="Restart work vs history, checkpoints and engine"))
    out.write_text(json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


def test_recovery_scaling(benchmark):
    def sweep():
        rows = []
        for total in (40, 160):
            for interval in (0, 50):          # 0 = no server checkpoints
                rows.append(run_history(total, interval))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Recovery work vs history and checkpoints"))
    # With checkpoints, analysis work stays roughly flat as history
    # grows; without them it scales with the log.
    def pick(total, interval):
        return [r for r in rows if r["txns_in_history"] == total
                and r["server_ckpt_interval"] == interval][0]

    no_ckpt_growth = (pick(160, 0)["analysis_records"]
                      / max(1, pick(40, 0)["analysis_records"]))
    ckpt_growth = (pick(160, 50)["analysis_records"]
                   / max(1, pick(40, 50)["analysis_records"]))
    assert no_ckpt_growth > 2.5
    assert ckpt_growth < no_ckpt_growth


if __name__ == "__main__":
    main()
