"""Recovery-engine benchmark: fused vs serial restart.

Standalone runner (no pytest required) that builds the same crashed
complex once per engine — a long committed history from two clients, an
early server checkpoint, and two heavyweight loser transactions stranded
just after it — then times the whole-complex restart under each
``SystemConfig.recovery_engine``.  Emits ``BENCH_recovery_engines.json``
next to the repo root so CI and EXPERIMENTS can assert the speedup is
real.

The crash state is adversarial for the serial passes on purpose.
Committed work is externalized before the crash (``FORCE_TO_DISK``
commits — the instant-restart regime of Sauer & Härder, arXiv
1409.3682), so almost all surviving redo work belongs to the losers,
whose many updates sit just past the checkpoint: the serial engine
scans the post-checkpoint range twice (analysis, then redo), re-applies
every loser update (repeat history), walks nearly the whole log
backward to undo them, and applies every CLR.  The fused engine
collects the redo candidates during the analysis scan (one scan instead
of two) and resolves undo chains by exact LSN→address lookup (no
backward scan).

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery_engines.py           # full
    PYTHONPATH=src python benchmarks/bench_recovery_engines.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_recovery_engines.py --quick --check

``--check`` exits non-zero unless, on the tier's corpus, fused beats
serial by >= 1.5x CPU-time.

Everything but the timing columns is deterministic: the engines'
record counts, CLR counts and rolled-back transaction counts are pinned
per corpus, and fused must agree with serial on every applied redo and
written CLR.
"""

import argparse
import gc
import json
import time
from pathlib import Path

from repro.config import CommitPagePolicy, SystemConfig
from repro.core.system import ClientServerSystem
from repro.workloads.generator import seed_table

#: Required serial-over-fused CPU-time factor on either tier's corpus.
REQUIRED_FUSED = 1.5


def build_crash_state(engine, txns, loser_updates, table_pages):
    """A crashed complex with externalized commits and heavy losers.

    A short warmup and an early server checkpoint come first; each
    client then strands one loser transaction with ``loser_updates``
    updates over its own private pages; the bulk of the committed
    history follows.  Commits run under ``FORCE_TO_DISK``, so by
    crash time the committed pages are current on server disk and the
    only redo work that actually applies is the losers'.
    """
    config = SystemConfig(
        # Pools sized to hold the table: loser pages are never evicted,
        # so none of their updates reach disk before the crash.
        client_buffer_frames=table_pages + 8,
        server_buffer_frames=table_pages + 8,
        client_checkpoint_interval=0,
        server_checkpoint_interval=0,
        max_lsn_sync_period=8,
        commit_page_policy=CommitPagePolicy.FORCE_TO_DISK,
        recovery_engine=engine,
    )
    system = ClientServerSystem(config, client_ids=("C1", "C2"))
    system.bootstrap(data_pages=table_pages, free_pages=8)
    rids = seed_table(system, "C1", "t", table_pages, 3)
    c1, c2 = system.client("C1"), system.client("C2")

    # Each client gets one private page of loser records (disjoint from
    # the committed stream, so the stranded X locks never conflict).
    loser1_rids, loser2_rids = rids[-3:], rids[-6:-3]
    committed_rids = rids[:-6]

    for i in range(8):
        client = c1 if i % 2 == 0 else c2
        txn = client.begin(f"bench-warm-{i}")
        client.update(txn, committed_rids[i % len(committed_rids)],
                      ("warm", i))
        client.commit(txn)
    system.server.take_checkpoint()

    # Heavy stranded losers, opened right after the checkpoint: the
    # serial backward undo scan must walk the whole bulk history to
    # reach their records; the fused engine's chain walk jumps straight
    # to them.  Because nothing dirty predates the checkpoint, the fused
    # engine needs no supplementary pre-checkpoint scan.
    loser1 = c1.begin("bench-loser-C1")
    loser2 = c2.begin("bench-loser-C2")
    for j in range(loser_updates):
        c1.update(loser1, loser1_rids[j % 3], ("loser", "C1", j))
        c2.update(loser2, loser2_rids[j % 3], ("loser", "C2", j))

    for i in range(txns):
        client = c1 if i % 2 == 0 else c2
        rid = committed_rids[(i * 7) % len(committed_rids)]
        txn = client.begin(f"bench-{i}")
        client.update(txn, rid, ("committed", i))
        client.commit(txn)
    system.crash_all()
    return system


def time_restart(engine, txns, loser_updates, table_pages):
    """One restart CPU-time sample over a fresh crash state.

    Restart is single-threaded, so CPU time is the honest clock: it is
    immune to scheduler preemption on shared runners, which otherwise
    swings wall-clock by tens of percent between runs.  GC is paused
    around the timed region so a collection landing inside one engine's
    restart can't skew the ratios; the crash state is dropped and
    collected afterwards so process memory stays symmetric across
    samples.
    """
    system = build_crash_state(engine, txns, loser_updates, table_pages)
    log_records = sum(1 for _ in system.server.log.scan_headers(0))
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        report = system.restart_all()
        elapsed = time.process_time() - start
    finally:
        gc.enable()
    del system
    gc.collect()
    return elapsed, log_records, report


def make_row(engine, txns, elapsed, log_records, report):
    return {
        "engine": engine,
        "txns": txns,
        "log_records": log_records,
        "elapsed_s": round(elapsed, 4),
        "fallback": report.fallback,
        "analysis_records": report.analysis_records,
        "redo_records_scanned": report.redo_records_scanned,
        "redo_considered": report.redo_considered,
        "redos_applied": report.redos_applied,
        "undo_records_scanned": report.undo_records_scanned,
        "clrs_written": report.clrs_written,
        "txns_rolled_back": report.txns_rolled_back,
        "total_records_processed": report.total_log_records_processed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small corpus (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless fused >= 1.5x over serial")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_recovery_engines.json",
                        help="where to write the JSON result")
    opts = parser.parse_args(argv)

    txns = 2400 if opts.quick else 8000
    # Loser weight stays modest on both tiers: CLR appends and chain
    # reads are work every engine shares, so piling on loser updates
    # *shrinks* the measured ratios rather than growing them.
    loser_updates = 120
    table_pages = 8
    trials = 3

    # Trials interleave across engines with the order rotated each
    # round (rather than all of one engine's trials back to back) so
    # allocator/cache state drift over the run penalizes every engine
    # equally: each engine samples each slot in the cycle.
    engines = ("serial", "fused")
    best = {}
    reports = {}
    for trial in range(trials):
        rotated = engines[trial % 2:] + engines[:trial % 2]
        for engine in rotated:
            print(f"trial {trial + 1}/{trials}: {engine} restart over "
                  f"{txns}-txn corpus ...", flush=True)
            elapsed, log_records, report = time_restart(
                engine, txns, loser_updates, table_pages)
            print(f"  {elapsed:>8.4f}s", flush=True)
            if engine not in best or elapsed < best[engine]:
                best[engine] = elapsed
            reports[engine] = (log_records, report)

    rows = []
    for engine in engines:
        log_records, report = reports[engine]
        rows.append(make_row(engine, txns, best[engine], log_records, report))
        r = rows[-1]
        print(f"{engine}: best {r['elapsed_s']:.4f}s  scanned "
              f"{r['total_records_processed']} records, applied "
              f"{r['redos_applied']}, clrs {r['clrs_written']}"
              f"{'  FALLBACK ' + r['fallback'] if r['fallback'] else ''}",
              flush=True)

    by_engine = {r["engine"]: r for r in rows}
    serial, fused = by_engine["serial"], by_engine["fused"]
    speedup = round(serial["elapsed_s"] / fused["elapsed_s"], 2)
    # Equivalence pins: fused must match serial record for record.
    mismatches = [f"fused {key} diverges from serial"
                  for key in ("redos_applied", "clrs_written",
                              "txns_rolled_back")
                  if fused[key] != serial[key]]
    if fused["fallback"]:
        mismatches.append(
            f"fused fell back to the serial undo scan ({fused['fallback']})"
            " — corpus no longer exercises the chain walk")

    result = {
        "mode": "quick" if opts.quick else "full",
        "txns": txns,
        "loser_updates": loser_updates,
        "table_pages": table_pages,
        "rows": rows,
        "speedup_over_serial": {"fused": speedup},
        "required": {"fused": REQUIRED_FUSED},
        "equivalence_mismatches": mismatches,
    }
    opts.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {opts.out}")
    print(f"  fused over serial: {speedup:.2f}x (required {REQUIRED_FUSED}x)")

    failed = bool(mismatches)
    for mismatch in mismatches:
        print(f"FAIL: {mismatch}")
    if opts.check and speedup < REQUIRED_FUSED:
        print(f"FAIL: fused speedup {speedup:.2f}x < {REQUIRED_FUSED}x")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
