"""Property tests: the trace is deterministic and tells the truth.

Two properties over seeded crash-fuzz runs with tracing enabled:

* **determinism** — the logical tick clock carries no wall time, so two
  runs of the same seed must serialize to *byte-identical* JSONL traces;
* **honest counters** — the recovery-pass spans report exactly what the
  stable log says happened: the analysis span's ``records_scanned``
  equals the log's index-arithmetic count over ``[start_addr,
  end_addr)``, the redo span's equals the range the engine scans (serial:
  ``[redo_addr, end_addr)``; fused: only ``[redo_addr, start_addr)``,
  since its analysis scan already collected the rest), and every
  per-client attribution map sums to its span total.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.obs.export import to_jsonl
from repro.tools.tracedump import build_spans
from repro.workloads.generator import seed_table

SLOW = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_scenario(seed: int, crash_mode: str,
                 recovery_engine: str = SystemConfig.recovery_engine
                 ) -> ClientServerSystem:
    """A seeded workload ending in a crash + recovery, fully traced."""
    config = SystemConfig(trace_enabled=True, seed=seed,
                          client_buffer_frames=5,
                          client_checkpoint_interval=3,
                          recovery_engine=recovery_engine)
    system = ClientServerSystem(config, client_ids=["C1", "C2"])
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 3)
    rng = random.Random(seed)
    for round_index in range(rng.randint(4, 10)):
        client = system.client(rng.choice(["C1", "C2"]))
        txn = client.begin()
        for _ in range(rng.randint(1, 3)):
            client.update(txn, rids[rng.randrange(len(rids))],
                          ("w", round_index))
        if rng.random() < 0.8:
            client.commit(txn)
        else:
            client.rollback(txn)
    # Leave one transaction in flight so undo has real work to do.
    doomed_owner = system.client("C1")
    doomed = doomed_owner.begin()
    doomed_owner.update(doomed, rids[0], ("doomed", seed))
    doomed_owner._ship_log_records()
    if crash_mode == "client":
        system.crash_client("C1")
    else:
        system.crash_all()
        system.restart_all()
    return system


class TestTraceDeterminism:
    @SLOW
    @given(st.integers(0, 2 ** 16), st.sampled_from(["client", "all"]))
    def test_same_seed_same_bytes(self, seed, crash_mode):
        first = run_scenario(seed, crash_mode)
        second = run_scenario(seed, crash_mode)
        assert first.tracer is not None and second.tracer is not None
        jsonl_a = to_jsonl(first.tracer.events)
        jsonl_b = to_jsonl(second.tracer.events)
        assert jsonl_a.encode("utf-8") == jsonl_b.encode("utf-8")

    @SLOW
    @given(st.integers(0, 2 ** 16), st.sampled_from(["client", "all"]))
    def test_recovery_spans_match_log_arithmetic(self, seed, crash_mode):
        for engine in ("fused", "serial"):
            system = run_scenario(seed, crash_mode, recovery_engine=engine)
            assert_spans_match_log(system, engine)


def assert_spans_match_log(system: ClientServerSystem, engine: str) -> None:
    assert system.tracer is not None
    stable = system.server.log.stable
    recoveries = [root for root in build_spans(system.tracer.events)
                  if root.cat == "recovery"]
    assert recoveries, "the scenario must produce a recovery span"
    for root in recoveries:
        passes = {child.name: child for child in root.children
                  if child.cat == "recovery"}
        assert set(passes) == {"analysis", "redo", "undo"}
        analysis = passes["analysis"].end_args
        redo = passes["redo"].end_args
        undo = passes["undo"].end_args

        # Per-client attribution must account for every counted unit.
        assert sum(analysis["by_client"].values()) == \
            analysis["records_scanned"]
        assert sum(redo["by_client"].values()) + \
            redo.get("forwarded_redos", 0) == redo["pages_redone"]
        assert sum(undo["by_client"].values()) == undo["clrs_written"]

        redo_addr, end_addr = analysis["redo_addr"], analysis["end_addr"]
        # Absent only when the section 2.6.2 lock table supplied the
        # analysis without a scan.
        start_addr = passes["analysis"].begin_args.get("start_addr")
        if start_addr is not None:
            # The analysis scans every record in [start, end).
            assert analysis["records_scanned"] == \
                stable.records_between(start_addr, end_addr)

        # The redo scan range is what analysis said it would be.
        if engine == "serial" or start_addr is None:
            expected = stable.records_between(redo_addr, end_addr)
        elif redo_addr < start_addr:
            expected = stable.records_between(redo_addr, start_addr)
        else:
            expected = 0
        assert redo["records_scanned"] == expected

        if root.name == "server-restart":
            assert root.end_args["total_records"] == (
                analysis["records_scanned"] + redo["records_scanned"]
                + undo["records_scanned"])
