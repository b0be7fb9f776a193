"""The three workloads, each as one self-contained *round*.

A round builds fresh complexes (each timed as set-up), runs a fixed
amount of work decided entirely by the seed, fails the server, times
the recovery, and checks the database against a durability oracle.  The
runner repeats rounds until its time budget is spent; every round of a
run sees the same inputs, so each round's counters must be identical,
and per-layer counts do not depend on how fast the machine is.

The library only ever sees the generated programs: the seed drives a
``random.Random`` owned by the benchmark, and every complex runs the
default :class:`~repro.config.SystemConfig` (``crowd`` runs the
driver's own default config), so a change to a default shows up in
the numbers.
"""

from __future__ import annotations

import functools
import gc
import random
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.engine import core as engine_core
from repro.engine.core import Engine, TxnOutcomeKind
from repro.harness.oracle import CommittedStateOracle
from repro.workloads.driver import (
    DriverSpec,
    build_system,
    client_ids_for,
    generate_wave,
)
from repro.workloads.generator import seed_table
from speed import Blocks, SpeedMeter

_cpu = time.process_time
_cpu_ns = time.process_time_ns

#: Span-counted codec entry points (see ``spans.COUNTED``).
ENCODE = "repro.core.log_records:encode_record"
DECODE = "repro.core.log_records:decode_record"

#: Transactions (or engine operations) per speed block: a few to a few
#: tens of milliseconds, shorter than the host's speed phases.
BLOCK = 64


@dataclass
class Round:
    """What one round measured.  Times are CPU seconds unless noted."""

    #: Set-up samples: system build, seeding, client provisioning.
    setup_s: List[float] = field(default_factory=list)
    #: CPU µs of each committed transaction of the load phase.  All
    #: times are speed-normalized unless the round ran without a meter.
    txn_us: List[float] = field(default_factory=list)
    #: CPU s of the load phase (committed work per second divides it).
    load_s: float = 0.0
    #: CPU s from the end of set-up to the end of the round.
    work_s: float = 0.0
    attempted: int = 0
    committed: int = 0
    victims: int = 0
    #: Exceptions, oracle violations and accounting mismatches.
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: CPU s to resume service after each server failure.
    restart_s: List[float] = field(default_factory=list)
    #: Executed-operation ticks per transaction (engine workloads).
    ticks: List[int] = field(default_factory=list)
    #: Per complex: last engine wave's CPU s over the first's.
    wave_slowdown: List[float] = field(default_factory=list)
    #: CPU s of each server-side client recovery (churn).
    client_recovery_s: List[float] = field(default_factory=list)
    #: Exact per-layer counts; identical across rounds of one seed.
    counts: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Counters the layers already expose
# ---------------------------------------------------------------------------

def _layer_counters(system: ClientServerSystem) -> Dict[str, int]:
    server = system.server
    clients = list(system.clients.values())
    stats = system.network.stats
    glm = server.glm
    replication = system.replication
    return {
        "commit_forces": server.commit_forces,
        "pages_served": server.pages_served,
        "callbacks_sent": server.callbacks_sent,
        "log_forces": server.log.stable.forces,
        "log_bytes": server.log.stable.bytes_appended,
        "server_hits": server.pool.hits,
        "server_misses": server.pool.misses,
        "client_hits": sum(c.pool.hits for c in clients),
        "client_misses": sum(c.pool.misses for c in clients),
        "evictions": server.pool.evictions + sum(
            c.pool.evictions for c in clients),
        "disk_reads": server.disk.reads,
        "disk_writes": server.disk.writes,
        "disk_bytes_written": server.disk.bytes_written,
        "glm_requests": glm.logical.requests + glm.physical.requests,
        "glm_conflicts": glm.logical.conflicts + glm.physical.conflicts,
        "llm_local": sum(c.llm.local_only_grants for c in clients),
        "llm_global": sum(c.llm.global_requests for c in clients),
        "msgs": stats.messages,
        "net_bytes": stats.bytes,
        "retries": stats.retries,
        "frames_shipped": replication.frames_shipped if replication else 0,
    }


def _stable_logs(system: ClientServerSystem) -> List[Any]:
    """Every stable log of the complex: the primary's, and the
    standby's replica (which a promoted server adopts)."""
    logs = [system.server.log.stable]
    if system.replication is not None:
        logs.append(system.replication.standby.log.stable)
    return logs


def _decode_counters(logs: Sequence[Any]) -> Tuple[int, int, int]:
    return (sum(log.full_decodes for log in logs),
            sum(log.header_peeks for log in logs),
            sum(log.decode_cache_hits for log in logs))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Probe:
    """Before/after bookkeeping around a round's load and recovery.

    Load counters sum over every ``start_load``/``end_load`` segment, so
    recovery between waves is not charged to the load.
    """

    def __init__(self, recorder: Optional[Any]) -> None:
        self.recorder = recorder
        self.decodes0 = dict(recorder.work_counted) if recorder else {}
        #: (stable log, its decode counters when first watched).
        self.logs: List[Tuple[Any, Tuple[int, int, int]]] = []
        self.load: Dict[str, int] = {}
        self.counted: Dict[str, int] = {}
        self.reports: List[Any] = []
        self._layer_mark: Dict[str, int] = {}
        self._counted_mark: Dict[str, int] = {}

    def watch(self, system: ClientServerSystem) -> None:
        """Count the decode work of ``system``'s logs from now on."""
        for log in _stable_logs(system):
            self.logs.append((log, _decode_counters([log])))

    def start_load(self, system: ClientServerSystem) -> None:
        self._layer_mark = _layer_counters(system)
        if self.recorder is not None:
            self._counted_mark = dict(self.recorder.counted)

    def end_load(self, system: ClientServerSystem) -> None:
        for key, value in _layer_counters(system).items():
            self.load[key] = (self.load.get(key, 0) + value
                              - self._layer_mark[key])
        if self.recorder is not None:
            for key, value in self.recorder.counted.items():
                self.counted[key] = (self.counted.get(key, 0) + value
                                     - self._counted_mark[key])

    def finish(self, rnd: Round) -> None:
        """Fold everything counted into ``rnd.counts``."""
        load = self.load
        committed = rnd.committed
        full = peeks = hits = 0
        for log, (full0, peeks0, hits0) in self.logs:
            now = _decode_counters([log])
            full += now[0] - full0
            peeks += now[1] - peeks0
            hits += now[2] - hits0
        reports = self.reports
        rnd.counts.update({
            "server.commit_forces_per_txn":
                _ratio(load["commit_forces"], committed),
            "server.pages_served": load["pages_served"],
            "server.callbacks_sent": load["callbacks_sent"],
            "stable_log.forces_per_txn": _ratio(load["log_forces"], committed),
            "stable_log.full_decodes": full,
            "stable_log.header_peeks": peeks,
            "stable_log.decode_cache_hit_ratio": _ratio(hits, hits + full),
            "buffer_pool.client_hit_ratio": _ratio(
                load["client_hits"],
                load["client_hits"] + load["client_misses"]),
            "buffer_pool.server_hit_ratio": _ratio(
                load["server_hits"],
                load["server_hits"] + load["server_misses"]),
            "buffer_pool.evictions": load["evictions"],
            "disk.reads": load["disk_reads"],
            "disk.writes": load["disk_writes"],
            "disk.bytes_written_per_txn":
                _ratio(load["disk_bytes_written"], committed),
            "locking.glm_requests_per_txn":
                _ratio(load["glm_requests"], committed),
            "locking.conflict_ratio":
                _ratio(load["glm_conflicts"], load["glm_requests"]),
            "locking.llm_local_grant_ratio": _ratio(
                load["llm_local"], load["llm_local"] + load["llm_global"]),
            "net.msgs_per_txn": _ratio(load["msgs"], committed),
            "net.bytes_per_txn": _ratio(load["net_bytes"], committed),
            "net.retries": load["retries"],
            "replication.frames_shipped_per_txn":
                _ratio(load["frames_shipped"], committed),
            "recovery.records_processed": sum(
                r.total_log_records_processed for r in reports),
            "recovery.redos_applied": sum(r.redos_applied for r in reports),
            "recovery.clrs_written": sum(r.clrs_written for r in reports),
            "recovery.client_recoveries": len(rnd.client_recovery_s),
            "log_bytes_per_txn": _ratio(load["log_bytes"], committed),
            "failed_txn_ratio": _ratio(rnd.victims + rnd.failed,
                                       rnd.attempted),
        })
        recorder = self.recorder
        if recorder is not None:
            # Encodes over the load phase (the commit path); decodes over
            # the whole measured round, since restart is where they are.
            encodes = self.counted[ENCODE]
            decodes = recorder.work_counted[DECODE] - self.decodes0[DECODE]
            rnd.counts["codec.encodes_per_txn"] = _ratio(encodes, committed)
            rnd.counts["codec.decodes_per_txn"] = _ratio(decodes, committed)


def _check(rnd: Round, oracle: CommittedStateOracle,
           system: ClientServerSystem, where: str) -> None:
    """Run the durability oracle; every violation fails the round."""
    for violation in oracle.verify(system, where=where):
        rnd.failed += 1
        rnd.problems.append(f"oracle ({where}): {violation}")


def _probe_commit(rnd: Round, oracle: CommittedStateOracle,
                  system: ClientServerSystem, client_id: str, rid: Any,
                  value: Any) -> None:
    """One new transaction on the recovered complex must commit."""
    client = system.client(client_id)
    txn = client.begin()
    client.update(txn, rid, value)
    client.commit(txn)
    oracle.note_committed_update(rid, value)
    actual = system.current_value(rid)
    if actual != value:
        rnd.failed += 1
        rnd.problems.append(
            f"probe commit at {rid}: expected {value!r}, found {actual!r}")


@contextmanager
def _measured(rnd: Round, recorder: Optional[Any]) -> Iterator[None]:
    """The part of a round after set-up: CPU time into ``rnd.work_s``,
    and the root span the traced run attributes to layers."""
    gc.collect()
    with recorder.root() if recorder is not None else nullcontext():
        start = _cpu()
        yield
        rnd.work_s += _cpu() - start


def _timed(meter: SpeedMeter, fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Normalized CPU seconds of ``fn()``, after a collection so a
    pending one does not land inside a short timed region."""
    gc.collect()
    return meter.timed(fn)


def _meter(meter: Optional[SpeedMeter]) -> SpeedMeter:
    """Without a meter a round times raw CPU (traced rounds do)."""
    return meter if meter is not None else SpeedMeter(enabled=False)


def _load_done(rnd: Round, blocks: Blocks, committed: int) -> None:
    rnd.txn_us = [ns / 1e3 for ns in blocks.samples]
    rnd.load_s = blocks.cpu_s
    rnd.attempted = rnd.committed = committed


# ---------------------------------------------------------------------------
# commit: one client, closed loop, in cache; server restart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommitShape:
    pages: int = 32
    records_per_page: int = 8
    txns: int = 3000


def commit_round(seed: int, shape: CommitShape = CommitShape(),
                 recorder: Optional[Any] = None,
                 meter: Optional[SpeedMeter] = None) -> Round:
    """``begin`` → ``update`` one uniform record → ``commit``, closed
    loop; then one transaction in flight, a server crash and a timed
    restart with the client surviving."""
    rnd = Round()
    rng = random.Random(seed)
    meter = _meter(meter)

    def build() -> Tuple[ClientServerSystem, List[Any]]:
        system = ClientServerSystem(SystemConfig(), client_ids=("C1",))
        system.bootstrap(data_pages=shape.pages)
        return system, seed_table(system, "C1", "t", shape.pages,
                                  shape.records_per_page)

    (system, rids), setup_s = _timed(meter, build)
    rnd.setup_s.append(setup_s)
    picks = [rids[rng.randrange(len(rids))] for _ in range(shape.txns)]
    loser_rid = rids[rng.randrange(len(rids))]
    with _measured(rnd, recorder):
        client = system.client("C1")
        oracle = CommittedStateOracle()
        probe = _Probe(recorder)
        probe.watch(system)
        clock = _cpu_ns
        gc.collect()
        probe.start_load(system)
        blocks = Blocks(meter)
        for i, rid in enumerate(picks):
            value = ("c", i)
            t0 = clock()
            txn = client.begin()
            client.update(txn, rid, value)
            client.commit(txn)
            blocks.sample(clock() - t0)
            oracle.note_committed_update(rid, value)
            if i % BLOCK == BLOCK - 1:
                blocks.cut()
        blocks.cut()
        _load_done(rnd, blocks, len(picks))
        probe.end_load(system)

        loser = client.begin()
        client.update(loser, loser_rid, ("loser", seed))
        oracle.note_uncommitted_value(loser_rid, ("loser", seed))
        system.crash_server()
        report, restart_s = _timed(meter, system.restart_server)
        rnd.restart_s.append(restart_s)
        probe.reports.append(report)
        client.rollback(loser)
        _check(rnd, oracle, system, "current")
        _probe_commit(rnd, oracle, system, "C1", loser_rid, ("probe", seed))
        _check(rnd, oracle, system, "current")
    probe.finish(rnd)
    return rnd


# ---------------------------------------------------------------------------
# crowd: 1,000 clients on 512 records through the engine, with churn
# ---------------------------------------------------------------------------

#: The driver's default shape at 1,000 clients, with sorted access
#: (the unsorted default is victim-bound) and churn between waves.
CROWD_SPEC = DriverSpec(clients=1000, ops_per_txn=4, read_fraction=0.5,
                        zipf_theta=0.99, ordered_access=True, waves=2,
                        churn_rate=0.01, table_pages=64, records_per_page=8)
#: Independent complexes per round, each on its own sub-seed.  How much
#: a complex's waves cost depends on the seed far more than on the
#: wave (which transactions meet on the hottest records, and the heap
#: that builds up from it), so a round averages several complexes.
CROWD_COMPLEXES = 5


class _OpTimer:
    """Charges each engine operation's CPU time to its transaction,
    failed attempts after a lock conflict included; cuts speed blocks
    every :data:`BLOCK` operations; and records the order in which
    transactions commit (the oracle's serialization order under strict
    two-phase locking)."""

    def __init__(self, blocks: Blocks) -> None:
        self.blocks = blocks
        self.commit_order: List[str] = []
        self._original = engine_core.execute_op

    def __enter__(self) -> "_OpTimer":
        original = self._original
        blocks = self.blocks
        order = self.commit_order
        clock = _cpu_ns
        committed = TxnOutcomeKind.COMMITTED
        ops = [0]

        def timed_execute_op(client: Any, scheduled: Any, op: Any) -> None:
            t0 = clock()
            try:
                original(client, scheduled, op)
            finally:
                blocks.sample(clock() - t0, scheduled.name)
                ops[0] += 1
                if ops[0] % BLOCK == 0:
                    blocks.cut()
            if scheduled.outcome is committed:
                order.append(scheduled.name)

        engine_core.execute_op = timed_execute_op
        return self

    def __exit__(self, *exc: Any) -> None:
        engine_core.execute_op = self._original

    def txn_us(self) -> List[float]:
        """Normalized CPU µs of each committed transaction's operations,
        in commit order."""
        totals = self.blocks.totals
        return [totals[name] / 1e3 for name in self.commit_order]


def crowd_round(seed: int, spec: DriverSpec = CROWD_SPEC,
                recorder: Optional[Any] = None,
                meter: Optional[SpeedMeter] = None,
                complexes: int = CROWD_COMPLEXES) -> Round:
    """``complexes`` independent complexes, each running waves of
    zipfian programs through :class:`Engine` with 1% client churn
    between waves, and after every wave a server crash and a timed
    restart with every client surviving."""
    rnd = Round()
    meter = _meter(meter)
    probe = _Probe(recorder)
    for index in range(complexes):
        _crowd_complex(rnd, random.Random(f"{seed}:{index}"), spec,
                       recorder, meter, probe)
    probe.finish(rnd)
    return rnd


def _crowd_complex(rnd: Round, rng: random.Random, spec: DriverSpec,
                   recorder: Optional[Any], meter: SpeedMeter,
                   probe: _Probe) -> None:
    gc.collect()
    (system, rids), setup_s = _timed(meter, lambda: build_system(spec))
    rnd.setup_s.append(setup_s)
    ids = client_ids_for(spec.clients)
    wave_s: List[float] = []
    with _measured(rnd, recorder):
        oracle = CommittedStateOracle()
        probe.watch(system)
        for wave in range(spec.waves):
            if wave and spec.churn_rate > 0:
                churned = max(1, int(len(ids) * spec.churn_rate))
                for client_id in rng.sample(ids, churned):
                    report, recovery_s = _timed(
                        meter, lambda: system.crash_client(client_id))
                    rnd.client_recovery_s.append(recovery_s)
                    probe.reports.append(report)
                    system.reconnect_client(client_id)
            assignments = generate_wave(spec, rids, wave, ids, rng)
            gc.collect()
            probe.start_load(system)
            blocks = Blocks(meter)
            with _OpTimer(blocks) as timer:
                result = Engine(system).run(assignments)
            blocks.cut()
            probe.end_load(system)
            wave_s.append(blocks.cpu_s)
            rnd.load_s += blocks.cpu_s
            rnd.attempted += len(assignments)
            rnd.committed += result.committed
            rnd.victims += result.deadlock_victims
            rnd.ticks.extend(result.latency_ticks)
            rnd.counts["engine.max_rounds"] = max(
                rnd.counts.get("engine.max_rounds", 0), result.rounds)
            finished = (result.committed + result.aborted
                        + result.deadlock_victims)
            if finished != len(assignments) or \
                    len(timer.commit_order) != result.committed:
                rnd.failed += 1
                rnd.problems.append(
                    f"wave {wave}: {result.committed} committed + "
                    f"{result.aborted} aborted + {result.deadlock_victims} "
                    f"victims != {len(assignments)} programs (commit order "
                    f"saw {len(timer.commit_order)})")
            _note_wave(oracle, assignments, timer.commit_order)
            rnd.txn_us.extend(timer.txn_us())
            system.crash_server()
            report, restart_s = _timed(meter, system.restart_server)
            rnd.restart_s.append(restart_s)
            probe.reports.append(report)
            _check(rnd, oracle, system, "current")
        _probe_commit(rnd, oracle, system, ids[0], rids[0], ("probe", 0))
        _check(rnd, oracle, system, "current")
    rnd.wave_slowdown.append(wave_s[-1] / wave_s[0])


def _note_wave(oracle: CommittedStateOracle, assignments: Sequence,
               commit_order: Sequence[str]) -> None:
    """Committed programs' updates in commit order; everyone else's
    values must not survive."""
    committed = set()
    for name in commit_order:
        committed.add(name)
        for op in assignments[int(name[1:])][1]:
            if op[0] == "update":
                oracle.note_committed_update(op[1], op[2])
    for index, (_, program) in enumerate(assignments):
        if f"S{index}" in committed:
            continue
        for op in program:
            if op[0] == "update":
                oracle.note_uncommitted_value(op[1], op[2])


# ---------------------------------------------------------------------------
# failover: 64 clients, sync standby, out of the server's cache
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailoverShape:
    clients: int = 64
    pages_per_client: int = 8
    records_per_page: int = 4
    #: Transactions per client in the load phase (round-robin).
    txns_per_client: int = 12


def failover_round(seed: int, shape: FailoverShape = FailoverShape(),
                   recorder: Optional[Any] = None,
                   meter: Optional[SpeedMeter] = None) -> Round:
    """Single-update commits on per-client page slices with a sync
    standby attached; each client left with one transaction in flight;
    primary fail-stop and a timed ``run_failover()``."""
    rnd = Round()
    rng = random.Random(seed)
    ids = [f"F{i:02d}" for i in range(shape.clients)]
    pages = shape.clients * shape.pages_per_client
    meter = _meter(meter)

    def build() -> Tuple[ClientServerSystem, List[Any]]:
        system = ClientServerSystem(
            SystemConfig(replication_enabled=True), client_ids=ids)
        system.bootstrap(data_pages=pages)
        return system, seed_table(system, ids[0], "t", pages,
                                  shape.records_per_page)

    (system, rids), setup_s = _timed(meter, build)
    rnd.setup_s.append(setup_s)
    per_client = shape.pages_per_client * shape.records_per_page
    slices = [rids[i * per_client:(i + 1) * per_client]
              for i in range(shape.clients)]
    picks = [[rng.choice(slices[c]) for c in range(shape.clients)]
             for _ in range(shape.txns_per_client + 1)]
    with _measured(rnd, recorder):
        clients = [system.client(cid) for cid in ids]
        oracle = CommittedStateOracle()
        probe = _Probe(recorder)
        probe.watch(system)
        clock = _cpu_ns
        gc.collect()
        probe.start_load(system)
        blocks = Blocks(meter)
        for step in range(shape.txns_per_client):
            for c, client in enumerate(clients):
                rid = picks[step][c]
                value = ("f", step, c)
                t0 = clock()
                txn = client.begin()
                client.update(txn, rid, value)
                client.commit(txn)
                blocks.sample(clock() - t0)
                oracle.note_committed_update(rid, value)
            blocks.cut()
        _load_done(rnd, blocks, shape.txns_per_client * shape.clients)
        probe.end_load(system)

        losers = []
        for c, client in enumerate(clients):
            rid = picks[-1][c]
            txn = client.begin()
            client.update(txn, rid, ("loser", c))
            oracle.note_uncommitted_value(rid, ("loser", c))
            losers.append(txn)
        replication = system.replication
        assert replication is not None
        system.crash_server()
        _, failover_s = _timed(meter, replication.run_failover)
        rnd.restart_s.append(failover_s)
        probe.reports.append(replication.last_promotion_report)
        for client, txn in zip(clients, losers):
            client.rollback(txn)
        _check(rnd, oracle, system, "current")
        _probe_commit(rnd, oracle, system, ids[0], picks[-1][0],
                      ("probe", seed))
        _check(rnd, oracle, system, "current")
    rnd.counts["replication.records_applied"] = replication.records_applied
    report = replication.last_promotion_report
    rnd.counts["replication.promotion_records"] = (
        report.total_log_records_processed if report else 0)
    rnd.counts["replication.detection_ticks"] = replication.failover_ticks
    probe.finish(rnd)
    return rnd


WORKLOADS: Dict[str, Callable[..., Round]] = {
    "commit": commit_round,
    "crowd": crowd_round,
    "failover": failover_round,
}

#: What a traced run repeats instead, where that differs: per-layer
#: figures need no averaging over complexes, and five traced ``crowd``
#: complexes after an untraced baseline round take over two minutes.
TRACED: Dict[str, Callable[..., Round]] = {
    "crowd": functools.partial(crowd_round, complexes=1),
}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
