"""The ARIES passes — analysis, redo, undo — parameterized for CSA.

The same three passes serve both restart flavors the paper describes:

* **server restart** (section 2.7): start at the server's last complete
  checkpoint, consider records from *all* systems;
* **failed-client recovery performed by the server** (section 2.6.1):
  start at the failed client's last complete checkpoint, consider *only*
  that client's records (they carry the client's identity precisely so
  this separation is possible).

One structural difference from single-system ARIES: LSNs are not log
addresses, so the undo pass cannot jump along PrevLSN pointers.  Instead
it scans the log *backward by address*, and undoes a record exactly when
its LSN matches the owning loser's expected UndoNxtLSN.  FIFO shipping
of client log buffers guarantees the prefix property that makes this
terminate: if a record is in the server log, all earlier records of that
client are too.

All three passes scan *headers*, not records: every filter they apply
(client identity, page id, DPL RecAddr, page_LSN, UndoNxtLSN match)
needs only the fields ``peek_header`` surfaces, so a full record is
materialized — via the stable log's decode LRU — only for the records
a pass actually consumes: checkpoint tables, redone updates and undone
updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol, Set

from repro.core.apply import (
    UndoEffect,
    apply_clr_redo,
    apply_redo,
    apply_undo_effect,
    physical_undo_effect,
    redo_needed,
)
from repro.core.log_records import (
    CDPLRecord,
    CompensationRecord,
    EndCheckpointRecord,
    EndRecord,
    FrameHeader,
    LogRecord,
    TxnOutcome,
    UpdateRecord,
)
from repro.core.lsn import LSN, LogAddr, NULL_ADDR, NULL_LSN
from repro.core.server_log import ServerLogManager
from repro.errors import RecoveryInvariantError
from repro.faults import FaultPlan
from repro.storage.page import Page


class RecoveryPageAccess(Protocol):
    """How recovery reaches pages (the server supplies the implementation)."""

    def fetch(self, page_id: int) -> Page:
        """Latest available version (buffer, else disk, else fresh frame)."""
        ...

    def mark_dirty(self, page_id: int, rec_addr: LogAddr) -> None:
        """The page image was changed by recovery; track it as dirty."""
        ...


class ClrWriter(Protocol):
    """How recovery emits log records (CLRs and abort/end records)."""

    def next_lsn(self, page_lsn: LSN) -> LSN: ...

    def append(self, record: LogRecord) -> LogAddr: ...


#: Logical undo hook: given an index update record, locate the current
#: home of the key and perform nothing — just report where and how to
#: compensate.  ``None`` entries fall back to physical undo.
LogicalUndoHandler = Callable[[UpdateRecord, RecoveryPageAccess], UndoEffect]


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

@dataclass
class RestartTxn:
    """Transaction-table entry rebuilt by the analysis pass."""

    txn_id: str
    client_id: str
    state: str = "active"
    first_lsn: LSN = NULL_LSN
    last_lsn: LSN = NULL_LSN
    undo_next_lsn: LSN = NULL_LSN


@dataclass
class AnalysisResult:
    """What the analysis pass learned."""

    dpl: Dict[int, LogAddr] = field(default_factory=dict)
    txns: Dict[str, RestartTxn] = field(default_factory=dict)
    redo_addr: LogAddr = NULL_ADDR
    records_scanned: int = 0
    end_addr: LogAddr = 0
    #: Scanned records attributed to the client that wrote them.
    records_by_client: Dict[str, int] = field(default_factory=dict)

    def losers(self) -> Dict[str, RestartTxn]:
        """In-flight transactions the undo pass must roll back.

        Prepared (in-doubt) transactions survive restart untouched
        (section 1.1.2); committed-without-End transactions are winners.
        """
        return {
            txn_id: txn for txn_id, txn in self.txns.items()
            if txn.state == "active" and txn.undo_next_lsn != NULL_LSN
        }


def analysis_pass(
    log: ServerLogManager,
    start_addr: LogAddr,
    client_filter: Optional[Set[str]] = None,
    rebuild_log_bookkeeping: bool = False,
    faults: Optional[FaultPlan] = None,
    header_sink: Optional[Callable[[LogAddr, "FrameHeader"], None]] = None,
    header_observer: Optional[Callable[["FrameHeader", LogAddr], None]] = None,
) -> AnalysisResult:
    """Scan [start_addr, end) rebuilding the DPL and transaction table.

    ``client_filter`` restricts attention to the given clients' records
    (failed-client recovery).  With ``rebuild_log_bookkeeping`` the scan
    also repopulates the server log manager's per-client LSN/address
    pairs — used during server restart, when that volatile state was
    lost.  ``faults`` arms the per-record crashpoint that lets the
    explorer kill recovery itself mid-scan (restart must be restartable,
    section 2.5).  ``header_sink``
    sees every ``(addr, header)`` the scan visits — the hook that lets a
    fused recovery engine collect redo candidates during analysis
    instead of paying a second header scan over the same range.
    ``header_observer`` sees every ``(header, addr)`` without the
    full-record decode (the server uses it to rebuild its global
    transaction tracker).
    """
    result = AnalysisResult(end_addr=log.end_of_log_addr)
    for addr, header in log.scan_headers(start_addr):
        if faults is not None:
            faults.crashpoint("recovery.analysis.scan")
        if header_sink is not None:
            header_sink(addr, header)
        result.records_scanned += 1
        result.records_by_client[header.client_id] = (
            result.records_by_client.get(header.client_id, 0) + 1
        )
        if rebuild_log_bookkeeping:
            log.observe_during_restart(header.client_id, header.lsn, addr)
        if header_observer is not None:
            header_observer(header, addr)
        tag = header.type_tag
        if tag == "ECP":
            ecp = log.read_at(addr)
            assert isinstance(ecp, EndCheckpointRecord)
            if client_filter is not None and ecp.owner not in client_filter:
                continue
            _merge_checkpoint(result, ecp)
            continue
        if tag == "BCP":
            continue
        if client_filter is not None and header.client_id not in client_filter:
            continue
        if tag == "CDP":
            cdpl = log.read_at(addr)
            assert isinstance(cdpl, CDPLRecord)
            for entry in cdpl.entries:
                _merge_dpl(result, entry.page_id, entry.rec_addr)
            continue
        if tag == "UPD" or tag == "CLR":
            if header.page_id >= 0 and header.page_id not in result.dpl:
                result.dpl[header.page_id] = addr
            txn = _txn_entry(result, header.txn_id, header.client_id)
            txn.last_lsn = header.lsn
            if txn.first_lsn == NULL_LSN:
                txn.first_lsn = header.lsn
            if tag == "CLR":
                txn.undo_next_lsn = header.undo_next_lsn
            elif not header.redo_only:
                txn.undo_next_lsn = header.lsn
            continue
        if tag == "CMT":
            _txn_entry(result, header.txn_id, header.client_id).state = "committed"
        elif tag == "PRE":
            _txn_entry(result, header.txn_id, header.client_id).state = "prepared"
        elif tag == "END" and header.txn_id is not None:
            result.txns.pop(header.txn_id, None)
    result.redo_addr = min(result.dpl.values()) if result.dpl else result.end_addr
    return result


def _txn_entry(result: AnalysisResult, txn_id: Optional[str],
               client_id: str) -> RestartTxn:
    assert txn_id is not None
    txn = result.txns.get(txn_id)
    if txn is None:
        txn = RestartTxn(txn_id, client_id)
        result.txns[txn_id] = txn
    return txn


def _merge_dpl(result: AnalysisResult, page_id: int, rec_addr: LogAddr) -> None:
    if rec_addr == NULL_ADDR:
        return
    current = result.dpl.get(page_id)
    if current is None or rec_addr < current:
        result.dpl[page_id] = rec_addr


def _merge_checkpoint(result: AnalysisResult, record: EndCheckpointRecord) -> None:
    """Fold an End_Checkpoint's DPL and transaction table into the result.

    Minima win for RecAddrs (the checkpoint may know an older bound than
    the first in-scan record for the page); transactions already seen in
    the scan keep their fresher in-scan state.
    """
    for entry in record.dirty_pages:
        _merge_dpl(result, entry.page_id, entry.rec_addr)
    for txn_entry in record.transactions:
        if txn_entry.txn_id in result.txns:
            continue
        result.txns[txn_entry.txn_id] = RestartTxn(
            txn_id=txn_entry.txn_id,
            client_id=txn_entry.client_id,
            state=txn_entry.state,
            first_lsn=txn_entry.first_lsn,
            last_lsn=txn_entry.last_lsn,
            undo_next_lsn=txn_entry.undo_next_lsn,
        )


# ---------------------------------------------------------------------------
# Redo
# ---------------------------------------------------------------------------

@dataclass
class RedoStats:
    records_scanned: int = 0
    records_considered: int = 0
    redos_applied: int = 0
    #: Applied redos attributed to the client that wrote the record.
    applied_by_client: Dict[str, int] = field(default_factory=dict)


def redo_pass(
    log: ServerLogManager,
    analysis: AnalysisResult,
    pages: RecoveryPageAccess,
    client_filter: Optional[Set[str]] = None,
    faults: Optional[FaultPlan] = None,
) -> RedoStats:
    """Repeat history: reapply every missing update recorded in the log.

    A record is considered only if its page is in the DPL with
    ``RecAddr <= record address`` (the DPL-as-filter rule of section
    1.1.2) and applied only if ``page_LSN < record LSN``.
    """
    stats = RedoStats()
    for addr, header in log.scan_headers(analysis.redo_addr, analysis.end_addr):
        if faults is not None:
            faults.crashpoint("recovery.redo.scan")
        stats.records_scanned += 1
        if not header.is_redoable():
            continue
        if client_filter is not None and header.client_id not in client_filter:
            continue
        page_id = header.page_id
        if page_id < 0:
            continue  # dummy CLRs have no page effect
        rec_addr = analysis.dpl.get(page_id)
        if rec_addr is None or addr < rec_addr:
            continue
        stats.records_considered += 1
        page = pages.fetch(page_id)
        if not redo_needed(page, header.lsn):
            continue
        record = log.read_at(addr)
        if isinstance(record, UpdateRecord):
            apply_redo(page, record)
        else:
            assert isinstance(record, CompensationRecord)
            apply_clr_redo(page, record)
        pages.mark_dirty(page_id, rec_addr)
        stats.redos_applied += 1
        stats.applied_by_client[header.client_id] = (
            stats.applied_by_client.get(header.client_id, 0) + 1
        )
    return stats


# ---------------------------------------------------------------------------
# Undo
# ---------------------------------------------------------------------------

@dataclass
class UndoStats:
    records_scanned: int = 0
    clrs_written: int = 0
    txns_rolled_back: int = 0
    #: CLRs attributed to the client whose transaction was undone.
    clrs_by_client: Dict[str, int] = field(default_factory=dict)


def undo_pass(
    log: ServerLogManager,
    losers: Dict[str, RestartTxn],
    pages: RecoveryPageAccess,
    clr_writer: ClrWriter,
    logical_undo: Optional[LogicalUndoHandler] = None,
    faults: Optional[FaultPlan] = None,
) -> UndoStats:
    """Roll back the losers, writing CLRs in their names.

    Single backward scan of the log; a record is undone when its LSN
    matches its transaction's expected UndoNxtLSN.  CLRs encountered in
    the log skip the expectation past work already compensated, which is
    what bounds logging under repeated failures.
    """
    stats = UndoStats()
    expected: Dict[str, LSN] = {}
    last_lsn: Dict[str, LSN] = {}
    for txn_id, txn in losers.items():
        if txn.undo_next_lsn != NULL_LSN:
            expected[txn_id] = txn.undo_next_lsn
            last_lsn[txn_id] = txn.last_lsn
    for txn_id in list(losers):
        if txn_id not in expected:
            _finish_rollback(clr_writer, losers[txn_id], losers[txn_id].last_lsn)
            stats.txns_rolled_back += 1
    if not expected:
        return stats

    for addr, header in log.scan_headers_backward():
        if not expected:
            break
        if faults is not None:
            faults.crashpoint("recovery.undo.scan")
        stats.records_scanned += 1
        txn_id = header.txn_id
        if txn_id is None or txn_id not in expected:
            continue
        if header.lsn != expected[txn_id]:
            continue
        txn = losers[txn_id]
        if header.is_clr():
            expected[txn_id] = header.undo_next_lsn
        elif header.is_update():
            if header.redo_only:
                expected[txn_id] = header.prev_lsn
            else:
                record = log.read_at(addr)
                assert isinstance(record, UpdateRecord)
                clr_lsn = _undo_one(
                    record, pages, clr_writer, txn, last_lsn[txn_id], logical_undo
                )
                last_lsn[txn_id] = clr_lsn
                expected[txn_id] = record.prev_lsn
                stats.clrs_written += 1
                stats.clrs_by_client[txn.client_id] = (
                    stats.clrs_by_client.get(txn.client_id, 0) + 1
                )
        else:
            raise RecoveryInvariantError(
                f"undo chain of {txn_id} points at non-undoable "
                f"{header.type_name} (lsn {header.lsn})"
            )
        if expected[txn_id] == NULL_LSN:
            del expected[txn_id]
            _finish_rollback(clr_writer, txn, last_lsn[txn_id])
            stats.txns_rolled_back += 1

    if expected:
        raise RecoveryInvariantError(
            f"undo could not resolve chains for {sorted(expected)}; "
            "the prefix property was violated"
        )
    return stats


def _undo_one(
    record: UpdateRecord,
    pages: RecoveryPageAccess,
    clr_writer: ClrWriter,
    txn: RestartTxn,
    prev_lsn: LSN,
    logical_undo: Optional[LogicalUndoHandler],
) -> LSN:
    """Undo a single record: apply the compensation and log the CLR."""
    if record.undo_is_logical() and logical_undo is not None:
        effect = logical_undo(record, pages)
    else:
        effect = physical_undo_effect(record)
    page = pages.fetch(effect.page_id)
    clr_lsn = clr_writer.next_lsn(page.page_lsn)
    apply_undo_effect(page, effect, clr_lsn)
    clr = CompensationRecord(
        lsn=clr_lsn,
        client_id=txn.client_id,
        txn_id=txn.txn_id,
        prev_lsn=prev_lsn,
        undo_next_lsn=record.prev_lsn,
        page_id=effect.page_id,
        op=effect.op,
        slot=effect.slot,
        after=effect.after,
        key=effect.key,
    )
    addr = clr_writer.append(clr)
    pages.mark_dirty(effect.page_id, addr)
    return clr_lsn


def _finish_rollback(clr_writer: ClrWriter, txn: RestartTxn,
                     prev_lsn: LSN) -> None:
    """Write the End record closing a fully undone loser."""
    end = EndRecord(
        lsn=clr_writer.next_lsn(NULL_LSN),
        client_id=txn.client_id,
        txn_id=txn.txn_id,
        prev_lsn=prev_lsn,
        outcome=TxnOutcome.ABORTED,
    )
    clr_writer.append(end)
