"""Recovery engines: the fused single-scan engine and the serial reference.

``Server.restart`` (section 2.7) and ``recover_failed_client``
(sections 2.6.1/2.6.2) do not hard-code the three-pass scan: they build
a :class:`RecoveryContext` describing *what* must be recovered and hand
it to the engine named by ``SystemConfig.recovery_engine``:

* ``fused`` (the default) — one analysis scan that also collects the
  redo candidates, a supplementary header scan of ``[redo_addr, analysis
  start)`` only when the DPL reaches below the checkpoint, and undo that
  walks each loser's chain by exact LSN→address lookup
  (``ServerLogManager.addr_of_lsn``) instead of scanning the log
  backward.  The chain items are undone in descending record-address
  order, exactly the order the serial backward scan visits them, so page
  images *and* the emitted CLR/End stream are byte-identical to
  ``serial``.  A chain LSN with no known address, or one that resolves to
  another transaction's record (a reconnected client reissues LSNs it
  already logged), falls back to the scanning undo pass.
* ``serial`` — the paper's analysis/redo/undo passes, byte-identical to
  the historical inline code (same spans, same crashpoints, same scan
  counts, same log bytes).  It is the reference the equivalence tests,
  the chaos engine matrix and the recovery benchmarks compare against.

Engines reach pages only through :class:`RecoveryPageAccess` and emit
log records only through :class:`ClrWriter` (lint rule REC060 enforces
both), so every implementation inherits the server's WAL and
dirty-tracking discipline unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.core.apply import apply_clr_redo, apply_redo, redo_needed
from repro.core.log_records import CompensationRecord, FrameHeader, UpdateRecord
from repro.core.lsn import LogAddr, NULL_LSN
from repro.core.recovery import (
    AnalysisResult,
    ClrWriter,
    LogicalUndoHandler,
    RecoveryPageAccess,
    RedoStats,
    RestartTxn,
    UndoStats,
    _finish_rollback,
    _undo_one,
    analysis_pass,
    redo_pass,
    undo_pass,
)
from repro.core.server_log import ServerLogManager
from repro.errors import RecoveryInvariantError
from repro.faults import FaultPlan

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

#: The selectable engine names, in canonical comparison order.
ENGINE_NAMES = ("serial", "fused")


@dataclass
class RecoveryContext:
    """Everything one recovery run needs, independent of the engine.

    The server builds one per ``restart`` / ``recover_failed_client``
    call; hooks carry the between-pass bookkeeping that used to be
    inlined (tracker reinstall after analysis, forwarded-dirty rebuild
    before redo, the restart loser filter).
    """

    log: ServerLogManager
    pages: RecoveryPageAccess
    clr_writer: ClrWriter
    #: Crashpoint namespace: ``server.restart`` / ``server.client_recovery``.
    crashpoint_prefix: str
    #: Where the analysis scan starts (``None`` when a supplier below
    #: provides the analysis without scanning — the 2.6.2 GLM variant).
    analysis_scan_start: Optional[LogAddr] = None
    analysis_supplier: Optional[Callable[[], AnalysisResult]] = None
    client_filter: Optional[Set[str]] = None
    rebuild_log_bookkeeping: bool = False
    #: Sees ``(header, addr)`` per scanned analysis record, without the
    #: full decode.
    header_observer: Optional[Callable] = None
    #: Faults armed for the analysis scan specifically (client recovery
    #: historically scans analysis unarmed; restart arms it).
    analysis_faults: Optional[FaultPlan] = None
    logical_undo: Optional[LogicalUndoHandler] = None
    faults: Optional[FaultPlan] = None
    tracer: Optional["Tracer"] = None
    #: The histogram/time-series hub (``repro.obs.hist.MetricsHub``),
    #: threaded from ``Server.metrics``; ``None`` disables the per-pass
    #: record histograms and the restart progress meter.
    metrics: Optional[object] = None
    #: Attributes stamped on every pass span (e.g. ``client=C1``).
    span_attrs: Dict[str, object] = field(default_factory=dict)
    #: Extra attributes for the analysis span only (e.g. ``start_addr``).
    analysis_span_attrs: Dict[str, object] = field(default_factory=dict)
    after_analysis: Optional[Callable[[AnalysisResult], None]] = None
    #: Runs between analysis and redo; returns redos applied out of band
    #: (the forwarded-dirty rebuild of client recovery).
    pre_redo: Optional[Callable[[], int]] = None
    loser_filter: Optional[
        Callable[[Dict[str, RestartTxn]], Dict[str, RestartTxn]]
    ] = None


@dataclass
class EngineResult:
    """What an engine run produced, for the server's RecoveryReport."""

    engine: str
    analysis: AnalysisResult
    redo: RedoStats
    undo: UndoStats
    forwarded_redos: int = 0
    #: Set when the fused engine had to run the serial undo scan
    #: instead of walking the chains; names the reason.
    fallback: Optional[str] = None


class RecoveryEngine:
    """Interface: one complete recovery run over a context."""

    name = "abstract"

    def run(self, ctx: RecoveryContext) -> EngineResult:
        raise NotImplementedError


class _ChainLookupMiss(Exception):
    """An undo chain LSN did not resolve to its own transaction's record.

    Either ``addr_of_lsn`` had no answer (the pair is unknown, or the
    client reissued the LSN after a crash) or the answer is another
    transaction's record; the caller falls back to the scanning undo
    pass.
    """


# ---------------------------------------------------------------------------
# Shared pass plumbing (spans + crashpoints in the historical order)
# ---------------------------------------------------------------------------

def _fire_before(ctx: RecoveryContext, pass_name: str) -> None:
    """Arm the per-pass crashpoint with its literal manifest name.

    The CRASHPOINTS manifest is closed-loop against literal call sites,
    so the names are spelled out per (flavor, pass) rather than built
    from ``ctx.crashpoint_prefix``.
    """
    if ctx.faults is None:
        return
    restart = ctx.crashpoint_prefix == "server.restart"
    if pass_name == "analysis":
        if restart:
            ctx.faults.crashpoint("server.restart.before_analysis",
                                  ctx.tracer)
        else:
            ctx.faults.crashpoint("server.client_recovery.before_analysis",
                                  ctx.tracer)
    elif pass_name == "redo":
        if restart:
            ctx.faults.crashpoint("server.restart.before_redo", ctx.tracer)
        else:
            ctx.faults.crashpoint("server.client_recovery.before_redo",
                                  ctx.tracer)
    else:
        if restart:
            ctx.faults.crashpoint("server.restart.before_undo", ctx.tracer)
        else:
            ctx.faults.crashpoint("server.client_recovery.before_undo",
                                  ctx.tracer)


#: Restart progress sampling interval, in scanned records.  Coarse
#: enough to stay cheap, fine enough that the time series resolves the
#: shape of a long scan; the final total is always sampled too.
_PROGRESS_SAMPLE_EVERY = 64


def _progress_observer(ctx: RecoveryContext,
                       inner: Optional[Callable[[FrameHeader, LogAddr], None]]
                       ) -> Callable[[FrameHeader, LogAddr], None]:
    """Wrap the analysis header observer with the restart progress meter.

    Samples ``restart_progress`` (records scanned so far, on the hub's
    logical clock) every :data:`_PROGRESS_SAMPLE_EVERY` records; the
    scan's log extent is stamped into the series meta so consumers can
    express progress as scanned/extent.  Purely additive: the wrapped
    observer (the transaction tracker during restart) sees exactly the
    calls it would have.
    """
    metrics = ctx.metrics
    assert metrics is not None
    series = metrics.restart_progress  # type: ignore[attr-defined]
    start = ctx.analysis_scan_start or 0
    series.meta["log_extent"] = max(
        0, ctx.log.stable.end_of_log_addr - start)
    scanned = 0

    def observer(header: FrameHeader, addr: LogAddr) -> None:
        nonlocal scanned
        scanned += 1
        if scanned % _PROGRESS_SAMPLE_EVERY == 0:
            series.sample(metrics.next_tick(),  # type: ignore[attr-defined]
                          scanned)
        if inner is not None:
            inner(header, addr)

    return observer


def _run_analysis(ctx: RecoveryContext,
                  header_sink: Optional[Callable[[LogAddr, FrameHeader], None]]
                  ) -> AnalysisResult:
    if ctx.analysis_supplier is not None:
        return ctx.analysis_supplier()
    assert ctx.analysis_scan_start is not None
    header_observer = ctx.header_observer
    if ctx.metrics is not None:
        header_observer = _progress_observer(ctx, header_observer)
    return analysis_pass(
        ctx.log, ctx.analysis_scan_start,
        client_filter=ctx.client_filter,
        rebuild_log_bookkeeping=ctx.rebuild_log_bookkeeping,
        faults=ctx.analysis_faults,
        header_sink=header_sink,
        header_observer=header_observer,
    )


def _analysis_phase(engine: RecoveryEngine, ctx: RecoveryContext,
                    header_sink: Optional[
                        Callable[[LogAddr, FrameHeader], None]]
                    ) -> AnalysisResult:
    tracer = ctx.tracer
    span = 0
    if tracer is not None:
        attrs: Dict[str, object] = dict(ctx.span_attrs)
        attrs.update(ctx.analysis_span_attrs)
        if engine.name != "serial":
            attrs["engine"] = engine.name
        span = tracer.begin("recovery", "analysis", "server", **attrs)
    _fire_before(ctx, "analysis")
    analysis = _run_analysis(ctx, header_sink)
    if tracer is not None:
        tracer.end(
            span,
            records_scanned=analysis.records_scanned,
            by_client=dict(sorted(analysis.records_by_client.items())),
            dpl_size=len(analysis.dpl),
            redo_addr=analysis.redo_addr,
            end_addr=analysis.end_addr,
        )
    if ctx.metrics is not None:
        ctx.metrics.recovery_pass_records.observe(  # type: ignore[attr-defined]
            analysis.records_scanned)
        # Close the progress meter with the pass total (the in-scan
        # meter samples every _PROGRESS_SAMPLE_EVERY records only).
        ctx.metrics.restart_progress.sample(  # type: ignore[attr-defined]
            ctx.metrics.next_tick(),  # type: ignore[attr-defined]
            analysis.records_scanned)
    if ctx.after_analysis is not None:
        ctx.after_analysis(analysis)
    return analysis


def _redo_phase(engine: RecoveryEngine, ctx: RecoveryContext,
                analysis: AnalysisResult,
                redo_fn: Callable[[], RedoStats]) -> Tuple[RedoStats, int]:
    tracer = ctx.tracer
    forwarded = ctx.pre_redo() if ctx.pre_redo is not None else 0
    span = 0
    if tracer is not None:
        attrs = dict(ctx.span_attrs)
        attrs["redo_addr"] = analysis.redo_addr
        if engine.name != "serial":
            attrs["engine"] = engine.name
        span = tracer.begin("recovery", "redo", "server", **attrs)
    _fire_before(ctx, "redo")
    redo = redo_fn()
    redo.redos_applied += forwarded
    if tracer is not None:
        end_attrs: Dict[str, object] = {
            "records_scanned": redo.records_scanned,
            "records_considered": redo.records_considered,
            "pages_redone": redo.redos_applied,
        }
        if ctx.pre_redo is not None:
            end_attrs["forwarded_redos"] = forwarded
        end_attrs["by_client"] = dict(sorted(redo.applied_by_client.items()))
        tracer.end(span, **end_attrs)
    if ctx.metrics is not None:
        ctx.metrics.recovery_pass_records.observe(  # type: ignore[attr-defined]
            redo.records_scanned)
    return redo, forwarded


def _undo_phase(engine: RecoveryEngine, ctx: RecoveryContext,
                losers: Dict[str, RestartTxn],
                undo_fn: Callable[[], UndoStats]) -> UndoStats:
    tracer = ctx.tracer
    span = 0
    if tracer is not None:
        attrs = dict(ctx.span_attrs)
        attrs["losers"] = len(losers)
        if engine.name != "serial":
            attrs["engine"] = engine.name
        span = tracer.begin("recovery", "undo", "server", **attrs)
    _fire_before(ctx, "undo")
    undo = undo_fn()
    if tracer is not None:
        tracer.end(
            span,
            records_scanned=undo.records_scanned,
            clrs_written=undo.clrs_written,
            txns_rolled_back=undo.txns_rolled_back,
            by_client=dict(sorted(undo.clrs_by_client.items())),
        )
    if ctx.metrics is not None:
        ctx.metrics.recovery_pass_records.observe(  # type: ignore[attr-defined]
            undo.records_scanned)
    return undo


def _select_losers(ctx: RecoveryContext,
                   analysis: AnalysisResult) -> Dict[str, RestartTxn]:
    losers = analysis.losers()
    if ctx.loser_filter is not None:
        losers = ctx.loser_filter(losers)
    return losers


# ---------------------------------------------------------------------------
# Serial: the historical three passes behind the interface
# ---------------------------------------------------------------------------

class SerialRecoveryEngine(RecoveryEngine):
    """The paper's passes: the reference the fused engine must match."""

    name = "serial"

    def run(self, ctx: RecoveryContext) -> EngineResult:
        analysis = _analysis_phase(self, ctx, header_sink=None)
        redo, forwarded = _redo_phase(
            self, ctx, analysis,
            lambda: redo_pass(ctx.log, analysis, ctx.pages,
                              client_filter=ctx.client_filter,
                              faults=ctx.faults),
        )
        losers = _select_losers(ctx, analysis)
        undo = _undo_phase(
            self, ctx, losers,
            lambda: undo_pass(ctx.log, losers, ctx.pages, ctx.clr_writer,
                              ctx.logical_undo, faults=ctx.faults),
        )
        return EngineResult(self.name, analysis, redo, undo, forwarded)


# ---------------------------------------------------------------------------
# Fused: one analysis+candidate scan, then chain-walk undo
# ---------------------------------------------------------------------------

#: One redo candidate: (addr, header).
_Candidate = Tuple[LogAddr, FrameHeader]


class _Candidates:
    """Redo candidates: redoable page records that pass the client filter.

    The DPL RecAddr filter can only run once analysis has finished, so
    :func:`_apply_candidates` applies it.
    """

    def __init__(self, client_filter: Optional[Set[str]]) -> None:
        self.client_filter = client_filter
        self.items: List[_Candidate] = []

    def sink(self, addr: LogAddr, header: FrameHeader) -> None:
        if not header.is_redoable() or header.page_id < 0:
            return
        if (self.client_filter is not None
                and header.client_id not in self.client_filter):
            return
        self.items.append((addr, header))


def _redo_candidates(ctx: RecoveryContext, analysis: AnalysisResult,
                     fused: Optional[_Candidates]
                     ) -> Tuple[List[_Candidate], int]:
    """Every redo candidate in ascending address order, plus the number
    of headers a supplementary scan examined to find them.

    ``fused`` holds the candidates the analysis scan already collected
    for ``[start, end)``; only ``[redo_addr, start)`` then needs a scan,
    and only when the DPL reaches below the checkpoint.  ``None`` means
    the analysis came from a supplier without scanning (the section
    2.6.2 variant), so the scan covers the whole redo range.
    """
    if fused is None:
        end = analysis.end_addr
    else:
        assert ctx.analysis_scan_start is not None
        end = ctx.analysis_scan_start
    candidates = _Candidates(ctx.client_filter)
    scanned = 0
    if analysis.redo_addr < end:
        for addr, header in ctx.log.scan_headers(analysis.redo_addr, end):
            scanned += 1
            candidates.sink(addr, header)
    if fused is not None:
        candidates.items.extend(fused.items)
    return candidates.items, scanned


def _apply_candidates(ctx: RecoveryContext, analysis: AnalysisResult,
                      items: List[_Candidate], stats: RedoStats) -> None:
    """Apply the candidates in ascending address order.

    Identical filtering to :func:`redo_pass`: DPL membership with
    ``RecAddr <= addr``, then ``page_LSN < LSN``.
    """
    dpl = analysis.dpl
    for addr, header in items:
        if ctx.faults is not None:
            ctx.faults.crashpoint("recovery.redo.scan")
        rec_addr = dpl.get(header.page_id)
        if rec_addr is None or addr < rec_addr:
            continue
        stats.records_considered += 1
        page = ctx.pages.fetch(header.page_id)
        if not redo_needed(page, header.lsn):
            continue
        record = ctx.log.read_at(addr)
        if isinstance(record, UpdateRecord):
            apply_redo(page, record)
        else:
            assert isinstance(record, CompensationRecord)
            apply_clr_redo(page, record)
        ctx.pages.mark_dirty(header.page_id, rec_addr)
        stats.redos_applied += 1
        stats.applied_by_client[header.client_id] = (
            stats.applied_by_client.get(header.client_id, 0) + 1
        )


#: One undo-chain position: (addr, header, txn_id).
_ChainItem = Tuple[LogAddr, FrameHeader, str]


def _resolve_chains(ctx: RecoveryContext, losers: Dict[str, RestartTxn]
                    ) -> List[_ChainItem]:
    """Walk every loser's UndoNxtLSN chain via exact address lookups.

    The items are returned merged in descending address order, which is
    exactly the order the serial backward scan would visit the same
    records.  Raises :class:`_ChainLookupMiss` when an LSN has no known
    address or resolves to another transaction's record — the caller
    falls back to the scanning undo pass.
    """
    items: List[_ChainItem] = []
    for txn_id, txn in losers.items():
        lsn = txn.undo_next_lsn
        while lsn != NULL_LSN:
            addr = ctx.log.addr_of_lsn(txn.client_id, lsn)
            if addr is None:
                raise _ChainLookupMiss(f"{txn.client_id}:{lsn}")
            header = ctx.log.header_at(addr)
            if header.txn_id != txn_id:
                raise _ChainLookupMiss(
                    f"{txn.client_id}:{lsn} is a record of {header.txn_id}")
            items.append((addr, header, txn_id))
            if header.is_clr():
                lsn = header.undo_next_lsn
            elif header.is_update():
                lsn = header.prev_lsn
            else:
                raise RecoveryInvariantError(
                    f"undo chain of {txn_id} points at non-undoable "
                    f"{header.type_name} (lsn {header.lsn})"
                )
    items.sort(key=lambda item: item[0], reverse=True)
    return items


def _chain_undo(ctx: RecoveryContext, losers: Dict[str, RestartTxn],
                items: List[_ChainItem]) -> UndoStats:
    """Undo the merged chain items in descending address order.

    Produces the byte-identical CLR/End stream and page images of the
    serial undo pass.
    """
    stats = UndoStats()
    expected: Dict[str, int] = {}
    last_lsn: Dict[str, int] = {}
    for txn_id, txn in losers.items():
        if txn.undo_next_lsn != NULL_LSN:
            expected[txn_id] = txn.undo_next_lsn
            last_lsn[txn_id] = txn.last_lsn
    for txn_id in list(losers):
        if txn_id not in expected:
            _finish_rollback(ctx.clr_writer, losers[txn_id],
                             losers[txn_id].last_lsn)
            stats.txns_rolled_back += 1
    for addr, header, txn_id in items:
        if ctx.faults is not None:
            ctx.faults.crashpoint("recovery.undo.scan")
        stats.records_scanned += 1
        txn = losers[txn_id]
        if header.is_clr():
            expected[txn_id] = header.undo_next_lsn
        elif header.redo_only:
            expected[txn_id] = header.prev_lsn
        else:
            record = ctx.log.read_at(addr)
            assert isinstance(record, UpdateRecord)
            last_lsn[txn_id] = _undo_one(record, ctx.pages, ctx.clr_writer,
                                         txn, last_lsn[txn_id],
                                         ctx.logical_undo)
            expected[txn_id] = record.prev_lsn
            stats.clrs_written += 1
            stats.clrs_by_client[txn.client_id] = (
                stats.clrs_by_client.get(txn.client_id, 0) + 1
            )
        if expected[txn_id] == NULL_LSN:
            del expected[txn_id]
            _finish_rollback(ctx.clr_writer, txn, last_lsn[txn_id])
            stats.txns_rolled_back += 1
    if expected:
        raise RecoveryInvariantError(
            f"undo could not resolve chains for {sorted(expected)}; "
            "the prefix property was violated"
        )
    return stats


class FusedRecoveryEngine(RecoveryEngine):
    """Single fused scan plus chain-walk undo; results identical to serial."""

    name = "fused"

    def run(self, ctx: RecoveryContext) -> EngineResult:
        fused = (_Candidates(ctx.client_filter)
                 if ctx.analysis_supplier is None else None)
        analysis = _analysis_phase(
            self, ctx, header_sink=fused.sink if fused is not None else None)

        def _redo() -> RedoStats:
            stats = RedoStats()
            items, stats.records_scanned = _redo_candidates(ctx, analysis,
                                                            fused)
            _apply_candidates(ctx, analysis, items, stats)
            return stats

        redo, forwarded = _redo_phase(self, ctx, analysis, _redo)
        losers = _select_losers(ctx, analysis)
        fallback: Optional[str] = None

        def _undo() -> UndoStats:
            nonlocal fallback
            try:
                items = _resolve_chains(ctx, losers)
            except _ChainLookupMiss:
                fallback = "undo-chain-lookup-miss"
                return undo_pass(ctx.log, losers, ctx.pages, ctx.clr_writer,
                                 ctx.logical_undo, faults=ctx.faults)
            return _chain_undo(ctx, losers, items)

        undo = _undo_phase(self, ctx, losers, _undo)
        return EngineResult(self.name, analysis, redo, undo, forwarded,
                            fallback=fallback)


# The traced perfbench run still names the retired engine classes when it
# installs its recovery spans; drop these aliases together with those two
# entries (ROADMAP open item 6).
PartitionedRecoveryEngine = FusedRecoveryEngine
RedoOnlyRecoveryEngine = FusedRecoveryEngine


def make_engine(name: str) -> RecoveryEngine:
    """Engine registry keyed by ``SystemConfig.recovery_engine``."""
    if name == "fused":
        return FusedRecoveryEngine()
    if name == "serial":
        return SerialRecoveryEngine()
    raise ValueError(
        f"unknown recovery engine {name!r}; expected one of {ENGINE_NAMES}"
    )
