"""The warm standby: a log replica, a page replica, and an apply loop.

A :class:`StandbyServer` is deliberately *not* a :class:`Server`: it
serves no pages, grants no locks, runs no transactions.  It owns three
replicas and the bookkeeping to promote them:

* a **log replica** (:class:`~repro.core.server_log.ServerLogManager`)
  whose addresses are byte-identical to the primary's — every shipped
  frame is appended at the address the primary assigned and the parity
  is asserted per record;
* a **page replica** (:class:`~repro.storage.disk.Disk`) rolled forward
  by the apply loop every ``SystemConfig.standby_apply_interval`` shipped
  records, so promotion redoes only the unapplied tail;
* a :class:`~repro.core.commit_lsn.GlobalTransactionTracker` fed with
  every shipped record's header, so the promoted server knows each
  in-flight transaction without rescanning the log.

Shipped frames arrive as bytes and are appended as bytes; the tracker
and the unapplied-page map are fed from each frame's header
(:func:`~repro.core.log_records.peek_header`), so receiving a batch
decodes no record.  Only the apply loop decodes, from the replica log.

Durability model: the forced log prefix, the disk images, and the
``master`` dict (the stable master record's replica, including the
standby-private ``standby_ship_hw`` / ``standby_applied_addr`` keys and
the shipped dedup entries) survive a standby crash; everything else is
rebuilt by :meth:`StandbyServer.recover` from a single replica-log scan.

Every durable write funnels through the apply-seam methods
(:meth:`_append_frame`, :meth:`_append_checkpoint`,
:meth:`_install_page`, :meth:`install_bootstrap`) — lint rule REP001
pins this, because a durable write outside the seam is exactly how a
replica silently diverges from its primary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.apply import apply_clr_redo, apply_redo, redo_needed
from repro.core.commit_lsn import GlobalTransactionTracker
from repro.core.log_records import (
    BeginCheckpointRecord,
    DirtyPageEntry,
    EndCheckpointRecord,
    FrameHeader,
    LogRecord,
    SERVER_ID,
    TxnTableEntry,
    peek_header,
)
from repro.core.lsn import LogAddr, NULL_ADDR, NULL_LSN
from repro.core.server_log import ServerLogManager
from repro.errors import (
    NodeUnavailableError,
    PageNotFoundError,
    ReplicationError,
)
from repro.net.rpc import Response, RpcDispatcher
from repro.replication.stream import ShipBatch
from repro.storage.disk import Disk
from repro.storage.page import Page, PageKind

if TYPE_CHECKING:
    from repro.faults import FaultPlan
    from repro.obs.tracer import Tracer
    from repro.replication.manager import ReplicationManager


class StandbyServer:
    """Receives the ship stream; applies it; can be promoted."""

    def __init__(self, manager: "ReplicationManager", node_id: str) -> None:
        self.manager = manager
        #: Network id; the promoted server takes it over (DESIGN §15.1).
        self.node_id = node_id
        self.config = manager.config
        self.network = manager.network
        self.log = ServerLogManager(0)
        self.disk = Disk()
        self.tracker = GlobalTransactionTracker()
        #: Master-record replica; refreshed by every batch, plus the
        #: standby-private keys (ship high-water, applied boundary,
        #: shipped dedup entries) that make :meth:`recover` possible.
        self.master: Dict[str, Any] = {
            "server_ckpt_begin_addr": NULL_ADDR,
            "client_ckpts": {},
            "standby_ship_hw": 0,
            "standby_applied_addr": 0,
        }
        #: Everything below ``applied_addr`` is materialized in the page
        #: replica; the tail above it is durable in the log replica only.
        self.applied_addr: LogAddr = 0
        #: Page id -> address of its first unapplied redoable record:
        #: the promotion checkpoint's dirty page list.
        self._unapplied: Dict[int, LogAddr] = {}
        #: Shipped dedup entries, accumulated for the promoted server's
        #: dispatcher.  Durable alongside the master (the simulation's
        #: stand-in for persisting them with the ship stream).
        self._dedup: List[Tuple[Tuple[str, int], Response]] = []
        self.crashed = False
        self.network.register(self.node_id)
        self.dispatcher = RpcDispatcher(self.node_id)
        self.dispatcher.register("replicate_batch", self.receive_batch)
        self.dispatcher.register("replication_heartbeat",
                                 lambda sender: True)
        self.network.attach(self.node_id, self.dispatcher)

    # Observability planes are read through the manager so a plane
    # attached to the complex after construction is seen immediately.

    @property
    def tracer(self) -> Optional["Tracer"]:
        return self.manager.tracer

    @property
    def faults(self) -> Optional["FaultPlan"]:
        return self.manager.faults

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def install_bootstrap(self, base_addr: LogAddr, pages: List[Page],
                          master: Dict[str, Any]) -> None:
        """(Re)build the replicas from a primary snapshot.

        ``base_addr`` is the primary's log low-water mark: the replica
        log opens empty at that address so shipped frames land at their
        primary-assigned offsets.  ``pages`` are the primary's current
        disk images — they cover every update below ``base_addr``
        (truncation never discards a record a dirty page still needs),
        so applying the shipped tail on top yields the primary's state.
        """
        self.log = ServerLogManager(0)
        self.log.stable.open_at(base_addr)
        self.disk = Disk()
        for page in pages:
            self._install_page(page)
        self.tracker = GlobalTransactionTracker()
        self._unapplied = {}
        self._dedup = []
        self.applied_addr = base_addr
        fresh = dict(master)
        fresh["client_ckpts"] = dict(master["client_ckpts"])
        fresh["standby_ship_hw"] = base_addr
        fresh["standby_applied_addr"] = base_addr
        self.master = fresh
        self.crashed = False

    # ------------------------------------------------------------------
    # The ship stream (RPC handler)
    # ------------------------------------------------------------------

    def receive_batch(self, sender: str, batch: ShipBatch) -> LogAddr:
        """Append one shipped batch durably; returns the ack high-water.

        The ack (the replica's flushed address) is only sent after the
        frames are forced and the master/dedup soft state installed, so
        an acknowledged byte can never be lost by a standby crash — the
        half of the failover durability oracle the standby owns.
        """
        if self.crashed:
            raise NodeUnavailableError(self.node_id)
        faults = self.faults
        if faults is not None:
            faults.crashpoint("replication.ship.before_append", self.tracer)
        for addr, frame in batch.frames:
            end = self.log.end_of_log_addr
            if addr < end:
                # Re-shipped after a lost ack: already durable here.
                continue
            if addr > end:
                raise ReplicationError(
                    f"ship gap: expected next frame at {end}, got {addr}"
                )
            self._append_frame(addr, frame)
        self.log.force()
        self._install_master(batch.master)
        self._dedup.extend(batch.dedup)
        if faults is not None:
            faults.crashpoint("replication.ship.before_ack", self.tracer)
        self._maybe_apply()
        return self.log.flushed_addr

    def _append_frame(self, addr: LogAddr, frame: bytes) -> None:
        """Apply seam: one shipped frame into the log replica, as bytes."""
        header = peek_header(frame)
        if header.client_id == SERVER_ID:
            assigned = self.log.append_local_frame(
                header.client_id, header.lsn, frame)
        else:
            # Client-attributed records (including server-written CLRs
            # for failed clients) feed the per-client pair lists, just
            # as arrival at the primary did; the slightly larger
            # ForceAddr this gives server-written CLRs is conservative.
            assigned = self.log.append_client_frame(
                header.client_id, header.lsn, frame)
        if assigned != addr:
            raise ReplicationError(
                f"address divergence: primary assigned {addr}, "
                f"replica assigned {assigned}"
            )
        self._observe(addr, header)

    def _observe(self, addr: LogAddr, header: FrameHeader) -> None:
        """Volatile bookkeeping for one replica-log record."""
        self.tracker.observe_header(header, addr)
        if header.is_redoable() and header.page_id >= 0 \
                and header.page_id not in self._unapplied:
            self._unapplied[header.page_id] = addr

    def _install_master(self, master: Dict[str, Any]) -> None:
        fresh = dict(master)
        fresh["client_ckpts"] = dict(master["client_ckpts"])
        fresh["standby_applied_addr"] = self.master.get(
            "standby_applied_addr", self.applied_addr)
        fresh["standby_ship_hw"] = self.log.flushed_addr
        self.master = fresh

    def shipped_dedup(self) -> List[Tuple[Tuple[str, int], Response]]:
        """The accumulated dedup entries, for the promoted dispatcher."""
        return list(self._dedup)

    @property
    def ship_high_water(self) -> LogAddr:
        """Last address the standby durably acknowledged."""
        return self.master.get("standby_ship_hw", 0)

    # ------------------------------------------------------------------
    # The apply loop
    # ------------------------------------------------------------------

    def _maybe_apply(self) -> None:
        interval = max(1, self.config.standby_apply_interval)
        pending = self.log.stable.records_between(self.applied_addr,
                                                  self.log.flushed_addr)
        if pending >= interval:
            self.apply_tail()

    def apply_tail(self, up_to: Optional[LogAddr] = None) -> int:
        """Redo the shipped tail into the page replica; returns redo count.

        Standard ARIES redo applicability: a record applies iff the
        page's page_LSN is below the record's LSN, so re-applying after
        a crash (``applied_addr`` restored from the master, some pages
        already written) is idempotent.  Pages missing from the replica
        materialize as empty frames — their format records initialize
        them, exactly as in restart redo.
        """
        target = self.log.flushed_addr if up_to is None else up_to
        if target <= self.applied_addr:
            return 0
        faults = self.faults
        if faults is not None:
            faults.crashpoint("replication.apply.before_redo", self.tracer)
        pages: Dict[int, Page] = {}
        applied = 0
        for addr, record in self.log.scan(self.applied_addr, target):
            if not record.is_redoable() or record.page_id < 0:
                continue
            page = pages.get(record.page_id)
            if page is None:
                page = self._fetch_page(record.page_id)
                pages[record.page_id] = page
            if not redo_needed(page, record.lsn):
                continue
            if record.is_clr():
                apply_clr_redo(page, record)
            else:
                apply_redo(page, record)
            applied += 1
        for page_id in sorted(pages):
            self._install_page(pages[page_id])
        self.applied_addr = target
        self._unapplied = {
            page_id: first_addr
            for page_id, first_addr in self._unapplied.items()
            if first_addr >= target
        }
        self.master["standby_applied_addr"] = target
        self.manager.note_applied(applied)
        return applied

    def _fetch_page(self, page_id: int) -> Page:
        try:
            return self.disk.read_page(page_id)
        except PageNotFoundError:
            return Page(page_id, PageKind.FREE, self.config.page_size)

    def _install_page(self, page: Page) -> None:  # lint: allow[WAL100,REC030,REC040] replica install: applies only the forced ship prefix
        """Apply seam: one page image into the page replica.

        No WAL check is needed here: the apply loop only materializes
        records from the *forced* replica prefix (and bootstrap installs
        snapshots of already-durable primary pages), so the log always
        precedes the page by construction.  Crash coverage comes from
        the ship/apply crashpoints around the seam, not per write.
        """
        # lint: allow[REC002,REC030] standby apply: redoes only forced records
        self.disk.write_page(page)

    # ------------------------------------------------------------------
    # Promotion support
    # ------------------------------------------------------------------

    def promotion_checkpoint(self) -> LogAddr:
        """Append a checkpoint synthesized from ship-time bookkeeping.

        The promoted server's analysis pass starts here instead of at
        the last shipped coordinated checkpoint: the dirty page list is
        exactly the unapplied-tail map and the transaction table is the
        tracker's in-progress view, both maintained record by record as
        the stream arrived.  This is why promotion's analysis scan is a
        handful of records regardless of history length.
        """
        begin = BeginCheckpointRecord(
            lsn=self.log.clock.next_lsn(NULL_LSN), client_id=SERVER_ID,
            txn_id=None, prev_lsn=NULL_LSN, owner=SERVER_ID,
        )
        begin_addr = self._append_checkpoint(begin)
        dirty = tuple(
            DirtyPageEntry(page_id=page_id, rec_lsn=NULL_LSN,
                           rec_addr=rec_addr)
            for page_id, rec_addr in sorted(self._unapplied.items())
        )
        txns = tuple(
            TxnTableEntry(
                txn_id=txn.txn_id, client_id=txn.client_id, state=txn.state,
                last_lsn=txn.last_lsn, undo_next_lsn=txn.undo_next_lsn,
                first_lsn=txn.first_lsn,
            )
            for txn in sorted(self.tracker.in_progress(),
                              key=lambda txn: txn.txn_id)
        )
        end = EndCheckpointRecord(
            lsn=self.log.clock.next_lsn(NULL_LSN), client_id=SERVER_ID,
            txn_id=None, prev_lsn=begin.lsn, owner=SERVER_ID,
            dirty_pages=dirty, transactions=txns,
        )
        end_addr = self._append_checkpoint(end)
        self.log.force(end_addr)
        self.master["server_ckpt_begin_addr"] = begin_addr
        return begin_addr

    def _append_checkpoint(self, record: LogRecord) -> LogAddr:
        """Apply seam: one standby-originated checkpoint record."""
        return self.log.append_local(record)

    # ------------------------------------------------------------------
    # Crash model
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """The standby process dies mid-stream or mid-promotion.

        The forced log prefix, the disk images and the master replica
        survive; the unforced tail, the tracker and the unapplied map
        vanish with the process.
        """
        self.log.crash()
        self.tracker.clear()
        self._unapplied.clear()
        self.crashed = True

    def recover(self) -> None:
        """Rebuild volatile bookkeeping from the durable replicas.

        One forward header scan of the retained replica log re-feeds
        the tracker and the per-client pair lists; the applied boundary
        comes back from the master, and the unapplied map is rebuilt
        from the records above it.
        """
        self.crashed = False
        self.applied_addr = self.master.get(
            "standby_applied_addr", self.log.stable.low_water_addr)
        for addr, header in self.log.scan_headers():
            self.log.observe_during_restart(header.client_id,
                                            header.lsn, addr)
            self.log.clock.observe_lsn(header.lsn)
            if addr >= self.applied_addr:
                self._observe(addr, header)
            else:
                self.tracker.observe_header(header, addr)
