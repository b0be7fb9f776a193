"""The client's local log manager (sections 2.1, 2.2).

Clients have no log disks.  This log manager behaves like a regular one
except that "writing" a record means buffering it in virtual storage;
batches are shipped to the server (a) just before any dirty page is sent
back and (b) at commit, whichever comes first.

A record may be discarded from the local buffer only once the server
confirms it is on *stable* storage (not merely appended to the server's
volatile log tail): if the server crashed after an append-only ack, the
record would exist nowhere, yet the client still holds cached dirty
pages containing its update.  The manager therefore tracks, per record,
the server log address assigned at shipping time, and prunes on every
piggybacked advance of the server's flushed address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.log_records import LogRecord
from repro.core.lsn import LSN, LogAddr, LsnClock, NULL_ADDR


@dataclass
class BufferedRecord:
    """A log record held in client virtual storage."""

    record: LogRecord
    #: Server log address once shipped; NULL_ADDR while local-only.
    addr: LogAddr = NULL_ADDR

    @property
    def shipped(self) -> bool:
        return self.addr != NULL_ADDR


class ClientLogManager:
    """Virtual-storage log buffering with local LSN assignment."""

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self.clock = LsnClock()
        self._buffer: List[BufferedRecord] = []
        #: Index of the first record not yet shipped to the server.
        self._ship_cursor = 0
        #: LSN -> buffered entry, for rollback lookups and restart
        #: replay.  LSNs are unique within a client's stream.
        self._by_lsn: Dict[LSN, BufferedRecord] = {}
        self.records_written = 0
        self.batches_shipped = 0
        self.records_pruned = 0

    # -- writing -----------------------------------------------------------

    def append(self, record: LogRecord) -> None:
        """Buffer a record the client just built (LSN already assigned)."""
        entry = BufferedRecord(record)
        self._buffer.append(entry)
        self._by_lsn[record.lsn] = entry
        self.records_written += 1

    def next_lsn(self, page_lsn: LSN = 0) -> LSN:
        """Assign the next LSN per the section 2.2 rule."""
        return self.clock.next_lsn(page_lsn)

    # -- shipping ----------------------------------------------------------

    def unshipped(self) -> List[LogRecord]:
        """Records awaiting their first trip to the server, in order."""
        return [entry.record for entry in self._buffer[self._ship_cursor:]]

    def has_unshipped(self) -> bool:
        return self._ship_cursor < len(self._buffer)

    def note_shipped(self, assigned: List[Tuple[LSN, LogAddr]]) -> None:
        """Record the addresses the server assigned to the shipped batch.

        ``assigned`` pairs (lsn, addr) in shipping order; shipping is
        strictly FIFO, which preserves the prefix property recovery
        relies on (a record in the server log implies all its
        predecessors from this client are too).
        """
        if assigned:
            self.batches_shipped += 1
        for lsn, addr in assigned:
            entry = self._buffer[self._ship_cursor]
            if entry.record.lsn != lsn:
                raise ValueError(
                    f"ship ack out of order: expected lsn {entry.record.lsn}, got {lsn}"
                )
            entry.addr = addr
            self._ship_cursor += 1

    # -- pruning ------------------------------------------------------------

    def prune_stable(self, server_flushed_addr: LogAddr) -> int:
        """Discard records now stable at the server; returns count dropped."""
        dropped = 0
        while dropped < len(self._buffer):
            entry = self._buffer[dropped]
            if not entry.shipped or entry.addr >= server_flushed_addr:
                break
            dropped += 1
        if dropped:
            for entry in self._buffer[:dropped]:
                self._by_lsn.pop(entry.record.lsn, None)
            # One slice deletion instead of `dropped` pop(0) shifts.
            del self._buffer[:dropped]
            self._ship_cursor -= dropped
            self.records_pruned += dropped
        return dropped

    def unstable_records(self, server_flushed_addr: LogAddr) -> List[Tuple[LogAddr, LogRecord]]:
        """Shipped records the server's crash lost, with their OLD addresses.

        Used by the server's restart replay: lost tails from all clients
        must re-enter the log merged in original address order, or redo's
        repeat-history-in-log-order guarantee breaks for pages whose
        update privilege moved between clients just before the crash.
        """
        return [
            (entry.addr, entry.record)
            for entry in self._buffer
            if entry.shipped and entry.addr >= server_flushed_addr
        ]

    def note_replayed(self, lsn: LSN, new_addr: LogAddr) -> None:
        """The server re-appended a lost record at a new address.

        An index lookup, not a buffer scan: restart replays every lost
        record, so a scan here made replay quadratic in the tail.
        """
        entry = self._by_lsn.get(lsn)
        if entry is None or not entry.shipped:
            raise ValueError(f"replayed record lsn {lsn} not found in buffer")
        entry.addr = new_addr

    def requeue_unstable(self, server_flushed_addr: LogAddr) -> int:
        """After a server crash: re-queue records the server's log lost.

        The server's unforced log tail vanished, so any record whose
        assigned address is at or beyond the post-crash flushed boundary
        must be shipped again (the client still holds it, because records
        are only discarded once confirmed stable — exactly why that rule
        exists).  Returns the number of records re-queued.
        """
        requeued = 0
        for index, entry in enumerate(self._buffer):
            if entry.shipped and entry.addr < server_flushed_addr:
                continue
            for later in self._buffer[index:]:
                later.addr = NULL_ADDR
            requeued = len(self._buffer) - index
            self._ship_cursor = index
            break
        return requeued

    # -- reading (normal rollback, section 2.4) -------------------------------

    def find_local(self, txn_id: str, lsn: LSN) -> Optional[LogRecord]:
        """A transaction's record if still buffered locally, else None
        (the rollback path then fetches it from the server)."""
        entry = self._by_lsn.get(lsn)
        if entry is None or entry.record.txn_id != txn_id:
            return None
        return entry.record

    def buffered_count(self) -> int:
        return len(self._buffer)

    def buffered_records(self) -> Iterator[LogRecord]:
        return (entry.record for entry in self._buffer)

    # -- crash model -----------------------------------------------------------

    def crash(self) -> None:
        """Client crash: the virtual-storage buffer disappears."""
        self._buffer.clear()
        self._by_lsn.clear()
        self._ship_cursor = 0
        self.clock = LsnClock()
