"""The single stable log at the server.

ARIES/CSA keeps exactly one log, owned by the server (Figure 1).  Log
records arrive from the server's own log manager and, in batches, from
the clients' virtual-storage log buffers.  Appending assigns each record
a **log address** — the byte offset of its frame in the conceptual log
file — which is distinct from the LSN inside the record (section 2.2).

The log models the volatile/stable split precisely:

* ``append`` places the record in the volatile tail;
* ``force`` makes everything up to an address stable;
* ``crash`` discards the volatile tail, keeping only forced bytes.

Storage layout
--------------

The log *is* its byte image: one contiguous ``bytearray`` holding, per
record, an 8-byte big-endian length prefix (the ``FRAME_OVERHEAD``
charged per record) followed by the encoded frame.  A record's logical
address is exactly ``_base`` plus its physical offset in the buffer, so
appends are O(1) buffer extends and address arithmetic is byte-exact.
A sorted frame-start index supports O(log n) address lookup; counting
(``records_between``) and truncation are index slices — no decoding.

Appending stores a record's frame (``LogRecord.frame``, encoded once per
record) as it is; ``append_frame`` takes bytes directly, which is how a
standby appends what its primary shipped.  Scanning decodes records on
demand from their stored bytes, so recovery reads exactly what survived,
byte for byte; ``scan_frames`` hands the stored bytes out undecoded.
The header-only variants (``scan_headers`` / ``scan_headers_backward``)
peek each frame's header fields in place — no slicing, no record
allocation — which is what lets the recovery passes filter before they
materialize; a small LRU of decoded records keeps the undo/redo overlap
cheap.
"""

from __future__ import annotations

import bisect
import struct
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Tuple

from repro.core.log_records import (
    FrameHeader,
    LogRecord,
    decode_record,
    # Re-exported: appends no longer encode here (records carry their
    # frame), but perfbench's smoke test reads this binding.
    encode_record,  # noqa: F401
    peek_header_in,
)
from repro.core.lsn import LSN, LogAddr
from repro.errors import LogError, LogRecordNotFoundError

if TYPE_CHECKING:
    from repro.faults import FaultPlan
    from repro.obs.tracer import Tracer
    from repro.sanitizer import Sanitizer

#: Bytes of framing charged per record (the stored length prefix).
FRAME_OVERHEAD = 8

_FRAME_LEN = struct.Struct(">Q")


class StableLog:
    """Append-only log with force semantics and crash truncation."""

    #: Full-decode LRU capacity: sized for the undo/redo overlap of one
    #: restart (losers' tails), not for whole-log caching.
    DECODE_CACHE_SIZE = 256

    def __init__(self) -> None:
        #: Byte image of the retained log: [len u64][frame] per record.
        self._buf = bytearray()
        #: Sorted frame-start addresses (parallel to frames in _buf).
        self._index: List[LogAddr] = []
        #: Logical address of ``_buf[0]``; advanced by truncate_prefix.
        #: Addresses of archived bytes are never reused.
        self._base: LogAddr = 0
        #: Exclusive upper bound of the stable prefix, as a byte address.
        self._flushed_addr: LogAddr = 0
        #: LRU of fully decoded records keyed by address.
        self._decoded: "OrderedDict[LogAddr, LogRecord]" = OrderedDict()
        #: Attached by the owning complex; ``None`` disables the hooks.
        self.tracer: Optional["Tracer"] = None
        #: Attached by the owning complex; ``None`` disables injection.
        self.faults: Optional["FaultPlan"] = None
        #: Attached by the owning complex; ``None`` disables the runtime
        #: WAL sanitizer (repro.sanitizer).
        self.sanitizer: Optional["Sanitizer"] = None
        #: Attached by the owning complex; ``None`` disables the
        #: log-force-bytes histogram (repro.obs.hist).
        self.metrics: Any = None
        self.appends = 0
        self.forces = 0
        self.bytes_appended = 0
        self.records_lost_last_crash = 0
        self.full_decodes = 0
        self.header_peeks = 0
        self.decode_cache_hits = 0

    # -- writing -----------------------------------------------------------

    def open_at(self, base_addr: LogAddr) -> None:
        """Position an empty log so its first append lands at ``base_addr``.

        Standby bootstrap (DESIGN §15): a log replica must reproduce the
        primary's addresses byte for byte, so a standby created after
        the primary already wrote (and possibly truncated) log opens its
        empty replica at the primary's low-water mark and replays the
        shipped frames from there.  Only a fresh, never-written log may
        be repositioned — anything else would silently renumber records.
        """
        if self._buf or self._base or self._flushed_addr:
            raise LogError("open_at requires a fresh, empty log")
        self._base = base_addr
        self._flushed_addr = base_addr

    def append(self, record: LogRecord) -> LogAddr:
        """Append ``record`` to the volatile tail; returns its address."""
        return self.append_frame(record.frame, record.lsn)

    def append_frame(self, frame: bytes, lsn: LSN) -> LogAddr:
        """Append one encoded record (``lsn`` is the LSN inside it).

        The log's one write path: a record's cached frame and a frame
        shipped from a primary land here as the bytes they already are.
        """
        if self.faults is not None:
            self.faults.crashpoint("log.append.before", self.tracer)
        addr = self._base + len(self._buf)
        self._buf += _FRAME_LEN.pack(len(frame))
        self._buf += frame
        self._index.append(addr)
        self.appends += 1
        self.bytes_appended += len(frame) + FRAME_OVERHEAD
        if self.tracer is not None:
            self.tracer.instant("log", "append", "server", addr=addr,
                                lsn=int(lsn),
                                nbytes=len(frame) + FRAME_OVERHEAD)
        if self.sanitizer is not None:
            self.sanitizer.on_log_append(int(lsn),
                                         addr + FRAME_OVERHEAD + len(frame))
        return addr

    def force(self, up_to_addr: Optional[LogAddr] = None) -> None:
        """Make the log stable through ``up_to_addr`` (inclusive).

        With no argument the whole log is forced.  Forcing an already
        stable prefix is a no-op and is not counted, matching the usual
        group-commit accounting.
        """
        if self.faults is not None:
            self.faults.crashpoint("log.force.before", self.tracer)
        if up_to_addr is None:
            target = self.end_of_log_addr
        else:
            target = self._frame_end(up_to_addr)
        if target <= self._flushed_addr:
            return
        flushed_before = self._flushed_addr
        self._flushed_addr = target
        self.forces += 1
        if self.tracer is not None:
            self.tracer.instant("log", "force", "server",
                                flushed_addr=target)
        if self.sanitizer is not None:
            self.sanitizer.on_log_force(target)
        if self.metrics is not None:
            self.metrics.log_force_bytes.observe(target - flushed_before)

    def _frame_end(self, addr: LogAddr) -> LogAddr:
        index = bisect.bisect_left(self._index, addr)
        if index >= len(self._index) or self._index[index] != addr:
            # Conservative callers may pass an address between frames;
            # force through the frame containing/preceding it.
            index = min(index, len(self._index) - 1)
            if index < 0:
                return 0
        return self._index[index] + self._frame_length_at(index)

    def _frame_length_at(self, index: int) -> int:
        """Total frame size (prefix + payload) of frame ``index``."""
        offset = self._index[index] - self._base
        return FRAME_OVERHEAD + _FRAME_LEN.unpack_from(self._buf, offset)[0]

    def _payload_bounds(self, index: int) -> Tuple[int, int]:
        """Physical [start, end) of frame ``index``'s encoded payload."""
        offset = self._index[index] - self._base
        length = _FRAME_LEN.unpack_from(self._buf, offset)[0]
        start = offset + FRAME_OVERHEAD
        return start, start + length

    def _frame_bytes(self, index: int) -> bytes:
        start, end = self._payload_bounds(index)
        with memoryview(self._buf) as view:
            return bytes(view[start:end])

    def _decode_at(self, index: int, addr: LogAddr) -> LogRecord:
        """Full decode of frame ``index`` through the LRU cache."""
        cached = self._decoded.get(addr)
        if cached is not None:
            self._decoded.move_to_end(addr)
            self.decode_cache_hits += 1
            return cached
        record = decode_record(self._frame_bytes(index))
        self.full_decodes += 1
        self._decoded[addr] = record
        if len(self._decoded) > self.DECODE_CACHE_SIZE:
            self._decoded.popitem(last=False)
        return record

    # -- reading -----------------------------------------------------------

    @property
    def end_of_log_addr(self) -> LogAddr:
        """Address one past the last appended record."""
        return self._base + len(self._buf)

    @property
    def flushed_addr(self) -> LogAddr:
        return self._flushed_addr

    def is_stable(self, addr: LogAddr) -> bool:
        """True when the byte at ``addr`` lies in the forced prefix.

        ``flushed_addr`` always falls on a frame boundary, so for a
        record's address this is exactly "the whole frame is forced".
        The boundary cases are deliberate and tested:

        * an address below ``flushed_addr`` stays stable even after the
          frames holding it are archived away by ``truncate_prefix`` —
          the bytes were forced, whether or not a frame remains in
          memory to witness it (the old frame-lookup answered ``False``
          for every address once the log was empty, ``force()`` or not);
        * a trailing address (at or past end-of-log) is stable exactly
          when the whole log is — in particular, every address of an
          empty log is vacuously stable.
        """
        return addr < self._flushed_addr or self._flushed_addr == self.end_of_log_addr

    def read_at(self, addr: LogAddr) -> LogRecord:
        """Decode the record whose frame starts at ``addr``."""
        index = bisect.bisect_left(self._index, addr)
        if index >= len(self._index) or self._index[index] != addr:
            raise LogRecordNotFoundError(f"no log record at address {addr}")
        return self._decode_at(index, addr)

    def header_at(self, addr: LogAddr) -> FrameHeader:
        """Peek only the header of the record at ``addr``."""
        index = bisect.bisect_left(self._index, addr)
        if index >= len(self._index) or self._index[index] != addr:
            raise LogRecordNotFoundError(f"no log record at address {addr}")
        self.header_peeks += 1
        start, end = self._payload_bounds(index)
        return peek_header_in(self._buf, start, end)

    def frame_size(self, addr: LogAddr) -> int:
        """Bytes the record at ``addr`` occupies (frame + overhead)."""
        index = bisect.bisect_left(self._index, addr)
        if index >= len(self._index) or self._index[index] != addr:
            raise LogRecordNotFoundError(f"no log record at address {addr}")
        return self._frame_length_at(index)

    def scan(self, from_addr: LogAddr = 0,
             to_addr: Optional[LogAddr] = None) -> Iterator[Tuple[LogAddr, LogRecord]]:
        """Yield ``(addr, record)`` for records with addr in [from, to).

        ``from_addr`` need not land exactly on a frame boundary; scanning
        starts at the first frame at or after it — the conservative
        RecAddr semantics of section 2.5.2 rely on this.
        """
        start = bisect.bisect_left(self._index, max(from_addr, 0))
        for index in range(start, len(self._index)):
            addr = self._index[index]
            if to_addr is not None and addr >= to_addr:
                return
            cached = self._decoded.get(addr)
            if cached is not None:
                self.decode_cache_hits += 1
                yield addr, cached
            else:
                self.full_decodes += 1
                yield addr, decode_record(self._frame_bytes(index))

    def scan_backward(self, from_addr: Optional[LogAddr] = None,
                      down_to_addr: LogAddr = 0) -> Iterator[Tuple[LogAddr, LogRecord]]:
        """Yield ``(addr, record)`` in descending address order.

        Covers records with addr in [down_to_addr, from_addr); with no
        ``from_addr`` the scan starts at the end of the log.  This is the
        access pattern of the ARIES undo pass, which in ARIES/CSA cannot
        chase PrevLSN pointers directly (LSNs are not addresses) and so
        walks the log backward matching records against the losers'
        expected UndoNxtLSNs.
        """
        if from_addr is None:
            start = len(self._index)
        else:
            start = bisect.bisect_left(self._index, from_addr)
        for index in range(start - 1, -1, -1):
            addr = self._index[index]
            if addr < down_to_addr:
                return
            cached = self._decoded.get(addr)
            if cached is not None:
                self.decode_cache_hits += 1
                yield addr, cached
            else:
                self.full_decodes += 1
                yield addr, decode_record(self._frame_bytes(index))

    def scan_frames(self, from_addr: LogAddr = 0,
                    to_addr: Optional[LogAddr] = None
                    ) -> Iterator[Tuple[LogAddr, bytes]]:
        """Forward scan yielding ``(addr, frame)``: each record's stored
        bytes, copied out of the log and never decoded.

        Same address semantics as :func:`scan`.  The replication ship
        stream reads the log this way: bytes in, bytes out.
        """
        start = bisect.bisect_left(self._index, max(from_addr, 0))
        for index in range(start, len(self._index)):
            addr = self._index[index]
            if to_addr is not None and addr >= to_addr:
                return
            yield addr, self._frame_bytes(index)

    def scan_headers(self, from_addr: LogAddr = 0,
                     to_addr: Optional[LogAddr] = None
                     ) -> Iterator[Tuple[LogAddr, FrameHeader]]:
        """Header-only forward scan: ``(addr, FrameHeader)`` pairs.

        Same address semantics as :func:`scan`; each frame's header is
        peeked in place, no full record is materialized.  Callers fetch
        the records they actually need via :func:`read_at`, which serves
        repeats from the decode LRU.
        """
        start = bisect.bisect_left(self._index, max(from_addr, 0))
        for index in range(start, len(self._index)):
            addr = self._index[index]
            if to_addr is not None and addr >= to_addr:
                return
            self.header_peeks += 1
            payload_start, payload_end = self._payload_bounds(index)
            yield addr, peek_header_in(self._buf, payload_start, payload_end)

    def scan_headers_backward(self, from_addr: Optional[LogAddr] = None,
                              down_to_addr: LogAddr = 0
                              ) -> Iterator[Tuple[LogAddr, FrameHeader]]:
        """Header-only variant of :func:`scan_backward`."""
        if from_addr is None:
            start = len(self._index)
        else:
            start = bisect.bisect_left(self._index, from_addr)
        for index in range(start - 1, -1, -1):
            addr = self._index[index]
            if addr < down_to_addr:
                return
            self.header_peeks += 1
            payload_start, payload_end = self._payload_bounds(index)
            yield addr, peek_header_in(self._buf, payload_start, payload_end)

    def record_count(self) -> int:
        return len(self._index)

    def records_between(self, from_addr: LogAddr, to_addr: Optional[LogAddr] = None) -> int:
        """How many records a scan over [from, to) would visit.

        Pure index arithmetic — no frame is touched, let alone decoded.
        """
        start = bisect.bisect_left(self._index, max(from_addr, 0))
        if to_addr is None:
            return len(self._index) - start
        stop = bisect.bisect_left(self._index, to_addr, start)
        return stop - start

    # -- truncation ------------------------------------------------------------

    def truncate_prefix(self, up_to_addr: LogAddr) -> int:
        """Discard records with addresses below ``up_to_addr``.

        Addresses of surviving records are unchanged (they are logical
        offsets; a real system archives the bytes and advances the log's
        low-water mark).  Only the stable prefix may be truncated.
        Returns the number of records discarded.
        """
        if up_to_addr > self._flushed_addr:
            raise ValueError(
                f"cannot truncate into the volatile tail "
                f"(addr {up_to_addr} > flushed {self._flushed_addr})"
            )
        keep = bisect.bisect_left(self._index, up_to_addr)
        if keep:
            cut_addr = (
                self._index[keep] if keep < len(self._index)
                else self.end_of_log_addr
            )
            del self._buf[:cut_addr - self._base]
            del self._index[:keep]
            self._base = cut_addr
            self._decoded.clear()
        return keep

    @property
    def low_water_addr(self) -> LogAddr:
        """Address of the oldest retained record (end-of-log when empty)."""
        return self._index[0] if self._index else self.end_of_log_addr

    # -- crash model ---------------------------------------------------------

    def crash(self) -> None:
        """Server crash: the unforced tail vanishes.

        With a fault plan attached, the plan may decide that the device
        had flushed part of its queue when power failed (a *partial
        flush*): some prefix of the unforced whole frames survives the
        crash.  Surviving more log than the forced boundary promised is
        always safe — analysis/redo are driven by what is actually on
        stable storage — but exercises bookkeeping a clean truncation
        never would.
        """
        keep = bisect.bisect_right(self._index, self._flushed_addr - 1)
        # A frame survives iff its *end* is within the flushed prefix.
        while keep > 0:
            last = keep - 1
            if self._index[last] + self._frame_length_at(last) <= self._flushed_addr:
                break
            keep = last
        if self.faults is not None:
            # Partially flushed suffix: these frames survive the crash
            # even though force() never covered them.
            keep += self.faults.partial_flush_frames(len(self._index) - keep)
        self.records_lost_last_crash = len(self._index) - keep
        if keep < len(self._index):
            del self._buf[self._index[keep] - self._base:]
            del self._index[keep:]
        self._flushed_addr = self.end_of_log_addr
        # Post-crash appends reuse the truncated tail's addresses; drop
        # any cached decodes for them.
        self._decoded.clear()
        if self.sanitizer is not None:
            self.sanitizer.on_log_crash(self._flushed_addr)
