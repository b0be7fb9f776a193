"""Log record taxonomy for ARIES/CSA, with a real byte format.

Every mutation in the complex is described by one of the record classes
here.  Records are written by client log managers (buffered in virtual
storage, section 2.1) or by the server's own log manager, and all end up
appended to the single stable log at the server, where they acquire a
**log address** (byte offset).  The LSN inside a record is the update
sequence number assigned locally by the writing system (section 2.2);
the address is assigned by the server on append.

Record kinds
------------

``UpdateRecord``
    A redo-undo (or redo-only) change to one page: record insert /
    modify / delete, space-map allocate / deallocate, page format, and
    the B+-tree operations.  Index operations carry the key so that undo
    can be *logical* (section 1.1.2): at undo time the key may have moved
    to a different page.

``CompensationRecord`` (CLR)
    Redo-only description of one undone update.  Its ``undo_next_lsn``
    points at the predecessor (``prev_lsn``) of the record it compensates,
    which is what bounds logging under repeated failures.

``CommitRecord`` / ``PrepareRecord`` / ``EndRecord``
    Transaction state transitions.  ``EndRecord`` closes a transaction
    after commit processing or after a total rollback.

``BeginCheckpointRecord`` / ``EndCheckpointRecord``
    Written by the server for its own (coordinated) checkpoints and by
    clients for theirs.  A client's End_Checkpoint carries RecLSNs; the
    server rewrites them to RecAddrs before appending (section 2.6.1),
    which is why :class:`DirtyPageEntry` has both fields.

``CDPLRecord``
    The ESM-CS baseline's Commit Dirty Page List (section 4.1), logged by
    the server just before a commit record.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple, Type, overload

from repro.core import codec
from repro.core.lsn import LSN, LogAddr, NULL_ADDR, NULL_LSN

#: client_id used in records written by the server itself.
SERVER_ID = "SERVER"


class UpdateOp(enum.Enum):
    """The physical operation an update (or CLR) performs on a page."""

    RECORD_INSERT = "rec-insert"
    RECORD_MODIFY = "rec-modify"
    RECORD_DELETE = "rec-delete"
    PAGE_FORMAT = "page-format"
    SMP_ALLOCATE = "smp-allocate"
    SMP_DEALLOCATE = "smp-deallocate"
    INDEX_INSERT = "idx-insert"
    INDEX_DELETE = "idx-delete"
    META_SET = "meta-set"


#: Operations whose undo is logical (re-traverse the index by key) rather
#: than physical (reapply the before-image on the same page/slot).
LOGICAL_UNDO_OPS = frozenset({UpdateOp.INDEX_INSERT, UpdateOp.INDEX_DELETE})


class TxnOutcome(enum.Enum):
    """Terminal state recorded in an :class:`EndRecord`."""

    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class DirtyPageEntry:
    """One dirty-page-list entry inside an End_Checkpoint record.

    ``rec_lsn`` is the client-side bound (no update records for the page
    with LSN <= rec_lsn are missing from the server version); ``rec_addr``
    is the server-side bound in log-address space after the server's
    RecLSN -> RecAddr mapping.  For server-originated entries ``rec_lsn``
    is NULL_LSN and only ``rec_addr`` is meaningful.
    """

    page_id: int
    rec_lsn: LSN = NULL_LSN
    rec_addr: LogAddr = NULL_ADDR


@dataclass(frozen=True)
class TxnTableEntry:
    """One transaction-table entry inside an End_Checkpoint record."""

    txn_id: str
    client_id: str
    state: str
    last_lsn: LSN
    undo_next_lsn: LSN
    first_lsn: LSN


class _FrameSlot:
    """The ``frame`` attribute: a record's encoded bytes, built once.

    A non-data descriptor: the first read runs :func:`encode_record` and
    stores the bytes in the instance ``__dict__``, which then shadows the
    descriptor, so every later read is a plain attribute load.  Records
    are frozen, so the cached frame cannot go stale.  (This is
    ``functools.cached_property`` without the lock that its first read
    takes on Python 3.11, which about doubles the cost of that read.)
    """

    @overload
    def __get__(self, record: None, owner: type) -> "_FrameSlot":
        ...

    @overload
    def __get__(self, record: "LogRecord", owner: type) -> bytes:
        ...

    def __get__(self, record: Optional["LogRecord"], owner: type) -> Any:
        if record is None:
            return self
        frame = record.__dict__["frame"] = encode_record(record)
        return frame


@dataclass(frozen=True)
class LogRecord:
    """Common header shared by all log records."""

    lsn: LSN
    client_id: str
    txn_id: Optional[str]
    prev_lsn: LSN

    #: The record's bytes as the stable log stores them, encoded on
    #: first use and then reused by every consumer: the wire-size
    #: charge, the log append, the ship stream.  Records decoded from
    #: the log do not carry it until something asks.
    frame = _FrameSlot()

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def is_update(self) -> bool:
        return isinstance(self, UpdateRecord)

    def is_clr(self) -> bool:
        return isinstance(self, CompensationRecord)

    def is_redoable(self) -> bool:
        """True for records that change a page image (update or CLR)."""
        return isinstance(self, (UpdateRecord, CompensationRecord))


@dataclass(frozen=True)
class UpdateRecord(LogRecord):
    """A change to one page, logged during forward processing.

    ``before`` / ``after`` are physical images of the affected slot (or
    page metadata value for META_SET / page-level ops).  ``redo_only``
    marks records that are never undone individually: page formats and
    structural changes inside nested top actions.  ``key`` is set for
    index operations and names the logical entity for logical undo.
    """

    page_id: int = 0
    op: UpdateOp = UpdateOp.RECORD_MODIFY
    slot: int = -1
    before: Optional[bytes] = None
    after: Optional[bytes] = None
    redo_only: bool = False
    key: Optional[bytes] = None
    page_kind: Optional[str] = None

    def undo_is_logical(self) -> bool:
        return self.op in LOGICAL_UNDO_OPS


@dataclass(frozen=True)
class CompensationRecord(LogRecord):
    """A CLR: redo-only record of one undone update.

    ``undo_next_lsn`` is the LSN of the next record of this transaction
    that remains to be undone — the ``prev_lsn`` of the record this CLR
    compensates.  A *dummy* CLR (``page_id == -1``, ``op is None``) closes
    a nested top action without performing a page change.
    """

    undo_next_lsn: LSN = NULL_LSN
    page_id: int = -1
    op: Optional[UpdateOp] = None
    slot: int = -1
    after: Optional[bytes] = None
    key: Optional[bytes] = None


@dataclass(frozen=True)
class CommitRecord(LogRecord):
    """Transaction commit.  Forced to stable storage before the commit
    is acknowledged to the application (section 2.1)."""


@dataclass(frozen=True)
class PrepareRecord(LogRecord):
    """Two-phase-commit prepare: the transaction becomes in-doubt and is
    *not* rolled back by restart recovery (section 1.1.2).

    The locks the transaction holds are logged with the prepare record so
    the server can hand them back to a recovering client for in-doubt
    reacquisition (section 2.6.1).  Each lock is a (resource-tuple,
    mode-string) pair.
    """

    locks: Tuple = ()


@dataclass(frozen=True)
class EndRecord(LogRecord):
    """Transaction completion (after commit processing or rollback)."""

    outcome: TxnOutcome = TxnOutcome.COMMITTED


@dataclass(frozen=True)
class BeginCheckpointRecord(LogRecord):
    """Start of a checkpoint by ``owner`` (a client id or SERVER_ID)."""

    owner: str = SERVER_ID


@dataclass(frozen=True)
class EndCheckpointRecord(LogRecord):
    """End of a checkpoint: the collected DPL and transaction table."""

    owner: str = SERVER_ID
    dirty_pages: Tuple[DirtyPageEntry, ...] = ()
    transactions: Tuple[TxnTableEntry, ...] = ()

    def with_dirty_pages(self, entries: Tuple[DirtyPageEntry, ...]) -> "EndCheckpointRecord":
        """Return a copy with the DPL replaced.

        Used by the server to substitute RecAddrs for the RecLSNs in a
        client's End_Checkpoint before appending it (section 2.6.1).
        """
        return replace(self, dirty_pages=entries)


@dataclass(frozen=True)
class CDPLRecord(LogRecord):
    """ESM-CS's Commit Dirty Page List, logged before a commit record."""

    entries: Tuple[DirtyPageEntry, ...] = ()


# ---------------------------------------------------------------------------
# Byte format
# ---------------------------------------------------------------------------

_TYPE_TAGS: Dict[str, Type[LogRecord]] = {
    "UPD": UpdateRecord,
    "CLR": CompensationRecord,
    "CMT": CommitRecord,
    "PRE": PrepareRecord,
    "END": EndRecord,
    "BCP": BeginCheckpointRecord,
    "ECP": EndCheckpointRecord,
    "CDP": CDPLRecord,
}


# The writer: one straight-line function per record kind, emitting the
# codec's tuple encoding field by field.  A record encodes as
# ``codec.encode((tag, lsn, client_id, txn_id, prev_lsn, *body))``, and a
# tuple's encoding is its count prefix followed by each item's own
# encoding, so each field is written on its own: the common shapes
# (64-bit ints, str ids, bytes images, None) inline, anything else
# (BIGINT lsns, non-str ids, bytearray images) through ``codec.encode``
# of that one value — the same bytes the codec would have written for
# it inside the tuple.  ``_peek_fast`` below is the read half of this
# layout.

_pack_len = struct.Struct(">BI").pack   # tag byte + u32 count/length
_pack_i64 = struct.Struct(">Bq").pack   # tag byte + i64
_NONE = codec.encode(None)
_TRUE = codec.encode(True)
_FALSE = codec.encode(False)

#: Encoded ``op`` field of every update operation.
_OP_FIELDS: Dict[Optional[UpdateOp], bytes] = {
    op: codec.encode(op.value) for op in UpdateOp}
_OP_FIELDS[None] = _NONE


def _int_field(value: Any) -> bytes:
    if type(value) is int:
        try:
            return _pack_i64(codec.ORD_INT, value)
        except struct.error:
            pass  # outside 64 bits: the codec writes a BIGINT
    return codec.encode(value)


def _str_field(value: Any) -> bytes:
    if value is None:
        return _NONE
    if type(value) is not str:
        return codec.encode(value)
    raw = value.encode("utf-8")
    return _pack_len(codec.ORD_STR, len(raw)) + raw


def _bytes_field(value: Any) -> bytes:
    if value is None:
        return _NONE
    if type(value) is bytes:
        return _pack_len(codec.ORD_BYTES, len(value)) + value
    return codec.encode(value)


def _bool_field(value: Any) -> bytes:
    if value is True:
        return _TRUE
    if value is False:
        return _FALSE
    return codec.encode(value)


def _prefix(tag: str, body_fields: int) -> bytes:
    """Tuple head plus the type tag: constant per record kind."""
    return _pack_len(codec.ORD_TUPLE, 5 + body_fields) + codec.encode(tag)


_UPD = _prefix("UPD", 8)
_CLR = _prefix("CLR", 6)
_CMT = _prefix("CMT", 0)
_PRE = _prefix("PRE", 1)
_END = _prefix("END", 1)
_BCP = _prefix("BCP", 1)
_ECP = _prefix("ECP", 3)
_CDP = _prefix("CDP", 1)

_OUTCOME_FIELDS = {outcome: codec.encode(outcome.value)
                   for outcome in TxnOutcome}


def _write_update(r: UpdateRecord) -> bytes:
    return b"".join((
        _UPD, _int_field(r.lsn), _str_field(r.client_id),
        _str_field(r.txn_id), _int_field(r.prev_lsn),
        _int_field(r.page_id), _OP_FIELDS[r.op], _int_field(r.slot),
        _bytes_field(r.before), _bytes_field(r.after),
        _bool_field(r.redo_only), _bytes_field(r.key),
        _str_field(r.page_kind),
    ))


def _write_clr(r: CompensationRecord) -> bytes:
    return b"".join((
        _CLR, _int_field(r.lsn), _str_field(r.client_id),
        _str_field(r.txn_id), _int_field(r.prev_lsn),
        _int_field(r.undo_next_lsn), _int_field(r.page_id),
        _OP_FIELDS[r.op], _int_field(r.slot), _bytes_field(r.after),
        _bytes_field(r.key),
    ))


def _write_commit(r: CommitRecord) -> bytes:
    return b"".join((
        _CMT, _int_field(r.lsn), _str_field(r.client_id),
        _str_field(r.txn_id), _int_field(r.prev_lsn),
    ))


def _write_prepare(r: PrepareRecord) -> bytes:
    return b"".join((
        _PRE, _int_field(r.lsn), _str_field(r.client_id),
        _str_field(r.txn_id), _int_field(r.prev_lsn),
        codec.encode(r.locks),
    ))


def _write_end(r: EndRecord) -> bytes:
    return b"".join((
        _END, _int_field(r.lsn), _str_field(r.client_id),
        _str_field(r.txn_id), _int_field(r.prev_lsn),
        _OUTCOME_FIELDS[r.outcome],
    ))


def _write_begin_checkpoint(r: BeginCheckpointRecord) -> bytes:
    return b"".join((
        _BCP, _int_field(r.lsn), _str_field(r.client_id),
        _str_field(r.txn_id), _int_field(r.prev_lsn),
        _str_field(r.owner),
    ))


def _write_end_checkpoint(r: EndCheckpointRecord) -> bytes:
    return b"".join((
        _ECP, _int_field(r.lsn), _str_field(r.client_id),
        _str_field(r.txn_id), _int_field(r.prev_lsn),
        _str_field(r.owner),
        codec.encode(tuple(_encode_dpl_entry(e) for e in r.dirty_pages)),
        codec.encode(tuple(_encode_txn_entry(t) for t in r.transactions)),
    ))


def _write_cdpl(r: CDPLRecord) -> bytes:
    return b"".join((
        _CDP, _int_field(r.lsn), _str_field(r.client_id),
        _str_field(r.txn_id), _int_field(r.prev_lsn),
        codec.encode(tuple(_encode_dpl_entry(e) for e in r.entries)),
    ))


_WRITERS: Dict[Type[LogRecord], Callable[[Any], bytes]] = {
    UpdateRecord: _write_update,
    CompensationRecord: _write_clr,
    CommitRecord: _write_commit,
    PrepareRecord: _write_prepare,
    EndRecord: _write_end,
    BeginCheckpointRecord: _write_begin_checkpoint,
    EndCheckpointRecord: _write_end_checkpoint,
    CDPLRecord: _write_cdpl,
}


def encode_record(record: LogRecord) -> bytes:
    """Serialize a log record to bytes (the stable log stores these).

    The one place record bytes are built; consumers read
    ``record.frame``, which calls this once per record.
    """
    return _WRITERS[type(record)](record)


def decode_record(data: bytes) -> LogRecord:
    """Deserialize bytes produced by :func:`encode_record`."""
    fields = codec.decode(data)
    tag, lsn, client_id, txn_id, prev_lsn = fields[:5]
    cls = _TYPE_TAGS.get(tag)
    if cls is None:
        raise codec.CodecError(f"unknown log record tag {tag!r}")
    common = dict(lsn=lsn, client_id=client_id, txn_id=txn_id, prev_lsn=prev_lsn)
    body = fields[5:]
    if cls is UpdateRecord:
        page_id, op, slot, before, after, redo_only, key, page_kind = body
        return UpdateRecord(
            page_id=page_id, op=UpdateOp(op), slot=slot, before=before,
            after=after, redo_only=redo_only, key=key, page_kind=page_kind,
            **common,
        )
    if cls is CompensationRecord:
        undo_next_lsn, page_id, op, slot, after, key = body
        return CompensationRecord(
            undo_next_lsn=undo_next_lsn, page_id=page_id,
            op=UpdateOp(op) if op is not None else None,
            slot=slot, after=after, key=key, **common,
        )
    if cls is CommitRecord:
        return CommitRecord(**common)
    if cls is PrepareRecord:
        return PrepareRecord(locks=body[0], **common)
    if cls is EndRecord:
        return EndRecord(outcome=TxnOutcome(body[0]), **common)
    if cls is BeginCheckpointRecord:
        return BeginCheckpointRecord(owner=body[0], **common)
    if cls is EndCheckpointRecord:
        owner, dpl_raw, txn_raw = body
        return EndCheckpointRecord(
            owner=owner,
            dirty_pages=tuple(_decode_dpl_entry(e) for e in dpl_raw),
            transactions=tuple(_decode_txn_entry(t) for t in txn_raw),
            **common,
        )
    if cls is CDPLRecord:
        return CDPLRecord(
            entries=tuple(_decode_dpl_entry(e) for e in body[0]), **common
        )
    raise codec.CodecError(f"unhandled record class {cls.__name__}")


# ---------------------------------------------------------------------------
# Frame headers: lazy decoding for scan-heavy paths
# ---------------------------------------------------------------------------
#
# Every encoded frame opens with the same fixed *field layout* — a
# top-level tuple whose first five items are (type_tag, lsn, client_id,
# txn_id, prev_lsn) — and for the two redoable kinds the body leads with
# the fields recovery filters on (page_id for UPD; undo_next_lsn and
# page_id for CLR).  ``peek_header`` decodes only those fields, so the
# analysis/redo/undo passes can discard non-matching records without
# materializing slot images, lock lists or checkpoint tables.  The byte
# format itself is unchanged: a header peek reads the same bytes a full
# ``decode_record`` would, it just stops early.


class FrameHeader:
    """The filterable prefix of one encoded log record.

    ``page_id`` is ``-1`` for non-page records (matching the dummy-CLR
    convention); ``undo_next_lsn`` is ``NULL_LSN`` except for CLRs;
    ``redo_only`` is ``False`` except for redo-only updates.
    """

    __slots__ = (
        "type_tag", "lsn", "client_id", "txn_id",
        "prev_lsn", "page_id", "undo_next_lsn", "redo_only",
    )

    def __init__(self, type_tag: str, lsn: LSN, client_id: str,
                 txn_id: Optional[str], prev_lsn: LSN,
                 page_id: int = -1, undo_next_lsn: LSN = NULL_LSN,
                 redo_only: bool = False) -> None:
        self.type_tag = type_tag
        self.lsn = lsn
        self.client_id = client_id
        self.txn_id = txn_id
        self.prev_lsn = prev_lsn
        self.page_id = page_id
        self.undo_next_lsn = undo_next_lsn
        self.redo_only = redo_only

    @property
    def record_class(self) -> Type[LogRecord]:
        return _TYPE_TAGS[self.type_tag]

    @property
    def type_name(self) -> str:
        return _TYPE_TAGS[self.type_tag].__name__

    def is_update(self) -> bool:
        return self.type_tag == "UPD"

    def is_clr(self) -> bool:
        return self.type_tag == "CLR"

    def is_redoable(self) -> bool:
        """True for records that change a page image (update or CLR)."""
        return self.type_tag == "UPD" or self.type_tag == "CLR"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameHeader({self.type_tag} lsn={self.lsn} client={self.client_id}"
            f" txn={self.txn_id} prev={self.prev_lsn} page={self.page_id})"
        )


_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")

# Interned type-tag strings keyed by raw bytes, so the fast path never
# allocates for the tag.  Unknown tags fall through to the slow path,
# which reports them like decode_record would.
_TAG_BYTES_CACHE: Dict[bytes, str] = {tag.encode("ascii"): tag for tag in _TYPE_TAGS}

# Client/transaction ids repeat across millions of frames; cache their
# utf-8 decoding (bounded — id cardinality is tiny, but a scan over a
# hostile buffer must not grow this without limit).
_ID_CACHE: Dict[bytes, str] = {}
_ID_CACHE_LIMIT = 4096


def _decode_id(raw: bytes) -> str:
    cached = _ID_CACHE.get(raw)
    if cached is None:
        cached = raw.decode("utf-8")
        if len(_ID_CACHE) >= _ID_CACHE_LIMIT:
            _ID_CACHE.clear()
        _ID_CACHE[raw] = cached
    return cached


def peek_header(frame: codec.Buffer) -> FrameHeader:
    """Decode only the header fields of an encoded record frame.

    Agrees with :func:`decode_record` on every shared field (property
    tested) at a fraction of the cost.  Raises :class:`codec.CodecError`
    on malformed input, like a full decode would.
    """
    return peek_header_in(frame, 0, len(frame))


def peek_header_in(buf: codec.Buffer, start: int, end: int) -> FrameHeader:
    """Like :func:`peek_header` for a frame at ``[start, end)`` inside a
    larger buffer — the stable log peeks frames in place, with no slice.
    """
    header = _peek_fast(buf, start, end)
    if header is None:
        header = _peek_slow(bytes(buf[start:end]))
    return header


def _peek_fast(buf: codec.Buffer, off: int, end: int) -> Optional[FrameHeader]:
    """Straight-line parse of the common encoding; None on any surprise.

    "Surprise" covers both malformed input and rare-but-legal encodings
    (BIGINT lsns, non-str txn ids) — the slow path sorts out which.
    """
    try:
        # Top-level tuple tag + item count.
        if buf[off] != codec.ORD_TUPLE:
            return None
        off += 5
        # Item 0: type tag, a 3-byte string.
        if buf[off] != codec.ORD_STR:
            return None
        length = _U32.unpack_from(buf, off + 1)[0]
        type_tag = _TAG_BYTES_CACHE.get(bytes(buf[off + 5:off + 5 + length]))
        if type_tag is None:
            return None
        off += 5 + length
        # Items 1 and 3 onward follow the same shapes; small helpers
        # would cost a call each per frame, so this stays inline.
        if buf[off] != codec.ORD_INT:
            return None
        lsn = _I64.unpack_from(buf, off + 1)[0]
        off += 9
        if buf[off] != codec.ORD_STR:
            return None
        length = _U32.unpack_from(buf, off + 1)[0]
        client_id = _decode_id(bytes(buf[off + 5:off + 5 + length]))
        off += 5 + length
        txn_id: Optional[str]
        tag = buf[off]
        if tag == codec.ORD_NONE:
            txn_id = None
            off += 1
        elif tag == codec.ORD_STR:
            length = _U32.unpack_from(buf, off + 1)[0]
            txn_id = _decode_id(bytes(buf[off + 5:off + 5 + length]))
            off += 5 + length
        else:
            return None
        if buf[off] != codec.ORD_INT:
            return None
        prev_lsn = _I64.unpack_from(buf, off + 1)[0]
        off += 9
        if off > end:
            return None

        if type_tag == "UPD":
            if buf[off] != codec.ORD_INT:
                return None
            page_id = _I64.unpack_from(buf, off + 1)[0]
            off += 9
            # Skip op, slot, before, after to reach redo_only.
            for _ in range(4):
                off = codec.skip_value_at(buf, off, end)
            tag = buf[off]
            if tag == codec.ORD_TRUE:
                redo_only = True
            elif tag == codec.ORD_FALSE:
                redo_only = False
            else:
                return None
            if off >= end:
                return None
            return FrameHeader(type_tag, lsn, client_id, txn_id, prev_lsn,
                               page_id=page_id, redo_only=redo_only)
        if type_tag == "CLR":
            if buf[off] != codec.ORD_INT:
                return None
            undo_next_lsn = _I64.unpack_from(buf, off + 1)[0]
            if buf[off + 9] != codec.ORD_INT:
                return None
            page_id = _I64.unpack_from(buf, off + 10)[0]
            if off + 18 > end:
                return None
            return FrameHeader(type_tag, lsn, client_id, txn_id, prev_lsn,
                               page_id=page_id, undo_next_lsn=undo_next_lsn)
        return FrameHeader(type_tag, lsn, client_id, txn_id, prev_lsn)
    except (IndexError, struct.error, codec.CodecError):
        return None


def _peek_slow(frame: bytes) -> FrameHeader:
    """Codec-driven fallback for encodings the fast path declines
    (BIGINT fields, unusual id types) — and the arbiter of malformed
    input, raising the same :class:`codec.CodecError` a decode would.
    """
    if len(frame) < 5 or frame[0] != codec.ORD_TUPLE:
        raise codec.CodecError("frame does not start with a record tuple")
    count = _U32.unpack_from(frame, 1)[0]
    if count < 5:
        raise codec.CodecError(f"record tuple has only {count} fields")
    off = 5
    fields = []
    for _ in range(5):
        value, off = codec.decode_value_at(frame, off)
        fields.append(value)
    type_tag, lsn, client_id, txn_id, prev_lsn = fields
    if _TYPE_TAGS.get(type_tag) is None:
        raise codec.CodecError(f"unknown log record tag {type_tag!r}")
    page_id = -1
    undo_next_lsn: LSN = NULL_LSN
    redo_only = False
    if type_tag == "UPD":
        page_id, off = codec.decode_value_at(frame, off)
        for _ in range(4):
            off = codec.skip_value_at(frame, off, len(frame))
        redo_only, off = codec.decode_value_at(frame, off)
    elif type_tag == "CLR":
        undo_next_lsn, off = codec.decode_value_at(frame, off)
        page_id, off = codec.decode_value_at(frame, off)
    return FrameHeader(type_tag, lsn, client_id, txn_id, prev_lsn,
                       page_id=page_id, undo_next_lsn=undo_next_lsn,
                       redo_only=bool(redo_only))


def _encode_dpl_entry(entry: DirtyPageEntry) -> Tuple:
    return (entry.page_id, entry.rec_lsn, entry.rec_addr)


def _decode_dpl_entry(raw: Tuple) -> DirtyPageEntry:
    return DirtyPageEntry(page_id=raw[0], rec_lsn=raw[1], rec_addr=raw[2])


def _encode_txn_entry(entry: TxnTableEntry) -> Tuple:
    return (
        entry.txn_id,
        entry.client_id,
        entry.state,
        entry.last_lsn,
        entry.undo_next_lsn,
        entry.first_lsn,
    )


def _decode_txn_entry(raw: Tuple) -> TxnTableEntry:
    return TxnTableEntry(
        txn_id=raw[0], client_id=raw[1], state=raw[2],
        last_lsn=raw[3], undo_next_lsn=raw[4], first_lsn=raw[5],
    )
