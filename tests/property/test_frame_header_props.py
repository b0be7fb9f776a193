"""Property tests: header peeking agrees with full decoding, and the
record writer agrees with the generic codec encoding.

``peek_header`` is the lazy fast path under every header-only scan in
recovery; if it ever disagrees with ``decode_record`` on any encodable
record, analysis/redo/undo would silently dispatch on wrong fields.
These properties pin the agreement for every record type, including the
shapes that force the slow path (BIGINT LSNs, unicode ids, ``None``
transaction ids, dummy CLRs).
"""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.core import codec
from repro.core.log_records import (
    BeginCheckpointRecord,
    CDPLRecord,
    CommitRecord,
    CompensationRecord,
    DirtyPageEntry,
    EndCheckpointRecord,
    EndRecord,
    NULL_LSN,
    PrepareRecord,
    TxnOutcome,
    TxnTableEntry,
    UpdateOp,
    UpdateRecord,
    _TYPE_TAGS,
    decode_record,
    encode_record,
    peek_header,
)

# LSNs including values past 2**63, which the codec stores as BIGINT —
# a tag the straight-line fast parser refuses, exercising the fallback.
lsns = st.one_of(
    st.integers(min_value=0, max_value=2 ** 62),
    st.integers(min_value=2 ** 63, max_value=2 ** 70),
)
client_ids = st.text(min_size=1, max_size=12)
txn_ids = st.one_of(st.none(), st.text(min_size=1, max_size=16))
payloads = st.one_of(st.none(), st.binary(max_size=64))


common = {
    "lsn": lsns, "client_id": client_ids,
    "txn_id": txn_ids, "prev_lsn": lsns,
}

updates = st.builds(
    UpdateRecord, **common,
    page_id=st.integers(min_value=0, max_value=2 ** 31),
    op=st.sampled_from(UpdateOp), slot=st.integers(-1, 64),
    before=payloads, after=payloads, redo_only=st.booleans(),
    key=payloads,
    page_kind=st.one_of(st.none(), st.sampled_from(["data", "index"])),
)

clrs = st.builds(
    CompensationRecord, **common,
    undo_next_lsn=st.one_of(st.just(NULL_LSN), lsns),
    # Dummy CLRs (op=None, page_id=-1) are the paper's way of making
    # partial rollbacks restartable; they must peek correctly too.
    page_id=st.integers(min_value=-1, max_value=2 ** 31),
    op=st.one_of(st.none(), st.sampled_from(UpdateOp)),
    slot=st.integers(-1, 64), after=payloads, key=payloads,
)

dpl_entries = st.lists(
    st.builds(DirtyPageEntry, page_id=st.integers(0, 100),
              rec_lsn=st.integers(0, 2 ** 40)),
    max_size=4).map(tuple)

records = st.one_of(
    updates,
    clrs,
    st.builds(CommitRecord, **common),
    st.builds(PrepareRecord, **common,
              locks=st.lists(st.tuples(st.text(max_size=8),
                                       st.text(max_size=4)),
                             max_size=3).map(tuple)),
    st.builds(EndRecord, **common, outcome=st.sampled_from(TxnOutcome)),
    st.builds(BeginCheckpointRecord, **common, owner=client_ids),
    st.builds(EndCheckpointRecord, **common, owner=client_ids,
              dirty_pages=dpl_entries),
    st.builds(CDPLRecord, **common, entries=dpl_entries),
)


class TestPeekHeaderProperties:
    @given(records)
    def test_peek_agrees_with_full_decode(self, record):
        frame = encode_record(record)
        full = decode_record(frame)
        header = peek_header(frame)
        assert header.record_class is type(full)
        assert header.type_name == type(full).__name__
        assert header.lsn == full.lsn
        assert header.client_id == full.client_id
        assert header.txn_id == full.txn_id
        assert header.prev_lsn == full.prev_lsn
        assert header.is_update() == isinstance(full, UpdateRecord)
        assert header.is_clr() == isinstance(full, CompensationRecord)
        assert header.is_redoable() == full.is_redoable()
        if isinstance(full, (UpdateRecord, CompensationRecord)):
            assert header.page_id == full.page_id
        if isinstance(full, UpdateRecord):
            assert header.redo_only == full.redo_only
        if isinstance(full, CompensationRecord):
            assert header.undo_next_lsn == full.undo_next_lsn

    @given(records, st.integers(0, 3), st.integers(0, 3))
    def test_peek_in_concatenated_buffer(self, record, before, after):
        """In-place peeking inside a larger buffer (the stable log's
        backing bytearray) sees exactly the framed record."""
        frame = encode_record(record)
        pre = encode_record(CommitRecord(
            lsn=1, client_id="pad", txn_id="P", prev_lsn=0)) * before
        post = b"\xff" * after
        buf = bytearray(pre + frame + post)
        from repro.core.log_records import peek_header_in
        header = peek_header_in(buf, len(pre), len(pre) + len(frame))
        assert header.lsn == record.lsn
        assert header.record_class is type(record)

    @given(st.binary(max_size=48))
    def test_garbage_never_crashes(self, blob):
        """Random bytes either peek (if they happen to be a valid frame
        prefix shape) or raise CodecError — never anything else."""
        try:
            peek_header(blob)
        except codec.CodecError:
            pass

    @given(records)
    def test_truncated_frames_rejected(self, record):
        frame = encode_record(record)
        with pytest.raises(codec.CodecError):
            peek_header(frame[:4])


# -- the record writer --------------------------------------------------------
#
# ``encode_record`` writes each record kind field by field.  The
# reference below is the generic path it replaced — the header+body
# tuple handed to ``codec.encode`` — kept here only to pin the writer
# to the same bytes.

_TAGS = {cls: tag for tag, cls in _TYPE_TAGS.items()}


def reference_encode(record):
    header = (_TAGS[type(record)], record.lsn, record.client_id,
              record.txn_id, record.prev_lsn)
    if isinstance(record, UpdateRecord):
        body = (record.page_id, record.op.value, record.slot, record.before,
                record.after, record.redo_only, record.key, record.page_kind)
    elif isinstance(record, CompensationRecord):
        body = (record.undo_next_lsn, record.page_id,
                record.op.value if record.op is not None else None,
                record.slot, record.after, record.key)
    elif isinstance(record, PrepareRecord):
        body = (record.locks,)
    elif isinstance(record, EndRecord):
        body = (record.outcome.value,)
    elif isinstance(record, BeginCheckpointRecord):
        body = (record.owner,)
    elif isinstance(record, EndCheckpointRecord):
        body = (
            record.owner,
            tuple((e.page_id, e.rec_lsn, e.rec_addr)
                  for e in record.dirty_pages),
            tuple((t.txn_id, t.client_id, t.state, t.last_lsn,
                   t.undo_next_lsn, t.first_lsn)
                  for t in record.transactions),
        )
    elif isinstance(record, CDPLRecord):
        body = (tuple((e.page_id, e.rec_lsn, e.rec_addr)
                      for e in record.entries),)
    else:
        body = ()
    return codec.encode(header + body)


# Wider than the peek strategies: negative and BIGINT values in every
# int field, non-str txn ids, bytearray images.
wide_ints = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.integers(min_value=2 ** 63, max_value=2 ** 70),
    st.integers(min_value=-(2 ** 70), max_value=-(2 ** 63) - 1),
)
wide_txn_ids = st.one_of(st.none(), st.text(max_size=16),
                         st.integers(-5, 2 ** 64))
wide_payloads = st.one_of(st.none(), st.binary(max_size=64),
                          st.binary(max_size=64).map(bytearray))

wide_common = {
    "lsn": wide_ints, "client_id": client_ids,
    "txn_id": wide_txn_ids, "prev_lsn": wide_ints,
}

txn_entries = st.lists(
    st.builds(TxnTableEntry, txn_id=st.text(max_size=8),
              client_id=client_ids, state=st.sampled_from(
                  ["active", "prepared", "committed"]),
              last_lsn=wide_ints, undo_next_lsn=wide_ints,
              first_lsn=wide_ints),
    max_size=3).map(tuple)

wide_dpl_entries = st.lists(
    st.builds(DirtyPageEntry, page_id=wide_ints, rec_lsn=wide_ints,
              rec_addr=wide_ints),
    max_size=4).map(tuple)

wide_records = st.one_of(
    st.builds(
        UpdateRecord, **wide_common, page_id=wide_ints,
        op=st.sampled_from(UpdateOp), slot=wide_ints,
        before=wide_payloads, after=wide_payloads,
        redo_only=st.booleans(), key=wide_payloads,
        page_kind=st.one_of(st.none(), st.text(max_size=8)),
    ),
    st.builds(
        CompensationRecord, **wide_common, undo_next_lsn=wide_ints,
        page_id=wide_ints, op=st.one_of(st.none(), st.sampled_from(UpdateOp)),
        slot=wide_ints, after=wide_payloads, key=wide_payloads,
    ),
    st.builds(CommitRecord, **wide_common),
    st.builds(PrepareRecord, **wide_common,
              locks=st.lists(st.tuples(st.tuples(st.text(max_size=4),
                                                 st.integers(0, 99)),
                                       st.text(max_size=4)),
                             max_size=3).map(tuple)),
    st.builds(EndRecord, **wide_common, outcome=st.sampled_from(TxnOutcome)),
    st.builds(BeginCheckpointRecord, **wide_common, owner=client_ids),
    st.builds(EndCheckpointRecord, **wide_common, owner=client_ids,
              dirty_pages=wide_dpl_entries, transactions=txn_entries),
    st.builds(CDPLRecord, **wide_common, entries=wide_dpl_entries),
)


class TestFrameWriterProperties:
    @given(st.one_of(records, wide_records))
    def test_frame_matches_generic_encoding(self, record):
        assert record.frame == reference_encode(record)
        assert encode_record(record) == record.frame

    @given(st.one_of(records, wide_records))
    def test_frame_round_trips(self, record):
        assert decode_record(record.frame) == record

    @given(wide_records)
    def test_frame_is_built_once(self, record):
        before = repr(record)
        assert record.frame is record.frame
        # The cached bytes are not a dataclass field, so repr, eq and
        # hash ignore them.  (Searching repr for "frame" flakes when a
        # generated string field contains that word.)
        assert "frame" not in {f.name for f in dataclasses.fields(record)}
        assert repr(record) == before
