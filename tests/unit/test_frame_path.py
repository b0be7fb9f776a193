"""One encode per log record, and its frame bytes end to end.

A record's frame (``LogRecord.frame``) is encoded once, on first use;
the wire-size charge, the server log append and the standby ship all
reuse those bytes.  These tests pin the encode count of one commit, the
wire accounting (byte for byte what it was when every consumer
re-encoded), and the byte-level ship stream: the primary ships stored
frames undecoded and the standby appends them as they are.
"""

import pytest

from repro.config import SystemConfig
from repro.core import log_records
from repro.core.commit_lsn import GlobalTransactionTracker
from repro.core.log_records import CommitRecord, UpdateOp, UpdateRecord
from repro.core.system import ClientServerSystem
from repro.net.messages import payload_size
from repro.storage.stable_log import FRAME_OVERHEAD, StableLog


def update_record(lsn=7, txn="T1"):
    return UpdateRecord(lsn=lsn, client_id="C1", txn_id=txn,
                        prev_lsn=lsn - 1, page_id=3,
                        op=UpdateOp.RECORD_MODIFY, slot=2,
                        before=b"old", after=b"new")


@pytest.fixture
def count_encodes(monkeypatch):
    """Counts every ``encode_record`` call, however it is reached."""
    calls = []
    original = log_records.encode_record

    def counting(record):
        calls.append(type(record).__name__)
        return original(record)

    monkeypatch.setattr(log_records, "encode_record", counting)
    return calls


# -- the cached frame ---------------------------------------------------------

class TestFrame:
    def test_frame_is_the_encoding(self):
        record = update_record()
        assert record.frame == log_records.encode_record(record)
        assert log_records.decode_record(record.frame) == record

    def test_frame_encodes_once(self, count_encodes):
        record = update_record()
        first = record.frame
        assert record.frame is first
        assert payload_size(record) == len(first)
        assert count_encodes == ["UpdateRecord"]

    def test_frame_is_not_a_field(self):
        record = update_record()
        _ = record.frame
        assert record == update_record()
        assert hash(record) == hash(update_record())

    def test_decoded_records_carry_no_frame_until_asked(self):
        record = log_records.decode_record(update_record().frame)
        assert "frame" not in vars(record)

    def test_single_update_commit_encodes_each_record_once(
            self, count_encodes):
        system = ClientServerSystem(SystemConfig(), client_ids=("C1",))
        system.bootstrap(data_pages=2)
        system.create_table("t", 2)
        client = system.client("C1")
        txn = client.begin()
        rid = client.insert(txn, system.table_pages("t")[0], "seed")
        client.commit(txn)
        stable = system.server.log.stable
        appends = stable.appends
        del count_encodes[:]

        txn = client.begin()
        client.update(txn, rid, "value")
        client.commit(txn)

        appended = stable.appends - appends
        assert appended == 3  # update, commit, end
        assert len(count_encodes) == appended


# -- wire accounting ----------------------------------------------------------

def two_client_history():
    system = ClientServerSystem(SystemConfig(seed=3),
                                client_ids=("C1", "C2"))
    system.bootstrap(data_pages=4)
    system.create_table("t", 4)
    pages = system.table_pages("t")
    c1, c2 = system.client("C1"), system.client("C2")
    txn = c1.begin()
    rids = [c1.insert(txn, pages[i % 2], ("v", i)) for i in range(4)]
    c1.commit(txn)
    txn = c2.begin()
    c2.update(txn, rids[0], "from-c2")  # the page moves C1 -> C2
    c2.insert(txn, pages[2], b"bytes-value")
    c2.commit(txn)
    loser = c1.begin()
    c1.update(loser, rids[1], "loser")
    other = c1.begin()
    c1.update(other, rids[3], "other")
    c1.commit(other)  # forces the loser's records too: they are pruned
    c1.rollback(loser)  # and fetched back from the server
    c1.take_checkpoint()
    system.server.take_checkpoint()
    txn = c2.begin()
    c2.update(txn, rids[2], "c2-again")
    c2.commit(txn)
    system.crash_client("C2")
    system.crash_all()
    system.restart_all()
    return system.network.stats


def replicated_history():
    system = ClientServerSystem(
        SystemConfig(replication_enabled=True, seed=7,
                     standby_apply_interval=4),
        client_ids=("C1", "C2"))
    system.bootstrap(data_pages=4)
    system.create_table("t", 4)
    pages = system.table_pages("t")
    rids = []
    for i in range(6):
        client = system.client("C1" if i % 2 == 0 else "C2")
        txn = client.begin()
        rids.append(client.insert(txn, pages[i % 4], ("r", i)))
        client.commit(txn)
    for i, rid in enumerate(rids):
        client = system.client("C2" if i % 2 == 0 else "C1")
        txn = client.begin()
        client.update(txn, rid, ("u", i))
        client.commit(txn)
    system.crash_server()
    system.replication.run_failover()
    client = system.client("C1")
    txn = client.begin()
    client.update(txn, rids[0], "after")
    client.commit(txn)
    return system.network.stats


def per_type(stats):
    return {msg_type.value: (stats.by_type[msg_type],
                             stats.bytes_by_type[msg_type])
            for msg_type in stats.by_type}


class TestTrafficAccounting:
    """(messages, bytes) per message type, as charged when every
    consumer encoded records for itself."""

    def test_two_client_history(self):
        assert per_type(two_client_history()) == {
            "callback": (3, 178),
            "checkpoint": (7, 534),
            "commit-request": (4, 212),
            "lock-request": (9, 547),
            "log-fetch": (2, 228),
            "log-ship": (6, 1889),
            "p-lock-request": (4, 224),
            "page-ship": (5, 20720),
        }

    def test_replicated_history(self):
        assert per_type(replicated_history()) == {
            "callback": (11, 651),
            "commit-request": (13, 689),
            "lock-request": (15, 913),
            "log-ship": (45, 7924),
            "p-lock-request": (9, 504),
            "page-ship": (13, 53872),
        }

    def test_shipped_pair_is_sized_like_the_record_pair(self):
        record = update_record()
        assert payload_size(((64, record.frame),)) == \
            8 + len(record.frame) == payload_size(((64, record),))


# -- the byte-level ship stream -----------------------------------------------

class TestShipBytes:
    def test_append_frame_is_the_append_path(self):
        by_record, by_frame = StableLog(), StableLog()
        records = [update_record(1), CommitRecord(
            lsn=2, client_id="C1", txn_id="T1", prev_lsn=1)]
        assert [by_record.append(r) for r in records] == \
            [by_frame.append_frame(r.frame, r.lsn) for r in records]
        assert by_record.bytes_appended == by_frame.bytes_appended == \
            sum(len(r.frame) + FRAME_OVERHEAD for r in records)
        assert list(by_frame.scan()) == list(by_record.scan())

    def test_scan_frames_returns_stored_bytes_undecoded(self):
        log = StableLog()
        records = [update_record(lsn) for lsn in (1, 2, 3)]
        addrs = [log.append(r) for r in records]
        frames = list(log.scan_frames(addrs[1]))
        assert frames == [(addrs[1], records[1].frame),
                          (addrs[2], records[2].frame)]
        assert all(type(frame) is bytes for _, frame in frames)
        assert log.full_decodes == 0 and log.header_peeks == 0

    def test_ship_and_receive_decode_nothing(self):
        system = ClientServerSystem(
            SystemConfig(replication_enabled=True, seed=5,
                         standby_apply_interval=10_000),
            client_ids=("C1",))
        system.bootstrap(data_pages=2)
        system.create_table("t", 2)
        primary, standby = system.server, system.replication.standby
        before = (primary.log.stable.full_decodes,
                  standby.log.stable.full_decodes)
        client = system.client("C1")
        for value in ("a", "b", "c"):
            txn = client.begin()
            client.insert(txn, system.table_pages("t")[0], value)
            client.commit(txn)
        assert system.replication.frames_shipped > 0
        assert (primary.log.stable.full_decodes,
                standby.log.stable.full_decodes) == before
        flushed = primary.log.flushed_addr
        assert list(standby.log.scan_frames(0, flushed)) == \
            list(primary.log.scan_frames(0, flushed))

    def test_standby_bookkeeping_matches_a_decoding_observer(self):
        """Header-fed tracker and unapplied map equal what feeding the
        decoded records would have built."""
        system = ClientServerSystem(
            SystemConfig(replication_enabled=True, seed=5,
                         standby_apply_interval=10_000),
            client_ids=("C1", "C2"))
        system.bootstrap(data_pages=4)
        system.create_table("t", 4)
        pages = system.table_pages("t")
        open_txns = set()
        for i, cid in enumerate(("C1", "C2", "C1")):
            client = system.client(cid)
            txn = client.begin()
            client.insert(txn, pages[i], (cid, i))
            client.commit(txn)
            txn = client.begin()
            client.insert(txn, pages[i + 1], (cid, "open"))
            open_txns.add(txn.txn_id)
        system.server.log.force()
        system.replication.ship()
        standby = system.replication.standby
        decoded = GlobalTransactionTracker()
        unapplied = {}
        for addr, record in standby.log.scan():
            decoded.observe(record, addr)
            if addr >= standby.applied_addr and record.is_redoable() \
                    and record.page_id >= 0:
                unapplied.setdefault(record.page_id, addr)
        assert standby._unapplied == unapplied

        def view(tracker):
            return sorted((t.txn_id, t.client_id, t.state, t.first_lsn,
                           t.last_lsn, t.undo_next_lsn, tuple(t.records))
                          for t in tracker.in_progress())

        assert view(standby.tracker) == view(decoded)
        # C1's last open transaction never shipped: nothing committed
        # on C1 after it.
        assert {row[0] for row in view(decoded)} == open_txns - {"C1.T4"}
