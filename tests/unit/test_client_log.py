"""Unit tests for the client's virtual-storage log manager."""

import pytest

from repro.core.client_log import ClientLogManager
from repro.core.log_records import CommitRecord, UpdateOp, UpdateRecord
from repro.core.lsn import NULL_ADDR


def update(lsn, txn="T1"):
    return UpdateRecord(lsn=lsn, client_id="C1", txn_id=txn, prev_lsn=lsn - 1,
                        page_id=1, op=UpdateOp.RECORD_MODIFY, slot=0,
                        before=b"a", after=b"b")


@pytest.fixture
def clm():
    return ClientLogManager("C1")


class TestShipping:
    def test_unshipped_in_order(self, clm):
        for lsn in (1, 2, 3):
            clm.append(update(lsn))
        assert [r.lsn for r in clm.unshipped()] == [1, 2, 3]
        assert clm.has_unshipped()

    def test_note_shipped_moves_cursor(self, clm):
        clm.append(update(1))
        clm.append(update(2))
        clm.note_shipped([(1, 0), (2, 100)])
        assert clm.unshipped() == []
        clm.append(update(3))
        assert [r.lsn for r in clm.unshipped()] == [3]

    def test_out_of_order_ack_rejected(self, clm):
        clm.append(update(1))
        clm.append(update(2))
        with pytest.raises(ValueError):
            clm.note_shipped([(2, 0)])


class TestPruning:
    def test_prune_only_stable(self, clm):
        """A record is discarded only once stable at the server — the
        section 2.1 rule."""
        clm.append(update(1))
        clm.append(update(2))
        clm.note_shipped([(1, 0), (2, 100)])
        assert clm.prune_stable(100) == 1   # only addr 0 is below 100
        assert clm.buffered_count() == 1

    def test_unshipped_never_pruned(self, clm):
        clm.append(update(1))
        assert clm.prune_stable(10_000) == 0
        assert clm.buffered_count() == 1

    def test_prune_all(self, clm):
        for lsn in (1, 2):
            clm.append(update(lsn))
        clm.note_shipped([(1, 0), (2, 100)])
        assert clm.prune_stable(10_000) == 2
        assert clm.buffered_count() == 0
        # Shipping continues to work afterwards.
        clm.append(update(3))
        assert [r.lsn for r in clm.unshipped()] == [3]


class TestRequeue:
    def test_requeue_after_server_crash(self, clm):
        """Records whose addresses died with the server's unforced tail
        must ship again."""
        for lsn in (1, 2, 3):
            clm.append(update(lsn))
        clm.note_shipped([(1, 0), (2, 100), (3, 200)])
        # Server crashed having forced only through addr 100.
        requeued = clm.requeue_unstable(100)
        assert requeued == 2
        assert [r.lsn for r in clm.unshipped()] == [2, 3]

    def test_requeue_nothing_when_all_stable(self, clm):
        clm.append(update(1))
        clm.note_shipped([(1, 0)])
        assert clm.requeue_unstable(10_000) == 0


class TestReplay:
    def test_unstable_records_with_old_addrs(self, clm):
        for lsn in (1, 2, 3):
            clm.append(update(lsn))
        clm.note_shipped([(1, 0), (2, 100), (3, 200)])
        lost = clm.unstable_records(server_flushed_addr=100)
        assert [(addr, record.lsn) for addr, record in lost] == \
            [(100, 2), (200, 3)]

    def test_unshipped_not_in_unstable_set(self, clm):
        clm.append(update(1))
        clm.note_shipped([(1, 0)])
        clm.append(update(2))   # never shipped
        lost = clm.unstable_records(server_flushed_addr=0)
        assert [record.lsn for _, record in lost] == [1]

    def test_note_replayed_updates_address(self, clm):
        clm.append(update(1))
        clm.note_shipped([(1, 50)])
        clm.note_replayed(1, 500)
        # Now stable only relative to the new address.
        assert clm.prune_stable(400) == 0
        assert clm.prune_stable(600) == 1

    def test_note_replayed_unknown_lsn_rejected(self, clm):
        with pytest.raises(ValueError):
            clm.note_replayed(42, 100)

    def test_note_replayed_unshipped_lsn_rejected(self, clm):
        clm.append(update(1))  # buffered, never shipped
        with pytest.raises(ValueError):
            clm.note_replayed(1, 100)

    def test_note_replayed_pruned_lsn_rejected(self, clm):
        clm.append(update(1))
        clm.note_shipped([(1, 0)])
        clm.prune_stable(100)
        with pytest.raises(ValueError):
            clm.note_replayed(1, 200)

    def test_long_tail_replays_every_address(self, clm):
        count = 5_000
        for lsn in range(1, count + 1):
            clm.append(update(lsn))
        clm.note_shipped([(lsn, lsn * 10) for lsn in range(1, count + 1)])
        lost = clm.unstable_records(server_flushed_addr=10)
        assert len(lost) == count
        for new_addr, (_old, record) in enumerate(lost):
            clm.note_replayed(record.lsn, 1_000_000 + new_addr)
        assert [addr for addr, _ in clm.unstable_records(0)] == \
            list(range(1_000_000, 1_000_000 + count))

    def test_replay_then_unshipped_flow(self, clm):
        """The full restart sequence: replay the lost tail, then ship
        the never-shipped remainder, then prune everything."""
        for lsn in (1, 2, 3):
            clm.append(update(lsn))
        clm.note_shipped([(1, 0), (2, 100)])
        # Server crash truncated at addr 100: record 2 lost, 3 unshipped.
        lost = clm.unstable_records(100)
        assert [record.lsn for _, record in lost] == [2]
        clm.note_replayed(2, 300)
        clm.note_shipped([(3, 400)])
        assert clm.prune_stable(10_000) == 3
        assert clm.buffered_count() == 0


class TestRollbackLookup:
    def test_find_local(self, clm):
        clm.append(update(1, txn="T1"))
        clm.append(update(2, txn="T2"))
        record = clm.find_local("T1", 1)
        assert record is not None and record.lsn == 1
        assert clm.find_local("T1", 2) is None
        assert clm.find_local("T9", 1) is None

    def test_pruned_record_not_found(self, clm):
        clm.append(update(1))
        clm.note_shipped([(1, 0)])
        clm.prune_stable(10_000)
        assert clm.find_local("T1", 1) is None


class TestCrash:
    def test_crash_clears_everything(self, clm):
        clm.append(update(1))
        clm.crash()
        assert clm.buffered_count() == 0
        assert not clm.has_unshipped()
        assert clm.clock.local_max_lsn == 0

    def test_lsn_assignment_delegates_to_clock(self, clm):
        assert clm.next_lsn() == 1
        assert clm.next_lsn(page_lsn=10) == 11
