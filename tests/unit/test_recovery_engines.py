"""Unit tests for the recovery engines (DESIGN.md section 13).

The randomized equivalence contract lives in
``tests/property/test_recovery_engine_props.py``; these tests pin the
factory, the fused engine against serial on one deterministic crash
state, and the fused undo's fallback when a reconnected client reissued
an LSN it had already logged.
"""

import pytest

from repro.config import SystemConfig
from repro.core.log_records import FrameHeader
from repro.core.lsn import NULL_LSN
from repro.core.recovery import RestartTxn
from repro.core.system import ClientServerSystem
from repro.recovery.engines import (
    ENGINE_NAMES,
    RecoveryContext,
    _ChainLookupMiss,
    _resolve_chains,
    make_engine,
)
from repro.workloads.generator import seed_table


def build_system(engine):
    config = SystemConfig(client_buffer_frames=4,
                          server_buffer_frames=8,
                          client_checkpoint_interval=0,
                          server_checkpoint_interval=0,
                          max_lsn_sync_period=4,
                          recovery_engine=engine)
    system = ClientServerSystem(config, client_ids=("C1", "C2"))
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 3)
    return system, rids


def crash_with_losers(engine):
    """Committed history from both clients plus one stranded loser each."""
    system, rids = build_system(engine)
    c1, c2 = system.client("C1"), system.client("C2")
    for i in range(6):
        client = c1 if i % 2 == 0 else c2
        txn = client.begin(f"ok-{i}")
        client.update(txn, rids[i % 4], ("committed", i))
        client.commit(txn)
    system.server.take_checkpoint()
    loser1, loser2 = c1.begin("loser-1"), c2.begin("loser-2")
    c1.update(loser1, rids[4], ("loser", 1))
    c2.update(loser2, rids[5], ("loser", 2))
    c1._ship_log_records()
    c2._ship_log_records()
    system.server.log.force()
    system.crash_all()
    return system, rids


class TestFactory:
    def test_engine_names_round_trip(self):
        for name in ENGINE_NAMES:
            assert make_engine(name).name == name

    def test_unknown_engine_lists_the_valid_names(self):
        with pytest.raises(ValueError) as err:
            make_engine("optimistic")
        for name in ENGINE_NAMES:
            assert name in str(err.value)


def reissued_lsn_crash(engine):
    """A loser whose first LSN C1 already logged before it crashed.

    A client's LSN clock does not survive its crash, so after reconnect
    the loser's first update gets ``page_LSN + 1`` of a page C1 last
    touched long ago — an LSN an older C1 transaction already used.
    """
    system, rids = build_system(engine)
    c1 = system.client("C1")
    for i in range(3):
        txn = c1.begin()
        c1.update(txn, rids[0], ("old", i))
        c1.commit(txn)
    system.crash_client("C1")
    system.reconnect_client("C1")
    loser = c1.begin()
    for rid in rids[3:6]:
        c1.update(loser, rid, ("loser",))
    c1._ship_log_records()
    system.server.log.force()
    first = next(header for _, header in system.server.log.scan_headers(0)
                 if header.txn_id == loser.txn_id)
    assert system.server.log.addr_of_lsn("C1", first.lsn) is None
    system.crash_all()
    return system, rids


class TestEnginesOnOneCrashState:
    def test_fused_pages_byte_identical_to_serial(self):
        serial_sys, rids = crash_with_losers("serial")
        serial_report = serial_sys.restart_all()
        fused_sys, _ = crash_with_losers("fused")
        fused_report = fused_sys.restart_all()

        assert fused_report.fallback is None
        assert fused_report.redos_applied == serial_report.redos_applied
        assert fused_report.clrs_written == serial_report.clrs_written
        assert fused_report.txns_rolled_back == serial_report.txns_rolled_back
        for rid in rids:
            serial_page = serial_sys.server_visible_page(rid.page_id)
            fused_page = fused_sys.server_visible_page(rid.page_id)
            assert fused_page.page_lsn == serial_page.page_lsn
            assert list(fused_page._records) == list(serial_page._records)


class TestFusedEngine:
    def test_default_engine_is_fused(self):
        system, _ = build_system(SystemConfig.recovery_engine)
        system.crash_all()
        assert system.restart_all().engine == "fused"

    def test_prepared_transaction_needs_no_fallback(self):
        system, rids = build_system("fused")
        c1 = system.client("C1")
        txn = c1.begin("in-doubt")
        c1.update(txn, rids[0], ("prepared", 1))
        c1.prepare(txn)
        c1._ship_log_records()
        system.server.log.force()
        system.crash_all()
        report = system.restart_all()
        assert report.fallback is None
        assert report.txns_rolled_back == 0


class TestChainLookupFallback:
    def test_fallback_still_recovers_correctly(self):
        serial_sys, rids = reissued_lsn_crash("serial")
        serial_report = serial_sys.restart_all()
        fused_sys, _ = reissued_lsn_crash("fused")
        fused_report = fused_sys.restart_all()

        assert fused_report.fallback == "undo-chain-lookup-miss"
        assert fused_report.clrs_written == serial_report.clrs_written == 3
        assert fused_report.txns_rolled_back == 1
        assert fused_sys.server_visible_value(rids[0]) == ("old", 2)
        for rid in rids:
            serial_page = serial_sys.server_visible_page(rid.page_id)
            fused_page = fused_sys.server_visible_page(rid.page_id)
            assert fused_page.page_lsn == serial_page.page_lsn
            assert list(fused_page._records) == list(serial_page._records)

    def test_reused_transaction_name_keeps_committed_work(self):
        # A client may reuse a transaction name once its table is gone:
        # the reconnected C1's loser "x" reissues the LSN of the old,
        # committed "x"'s second update, so only the LSN (not the
        # transaction id) tells the two records apart.
        system, rids = build_system("fused")
        c1 = system.client("C1")
        for i in range(2):
            pad = c1.begin()
            c1.update(pad, rids[6], ("pad", i))
            c1.commit(pad)
        old = c1.begin("x")
        c1.update(old, rids[0], ("old",))
        c1.update(old, rids[3], ("old",))
        c1.commit(old)
        system.crash_client("C1")
        system.reconnect_client("C1")
        loser = c1.begin("x")
        c1.update(loser, rids[0], ("loser",))
        c1.update(loser, rids[1], ("loser",))
        c1._ship_log_records()
        system.server.log.force()
        updates = [header.lsn for _, header in system.server.log.scan_headers(0)
                   if header.txn_id == "x" and header.is_update()]
        assert updates[2] == updates[1], "the loser must reissue an LSN"
        system.crash_all()
        report = system.restart_all()

        assert report.fallback == "undo-chain-lookup-miss"
        assert report.clrs_written == 2
        assert system.server_visible_value(rids[0]) == ("old",)
        assert system.server_visible_value(rids[3]) == ("old",)

    def test_lookup_landing_on_another_transaction_is_a_miss(self):
        class Log:
            def addr_of_lsn(self, client_id, lsn):
                return 7

            def header_at(self, addr):
                return FrameHeader(type_tag="UPD", lsn=9, client_id="C1",
                                   txn_id="C1.T2", prev_lsn=NULL_LSN)

        ctx = RecoveryContext(log=Log(), pages=None, clr_writer=None,
                              crashpoint_prefix="server.restart")
        loser = RestartTxn("C1.T8", "C1", last_lsn=9, undo_next_lsn=9)
        with pytest.raises(_ChainLookupMiss):
            _resolve_chains(ctx, {"C1.T8": loser})
