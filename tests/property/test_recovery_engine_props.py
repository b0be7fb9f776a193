"""Property: the fused engine restarts to serial's durable state.

The fused engine and the serial reference must agree on randomized
crash states: identical record values everywhere, identical redo, CLR
and rollback counts, and byte-identical page images including
page_LSNs.  Histories include client crashes: a reconnected client's
LSN clock starts over, so it reissues LSNs it already logged, and the
fused engine's chain-walk undo must not be fooled by them.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.errors import RecordNotFoundError
from repro.workloads.generator import seed_table

SLOW = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ENGINES = ("serial", "fused")

#: One step per transaction: (client 0/1, rid choice, outcome, ckpt?).
#: Outcomes: 0 = commit, 1 = rollback, 2 = strand (left in flight),
#: 3 = no transaction: crash the client (the server recovers it) and
#: reconnect it.
steps = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 5),
              st.integers(0, 3), st.booleans()),
    min_size=1, max_size=14)


def build_crash_state(engine, script):
    """Replay ``script`` deterministically, then crash the complex.

    Each client works a disjoint half of the rid space, and a rid with
    a stranded (still-in-flight) transaction on it is skipped for the
    rest of the run, so the script never deadlocks on stranded locks.
    """
    config = SystemConfig(client_buffer_frames=4,
                          server_buffer_frames=6,
                          client_checkpoint_interval=0,
                          server_checkpoint_interval=0,
                          max_lsn_sync_period=4,
                          recovery_engine=engine)
    system = ClientServerSystem(config, client_ids=("C1", "C2"))
    system.bootstrap(data_pages=4, free_pages=4)
    rids = seed_table(system, "C1", "t", 4, 3)
    clients = (system.client("C1"), system.client("C2"))
    stranded_rids = set()
    for index, (who, rid_index, outcome, ckpt) in enumerate(script):
        client = clients[who]
        if outcome == 3:
            # Client recovery rolls the client's stranded transactions
            # back; their rids stay skipped, which is merely cautious.
            system.crash_client(client.client_id)
            system.reconnect_client(client.client_id)
            continue
        # Clients own alternating rids; dodge rids locked by a stranded
        # transaction (theirs or anyone's).
        mine = [r for i, r in enumerate(rids)
                if i % 2 == who and r not in stranded_rids]
        if not mine:
            continue
        rid = mine[rid_index % len(mine)]
        txn = client.begin(f"p-{index}")
        client.update(txn, rid, ("step", index))
        if outcome == 0:
            client.commit(txn)
        elif outcome == 1:
            client.rollback(txn)
        else:
            stranded_rids.add(rid)
            client._ship_log_records()
            system.server.log.force()
        if ckpt:
            system.server.take_checkpoint()
    system.crash_all()
    return system, rids


def restart_under(engine, script):
    system, rids = build_crash_state(engine, script)
    report = system.restart_all()
    values = {}
    for rid in rids:
        try:
            values[(rid.page_id, rid.slot)] = system.current_value(rid)
        except RecordNotFoundError:
            values[(rid.page_id, rid.slot)] = None
    pages = {}
    for page_id in sorted({rid.page_id for rid in rids}):
        page = system.server_visible_page(page_id)
        pages[page_id] = (page.page_lsn, list(page._records))
    return report, values, pages


class TestEngineEquivalence:
    @SLOW
    @given(steps)
    def test_engines_agree_on_randomized_crash_states(self, script):
        results = {e: restart_under(e, script) for e in ENGINES}
        serial_report, serial_values, serial_pages = results["serial"]
        report, values, pages = results["fused"]
        # Same durable values, the same loser set, and byte-identical
        # page images (page_LSNs included).
        assert values == serial_values
        assert report.txns_rolled_back == serial_report.txns_rolled_back
        assert report.clrs_written == serial_report.clrs_written
        assert pages == serial_pages

    @SLOW
    @given(steps)
    def test_fused_matches_serial_counters(self, script):
        serial_report, _, _ = restart_under("serial", script)
        fused_report, _, _ = restart_under("fused", script)
        assert fused_report.redos_applied == serial_report.redos_applied
        assert fused_report.clrs_written == serial_report.clrs_written
        assert fused_report.txns_rolled_back == serial_report.txns_rolled_back
