"""A second standby after a promotion, and a second promotion.

The promoted server answers on the first standby's node id, so a
standby attached after the promotion needs an id of its own (the second
generation is ``STANDBY-2``); reusing the id would hand the promoted
server's dispatcher to the new standby.  The complex then fails over
again and must still hold every committed value.
"""

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem
from repro.harness.oracle import CommittedStateOracle, verify_durability
from repro.replication import STANDBY_ID, standby_node_id


def test_promote_reattach_promote_keeps_committed_state():
    system = ClientServerSystem(
        SystemConfig(replication_enabled=True, seed=5),
        client_ids=("C1", "C2"))
    system.bootstrap(data_pages=6)
    system.create_table("t", 6)
    oracle = CommittedStateOracle()
    pages = system.table_pages("t")
    rids = []
    for i in range(4):
        client = system.client("C1" if i % 2 == 0 else "C2")
        txn = client.begin()
        rid = client.insert(txn, pages[i], ("v", i))
        client.commit(txn)
        oracle.note_committed_insert(rid, ("v", i))
        rids.append(rid)

    promoted_ids = []
    for generation in (1, 2):
        replication = system.replication
        assert replication.generation == generation
        assert replication.standby.node_id == standby_node_id(generation)
        for i, rid in enumerate(rids):
            client = system.client("C2" if i % 2 == 0 else "C1")
            txn = client.begin()
            client.update(txn, rid, ("gen", generation, i))
            client.commit(txn)
            oracle.note_committed_update(rid, ("gen", generation, i))
        loser_client = system.client("C1")
        loser = loser_client.begin()
        loser_client.update(loser, rids[1], ("loser", generation))
        oracle.note_uncommitted_value(rids[1], ("loser", generation))

        system.crash_server()
        promoted = replication.run_failover()
        promoted_ids.append(promoted.node_id)
        assert system.server is promoted
        loser_client.rollback(loser)
        verify_durability(oracle, system, "current")
        if generation == 1:
            system.attach_replication()

    assert promoted_ids == [STANDBY_ID, f"{STANDBY_ID}-2"]
    # The promoted-twice complex keeps committing.
    client = system.client("C2")
    txn = client.begin()
    client.update(txn, rids[0], "after")
    client.commit(txn)
    oracle.note_committed_update(rids[0], "after")
    verify_durability(oracle, system, "current")
    # And a whole-complex crash on top recovers from the promoted log.
    system.crash_all()
    system.restart_all()
    verify_durability(oracle, system, "server")
