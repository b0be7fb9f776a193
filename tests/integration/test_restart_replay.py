"""Server restart replays the survivors' lost log tails.

With group commit deferring every commit force, a server crash loses a
long unstable tail from each surviving client; restart re-appends those
records in original address order and tells each client the new
address of every record (``ClientLogManager.note_replayed``, an index
lookup per record).  The reassigned addresses are pinned to the values
the original buffer-scanning implementation produced.
"""

from repro.config import SystemConfig
from repro.core.system import ClientServerSystem


def long_tail_complex():
    system = ClientServerSystem(
        SystemConfig(seed=9, group_commit_window=100_000,
                     client_checkpoint_interval=0,
                     server_checkpoint_interval=0),
        client_ids=("C1", "C2"))
    system.bootstrap(data_pages=8)
    system.create_table("t", 8)
    pages = system.table_pages("t")
    rids = {}
    for cid, base in (("C1", 0), ("C2", 4)):
        client = system.client(cid)
        txn = client.begin()
        rids[cid] = [client.insert(txn, pages[base + i % 4], (cid, i))
                     for i in range(8)]
        client.commit(txn)
    system.server.log.force()
    for step in range(400):
        cid = "C1" if step % 3 else "C2"
        client = system.client(cid)
        txn = client.begin()
        client.update(txn, rids[cid][step % 8], (cid, "s", step))
        client.commit(txn)
    return system


def test_long_unstable_tail_gets_the_same_addresses():
    system = long_tail_complex()
    flushed = system.server.log.flushed_addr
    lost = {cid: len(system.client(cid).log.unstable_records(flushed))
            for cid in ("C1", "C2")}
    assert lost == {"C1": 798, "C2": 402}

    system.crash_server()
    system.restart_server()

    pinned = {
        # count, first two and last two (lsn, addr), sum of addresses
        "C1": (799, [(10, 2292), (11, 2362)], [(810, 116134), (811, 116480)],
               47200481),
        "C2": (403, [(16, 2016), (17, 2086)], [(798, 116422), (799, 116552)],
               23836250),
    }
    log = system.server.log
    for cid, (count, head, tail, addr_sum) in pinned.items():
        entries = [(entry.record.lsn, entry.addr)
                   for entry in system.client(cid).log._buffer]
        assert (len(entries), entries[:2], entries[-2:],
                sum(addr for _, addr in entries)) == \
            (count, head, tail, addr_sum)
        for lsn, addr in entries:
            assert log.addr_of_lsn(cid, lsn) == addr
            assert log.read_at(addr).lsn == lsn
