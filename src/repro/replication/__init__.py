"""Log-shipped warm standby, failure detection, and fenced failover.

DESIGN §15.  The primary ships every durable log frame — addresses
included — to a :class:`~repro.replication.standby.StandbyServer` over
the typed RPC transport; a heartbeat failure detector watches the
primary; and :class:`~repro.replication.manager.ReplicationManager`
drives the follower → candidate → primary state machine that fences the
old primary behind a bumped cluster epoch and promotes the standby by
rolling forward only its unapplied log tail.
"""

from repro.replication.manager import ReplicationManager
from repro.replication.standby import StandbyServer
from repro.replication.stream import STANDBY_ID, ShipBatch, standby_node_id

__all__ = [
    "ReplicationManager",
    "ShipBatch",
    "StandbyServer",
    "STANDBY_ID",
    "standby_node_id",
]
