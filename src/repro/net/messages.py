"""Message taxonomy for the simulated client-server wire.

The simulation is synchronous (a message is a counted method call), but
every interaction the paper describes is represented by a message type
so the benchmark harness can report traffic the way the paper's
comparisons reason about it — e.g. ESM-CS's extra PAGE_SHIP messages at
commit (experiment E1), or the LOCK_REQUEST round trips that the
Commit_LSN optimization and LLM lock caching avoid (experiment E4).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.core import codec
from repro.core.log_records import LogRecord
from repro.storage.page import Page


class MsgType(enum.Enum):
    #: Client asks the server for a page copy.
    PAGE_REQUEST = "page-request"
    #: A page image travels (either direction).
    PAGE_SHIP = "page-ship"
    #: A batch of client log records travels to the server.
    LOG_SHIP = "log-ship"
    #: Client fetches log records back from the server (rollback after steal).
    LOG_FETCH = "log-fetch"
    #: Global (logical) lock traffic.
    LOCK_REQUEST = "lock-request"
    LOCK_RELEASE = "lock-release"
    #: P-lock (update privilege) traffic.
    P_LOCK_REQUEST = "p-lock-request"
    P_LOCK_RELEASE = "p-lock-release"
    #: Server-initiated callback (relinquish a cached lock / give up a page).
    CALLBACK = "callback"
    #: Commit / prepare / abort control traffic.
    COMMIT_REQUEST = "commit-request"
    #: Checkpoint coordination (DPL requests and responses, ckpt records).
    CHECKPOINT = "checkpoint"
    #: Max_LSN / Commit_LSN piggyback distribution (section 3).
    LSN_SYNC = "lsn-sync"
    #: LSN assignment round trip (the strawman policy of experiment E10).
    LSN_REQUEST = "lsn-request"
    #: Log-replay transport (the paper's future-work mode): the client
    #: asks the server to materialize a page from already-shipped log
    #: records instead of shipping the image.
    MATERIALIZE = "materialize"
    #: Generic acknowledgement carrying no payload.
    ACK = "ack"


#: Fixed protocol overhead charged per message, in bytes.
MESSAGE_OVERHEAD = 48


def payload_size(payload: Any) -> int:
    """Estimate the wire size of a message payload in bytes."""
    if payload is None:
        return 0
    if isinstance(payload, Page):
        # A page transfer ships the whole fixed-size block, however
        # empty the slotted content happens to be.
        return payload.page_size
    if isinstance(payload, LogRecord):
        return len(payload.frame)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, int):
        return 8
    if isinstance(payload, (list, tuple)):
        return sum(payload_size(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            payload_size(key) + payload_size(value)
            for key, value in payload.items()
        )
    try:
        return len(codec.encode(payload))
    except codec.CodecError:
        return 32
