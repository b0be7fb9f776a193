"""Replication apply-seam check (warm standby, DESIGN.md section 15).

REP001 — standby durable state changes only through the replication
apply seam.

The failover durability oracle rests on one invariant: every byte of
the standby's durable state (the log replica, the page replica, the
master replica) is a function of the shipped ``(addr, frame)`` stream
and nothing else.  That is what makes the promotion boundary — the ship
high-water the primary was acknowledged up to — a correct survivor
boundary, and what makes the replicated chaos sweep's durability
digests byte-identical to the single-node sweep's.

So replication code funnels every durable write through four seam
methods, each of which writes only what the forced ship prefix (or the
bootstrap snapshot, which defines address zero of that prefix) dictates:

* ``_append_frame``       — one shipped frame into the log replica
* ``_append_checkpoint``  — one promotion-checkpoint record
* ``_install_page``       — one page image into the page replica
* ``install_bootstrap``   — the snapshot that (re)seeds the replicas

A ``disk.write_page`` / ``log.append_local`` (or its ``*_frame``
byte-level twins) / ``stable.open_at`` from
any *other* replication scope is durable state the ship stream did not
produce — the parity harness cannot see it, and a promotion could
surface bytes the old primary never acknowledged.

The rule applies only to replication modules (a ``replication/`` path
component or a ``replication*`` module name); the primary's own write
paths are covered by the WAL rules.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Iterator

from repro.analysis.checkers.base import Checker
from repro.analysis.findings import Finding
from repro.analysis.project import (
    FunctionScope, Project, call_name, call_receiver,
)

#: The only scopes allowed to write durable replica state.
APPLY_SEAM_METHODS = {
    "_append_frame", "_append_checkpoint", "_install_page",
    "install_bootstrap",
}

#: Durable-write calls regardless of receiver.
DURABLE_WRITE_METHODS = {
    "write_page", "append_local", "append_from_client", "open_at",
    "append_local_frame", "append_client_frame",
}

#: ``append`` is a durable write only on a stable-log receiver; bare
#: ``list.append`` bookkeeping is everywhere and fine.
STABLE_RECEIVER_METHODS = {"append", "append_frame"}


def _is_replication_module(scope: FunctionScope) -> bool:
    parts = PurePosixPath(scope.module.relpath).parts
    return any(part == "replication" for part in parts[:-1]) \
        or parts[-1].startswith("replication")


class ReplicationSeamChecker(Checker):
    RULES = {
        "REP001": "standby durable state written outside the replication "
                  "apply seam (_append_frame / _append_checkpoint / "
                  "_install_page / install_bootstrap)",
    }

    def check_function(self, scope: FunctionScope,
                       project: Project) -> Iterator[Finding]:
        if not _is_replication_module(scope):
            return
        if scope.name in APPLY_SEAM_METHODS:
            return
        for call in scope.calls():
            name = call_name(call)
            receiver = call_receiver(call) or ""
            durable = name in DURABLE_WRITE_METHODS or (
                name in STABLE_RECEIVER_METHODS
                and (receiver == "stable" or receiver.endswith(".stable")))
            if not durable:
                continue
            yield self.found(
                scope, call, "REP001",
                f"{name}() writes durable replica state outside the "
                "apply seam — these bytes are not a function of the "
                "shipped stream, so digest parity and the promotion "
                "boundary cannot account for them",
                "route the write through _append_frame / "
                "_append_checkpoint / _install_page / install_bootstrap",
            )
