"""Layer spans recorded from outside the library.

The library has no per-layer time accounting of its own, so the traced
run wraps the public entry points of each ``repro`` layer (class
methods and module functions) with a span recorder.  A span opens when
control crosses *into* a layer from a different one; calls that stay
inside the layer run unwrapped, so a span is one layer boundary, not
one call.  A layer's self time is its spans' durations minus the time
their child spans cover; ``other`` is whatever the root span covers
that no layer does (the benchmark loop, input generation, stdlib).

Generator entry points (the stable log's scans) are wrapped per
``next()``, so the work of producing each item is charged to the layer
that owns the generator, not to whoever iterates it.

The span clock is ``time.perf_counter_ns``: a read costs about 100 ns,
against about 400 ns for the process CPU clock, and the benchmark is a
single CPU-bound thread, so the two differ only by preemption.  The
end-to-end figures are CPU time from untraced runs; these spans only
say how that time splits.

The cyclic garbage collector gets a span of its own (layer ``gc``,
from ``gc.callbacks``) when it interrupts a library layer; a
collection the benchmark's own code triggers or asks for stays in
``other``.

Only the first :data:`SPAN_CAP` spans are kept for the span file;
self time and call counts cover every span.
"""

from __future__ import annotations

import functools
import gc
import gzip
import inspect
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Layer name -> entry points, as ``module:Class`` (every public method
#: the class itself defines) or ``module:function``.  Order is the
#: report's row order; ``other`` is appended last.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("client", ("repro.core.client:Client",)),
    ("server", ("repro.core.server:Server",)),
    ("codec", (
        "repro.core.codec:encode",
        "repro.core.codec:decode",
        "repro.core.codec:decode_value_at",
        "repro.core.codec:skip_value_at",
        "repro.core.log_records:encode_record",
        "repro.core.log_records:decode_record",
        "repro.core.log_records:peek_header",
        "repro.core.log_records:peek_header_in",
    )),
    ("stable_log", ("repro.storage.stable_log:StableLog",)),
    ("buffer_pool", (
        "repro.storage.buffer_pool:BufferPool",
        "repro.storage.disk:Disk",
    )),
    ("locking", (
        "repro.locking.lock_table:LockTable",
        "repro.locking.glm:GlobalLockManager",
        "repro.locking.llm:LocalLockManager",
        "repro.locking.deadlock:WaitsForGraph",
    )),
    ("net", (
        "repro.net.network:Network",
        "repro.net.rpc:RpcStub",
        "repro.net.rpc:RpcDispatcher",
    )),
    ("engine", ("repro.engine.core:Engine",)),
    ("recovery", (
        "repro.core.server:Server.restart",
        "repro.core.server:Server.recover_failed_client",
        "repro.core.recovery:analysis_pass",
        "repro.core.recovery:redo_pass",
        "repro.core.recovery:undo_pass",
        "repro.recovery.engines:SerialRecoveryEngine",
        "repro.recovery.engines:PartitionedRecoveryEngine",
        "repro.recovery.engines:RedoOnlyRecoveryEngine",
    )),
    ("replication", (
        "repro.replication.manager:ReplicationManager",
        "repro.replication.standby:StandbyServer",
    )),
)

LAYER_NAMES: Tuple[str, ...] = (
    tuple(name for name, _ in LAYERS) + ("gc", "other"))
GC = len(LAYER_NAMES) - 2
OTHER = len(LAYER_NAMES) - 1

#: Spans kept for the span file (about 20 bytes each in memory).
SPAN_CAP = 500_000

#: ``module:Class.method`` entries named on their own; the class-wide
#: pass of another layer leaves them to the layer that names them.
_EXPLICIT = frozenset(target for _, targets in LAYERS for target in targets
                      if "." in target.partition(":")[2])

#: Functions whose every call is counted, nested or not: the codec
#: work per transaction the layer table asks for.
COUNTED = ("repro.core.log_records:encode_record",
           "repro.core.log_records:decode_record")


class SpanRecorder:
    """In-memory span stack, per-layer self time and call counts."""

    def __init__(self) -> None:
        n = len(LAYER_NAMES)
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.counted: Dict[str, int] = {key: 0 for key in COUNTED}
        self.spans_dropped = 0
        # Kept spans, column-wise: entry point, layer, start, end and
        # parent span id.  Entry points are indexes into ``_names``.
        self._names: List[str] = ["<round>", "gc.collect"]
        self._name = array("H")
        self._layer = array("b")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        # Open spans: [layer, start_ns, child_ns, span_id].
        self._stack: List[List[int]] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        #: Open root spans; spans are kept, and self time summed into
        #: ``work_self_ns``/``work_calls``, only inside one.
        self._roots = 0
        self.work_self_ns = [0] * n
        self.work_calls = [0] * n
        self.work_counted: Dict[str, int] = {key: 0 for key in COUNTED}
        self._clock = time.perf_counter_ns
        self._gc_open = False

    # -- span stack ----------------------------------------------------

    def _open(self, layer: int, name: int) -> None:
        span_id = -1
        if self._roots:
            if len(self._layer) < SPAN_CAP:
                span_id = len(self._layer)
                self._name.append(name)
                self._layer.append(layer)
                self._start.append(0)
                self._end.append(0)
                self._parent.append(self._stack[-1][3] if self._stack else -1)
            else:
                self.spans_dropped += 1
        frame = [layer, 0, 0, span_id]
        self._stack.append(frame)
        self.calls[layer] += 1
        frame[1] = self._clock()

    def _close(self) -> None:
        end = self._clock()
        layer, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_id >= 0:
            self._start[span_id] = start
            self._end[span_id] = end

    def root(self) -> "_Root":
        """Context manager for the measured part of a round: the span
        ``other`` is measured in.  Set-up runs outside it."""
        return _Root(self)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point named in :data:`LAYERS`.

        Every target module is imported first, so a module that binds a
        wrapped function by name is loaded before the rebinding pass.
        """
        for _, targets in LAYERS:
            for target in targets:
                __import__(target.partition(":")[0])
        for index, (_, targets) in enumerate(LAYERS):
            for target in targets:
                self._install_target(index, target)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            stack = self._stack
            if stack and stack[-1][0] not in (OTHER, GC):
                self._gc_open = True
                self._open(GC, 1)
        elif self._gc_open:
            self._gc_open = False
            self._close()

    def _install_target(self, layer: int, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        module = sys.modules[module_name]
        owner_name, _, member = qualname.partition(".")
        owner = getattr(module, owner_name)
        if member:
            self._wrap_attr(owner, member, layer, target)
        elif inspect.isclass(owner):
            for name, value in list(vars(owner).items()):
                key = f"{module_name}:{owner_name}.{name}"
                if (not name.startswith("_") and inspect.isfunction(value)
                        and key not in _EXPLICIT):
                    self._wrap_attr(owner, name, layer, key)
        else:
            self._wrap_function(module_name, owner_name, layer, target)

    def _wrap_attr(self, owner: Any, name: str, layer: int,
                   key: str) -> None:
        original = vars(owner)[name]
        self._originals.append((owner, name, original))
        setattr(owner, name, self._wrapper(original, layer, key))

    def _wrap_function(self, module_name: str, name: str, layer: int,
                       key: str) -> None:
        """Replace a module function in every ``repro`` module that
        bound it by name, so ``from x import f`` callers see the span."""
        original = getattr(sys.modules[module_name], name)
        wrapper = self._wrapper(original, layer, key)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if vars(mod).get(name) is original:
                self._originals.append((mod, name, original))
                setattr(mod, name, wrapper)

    def _wrapper(self, fn: Callable, layer: int, key: str) -> Callable:
        recorder = self
        counted = key in self.counted
        stack = self._stack
        name = len(self._names)
        self._names.append(key.partition(":")[2])

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = fn(*args, **kwargs)
                while True:
                    if stack and stack[-1][0] == layer:
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                    else:
                        recorder._open(layer, name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            recorder._close()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if counted:
                recorder.counted[key] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            recorder._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close()
        return wrapper

    # -- reading -----------------------------------------------------------

    def write(self, path: str) -> int:
        """Write the kept spans as gzip TSV: id, entry point, layer,
        start_ns, end_ns, parent id (-1 for a root).  Returns the number
        written."""
        count = len(self._layer)
        names = self._names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tlayer\tstart_ns\tend_ns\tparent\n")
            for i in range(count):
                out.write(f"{i}\t{names[self._name[i]]}\t"
                          f"{LAYER_NAMES[self._layer[i]]}\t"
                          f"{self._start[i]}\t{self._end[i]}\t"
                          f"{self._parent[i]}\n")
        return count


class _Root:
    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._self0: List[int] = []
        self._calls0: List[int] = []
        self._counted0: Dict[str, int] = {}

    def __enter__(self) -> "_Root":
        rec = self.recorder
        self._self0 = list(rec.self_ns)
        self._calls0 = list(rec.calls)
        self._counted0 = dict(rec.counted)
        rec._roots += 1
        rec._open(OTHER, 0)
        rec.calls[OTHER] -= 1
        return self

    def __exit__(self, *exc: Any) -> None:
        rec = self.recorder
        rec._close()
        rec._roots -= 1
        for i, (now, then) in enumerate(zip(rec.self_ns, self._self0)):
            rec.work_self_ns[i] += now - then
        for i, (now, then) in enumerate(zip(rec.calls, self._calls0)):
            rec.work_calls[i] += now - then
        for key, then in self._counted0.items():
            rec.work_counted[key] += rec.counted[key] - then


def layer_table(self_ns: Sequence[int], calls: Sequence[int]
                ) -> List[Tuple[str, int, float, float]]:
    """Rows of (layer, calls, self_s, share), ``other`` last."""
    total = sum(self_ns) or 1
    return [(name, calls[i], self_ns[i] / 1e9, self_ns[i] / total)
            for i, name in enumerate(LAYER_NAMES)]
