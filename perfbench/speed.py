"""Speed-normalized CPU time.

A shared host changes how fast one core runs, in phases of a fraction
of a second to several seconds.  On the 2-vCPU Xeon this benchmark was
built on, the same loop took 8 ms in one phase and 15 ms in the next,
and identical 5 s runs of ``commit`` differed by up to 48% in their
median commit time.  Process CPU time does not help: the core itself
is slower.

So every timed interval is split into *blocks* of a few
milliseconds, and between blocks the benchmark times a fixed reference
loop that uses no library code.  A block's CPU time is scaled by
``(NOMINAL_NS / reference_ns) ** EXPONENT``, with ``reference_ns`` the
mean of the reference runs before and after it.  The scale does not
depend on the library, so a change to the library moves the result
exactly as it moves raw CPU time; what it removes is the host's speed.

The reference slows more than the library does when the host is slow:
over 200 s of alternating phases, 643 paired blocks of commit-path work
and as many of engine work each slowed as the reference's time to the
power 0.72 and 0.70.  Hence ``EXPONENT``.  Over those blocks the
spread (IQR / median) of commit-path block times was 25.5% raw, 10.1%
scaled with exponent 1 and 4.8% with 0.75; of engine blocks 23.2%,
12.4% and 7.8%.

The reference runs with the cyclic collector paused, so a collection
the program's heap is due for is not charged to the reference.
"""

from __future__ import annotations

import gc
import struct
import time
from typing import Callable, Dict, List, Tuple, TypeVar

T = TypeVar("T")

#: CPU ns of one :func:`reference` call in the host's fast phase
#: (10th percentile of 3,000 runs, Intel Xeon 2 vCPU, Python 3.11.7).
NOMINAL_NS = 730_000
#: How the library's CPU time scales with the reference's (fitted; see
#: the module docstring).
EXPONENT = 0.7

_PACK = struct.Struct(">QI")


class _Node:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: Tuple[int, int], value: str) -> None:
        self.key = key
        self.value = value
        self.hits = 0

    def touch(self, amount: int) -> int:
        self.hits += amount
        return self.hits


def reference(n: int = 1500) -> int:
    """Fixed interpreter work shaped like the library's, using none of
    it: attribute and method access, dict lookups, small tuples and
    strings, struct packing into a growing buffer."""
    table: Dict[Tuple[int, int], _Node] = {}
    log = bytearray()
    recent: List[str] = []
    for i in range(n):
        key = (i % 61, i % 7)
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, str(i))
        node.touch(1)
        log += _PACK.pack(i, node.hits)
        recent.append(node.value)
        if len(recent) > 32:
            recent.clear()
    return len(log)


def _scale(before: int, after: int) -> float:
    """Factor for a block between reference runs of these CPU ns."""
    return (2 * NOMINAL_NS / (before + after)) ** EXPONENT


class SpeedMeter:
    """Times the reference and scales CPU intervals by it.

    A disabled meter never runs the reference and scales by 1 (raw CPU
    time): traced rounds use one, since reference runs would land in
    their spans.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Raw CPU ns of every reference run, in order.
        self.reference_ns: List[int] = []

    def probe(self) -> int:
        """Run the reference once; returns its CPU ns."""
        if not self.enabled:
            return NOMINAL_NS
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time_ns()
            reference()
            elapsed = time.process_time_ns() - start
        finally:
            if enabled:
                gc.enable()
        self.reference_ns.append(elapsed)
        return elapsed

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float]:
        """``fn()`` and its normalized CPU seconds, as one block."""
        before = self.probe()
        start = time.process_time_ns()
        result = fn()
        elapsed = time.process_time_ns() - start
        after = self.probe()
        return result, elapsed * _scale(before, after) / 1e9

class Blocks:
    """A timed phase cut into blocks, each scaled on its own.

    ``sample`` records a raw CPU ns duration, optionally under a key;
    ``cut`` ends the block, runs the reference, and folds the block's
    samples, scaled, into ``samples`` (unkeyed) or ``totals`` (summed
    per key).  ``cpu_s`` is the phase's normalized CPU seconds with the
    reference runs left out.
    """

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter
        self.samples: List[float] = []
        self.totals: Dict[str, float] = {}
        self.cpu_s = 0.0
        self._pending: List[Tuple[str, int]] = []
        self._last = meter.probe()
        self._start = time.process_time_ns()

    def sample(self, raw_ns: int, key: str = "") -> None:
        self._pending.append((key, raw_ns))

    def cut(self) -> None:
        block_ns = time.process_time_ns() - self._start
        probe = self.meter.probe()
        scale = _scale(self._last, probe)
        self._last = probe
        self.cpu_s += block_ns * scale / 1e9
        totals = self.totals
        for key, raw in self._pending:
            if key:
                totals[key] = totals.get(key, 0.0) + raw * scale
            else:
                self.samples.append(raw * scale)
        self._pending.clear()
        self._start = time.process_time_ns()
