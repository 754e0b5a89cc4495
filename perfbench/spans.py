"""In-memory spans at the layer boundaries of ``src/repro``.

The traced run installs wrappers on a built ``Chip``'s objects (and on
the sweep runner's cache); nothing under ``src/`` is edited and the
simulated results are unchanged -- the smoke test checks the traced
digests against the untraced ones.

A span has an id, a parent id, a name, a start and an end.  A layer's
self time is its spans' time minus the time of their child spans.
Every call is aggregated exactly (count, total, self); hot layers are
called millions of times per run, so only the first
``KEEP_PER_NAME`` raw spans of each name are kept for the span file.
Spans are recorded by the main thread only.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: cache methods timed on every L1 and L2 (``SetAssocCache``)
CACHE_METHODS = ("lookup", "peek", "insert", "displace", "invalidate", "victim_for")
NOC_METHODS = ("send", "broadcast", "multicast")
#: raw spans kept per name for the span file
KEEP_PER_NAME = 2000


class _TimedIter:
    __slots__ = ("_next",)

    def __init__(self, timed_next: Callable) -> None:
        self._next = timed_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class SpanRecorder:
    """Spans of the main thread, aggregated per name."""

    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.agg: Dict[str, List[float]] = {}
        #: (id, parent_id, name, start, end) for the kept spans
        self.raw: List[Tuple[int, Optional[int], str, float, float]] = []
        #: name -> spans of that name closed with no open parent
        self.roots: Dict[str, int] = {}
        #: open spans: [child_time, id]
        self._stack: List[List[Any]] = []
        self._ids = itertools.count(1)
        #: access outcomes: self seconds and calls of hits and misses
        self.access = {"hit_s": 0.0, "hits": 0, "miss_s": 0.0, "misses": 0, "retries": 0}

    def _agg(self, name: str) -> List[float]:
        return self.agg.setdefault(name, [0, 0.0, 0.0])

    def _close(self, name, agg, frame, parent, start, end) -> float:
        dur = end - start
        own = dur - frame[0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += own
        if parent is not None:
            parent[0] += dur
        else:
            self.roots[name] = self.roots.get(name, 0) + 1
        if agg[0] <= KEEP_PER_NAME:
            self.raw.append(
                (frame[1], None if parent is None else parent[1], name, start, end)
            )
        return own

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        agg = self._agg(name)
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._close(name, agg, frame, parent, start, end)

    def wrap(self, name: str, fn: Callable) -> Callable:
        agg = self._agg(name)
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        close = self._close

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(name, agg, frame, parent, start, end)

        return timed

    def wrap_access(self, fn: Callable) -> Callable:
        """``CoherenceProtocol.access``, with self time split by outcome."""
        name = "core.protocols"
        agg = self._agg(name)
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        close = self._close
        out = self.access

        def timed_access(tile, addr, is_write, now):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(tile, addr, is_write, now)
                return result
            finally:
                end = clock()
                stack.pop()
                own = close(name, agg, frame, parent, start, end)
                if result is not None:
                    if result.l1_hit:
                        out["hits"] += 1
                        out["hit_s"] += own
                    elif result.retry_at is not None:
                        out["retries"] += 1
                    else:
                        out["misses"] += 1
                        out["miss_s"] += own

        return timed_access

    def wrap_iter(self, name: str, it: Iterator) -> Iterator:
        return _TimedIter(self.wrap(name, it.__next__))

    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def dump(self, path: str) -> None:
        doc = {
            "fields": ["id", "parent", "name", "start", "end"],
            "keep_per_name": KEEP_PER_NAME,
            "aggregate": {
                name: {"calls": int(a[0]), "total_s": a[1], "self_s": a[2]}
                for name, a in sorted(self.agg.items())
            },
            "roots": self.roots,
            "access": self.access,
            "spans": self.raw,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def instrument_chip(chip, rec: SpanRecorder) -> None:
    """Install span wrappers on one built chip's layer objects."""
    protocol = chip.protocol
    access = rec.wrap_access(protocol.access)
    protocol.access = access
    for core in chip.cores:
        core._access = access
        core._trace = rec.wrap_iter("workloads", core._trace)
    for cache in (*protocol.l1s, *protocol.l2s):
        for method in CACHE_METHODS:
            setattr(cache, method, rec.wrap("cache", getattr(cache, method)))
    network = protocol.network
    for method in NOC_METHODS:
        setattr(network, method, rec.wrap("noc", getattr(network, method)))
    bus = getattr(protocol, "bus", None)
    if bus is not None:
        # the snooping protocols' broadcast medium lives in repro.noc too
        bus.transaction = rec.wrap("noc", bus.transaction)
    memctl = protocol.memctl
    memctl.access_latency = rec.wrap("mem", memctl.access_latency)
    # Simulator has __slots__; the chip's run_cycles is the boundary
    # around Simulator.run and the Core issue loop
    chip.run_cycles = rec.wrap("sim", chip.run_cycles)


def uninstrument_chip(chip) -> None:
    """Drop the instance wrappers, so the audit after a run is not timed."""
    protocol = chip.protocol
    layers = [(protocol, ("access",)), (protocol.network, NOC_METHODS),
              (protocol.memctl, ("access_latency",)), (chip, ("run_cycles",))]
    layers += [(cache, CACHE_METHODS) for cache in (*protocol.l1s, *protocol.l2s)]
    bus = getattr(protocol, "bus", None)
    if bus is not None:
        layers.append((bus, ("transaction",)))
    for obj, methods in layers:
        for method in methods:
            vars(obj).pop(method, None)


def inject_access_wait(chip, wait_s: float) -> None:
    """Busy-wait ``wait_s`` around every ``access`` (sensitivity check)."""
    fn = chip.protocol.access
    clock = time.perf_counter

    def slowed(tile, addr, is_write, now):
        end = clock() + wait_s
        while clock() < end:
            pass
        return fn(tile, addr, is_write, now)

    chip.protocol.access = slowed
    for core in chip.cores:
        core._access = slowed
