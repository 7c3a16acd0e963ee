"""Outside-in layer spans: wrap each layer's public entry point.

The benchmark never edits the package under test.  A traced run replaces
each entry point listed in :func:`layer_points` with a wrapper that
records one span per call, and restores the originals afterwards.  A span
holds its name, start, end (``perf_counter_ns``), its parent span and the
scenario it belongs to; spans of one scenario share that scenario id.
Spans stay in compact arrays until the run ends.
"""

from __future__ import annotations

import array
import contextlib
import inspect
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

_now = time.perf_counter_ns

#: Wrapped entry points that open a scenario: the outermost one gives its
#: spans and all spans below it a fresh scenario id.
SCENARIO_SPANS = ("scenario.prefix", "scenario.run")


class Tracer:
    """In-memory span recorder plus per-pass counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array.array("q")
        self.end = array.array("q")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.scenario = array.array("i")
        self._stack: List[int] = [-1]
        self._scenario = -1
        self._scenario_owner = -1
        self._next_scenario = 0
        #: Counters recorded at span boundaries, reset by the caller.
        self.counts: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name_id: int, opens_scenario: bool = False) -> int:
        index = len(self.start)
        if opens_scenario and self._scenario_owner < 0:
            self._scenario_owner = index
            self._scenario = self._next_scenario
            self._next_scenario += 1
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.scenario.append(self._scenario)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self._stack.pop()
        if index == self._scenario_owner:
            self._scenario_owner = -1
            self._scenario = -1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(self.name_id(name))
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable, *,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """*fn* recording one span per call.

        *before(args)* runs ahead of the span and its return value goes
        to *after(args, token, result)*, which returns counters to add
        to :attr:`counts`; both run outside the span.
        """
        name_id = self.name_id(name)
        opens = name in SCENARIO_SPANS
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before is not None else None
            index = tracer.open(name_id, opens)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                for key, value in after(args, token, result).items():
                    tracer.count(key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, first: int = 0) -> Dict[str, List[float]]:
        """Per span name: ``[count, self seconds]`` over spans ``first..``.

        Spans before *first* must not be parents of spans after it
        (a caller passes the index where a closed pass span began).
        """
        stop = len(self.start)
        selfs = self_times(self.start[first:stop], self.end[first:stop],
                           [p - first if p >= first else -1
                            for p in self.parent[first:stop]])
        totals: Dict[str, List[float]] = {}
        for offset, value in enumerate(selfs):
            entry = totals.setdefault(self.names[self.name[first + offset]],
                                      [0, 0.0])
            entry[0] += 1
            entry[1] += value / 1e9
        return totals


def self_times(start: Sequence[int], end: Sequence[int],
               parent: Sequence[int]) -> List[int]:
    """Each span's duration minus the time its child spans cover.

    *parent* holds each span's parent index (``-1`` for a root); a parent
    always precedes its children.  Children of one span never overlap in
    a single-threaded run, so their durations sum to the covered time.
    """
    selfs = [e - s for s, e in zip(start, end)]
    for index, up in enumerate(parent):
        if up >= 0:
            selfs[up] -= end[index] - start[index]
    return selfs


# ------------------------------------------------------------------ #
# the layer table
# ------------------------------------------------------------------ #


def _event_core_counters(args) -> Dict[str, float]:
    sim = args[0]
    stats = sim.event_core_stats
    cache = sim.cycle_cache_stats or {}
    return {"event_core.ticks_batched": stats["ticks_batched"],
            "event_core.ticks_stepped": stats["ticks_stepped"],
            "cycle_cache.hits": cache.get("hits", 0),
            "cycle_cache.misses": cache.get("misses", 0),
            "cycle_cache.invalidations": cache.get("invalidations", 0),
            "cycle_cache.fingerprint_ns": cache.get("fingerprint_ns", 0)}


def _event_core_delta(args, before, _result) -> Dict[str, float]:
    after = _event_core_counters(args)
    return {key: after[key] - before[key] for key in after}


def _snapshot_bytes(_args, _token, result) -> Dict[str, float]:
    return {"snapshot.bytes": len(result)}


def layer_points():
    """``(owner, attribute, span name, before, after)`` for every layer
    entry point, named by the module that owns it."""
    from repro.campaign import prefix, runner
    from repro.constellation import runner as xrunner
    from repro.constellation.comm import InterNodeComm
    from repro.constellation.constellation import Constellation
    from repro.fault.injector import FaultInjector
    from repro.kernel.cycle_cache import CycleCache
    from repro.kernel.simulator import Simulator
    from repro.kernel.snapshot import SimulatorSnapshot
    from repro.kernel.trace import Trace

    return [
        (prefix, "run_with_prefix_cache", "scenario.prefix", None, None),
        (runner, "run_scenario", "scenario.run", None, None),
        (prefix, "build_divergence_trie", "prefix.plan", None, None),
        (Simulator, "__init__", "simulator.init", None, None),
        (FaultInjector, "run_fast", "event_core.injector", None, None),
        (Simulator, "run_fast", "event_core.run",
         _event_core_counters, _event_core_delta),
        (CycleCache, "on_boundary", "cycle_cache.boundary", None, None),
        (SimulatorSnapshot, "capture", "snapshot.capture", None, None),
        (SimulatorSnapshot, "restore", "snapshot.restore", None, None),
        (SimulatorSnapshot, "to_bytes", "snapshot.to_bytes",
         None, _snapshot_bytes),
        (SimulatorSnapshot, "from_bytes", "snapshot.from_bytes", None, None),
        (Trace, "digest", "trace.digest", None, None),
        (runner, "check_trace", "oracle.check", None, None),
        (xrunner, "check_trace", "oracle.check", None, None),
        (runner, "compact_metrics", "metrics.compact", None, None),
        (xrunner, "compact_metrics", "metrics.compact", None, None),
        (Constellation, "run", "constellation.run", None, None),
        (InterNodeComm, "send", "fabric.send", None, None),
        (InterNodeComm, "receive", "fabric.receive", None, None),
        (InterNodeComm, "pump", "fabric.pump", None, None),
        (xrunner, "check_constellation", "xoracle.check", None, None),
        (Constellation, "combined_digest", "xdigest", None, None),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install *tracer*'s wrappers on every layer entry point, plus the
    config factories, and put the originals back on exit."""
    from repro.campaign.scenarios import FACTORIES

    factories = dict(FACTORIES)
    saved = []
    try:
        for owner, attr, name, before, after in layer_points():
            raw = inspect.getattr_static(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(tracer.wrap(
                    name, raw.__func__, before=before, after=after))
            else:
                wrapped = tracer.wrap(name, raw, before=before, after=after)
            setattr(owner, attr, wrapped)
        for key, factory in factories.items():
            FACTORIES[key] = tracer.wrap("config.build", factory)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
        FACTORIES.update(factories)


@contextlib.contextmanager
def scenario_hook(on_done: Callable[[int], None]) -> Iterator[None]:
    """Call *on_done(nanoseconds)* after each scenario's top-level call
    (``run_with_prefix_cache`` or ``run_scenario``, whichever is
    outermost) returns, with the call's duration.

    The duration includes any prefix chain the scenario builds; the hook
    itself runs outside it.  Installed over :func:`instrumented`, it stays
    outside the scenario's spans too.
    """
    from repro.campaign import prefix, runner

    depth = [0]

    def timed(fn):
        def call(*args, **kwargs):
            depth[0] += 1
            started = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    on_done(_now() - started)
        return call

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in
             ((prefix, "run_with_prefix_cache"), (runner, "run_scenario"))]
    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, timed(fn))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
