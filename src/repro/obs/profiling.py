"""Simulator self-profiling: where does *host* time go?

Everything here is **nondeterministic by nature** — ``perf_counter``
durations depend on the host machine and load — and is therefore kept
strictly out of the deterministic :class:`~repro.obs.metrics.MetricsRegistry`:
a profile is a diagnosis of the *simulator*, never of the simulated system.
The same separation covers the event-core efficiency counters (spans
batched, ticks skipped vs. stepped), which legitimately differ between
``run`` and ``run_fast`` and would break the byte-identity guarantee if
they lived in the registry.

Enable with ``Simulator.enable_profiling()``; it wraps that simulator's
subsystem entry points with :meth:`SelfProfiler.wrap`, so the ISR body
itself carries no probes.  Per-subsystem wall-time totals are accumulated
with plain ``perf_counter`` pairs (~100 ns overhead per probe), so a
profiled run is slower — the point is the *breakdown*, not absolute
throughput.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Dict, Optional

__all__ = ["SelfProfiler"]


class SelfProfiler:
    """Accumulates host-time totals per simulator subsystem."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._started: Optional[float] = None
        self._inside = False

    def record(self, subsystem: str, seconds: float) -> None:
        """Add *seconds* of host time to *subsystem*'s total."""
        self.seconds[subsystem] = self.seconds.get(subsystem, 0.0) + seconds
        self.calls[subsystem] = self.calls.get(subsystem, 0) + 1

    def wrap(self, subsystem: str, fn: Callable) -> Callable:
        """*fn* with its host time recorded under *subsystem*.

        Only the outermost wrapped call is timed: a wrapped entry point
        reached from inside another (memory probes inside a batched span)
        counts towards the outer subsystem, so the totals never overlap.
        """
        record = self.record

        def timed(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record(subsystem, perf_counter() - started)
                self._inside = False

        return timed

    def start(self) -> None:
        """Mark the beginning of the profiled run (for the wall total)."""
        if self._started is None:
            self._started = perf_counter()

    def report(self, simulator=None) -> Dict[str, object]:
        """The profile as a JSON-compatible dict.

        Includes per-subsystem host-time totals and call counts, their
        share of the accounted time, and — when *simulator* is given —
        the event-core efficiency counters from
        ``Simulator.event_core_stats``.
        """
        accounted = sum(self.seconds.values())
        wall = (perf_counter() - self._started
                if self._started is not None else accounted)
        subsystems = {
            name: {
                "seconds": self.seconds[name],
                "calls": self.calls.get(name, 0),
                "share": (self.seconds[name] / accounted
                          if accounted else 0.0),
            }
            for name in sorted(self.seconds)}
        report: Dict[str, object] = {
            "deterministic": False,
            "wall_seconds": wall,
            "accounted_seconds": accounted,
            "subsystems": subsystems,
        }
        if simulator is not None:
            stats = simulator.event_core_stats
            ticks = stats["ticks_stepped"] + stats["ticks_batched"]
            report["event_core"] = dict(
                stats,
                batched_fraction=(stats["ticks_batched"] / ticks
                                  if ticks else 0.0))
        return report

    def report_json(self, simulator=None) -> str:
        """The report as (non-canonical-by-nature) indented JSON."""
        return json.dumps(self.report(simulator), sort_keys=True, indent=2)
