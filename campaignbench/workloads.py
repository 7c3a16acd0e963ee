"""The four serial ``repro campaign`` workloads and what each must show.

Every workload runs the CLI default of 64 scenarios with ``--workers 1``.
``NOTES.md`` gives the reasons for each choice and the layer map.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Workload(NamedTuple):
    #: ``repro campaign`` arguments, ``--seed`` excluded.
    argv: Tuple[str, ...]
    #: Campaign digest at ``--seed 0``.
    seed0_digest: str
    #: Scenario ids that fail at ``--seed 0`` (a real, counted defect).
    seed0_failed: Tuple[str, ...]
    #: Span names that must record at least one span in a traced run.
    spans: Tuple[str, ...]
    #: Counters that must be nonzero in a traced run.
    counters: Tuple[str, ...]


#: Spans every workload records: config build, simulator start-up, the
#: event core, trace digest, oracle, compact metrics and the summary.
COMMON_SPANS = ("config.build", "simulator.init", "event_core.run",
                "trace.digest", "oracle.check", "metrics.compact",
                "results.summary", "scenario.run")

WORKLOADS: Dict[str, Workload] = {
    "chaos-trie": Workload(
        argv=("--suite", "chaos", "--shared-seed", "--shared-faults", "2",
              "--prefix-mtfs", "12", "--mtfs", "24", "--workers", "1"),
        seed0_digest="311d97685cc3accb",
        seed0_failed=(),
        spans=COMMON_SPANS + ("scenario.prefix", "prefix.plan",
                              "event_core.injector", "snapshot.capture",
                              "snapshot.restore", "snapshot.to_bytes"),
        counters=("event_core.ticks_stepped",)),
    "sweep-cc": Workload(
        argv=("--suite", "config-sweep", "--cycle-cache", "--workers", "1"),
        seed0_digest="1ff7cff4db73a955",
        seed0_failed=(),
        spans=COMMON_SPANS + ("cycle_cache.boundary",),
        counters=("cycle_cache.hits",)),
    "faultmatrix-cc": Workload(
        argv=("--suite", "fault-matrix", "--cycle-cache", "--workers", "1"),
        seed0_digest="1d40f8227aab9a88",
        seed0_failed=(),
        spans=COMMON_SPANS + ("event_core.injector", "cycle_cache.boundary"),
        counters=("cycle_cache.misses", "cycle_cache.fingerprint_ns")),
    "constellation-8": Workload(
        argv=("--suite", "constellation", "--nodes", "8", "--workers", "1"),
        seed0_digest="dfae73592dd63059",
        seed0_failed=("xnode-00060",),
        spans=COMMON_SPANS + ("constellation.run", "fabric.send",
                              "fabric.receive", "fabric.pump",
                              "xoracle.check", "xdigest"),
        counters=()),
}
