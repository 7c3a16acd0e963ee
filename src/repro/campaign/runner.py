"""Campaign execution: serial and worker-pool scenario fan-out.

One scenario is one fully deterministic simulation; a campaign is many of
them.  :func:`run_scenario` is the single unit of work — build the config,
drive the event core through a :class:`~repro.fault.injector.FaultInjector`,
summarize the trace — and is what both the serial loop and the
``multiprocessing`` pool execute.  Faults, crashes and per-scenario
wall-clock timeouts degrade to recorded failure results; one bad scenario
never takes the campaign down.

Determinism invariant (tested): the deterministic report is byte-identical
for any worker count and any chunk size, because every scenario is
self-contained (config factory + seed), results are keyed by scenario id,
and nothing nondeterministic (wall time, delivery order, pid) enters the
deterministic record.

Prefix sharing (on by default, ``prefix_cache=False`` / ``--no-prefix-cache``
to disable): scenarios with a common configuration and seed fork from a
cached :class:`~repro.kernel.snapshot.SimulatorSnapshot` of their shared
fault-free prefix instead of re-simulating it (:mod:`repro.campaign.prefix`).
Forked runs are bit-identical to cold runs, so the determinism invariant
extends across the cache setting: same digests with it on or off.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..fault.injector import FaultInjector
from ..fdir.oracle import check_trace
from ..kernel.simulator import Simulator
from ..kernel.snapshot import SimulatorSnapshot
from ..kernel.trace import (
    DeadlineMissed,
    HealthMonitorEvent,
    MemoryFault,
    ScheduleSwitched,
)
from ..kernel.cycle_cache import CYCLE_CACHE_STAT_KEYS
from ..obs.derived import compact_metrics
from .artifacts import ScenarioArtifacts, write_scenario_artifacts
from .results import (
    STATUS_CRASHED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ScenarioResult,
)
from .scenarios import Scenario

__all__ = [
    "run_scenario",
    "run_serial",
    "run_pool",
    "run_campaign",
    "autodetect_workers",
]

#: Default simulated ticks between wall-clock timeout polls inside a
#: scenario; override per call with ``check_interval``.
TIMEOUT_CHECK_INTERVAL = 20_000


def autodetect_workers() -> int:
    """Usable worker count: the scheduling affinity if the OS exposes it."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _record_failure(scenario, *, status: str, error: str,
                    violations: Sequence = (), simulator=None,
                    injector=None, from_snapshot=None,
                    forked_at: int = -1, publisher=None,
                    artifacts: Optional[ScenarioArtifacts] = None) -> None:
    """Failure-path observability: flight-recorder bundle + crash events.

    Best effort throughout — nothing here may replace or mask the
    scenario's original error.
    """
    path = None
    if artifacts is not None and artifacts.flight_recorder_dir is not None:
        from ..obs.telemetry.recorder import (
            flight_record,
            save_flight_record,
        )

        bundle = flight_record(
            scenario, status=status, error=error, violations=violations,
            simulator=simulator, injector=injector,
            from_snapshot=from_snapshot, forked_at=forked_at,
            last_n=artifacts.flight_record_last_n)
        path = save_flight_record(bundle, artifacts.flight_recorder_dir)
    if publisher is not None:
        publisher.scenario_crashed(scenario.scenario_id, error)
        if path is not None:
            publisher.flight_record(scenario.scenario_id, path)


#: Per-process cycle-cache counter totals, accumulated across every
#: scenario this process executes with the cache armed (None until the
#: first one).  Host-side material for the execution sidecar only.
_CYCLE_CACHE_TOTALS: Optional[Dict[str, int]] = None


def _note_cycle_stats(simulator) -> None:
    """Fold *simulator*'s cycle-cache counters into this process's total."""
    global _CYCLE_CACHE_TOTALS
    stats = getattr(simulator, "cycle_cache_stats", None) \
        if simulator is not None else None
    if not stats:
        return
    if _CYCLE_CACHE_TOTALS is None:
        _CYCLE_CACHE_TOTALS = {key: 0 for key in CYCLE_CACHE_STAT_KEYS}
    for key, value in stats.items():
        _CYCLE_CACHE_TOTALS[key] = _CYCLE_CACHE_TOTALS.get(key, 0) + value


def check_cycle_cache(scenarios: Sequence[Scenario],
                      cycle_cache: bool) -> None:
    """Raise :class:`ValueError` if *cycle_cache* is set and any scenario
    is a constellation, instead of silently running it without the
    cache."""
    if not cycle_cache:
        return
    for scenario in scenarios:
        if getattr(scenario, "is_constellation", False):
            raise ValueError(
                f"cycle_cache is not supported for constellation "
                f"scenarios ({scenario.scenario_id!r}): it memoizes a "
                f"single simulator, not lockstep nodes")


def run_scenario(scenario: Scenario, *,
                 timeout_s: Optional[float] = None,
                 check_interval: int = TIMEOUT_CHECK_INTERVAL,
                 from_snapshot: Optional[SimulatorSnapshot] = None,
                 cycle_cache: bool = False,
                 publisher=None,
                 artifacts: Optional[ScenarioArtifacts] = None
                 ) -> ScenarioResult:
    """Execute one scenario to completion, failure or timeout.

    Any exception — a broken config factory, a fault naming an unknown
    schedule, an internal invariant trip — is captured as a ``crashed``
    result; exceeding *timeout_s* of wall time yields a ``timeout`` result
    with the metrics gathered so far.  Either way the caller gets a
    :class:`ScenarioResult`, never a raised exception.

    *check_interval* bounds the simulated span between wall-clock timeout
    polls (and thus the timeout's detection granularity).

    *from_snapshot* forks the scenario from a checkpoint instead of a cold
    simulator: the snapshot must have been captured from the scenario's
    own configuration, either before its first fault/command tick (a
    fault-free root) or — when the snapshot's ``extras`` carry the fault
    injector's applied log — after any leading slice of its timeline was
    applied (an interior divergence-trie node).  The injector is seeded
    from that log and schedules only the not-yet-applied remainder, and
    the run covers the remaining ``scenario.ticks - snapshot.tick`` ticks.
    The result is bit-identical to a cold run (the snapshot layer's
    contract); only the nondeterministic ``forked_at_tick`` field records
    that a fork happened.

    *cycle_cache* arms steady-state MTF memoization (DESIGN decision 13)
    on the scenario's simulator — a bit-identity contract, so campaign
    digests are independent of it; its host-side hit counters accumulate
    into the per-worker execution sidecar.  Constellation scenarios
    cannot arm it: *cycle_cache* with one raises :class:`ValueError`.

    Unless the scenario opts out (``oracle=False``), the finished trace is
    audited by the TSP invariant oracle
    (:func:`repro.fdir.oracle.check_trace`); any violation downgrades an
    otherwise clean run to ``crashed`` with the violations in ``error``.

    *publisher* (a :class:`~repro.obs.telemetry.TelemetryPublisher`)
    streams timing-channel lifecycle events; *artifacts*
    (:class:`~repro.campaign.artifacts.ScenarioArtifacts`) dumps
    per-scenario metrics/timeline files and failure flight-recorder
    bundles.  Both are pure observers: every simulation step — including
    the ``run_fast`` chunking, whose span bounds are computed identically
    whether ``should_abort`` is set or not — is byte-identical with them
    on, off, or partially consumed.

    Constellation scenarios (``is_constellation``) dispatch to
    :func:`repro.constellation.runner.run_constellation_scenario` — same
    contract, N lockstep nodes instead of one simulator.  They never fork
    from snapshots (each constellation is its own trie group).
    """
    if getattr(scenario, "is_constellation", False):
        from ..constellation.runner import run_constellation_scenario

        check_cycle_cache([scenario], cycle_cache)
        return run_constellation_scenario(
            scenario, timeout_s=timeout_s, check_interval=check_interval,
            publisher=publisher, artifacts=artifacts)
    start = time.perf_counter()
    if check_interval < 1:
        raise ValueError(
            f"check_interval must be >= 1, got {check_interval}")
    forked_at = -1
    simulator = None
    injector = None
    if publisher is not None:
        publisher.scenario_started(scenario.scenario_id, scenario.ticks)
    try:
        config = scenario.build_config()
        if from_snapshot is not None:
            simulator = from_snapshot.restore(config,
                                              cycle_cache=cycle_cache)
            forked_at = simulator.now
            if publisher is not None:
                publisher.scenario_forked(scenario.scenario_id, forked_at)
        else:
            simulator = Simulator(config, cycle_cache=cycle_cache)
        injector = FaultInjector(simulator)
        applied = 0
        if from_snapshot is not None and from_snapshot.extras:
            state = from_snapshot.extras.get("injector")
            if state is not None:
                injector.load_state_dict(state)
                applied = len(injector.log)
        # The merged timeline reproduces the historical heap order exactly
        # (faults first at equal ticks — see Scenario.timeline), so cold
        # runs are bit-identical to the former faults-then-commands
        # scheduling, and forked runs skip exactly the applied slice.
        for tick, fault in scenario.timeline()[applied:]:
            injector.schedule(tick, fault)
        should_abort = None
        if timeout_s is not None:
            deadline = start + timeout_s
            should_abort = lambda: time.perf_counter() > deadline
        if publisher is not None:
            # Progress heartbeats piggyback on the existing abort poll:
            # run_fast's span bounds do not depend on should_abort being
            # set, so publishing from it cannot perturb the simulation.
            inner_abort = should_abort
            live_simulator = simulator

            def should_abort() -> bool:
                publisher.scenario_progress(
                    scenario.scenario_id, live_simulator.now,
                    scenario.ticks)
                return inner_abort() if inner_abort is not None else False
        completed = injector.run_fast(
            scenario.ticks - simulator.now, should_abort=should_abort,
            check_interval=check_interval)
    except Exception as exc:
        _note_cycle_stats(simulator)
        error = f"{type(exc).__name__}: {exc}"
        result = ScenarioResult(
            scenario_id=scenario.scenario_id,
            seed=scenario.seed,
            status=STATUS_CRASHED,
            error=error,
            wall_time_s=time.perf_counter() - start,
            forked_at_tick=forked_at,
        )
        _record_failure(scenario, status=STATUS_CRASHED, error=error,
                        simulator=simulator, injector=injector,
                        from_snapshot=from_snapshot, forked_at=forked_at,
                        publisher=publisher, artifacts=artifacts)
        if publisher is not None:
            publisher.scenario_finished(
                scenario.scenario_id, STATUS_CRASHED,
                result.wall_time_s, forked_at)
        return result
    _note_cycle_stats(simulator)
    trace = simulator.trace
    status = STATUS_OK if completed else STATUS_TIMEOUT
    error = "" if completed else \
        f"exceeded {timeout_s}s wall-clock budget at tick {simulator.now}"
    violations: Sequence = ()
    if completed and scenario.oracle:
        violations = check_trace(trace, config)
        if violations:
            status = STATUS_CRASHED
            error = (f"oracle: {len(violations)} invariant violation(s); "
                     + "; ".join(
                         f"{v.invariant}@{v.tick}: {v.detail}"
                         for v in violations[:3]))
    if status == STATUS_CRASHED:
        _record_failure(scenario, status=status, error=error,
                        violations=violations, simulator=simulator,
                        injector=injector, from_snapshot=from_snapshot,
                        forked_at=forked_at, publisher=publisher,
                        artifacts=artifacts)
    if artifacts is not None and artifacts.wants_exports:
        write_scenario_artifacts(scenario.scenario_id, simulator,
                                 artifacts)
    result = ScenarioResult(
        scenario_id=scenario.scenario_id,
        seed=scenario.seed,
        status=status,
        ticks=simulator.now,
        deadline_misses=trace.count(DeadlineMissed),
        hm_events=trace.count(HealthMonitorEvent),
        schedule_switches=trace.count(ScheduleSwitched),
        memory_faults=trace.count(MemoryFault),
        faults_applied=len(injector.log),
        injections=tuple(
            (record.tick, type(record.fault).__name__, record.status)
            for record in injector.log),
        trace_events=len(trace),
        trace_digest=trace.digest(),
        occupancy=tuple(sorted(simulator.pmk.partition_ticks.items())),
        metrics=compact_metrics(trace),
        error=error,
        wall_time_s=time.perf_counter() - start,
        forked_at_tick=forked_at,
    )
    if publisher is not None:
        publisher.scenario_finished(scenario.scenario_id, status,
                                    result.wall_time_s, forked_at)
    return result


#: Per-worker-process prefix cache, installed by the pool initializer
#: (:func:`_init_worker`) and reused across every task the worker
#: handles: the parent's cache with every split group's chain pre-built,
#: or None when the prefix cache is off.
_WORKER_PREFIX_CACHE = None

#: Per-worker-process telemetry wiring, installed by the pool initializer:
#: ``(sink, campaign id)`` or None.
_WORKER_TELEMETRY = None

#: Lazily built per-process :class:`TelemetryPublisher` over the wiring.
_WORKER_PUBLISHER = None


def _init_worker(cache, sink, campaign_id: Optional[str]) -> None:
    """Pool initializer: hand each worker the parent's prefix cache and
    telemetry sink.

    Under the fork start method both are inherited without copying;
    under spawn they are pickled once per worker.  The cycle-cache
    totals restart from zero so a worker never reports counters the
    parent accumulated before forking.
    """
    global _WORKER_PREFIX_CACHE, _WORKER_TELEMETRY, _WORKER_PUBLISHER
    global _CYCLE_CACHE_TOTALS
    _WORKER_PREFIX_CACHE = cache
    _WORKER_TELEMETRY = None if sink is None else (sink, campaign_id)
    _WORKER_PUBLISHER = None
    _CYCLE_CACHE_TOTALS = None


def _worker_publisher():
    """This worker's publisher, or None when telemetry is off."""
    global _WORKER_PUBLISHER
    if _WORKER_TELEMETRY is None:
        return None
    if _WORKER_PUBLISHER is None:
        from ..obs.telemetry.bus import TelemetryPublisher

        sink, campaign_id = _WORKER_TELEMETRY
        _WORKER_PUBLISHER = TelemetryPublisher(
            sink, campaign_id, worker=str(os.getpid()))
    return _WORKER_PUBLISHER


def _run_chunk(chunk: Sequence[Scenario], plans, cache, *,
               timeout_s: Optional[float], check_interval: int,
               cycle_cache: bool, publisher,
               artifacts: Optional[ScenarioArtifacts]
               ) -> List[ScenarioResult]:
    """Run *chunk* in order: cold without a *cache*, otherwise forking
    through it along each scenario's trie plan (*plans*: scenario id ->
    :class:`~repro.campaign.prefix.PrefixPlan`)."""
    if cache is None:
        return [run_scenario(scenario, timeout_s=timeout_s,
                             check_interval=check_interval,
                             cycle_cache=cycle_cache, publisher=publisher,
                             artifacts=artifacts)
                for scenario in chunk]
    from .prefix import run_with_prefix_cache

    return [run_with_prefix_cache(
                scenario, cache, timeout_s=timeout_s,
                check_interval=check_interval, cycle_cache=cycle_cache,
                plan=plans[scenario.scenario_id],
                publisher=publisher, artifacts=artifacts)
            for scenario in chunk]


def _chunk_worker(payload):
    """Run one pool task in this worker.

    Returns ``(campaign indices, results, sidecar)``: the parent places
    results by index, so completion order (``imap_unordered``) never
    reaches the deterministic report.  The sidecar carries this worker's
    cumulative cache counters (keyed by pid on the parent side; later
    tasks from the same worker overwrite with larger counts).
    """
    (indices, chunk, plans, timeout_s, check_interval, cycle_cache,
     artifacts) = payload
    cache = _WORKER_PREFIX_CACHE
    publisher = _worker_publisher()
    results = _run_chunk(chunk, plans, cache, timeout_s=timeout_s,
                         check_interval=check_interval,
                         cycle_cache=cycle_cache, publisher=publisher,
                         artifacts=artifacts)
    cycle_totals = dict(_CYCLE_CACHE_TOTALS) \
        if _CYCLE_CACHE_TOTALS is not None else None
    sidecar = {"pid": os.getpid(),
               "prefix_cache": cache.stats() if cache is not None else None,
               "cycle_cache": cycle_totals}
    if publisher is not None:
        # Cumulative counters per task; the log consumer reads the last
        # event per (worker, stat) topic as the worker's final value.
        if cache is not None:
            publisher.cache_stats(cache.stats())
        if cycle_totals is not None:
            publisher.cycle_cache_stats(cycle_totals)
    return indices, results, sidecar


def _plan_campaign(scenarios: Sequence[Scenario], prefix_cache: bool):
    """The campaign's divergence trie, or None with the cache off (every
    scenario then runs cold, the reference the digest gates compare the
    trie against)."""
    if not prefix_cache:
        return None
    from .prefix import build_divergence_trie

    return build_divergence_trie(scenarios)


def _close_bus(bus, results: Sequence[ScenarioResult],
               telemetry: Optional[Dict]) -> None:
    """Finish the aggregator (deterministic block + log close) and stash
    its stream counters into the reporting sidecar."""
    if bus is None:
        return
    stats = bus.finish(results)
    if telemetry is not None:
        telemetry["telemetry_stream"] = stats


def run_serial(scenarios: Sequence[Scenario], *,
               timeout_s: Optional[float] = None,
               check_interval: int = TIMEOUT_CHECK_INTERVAL,
               prefix_cache: bool = True,
               cycle_cache: bool = False,
               telemetry: Optional[Dict] = None,
               bus=None,
               artifacts: Optional[ScenarioArtifacts] = None
               ) -> List[ScenarioResult]:
    """Run every scenario in this process, in order.

    With *prefix_cache* (the default) scenarios sharing a configuration
    and seed fork from cached snapshots of their common prefixes — the
    fault-free root and, via the divergence trie, interior checkpoints
    after shared faults; results are bit-identical either way.
    *telemetry*, when a dict, receives nondeterministic cache counters
    for the reporting sidecar.

    *bus* (a :class:`~repro.obs.telemetry.TelemetryAggregator`) turns on
    live streaming: the serial loop publishes straight into the
    aggregator (no queue), and the deterministic event block is derived
    from the finished results on close.  *artifacts* dumps per-scenario
    metrics/timeline files and failure flight-recorder bundles.
    """
    publisher = None
    if bus is not None:
        from ..obs.telemetry.bus import TelemetryPublisher

        publisher = TelemetryPublisher(bus.start(None), bus.campaign_id,
                                       worker="serial")
    cycle_before = dict(_CYCLE_CACHE_TOTALS or {})
    cache = None
    if prefix_cache:
        from .prefix import SnapshotCache

        cache = SnapshotCache()
    plans = _plan_campaign(scenarios, prefix_cache)
    results = _run_chunk(scenarios, plans, cache, timeout_s=timeout_s,
                         check_interval=check_interval,
                         cycle_cache=cycle_cache, publisher=publisher,
                         artifacts=artifacts)
    if telemetry is not None:
        telemetry["prefix_tree"] = _tree_telemetry(plans)
        if cache is not None:
            telemetry["workers"] = {
                "serial": {"prefix_cache": cache.stats()}}
        _serial_cycle_telemetry(telemetry, cycle_before, cycle_cache)
    if publisher is not None:
        if cache is not None:
            publisher.cache_stats(cache.stats())
        if cycle_cache:
            publisher.cycle_cache_stats(_cycle_totals_since(cycle_before))
    _close_bus(bus, results, telemetry)
    return results


def _cycle_totals_since(before: Dict[str, int]) -> Dict[str, int]:
    """This process's cycle-cache counters accumulated since *before*."""
    totals = _CYCLE_CACHE_TOTALS or {}
    return {key: totals.get(key, 0) - before.get(key, 0)
            for key in CYCLE_CACHE_STAT_KEYS}


def _serial_cycle_telemetry(telemetry: Dict, before: Dict[str, int],
                            cycle_cache: bool) -> None:
    """Stash this campaign's serial-process cycle-cache counters."""
    if not cycle_cache:
        telemetry["cycle_cache"] = {"enabled": False}
        return
    delta = _cycle_totals_since(before)
    telemetry["cycle_cache"] = {"enabled": True, **delta}
    workers = telemetry.setdefault("workers", {})
    workers.setdefault("serial", {})["cycle_cache"] = delta


def _tree_telemetry(plans) -> Dict:
    if plans is None:
        return {"enabled": False}
    groups = {plan.group_key for plan in plans.values()}
    levels = {level for plan in plans.values()
              for level in plan.capture_levels}
    return {
        "enabled": True,
        "groups": len(groups),
        "planned_scenarios": sum(
            1 for plan in plans.values() if plan.capture_levels),
        "capture_levels": len(levels),
        "deepest_level": max(
            (level[0] for level in levels), default=0),
    }


def _dispatch_chunks(scenarios: Sequence[Scenario], plans, workers: int,
                     chunksize: Optional[int]
                     ) -> Tuple[List[List[int]], List[int]]:
    """Split campaign indices into pool tasks.

    With the divergence trie on (*plans* not None) scenarios are grouped
    by their deepest shared prefix key, in first-appearance order, and
    each group is cut into tasks of at most *chunksize* (default: the
    group spread across the workers), so one worker forks a chain for as
    many of its sharers as possible.  With the trie off the tasks are
    runs of campaign order, *chunksize* long (default ``len // (4 *
    workers)``: small enough to load-balance, large enough not to pay
    per-scenario IPC).

    Returns ``(tasks, split)``: *split* holds one campaign index per
    trie group that spans more than one task.
    """
    groups: "OrderedDict[str, List[int]]" = OrderedDict()
    for index, scenario in enumerate(scenarios):
        key = "" if plans is None else plans[scenario.scenario_id].group_key
        groups.setdefault(key, []).append(index)
    tasks: List[List[int]] = []
    split: List[int] = []
    for indices in groups.values():
        if chunksize:
            cap = chunksize
        elif plans is None:
            cap = max(1, len(indices) // (workers * 4))
        else:
            cap = max(1, -(-len(indices) // workers))
        if plans is not None and len(indices) > cap:
            split.append(indices[0])
        tasks.extend(indices[start:start + cap]
                     for start in range(0, len(indices), cap))
    return tasks, split


def _prebuilt_cache(scenarios: Sequence[Scenario], plans,
                    split: Sequence[int], check_interval: int):
    """The pool's shared starting cache: every split group's checkpoint
    chain, built once in the parent.

    Without it the workers sharing a group would all race to cold-build
    the same chain.  Single-task groups are left to their one worker,
    which builds the chain exactly once anyway.  The capacity holds every
    pre-built level on top of the usual working room, so none is evicted
    before the workers start.
    """
    from .prefix import SnapshotCache, _build_plan_levels

    levels = {level for index in split
              for level in plans[scenarios[index].scenario_id]
              .capture_levels}
    cache = SnapshotCache(
        capacity=SnapshotCache.DEFAULT_CAPACITY + len(levels))
    for index in split:
        scenario = scenarios[index]
        plan = plans[scenario.scenario_id]
        if plan.capture_levels:
            _build_plan_levels(scenario, cache, plan, None, -1,
                               check_interval=check_interval)
    return cache


def run_pool(scenarios: Sequence[Scenario], *,
             workers: Optional[int] = None,
             chunksize: Optional[int] = None,
             timeout_s: Optional[float] = None,
             check_interval: int = TIMEOUT_CHECK_INTERVAL,
             prefix_cache: bool = True,
             cycle_cache: bool = False,
             telemetry: Optional[Dict] = None,
             bus=None,
             artifacts: Optional[ScenarioArtifacts] = None
             ) -> List[ScenarioResult]:
    """Fan scenarios out over a ``multiprocessing`` pool.

    One dispatch path: index-tagged chunks of scenarios
    (:func:`_dispatch_chunks`) go to the workers through
    ``imap_unordered``, and results are placed back by campaign index,
    so the result list matches the scenario list index-for-index and
    the deterministic report is independent of dispatch: every scenario
    is self-contained, results are re-sorted by scenario id in the
    aggregate, and nothing nondeterministic enters the deterministic
    record.  With the prefix cache on, chunks follow the divergence
    trie's groups; otherwise they follow campaign order.  *chunksize*
    caps scenarios per chunk.

    With the prefix cache on, the parent pre-builds the checkpoint chain
    of every trie group split across several chunks
    (:func:`_prebuilt_cache`) and the pool initializer installs that
    cache as every worker's own, so the workers sharing a group start
    with its chain instead of racing to build it.  Each worker then
    extends its copy privately; its cache counters in the telemetry
    sidecar start from the handed-over cache (the pre-build's entries
    and stores).

    Worker crashes are absorbed inside :func:`run_scenario`; only an
    interpreter-level death (signal, OOM kill) can still fail the pool.
    """
    if workers is None:
        workers = autodetect_workers()
    if workers <= 1 or len(scenarios) <= 1:
        return run_serial(scenarios, timeout_s=timeout_s,
                          check_interval=check_interval,
                          prefix_cache=prefix_cache,
                          cycle_cache=cycle_cache,
                          telemetry=telemetry, bus=bus,
                          artifacts=artifacts)
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    plans = _plan_campaign(scenarios, prefix_cache)
    tasks, split = _dispatch_chunks(scenarios, plans, workers, chunksize)
    cache = _prebuilt_cache(scenarios, plans, split, check_interval) \
        if prefix_cache else None
    payloads = []
    for task in tasks:
        chunk = tuple(scenarios[index] for index in task)
        chunk_plans = None if plans is None else {
            scenario.scenario_id: plans[scenario.scenario_id]
            for scenario in chunk}
        payloads.append((tuple(task), chunk, chunk_plans, timeout_s,
                         check_interval, cycle_cache, artifacts))
    # Telemetry: the aggregator owns a queue in this (parent) process and
    # drains it on a daemon thread, so events stream live while the pool
    # runs; workers receive the queue sink through the initializer.
    sink = bus.start(context) if bus is not None else None
    campaign_id = bus.campaign_id if bus is not None else None
    results: List[Optional[ScenarioResult]] = [None] * len(scenarios)
    worker_stats: Dict[str, Dict] = {}
    with context.Pool(processes=workers, initializer=_init_worker,
                      initargs=(cache, sink, campaign_id)) as pool:
        for indices, chunk_results, sidecar in pool.imap_unordered(
                _chunk_worker, payloads, chunksize=1):
            for index, result in zip(indices, chunk_results):
                results[index] = result
            worker_stats[str(sidecar["pid"])] = sidecar
    if telemetry is not None:
        telemetry["prefix_tree"] = _tree_telemetry(plans)
        telemetry["workers"] = {
            pid: {"prefix_cache": sidecar["prefix_cache"],
                  "cycle_cache": sidecar["cycle_cache"]}
            for pid, sidecar in sorted(worker_stats.items())}
        cycle_totals: Dict[str, int] = {}
        for sidecar in worker_stats.values():
            for name, value in (sidecar["cycle_cache"] or {}).items():
                cycle_totals[name] = cycle_totals.get(name, 0) + value
        telemetry["cycle_cache"] = {"enabled": cycle_cache,
                                    **cycle_totals}
    _close_bus(bus, results, telemetry)  # type: ignore[arg-type]
    return results  # type: ignore[return-value]


def run_campaign(scenarios: Sequence[Scenario], *,
                 workers: int = 1,
                 chunksize: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 check_interval: int = TIMEOUT_CHECK_INTERVAL,
                 prefix_cache: bool = True,
                 cycle_cache: bool = False,
                 telemetry: Optional[Dict] = None,
                 bus=None,
                 artifacts: Optional[ScenarioArtifacts] = None
                 ) -> List[ScenarioResult]:
    """Serial (`workers <= 1`) or pooled campaign execution.

    *bus* streams live telemetry (see :func:`run_serial` /
    :func:`run_pool`); *artifacts* dumps per-scenario files.  Both leave
    every deterministic output — campaign digest, trace digests, oracle
    verdicts — byte-identical to a run without them, as does
    *cycle_cache* (steady-state MTF memoization, off by default).

    Raises :class:`ValueError` before running anything when
    *cycle_cache* is set and any scenario is a constellation: the cache
    memoizes a single simulator and is never armed on lockstep nodes.
    """
    check_cycle_cache(scenarios, cycle_cache)
    if workers <= 1:
        return run_serial(scenarios, timeout_s=timeout_s,
                          check_interval=check_interval,
                          prefix_cache=prefix_cache,
                          cycle_cache=cycle_cache,
                          telemetry=telemetry, bus=bus,
                          artifacts=artifacts)
    return run_pool(scenarios, workers=workers, chunksize=chunksize,
                    timeout_s=timeout_s, check_interval=check_interval,
                    prefix_cache=prefix_cache,
                    cycle_cache=cycle_cache,
                    telemetry=telemetry, bus=bus, artifacts=artifacts)
