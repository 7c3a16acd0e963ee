"""Fork-equivalence matrix for simulator snapshots (repro.kernel.snapshot).

The snapshot layer's contract is bit-identical continuation: a simulator
forked from a checkpoint at tick F and run to tick T produces exactly the
trace digest, metrics-registry digest and oracle verdict of an
uninterrupted run from tick 0 to T.  Every test here drives both runs
through the same fault schedule (faults before F applied in the prefix,
faults at or after F scheduled in the fork — a fault at tick F applies
before F's clock ISR in both runs) and compares all three equivalence
tokens, with the snapshot pushed through a pickle round trip so process
transport is covered on every entry of the matrix.  Each entry's digest is
also pinned to the value frozen from the per-tick clock ISR before it took
the event core's horizon shortcuts, so a defect the cold and forked runs
share still shows.
"""

import multiprocessing

import pytest

from repro.apps.prototype import (
    FAULTY_PROCESS,
    MTF,
    build_prototype,
    make_simulator,
)
from repro.exceptions import SimulationError
from repro.fault.faults import (
    MemoryViolationFault,
    MessageFloodFault,
    PartitionCrashFault,
    ProcessKillFault,
    ScheduleSwitchFault,
    StartProcessFault,
)
from repro.fault.injector import FaultInjector
from repro.fdir.oracle import check_trace
from repro.kernel.snapshot import (
    SNAPSHOT_VERSION,
    SimulatorSnapshot,
    config_identity,
)
from repro.obs import instrument


def build_sim(**kwargs):
    handles = build_prototype(fdir_supervision=True, **kwargs)
    return make_simulator(handles), handles.config


def cold_run(faults, total):
    """Uninterrupted run from tick 0, instrumented from tick 0."""
    sim, config = build_sim()
    observer = instrument(sim)
    injector = FaultInjector(sim)
    for tick, make in faults:
        injector.schedule(tick, make())
    injector.run_fast(total)
    return sim, config, observer


#: Injector entry point per ``engine`` parameter value: ``reference``
#: steps one clock interrupt per tick, ``fast`` runs the event core.
ENGINES = {"reference": "run", "fast": "run_fast"}


def forked_run(faults, total, fork_tick, *, precondition=None,
               engine="fast"):
    """Prefix to *fork_tick*, checkpoint (via pickle), fork, continue.

    *engine* drives both the prefix and the forked continuation; the
    cold run it is compared against always uses ``run_fast``, so the
    ``reference`` matrix entries also assert stepped/event-core
    bit-identity through a checkpoint.
    """
    prefix_sim, _ = build_sim()
    prefix_injector = FaultInjector(prefix_sim)
    for tick, make in faults:
        if tick < fork_tick:
            prefix_injector.schedule(tick, make())
    getattr(prefix_injector, ENGINES[engine])(fork_tick)
    assert prefix_sim.now == fork_tick
    if precondition is not None:
        precondition(prefix_sim)
    snapshot = SimulatorSnapshot.from_bytes(prefix_sim.snapshot().to_bytes())
    _, config = build_sim()
    sim = snapshot.restore(config)
    observer = instrument(sim, replay=True)
    injector = FaultInjector(sim)
    for tick, make in faults:
        if tick >= fork_tick:
            injector.schedule(tick, make())
    getattr(injector, ENGINES[engine])(total - fork_tick)
    return sim, config, observer


def assert_fork_equivalent(faults, total, fork_tick, *, pinned,
                           precondition=None, engine="fast"):
    cold_sim, cold_config, cold_obs = cold_run(faults, total)
    fork_sim, fork_config, fork_obs = forked_run(
        faults, total, fork_tick, precondition=precondition,
        engine=engine)
    assert fork_sim.now == cold_sim.now
    assert cold_sim.trace.digest() == pinned
    assert fork_sim.trace.digest() == cold_sim.trace.digest()
    assert fork_obs.collect().digest() == cold_obs.collect().digest()
    assert check_trace(fork_sim.trace, fork_config) == \
        check_trace(cold_sim.trace, cold_config)


#: The full-chaos fault schedule from the seed-sweep workload: WCET
#: overrun, memory attack, message flood, partition crash, plus a
#: commanded schedule switch — every fault class the arsenal has.
CHAOS_FAULTS = (
    (1 * MTF, lambda: StartProcessFault("P1", FAULTY_PROCESS)),
    (2 * MTF + 100, lambda: MemoryViolationFault("P4")),
    (3 * MTF + 500, lambda: MessageFloodFault("P4", "alert_out",
                                              count=100)),
    (4 * MTF + 50, lambda: PartitionCrashFault("P2")),
    (5 * MTF, lambda: ScheduleSwitchFault("chi2")),
)
CHAOS_TOTAL = 8 * MTF
CHAOS_DIGEST = "c875de5acd01f479"
SWITCH_DIGEST = "88721a844cea684f"


@pytest.mark.parametrize("engine", ["reference", "fast"])
class TestForkEquivalenceMatrix:
    """Every entry runs once per engine: the prefix and the forked
    continuation are driven by ``FaultInjector.run`` (``reference``, one
    clock interrupt per tick) or ``run_fast`` (``fast``), while the cold
    run stays on ``run_fast`` and its digest on the pinned value."""

    def test_fault_free_mid_window_fork(self, engine):
        assert_fork_equivalent((), 4 * MTF + 77, 2 * MTF + 391,
                               pinned="b3a4cf18c79fd40a", engine=engine)

    @pytest.mark.parametrize("fork_tick", [
        137,             # inside the very first partition window
        1 * MTF,         # exactly at an MTF boundary, fault due this tick
        2 * MTF + 100,   # exactly at a fault tick (applies post-fork)
        2 * MTF + 101,   # one tick after a fault applied in the prefix
        3 * MTF + 600,   # mid-window, flood in flight
        4 * MTF + 60,    # just after the partition crash
        5 * MTF + 3,     # right after the commanded switch took effect
    ])
    def test_chaos_schedule_forked_at(self, fork_tick, engine):
        assert_fork_equivalent(CHAOS_FAULTS, CHAOS_TOTAL, fork_tick,
                               pinned=CHAOS_DIGEST, engine=engine)

    def test_fork_straddling_pending_schedule_switch(self, engine):
        # Request lands at 2*MTF - 60; Algorithm 1 applies it at the
        # 2*MTF boundary.  Forking in between must carry the pending
        # switch (scheduler.next_schedule) across the checkpoint.
        faults = ((2 * MTF - 60, lambda: ScheduleSwitchFault("chi2")),)
        assert_fork_equivalent(faults, 4 * MTF, 2 * MTF - 25,
                               pinned=SWITCH_DIGEST, engine=engine)

    def test_fork_exactly_at_mtf_boundary_with_pending_chi2_switch(
            self, engine):
        # The boundary tick itself performs the switch; a snapshot taken
        # at now == boundary precedes that tick's ISR, so the fork must
        # replay the switch exactly once — not zero, not two times.
        faults = ((2 * MTF - 60, lambda: ScheduleSwitchFault("chi2")),)

        def pending(sim):
            scheduler = sim.pmk.scheduler
            assert scheduler.next_schedule is not None

        assert_fork_equivalent(faults, 4 * MTF, 2 * MTF,
                               pinned=SWITCH_DIGEST, precondition=pending,
                               engine=engine)

    def test_fork_while_partition_parked_by_fdir(self, engine):
        # Crash-loop P2 faster than the storm window: FDIR parks it at
        # tick 2510 (pinned by the supervision integration suite).  Fork
        # after parking, with one more (suppressed) injection after the
        # fork, so parked-state carry-over is what the equivalence tests.
        faults = tuple(
            (MTF + k * 400 + 10,
             lambda: MemoryViolationFault("P2")) for k in range(6))

        def parked(sim):
            assert sim.pmk.fdir.parked == ("P2",)

        assert_fork_equivalent(faults, 5 * MTF, 3000,
                               pinned="c7a95b0be01b0f91",
                               precondition=parked, engine=engine)

    def test_fork_with_nonempty_queuing_port(self, engine):
        # Flood P4's alert queue, fork while messages are still queued.
        faults = ((2 * MTF + 100,
                   lambda: MessageFloodFault("P4", "alert_out",
                                             count=100)),)

        def queued(sim):
            depths = [
                port.count
                for partition in ("P1", "P2", "P3", "P4")
                for port in sim.pmk.apex(partition)
                ._resource_tables()["queuing_ports"].values()]
            assert any(depth > 0 for depth in depths), depths

        assert_fork_equivalent(faults, 5 * MTF, 2 * MTF + 140,
                               pinned="bfb879b28b9813f6",
                               precondition=queued, engine=engine)

    def test_fork_after_watchdog_relevant_kill(self, engine):
        # Silencing P4's heartbeat exercises the watchdog expiry path;
        # fork between the kill and the expiry.
        faults = ((2 * MTF + 10,
                   lambda: ProcessKillFault("P4", "fdir-heartbeat")),)
        assert_fork_equivalent(faults, 6 * MTF, 2 * MTF + 400,
                               pinned="c5a5460945f7befc", engine=engine)

    def test_fork_after_applied_faults_with_injector_extras(self, engine):
        # Interior divergence-trie node: the checkpoint is taken AFTER
        # two faults fired, with the injector's applied log riding in the
        # extras side-channel.  The continuation seeds its injector from
        # that log (never re-applying) and schedules only the remainder.
        fork_tick = 3 * MTF
        cold_sim, cold_config, cold_obs = cold_run(CHAOS_FAULTS,
                                                   CHAOS_TOTAL)
        prefix_sim, _ = build_sim()
        prefix_injector = FaultInjector(prefix_sim)
        for tick, make in CHAOS_FAULTS:
            if tick < fork_tick:
                prefix_injector.schedule(tick, make())
        getattr(prefix_injector, ENGINES[engine])(fork_tick)
        snapshot = SimulatorSnapshot.from_bytes(
            SimulatorSnapshot.capture(
                prefix_sim,
                extras={"injector": prefix_injector.state_dict()},
            ).to_bytes())
        _, config = build_sim()
        sim = snapshot.restore(config)
        observer = instrument(sim, replay=True)
        resumed = FaultInjector(sim)
        resumed.load_state_dict(snapshot.extras["injector"])
        assert len(resumed.log) == 2  # seeded, not re-applied
        for tick, make in CHAOS_FAULTS:
            if tick >= fork_tick:
                resumed.schedule(tick, make())
        getattr(resumed, ENGINES[engine])(CHAOS_TOTAL - fork_tick)
        assert len(resumed.log) == len(CHAOS_FAULTS)
        assert cold_sim.trace.digest() == CHAOS_DIGEST
        assert sim.trace.digest() == cold_sim.trace.digest()
        assert observer.collect().digest() == cold_obs.collect().digest()
        assert check_trace(sim.trace, config) == \
            check_trace(cold_sim.trace, cold_config)

    def test_one_snapshot_forks_many_equivalent_continuations(self, engine):
        # The SAME live snapshot object is restored three times — the
        # prefix cache leans on restore copying every mutable container
        # out of the snapshot state rather than aliasing it, so a prior
        # fork's execution must never leak into the next fork.
        total = 5 * MTF
        cold_sim, _, _ = cold_run(CHAOS_FAULTS, total)
        assert cold_sim.trace.digest() == "01773628b7b9c0d1"
        prefix_sim, _ = build_sim()
        prefix_sim.run_fast(MTF - 200)  # strictly before the first fault
        shared = SimulatorSnapshot.from_bytes(
            prefix_sim.snapshot().to_bytes())
        for _ in range(3):
            _, config = build_sim()
            fork = shared.restore(config)
            injector = FaultInjector(fork)
            for tick, make in CHAOS_FAULTS:
                injector.schedule(tick, make())
            getattr(injector, ENGINES[engine])(total - fork.now)
            assert fork.trace.digest() == cold_sim.trace.digest()


class TestSnapshotGuards:
    def test_restore_rejects_structurally_different_config(self):
        sim, _ = build_sim()
        sim.run_fast(100)
        snapshot = sim.snapshot()
        other = build_prototype(fdir_supervision=True, seed=99)
        with pytest.raises(SimulationError, match="mismatch"):
            snapshot.restore(make_simulator(other).config)

    def test_restore_rejects_unsupported_version(self):
        sim, config = build_sim()
        snapshot = sim.snapshot()
        stale = SimulatorSnapshot(
            version=SNAPSHOT_VERSION + 1, tick=snapshot.tick,
            identity=snapshot.identity, time=snapshot.time,
            trace=snapshot.trace, pmk=snapshot.pmk)
        with pytest.raises(SimulationError, match="version"):
            stale.restore(config)

    def test_from_bytes_rejects_foreign_payloads(self):
        import pickle

        with pytest.raises(SimulationError, match="does not contain"):
            SimulatorSnapshot.from_bytes(pickle.dumps({"not": "a snapshot"}))

    def test_config_identity_tracks_seed_and_structure(self):
        _, a = build_sim()
        _, b = build_sim()
        assert config_identity(a) == config_identity(b)
        other = build_prototype(fdir_supervision=True, seed=1)
        assert config_identity(make_simulator(other).config) != \
            config_identity(a)


class TestSerializationTiers:
    """to_bytes/from_bytes: what rides along and what survives."""

    def capture(self):
        sim, config = build_sim()
        sim.run_fast(MTF + 137)
        return sim.snapshot(), config

    def continuation_digest(self, snapshot, config):
        sim = snapshot.restore(config)
        sim.run_fast(2 * MTF - sim.now)
        return sim.trace.digest()

    def test_extras_ride_every_serialization_tier(self):
        sim, _ = build_sim()
        sim.run_fast(MTF)
        extras = {"injector": {"log": [[7, {"kind": "x"}, "ok"]]}}
        snapshot = SimulatorSnapshot.capture(sim, extras=extras)
        assert SimulatorSnapshot.from_bytes(
            snapshot.to_bytes()).extras == extras
        # Default capture carries no extras; restore ignores them either
        # way (they are caller-owned pure data, not simulator state).
        assert SimulatorSnapshot.capture(sim).extras is None

    def test_extras_do_not_change_the_restored_continuation(self):
        snapshot, config = self.capture()
        tagged = SimulatorSnapshot(
            version=snapshot.version, tick=snapshot.tick,
            identity=snapshot.identity, time=snapshot.time,
            trace=snapshot.trace, pmk=snapshot.pmk,
            extras={"arbitrary": "payload"})
        assert self.continuation_digest(tagged, config) == \
            self.continuation_digest(snapshot, config)


def _restore_in_child(payload_and_ticks):
    """Top-level worker: restore a pickled snapshot in a fresh process."""
    payload, remaining = payload_and_ticks
    handles = build_prototype(fdir_supervision=True)
    config = make_simulator(handles).config
    sim = SimulatorSnapshot.from_bytes(payload).restore(config)
    sim.run_fast(remaining)
    return sim.trace.digest()


class TestCrossProcessRestore:
    def test_restore_into_fresh_process(self):
        total, fork_tick = 4 * MTF, MTF + 777
        cold_sim, _, _ = cold_run((), total)
        prefix_sim, _ = build_sim()
        prefix_sim.run_fast(fork_tick)
        payload = prefix_sim.snapshot().to_bytes()
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        with context.Pool(processes=1) as pool:
            digest = pool.apply(_restore_in_child,
                                ((payload, total - fork_tick),))
        assert digest == cold_sim.trace.digest()


class TestSharedRestorePrefix:
    """Restores of one snapshot share the decoded trace prefix: the same
    event objects, each in a deque of its own, and the memo never reaches
    the pickled bytes."""

    FORK_TICK = 3 * MTF + 17
    TOTAL = 5 * MTF

    def prefix_snapshot(self):
        prefix_sim, _ = build_sim()
        injector = FaultInjector(prefix_sim)
        for tick, make in CHAOS_FAULTS:
            if tick < self.FORK_TICK:
                injector.schedule(tick, make())
        injector.run_fast(self.FORK_TICK)
        return prefix_sim.snapshot()

    def continue_fork(self, fork):
        injector = FaultInjector(fork)
        for tick, make in CHAOS_FAULTS:
            if tick >= self.FORK_TICK:
                injector.schedule(tick, make())
        injector.run_fast(self.TOTAL - self.FORK_TICK)
        return fork.trace.digest()

    def test_restores_share_events_but_not_deques(self):
        snapshot = self.prefix_snapshot()
        first = snapshot.restore(build_sim()[1])
        second = snapshot.restore(build_sim()[1])
        assert first.trace._events is not second.trace._events
        assert len(first.trace) == len(second.trace) > 0
        assert all(a is b for a, b in zip(first.trace, second.trace))
        # Both continue cold-identically; neither sees the other's tail.
        assert self.continue_fork(first) == "01773628b7b9c0d1"
        assert len(second.trace) < len(first.trace)
        assert self.continue_fork(second) == "01773628b7b9c0d1"

    def test_restore_leaves_the_pickled_bytes_unchanged(self):
        snapshot = self.prefix_snapshot()
        before = snapshot.to_bytes()
        fork = snapshot.restore(build_sim()[1])
        assert snapshot.to_bytes() == before
        self.continue_fork(fork)
        assert snapshot.to_bytes() == before
        unpickled = SimulatorSnapshot.from_bytes(before)
        assert unpickled == snapshot
        assert self.continue_fork(unpickled.restore(build_sim()[1])) == \
            "01773628b7b9c0d1"
