"""Tests for simulator self-profiling (repro.obs.profiling)."""

import json

from repro.apps.prototype import (
    MTF,
    build_prototype,
    inject_faulty_process,
    make_simulator,
)
from repro.obs.profiling import SelfProfiler


def build(faulty=True):
    simulator = make_simulator(build_prototype())
    if faulty:
        inject_faulty_process(simulator)
    return simulator


class TestSelfProfiler:
    def test_accumulates_per_subsystem(self):
        profiler = SelfProfiler()
        profiler.record("scheduler", 0.25)
        profiler.record("scheduler", 0.25)
        profiler.record("router", 0.5)
        report = profiler.report()
        assert report["subsystems"]["scheduler"]["calls"] == 2
        assert report["subsystems"]["scheduler"]["share"] == 0.5
        assert report["accounted_seconds"] == 1.0
        assert report["deterministic"] is False

    def test_report_json_parses(self):
        profiler = SelfProfiler()
        profiler.record("pal", 0.001)
        assert json.loads(profiler.report_json())["subsystems"]["pal"]


class TestProfiledRun:
    def test_profiled_stepped_run_accounts_subsystems(self):
        simulator = build()
        profiler = simulator.enable_profiling()
        simulator.run(2 * MTF)
        report = profiler.report(simulator)
        for subsystem in ("scheduler", "pal", "runtime", "router"):
            assert report["subsystems"][subsystem]["seconds"] > 0
        assert report["event_core"]["ticks_stepped"] == 2 * MTF
        assert report["event_core"]["ticks_batched"] == 0

    def test_profiled_fast_run_accounts_spans(self):
        simulator = build()
        profiler = simulator.enable_profiling()
        simulator.run_fast(2 * MTF)
        report = profiler.report(simulator)
        stats = report["event_core"]
        assert stats["spans_batched"] > 0
        assert stats["ticks_batched"] + stats["ticks_stepped"] == 2 * MTF
        assert 0.0 < stats["batched_fraction"] < 1.0
        assert report["subsystems"]["execute_span"]["calls"] == \
            stats["spans_batched"]

    def test_profiling_does_not_change_behaviour(self):
        bare = build()
        bare.run_fast(3 * MTF)
        profiled = build()
        profiled.enable_profiling()
        profiled.run_fast(3 * MTF)
        assert profiled.trace.digest() == bare.trace.digest()
        assert profiled.pmk.partition_ticks == bare.pmk.partition_ticks

        stepped = build()
        stepped.enable_profiling()
        stepped.run(3 * MTF)
        assert stepped.trace.digest() == bare.trace.digest()


    def test_profiling_wraps_only_this_simulator(self):
        profiled = build()
        profiler = profiled.enable_profiling()
        other = build()
        other.run_fast(MTF)
        assert profiler.seconds == {}
        assert "tick" in vars(profiled.pmk.scheduler)
        assert "tick" not in vars(other.pmk.scheduler)

    def test_nested_entry_points_count_towards_the_outer_one(self):
        profiler = SelfProfiler()
        inner = profiler.wrap("memory", lambda: None)
        outer = profiler.wrap("execute_span", lambda: inner())
        outer()
        inner()
        assert profiler.calls == {"execute_span": 1, "memory": 1}


class TestEventCoreStats:
    def test_stepped_run_batches_nothing(self):
        simulator = build(faulty=False)
        simulator.run(MTF)
        stats = simulator.event_core_stats
        assert stats == {"spans_batched": 0, "ticks_batched": 0,
                         "ticks_stepped": MTF}

    def test_fast_run_batches_most_ticks(self):
        simulator = build(faulty=False)
        simulator.run_fast(10 * MTF)
        stats = simulator.event_core_stats
        assert stats["ticks_batched"] + stats["ticks_stepped"] == 10 * MTF
        assert stats["ticks_batched"] > stats["ticks_stepped"]
