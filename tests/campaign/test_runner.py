"""Tests for serial and pooled campaign execution."""

import pytest

from repro.campaign.results import STATUS_CRASHED, STATUS_OK, STATUS_TIMEOUT
from repro.campaign.runner import (
    autodetect_workers,
    run_campaign,
    run_pool,
    run_scenario,
    run_serial,
)
from repro.campaign.scenarios import Scenario, fault_matrix_campaign
from repro.apps.prototype import FAULTY_PROCESS, MTF
from repro.fault.faults import StartProcessFault


def faulty_scenario(scenario_id="one", mtfs=4, seed=0):
    return Scenario(
        scenario_id=scenario_id, factory="prototype", seed=seed,
        ticks=mtfs * MTF,
        faults=((1 * MTF, StartProcessFault("P1", FAULTY_PROCESS)),),
        schedule_commands=((2 * MTF, "chi2"),))


class TestRunScenario:
    def test_ok_scenario_reports_metrics(self):
        result = run_scenario(faulty_scenario())
        assert result.status == STATUS_OK
        assert result.ok
        assert result.ticks == 4 * MTF
        # The injected WCET overrun misses on every post-injection P1
        # dispatch except the first (Sect. 6).
        assert result.deadline_misses >= 1
        assert result.schedule_switches == 1
        assert result.faults_applied == 2  # fault + switch command
        assert result.trace_events > 0
        assert len(result.trace_digest) == 16
        assert dict(result.occupancy)["P1"] == 4 * 200

    def test_scenario_results_are_deterministic(self):
        first = run_scenario(faulty_scenario())
        second = run_scenario(faulty_scenario())
        assert first.to_dict() == second.to_dict()

    def test_broken_factory_degrades_to_crashed_result(self):
        result = run_scenario(Scenario(scenario_id="b", factory="broken",
                                       ticks=100))
        assert result.status == STATUS_CRASHED
        assert "broken factory" in result.error
        assert not result.ok

    def test_unknown_schedule_command_degrades_to_crashed_result(self):
        scenario = Scenario(scenario_id="u", factory="prototype",
                            ticks=2 * MTF,
                            schedule_commands=((MTF, "no-such-chi"),))
        result = run_scenario(scenario)
        assert result.status == STATUS_CRASHED
        assert "no-such-chi" in result.error

    def test_timeout_degrades_to_timeout_result(self):
        # The full horizon takes seconds; building the config and the
        # simulator takes milliseconds.  A 0.5 s budget therefore always
        # expires mid-run, never before the first span.
        scenario = Scenario(scenario_id="t", factory="prototype",
                            ticks=10_000_000)
        result = run_scenario(scenario, timeout_s=0.5)
        assert result.status == STATUS_TIMEOUT
        assert 0 < result.ticks < 10_000_000
        assert "wall-clock" in result.error

    def test_injection_log_surfaced_in_result(self):
        result = run_scenario(faulty_scenario())
        assert [(tick, kind) for tick, kind, _ in result.injections] == [
            (1 * MTF, "StartProcessFault"),
            (2 * MTF, "ScheduleSwitchFault"),
        ]
        assert result.injections[0][2] \
            == "started P1/p1-faulty: noError"
        assert result.to_dict()["injections"] == [
            {"tick": tick, "fault": kind, "status": status}
            for tick, kind, status in result.injections]

    def test_check_interval_does_not_change_the_result(self):
        default = run_scenario(faulty_scenario(), timeout_s=60.0)
        fine = run_scenario(faulty_scenario(), timeout_s=60.0,
                            check_interval=137)
        assert fine.to_dict() == default.to_dict()

    def test_invalid_check_interval_rejected(self):
        with pytest.raises(ValueError, match="check_interval"):
            run_scenario(faulty_scenario(), check_interval=0)


class TestOracleIntegration:
    def test_invariant_violation_downgrades_to_crashed(self, monkeypatch):
        from repro.campaign import runner as runner_module
        from repro.fdir.oracle import InvariantViolation

        def corrupt(trace, config=None, **kwargs):
            return (InvariantViolation(
                invariant="schedule-conformance", tick=42,
                detail="planted for the test"),)

        monkeypatch.setattr(runner_module, "check_trace", corrupt)
        result = run_scenario(faulty_scenario())
        assert result.status == STATUS_CRASHED
        assert result.error.startswith("oracle: 1 invariant violation")
        assert "schedule-conformance@42" in result.error

    def test_oracle_opt_out_skips_the_check(self, monkeypatch):
        from dataclasses import replace

        from repro.campaign import runner as runner_module

        def explode(trace, config=None, **kwargs):  # pragma: no cover
            raise AssertionError("oracle must not run when opted out")

        monkeypatch.setattr(runner_module, "check_trace", explode)
        result = run_scenario(replace(faulty_scenario(), oracle=False))
        assert result.status == STATUS_OK

    def test_real_scenarios_pass_the_oracle(self):
        # Every faulty_scenario run in this file goes through the real
        # check_trace and still reports ok — asserted explicitly here.
        assert run_scenario(faulty_scenario()).status == STATUS_OK


class TestCampaignExecution:
    def test_one_bad_scenario_does_not_abort_the_campaign(self):
        scenarios = [faulty_scenario("a"),
                     Scenario(scenario_id="b", factory="broken", ticks=10),
                     faulty_scenario("c", seed=1)]
        results = run_serial(scenarios)
        assert [r.status for r in results] == \
            [STATUS_OK, STATUS_CRASHED, STATUS_OK]

    def test_pool_preserves_scenario_order(self):
        scenarios = fault_matrix_campaign(count=6, mtfs=4)
        results = run_pool(scenarios, workers=2)
        assert [r.scenario_id for r in results] == \
            [s.scenario_id for s in scenarios]

    def test_pool_absorbs_crashed_scenarios(self):
        scenarios = [faulty_scenario("a"),
                     Scenario(scenario_id="b", factory="broken", ticks=10),
                     faulty_scenario("c", seed=1),
                     Scenario(scenario_id="d", factory="broken", ticks=10)]
        results = run_pool(scenarios, workers=2)
        assert [r.status for r in results] == \
            [STATUS_OK, STATUS_CRASHED, STATUS_OK, STATUS_CRASHED]

    def test_run_campaign_dispatches_serial_below_two_workers(self):
        scenarios = fault_matrix_campaign(count=2, mtfs=3)
        assert [r.to_dict() for r in run_campaign(scenarios, workers=1)] \
            == [r.to_dict() for r in run_serial(scenarios)]

    def test_autodetect_workers_positive(self):
        assert autodetect_workers() >= 1

    def test_pooled_cycle_counters_exclude_the_parents_earlier_runs(self):
        # Cycle caches live per simulator, so a campaign's counters do
        # not depend on dispatch.  Forked workers must not carry in the
        # totals this process accumulated before the pool started.
        from repro.campaign.scenarios import config_sweep_campaign

        scenarios = config_sweep_campaign(count=4, ticks=8_000)
        serial, pooled = {}, {}
        run_serial(scenarios, cycle_cache=True, telemetry=serial)
        run_pool(scenarios, workers=2, cycle_cache=True, telemetry=pooled)
        assert serial["cycle_cache"]["hits"] > 0
        for key in ("hits", "misses", "invalidations"):
            assert pooled["cycle_cache"][key] == serial["cycle_cache"][key]


class TestChaosCampaignDigest:
    """Campaign-scale gate: a 50-scenario chaos barrage produces
    byte-identical deterministic reports (trace digests, metrics, oracle
    verdicts) serial and pooled, pinned to the report frozen from the
    per-tick clock ISR before it took the event core's horizon
    shortcuts."""

    #: sha256 prefix of the serial deterministic report.
    PINNED = "3eac2ea3290faba7"

    @pytest.fixture(scope="class")
    def chaos_50(self):
        from repro.campaign.scenarios import chaos_campaign

        return chaos_campaign(count=50, mtfs=5, base_seed=11)

    @pytest.fixture(scope="class")
    def reference_report(self, chaos_50):
        return self.deterministic(run_serial(chaos_50))

    def deterministic(self, results):
        import json

        from repro.campaign.results import deterministic_report

        return json.dumps(deterministic_report(results), sort_keys=True)

    def test_serial_report_matches_pin(self, reference_report):
        import hashlib

        digest = hashlib.sha256(reference_report.encode()).hexdigest()
        assert digest[:16] == self.PINNED

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_chaos_digests_match_serial(
            self, chaos_50, reference_report, workers):
        pooled = run_campaign(chaos_50, workers=workers)
        assert self.deterministic(pooled) == reference_report
        assert all(result.ok for result in pooled)


def deterministic(results):
    import json

    from repro.campaign.results import deterministic_report

    return json.dumps(deterministic_report(results), sort_keys=True)


class TestPrefixTreeDigestEquality:
    """The divergence-trie acceptance gate: over a deep shared-fault
    chaos campaign, the deterministic report is byte-identical across
    {tree on, tree off (cold)} x {serial, pooled at 1/2/4 workers} x chunk
    sizes — the trie, its dispatch grouping and the parent's pre-built
    chains are pure optimizations."""

    @pytest.fixture(scope="class")
    def shared_chaos(self):
        from repro.campaign.scenarios import chaos_campaign

        return chaos_campaign(count=12, mtfs=8, base_seed=7,
                              shared_seed=True, prefix_mtfs=2,
                              shared_faults=2)

    @pytest.fixture(scope="class")
    def tree_off_report(self, shared_chaos):
        # The cold run: every scenario simulated from tick 0.
        return deterministic(run_serial(shared_chaos, prefix_cache=False))

    def test_serial_tree_on_matches_tree_off(self, shared_chaos,
                                             tree_off_report):
        telemetry = {}
        results = run_serial(shared_chaos, telemetry=telemetry)
        assert deterministic(results) == tree_off_report
        assert telemetry["prefix_tree"]["enabled"]
        assert telemetry["prefix_tree"]["planned_scenarios"] == \
            len(shared_chaos)
        # Interior forking really happened: past the fault-free prefix.
        assert max(r.forked_at_tick for r in results) > 2 * MTF

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("prefix_cache", [True, False])
    def test_pooled_digests_match_at_any_worker_count(
            self, shared_chaos, tree_off_report, workers, prefix_cache):
        pooled = run_campaign(shared_chaos, workers=workers,
                              prefix_cache=prefix_cache)
        assert deterministic(pooled) == tree_off_report

    def test_chunksize_never_changes_the_report(self, shared_chaos,
                                                tree_off_report):
        pooled = run_pool(shared_chaos, workers=2, chunksize=1)
        assert deterministic(pooled) == tree_off_report

    def test_pool_hands_prebuilt_chains_to_workers(self, shared_chaos,
                                                   tree_off_report):
        # chunksize=3 cuts the one shared group into four tasks, so the
        # parent pre-builds the group's chain and every worker starts
        # with it: each lookup hits a pre-built level, none misses.
        telemetry = {}
        pooled = run_pool(shared_chaos, workers=2, chunksize=3,
                          telemetry=telemetry)
        assert deterministic(pooled) == tree_off_report
        tree = telemetry["prefix_tree"]
        assert tree["enabled"]
        assert tree["groups"] >= 1
        assert tree["capture_levels"] >= 1
        assert telemetry["workers"]
        for stats in telemetry["workers"].values():
            cache = stats["prefix_cache"]
            assert cache["entries"] >= tree["capture_levels"]
            assert cache["hits"] > 0
            assert cache["misses"] == 0

    def test_spawned_workers_receive_the_prebuilt_chains(
            self, shared_chaos, tree_off_report, monkeypatch):
        # Where fork is unavailable the initializer pickles the parent's
        # pre-built cache into each spawned worker instead.
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        telemetry = {}
        pooled = run_pool(shared_chaos, workers=2, chunksize=3,
                          telemetry=telemetry)
        assert deterministic(pooled) == tree_off_report
        assert telemetry["workers"]
        for stats in telemetry["workers"].values():
            assert stats["prefix_cache"]["hits"] > 0
            assert stats["prefix_cache"]["misses"] == 0


def _scan(trace, event_type):
    """Reference count: a full isinstance scan of the retained events."""
    return sum(1 for event in trace.events if isinstance(event, event_type))


class TestTraceTally:
    """The memoized tally replaces four isinstance scans per scenario; it
    must agree with a scan on chaos runs with memory faults and HM
    restarts, bounded or not, and feed the result counters."""

    @pytest.fixture(scope="class")
    def chaos(self):
        from repro.campaign.scenarios import chaos_campaign

        return chaos_campaign(count=6, mtfs=6)

    @staticmethod
    def run_trace(scenario, capacity=None):
        import dataclasses

        from repro.fault.injector import FaultInjector
        from repro.kernel.simulator import Simulator

        config = dataclasses.replace(scenario.build_config(),
                                     trace_capacity=capacity)
        simulator = Simulator(config)
        injector = FaultInjector(simulator)
        for tick, fault in scenario.timeline():
            injector.schedule(tick, fault)
        injector.run_fast(scenario.ticks)
        return simulator.trace

    @pytest.mark.parametrize("capacity", [None, 400])
    def test_tally_matches_scans(self, chaos, capacity):
        from repro.kernel.trace import _EVENT_TYPES, HealthMonitorEvent, \
            MemoryFault
        from repro.types import RecoveryAction

        seen = set()
        restarts = 0
        for scenario in chaos:
            trace = self.run_trace(scenario, capacity)
            tally = trace.tally()
            for event_type in _EVENT_TYPES.values():
                assert tally.get(event_type, 0) == \
                    trace.count(event_type) == _scan(trace, event_type)
            seen.update(kind for kind, count in tally.items() if count)
            restarts += sum(
                1 for event in trace.of_type(HealthMonitorEvent)
                if event.action == RecoveryAction.RESTART_PARTITION.value)
            if capacity is not None:
                assert len(trace) == capacity and trace.dropped
        assert MemoryFault in seen and restarts

    def test_result_counters_match_scans(self, chaos):
        from repro.kernel.trace import DeadlineMissed, HealthMonitorEvent, \
            MemoryFault, ScheduleSwitched

        for scenario in chaos:
            trace = self.run_trace(scenario)
            result = run_scenario(scenario)
            assert result.trace_digest == trace.digest()
            assert result.deadline_misses == _scan(trace, DeadlineMissed)
            assert result.hm_events == _scan(trace, HealthMonitorEvent)
            assert result.schedule_switches == _scan(trace,
                                                     ScheduleSwitched)
            assert result.memory_faults == _scan(trace, MemoryFault)
