"""Tests for the telemetry bus (events, publisher, aggregator, recorder)."""

import json
import queue

import pytest

from repro.campaign.results import STATUS_CRASHED, STATUS_OK, ScenarioResult
from repro.campaign.scenarios import Scenario
from repro.obs.telemetry import (
    CHANNEL_DETERMINISTIC,
    CHANNEL_TIMING,
    TelemetryAggregator,
    TelemetryEvent,
    TelemetryPublisher,
    campaign_spec_digest,
    derive_deterministic_events,
    flight_record,
    save_flight_record,
)


def make_result(scenario_id, status=STATUS_OK, **kwargs):
    return ScenarioResult(scenario_id=scenario_id, seed=1, status=status,
                          ticks=100, trace_digest=f"d-{scenario_id}",
                          **kwargs)


class TestTelemetryEvent:
    def test_deterministic_event_rejects_worker_and_seq(self):
        with pytest.raises(ValueError):
            TelemetryEvent(topic="campaign/x/report",
                           channel=CHANNEL_DETERMINISTIC, worker="w")
        with pytest.raises(ValueError):
            TelemetryEvent(topic="campaign/x/report",
                           channel=CHANNEL_DETERMINISTIC, seq=3)

    def test_timing_event_requires_worker(self):
        with pytest.raises(ValueError):
            TelemetryEvent(topic="worker/1/cache/hits",
                           channel=CHANNEL_TIMING)

    def test_round_trip(self):
        event = TelemetryEvent(topic="worker/1/cache/hits",
                               channel=CHANNEL_TIMING,
                               payload={"value": 3}, worker="1", seq=7)
        rebuilt = TelemetryEvent.from_dict(json.loads(event.to_json()))
        assert rebuilt == event

    def test_to_json_is_canonical(self):
        event = TelemetryEvent(topic="campaign/x/report",
                               channel=CHANNEL_DETERMINISTIC,
                               payload={"b": 1, "a": 2})
        assert event.to_json() == ('{"channel":"deterministic","payload":'
                                   '{"a":2,"b":1},"topic":'
                                   '"campaign/x/report"}')


class TestCampaignSpecDigest:
    def test_order_independent_and_content_sensitive(self):
        a = Scenario(scenario_id="s-a", factory="prototype", ticks=100)
        b = Scenario(scenario_id="s-b", factory="prototype", ticks=100,
                     seed=5)
        assert campaign_spec_digest([a, b]) == campaign_spec_digest([b, a])
        assert campaign_spec_digest([a]) != campaign_spec_digest([a, b])
        assert len(campaign_spec_digest([a])) == 16


class TestTelemetryPublisher:
    def test_lifecycle_topics_and_seq(self):
        records = []
        publisher = TelemetryPublisher(records.append, "cid", worker="w1")
        publisher.scenario_started("s1", ticks=100)
        publisher.scenario_forked("s1", tick=40)
        publisher.scenario_finished("s1", STATUS_OK, 0.5, forked_at=40)
        topics = [record["topic"] for record in records]
        assert topics == ["campaign/cid/scenario/s1/started",
                          "campaign/cid/scenario/s1/forked",
                          "campaign/cid/scenario/s1/finished"]
        assert [record["seq"] for record in records] == [0, 1, 2]
        assert all(record["worker"] == "w1" for record in records)
        assert all(record["channel"] == CHANNEL_TIMING
                   for record in records)

    def test_progress_rate_limited(self):
        records = []
        publisher = TelemetryPublisher(records.append, "cid", worker="w1",
                                       progress_interval_s=3600.0)
        publisher.scenario_progress("s1", 10, 100)
        publisher.scenario_progress("s1", 20, 100)
        publisher.scenario_progress("s2", 10, 100)  # distinct scenario
        assert len(records) == 2

    def test_full_queue_drops_without_raising(self):
        def full_sink(record):
            raise queue.Full
        publisher = TelemetryPublisher(full_sink, "cid", worker="w1")
        publisher.scenario_started("s1", ticks=100)
        publisher.cache_stats({"hits": 1})
        assert publisher.dropped == 2

    def test_worker_counter_topics(self):
        records = []
        publisher = TelemetryPublisher(records.append, "cid", worker="9")
        publisher.cache_stats({"misses": 2, "hits": 1})
        publisher.cycle_cache_stats({"hits": 4})
        assert [record["topic"] for record in records] == [
            "worker/9/cache/hits", "worker/9/cache/misses",
            "worker/9/cycle_cache/hits"]
        assert records[0]["payload"] == {"value": 1}


class TestDeriveDeterministicEvents:
    def test_sorted_records_metrics_and_report(self):
        results = [make_result("s-b", metrics=(("hm_events", 2),)),
                   make_result("s-a")]
        events = derive_deterministic_events("cid", results)
        assert [event.topic for event in events] == [
            "campaign/cid/scenario/s-a/record",
            "campaign/cid/scenario/s-b/record",
            "campaign/cid/scenario/s-b/metric/hm_events",
            "campaign/cid/report"]
        assert all(event.channel == CHANNEL_DETERMINISTIC
                   for event in events)
        assert "campaign_digest" in events[-1].payload

    def test_result_order_does_not_change_bytes(self):
        results = [make_result("s-b"), make_result("s-a")]
        forward = [event.to_json()
                   for event in derive_deterministic_events("cid", results)]
        backward = [event.to_json() for event in derive_deterministic_events(
            "cid", list(reversed(results)))]
        assert forward == backward


class TestTelemetryAggregator:
    def test_serial_ingest_counts_and_log(self, tmp_path):
        log = tmp_path / "telemetry.jsonl"
        aggregator = TelemetryAggregator("cid", log_path=str(log), total=1)
        sink = aggregator.start(None)
        publisher = TelemetryPublisher(sink, "cid", worker="serial")
        publisher.scenario_started("s1", ticks=100)
        publisher.scenario_finished("s1", STATUS_OK, 0.25, forked_at=-1)
        stats = aggregator.finish([make_result("s1")])
        assert stats["timing_events"] == 2
        assert stats["deterministic_events"] == 2  # record + report
        assert stats["invalid_topics"] == 0
        assert stats["workers_seen"] == 1
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [line["channel"] for line in lines] == [
            "timing", "timing", "deterministic", "deterministic"]

    def test_invalid_topics_counted_not_raised(self):
        aggregator = TelemetryAggregator("cid")
        sink = aggregator.start(None)
        sink({"topic": "not/governed", "channel": "timing", "payload": {},
              "worker": "w"})
        assert aggregator.finish([])["invalid_topics"] == 1

    def test_live_lines(self):
        lines = []
        aggregator = TelemetryAggregator("cid", live=True, total=2,
                                         printer=lines.append)
        sink = aggregator.start(None)
        publisher = TelemetryPublisher(sink, "cid", worker="serial")
        publisher.scenario_started("s1", ticks=100)  # no live line
        publisher.scenario_finished("s1", STATUS_OK, 0.125, forked_at=7)
        publisher.scenario_crashed("s2", "boom")
        aggregator.finish([])
        assert lines == [
            "[telemetry] 1/2 s1 ok wall=0.125s forked_at=7",
            "[telemetry] s2 CRASHED: boom"]

    def test_pool_drain_thread_round_trip(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context()
        log = tmp_path / "telemetry.jsonl"
        aggregator = TelemetryAggregator("cid", log_path=str(log))
        sink = aggregator.start(context)
        publisher = TelemetryPublisher(sink, "cid", worker="w1")
        publisher.scenario_started("s1", ticks=100)
        publisher.scenario_finished("s1", STATUS_OK, 0.5, forked_at=-1)
        stats = aggregator.finish([make_result("s1")])
        assert stats["timing_events"] == 2
        assert stats["deterministic_events"] == 2


class TestFlightRecorder:
    def test_bundle_without_simulator_degrades_gracefully(self):
        scenario = Scenario(scenario_id="s1", factory="prototype",
                            ticks=100, oracle=True)
        bundle = flight_record(scenario, status=STATUS_CRASHED,
                               error="factory exploded")
        assert bundle["scenario_id"] == "s1"
        assert bundle["error"] == "factory exploded"
        assert bundle["config_identity"] is None
        assert bundle["last_events"] == []
        assert bundle["fault_log"] == []
        assert bundle["oracle"] == {"checked": True, "violations": []}

    def test_bundle_with_live_simulator(self):
        from repro.apps.prototype import build_prototype, make_simulator
        from repro.fault.faults import StartProcessFault
        from repro.fault.injector import FaultInjector

        handles = build_prototype()
        simulator = make_simulator(handles)
        injector = FaultInjector(simulator)
        injector.schedule(100, StartProcessFault("P1", "p1-faulty"))
        injector.run_fast(2600)
        scenario = Scenario(scenario_id="s1", factory="prototype",
                            ticks=2600)
        bundle = flight_record(scenario, status=STATUS_CRASHED,
                               error="late failure", simulator=simulator,
                               injector=injector, last_n=16)
        assert bundle["tick_at_failure"] == 2600
        assert len(bundle["last_events"]) == 16
        assert bundle["config_identity"]["partitions"] == \
            ["P1", "P2", "P3", "P4"]
        assert bundle["fault_log"][0]["kind"] == "StartProcessFault"
        assert bundle["fault_log"][0]["fault"]["partition"] == "P1"
        assert bundle["occupancy"]

    def test_bundle_field_schema(self):
        # The post-mortem schema is a contract for external tooling:
        # every bundle carries exactly these keys, with the constellation
        # fields (node_id, internode_backlog) present-but-None on
        # single-node failures.
        scenario = Scenario(scenario_id="s1", factory="prototype",
                            ticks=100)
        bundle = flight_record(scenario, status=STATUS_CRASHED, error="x")
        assert sorted(bundle) == [
            "config_identity", "error", "fault_log", "forked_at_tick",
            "internode_backlog", "last_events", "node_id", "occupancy",
            "oracle", "scenario_id", "schema_version", "seed",
            "snapshot_provenance", "status", "tick_at_failure", "ticks"]
        assert bundle["node_id"] is None
        assert bundle["internode_backlog"] is None

    def test_bundle_constellation_fields(self):
        scenario = Scenario(scenario_id="s1", factory="prototype",
                            ticks=100)
        bundle = flight_record(
            scenario, status=STATUS_CRASHED, error="x", node_id=2,
            internode_backlog={"node0": 1, "node1": 0, "node2": 4,
                               "total": 5})
        assert bundle["node_id"] == 2
        assert bundle["internode_backlog"]["total"] == 5

    def test_save_and_reload(self, tmp_path):
        scenario = Scenario(scenario_id="s1", factory="prototype",
                            ticks=100)
        bundle = flight_record(scenario, status=STATUS_CRASHED, error="x")
        path = save_flight_record(bundle, str(tmp_path / "flightrec"))
        assert path.endswith("s1.flightrec.json")
        assert json.load(open(path)) == bundle

    def test_save_failure_returns_none(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        bundle = {"scenario_id": "s1"}
        assert save_flight_record(bundle, str(blocker / "sub")) is None
