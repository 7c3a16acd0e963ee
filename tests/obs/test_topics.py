"""Tests for the governed telemetry topic namespace (obs.telemetry.topics)."""

import pytest

from repro.obs.derived import COMPACT_METRIC_NAMES
from repro.obs.instrument import AIR_INSTRUMENTS
from repro.obs.telemetry import (
    CHANNEL_DETERMINISTIC,
    CHANNEL_TIMING,
    TopicRegistry,
    TopicSpec,
    default_registry,
)


class TestTopicSpec:
    def test_pattern_with_placeholders_matches(self):
        spec = TopicSpec(pattern="campaign/<digest>/scenario/<id>/started",
                         type="event", units="", channel=CHANNEL_TIMING,
                         version="1.0.0", description="scenario start")
        def segments(topic):
            return tuple(topic.split("/"))

        assert spec.matches(
            segments("campaign/abc123/scenario/chaos-00001/started"))
        assert not spec.matches(segments("campaign/abc123/scenario/started"))
        assert not spec.matches(
            segments("campaign/abc123/scenario/x/finished"))

    def test_static_segments_must_be_lowercase(self):
        with pytest.raises(ValueError):
            TopicSpec(pattern="Campaign/<digest>/report", type="event",
                      units="", channel=CHANNEL_TIMING, version="1.0.0",
                      description="bad casing")

    def test_bad_semver_rejected(self):
        with pytest.raises(ValueError):
            TopicSpec(pattern="bench/<b>/<f>", type="gauge", units="",
                      channel=CHANNEL_TIMING, version="1.0",
                      description="bad version")

    def test_bad_type_and_channel_rejected(self):
        with pytest.raises(ValueError):
            TopicSpec(pattern="a/b", type="meter", units="",
                      channel=CHANNEL_TIMING, version="1.0.0",
                      description="bad type")
        with pytest.raises(ValueError):
            TopicSpec(pattern="a/b", type="gauge", units="",
                      channel="realtime", version="1.0.0",
                      description="bad channel")

    def test_segment_values_must_name_a_placeholder(self):
        with pytest.raises(ValueError):
            TopicSpec(pattern="worker/<n>/cache/<stat>", type="counter",
                      units="", channel=CHANNEL_TIMING, version="1.0.0",
                      description="constraint on unknown placeholder",
                      segment_values={"nope": ("hits",)})


class TestTopicRegistry:
    def make_registry(self):
        registry = TopicRegistry()
        registry.register(TopicSpec(
            pattern="worker/<n>/cache/<stat>", type="counter", units="",
            channel=CHANNEL_TIMING, version="1.0.0",
            description="cache counters",
            segment_values={"stat": ("hits", "misses")}))
        return registry

    def test_duplicate_pattern_rejected(self):
        registry = self.make_registry()
        with pytest.raises(ValueError):
            registry.register(TopicSpec(
                pattern="worker/<n>/cache/<stat>", type="gauge", units="",
                channel=CHANNEL_TIMING, version="1.0.0",
                description="dup"))

    def test_validate_ok(self):
        registry = self.make_registry()
        assert registry.validate("worker/123/cache/hits") == []
        assert registry.validate("worker/123/cache/hits",
                                 channel=CHANNEL_TIMING) == []

    def test_validate_segment_values_enforced(self):
        registry = self.make_registry()
        violations = registry.validate("worker/123/cache/bogus")
        assert violations and "bogus" in violations[0]

    def test_validate_channel_cross_check(self):
        registry = self.make_registry()
        violations = registry.validate("worker/123/cache/hits",
                                       channel=CHANNEL_DETERMINISTIC)
        assert violations and "channel" in violations[0]

    def test_validate_structure(self):
        registry = self.make_registry()
        assert registry.validate("")  # empty
        assert registry.validate("worker//cache/hits")  # empty segment
        assert registry.validate("a/" * 10 + "b")  # too many segments
        assert registry.validate("worker/" + "x" * 80 + "/cache/hits")

    def test_validate_unknown_topic(self):
        registry = self.make_registry()
        violations = registry.validate("nothing/registered/here")
        assert violations and "no registered topic" in violations[0]

    def test_validate_batch_mixed(self):
        registry = self.make_registry()
        report = registry.validate_batch([
            "worker/1/cache/hits",
            ("worker/1/cache/misses", CHANNEL_TIMING),
            "worker/1/cache/bogus",
        ])
        assert [entry["valid"] for entry in report] == [True, True, False]
        assert report[2]["violations"]

    def test_to_dict_round_trips_specs(self):
        registry = self.make_registry()
        document = registry.to_dict()
        assert document[0]["pattern"] == "worker/<n>/cache/<stat>"
        assert document[0]["segment_values"] == {
            "stat": ["hits", "misses"]}


class TestDefaultRegistry:
    def test_lifecycle_topics_governed(self):
        registry = default_registry()
        digest, sid = "b683ea2d3f2a000f", "chaos-00001"
        for suffix in ("started", "forked", "progress", "finished",
                       "crashed", "flight-record"):
            topic = f"campaign/{digest}/scenario/{sid}/{suffix}"
            assert registry.validate(topic, channel=CHANNEL_TIMING) == []
        assert registry.validate(
            f"campaign/{digest}/scenario/{sid}/record",
            channel=CHANNEL_DETERMINISTIC) == []
        assert registry.validate(f"campaign/{digest}/report",
                                 channel=CHANNEL_DETERMINISTIC) == []

    def test_every_compact_metric_registered(self):
        registry = default_registry()
        for name in COMPACT_METRIC_NAMES:
            topic = f"campaign/d/scenario/s/metric/{name}"
            assert registry.validate(topic,
                                     channel=CHANNEL_DETERMINISTIC) == []
        assert registry.validate("campaign/d/scenario/s/metric/unknown")

    def test_every_air_instrument_registered(self):
        registry = default_registry()
        for name, (kind, _units) in AIR_INSTRUMENTS.items():
            assert registry.validate(f"air/{kind}/{name}") == []
        assert registry.validate("air/counter/not_an_instrument")

    def test_cache_stat_topics(self):
        from repro.campaign.prefix import SnapshotCache

        registry = default_registry()
        for stat in SnapshotCache.STAT_KEYS:
            assert registry.validate(f"worker/1234/cache/{stat}") == []
        assert registry.validate("worker/1234/cache/not_a_stat")
        # The shared-memory transport and its topic are gone.
        assert registry.validate("worker/1234/shm/attaches")

    def test_bench_topics(self):
        registry = default_registry()
        assert registry.validate("bench/campaign_e15/wall_time_s") == []
