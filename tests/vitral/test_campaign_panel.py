"""Tests for the VITRAL campaign panel (vitral.campaign)."""

from repro.vitral import CampaignPanel


def record(topic, payload, worker=None):
    event = {"topic": topic, "channel": "timing", "payload": payload}
    if worker is not None:
        event["worker"] = worker
    return event


class TestCampaignPanel:
    def test_scenario_lifecycle_rendering(self):
        panel = CampaignPanel(total=2)
        panel.feed(record("campaign/cid/scenario/s1/started",
                          {"ticks": 100}, worker="w1"))
        panel.feed(record("campaign/cid/scenario/s1/forked",
                          {"forked_at_tick": 40}, worker="w1"))
        panel.feed(record("campaign/cid/scenario/s1/finished",
                          {"status": "ok", "wall_time_s": 0.5,
                           "forked_at_tick": 40}, worker="w1"))
        frame = panel.render()
        assert "> s1 started (100 ticks)" in frame
        assert "~ s1 forked @ 40" in frame
        assert "* s1 ok [1/2]" in frame
        assert "scenarios: 1/2 finished, 0 crashed" in frame

    def test_crash_and_flight_record_lines(self):
        panel = CampaignPanel(total=1)
        panel.feed(record("campaign/cid/scenario/s1/crashed",
                          {"error": "boom"}, worker="w1"))
        panel.feed(record("campaign/cid/scenario/s1/flight-record",
                          {"path": "/tmp/s1.flightrec.json"}, worker="w1"))
        frame = panel.render()
        assert "! s1 CRASHED: boom" in frame
        assert "# s1 flight record ->" in frame
        assert panel.crashed == 1

    def test_worker_gauges_latest_values(self):
        panel = CampaignPanel()
        panel.feed(record("worker/7/cache/hits", {"value": 1},
                          worker="7"))
        panel.feed(record("worker/7/cache/hits", {"value": 5},
                          worker="7"))
        frame = panel.render()
        assert "7 cache: hits=5" in frame

    def test_deterministic_channel_window(self):
        panel = CampaignPanel()
        panel.feed({"topic": "campaign/cid/scenario/s1/record",
                    "channel": "deterministic",
                    "payload": {"status": "ok", "trace_digest": "abcd"}})
        panel.feed({"topic": "campaign/cid/report",
                    "channel": "deterministic",
                    "payload": {"scenarios": 1,
                                "campaign_digest": "ffff"}})
        frame = panel.render()
        assert "s1: ok digest=abcd" in frame
        assert "report: 1 scenarios digest=ffff" in frame

    def test_malformed_records_ignored(self):
        panel = CampaignPanel()
        panel.feed({})
        panel.feed({"topic": 42})
        panel.feed({"topic": "campaign/cid/report", "payload": None})
        panel.feed(record("campaign/cid/scenario/s1/unknown-kind", {},
                          worker="w"))
        panel.render()  # nothing raised, frame still composes
