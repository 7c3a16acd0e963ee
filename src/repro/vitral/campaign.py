"""VITRAL campaign panel — the telemetry bus rendered as text windows.

The paper's VITRAL shows *one* module live; campaigns run dozens of
scenarios across worker processes, so this panel is the campaign-scale
counterpart: it consumes the telemetry records the aggregator ingests
(:class:`repro.obs.telemetry.TelemetryAggregator` feeds every record to
``panel.feed``) and renders the same bordered-window layout as
:class:`~repro.vitral.windows.VitralScreen` — a scenario activity window
(started/forked/finished/crashed lines), a worker-cache gauge window
(latest prefix-cache counters per worker), and a
deterministic-channel window (per-scenario records and the closing
campaign report as they are derived).

The panel never touches the queue or any lock itself — the aggregator
already serializes ``feed`` calls — and it holds only bounded window
buffers, so leaving it attached for a 10k-scenario campaign costs a few
kilobytes.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from .windows import Window

__all__ = ["CampaignPanel"]


class CampaignPanel:
    """Text-window view over a live campaign telemetry stream.

    Feed it raw telemetry records (``TelemetryEvent.to_dict()`` shape);
    render it whenever a frame is wanted.  Rendering is pull-based — a
    CLI can print a frame per scenario completion, a test can assert on
    :meth:`render` output after :func:`~repro.campaign.run_campaign`
    returns.
    """

    ACTIVITY_WINDOW = "Campaign Activity"
    WORKERS_WINDOW = "Workers"
    REPORT_WINDOW = "Deterministic Channel"

    def __init__(self, *, total: int = 0, width: int = 76,
                 height: int = 10) -> None:
        self.total = total
        self.finished = 0
        self.crashed = 0
        self.activity_window = Window(self.ACTIVITY_WINDOW, width=width,
                                      height=height)
        self.workers_window = Window(self.WORKERS_WINDOW, width=width,
                                     height=height)
        self.report_window = Window(self.REPORT_WINDOW, width=width,
                                    height=height)
        #: worker label -> {prefix-cache stat -> value}
        self._workers: Dict[str, Dict[str, Any]] = {}

    # -------------------------------------------------------------- #
    # record routing
    # -------------------------------------------------------------- #

    def feed(self, record: Mapping[str, Any]) -> None:
        """Consume one telemetry record (already-validated dict shape)."""
        topic = record.get("topic", "")
        if not isinstance(topic, str):
            return
        segments = topic.split("/")
        payload = record.get("payload")
        if not isinstance(payload, Mapping):
            payload = {}
        if (len(segments) >= 5 and segments[0] == "campaign"
                and segments[2] == "scenario"):
            self._feed_scenario(segments[3], segments[4], payload)
        elif (len(segments) == 3 and segments[0] == "campaign"
                and segments[2] == "report"):
            digest = payload.get("campaign_digest", "?")
            scenarios = payload.get("scenarios", "?")
            self.report_window.write(
                f"report: {scenarios} scenarios digest={digest}")
        elif len(segments) == 4 and segments[0] == "worker":
            self._feed_worker(segments[1], segments[2], segments[3],
                              payload)

    def _feed_scenario(self, scenario_id: str, kind: str,
                       payload: Mapping[str, Any]) -> None:
        if kind == "started":
            self.activity_window.write(
                f"> {scenario_id} started ({payload.get('ticks', '?')} "
                f"ticks)")
        elif kind == "forked":
            self.activity_window.write(
                f"~ {scenario_id} forked @ "
                f"{payload.get('forked_at_tick', '?')}")
        elif kind == "finished":
            self.finished += 1
            status = payload.get("status", "?")
            marker = "*" if status == "ok" else "!"
            self.activity_window.write(
                f"{marker} {scenario_id} {status} "
                f"[{self.finished}/{self.total or '?'}] "
                f"wall={payload.get('wall_time_s', 0.0)}s")
        elif kind == "crashed":
            self.crashed += 1
            self.activity_window.write(
                f"! {scenario_id} CRASHED: {payload.get('error', '')}")
        elif kind == "flight-record":
            self.activity_window.write(
                f"# {scenario_id} flight record -> "
                f"{payload.get('path', '?')}")
        elif kind == "record":
            self.report_window.write(
                f"{scenario_id}: {payload.get('status', '?')} "
                f"digest={payload.get('trace_digest', '?')}")

    def _feed_worker(self, worker: str, section: str, stat: str,
                     payload: Mapping[str, Any]) -> None:
        if section != "cache":
            return
        self._workers.setdefault(worker, {})[stat] = payload.get("value")
        self._refresh_workers()

    def _refresh_workers(self) -> None:
        lines = []
        for worker in sorted(self._workers):
            stats = self._workers[worker]
            rendered = " ".join(f"{name}={stats[name]}"
                                for name in sorted(stats))
            lines.append(f"{worker} cache: {rendered}")
        self.workers_window.set_lines(lines)

    # -------------------------------------------------------------- #
    # rendering
    # -------------------------------------------------------------- #

    def render(self) -> str:
        """The panel as one printable frame."""
        rows = []
        rows.extend(self.activity_window.render())
        rows.extend(self.workers_window.render())
        rows.extend(self.report_window.render())
        rows.append(f" scenarios: {self.finished}/{self.total or '?'} "
                    f"finished, {self.crashed} crashed")
        return "\n".join(rows)
