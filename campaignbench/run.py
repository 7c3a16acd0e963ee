"""Serial campaign benchmark: closed-loop ``repro campaign`` passes.

Usage, from the root of a checkout::

    python3 campaignbench/run.py --workload chaos-trie --seed 0 \\
        --seconds 20 --trace 0

A run builds the workload's scenario list through the real CLI
(``capture.py``), then executes back-to-back passes for ``--seconds``: one
pass is what ``repro campaign`` does once its list is built,
``run_campaign`` with the CLI's own arguments (``--workers 1``) plus the
printed summary.  Each pass starts only after the previous one ended (a
closed loop with one client).

``--trace 0`` reports the end-to-end metrics, timed with no layer
instrumentation beyond a clock pair around each scenario's top-level
call.  ``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics from the traced ones (``spans.py``) and states the
tracing overhead against the untraced ones.

Times are host times scaled to a reference host speed: a calibration
slice runs after every scenario, outside the timed intervals, and each
pass is scaled by its slices (``hostspeed.py``).  The run record keeps
the raw host times beside the scaled ones.

Every pass must reproduce the first pass's campaign digest and
per-scenario verdicts; at seed 0 the digest and the failed scenarios must
equal the pinned ones in ``workloads.py``.  The last stdout line is the
result object; the line before it, and ``.bench_out/<workload>.trace<T>.json``,
hold the full run record with its provenance.  Traced runs also write
their spans to ``.bench_out/<workload>.spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from arith import highest_supported, min_samples, nearest_rank, \
    quartiles, ratio  # noqa: E402
import hostspeed  # noqa: E402
from capture import ROOT, SRC, add_source_path, capture_campaign  # noqa: E402
from spans import Tracer, instrumented, scenario_hook  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter set-ups measured per run (after one that fills the
#: bytecode cache and is discarded); the median is ``setup_s``.
SETUP_REPEATS = 5

#: Scenarios run once before timing, so lazy imports and first-call
#: costs stay out of the measured passes.
WARMUP_SCENARIOS = 4

#: The latency percentiles reported; the highest must keep ten samples
#: beyond it, which sets the fewest scenarios a run may measure.
LATENCY_PCTS = (50.0, 90.0)

#: The fewest passes a run measures; throughputs are the passes' median.
MIN_PASSES = 2

#: Units of the metrics the host-speed factor scales.
TIME_UNITS = ("s", "ms", "ns")

OUT_DIR = os.path.join(ROOT, ".bench_out")


# ------------------------------------------------------------------ #
# set-up
# ------------------------------------------------------------------ #


def measure_setup(argv) -> List[Dict[str, float]]:
    """Launch-to-built-list times of fresh interpreters (``setup_probe``),
    each with the host-speed factor of the probe's calibration slices.

    Probes run with bytecode caching on whatever the caller's environment
    says, so the discarded first probe fills the cache and every measured
    one starts warm, as a user's repeated CLI runs do.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    runs = []
    for attempt in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, *argv], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            slices = proc.stdout.readline()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or not slices.strip():
            raise SystemExit(f"setup probe failed (exit {proc.returncode})")
        doc = json.loads(line)
        doc["setup_s"] = elapsed - doc["calibration_s"]
        doc["factor"] = hostspeed.factor(doc.pop("slices")
                                         + json.loads(slices))
        if attempt:
            runs.append(doc)
    return runs


# ------------------------------------------------------------------ #
# passes
# ------------------------------------------------------------------ #


class Pass(NamedTuple):
    """One pass: raw host seconds (calibration slices excluded), the
    host-speed factor that scales them, per-scenario raw latencies and
    the deterministic outcome."""

    raw_s: float
    factor: float
    latencies_ms: List[float]
    outcome: Dict[str, Any]
    layers: Optional[Tuple[Dict[str, List[float]], Dict[str, float]]] = None

    @property
    def seconds(self) -> float:
        return self.raw_s * self.factor


class Campaign:
    """One workload's captured scenario list and its pass executor."""

    def __init__(self, argv) -> None:
        from repro.campaign import aggregate, render_summary, run_campaign

        self.scenarios, self.kwargs = capture_campaign(argv)
        self._run = run_campaign
        self._render = render_summary
        self._aggregate = aggregate
        self._sink = open(os.devnull, "w", encoding="utf-8")

    def close(self) -> None:
        self._sink.close()

    def _kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.kwargs)
        if "telemetry" in kwargs:
            kwargs["telemetry"] = {}  # the CLI hands each run a fresh dict
        return kwargs

    def warm_up(self) -> None:
        self._run(self.scenarios[:WARMUP_SCENARIOS], **self._kwargs())

    def run_pass(self, tracer=None) -> "Pass":
        """One timed pass; with *tracer*, under the layer spans."""
        gc.collect()
        kwargs = self._kwargs()
        latencies: List[float] = []
        slices: List[float] = []

        def after_scenario(nanoseconds: int) -> None:
            latencies.append(nanoseconds / 1e6)
            if tracer is None:
                slices.append(hostspeed.slice_s())
            else:
                with tracer.span("bench.calibrate"):
                    slices.append(hostspeed.slice_s())

        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(instrumented(tracer))
                stack.enter_context(tracer.span("runner.pass"))
            stack.enter_context(scenario_hook(after_scenario))
            started = time.perf_counter()
            results = self._run(self.scenarios, **kwargs)
            with (tracer.span("results.summary") if tracer is not None
                  else contextlib.nullcontext()):
                text = self._render(results)
                print(text, file=self._sink)
            wall = time.perf_counter() - started
        return Pass(raw_s=wall - sum(slices),
                    factor=hostspeed.factor(slices),
                    latencies_ms=latencies,
                    outcome=self.outcome(results, text))

    def outcome(self, results, text: str) -> Dict[str, Any]:
        """The pass's deterministic outcome, checked against its summary."""
        digest = self._aggregate(results)["campaign_digest"]
        return {"digest": digest,
                "printed": f"campaign digest : {digest}" in text,
                "verdicts": sorted((r.scenario_id, r.status)
                                   for r in results),
                "failed": sorted({r.scenario_id for r in results
                                  if not r.ok}),
                "ticks": sum(r.ticks for r in results),
                "sim_ticks": self._sim_ticks(results),
                "forked": sum(1 for r in results if r.forked_at_tick >= 0),
                "ticks_skipped": sum(max(r.forked_at_tick, 0)
                                     for r in results),
                "trace_events": sum(r.trace_events for r in results)}

    def _sim_ticks(self, results) -> int:
        """Simulated ticks, every constellation node counted."""
        nodes = {s.scenario_id: (s.constellation.nodes
                                 if getattr(s, "is_constellation", False)
                                 else 1)
                 for s in self.scenarios}
        return sum(r.ticks * nodes[r.scenario_id] for r in results)


def check_outcomes(name: str, seed: int, outcomes, scenarios
                   ) -> Tuple[bool, List[str]]:
    """Every pass agrees with the first; seed 0 matches the pins."""
    problems = []
    first = outcomes[0]
    ids = {scenario.scenario_id for scenario in scenarios}
    if len(ids) != len(scenarios) or len(first["verdicts"]) != len(ids):
        problems.append("scenario ids are not distinct or results missing")
    if not all(outcome["printed"] for outcome in outcomes):
        problems.append("a printed summary lacks its campaign digest")
    for index, outcome in enumerate(outcomes[1:], start=1):
        if (outcome["digest"], outcome["verdicts"]) != \
                (first["digest"], first["verdicts"]):
            problems.append(f"pass {index} digest {outcome['digest']} != "
                            f"pass 0 digest {first['digest']}")
    if seed == 0:
        workload = WORKLOADS[name]
        if first["digest"] != workload.seed0_digest:
            problems.append(f"seed-0 digest {first['digest']} != pinned "
                            f"{workload.seed0_digest}")
        if tuple(first["failed"]) != workload.seed0_failed:
            problems.append(f"seed-0 failures {first['failed']} != pinned "
                            f"{list(workload.seed0_failed)}")
    return not problems, problems


# ------------------------------------------------------------------ #
# metrics
# ------------------------------------------------------------------ #


def end_to_end(campaign: Campaign, setups, passes: List[Pass]
               ) -> Dict[str, Tuple[List[float], List[float], str]]:
    """Every end-to-end metric: ``(scaled samples, raw samples, unit)``."""
    count = len(campaign.scenarios)
    ok = count - len(passes[0].outcome["failed"])
    raw_lat = [ms for p in passes for ms in p.latencies_ms]
    lat = [ms * p.factor for p in passes for ms in p.latencies_ms]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = {
        "setup_s": ([s["setup_s"] * s["factor"] for s in setups],
                    [s["setup_s"] for s in setups], "s"),
        "scenarios_per_s": ([count / p.seconds for p in passes],
                            [count / p.raw_s for p in passes], "1/s"),
        "sim_ticks_per_s": (
            [p.outcome["sim_ticks"] / p.seconds for p in passes],
            [p.outcome["sim_ticks"] / p.raw_s for p in passes], "1/s"),
    }
    for pct in LATENCY_PCTS:
        rows[f"scenario_p{pct:.0f}_ms"] = ([nearest_rank(lat, pct)],
                                           [nearest_rank(raw_lat, pct)],
                                           "ms")
    rows["peak_rss_mb"] = ([rss], [rss], "MB")
    ok_frac = ratio(ok, count)["value"]
    rows["ok_frac"] = ([ok_frac], [ok_frac], "fraction")
    return rows


def per_layer(setups, traced: List[Pass], untraced: List[Pass],
              campaign: Campaign
              ) -> Dict[str, Tuple[List[float], List[float], str]]:
    """Every per-layer metric: ``(scaled samples, raw samples, unit)``,
    one sample per traced pass.  Every ``*_s`` figure is self time: span
    duration minus what child spans cover."""
    rows: Dict[str, Tuple[List[float], List[float], str]] = {}
    scale = [1.0]  # the host-speed factor of the sample being added

    def add(name: str, value: float, unit: str) -> None:
        row = rows.setdefault(name, ([], [], unit))
        row[0].append(value * scale[0] if unit in TIME_UNITS else value)
        row[1].append(value)

    for setup in setups:
        scale[0] = setup["factor"]
        add("setup.import_s", setup["import_s"], "s")
        add("setup.build_s", setup["build_s"], "s")
    for one in traced:
        selfs, counts = one.layers
        outcome = one.outcome
        scale[0] = one.factor

        def self_s(*names: str) -> float:
            return sum(selfs.get(n, (0, 0.0))[1] for n in names)

        def spans(name: str) -> int:
            return selfs.get(name, (0, 0.0))[0]

        add("config.build_s", self_s("config.build"), "s")
        add("config.builds", spans("config.build"), "count")
        add("simulator.init_s", self_s("simulator.init"), "s")
        core_s = self_s("event_core.injector", "event_core.run")
        batched = counts.get("event_core.ticks_batched", 0)
        stepped = counts.get("event_core.ticks_stepped", 0)
        ticks = batched + stepped
        add("event_core.run_s", core_s, "s")
        add("event_core.ticks", ticks, "count")
        add("event_core.ns_per_tick", ratio(core_s * 1e9, ticks)["value"],
            "ns")
        add("event_core.stepped_frac", ratio(stepped, ticks)["value"],
            "fraction")
        hits = counts.get("cycle_cache.hits", 0)
        misses = counts.get("cycle_cache.misses", 0)
        add("cycle_cache.boundary_s", self_s("cycle_cache.boundary"), "s")
        add("cycle_cache.fingerprint_s",
            counts.get("cycle_cache.fingerprint_ns", 0) / 1e9, "s")
        add("cycle_cache.hits", hits, "count")
        add("cycle_cache.misses", misses, "count")
        add("cycle_cache.invalidations",
            counts.get("cycle_cache.invalidations", 0), "count")
        add("cycle_cache.lookups", hits + misses, "count")
        add("cycle_cache.hit_frac", ratio(hits, hits + misses)["value"],
            "fraction")
        add("snapshot.restore_s", self_s("snapshot.restore"), "s")
        add("snapshot.restores", spans("snapshot.restore"), "count")
        add("snapshot.capture_s", self_s("snapshot.capture"), "s")
        add("snapshot.captures", spans("snapshot.capture"), "count")
        add("snapshot.encode_s",
            self_s("snapshot.to_bytes", "snapshot.from_bytes"), "s")
        add("snapshot.bytes", counts.get("snapshot.bytes", 0), "B")
        scenarios = len(campaign.scenarios)
        add("campaign.scenarios", scenarios, "count")
        add("campaign.ticks", outcome["ticks"], "count")
        add("prefix.plan_s", self_s("prefix.plan"), "s")
        add("prefix.self_s", self_s("scenario.prefix"), "s")
        add("prefix.forked_frac",
            ratio(outcome["forked"], scenarios)["value"], "fraction")
        add("prefix.ticks_skipped_frac",
            ratio(outcome["ticks_skipped"], outcome["ticks"])["value"],
            "fraction")
        digest_s = self_s("trace.digest")
        add("trace.digest_s", digest_s, "s")
        add("trace.events", outcome["trace_events"], "count")
        add("trace.ns_per_event",
            ratio(digest_s * 1e9, outcome["trace_events"])["value"], "ns")
        add("oracle.check_s", self_s("oracle.check"), "s")
        add("metrics.compact_s", self_s("metrics.compact"), "s")
        add("constellation.step_s", self_s("constellation.run"), "s")
        add("fabric.send_s", self_s("fabric.send"), "s")
        add("fabric.sends", spans("fabric.send"), "count")
        add("fabric.receive_s", self_s("fabric.receive"), "s")
        add("fabric.pump_s", self_s("fabric.pump"), "s")
        add("xoracle.check_s", self_s("xoracle.check"), "s")
        add("xdigest_s", self_s("xdigest"), "s")
        add("results.summary_s", self_s("results.summary"), "s")
        add("runner.scenario_s", self_s("scenario.run"), "s")
        add("runner.self_s", self_s("runner.pass"), "s")
        add("runner.pass_s", one.raw_s, "s")
    for one in untraced:
        scale[0] = one.factor
        add("tracing.untraced_pass_s", one.raw_s, "s")
    overhead = [
        ratio(statistics.median(rows["runner.pass_s"][column])
              - statistics.median(rows["tracing.untraced_pass_s"][column]),
              statistics.median(rows["tracing.untraced_pass_s"][column])
              )["value"] for column in (0, 1)]
    rows["tracing.overhead_frac"] = ([overhead[0]], [overhead[1]],
                                     "fraction")
    return rows


def check_coverage(name: str, traced: List[Pass]) -> None:
    """Fail loudly when a layer this workload exercises recorded nothing:
    a renamed entry point must not read as zero."""
    workload = WORKLOADS[name]
    missing = [span for span in workload.spans
               if not any(p.layers[0].get(span, (0,))[0] for p in traced)]
    missing += [counter for counter in workload.counters
                if not any(p.layers[1].get(counter, 0) for p in traced)]
    if missing:
        raise SystemExit(f"layer coverage: {name} recorded nothing for "
                         f"{', '.join(missing)}")


# ------------------------------------------------------------------ #
# provenance
# ------------------------------------------------------------------ #


def git_rev() -> Any:
    """HEAD of the checkout, or None when it is not a git repository
    (git must not answer for an enclosing repository)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's Python sources (identifies the code in a
    checkout that is not a git repository)."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for file in sorted(files):
            if file.endswith(".py"):
                path = os.path.join(folder, file)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()[:16]


def provenance(load_start) -> Dict[str, Any]:
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg()),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "git_rev": git_rev(),
            "source_sha256": source_digest()}


def write_record(name: str, trace: int, record: Dict[str, Any],
                 tracer=None) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}.trace{trace}")
    if tracer is not None:
        record["spans"] = {
            "file": f"{name}.spans", "count": len(tracer),
            "names": tracer.names,
            "layout": "int64 start[n], int64 end[n] (perf_counter_ns), "
                      "int32 name[n], int32 parent[n], int32 scenario[n]"}
        with open(os.path.join(OUT_DIR, f"{name}.spans"), "wb") as stream:
            for column in (tracer.start, tracer.end, tracer.name,
                           tracer.parent, tracer.scenario):
                column.tofile(stream)
    with open(stem + ".json", "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)


# ------------------------------------------------------------------ #
# the run
# ------------------------------------------------------------------ #


def run(name: str, seed: int, seconds: float, trace: int) -> int:
    load_start = os.getloadavg()
    workload = WORKLOADS[name]
    argv = [*workload.argv, "--seed", str(seed)]
    add_source_path()
    setups = measure_setup(argv)
    campaign = Campaign(argv)
    tracer = Tracer() if trace else None
    untraced: List[Pass] = []
    traced: List[Pass] = []
    try:
        campaign.warm_up()
        need = min_samples(max(LATENCY_PCTS))
        started = time.perf_counter()
        while True:
            if trace and len(traced) < len(untraced):
                first = len(tracer)
                tracer.counts = {}
                one = campaign.run_pass(tracer)
                traced.append(one._replace(layers=(
                    tracer.self_times(first), dict(tracer.counts))))
            else:
                untraced.append(campaign.run_pass())
            if time.perf_counter() - started < seconds:
                continue
            if trace and traced:
                break
            if (not trace and len(untraced) >= MIN_PASSES
                    and sum(len(p.latencies_ms) for p in untraced) >= need):
                break
    finally:
        campaign.close()
    outcomes = [p.outcome for p in untraced + traced]
    correct, problems = check_outcomes(name, seed, outcomes,
                                       campaign.scenarios)
    for problem in problems:
        print(f"campaignbench: INCORRECT: {problem}", file=sys.stderr)
    if trace:
        check_coverage(name, traced)
        rows = per_layer(setups, traced, untraced, campaign)
    else:
        rows = end_to_end(campaign, setups, untraced)
    summary = {metric: dict(quartiles(scaled), unit=unit,
                            raw=quartiles(raw))
               for metric, (scaled, raw, unit) in rows.items()}
    samples = sum(len(p.latencies_ms) for p in untraced)
    failed = outcomes[0]["failed"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": ["repro", "campaign", *argv],
        "provenance": dict(
            provenance(load_start),
            untraced_passes=len(untraced), traced_passes=len(traced),
            latency_samples=samples,
            latency_highest_supported_pct=highest_supported(samples),
            host_speed_factor=quartiles(
                [p.factor for p in untraced + traced]),
            setup_speed_factor=quartiles([s["factor"] for s in setups])),
        "correct": correct, "problems": problems,
        "campaign_digest": outcomes[0]["digest"],
        "failed_scenarios": failed,
        "metrics": summary,
    }
    write_record(name, trace, record, tracer)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(campaign.scenarios),
        "failed": len(failed),
        "metrics": {metric: {"value": row["median"], "unit": row["unit"]}
                    for metric, row in summary.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
