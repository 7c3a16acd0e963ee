"""Tests for steady-state MTF cycle memoization (repro.kernel.cycle_cache).

Two contracts are pinned here.  First, the state fingerprint: identical
deterministic state must hash identically across runs and interpreter
processes (the concrete hex digests are recorded, like the derived-seed
values in test_rng.py — any encoding change silently invalidates every
cached template, so it must fail loudly here), while every state
component the kernel can branch on — rng streams, FDIR escalation
bookkeeping, queued port payloads, pending schedule switches — must
produce a *distinct* digest.  Second, the cache itself: on a steady
workload it replays most frames, on a faulty workload it conservatively
replays none, and in both cases traces, counters and end state are
bit-identical to a cache-off run.
"""

import subprocess
import sys

import pytest

from repro.apps.prototype import (
    STEADY_MTF,
    build_prototype,
    inject_faulty_process,
    make_simulator,
    make_steady_simulator,
)
from repro.kernel.cycle_cache import CYCLE_CACHE_STAT_KEYS, state_fingerprint

#: Pinned full-state digests (see module docstring).  STEADY_DIGEST is
#: the steady cruise prototype after 3 MTFs; PROTO_DIGEST the chi1
#: prototype after 2 MTFs.  Both must survive re-encoding changes or the
#: change is a silent cache invalidation of recorded behavior.
STEADY_DIGEST = \
    "be5d02e9e3e23ba86efe9e95168fa9e098db7b8d6ef687d3e8da6cfa02c1f4dd"
PROTO_DIGEST = \
    "6f885095f1ae944d66e67df86cbad1717b718eca3cc3b5c22b368d7f0443d870"


#: Entry point driving the uncached comparison run, per ``engine`` value:
#: ``reference`` steps one clock interrupt per tick, ``fast`` runs the
#: event core.  Pinned digests were frozen from the per-tick clock ISR
#: before it took the event core's horizon shortcuts.
ENGINES = {"reference": "run", "fast": "run_fast"}


def full_signature(simulator):
    """Every trace event, every field — the strictest equivalence check."""
    return [repr(e) for e in simulator.trace.events]


class TestFingerprintStability:
    def test_identical_runs_identical_fingerprint(self):
        first = make_steady_simulator()
        first.run_fast(STEADY_MTF * 3)
        second = make_steady_simulator()
        second.run_fast(STEADY_MTF * 3)
        assert state_fingerprint(first) == state_fingerprint(second)

    def test_pinned_digests(self):
        steady = make_steady_simulator()
        steady.run_fast(STEADY_MTF * 3)
        assert state_fingerprint(steady) == STEADY_DIGEST
        proto = make_simulator(build_prototype())
        proto.run_fast(STEADY_MTF * 2)
        assert state_fingerprint(proto) == PROTO_DIGEST

    def test_fingerprint_is_reproducible_across_interpreter_processes(self):
        # str hashing is randomized per process (PYTHONHASHSEED); the
        # fingerprint walks dicts keyed by strings and enums and must
        # not depend on it, or a restored snapshot in a campaign worker
        # would never match the coordinator's template.
        import pathlib

        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        program = (
            "from repro.apps.prototype import make_steady_simulator, "
            "STEADY_MTF; "
            "from repro.kernel.cycle_cache import state_fingerprint; "
            "sim = make_steady_simulator(); sim.run_fast(STEADY_MTF); "
            "print(state_fingerprint(sim))")
        local = make_steady_simulator()
        local.run_fast(STEADY_MTF)
        expected = state_fingerprint(local)
        for hash_seed in ("0", "1", "random"):
            output = subprocess.run(
                [sys.executable, "-c", program],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True).stdout.strip()
            assert output == expected, f"PYTHONHASHSEED={hash_seed}"

    def test_mid_frame_state_is_distinct(self):
        boundary = make_steady_simulator()
        boundary.run_fast(STEADY_MTF * 3)
        mid = make_steady_simulator()
        mid.run_fast(STEADY_MTF * 3 + 170)
        assert state_fingerprint(mid) != state_fingerprint(boundary)


class TestFingerprintDivergence:
    """Each kernel-visible state component must flip the digest."""

    def test_rng_stream_position_diverges(self):
        simulator = make_steady_simulator()
        simulator.run_fast(STEADY_MTF)
        before = state_fingerprint(simulator)
        simulator.pmk.apex("P1")._rng.randint(0, 10**9)
        assert state_fingerprint(simulator) != before

    def test_fdir_escalation_state_diverges(self):
        simulator = make_simulator(build_prototype(fdir_supervision=True))
        simulator.run_fast(STEADY_MTF)
        before = state_fingerprint(simulator)
        snapshot = simulator.pmk.fdir.snapshot()
        snapshot["restarts"] = dict(snapshot["restarts"], P1=2)
        simulator.pmk.fdir.restore(snapshot)
        assert state_fingerprint(simulator) != before

    def test_queued_port_payload_diverges(self):
        simulator = make_steady_simulator()
        simulator.run_fast(STEADY_MTF)
        before = state_fingerprint(simulator)
        simulator.pmk.apex("P2").queuing_port("tm_out").send(b"extra-frame")
        assert state_fingerprint(simulator) != before

    def test_queued_payload_bytes_diverge(self):
        # Same queue depth, different bytes — the payload content itself
        # is part of the digest, not just the occupancy count.
        first = make_steady_simulator()
        first.run_fast(STEADY_MTF)
        first.pmk.apex("P2").queuing_port("tm_out").send(b"frame-a")
        second = make_steady_simulator()
        second.run_fast(STEADY_MTF)
        second.pmk.apex("P2").queuing_port("tm_out").send(b"frame-b")
        assert state_fingerprint(first) != state_fingerprint(second)

    def test_pending_schedule_switch_diverges(self):
        simulator = make_simulator(build_prototype())
        simulator.run_fast(STEADY_MTF)
        before = state_fingerprint(simulator)
        simulator.pmk.scheduler.request_switch("chi2", now=simulator.time.now)
        assert state_fingerprint(simulator) != before


class TestCycleCache:
    def test_disabled_by_default(self):
        assert make_steady_simulator().cycle_cache_stats is None

    def test_stats_keys_are_the_governed_set(self):
        simulator = make_steady_simulator(cycle_cache=True)
        simulator.run_fast(STEADY_MTF * 4)
        assert tuple(simulator.cycle_cache_stats) == CYCLE_CACHE_STAT_KEYS

    @pytest.mark.parametrize("engine", ENGINES)
    def test_steady_workload_replays_most_frames(self, engine):
        simulator = make_steady_simulator(cycle_cache=True)
        simulator.run_fast(STEADY_MTF * 20)
        stats = simulator.cycle_cache_stats
        # A few warm-up frames: the counter gate needs two equal deltas,
        # the probe pipeline two equal fingerprints, before replay fires.
        assert stats["hits"] >= 12
        assert stats["invalidations"] == 0
        plain = make_steady_simulator()
        getattr(plain, ENGINES[engine])(STEADY_MTF * 20)
        assert full_signature(simulator) == full_signature(plain)
        assert simulator.trace.digest() == "593b47dbd304cd44"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identity_steady(self, engine):
        cached = make_steady_simulator(cycle_cache=True)
        cached.run_fast(STEADY_MTF * 12)
        plain = make_steady_simulator()
        getattr(plain, ENGINES[engine])(STEADY_MTF * 12)
        assert cached.cycle_cache_stats["hits"] > 0  # genuinely replayed
        assert cached.trace.digest() == "efdc276a03174811"
        assert full_signature(cached) == full_signature(plain)
        assert cached.now == plain.now
        assert cached.pmk.ticks_executed == plain.pmk.ticks_executed
        assert cached.pmk.partition_ticks == plain.pmk.partition_ticks
        assert state_fingerprint(cached) == state_fingerprint(plain)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_faulty_workload_never_fires_but_stays_identical(self, engine):
        cached = make_simulator(build_prototype(), cycle_cache=True)
        cached.run_fast(STEADY_MTF * 4)
        inject_faulty_process(cached)
        cached.run_fast(STEADY_MTF * 4)
        plain = make_simulator(build_prototype())
        run = getattr(plain, ENGINES[engine])
        run(STEADY_MTF * 4)
        inject_faulty_process(plain)
        run(STEADY_MTF * 4)
        assert cached.cycle_cache_stats["hits"] == 0  # conservative
        assert cached.trace.digest() == "bd48943b8b92aade"
        assert full_signature(cached) == full_signature(plain)
        assert state_fingerprint(cached) == state_fingerprint(plain)

    def test_odd_chunked_runs_stay_identical(self):
        # run_fast calls that straddle MTF boundaries arbitrarily must
        # not disturb replay: the cache only acts at exact boundaries.
        cached = make_steady_simulator(cycle_cache=True)
        for chunk in (700, STEADY_MTF * 5 + 311, STEADY_MTF * 6, 289):
            cached.run_fast(chunk)
        plain = make_steady_simulator()
        plain.run_fast(STEADY_MTF * 12)
        assert cached.now == plain.now
        assert cached.cycle_cache_stats["hits"] > 0
        assert full_signature(cached) == full_signature(plain)
        assert state_fingerprint(cached) == state_fingerprint(plain)
