"""Unit tests for the benchmark's correctness and layer-coverage gates.

Run with ``python3 -m pytest campaignbench/test_gates.py``.
"""

import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import Pass, check_coverage, check_outcomes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _outcome(digest, failed=()):
    verdicts = sorted((f"s{i}", "crashed" if f"s{i}" in failed else "ok")
                      for i in range(3))
    return {"digest": digest, "printed": True, "verdicts": verdicts,
            "failed": sorted(failed)}


SCENARIOS = [SimpleNamespace(scenario_id=f"s{i}") for i in range(3)]


def test_passes_that_agree_are_correct_off_seed_zero():
    outcomes = [_outcome("abc", ["s1"]), _outcome("abc", ["s1"])]
    assert check_outcomes("sweep-cc", 7, outcomes, SCENARIOS) == (True, [])


def test_a_pass_with_another_digest_is_incorrect():
    correct, problems = check_outcomes(
        "sweep-cc", 7, [_outcome("abc"), _outcome("abd")], SCENARIOS)
    assert not correct and "pass 1 digest abd" in problems[0]


def test_a_pass_with_other_verdicts_is_incorrect():
    correct, _ = check_outcomes(
        "sweep-cc", 7, [_outcome("abc"), _outcome("abc", ["s2"])],
        SCENARIOS)
    assert not correct


def test_seed_zero_must_match_the_pins():
    pinned = WORKLOADS["constellation-8"]
    good = dict(_outcome(pinned.seed0_digest),
                failed=list(pinned.seed0_failed))
    assert check_outcomes("constellation-8", 0, [good], SCENARIOS) == \
        (True, [])
    correct, problems = check_outcomes(
        "constellation-8", 0, [_outcome(pinned.seed0_digest)], SCENARIOS)
    assert not correct and "seed-0 failures" in problems[0]
    correct, problems = check_outcomes("sweep-cc", 0, [_outcome("x")],
                                       SCENARIOS)
    assert not correct and "seed-0 digest" in problems[0]


def test_missing_results_and_unprinted_digests_are_incorrect():
    short = _outcome("abc")
    short["verdicts"] = short["verdicts"][:2]
    assert not check_outcomes("sweep-cc", 7, [short], SCENARIOS)[0]
    unprinted = dict(_outcome("abc"), printed=False)
    assert not check_outcomes("sweep-cc", 7, [unprinted], SCENARIOS)[0]


def _traced(spans, counts):
    selfs = {name: [1, 0.001] for name in spans}
    return Pass(raw_s=1.0, factor=1.0, latencies_ms=[], outcome={},
                layers=(selfs, counts))


def test_coverage_passes_when_every_layer_recorded_work():
    workload = WORKLOADS["sweep-cc"]
    check_coverage("sweep-cc", [_traced(workload.spans,
                                        {"cycle_cache.hits": 5})])


def test_coverage_fails_loudly_on_a_silent_layer():
    workload = WORKLOADS["constellation-8"]
    spans = [name for name in workload.spans if name != "fabric.send"]
    with pytest.raises(SystemExit, match="fabric.send"):
        check_coverage("constellation-8", [_traced(spans, {})])


def test_coverage_fails_loudly_on_a_zero_counter():
    workload = WORKLOADS["sweep-cc"]
    with pytest.raises(SystemExit, match="cycle_cache.hits"):
        check_coverage("sweep-cc", [_traced(workload.spans,
                                            {"cycle_cache.hits": 0})])
