"""Unit tests for the benchmark's arithmetic.

Run with ``python3 -m pytest campaignbench/test_arith.py``.
"""

import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from arith import (  # noqa: E402
    MIN_BEYOND,
    highest_supported,
    min_samples,
    nearest_rank,
    quartiles,
    ratio,
    samples_beyond,
    supported,
)
from spans import Tracer, self_times  # noqa: E402


# -- nearest-rank percentile ---------------------------------------- #

def test_nearest_rank_picks_a_sample_never_interpolates():
    values = [15, 20, 35, 40, 50]
    assert nearest_rank(values, 5) == 15
    assert nearest_rank(values, 30) == 20
    assert nearest_rank(values, 40) == 20
    assert nearest_rank(values, 50) == 35
    assert nearest_rank(values, 100) == 50


def test_nearest_rank_ignores_input_order_and_handles_zero():
    assert nearest_rank([3, 1, 2], 50) == 2
    assert nearest_rank([3, 1, 2], 0) == 1


def test_nearest_rank_of_one_to_hundred_is_the_percent():
    values = list(range(1, 101))
    for pct in (1, 50, 90, 99, 100):
        assert nearest_rank(values, pct) == pct


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1], 101)


# -- the ten-samples-beyond rule ------------------------------------ #

def test_samples_beyond_counts_strictly_above_the_rank():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(64, 50) == 32


def test_p90_needs_a_hundred_samples():
    assert not supported(99, 90)
    assert supported(100, 90)
    assert min_samples(90) == 100
    assert min_samples(50) == 2 * MIN_BEYOND


def test_highest_supported_percentile_steps_down_with_fewer_samples():
    assert highest_supported(1000) == 99.0
    assert highest_supported(200) == 95.0
    assert highest_supported(100) == 90.0
    assert highest_supported(64) == 75.0
    assert highest_supported(20) == 50.0
    assert highest_supported(19) == 0.0
    assert highest_supported(0) == 0.0


# -- self time from nested spans ------------------------------------ #

def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 50] > b [20, 30]; root > c [60, 90]
    start = [0, 10, 20, 60]
    end = [100, 50, 30, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [30, 30, 10, 30]
    assert sum(self_times(start, end, parent)) == 100


def test_tracer_records_parents_scenarios_and_self_time():
    tracer = Tracer()

    def leaf():
        return "leaf"

    def scenario(inner):
        return inner()

    traced_leaf = tracer.wrap("trace.digest", leaf)
    traced_scenario = tracer.wrap("scenario.run", scenario)
    with tracer.span("runner.pass"):
        assert traced_scenario(traced_leaf) == "leaf"
        assert traced_scenario(traced_leaf) == "leaf"
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["runner.pass", "scenario.run", "trace.digest",
                     "scenario.run", "trace.digest"]
    assert list(tracer.parent) == [-1, 0, 1, 0, 3]
    # spans of one scenario share its id; the pass belongs to none
    assert list(tracer.scenario) == [-1, 0, 0, 1, 1]
    totals = tracer.self_times()
    assert totals["scenario.run"][0] == 2
    pass_s = (tracer.end[0] - tracer.start[0]) / 1e9
    assert sum(s for _, s in totals.values()) == pytest.approx(pass_s)


def test_tracer_closes_spans_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("scenario.run", boom)()
    assert tracer.end[0] >= tracer.start[0] > 0
    tracer.wrap("scenario.run", lambda: None)()
    assert list(tracer.scenario) == [0, 1]


def test_tracer_counts_from_after_hook():
    tracer = Tracer()
    wrapped = tracer.wrap("snapshot.to_bytes", lambda: b"abcd",
                          after=lambda args, token, result:
                          {"snapshot.bytes": len(result)})
    wrapped()
    wrapped()
    assert tracer.counts == {"snapshot.bytes": 8}


# -- ratios with their base ----------------------------------------- #

def test_ratio_keeps_numerator_and_base():
    assert ratio(63, 66) == {"value": 63 / 66, "num": 63, "base": 66}


def test_ratio_over_zero_base_is_zero_with_the_base_shown():
    assert ratio(0, 0) == {"value": 0.0, "num": 0, "base": 0}


# -- quartiles match the statistics module -------------------------- #

def test_quartiles_match_statistics_quantiles():
    values = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == {"q1": q1, "median": median, "q3": q3,
                                 "n": 6}
    assert quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5,
                                "n": 1}
