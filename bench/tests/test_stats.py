"""Percentile helpers and the latency attribution rule."""

import pytest

from bench.stats import (
    attribute_latencies,
    highest_supported_percentile,
    latency_summary,
    percentile,
    quiet_high,
    quiet_low,
    relative_spread,
    weighted_percentile,
)

MS = 1_000_000


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_weighted_percentile_matches_the_expanded_list():
    pairs = [(10.0, 3), (20.0, 1), (30.0, 6)]
    expanded = [10.0] * 3 + [20.0] + [30.0] * 6
    for q in (10, 30, 40, 50, 90, 100):
        assert weighted_percentile(pairs, q) == percentile(expanded, q)


def test_ten_samples_beyond_rule():
    assert highest_supported_percentile(100) == 90.0
    assert highest_supported_percentile(99) == 75.0
    assert highest_supported_percentile(1_000) == 99.0
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(3) == 50.0


def test_quiet_quartiles_point_at_the_undisturbed_side():
    blocks = [100.0] * 6 + [140.0, 180.0]  # two blocks hit by a slow spell
    assert quiet_low(blocks) == 100.0
    rates = [1_000.0 / b for b in blocks]
    assert quiet_high(rates) == 10.0


def test_relative_spread_is_quartile_distance_over_median():
    assert relative_spread([10.0] * 10) == 0.0
    assert relative_spread([8, 9, 10, 11, 12, 8, 9, 10, 11, 12]) > 0.2


def _latencies(receipts, due):
    emits = {"q": [(0, 2), (1, 4)]}  # two results per tick
    return attribute_latencies({"q": receipts}, emits, due)


def test_results_are_attributed_by_arrival_index_across_frames():
    due = {0: 0, 1: 100 * MS}
    # One frame carries tick 0's second result and tick 1's first.
    by_tick = _latencies([(10 * MS, 1), (130 * MS, 2), (140 * MS, 1)], due)
    assert by_tick[0] == [(10.0, 1), (130.0, 1)]
    assert by_tick[1] == [(30.0, 1), (40.0, 1)]


def test_a_stalled_generator_raises_reported_latency():
    """Due times are fixed in advance: the coordinated-omission check."""
    due = {0: 0, 1: 100 * MS}
    on_time = _latencies([(20 * MS, 2), (120 * MS, 2)], due)
    # The generator stalls 300 ms before sending tick 1; the server is
    # just as quick as before once it gets the data.
    stalled = _latencies([(20 * MS, 2), (420 * MS, 2)], due)
    assert on_time[1] == [(20.0, 2)]
    assert stalled[1] == [(320.0, 2)]
    assert latency_summary(stalled)["p90_ms"] > latency_summary(on_time)["p90_ms"]


def test_ticks_outside_phase_l_and_surplus_results_are_skipped():
    emits = {"q": [(0, 1), (5, 2)]}
    by_tick = attribute_latencies(
        {"q": [(50 * MS, 1), (60 * MS, 1), (70 * MS, 3)]}, emits, {5: 0}
    )
    assert by_tick == {5: [(60.0, 1)]}
    assert latency_summary({7: []}) is None
