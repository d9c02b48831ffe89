"""Tests for the substrate's per-query windowed operators."""

from typing import List

from repro.minispe.graph import JobGraph, Partitioning
from repro.minispe.record import Record, Watermark
from repro.minispe.runtime import JobRuntime
from repro.minispe.sinks import CollectSink
from repro.minispe.window_operators import (
    JoinResult,
    WindowedAggregateOperator,
    WindowedJoinOperator,
    WindowResult,
)
from repro.minispe.windows import (
    SessionWindows,
    SlidingWindows,
    TumblingWindows,
    Window,
)

import pytest

from tests.conftest import flat_collector


def _sum_aggregate(assigner):
    return WindowedAggregateOperator(
        assigner,
        init=lambda: 0,
        add=lambda acc, value: acc + value,
        merge=lambda a, b: a + b,
    )


def _run_aggregate(assigner, records, watermark_ts):
    collected: List[Record] = []
    operator = _sum_aggregate(assigner)
    operator.set_collector(flat_collector(collected))
    for record in records:
        operator.process(record)
    operator.on_watermark(Watermark(timestamp=watermark_ts))
    return [
        record.value
        for record in collected
        if isinstance(record, Record) and isinstance(record.value, WindowResult)
    ]


class TestWindowedAggregate:
    def test_tumbling_sum_per_key(self):
        records = [
            Record(timestamp=100, value=1, key="a"),
            Record(timestamp=200, value=2, key="a"),
            Record(timestamp=300, value=5, key="b"),
            Record(timestamp=1_100, value=7, key="a"),
        ]
        results = _run_aggregate(TumblingWindows(1_000), records, 2_000)
        by_key_window = {
            (result.key, result.window): result.value for result in results
        }
        assert by_key_window[("a", Window(0, 1_000))] == 3
        assert by_key_window[("b", Window(0, 1_000))] == 5
        assert by_key_window[("a", Window(1_000, 2_000))] == 7

    def test_window_not_fired_before_watermark(self):
        results = _run_aggregate(
            TumblingWindows(1_000),
            [Record(timestamp=100, value=1, key="a")],
            watermark_ts=998,
        )
        assert results == []

    def test_sliding_window_counts_tuple_multiple_times(self):
        results = _run_aggregate(
            SlidingWindows(2_000, 1_000),
            [Record(timestamp=1_500, value=10, key="a")],
            watermark_ts=4_000,
        )
        # ts 1500 belongs to windows [0,2000) and [1000,3000).
        assert sorted(result.window.start for result in results) == [0, 1_000]
        assert all(result.value == 10 for result in results)

    def test_session_merging(self):
        results = _run_aggregate(
            SessionWindows(1_000),
            [
                Record(timestamp=0, value=1, key="a"),
                Record(timestamp=500, value=2, key="a"),   # merges
                Record(timestamp=3_000, value=4, key="a"),  # separate session
            ],
            watermark_ts=10_000,
        )
        values = sorted(result.value for result in results)
        assert values == [3, 4]
        windows = sorted(result.window for result in results)
        assert windows[0] == Window(0, 1_500)
        assert windows[1] == Window(3_000, 4_000)

    def test_session_requires_merge_function(self):
        with pytest.raises(ValueError, match="merge"):
            WindowedAggregateOperator(
                SessionWindows(1_000), init=lambda: 0, add=lambda a, v: a + v
            )

    def test_state_removed_after_fire(self):
        operator = _sum_aggregate(TumblingWindows(1_000))
        operator.set_collector(lambda element: None)
        operator.process(Record(timestamp=0, value=1, key="a"))
        assert operator.pending_windows() == 1
        operator.on_watermark(Watermark(timestamp=2_000))
        assert operator.pending_windows() == 0

    def test_snapshot_restore_round_trip(self):
        operator = _sum_aggregate(TumblingWindows(1_000))
        operator.set_collector(lambda element: None)
        operator.process(Record(timestamp=0, value=3, key="a"))
        snapshot = operator.snapshot()

        collected = []
        fresh = _sum_aggregate(TumblingWindows(1_000))
        fresh.set_collector(flat_collector(collected))
        fresh.restore(snapshot)
        fresh.on_watermark(Watermark(timestamp=2_000))
        results = [
            r.value
            for r in collected
            if isinstance(r, Record) and isinstance(r.value, WindowResult)
        ]
        assert results[0].value == 3


class TestWindowedJoin:
    def _run_join(self, records_left, records_right, watermark_ts, assigner=None):
        collected: List[Record] = []
        operator = WindowedJoinOperator(assigner or TumblingWindows(1_000))
        operator.set_collector(flat_collector(collected))
        for record in records_left:
            operator.process_left(record)
        for record in records_right:
            operator.process_right(record)
        operator.on_watermark(Watermark(timestamp=watermark_ts))
        return [
            record
            for record in collected
            if isinstance(record, Record) and isinstance(record.value, JoinResult)
        ]

    def test_equi_join_within_window(self):
        results = self._run_join(
            [Record(timestamp=100, value="l1", key=1)],
            [
                Record(timestamp=200, value="r1", key=1),
                Record(timestamp=300, value="r2", key=2),
            ],
            watermark_ts=2_000,
        )
        assert len(results) == 1
        assert results[0].value.left == "l1"
        assert results[0].value.right == "r1"

    def test_no_join_across_windows(self):
        results = self._run_join(
            [Record(timestamp=100, value="l1", key=1)],
            [Record(timestamp=1_100, value="r1", key=1)],
            watermark_ts=3_000,
        )
        assert results == []

    def test_result_timestamp_is_newest_component(self):
        results = self._run_join(
            [Record(timestamp=100, value="l1", key=1)],
            [Record(timestamp=700, value="r1", key=1)],
            watermark_ts=2_000,
        )
        assert results[0].timestamp == 700

    def test_cross_product_per_key(self):
        results = self._run_join(
            [
                Record(timestamp=1, value="l1", key=1),
                Record(timestamp=2, value="l2", key=1),
            ],
            [
                Record(timestamp=3, value="r1", key=1),
                Record(timestamp=4, value="r2", key=1),
            ],
            watermark_ts=2_000,
        )
        pairs = {(r.value.left, r.value.right) for r in results}
        assert pairs == {
            ("l1", "r1"), ("l1", "r2"), ("l2", "r1"), ("l2", "r2"),
        }

    def test_session_windows_rejected(self):
        with pytest.raises(ValueError):
            WindowedJoinOperator(SessionWindows(1_000))

    def test_buffers_cleared_after_fire(self):
        operator = WindowedJoinOperator(TumblingWindows(1_000))
        operator.set_collector(lambda element: None)
        operator.process_left(Record(timestamp=0, value="l", key=1))
        assert operator.buffered_tuples() == 1
        operator.on_watermark(Watermark(timestamp=2_000))
        assert operator.buffered_tuples() == 0


class TestInsidePipeline:
    def test_join_in_runtime_with_parallelism(self):
        sink_holder = []

        def make_sink():
            sink = CollectSink()
            sink_holder.append(sink)
            return sink

        graph = (
            JobGraph()
            .add_source("a")
            .add_source("b")
            .add_operator(
                "join",
                lambda: WindowedJoinOperator(TumblingWindows(1_000)),
                parallelism=2,
            )
            .add_operator("sink", make_sink)
            .connect("a", "join", Partitioning.HASH, input_index=0)
            .connect("b", "join", Partitioning.HASH, input_index=1)
            .connect("join", "sink", Partitioning.REBALANCE)
        )
        runtime = JobRuntime(graph)
        for key in range(4):
            runtime.push("a", Record(timestamp=100, value=f"l{key}", key=key))
            runtime.push("b", Record(timestamp=200, value=f"r{key}", key=key))
        runtime.push("a", Watermark(timestamp=2_000))
        runtime.push("b", Watermark(timestamp=2_000))
        assert len(sink_holder[0].collected) == 4
