"""Tests for the shared windowed join (engine-driven + operator-level)."""

import pytest

from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    Comparison,
    FieldPredicate,
    JoinQuery,
    TruePredicate,
    WindowSpec,
)
from repro.core.storage import StoreKind
from tests.conftest import field_tuple, go_live, make_engine
from tests.core.oracle import (
    expected_join_multiset,
    join_outputs_multiset,
)


def _join(window, left=None, right=None, name=None) -> JoinQuery:
    kwargs = {}
    if name:
        kwargs["query_id"] = name
    return JoinQuery(
        left_stream="A",
        right_stream="B",
        left_predicate=left or TruePredicate(),
        right_predicate=right or TruePredicate(),
        window_spec=window,
        **kwargs,
    )


def _push_streams(engine, left, right):
    for ts, value in left:
        engine.push("A", ts, value)
    for ts, value in right:
        engine.push("B", ts, value)


class TestSingleQueryCorrectness:
    def test_tumbling_join_matches_oracle(self):
        engine = make_engine()
        query = _join(WindowSpec.tumbling(2_000))
        go_live(engine, [query], now_ms=0)
        left = [(ts, field_tuple(key=ts % 3, f0=ts)) for ts in range(0, 6_000, 250)]
        right = [(ts, field_tuple(key=ts % 3, f1=ts)) for ts in range(0, 6_000, 400)]
        _push_streams(engine, left, right)
        engine.watermark(10_000)
        assert join_outputs_multiset(
            engine.results(query.query_id)
        ) == expected_join_multiset(query, 0, left, right, 10_000)

    def test_sliding_join_duplicates_across_windows(self):
        engine = make_engine()
        query = _join(WindowSpec.sliding(2_000, 1_000))
        go_live(engine, [query], now_ms=0)
        left = [(1_500, field_tuple(key=1, f0=7))]
        right = [(1_600, field_tuple(key=1, f1=8))]
        _push_streams(engine, left, right)
        engine.watermark(10_000)
        outputs = engine.results(query.query_id)
        # The pair is inside windows [0,2000) and [1000,3000).
        assert len(outputs) == 2
        assert join_outputs_multiset(outputs) == expected_join_multiset(
            query, 0, left, right, 10_000
        )

    def test_predicates_filter_sides_independently(self):
        engine = make_engine()
        query = _join(
            WindowSpec.tumbling(1_000),
            left=FieldPredicate(0, Comparison.GT, 10),
            right=FieldPredicate(1, Comparison.LE, 5),
        )
        go_live(engine, [query], now_ms=0)
        left = [
            (100, field_tuple(key=1, f0=20)),   # passes
            (200, field_tuple(key=1, f0=5)),    # fails
        ]
        right = [
            (300, field_tuple(key=1, f1=5)),    # passes
            (400, field_tuple(key=1, f1=6)),    # fails
        ]
        _push_streams(engine, left, right)
        engine.watermark(5_000)
        assert join_outputs_multiset(
            engine.results(query.query_id)
        ) == expected_join_multiset(query, 0, left, right, 5_000)
        assert engine.result_count(query.query_id) == 1

    def test_key_equality_enforced(self):
        engine = make_engine()
        query = _join(WindowSpec.tumbling(1_000))
        go_live(engine, [query], now_ms=0)
        _push_streams(
            engine,
            [(100, field_tuple(key=1))],
            [(200, field_tuple(key=2))],
        )
        engine.watermark(5_000)
        assert engine.result_count(query.query_id) == 0

    def test_out_of_order_within_watermark(self):
        engine = make_engine()
        query = _join(WindowSpec.tumbling(2_000))
        go_live(engine, [query], now_ms=0)
        left = [(900, field_tuple(key=1, f0=1)), (100, field_tuple(key=1, f0=2))]
        right = [(1_500, field_tuple(key=1, f1=3))]
        _push_streams(engine, left, right)
        engine.watermark(5_000)
        assert join_outputs_multiset(
            engine.results(query.query_id)
        ) == expected_join_multiset(query, 0, left, right, 5_000)

    def test_parallel_instances_match_oracle(self):
        engine = make_engine(parallelism=3)
        query = _join(WindowSpec.tumbling(2_000))
        go_live(engine, [query], now_ms=0)
        left = [(ts, field_tuple(key=ts % 7, f0=ts)) for ts in range(0, 4_000, 130)]
        right = [(ts, field_tuple(key=ts % 7, f1=ts)) for ts in range(0, 4_000, 170)]
        _push_streams(engine, left, right)
        engine.watermark(8_000)
        assert join_outputs_multiset(
            engine.results(query.query_id)
        ) == expected_join_multiset(query, 0, left, right, 8_000)


class TestMultiQuerySharing:
    def test_two_queries_same_window_share_pair_computation(self):
        engine = make_engine()
        first = _join(WindowSpec.tumbling(2_000), name="j1")
        second = _join(WindowSpec.tumbling(2_000), name="j2")
        go_live(engine, [first, second], now_ms=0)
        left = [(ts, field_tuple(key=1, f0=ts)) for ts in range(0, 2_000, 100)]
        right = [(ts, field_tuple(key=1, f1=ts)) for ts in range(0, 2_000, 100)]
        _push_streams(engine, left, right)
        engine.watermark(4_000)
        # Both queries see every pair.
        assert engine.result_count("j1") == engine.result_count("j2") == 400
        join_op = engine.join_operators("join:A~B")[0]
        # Identical windows: the slice pairs were joined once, not twice.
        assert join_op.pairs_computed <= 2

    def test_queries_with_disjoint_predicates_dont_cross(self):
        engine = make_engine()
        low = _join(
            WindowSpec.tumbling(2_000),
            left=FieldPredicate(0, Comparison.LT, 50),
            right=FieldPredicate(0, Comparison.LT, 50),
            name="low",
        )
        high = _join(
            WindowSpec.tumbling(2_000),
            left=FieldPredicate(0, Comparison.GE, 50),
            right=FieldPredicate(0, Comparison.GE, 50),
            name="high",
        )
        go_live(engine, [low, high], now_ms=0)
        left = [(100, field_tuple(key=1, f0=10)), (200, field_tuple(key=1, f0=90))]
        right = [(300, field_tuple(key=1, f0=20)), (400, field_tuple(key=1, f0=80))]
        _push_streams(engine, left, right)
        engine.watermark(4_000)
        assert engine.result_count("low") == 1   # (10, 20)
        assert engine.result_count("high") == 1  # (90, 80)
        for query, expected_left in (("low", 10), ("high", 90)):
            output = engine.results(query)[0].value
            assert output.parts[0].fields[0] == expected_left

    def test_each_query_matches_its_oracle(self):
        engine = make_engine()
        queries = [
            _join(WindowSpec.tumbling(1_000), name="t1"),
            _join(WindowSpec.sliding(3_000, 1_000), name="s3"),
            _join(
                WindowSpec.tumbling(2_000),
                left=FieldPredicate(2, Comparison.GE, 50),
                name="t2",
            ),
        ]
        go_live(engine, queries, now_ms=0)
        left = [
            (ts, field_tuple(key=ts % 4, f0=ts % 100, f2=(ts // 7) % 100))
            for ts in range(0, 5_000, 90)
        ]
        right = [
            (ts, field_tuple(key=ts % 4, f1=ts % 100))
            for ts in range(0, 5_000, 110)
        ]
        _push_streams(engine, left, right)
        engine.watermark(9_000)
        for query in queries:
            assert join_outputs_multiset(
                engine.results(query.query_id)
            ) == expected_join_multiset(query, 0, left, right, 9_000), query.query_id


class TestAdHocChanges:
    def test_query_added_mid_stream_sees_only_later_windows(self):
        engine = make_engine()
        early = _join(WindowSpec.tumbling(2_000), name="early")
        go_live(engine, [early], now_ms=0)
        first_left = [(ts, field_tuple(key=1, f0=ts)) for ts in range(0, 2_000, 500)]
        first_right = [(ts, field_tuple(key=1, f1=ts)) for ts in range(0, 2_000, 500)]
        _push_streams(engine, first_left, first_right)
        engine.watermark(2_000)

        late = _join(WindowSpec.tumbling(2_000), name="late")
        engine.submit(late, now_ms=2_000)
        engine.flush_session(2_000)
        second_left = [
            (ts, field_tuple(key=1, f0=ts)) for ts in range(2_000, 4_000, 500)
        ]
        second_right = [
            (ts, field_tuple(key=1, f1=ts)) for ts in range(2_000, 4_000, 500)
        ]
        _push_streams(engine, second_left, second_right)
        engine.watermark(6_000)

        left = first_left + second_left
        right = first_right + second_right
        assert join_outputs_multiset(
            engine.results("early")
        ) == expected_join_multiset(early, 0, left, right, 6_000)
        assert join_outputs_multiset(
            engine.results("late")
        ) == expected_join_multiset(late, 2_000, left, right, 6_000)

    def test_deleted_query_stops_producing(self):
        engine = make_engine()
        query = _join(WindowSpec.tumbling(1_000), name="gone")
        go_live(engine, [query], now_ms=0)
        _push_streams(
            engine,
            [(100, field_tuple(key=1, f0=1))],
            [(200, field_tuple(key=1, f1=2))],
        )
        engine.watermark(1_000)
        engine.stop("gone", now_ms=1_000)
        engine.flush_session(1_000)
        count_at_deletion = engine.result_count("gone")
        _push_streams(
            engine,
            [(1_500, field_tuple(key=1, f0=3))],
            [(1_600, field_tuple(key=1, f1=4))],
        )
        engine.watermark(5_000)
        assert engine.result_count("gone") == count_at_deletion

    def test_slot_reuse_does_not_leak_old_tuples(self):
        """The §2.1.2 consistency argument: after a slot is reused, tuples
        tagged for the dead query must not reach the new one."""
        engine = make_engine()
        old = _join(
            WindowSpec.tumbling(4_000),
            left=FieldPredicate(0, Comparison.LT, 50),
            right=FieldPredicate(0, Comparison.LT, 50),
            name="old",
        )
        go_live(engine, [old], now_ms=0)
        # These tuples pass only the OLD query's predicates.
        _push_streams(
            engine,
            [(500, field_tuple(key=1, f0=10))],
            [(600, field_tuple(key=1, f0=20))],
        )
        # Delete old; create new in the same changelog — same slot.
        engine.stop("old", now_ms=1_000)
        new = _join(
            WindowSpec.tumbling(2_000),
            left=TruePredicate(),
            right=TruePredicate(),
            name="new",
        )
        engine.submit(new, now_ms=1_000)
        engine.flush_session(1_000)
        join_op = engine.join_operators("join:A~B")[0]
        assert join_op.active_query_count == 1
        # New tuples join for "new"; the old epoch's tuples must not.
        _push_streams(
            engine,
            [(1_500, field_tuple(key=1, f0=99))],
            [(1_600, field_tuple(key=1, f0=98))],
        )
        engine.watermark(8_000)
        outputs = engine.results("new")
        assert len(outputs) == 1
        parts = outputs[0].value.parts
        assert parts[0].fields[0] == 99
        assert parts[1].fields[0] == 98


class TestStoresOnlyItsOwnQueries:
    def test_an_aggregation_only_population_stores_nothing(self):
        engine = make_engine()
        queries = [
            AggregationQuery(
                stream=stream,
                predicate=FieldPredicate(0, Comparison.GE, 10 * index),
                window_spec=WindowSpec.tumbling(1_000),
                aggregation=AggregationSpec(AggregationKind.SUM, 0),
            )
            for index in range(3)
            for stream in ("A", "B")
        ]
        go_live(engine, queries, now_ms=0)
        left = [(ts, field_tuple(key=ts % 3, f0=ts // 50)) for ts in range(0, 3_000, 50)]
        _push_streams(engine, left, left)
        engine.watermark(5_000)
        assert all(engine.results(query.query_id) for query in queries)
        join_op = engine.join_operators("join:A~B")[0]
        assert join_op.tuples_stored == 0
        assert join_op.live_slices == (0, 0)

    def test_query_sets_are_masked_with_the_join_slots(self):
        """A record tagged for a join query and for aggregations is stored
        once, under the join query's bit alone."""
        engine = make_engine()
        join = _join(WindowSpec.tumbling(1_000), name="j")
        aggregations = [
            AggregationQuery(
                stream="A",
                predicate=TruePredicate(),
                window_spec=WindowSpec.tumbling(1_000),
                aggregation=AggregationSpec(AggregationKind.COUNT),
            )
            for _ in range(3)
        ]
        go_live(engine, aggregations + [join], now_ms=0)
        left = [(ts, field_tuple(key=1, f0=ts)) for ts in range(0, 900, 100)]
        right = [(450, field_tuple(key=1, f1=1))]
        _push_streams(engine, left, right)
        join_op = engine.join_operators("join:A~B")[0]
        assert join_op.tuples_stored == len(left) + len(right)
        (left_slice,) = list(join_op._left)
        assert [query_set for query_set, _ in left_slice.store.groups()] == [
            1 << engine.session.registry.by_id("j").slot
        ]
        engine.watermark(5_000)
        assert join_outputs_multiset(engine.results("j")) == expected_join_multiset(
            join, 0, left, right, 5_000
        )


class TestAdaptiveStorage:
    def test_switches_to_list_beyond_threshold(self):
        engine = make_engine(storage_query_threshold=3)
        queries = [
            _join(WindowSpec.tumbling(1_000), name=f"q{i}") for i in range(5)
        ]
        go_live(engine, queries, now_ms=0)
        join_op = engine.join_operators("join:A~B")[0]
        assert join_op.store_kind is StoreKind.LIST

    def test_switches_back_with_hysteresis(self):
        engine = make_engine(storage_query_threshold=4)
        queries = [
            _join(WindowSpec.tumbling(1_000), name=f"q{i}") for i in range(6)
        ]
        go_live(engine, queries, now_ms=0)
        join_op = engine.join_operators("join:A~B")[0]
        assert join_op.store_kind is StoreKind.LIST
        # Delete down to half the threshold: grouped again.
        for query in queries[:4]:
            engine.stop(query.query_id, now_ms=1_000)
        engine.flush_session(1_000)
        assert join_op.store_kind is StoreKind.GROUPED

    def test_results_identical_under_both_layouts(self):
        def run(threshold):
            engine = make_engine(storage_query_threshold=threshold)
            query = _join(WindowSpec.tumbling(2_000), name=f"q-{threshold}")
            go_live(engine, [query], now_ms=0)
            left = [(ts, field_tuple(key=ts % 3, f0=ts)) for ts in range(0, 4_000, 111)]
            right = [(ts, field_tuple(key=ts % 3, f1=ts)) for ts in range(0, 4_000, 77)]
            _push_streams(engine, left, right)
            engine.watermark(8_000)
            return join_outputs_multiset(engine.results(query.query_id))

        assert run(threshold=0) == run(threshold=100)


class TestRetention:
    def test_slices_expire_after_max_window(self):
        engine = make_engine()
        query = _join(WindowSpec.tumbling(1_000))
        go_live(engine, [query], now_ms=0)
        for ts in range(0, 10_000, 200):
            engine.push("A", ts, field_tuple(key=1, f0=ts))
            engine.push("B", ts, field_tuple(key=1, f1=ts))
            engine.watermark(ts)
        join_op = engine.join_operators("join:A~B")[0]
        left_slices, right_slices = join_op.live_slices
        assert left_slices <= 4
        assert right_slices <= 4
        assert join_op.cached_pairs <= 16
