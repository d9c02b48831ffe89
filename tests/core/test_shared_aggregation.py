"""Tests for the shared windowed aggregation."""

import pytest

from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    Comparison,
    FieldPredicate,
    TruePredicate,
    WindowSpec,
)
from tests.conftest import field_tuple, go_live, make_engine
from tests.core.oracle import agg_outputs_multiset, expected_agg_multiset


def _agg(window, predicate=None, spec=None, name=None, stream="A"):
    kwargs = {}
    if name:
        kwargs["query_id"] = name
    return AggregationQuery(
        stream=stream,
        predicate=predicate or TruePredicate(),
        window_spec=window,
        aggregation=spec or AggregationSpec(field_index=0),
        **kwargs,
    )


def _push(engine, tuples, stream="A"):
    for ts, value in tuples:
        engine.push(stream, ts, value)


class TestSingleQueryCorrectness:
    def test_tumbling_sum_matches_oracle(self):
        engine = make_engine()
        query = _agg(WindowSpec.tumbling(1_000))
        go_live(engine, [query], now_ms=0)
        tuples = [
            (ts, field_tuple(key=ts % 3, f0=ts % 10)) for ts in range(0, 4_000, 130)
        ]
        _push(engine, tuples)
        engine.watermark(8_000)
        assert agg_outputs_multiset(
            engine.results(query.query_id)
        ) == expected_agg_multiset(query, 0, tuples, 8_000)

    def test_sliding_window_matches_oracle(self):
        engine = make_engine()
        query = _agg(WindowSpec.sliding(3_000, 1_000))
        go_live(engine, [query], now_ms=0)
        tuples = [(ts, field_tuple(key=1, f0=1)) for ts in range(0, 6_000, 400)]
        _push(engine, tuples)
        engine.watermark(10_000)
        assert agg_outputs_multiset(
            engine.results(query.query_id)
        ) == expected_agg_multiset(query, 0, tuples, 10_000)

    def test_predicate_applied(self):
        engine = make_engine()
        query = _agg(
            WindowSpec.tumbling(1_000),
            predicate=FieldPredicate(1, Comparison.GT, 5),
        )
        go_live(engine, [query], now_ms=0)
        tuples = [
            (100, field_tuple(key=1, f0=10, f1=9)),   # passes
            (200, field_tuple(key=1, f0=99, f1=2)),   # filtered
        ]
        _push(engine, tuples)
        engine.watermark(4_000)
        outputs = engine.results(query.query_id)
        assert len(outputs) == 1
        assert outputs[0].value.value == 10

    @pytest.mark.parametrize(
        "kind,expected",
        [
            (AggregationKind.SUM, 9),
            (AggregationKind.COUNT, 3),
            (AggregationKind.MIN, 2),
            (AggregationKind.MAX, 4),
            (AggregationKind.AVG, 3.0),
        ],
    )
    def test_aggregation_kinds(self, kind, expected):
        engine = make_engine()
        query = _agg(
            WindowSpec.tumbling(1_000),
            spec=AggregationSpec(kind, field_index=0),
        )
        go_live(engine, [query], now_ms=0)
        for ts, value in ((100, 2), (200, 3), (300, 4)):
            engine.push("A", ts, field_tuple(key=1, f0=value))
        engine.watermark(4_000)
        engine.shutdown()
        assert repr(engine.results(query.query_id)[0].value.value) == repr(expected)

    def test_parallel_instances_match_oracle(self):
        engine = make_engine(parallelism=3)
        query = _agg(WindowSpec.tumbling(2_000))
        go_live(engine, [query], now_ms=0)
        tuples = [
            (ts, field_tuple(key=ts % 7, f0=ts % 13)) for ts in range(0, 6_000, 170)
        ]
        _push(engine, tuples)
        engine.watermark(10_000)
        assert agg_outputs_multiset(
            engine.results(query.query_id)
        ) == expected_agg_multiset(query, 0, tuples, 10_000)


class TestMultiQuerySharing:
    def test_tuple_folds_into_every_interested_query(self):
        """§3.1.5: a tuple with query code 101 updates Q1 and Q3."""
        engine = make_engine()
        queries = [
            _agg(WindowSpec.tumbling(1_000), name="q1"),
            _agg(
                WindowSpec.tumbling(1_000),
                predicate=FieldPredicate(0, Comparison.GT, 1_000),
                name="q2",
            ),
            _agg(WindowSpec.tumbling(1_000), name="q3"),
        ]
        go_live(engine, queries, now_ms=0)
        engine.push("A", 100, field_tuple(key=1, f0=7))
        engine.watermark(4_000)
        assert engine.result_count("q1") == 1
        assert engine.result_count("q2") == 0
        assert engine.result_count("q3") == 1

    def test_mixed_windows_match_oracles(self):
        engine = make_engine()
        queries = [
            _agg(WindowSpec.tumbling(1_000), name="a1"),
            _agg(WindowSpec.sliding(2_000, 500), name="a2"),
            _agg(
                WindowSpec.tumbling(3_000),
                spec=AggregationSpec(AggregationKind.COUNT),
                name="a3",
            ),
        ]
        go_live(engine, queries, now_ms=0)
        tuples = [
            (ts, field_tuple(key=ts % 2, f0=ts % 5)) for ts in range(0, 5_000, 230)
        ]
        _push(engine, tuples)
        engine.watermark(9_000)
        for query in queries:
            assert agg_outputs_multiset(
                engine.results(query.query_id)
            ) == expected_agg_multiset(query, 0, tuples, 9_000), query.query_id

    def test_partial_updates_counted_per_interested_query(self):
        engine = make_engine()
        queries = [
            _agg(WindowSpec.tumbling(1_000), name=f"q{i}") for i in range(3)
        ]
        go_live(engine, queries, now_ms=0)
        engine.push("A", 100, field_tuple(key=1, f0=1))
        agg_op = engine.aggregation_operators("agg:A")[0]
        assert agg_op.partial_updates == 3


class TestSessionWindows:
    def test_session_aggregation(self):
        engine = make_engine()
        query = _agg(WindowSpec.session(1_000), name="sess")
        go_live(engine, [query], now_ms=0)
        for ts, value in ((100, 1), (600, 2), (5_000, 10)):
            engine.push("A", ts, field_tuple(key=1, f0=value))
        engine.watermark(10_000)
        outputs = engine.results("sess")
        values = sorted(output.value.value for output in outputs)
        assert values == [3, 10]
        windows = sorted(output.value.window for output in outputs)
        assert windows[0].start == 100
        assert windows[0].end == 1_600

    def test_session_per_key(self):
        engine = make_engine()
        query = _agg(WindowSpec.session(500), name="sess")
        go_live(engine, [query], now_ms=0)
        engine.push("A", 100, field_tuple(key=1, f0=1))
        engine.push("A", 150, field_tuple(key=2, f0=2))
        engine.watermark(5_000)
        outputs = engine.results("sess")
        assert {output.value.key for output in outputs} == {1, 2}

    def test_session_query_deletion_clears_state(self):
        engine = make_engine()
        query = _agg(WindowSpec.session(10_000), name="sess")
        go_live(engine, [query], now_ms=0)
        engine.push("A", 100, field_tuple(key=1, f0=1))
        engine.stop("sess", now_ms=500)
        engine.flush_session(500)
        engine.watermark(60_000)
        assert engine.result_count("sess") == 0


class TestAdHocChanges:
    def test_mid_stream_creation(self):
        engine = make_engine()
        early = _agg(WindowSpec.tumbling(1_000), name="early")
        go_live(engine, [early], now_ms=0)
        first = [(ts, field_tuple(key=1, f0=1)) for ts in range(0, 2_000, 250)]
        _push(engine, first)
        engine.watermark(2_000)
        late = _agg(WindowSpec.tumbling(1_000), name="late")
        engine.submit(late, now_ms=2_000)
        engine.flush_session(2_000)
        second = [(ts, field_tuple(key=1, f0=1)) for ts in range(2_000, 4_000, 250)]
        _push(engine, second)
        engine.watermark(8_000)
        tuples = first + second
        assert agg_outputs_multiset(
            engine.results("early")
        ) == expected_agg_multiset(early, 0, tuples, 8_000)
        assert agg_outputs_multiset(
            engine.results("late")
        ) == expected_agg_multiset(late, 2_000, tuples, 8_000)

    def test_slot_reuse_does_not_leak_partials(self):
        engine = make_engine()
        old = _agg(WindowSpec.tumbling(4_000), name="old")
        go_live(engine, [old], now_ms=0)
        engine.push("A", 500, field_tuple(key=1, f0=100))
        engine.stop("old", now_ms=1_000)
        new = _agg(WindowSpec.tumbling(2_000), name="new")
        engine.submit(new, now_ms=1_000)
        engine.flush_session(1_000)
        engine.push("A", 1_500, field_tuple(key=1, f0=7))
        engine.watermark(8_000)
        outputs = engine.results("new")
        assert len(outputs) == 1
        # Only the post-creation tuple; the old query's 100 must not leak.
        assert outputs[0].value.value == 7
