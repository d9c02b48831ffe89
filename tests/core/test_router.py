"""Tests for the router and query channels."""

from typing import List

from repro.core.changelog import Changelog, QueryActivation, QueryDeactivation
from repro.core.query import (
    AggregationQuery,
    JoinQuery,
    SelectionQuery,
    TruePredicate,
    WindowSpec,
)
from repro.core.router import QueryChannels, RouterOperator
from repro.core.selection import QS_TAG
from repro.minispe.record import ChangelogMarker, Record, Watermark


def _selection(name: str) -> SelectionQuery:
    return SelectionQuery(stream="A", predicate=TruePredicate(), query_id=name)


def _join(name: str) -> JoinQuery:
    return JoinQuery(
        left_stream="A", right_stream="B",
        left_predicate=TruePredicate(), right_predicate=TruePredicate(),
        window_spec=WindowSpec.tumbling(1_000), query_id=name,
    )


def _marker(sequence, created=(), deleted=(), width=0) -> ChangelogMarker:
    changelog = Changelog(
        sequence=sequence,
        timestamp_ms=sequence,
        created=tuple(QueryActivation(q, slot, 0) for q, slot in created),
        deleted=tuple(QueryDeactivation(qid, slot) for qid, slot in deleted),
        width_after=width,
    )
    return ChangelogMarker(timestamp=sequence, changelog=changelog)


def _router(upstream="select:A"):
    channels = QueryChannels()
    router = RouterOperator(upstream, channels)
    router.set_collector(lambda element: None)
    return router, channels


class TestRouting:
    def test_routes_output_stage_queries_only(self):
        """A selection-stage router must not route join queries whose
        output stage is the join operator."""
        router, channels = _router("select:A")
        selection = _selection("sel")
        join = _join("join")
        router.on_marker(_marker(1, created=[(selection, 0), (join, 1)], width=2))
        router.process(
            Record(timestamp=5, value="v", key=1, tags={QS_TAG: 0b11})
        )
        assert channels.count("sel") == 1
        assert channels.count("join") == 0
        assert router.copies == 1

    def test_copy_per_interested_query(self):
        router, channels = _router()
        queries = [(_selection(f"q{i}"), i) for i in range(3)]
        router.on_marker(_marker(1, created=queries, width=3))
        router.process(
            Record(timestamp=5, value="v", key=1, tags={QS_TAG: 0b101})
        )
        assert channels.count("q0") == 1
        assert channels.count("q1") == 0
        assert channels.count("q2") == 1
        assert router.copies == 2

    def test_untagged_records_dropped(self):
        router, channels = _router()
        router.on_marker(_marker(1, created=[(_selection("q"), 0)], width=1))
        router.process(Record(timestamp=5, value="v", key=1))
        assert channels.total_delivered() == 0

    def test_deleted_query_unrouted(self):
        router, channels = _router()
        router.on_marker(_marker(1, created=[(_selection("q"), 0)], width=1))
        router.on_marker(_marker(2, deleted=[("q", 0)], width=1))
        router.process(
            Record(timestamp=5, value="v", key=1, tags={QS_TAG: 0b1})
        )
        assert channels.count("q") == 0

    def test_results_retained_after_deletion(self):
        router, channels = _router()
        router.on_marker(_marker(1, created=[(_selection("q"), 0)], width=1))
        router.process(Record(timestamp=5, value="v", key=1, tags={QS_TAG: 1}))
        router.on_marker(_marker(2, deleted=[("q", 0)], width=1))
        assert channels.count("q") == 1
        assert channels.results("q")[0].value == "v"

    def test_a_router_with_no_query_reads_no_record(self):
        """The select router of an aggregation-only population has no
        output slot: a batch costs it no tag read at all."""

        class CountingTags(dict):
            reads = 0

            def get(self, *args):
                CountingTags.reads += 1
                return super().get(*args)

        router, channels = _router("select:A")
        aggregation = AggregationQuery(
            stream="A", predicate=TruePredicate(),
            window_spec=WindowSpec.tumbling(1_000),
        )
        router.on_marker(_marker(1, created=[(aggregation, 0)], width=1))
        records = [
            Record(timestamp=ts, value="v", key=1, tags=CountingTags({QS_TAG: 1}))
            for ts in range(100)
        ]
        router.process_batch(records)
        assert CountingTags.reads == 0
        assert channels.total_delivered() == 0 and router.copies == 0
        # With an output slot, every record's tag is read once.
        router.on_marker(_marker(2, created=[(_selection("s"), 1)], width=2))
        router.process_batch(records)
        assert CountingTags.reads == len(records)

    def test_watermarks_terminate_here(self):
        router, _ = _router()
        captured: List = []
        router.set_collector(captured.append)
        router.on_watermark(Watermark(timestamp=9))
        assert captured == []

    def test_snapshot_round_trip(self):
        router, channels = _router()
        router.on_marker(_marker(1, created=[(_selection("q"), 0)], width=1))
        snapshot = router.snapshot()
        fresh = RouterOperator("select:A", channels)
        fresh.set_collector(lambda element: None)
        fresh.restore(snapshot)
        fresh.process(Record(timestamp=5, value="v", key=1, tags={QS_TAG: 1}))
        assert channels.count("q") == 1


class TestQueryChannels:
    def test_counts_without_retention(self):
        channels = QueryChannels(retain_results=False)
        channels.open_channel("q")
        channels.deliver("q", 1, "v")
        assert channels.count("q") == 1
        assert channels.results("q") == []

    def test_on_deliver_hook(self):
        seen = []
        channels = QueryChannels(
            on_deliver=lambda qid, ts, count: seen.append((qid, ts, count))
        )
        channels.deliver("q", 42, "v")
        assert seen == [("q", 42, 1)]

    def test_total_and_ids(self):
        channels = QueryChannels()
        channels.deliver("a", 1, "v")
        channels.deliver("a", 2, "w")
        channels.deliver("b", 3, "x")
        assert channels.total_delivered() == 3
        assert sorted(channels.query_ids()) == ["a", "b"]
