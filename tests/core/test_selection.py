"""Tests for the shared selection operator."""

from typing import List

from repro.core.changelog import Changelog, QueryActivation, QueryDeactivation
from repro.core.query import (
    Comparison,
    FieldPredicate,
    SelectionQuery,
    TruePredicate,
)
from repro.core.selection import EPOCH_TAG, QS_TAG, SharedSelectionOperator
from repro.core.sql import ConjunctionPredicate
from repro.minispe.record import ChangelogMarker, Record, RecordBatch
from tests.conftest import field_tuple, flat_collector, make_tuple


def _selection_query(name: str, stream="A", predicate=None) -> SelectionQuery:
    return SelectionQuery(
        stream=stream, predicate=predicate or TruePredicate(), query_id=name
    )


def _marker(sequence, ts, created=(), deleted=(), width=0) -> ChangelogMarker:
    changelog = Changelog(
        sequence=sequence,
        timestamp_ms=ts,
        created=tuple(
            QueryActivation(query, slot, ts) for query, slot in created
        ),
        deleted=tuple(QueryDeactivation(qid, slot) for qid, slot in deleted),
        width_after=width,
    )
    return ChangelogMarker(timestamp=ts, changelog=changelog)


def _wired(stream="A") -> (SharedSelectionOperator, List):
    operator = SharedSelectionOperator(stream)
    out: List = []
    operator.set_collector(flat_collector(out))
    return operator, out


class TestTagging:
    def test_no_queries_drops_everything(self):
        operator, out = _wired()
        operator.process(Record(timestamp=10, value=field_tuple(1), key=1))
        assert out == []
        assert operator.records_dropped == 1

    def test_tags_matching_queries(self):
        operator, out = _wired()
        gt = _selection_query("gt", predicate=FieldPredicate(0, Comparison.GT, 5))
        le = _selection_query("le", predicate=FieldPredicate(0, Comparison.LE, 5))
        operator.on_marker(_marker(1, 100, created=[(gt, 0), (le, 1)], width=2))
        operator.process(Record(timestamp=100, value=field_tuple(1, f0=9), key=1))
        operator.process(Record(timestamp=101, value=field_tuple(1, f0=3), key=1))
        records = [element for element in out if isinstance(element, Record)]
        assert records[0].tags[QS_TAG] == 0b01  # gt only
        assert records[1].tags[QS_TAG] == 0b10  # le only
        assert records[0].tags[EPOCH_TAG] == 1

    def test_queries_for_other_streams_ignored(self):
        operator, out = _wired(stream="A")
        other = _selection_query("other", stream="B")
        operator.on_marker(_marker(1, 0, created=[(other, 0)], width=1))
        assert operator.active_query_count == 0

    def test_marker_forwarded(self):
        operator, out = _wired()
        operator.on_marker(_marker(1, 0, width=0))
        assert len(out) == 1

    def test_deletion_stops_tagging(self):
        operator, out = _wired()
        query = _selection_query("q")
        operator.on_marker(_marker(1, 0, created=[(query, 0)], width=1))
        operator.on_marker(_marker(2, 100, deleted=[("q", 0)], width=1))
        operator.process(Record(timestamp=150, value=field_tuple(1), key=1))
        assert [e for e in out if isinstance(e, Record)] == []

    def test_slot_reuse_changes_predicate(self):
        operator, out = _wired()
        old = _selection_query("old", predicate=FieldPredicate(0, Comparison.GT, 50))
        operator.on_marker(_marker(1, 0, created=[(old, 0)], width=1))
        new = _selection_query("new", predicate=FieldPredicate(0, Comparison.LE, 50))
        operator.on_marker(
            _marker(2, 100, created=[(new, 0)], deleted=[("old", 0)], width=1)
        )
        operator.process(Record(timestamp=150, value=field_tuple(1, f0=10), key=1))
        records = [e for e in out if isinstance(e, Record)]
        assert records[0].tags[QS_TAG] == 0b1  # new predicate matched

    def test_contradiction_never_matches_a_columnar_batch(self):
        """With sharing off a contradiction stays a direct predicate; the
        columnar binding must not read its empty interval list as true."""
        operator = SharedSelectionOperator("A", share_overlapping=False)
        out: List = []
        operator.set_collector(flat_collector(out))
        never = ConjunctionPredicate(
            (
                FieldPredicate(0, Comparison.GT, 5),
                FieldPredicate(0, Comparison.LT, 3),
            )
        )
        query = _selection_query("never", predicate=never)
        operator.on_marker(_marker(1, 0, created=[(query, 0)], width=1))
        operator.process_columnar(
            RecordBatch.from_columns(
                [10], [1], [[4], [0], [0], [0], [0]],
                lambda key, fields: make_tuple(key=key, fields=fields),
            )
        )
        assert [e for e in out if isinstance(e, Record)] == []
        assert operator.records_dropped == 1


class TestEventTimeEpochs:
    def test_late_record_tagged_under_its_epoch(self):
        """A record older than the newest changelog uses the query view
        that was in force at its own event time."""
        operator, out = _wired()
        query = _selection_query("q")
        operator.on_marker(_marker(1, 1_000, created=[(query, 0)], width=1))
        operator.on_marker(_marker(2, 2_000, deleted=[("q", 0)], width=1))
        # Late record from the [1000, 2000) epoch: q was active then.
        operator.process(Record(timestamp=1_500, value=field_tuple(1), key=1))
        records = [e for e in out if isinstance(e, Record)]
        assert records[0].tags[QS_TAG] == 0b1
        assert records[0].tags[EPOCH_TAG] == 1

    def test_record_before_first_changelog_dropped(self):
        operator, out = _wired()
        query = _selection_query("q")
        operator.on_marker(_marker(1, 1_000, created=[(query, 0)], width=1))
        operator.process(Record(timestamp=500, value=field_tuple(1), key=1))
        assert [e for e in out if isinstance(e, Record)] == []

    def test_prune_views(self):
        operator, _ = _wired()
        query = _selection_query("q")
        operator.on_marker(_marker(1, 1_000, created=[(query, 0)], width=1))
        operator.on_marker(_marker(2, 2_000, deleted=[("q", 0)], width=1))
        dropped = operator.prune_views_before(2_500)
        assert dropped == 2  # epoch 0 and epoch 1 views gone
        # The view in force at 2500 must survive.
        assert operator._view_for(2_500).sequence == 2

    def test_superseded_view_retired_with_its_counters(self):
        """N changelogs at one event time leave one view; work tagged
        under a view before it was superseded stays in the totals."""
        operator, out = _wired()
        counters = (
            "predicate_evaluations",
            "sharing_group_evaluations",
            "sharing_cover_skips",
            "sharing_index_probes",
            "sharing_residual_checks",
        )
        for slot, constant in enumerate((10, 20, 30, 40)):
            query = _selection_query(
                f"q{slot}", predicate=FieldPredicate(0, Comparison.GE, constant)
            )
            operator.on_marker(_marker(slot + 1, 0, created=[(query, slot)]))
            for f0 in (5, 25, 45):
                operator.process(
                    Record(timestamp=0, value=field_tuple(1, f0=f0), key=1)
                )
            before = {name: operator.stats()[name][0] for name in counters}
            operator.on_marker(_marker(slot + 10, 0))  # supersedes, no change
            assert len(operator._views) == 1
            assert {name: operator.stats()[name][0] for name in counters} == before
        assert before["sharing_group_evaluations"] > 0
        assert operator._views[0].sequence == 13


class TestSnapshot:
    def test_round_trip(self):
        operator, _ = _wired()
        query = _selection_query("q")
        operator.on_marker(_marker(1, 100, created=[(query, 0)], width=1))
        snapshot = operator.snapshot()
        restored, out = _wired()
        restored.restore(snapshot)
        restored.process(Record(timestamp=150, value=field_tuple(1), key=1))
        records = [e for e in out if isinstance(e, Record)]
        assert records[0].tags[QS_TAG] == 0b1


class TestPredicateDeduplication:
    """Selection-level sharing: identical predicates evaluated once."""

    def test_shared_predicate_single_evaluation(self):
        operator, out = _wired()
        shared = FieldPredicate(0, Comparison.GT, 5)
        q1 = _selection_query("q1", predicate=shared)
        q2 = _selection_query("q2", predicate=FieldPredicate(0, Comparison.GT, 5))
        q3 = _selection_query("q3", predicate=FieldPredicate(0, Comparison.LE, 5))
        operator.on_marker(
            _marker(1, 0, created=[(q1, 0), (q2, 1), (q3, 2)], width=3)
        )
        operator.process(Record(timestamp=10, value=field_tuple(1, f0=9), key=1))
        # Two distinct predicates -> two evaluations for three queries.
        assert operator.predicate_evaluations == 2
        records = [e for e in out if isinstance(e, Record)]
        assert records[0].tags[QS_TAG] == 0b011  # q1 and q2 both match

    def test_dedup_disabled_evaluates_per_query(self):
        operator = SharedSelectionOperator("A", dedup_predicates=False)
        collected = []
        operator.set_collector(flat_collector(collected))
        predicate = FieldPredicate(0, Comparison.GT, 5)
        q1 = _selection_query("q1", predicate=predicate)
        q2 = _selection_query("q2", predicate=predicate)
        operator.on_marker(_marker(1, 0, created=[(q1, 0), (q2, 1)], width=2))
        operator.process(Record(timestamp=10, value=field_tuple(1, f0=9), key=1))
        assert operator.predicate_evaluations == 2

    def test_unhashable_udf_predicates_not_merged(self):
        from repro.core.query import CallablePredicate

        operator, out = _wired()
        first = CallablePredicate(lambda v: v.fields[0] > 5)
        second = CallablePredicate(lambda v: v.fields[0] > 5)
        q1 = _selection_query("q1", predicate=first)
        q2 = _selection_query("q2", predicate=second)
        operator.on_marker(_marker(1, 0, created=[(q1, 0), (q2, 1)], width=2))
        operator.process(Record(timestamp=10, value=field_tuple(1, f0=9), key=1))
        records = [e for e in out if isinstance(e, Record)]
        assert records[0].tags[QS_TAG] == 0b11

    def test_dedup_results_identical_to_undeduped(self):
        def run(dedup):
            operator = SharedSelectionOperator("A", dedup_predicates=dedup)
            collected = []
            operator.set_collector(flat_collector(collected))
            queries = [
                _selection_query(
                    f"q{i}", predicate=FieldPredicate(i % 2, Comparison.GE, 50)
                )
                for i in range(6)
            ]
            operator.on_marker(
                _marker(
                    1, 0,
                    created=[(q, i) for i, q in enumerate(queries)],
                    width=6,
                )
            )
            for ts in range(10, 500, 37):
                operator.process(
                    Record(
                        timestamp=ts,
                        value=field_tuple(1, f0=ts % 100, f1=(ts * 3) % 100),
                        key=1,
                    )
                )
            return [
                (e.timestamp, e.tags[QS_TAG])
                for e in collected
                if isinstance(e, Record)
            ]

        assert run(True) == run(False)
