"""Column-at-a-time tagging equals tagging one record at a time.

The shared selection tags a batch a column at a time: a compare map per
direct field predicate, one ``bisect`` map per sharing group, residual
checks for the rows inside a group's hull, ``evaluate`` mapped over the
row values for a black-box predicate.  A batch whose timestamps span an
epoch view's edge is split there, keeping row order.

These properties drive random plans — direct field predicates, ``TRUE``,
black-box UDFs, multi-field (residual) members and contradictions, with
sharing on and off — over a batch delivered after a second changelog,
whose rows straddle the changelog's event time and include late rows
into the older view.  A columnar batch, its row-built twin and the same
rows as one-record batches must emit the same records (order, value,
key, query-set, epoch), each the query-set the epoch's own predicates
give, and leave every work counter at the same value: the one a per-row
probe of each view's plan counts.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.changelog import Changelog, QueryActivation, QueryDeactivation
from repro.core.query import (
    CallablePredicate,
    Comparison,
    FieldPredicate,
    SelectionQuery,
    TruePredicate,
)
from repro.core.selection import EPOCH_TAG, QS_TAG, SharedSelectionOperator
from repro.core.sql import ConjunctionPredicate
from repro.minispe.record import ChangelogMarker, Record, RecordBatch
from tests.conftest import flat_collector, make_tuple

CHANGELOG_MS = 100
"""Event time of the second changelog; the batch's rows straddle it."""

_CONFIGS = (
    {"dedup_predicates": True, "share_overlapping": True},
    {"dedup_predicates": True, "share_overlapping": False},
    {"dedup_predicates": False, "share_overlapping": True},
)

_values = st.integers(min_value=0, max_value=20)
_field_predicates = st.builds(
    FieldPredicate,
    field_index=st.integers(min_value=0, max_value=2),
    op=st.sampled_from(list(Comparison)),
    constant=_values,
)
_residuals = st.lists(_field_predicates, min_size=2, max_size=3).map(
    lambda conjuncts: ConjunctionPredicate(tuple(conjuncts))
)
_contradictions = _values.map(
    lambda low: ConjunctionPredicate(
        (
            FieldPredicate(0, Comparison.GT, low),
            FieldPredicate(0, Comparison.LT, low),
        )
    )
)
_udfs = _values.map(
    lambda floor: CallablePredicate(
        lambda value, floor=floor: value.fields[1] > floor, f"f1>{floor}"
    )
)
_predicates = st.one_of(
    _field_predicates,
    _field_predicates,
    st.just(TruePredicate()),
    _residuals,
    _contradictions,
    _udfs,
)
_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2 * CHANGELOG_MS),  # timestamp
        st.lists(_values, min_size=5, max_size=5),
    ),
    min_size=1,
    max_size=30,
)


def _marker(sequence, at_ms, created=(), deleted=()) -> ChangelogMarker:
    return ChangelogMarker(
        timestamp=at_ms,
        changelog=Changelog(
            sequence=sequence,
            timestamp_ms=at_ms,
            created=tuple(
                QueryActivation(query, slot, at_ms) for slot, query in created
            ),
            deleted=tuple(
                QueryDeactivation(query.query_id, slot) for slot, query in deleted
            ),
        ),
    )


def _counters(operator: SharedSelectionOperator) -> Dict[str, int]:
    stats = operator.sharing_group_stats()
    return {
        "evaluations": operator.predicate_evaluations,
        "group_evaluations": stats["group_evaluations"],
        "cover_skips": stats["cover_skips"],
        "index_probes": stats["index_probes"],
        "residual_checks": stats["residual_checks"],
        "records_dropped": operator.records_dropped,
    }


def _run(config, markers, records: List[Record], shape: str):
    """Tag ``records`` delivered in one ``shape`` after ``markers``."""
    operator = SharedSelectionOperator("A", **config)
    out: List = []
    operator.set_collector(flat_collector(out))
    for marker in markers:
        operator.on_marker(marker)
    if shape == "columnar":
        operator.process_columnar(
            RecordBatch.from_columns(
                [record.timestamp for record in records],
                [record.key for record in records],
                [[record.value.fields[f] for record in records] for f in range(5)],
                lambda key, fields: make_tuple(key=key, fields=fields),
            )
        )
    elif shape == "rows":
        operator.process_batch(records)
    else:
        for record in records:
            operator.process_batch([record])
    tagged = [
        (r.timestamp, r.value, r.key, r.tags[QS_TAG], r.tags[EPOCH_TAG])
        for r in out
        if isinstance(r, Record)
    ]
    return tagged, _counters(operator), operator


def _per_row_counters(operator, records: List[Record]) -> Dict[str, int]:
    """What a per-row probe of each row's view plan counts: per row, one
    evaluation per direct predicate; per group, one evaluation and a
    cover skip (outside the hull) or an index probe plus one evaluation
    and residual check per residual member (inside it)."""
    counted = dict.fromkeys(
        ("direct", "groups", "cover_skips", "index_probes", "residual_checks"), 0
    )
    dropped = 0
    for record in records:
        plan = operator._view_for(record.timestamp).plan
        counted["direct"] += len(plan.direct)
        for group in plan.groups:
            counted["groups"] += 1
            if group.cover.contains_value(record.value.fields[group.field_index]):
                counted["index_probes"] += 1
                counted["groups"] += group.residual_count
                counted["residual_checks"] += group.residual_count
            else:
                counted["cover_skips"] += 1
    return {
        "evaluations": counted["direct"] + counted["groups"],
        "group_evaluations": counted["groups"],
        "cover_skips": counted["cover_skips"],
        "index_probes": counted["index_probes"],
        "residual_checks": counted["residual_checks"],
    }


@settings(max_examples=150, deadline=None)
@given(
    config=st.sampled_from(_CONFIGS),
    first=st.lists(_predicates, min_size=1, max_size=7),
    second=st.lists(_predicates, min_size=0, max_size=4),
    deleted=st.sets(st.integers(min_value=0, max_value=6)),
    rows=_rows,
)
def test_batch_shapes_tag_alike_across_a_changelog(config, first, second, deleted, rows):
    queries = {
        slot: SelectionQuery(stream="A", predicate=predicate, query_id=f"a{slot}")
        for slot, predicate in enumerate(first)
    }
    gone = [(slot, queries[slot]) for slot in sorted(deleted) if slot in queries]
    # New queries take the deleted slots first, then fresh ones.
    free = [slot for slot, _ in gone] + list(range(len(first), len(first) + 4))
    created = [
        (free[index], SelectionQuery(stream="A", predicate=predicate, query_id=f"b{index}"))
        for index, predicate in enumerate(second)
    ]
    markers = [
        _marker(1, 0, created=list(queries.items())),
        _marker(2, CHANGELOG_MS, created=created, deleted=gone),
    ]
    later = dict(queries)
    for slot, _ in gone:
        del later[slot]
    later.update(created)
    records = [
        Record(timestamp, make_tuple(key=index, fields=fields), index)
        for index, (timestamp, fields) in enumerate(rows)
    ]

    runs = {shape: _run(config, markers, records, shape) for shape in ("columnar", "rows", "single")}
    tagged, counters, operator = runs["columnar"]
    assert runs["rows"][:2] == (tagged, counters)
    assert runs["single"][:2] == (tagged, counters)

    # Each kept row carries the query-set its own epoch's predicates give.
    expected: List[Tuple] = []
    for record in records:
        epoch, epoch_queries = (1, queries) if record.timestamp < CHANGELOG_MS else (2, later)
        bits = sum(
            1 << slot
            for slot, query in epoch_queries.items()
            if query.predicate.evaluate(record.value)
        )
        if bits:
            expected.append((record.timestamp, record.value, record.key, bits, epoch))
    assert tagged == expected
    assert counters["records_dropped"] == len(records) - len(expected)
    del counters["records_dropped"]
    assert counters == _per_row_counters(operator, records)


def test_a_batch_spanning_views_is_split_at_the_edge_in_row_order():
    """Rows alternate between two views: each run is tagged under its own
    view, and the survivors leave in row order as one batch."""
    operator = SharedSelectionOperator("A")
    emitted: List = []
    operator.set_collector(emitted.append)
    old = SelectionQuery(stream="A", predicate=FieldPredicate(0, Comparison.GE, 5))
    new = SelectionQuery(stream="A", predicate=FieldPredicate(0, Comparison.LT, 5))
    operator.on_marker(_marker(1, 0, created=[(0, old)]))
    operator.on_marker(_marker(2, 50, created=[(1, new)], deleted=[(0, old)]))
    timestamps = [60, 10, 20, 70, 80, 30]
    values = [9, 9, 1, 1, 9, 9]
    operator.process_columnar(
        RecordBatch.from_columns(
            timestamps,
            list(range(6)),
            [values, [0] * 6, [0] * 6, [0] * 6, [0] * 6],
            lambda key, fields: make_tuple(key=key, fields=fields),
        )
    )
    (batch,) = [element for element in emitted if isinstance(element, RecordBatch)]
    assert [(r.key, r.tags[QS_TAG], r.tags[EPOCH_TAG]) for r in batch.records] == [
        (1, 0b01, 1),  # t=10 < 50: the old view, f0 >= 5
        (3, 0b10, 2),  # t=70: the new view, f0 < 5
        (5, 0b01, 1),  # t=30: the old view again
    ]
    assert operator.records_dropped == 3
