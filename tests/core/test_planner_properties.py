"""Hypothesis property suite for the normalization/subsumption algebra.

The ISSUE 8 contracts, stated as universally quantified properties and
hammered with random predicates and tuples:

* ``normalize(p)`` is semantics-preserving: the normal form accepts
  exactly the tuples the source predicate accepts;
* ``subsumes(p, q)`` is sound: whenever it holds, ``q(t) ⇒ p(t)``;
* ``overlaps`` is sound in the negative: predicates declared disjoint
  never both accept a tuple;
* the compiled sharing plan (covering groups ∨ residuals ∨ direct
  entries) is extensionally equal to evaluating every per-query
  predicate independently — the optimizer is a pure rewrite;
* the selection operator that runs those plans tags the same tuples
  identically whether they arrive as single records, a row-built batch
  or a columnar batch.
"""

from hypothesis import given, settings, strategies as st

from repro.core.changelog import Changelog, QueryActivation
from repro.core.planner import (
    covering,
    normalize,
    overlaps,
    subsumes,
)
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
from tests.core.plan_oracle import compile_selection_plan

# Constants and field values share one small domain so boundary hits
# (v == constant, equal constants across predicates) are common.
_constants = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=40).map(lambda n: n / 2),
)
_field_predicates = st.builds(
    FieldPredicate,
    field_index=st.integers(min_value=0, max_value=4),
    op=st.sampled_from(list(Comparison)),
    constant=_constants,
)
_conjunctions = st.lists(_field_predicates, min_size=1, max_size=4).map(
    lambda conjuncts: ConjunctionPredicate(tuple(conjuncts))
)
_predicates = st.one_of(
    st.just(TruePredicate()), _field_predicates, _conjunctions
)
_tuples = st.lists(
    st.one_of(
        st.integers(min_value=-2, max_value=22),
        st.integers(min_value=-4, max_value=44).map(lambda n: n / 2),
    ),
    min_size=5,
    max_size=5,
).map(lambda fields: make_tuple(key=1, fields=fields))


@settings(max_examples=300, deadline=None)
@given(predicate=_predicates, record=_tuples)
def test_normalize_preserves_semantics(predicate, record):
    normalized = normalize(predicate)
    assert normalized is not None
    assert normalized.evaluate(record) == predicate.evaluate(record)


@settings(max_examples=300, deadline=None)
@given(p=_predicates, q=_predicates, record=_tuples)
def test_subsumption_implies_implication(p, q, record):
    norm_p, norm_q = normalize(p), normalize(q)
    if subsumes(norm_p, norm_q) and q.evaluate(record):
        assert p.evaluate(record)


@settings(max_examples=300, deadline=None)
@given(p=_predicates, q=_predicates, record=_tuples)
def test_disjoint_predicates_never_both_match(p, q, record):
    if not overlaps(normalize(p), normalize(q)):
        assert not (p.evaluate(record) and q.evaluate(record))


@settings(max_examples=200, deadline=None)
@given(members=st.lists(_predicates, min_size=1, max_size=5), record=_tuples)
def test_covering_subsumes_and_admits_every_member(members, record):
    normalized = [normalize(member) for member in members]
    cover = covering(normalized)
    for norm in normalized:
        assert subsumes(cover, norm)
    # Pointwise: a tuple matching any member matches the cover.
    if any(member.evaluate(record) for member in members):
        assert cover.evaluate(record)


@settings(max_examples=300, deadline=None)
@given(
    predicates=st.lists(_predicates, min_size=1, max_size=8),
    records=st.lists(_tuples, min_size=1, max_size=6),
)
def test_compiled_plan_is_exact_rewrite(predicates, records):
    """cover ∨ residuals ∨ direct ≡ the original per-query predicates,
    each group tagging all the rows' columns at once."""
    pairs = [
        (predicate, 1 << slot) for slot, predicate in enumerate(predicates)
    ]
    plan = compile_selection_plan(pairs)
    columns = [[record.fields[f] for record in records] for f in range(5)]
    tagged = [group.tag(columns) for group in plan.groups]
    for row, record in enumerate(records):
        expected = 0
        for predicate, mask in pairs:
            if predicate.evaluate(record):
                expected |= mask
        actual = 0
        for predicate, mask in plan.direct:
            if predicate.evaluate(record):
                actual |= mask
        for group, bits in zip(plan.groups, tagged):
            assert group.evaluate(record) == bits[row]
            actual |= bits[row]
        assert actual == expected
        # Folded slots are exactly the unsatisfiable ones: never matched.
        assert plan.folded_slots & expected == 0


def _tag_run(predicates, rows, timestamps, udf_at_ms, udf_floor, shape):
    """Tag ``rows`` delivered in one input ``shape``; what an observer sees.

    Epoch 1 (from t=0) holds one query per predicate; epoch 2 (from
    ``udf_at_ms``, which may fall anywhere inside the batch's event
    times) adds a black-box UDF query.
    """
    operator = SharedSelectionOperator("A")
    tagged = []
    operator.set_collector(flat_collector(tagged))
    queries = [
        SelectionQuery(stream="A", predicate=predicate, query_id=f"p{slot}")
        for slot, predicate in enumerate(predicates)
    ]
    udf = SelectionQuery(
        stream="A",
        predicate=CallablePredicate(lambda value: value.fields[0] > udf_floor),
        query_id="udf",
    )
    for sequence, at_ms, created in (
        (1, 0, list(enumerate(queries))),
        (2, udf_at_ms, [(len(queries), udf)]),
    ):
        activations = tuple(
            QueryActivation(query, slot, at_ms) for slot, query in created
        )
        operator.on_marker(
            ChangelogMarker(
                timestamp=at_ms,
                changelog=Changelog(
                    sequence=sequence,
                    timestamp_ms=at_ms,
                    created=activations,
                    width_after=len(queries) + 1,
                ),
            )
        )
    records = [
        Record(timestamp, row, row.key)
        for timestamp, row in zip(timestamps, rows)
    ]
    if shape == "single":
        for record in records:
            operator.process(record)
    elif shape == "rows":
        operator.process_batch(records)
    else:
        operator.process_columnar(
            RecordBatch.from_columns(
                timestamps,
                [row.key for row in rows],
                [[row.fields[f] for row in rows] for f in range(5)],
                lambda key, fields: make_tuple(key=key, fields=fields),
            )
        )
    return (
        [
            (r.timestamp, r.value, r.key, r.tags[QS_TAG], r.tags[EPOCH_TAG])
            for r in tagged
            if isinstance(r, Record)
        ],
        operator.records_dropped,
        operator.predicate_evaluations,
    )


@settings(max_examples=150, deadline=None)
@given(
    predicates=st.lists(_predicates, min_size=1, max_size=6),
    rows=st.lists(_tuples, min_size=1, max_size=10),
    data=st.data(),
)
def test_tagging_is_independent_of_input_shape(predicates, rows, data):
    """Single records, a row-built batch and a columnar batch of the same
    tuples get identical tags and charge identical counters — also when a
    UDF query's epoch starts at an event time inside the batch."""
    times = st.integers(min_value=0, max_value=100)
    timestamps = data.draw(
        st.lists(times, min_size=len(rows), max_size=len(rows))
    )
    udf_at_ms = data.draw(times)
    udf_floor = data.draw(st.integers(min_value=0, max_value=20))
    single, rows_built, columnar = (
        _tag_run(predicates, rows, timestamps, udf_at_ms, udf_floor, shape)
        for shape in ("single", "rows", "columnar")
    )
    assert rows_built == single
    assert columnar == single
