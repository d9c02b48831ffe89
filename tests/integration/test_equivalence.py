"""Cross-engine equivalence: AStream vs the query-at-a-time baseline.

For queries created at time 0 with tumbling windows, creation-anchored
(AStream) and epoch-aligned (baseline) windows coincide, so both engines
must produce identical per-query result multisets — the strongest
correctness check: two completely different execution paths, one answer.
"""

from collections import Counter

from repro.baseline import BaselineDeploymentModel, QueryAtATimeEngine
from repro.core.engine import AStreamEngine, EngineConfig
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
from repro.core.sql import ConjunctionPredicate
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.workloads.datagen import DataGenerator, DataTuple


def _engines():
    astream = AStreamEngine(
        EngineConfig(streams=("A", "B"), parallelism=2),
        cluster=SimulatedCluster(ClusterSpec(nodes=4)),
    )
    baseline = QueryAtATimeEngine(
        cluster=SimulatedCluster(ClusterSpec(nodes=16)),
        deployment=BaselineDeploymentModel(),
        parallelism=1,
    )
    return astream, baseline


def _drive(engine, queries, is_astream: bool):
    for query in queries:
        engine.submit(query, now_ms=0)
    if is_astream:
        engine.flush_session(0)
    gen_a = DataGenerator(seed=21, key_max=5)
    gen_b = DataGenerator(seed=22, key_max=5)
    for ts in range(0, 6_000, 75):
        engine.push("A", ts, gen_a.next_tuple())
        engine.push("B", ts, gen_b.next_tuple())
    engine.watermark(12_000)


def _join_multiset(engine, query_id) -> Counter:
    counts: Counter = Counter()
    for output in engine.results(query_id):
        value = output.value
        if hasattr(value, "parts"):  # AStream JoinedTuple
            left, right = value.parts
        else:  # baseline JoinResult
            left, right = value.left, value.right
        counts[(value.key, left.fields, right.fields, output.timestamp)] += 1
    return counts


def _agg_multiset(engine, query_id) -> Counter:
    """Per-window results; values by ``repr`` so equality is byte-equality
    (an AVG of 2.0 must not pass for an int 2)."""
    counts: Counter = Counter()
    for output in engine.results(query_id):
        result = output.value
        counts[
            (result.key, result.window.start, result.window.end, repr(result.value))
        ] += 1
    return counts


def test_join_queries_agree():
    queries = [
        JoinQuery(
            left_stream="A", right_stream="B",
            left_predicate=TruePredicate(),
            right_predicate=TruePredicate(),
            window_spec=WindowSpec.tumbling(2_000), query_id="eq-j1",
        ),
        JoinQuery(
            left_stream="A", right_stream="B",
            left_predicate=FieldPredicate(0, Comparison.GE, 40),
            right_predicate=FieldPredicate(1, Comparison.LT, 60),
            window_spec=WindowSpec.tumbling(1_000), query_id="eq-j2",
        ),
    ]
    astream, baseline = _engines()
    _drive(astream, queries, is_astream=True)
    _drive(baseline, queries, is_astream=False)
    for query in queries:
        assert _join_multiset(astream, query.query_id) == _join_multiset(
            baseline, query.query_id
        ), query.query_id
        assert astream.result_count(query.query_id) > 0


def test_aggregation_queries_agree():
    queries = [
        AggregationQuery(
            stream="A", predicate=TruePredicate(),
            window_spec=WindowSpec.tumbling(1_000), query_id="eq-a1",
        ),
        AggregationQuery(
            stream="A",
            predicate=FieldPredicate(2, Comparison.LE, 50),
            window_spec=WindowSpec.tumbling(3_000),
            aggregation=AggregationSpec(AggregationKind.MAX, field_index=1),
            query_id="eq-a2",
        ),
    ]
    astream, baseline = _engines()
    _drive(astream, queries, is_astream=True)
    _drive(baseline, queries, is_astream=False)
    for query in queries:
        assert _agg_multiset(astream, query.query_id) == _agg_multiset(
            baseline, query.query_id
        ), query.query_id
        assert astream.result_count(query.query_id) > 0


def test_every_aggregate_kind_agrees():
    """All five kinds over two fields in one population: the shared fold
    lifts a tuple once per distinct aggregate and merges the lift into
    each matched query, which must equal a per-query fold exactly."""
    queries = [
        AggregationQuery(
            stream="A",
            predicate=FieldPredicate(field_index, Comparison.LT, 70),
            window_spec=WindowSpec.tumbling(length),
            aggregation=AggregationSpec(kind, field_index=field_index),
            query_id=f"kinds-{kind.value}-{field_index}-{length}",
        )
        for kind in AggregationKind
        for field_index in (0, 3)
        for length in (1_000, 2_000)
    ]
    astream, baseline = _engines()
    try:
        _drive(astream, queries, is_astream=True)
    finally:
        astream.shutdown()
    _drive(baseline, queries, is_astream=False)
    for query in queries:
        assert _agg_multiset(astream, query.query_id) == _agg_multiset(
            baseline, query.query_id
        ), query.query_id
        assert astream.result_count(query.query_id) > 0


def test_mixed_population_agrees():
    queries = [
        JoinQuery(
            left_stream="A", right_stream="B",
            left_predicate=FieldPredicate(0, Comparison.LT, 70),
            right_predicate=TruePredicate(),
            window_spec=WindowSpec.tumbling(2_000), query_id="mx-j",
        ),
        AggregationQuery(
            stream="B", predicate=TruePredicate(),
            window_spec=WindowSpec.tumbling(2_000), query_id="mx-a",
        ),
    ]
    astream, baseline = _engines()
    _drive(astream, queries, is_astream=True)
    _drive(baseline, queries, is_astream=False)
    assert _join_multiset(astream, "mx-j") == _join_multiset(baseline, "mx-j")
    assert _agg_multiset(astream, "mx-a") == _agg_multiset(baseline, "mx-a")


def test_late_record_after_its_slice_fired_agrees():
    """Records behind the watermark, after the first window over their
    slice fired (its segment rows are prefixes by then) but within the
    allowed lateness, reach the sliding windows that fire later.  One is
    a float, which demotes the prefix rows it lands in."""
    window = WindowSpec.sliding(3_000, 1_000)
    predicates = [
        FieldPredicate(1, Comparison.LT, 60),
        FieldPredicate(1, Comparison.GE, 30),
        ConjunctionPredicate(
            (FieldPredicate(1, Comparison.GE, 20), FieldPredicate(1, Comparison.LE, 80))
        ),
        ConjunctionPredicate(
            (FieldPredicate(1, Comparison.GE, 10), FieldPredicate(2, Comparison.LT, 70))
        ),
        TruePredicate(),
    ]
    queries = [
        AggregationQuery(
            stream="A",
            predicate=predicate,
            window_spec=window,
            aggregation=AggregationSpec(kind, field_index=0),
            query_id=f"late-{kind.value}-{index}",
        )
        for kind in AggregationKind
        for index, predicate in enumerate(predicates)
    ]
    late = [
        (1_500, DataTuple(key=1, fields=(7, 50, 5, 0, 0))),
        (2_500, DataTuple(key=2, fields=(0.5, 40, 5, 0, 0))),
        (1_200, DataTuple(key=1, fields=(9, 70, 90, 0, 0))),
    ]

    def drive(engine, is_astream):
        for query in queries:
            engine.submit(query, now_ms=0)
        if is_astream:
            engine.flush_session(0)
        generator = DataGenerator(seed=13, key_max=3)
        for ts in range(0, 3_000, 40):
            engine.push("A", ts, generator.next_tuple())
        engine.watermark(3_000)  # fires [0, 3000): every slice below is read
        for ts, value in late:
            engine.push("A", ts, value)
        for ts in range(3_000, 6_000, 40):
            engine.push("A", ts, generator.next_tuple())
        engine.watermark(12_000)

    astream, baseline = _engines()
    try:
        drive(astream, True)
    finally:
        astream.shutdown()
    drive(baseline, False)
    for query in queries:
        # Windows fired after the late records; the baseline also fires
        # windows before 0 and re-fires the ones the late records reopen.
        later = Counter(
            {
                entry: count
                for entry, count in _agg_multiset(baseline, query.query_id).items()
                if entry[1] >= 1_000
            }
        )
        ours = _agg_multiset(astream, query.query_id)
        assert Counter({e: c for e, c in ours.items() if e[1] >= 1_000}) == later
        assert sum(later.values()) > 0, query.query_id


def test_second_create_at_the_same_time_agrees():
    """Two changelogs at one event time with records between them: the
    second starts a new epoch (its own segment layout, with groups added
    before and into the first's) while the slices already open at that
    time keep the first epoch.  The first batch agrees on every window;
    the second from its first window over slices it opened."""

    def aggregation(name, kind, predicate, field=0):
        return AggregationQuery(
            stream="A",
            predicate=predicate,
            window_spec=WindowSpec.tumbling(1_000),
            aggregation=AggregationSpec(kind, field_index=field),
            query_id=f"same-time-{name}",
        )

    first = [
        aggregation("a0", AggregationKind.SUM, FieldPredicate(1, Comparison.LT, 60)),
        aggregation("a1", AggregationKind.SUM, FieldPredicate(1, Comparison.GE, 30)),
        aggregation("a2", AggregationKind.MAX, FieldPredicate(2, Comparison.GE, 30)),
    ]
    second = [
        aggregation("b0", AggregationKind.COUNT, FieldPredicate(3, Comparison.LT, 50)),
        aggregation("b1", AggregationKind.SUM, FieldPredicate(1, Comparison.LT, 20)),
        aggregation("b2", AggregationKind.AVG, FieldPredicate(0, Comparison.GE, 20)),
    ]

    def drive(engine, is_astream):
        generator = DataGenerator(seed=5, key_max=3)
        for batch, times in ((first, range(0, 400, 20)), (second, range(400, 3_000, 20))):
            for query in batch:
                engine.submit(query, now_ms=0)
            if is_astream:
                engine.flush_session(0)
            for ts in times:
                engine.push("A", ts, generator.next_tuple())
        engine.watermark(10_000)

    astream, baseline = _engines()
    try:
        drive(astream, True)
    finally:
        astream.shutdown()
    drive(baseline, False)
    for query in first:
        ours = _agg_multiset(astream, query.query_id)
        assert ours == _agg_multiset(baseline, query.query_id), query.query_id
    for query in second:
        ours = _agg_multiset(astream, query.query_id)
        theirs = _agg_multiset(baseline, query.query_id)
        assert ours == Counter({e: c for e, c in theirs.items() if e[1] >= 1_000})
        assert ours, query.query_id


from hypothesis import HealthCheck, given, settings, strategies as st


@st.composite
def _tumbling_populations(draw):
    """Random mixed query populations with tumbling windows at t=0
    (the regime where both engines' window semantics coincide).  Each
    aggregation draws its kind and aggregated field, so one population
    mixes kinds over the shared fold.  Predicates are one comparison, a
    ``GE AND LE`` interval (both segment-row members) or a two-field
    conjunction (per-slot), and a query may reuse the previous one's
    aggregate and field, so the paths mix inside one segment group."""
    population = []
    for index in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["join", "agg"]))
        length = draw(st.integers(1, 3)) * 1_000
        field_index = draw(st.integers(0, 4))
        op = draw(st.sampled_from([Comparison.LT, Comparison.GE]))
        constant = draw(st.integers(0, 100))
        aggregation = AggregationSpec(
            draw(st.sampled_from(list(AggregationKind))), draw(st.integers(0, 4))
        )
        if population and draw(st.booleans()):
            field_index, aggregation = population[-1][3], population[-1][6]
        predicate = FieldPredicate(field_index, op, constant)
        shape = draw(st.sampled_from(["comparison", "interval", "two-field"]))
        if shape == "interval":
            predicate = ConjunctionPredicate(
                (
                    FieldPredicate(field_index, Comparison.GE, constant),
                    FieldPredicate(
                        field_index, Comparison.LE, constant + draw(st.integers(0, 60))
                    ),
                )
            )
        elif shape == "two-field":
            predicate = ConjunctionPredicate(
                (
                    predicate,
                    FieldPredicate(
                        (field_index + 1) % 5, Comparison.LT, draw(st.integers(20, 100))
                    ),
                )
            )
        population.append(
            (index, kind, length, field_index, op, constant, aggregation, predicate)
        )
    return population


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    _tumbling_populations(),
    st.integers(0, 2**16),
)
def test_random_populations_agree_across_engines(population, data_seed):
    run_tag = next(_tag_counter)
    queries = []
    for index, kind, length, _, _, _, aggregation, predicate in population:
        name = f"hx-{run_tag}-{index}"
        if kind == "join":
            queries.append(
                JoinQuery(
                    left_stream="A", right_stream="B",
                    left_predicate=predicate,
                    right_predicate=TruePredicate(),
                    window_spec=WindowSpec.tumbling(length),
                    query_id=name,
                )
            )
        else:
            queries.append(
                AggregationQuery(
                    stream="A",
                    predicate=predicate,
                    window_spec=WindowSpec.tumbling(length),
                    aggregation=aggregation,
                    query_id=name,
                )
            )

    def drive(engine, is_astream):
        for query in queries:
            engine.submit(query, now_ms=0)
        if is_astream:
            engine.flush_session(0)
        gen_a = DataGenerator(seed=data_seed, key_max=4)
        gen_b = DataGenerator(seed=data_seed + 1, key_max=4)
        for ts in range(0, 3_000, 130):
            engine.push("A", ts, gen_a.next_tuple())
            engine.push("B", ts, gen_b.next_tuple())
        engine.watermark(12_000)

    astream, baseline = _engines()
    try:
        drive(astream, True)
    finally:
        astream.shutdown()  # results stay readable
    drive(baseline, False)
    for query in queries:
        if isinstance(query, JoinQuery):
            assert _join_multiset(astream, query.query_id) == _join_multiset(
                baseline, query.query_id
            ), query.query_id
        else:
            assert _agg_multiset(astream, query.query_id) == _agg_multiset(
                baseline, query.query_id
            ), query.query_id


import itertools as _itertools

_tag_counter = _itertools.count()
