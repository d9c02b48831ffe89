"""Checkpoints share what cannot change, and stay isolated anyway.

A checkpoint and a restore deep-copy operator state, but frozen values
(changelogs, queries, predicates, window and aggregation specs) return
themselves from ``__deepcopy__``, so every operator's snapshot shares the
live objects and only the mutable containers around them are copied.

The property test pins the other half of that contract: nothing a
checkpoint holds changes when more input arrives after it, and recovering
twice from one checkpoint reproduces the uninterrupted run each time.  A
mutable value wrongly shared (a slice, a slice index) breaks one of the
two.  The pin test fixes the sharing itself and the allocation it saves.
"""

import copy
import dataclasses
import pickle
import tracemalloc

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.core.changelog import Changelog, QueryActivation
from repro.core.engine import AStreamEngine, EngineCheckpoint, EngineConfig
from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    CallablePredicate,
    Comparison,
    ComplexQuery,
    FieldPredicate,
    JoinQuery,
    TruePredicate,
    WindowSpec,
)
from repro.workloads.datagen import DataTuple

STREAMS = ("A", "B")
PHASES = 6
PHASE_MS = 500
FINAL_WATERMARK_MS = PHASES * PHASE_MS + 5_000
WINDOWS = (
    WindowSpec.tumbling(500),
    WindowSpec.tumbling(1_000),
    WindowSpec.sliding(1_000, 500),
)


def _even_third_field(value) -> bool:
    """A black-box UDF selection (module level, so snapshots pickle)."""
    return value.fields[2] % 2 == 0


def _engine() -> AStreamEngine:
    return AStreamEngine(
        EngineConfig(streams=STREAMS, parallelism=1, log_inputs=True)
    )


def _canonical(engine):
    return {
        query_id: [
            (output.timestamp, repr(output.value))
            for output in engine.canonical_results(query_id)
        ]
        for query_id in sorted(engine.result_counts())
    }


@st.composite
def _queries(draw, query_id):
    """One query of a drawn kind; every kind lands in a keyed operator."""
    kind = draw(st.sampled_from(["agg", "session", "join", "complex", "udf"]))
    window = draw(st.sampled_from(WINDOWS))
    predicate = FieldPredicate(
        draw(st.integers(0, 4)),
        draw(st.sampled_from([Comparison.LT, Comparison.GE])),
        float(draw(st.integers(0, 100))),
    )
    aggregation = AggregationSpec(
        draw(st.sampled_from(list(AggregationKind))), draw(st.integers(0, 4))
    )
    stream = draw(st.sampled_from(STREAMS))
    if kind == "join":
        return JoinQuery("A", "B", predicate, TruePredicate(), window, query_id)
    if kind == "complex":
        return ComplexQuery(
            ("A", "B"), (predicate, TruePredicate()), window,
            WindowSpec.tumbling(1_000), aggregation, query_id,
        )
    if kind == "session":
        window = WindowSpec.session(300)
    elif kind == "udf":
        predicate = CallablePredicate(_even_third_field, "even(f2)")
    return AggregationQuery(stream, predicate, window, aggregation, query_id)


@st.composite
def _schedules(draw):
    """Create/delete/push/watermark ops per phase, and a checkpoint point."""
    ops = []
    live = []
    for phase in range(PHASES):
        now = phase * PHASE_MS
        if live and draw(st.booleans()):
            victim = draw(st.sampled_from(live))
            live.remove(victim)
            ops.append(("stop", now, victim))
        for _ in range(draw(st.integers(0, 2))):
            query = draw(_queries(f"cs-{phase}-{len(ops)}"))
            live.append(query.query_id)
            ops.append(("submit", now, query))
        ops.append(("flush", now, None))
        records = draw(
            st.lists(
                st.tuples(
                    st.integers(0, PHASE_MS - 1),  # offset in the phase
                    st.sampled_from(STREAMS),
                    st.integers(0, 3),  # key
                    st.integers(0, 100),  # field seed
                ),
                max_size=12,
            )
        )
        for offset, stream, key, value in sorted(records):
            fields = tuple((value * (index + 3)) % 101 for index in range(5))
            ops.append(("push", now + offset, (stream, DataTuple(key, fields))))
        if draw(st.booleans()):
            ops.append(("watermark", now + PHASE_MS - 1, None))
    ops.append(("watermark", FINAL_WATERMARK_MS, None))
    checkpoint_at = draw(st.integers(0, len(ops) - 1))
    return ops, checkpoint_at


def _apply(engine: AStreamEngine, op) -> None:
    kind, at_ms, payload = op
    if kind == "submit":
        engine.submit(payload, now_ms=at_ms)
    elif kind == "stop":
        engine.stop(payload, now_ms=at_ms)
    elif kind == "flush":
        engine.flush_session(at_ms)
    elif kind == "push":
        stream, value = payload
        engine.push(stream, at_ms, value)
    else:
        engine.watermark(at_ms)


@seed(20190630)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=_schedules())
def test_checkpoint_is_isolated_from_later_input_and_recoveries(schedule):
    ops, checkpoint_at = schedule
    uninterrupted = _engine()
    for op in ops:
        _apply(uninterrupted, op)
    expected = _canonical(uninterrupted)
    uninterrupted.shutdown()

    engine = _engine()
    try:
        for op in ops[:checkpoint_at]:
            _apply(engine, op)
        engine.checkpoint()
        checkpoint = engine._checkpoints[-1]
        taken = pickle.dumps(checkpoint.runtime_state)
        for op in ops[checkpoint_at:]:
            _apply(engine, op)
        assert pickle.dumps(checkpoint.runtime_state) == taken
        assert _canonical(engine) == expected
        for _ in range(2):
            engine.recover()
            assert _canonical(engine) == expected
            assert pickle.dumps(checkpoint.runtime_state) == taken
    finally:
        engine.shutdown()


def _keyed_operators(engine: AStreamEngine, vertex: str):
    if vertex.startswith("agg:"):
        return engine.aggregation_operators(vertex)
    return engine.join_operators(vertex)


def _pinned_engine() -> AStreamEngine:
    """200 aggregations and one join, one changelog each, as served."""
    engine = _engine()
    kinds = list(AggregationKind)
    for index in range(200):
        engine.submit(
            AggregationQuery(
                stream="A",
                predicate=FieldPredicate(
                    index % 5, Comparison.LT, float(index % 97)
                ),
                window_spec=WindowSpec.tumbling(1_000 * (1 + index % 4)),
                aggregation=AggregationSpec(kinds[index % 5], index % 5),
                query_id=f"pin-agg-{index}",
            ),
            now_ms=index,
        )
        engine.flush_session(index)
    engine.submit(
        JoinQuery(
            "A", "B", TruePredicate(), FieldPredicate(1, Comparison.GE, 50.0),
            WindowSpec.tumbling(1_000), "pin-join",
        ),
        now_ms=200,
    )
    engine.flush_session(200)
    for ts in range(200, 3_200, 20):
        fields = tuple((ts // 20 * (index + 3)) % 101 for index in range(5))
        engine.push("A", ts, DataTuple(ts % 7, fields))
        engine.push("B", ts, DataTuple(ts % 7, fields))
    engine.watermark(2_500)
    return engine


# One checkpoint of the pinned engine allocates about 1.7 MiB when frozen
# values are shared (slices, accumulators, epoch views and the changelog
# tables' containers) and about 3.8 MiB when every operator deep-copies
# the changelog history and the session is copied too (CPython 3.11).
CHECKPOINT_ALLOCATION_BOUND = int(2.6 * 1024 * 1024)


class TestSharingPins:
    def test_checkpoint_shares_the_live_changelogs(self):
        engine = _pinned_engine()
        engine.checkpoint()
        checkpoint = engine._checkpoints[-1]
        tables = 0
        for vertex, per_instance in checkpoint.runtime_state.items():
            for instance, state in per_instance.items():
                if not isinstance(state, dict) or "changelogs" not in state:
                    continue
                saved = state["changelogs"]
                live = _keyed_operators(engine, vertex)[instance]._changelogs
                assert saved is not live
                assert len(saved) == len(live) == 201
                for epoch in range(1, len(saved) + 1):
                    assert saved.changelog_starting(
                        epoch
                    ) is live.changelog_starting(epoch)
                tables += 1
        assert tables == 4  # agg:A, agg:B, agg:A~B and join:A~B

    def test_recovered_operators_share_one_history(self):
        engine = _pinned_engine()
        engine.checkpoint()
        engine.recover()
        tables = [
            operator._changelogs
            for vertex in ("agg:A", "agg:B", "agg:A~B", "join:A~B")
            for operator in _keyed_operators(engine, vertex)
        ]
        assert len(tables) == 4
        for epoch in range(1, 202):
            assert len({id(t.changelog_starting(epoch)) for t in tables}) == 1

    def test_checkpoint_holds_no_session_copy(self):
        names = {item.name for item in dataclasses.fields(EngineCheckpoint)}
        assert "session_state" not in names

    def test_checkpoint_allocation_is_bounded(self):
        engine = _pinned_engine()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine.checkpoint()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < CHECKPOINT_ALLOCATION_BOUND


class TestFrozenRule:
    def test_frozen_values_share_and_udf_queries_copy(self):
        window = WindowSpec.tumbling(1_000)
        frozen = AggregationQuery("A", TruePredicate(), window, query_id="f")
        udf = AggregationQuery(
            "A", CallablePredicate(_even_third_field), window, query_id="u"
        )
        shared = Changelog(1, 0, (QueryActivation(frozen, 0, 0),), (), 1)
        assert copy.deepcopy(shared) is shared
        copied = copy.deepcopy(Changelog(2, 0, (QueryActivation(udf, 1, 0),), (), 2))
        query = copied.created[0].query
        assert query is not udf and query.query_id == "u"
        assert query.predicate is not udf.predicate
        assert query.window_spec is window

    def test_changelog_pickle_leaves_out_cached_derivations(self):
        changelog = Changelog(1, 0, (), (), 3)
        before = pickle.dumps(changelog)
        assert changelog.changelog_set == 0b111
        assert pickle.dumps(changelog) == before
        assert pickle.loads(before).changelog_set == 0b111
