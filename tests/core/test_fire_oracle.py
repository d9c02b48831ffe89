"""The watermark's batched fire against the per-query fire it replaced.

:class:`PerQueryFire` keeps the shared aggregation's old firing body as
the oracle: each due window of each query walks its own slices, looks
up each slice's changelog-set and layout, merges its partials key by key
and sorts its keys by ``repr``.  Random schedules of creates, deletes
(slots are reused), in-order and late records, watermarks and
checkpoint restores — over SUM, COUNT, AVG, MIN and MAX, segment
members on two fields, conjunction and ``TRUE`` members (per-slot),
session members, and float samples (which demote rows) — must give the
operator and the oracle equal runs, in order, keys and values, and equal
``results_emitted``, ``bitset_ops`` and ``partial_updates``.

A seed-pinned long schedule also checks that the features the fire
branches on all occur: demoted rows, per-slot members, MIN/MAX members,
windows over slices of two epochs with different group layouts, and a
restore mid-schedule.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    Comparison,
    FieldPredicate,
    TruePredicate,
    WindowSpec,
)
from repro.core.selection import QS_TAG
from repro.core.shared_aggregation import SharedAggregationOperator, WindowRun
from repro.core.sql import ConjunctionPredicate
from repro.minispe.record import Record, RecordBatch, Watermark
from repro.minispe.windows import Window
from tests.conftest import make_tuple
from tests.core.test_fold_work import _between, _marker


class PerQueryFire(SharedAggregationOperator):
    """The shared aggregation with the per-query fire: one walk over the
    slices per due window of each query (the oracle)."""

    def _fire_windows(self, due):
        fired = []
        for slot, start, end in due:
            record = self._fire_time_window(slot, start, end)
            if record is not None:
                fired.append(record)
        return fired

    def _fire_time_window(self, slot, start, end):
        spec = self._specs.get(slot)
        if spec is None:
            return None
        current_epoch = self._changelogs.current_epoch
        merge = self._spec_merges[spec]
        merged: Dict[Any, Any] = {}
        read_epoch = member = None
        for slice_ in self._slices.overlapping(start, end):
            validity = self._changelogs.cl_set(current_epoch, slice_.epoch)
            self.bitset_ops += 1
            if not (validity >> slot) & 1:
                continue
            store = slice_.store
            if store is None:
                continue
            partials = store.get(slot)
            if partials:
                for key, acc in partials.items():
                    existing = merged.get(key)
                    merged[key] = acc if existing is None else merge(existing, acc)
            if slice_.epoch != read_epoch:
                read_epoch = slice_.epoch
                member = self._layouts[read_epoch].slot_group.get(slot)
                if member is not None:
                    pseudo_slot, group = member
                    a, b = group.ranges[slot]
                    covered = (1 << b) - (1 << a)
                    minus = group.minus
            rows = store.get(pseudo_slot) if member is not None else None
            if not rows:
                continue
            for key, row in rows.items():
                if not row or not row[-2] & covered:
                    continue
                if minus is None:
                    acc = group.read(row, a, b)
                else:
                    if not row[-1]:
                        group.to_prefix(row)
                    acc = minus(row[b], row[a])
                existing = merged.get(key)
                merged[key] = acc if existing is None else merge(existing, acc)
        if not merged:
            return None
        keys = sorted(merged, key=repr)
        self.results_emitted += len(keys)
        values = [merged[key] for key in keys]
        if spec.kind is AggregationKind.AVG:
            values = [spec.finish(value) for value in values]
        run = WindowRun(Window(start, end), end - 1, keys, values)
        return Record(run.timestamp, run, None, {QS_TAG: 1 << slot})


KINDS = (
    AggregationSpec(AggregationKind.SUM, 2),
    AggregationSpec(AggregationKind.COUNT),
    AggregationSpec(AggregationKind.AVG, 2),
    AggregationSpec(AggregationKind.MIN, 2),
    AggregationSpec(AggregationKind.MAX, 2),
)
WINDOWS = (
    WindowSpec.tumbling(500),
    WindowSpec.tumbling(1_000),
    WindowSpec.sliding(1_000, 500),
    WindowSpec.session(300),
)


def _predicate(index: int, bound: int):
    """Segment members on fields 0 and 1 (wide, so their groups form
    rows), a conjunction and ``TRUE`` (per-slot members)."""
    return (
        FieldPredicate(0, Comparison.LT, 40 + bound),
        FieldPredicate(0, Comparison.GE, bound),
        _between(0, bound, bound + 60),
        FieldPredicate(1, Comparison.LT, 40 + bound),
        FieldPredicate(1, Comparison.GE, bound),
        ConjunctionPredicate(
            (FieldPredicate(0, Comparison.GE, 20), FieldPredicate(1, Comparison.LT, 70))
        ),
        TruePredicate(),
    )[index]


def _sample(rng: random.Random, floats: bool):
    if floats and rng.random() < 0.1:
        return rng.choice((0.5, -0.0, 2**53 + 1, 1.25))
    return rng.randrange(-5, 50)


create = st.tuples(
    st.just("create"),
    st.integers(0, 6),  # predicate
    st.integers(0, 50),  # its bound
    st.integers(0, len(KINDS) - 1),
    st.integers(0, len(WINDOWS) - 1),
)
step = st.one_of(
    create,
    st.tuples(st.just("delete"), st.integers(0, 1_000)),
    st.tuples(st.just("advance"), st.integers(50, 700)),
    st.tuples(
        st.just("records"), st.integers(1, 25), st.integers(0, 900), st.booleans(),
        st.integers(0, 2**16),
    ),
    st.tuples(st.just("watermark"), st.integers(0, 600)),
    st.tuples(st.just("restore")),
)


def _runs(elements: List[Any]) -> List[Tuple]:
    """The fired runs of one operator's output, as comparable tuples."""
    runs = []
    for element in elements:
        if isinstance(element, RecordBatch):
            for record in element.records:
                run = record.value
                runs.append(
                    (
                        record.timestamp, record.tags[QS_TAG], run.window.start,
                        run.window.end, run.timestamp, repr(run.keys), repr(run.values),
                    )
                )
    return runs


class _Twin:
    """The operator and the oracle, driven by one schedule."""

    def __init__(self) -> None:
        self.outputs: Dict[str, List[Any]] = {"subject": [], "oracle": []}
        self.operators = {
            "subject": self._attach("subject", SharedAggregationOperator("agg:A")),
            "oracle": self._attach("oracle", PerQueryFire("agg:A")),
        }
        self.live: Dict[int, AggregationQuery] = {}
        self.views: List[Tuple[int, Dict[int, AggregationQuery]]] = [(0, {})]
        self.sequence = 0
        self.width = 0
        self.now = 0
        self.watermark = -1
        self.seen = {"restore": 0, "two_layouts": 0, "demoted": 0, "per_slot": 0,
                     "min_max": 0}

    def _attach(self, name, operator):
        operator.set_collector(self.outputs[name].append)
        return operator

    def each(self, call: str, *args) -> None:
        for operator in self.operators.values():
            getattr(operator, call)(*args)

    def marker(self, created=(), deleted=()) -> None:
        self.sequence += 1
        self.width = max([self.width] + [slot + 1 for slot, _ in created])
        self.each("on_marker", _marker(self.sequence, self.now, created, deleted, self.width))
        self.views.append((self.now, dict(self.live)))

    def view_at(self, timestamp: int) -> Dict[int, AggregationQuery]:
        return [live for at, live in self.views if at <= timestamp][-1]

    def apply(self, item: Tuple) -> None:
        kind = item[0]
        if kind == "create":
            _, predicate, bound, spec, window = item
            slot = min(set(range(len(self.live) + 1)) - set(self.live))
            query = AggregationQuery(
                stream="A", predicate=_predicate(predicate, bound),
                window_spec=WINDOWS[window], aggregation=KINDS[spec],
            )
            self.live[slot] = query
            self.marker(created=[(slot, query)])
        elif kind == "delete" and self.live:
            slot = sorted(self.live)[item[1] % len(self.live)]
            self.marker(deleted=[(slot, self.live.pop(slot))])
        elif kind == "advance":
            self.now += item[1]
        elif kind == "records":
            _, count, spread, floats, data_seed = item
            rng = random.Random(data_seed)
            records = []
            for _ in range(count):
                timestamp = rng.randrange(max(0, self.now - spread), self.now + 1)
                key = rng.randrange(6)
                value = make_tuple(
                    key, [rng.randrange(100), rng.randrange(100), _sample(rng, floats), 0, 0]
                )
                tags = sum(
                    1 << slot for slot, query in self.view_at(timestamp).items()
                    if query.predicate.evaluate(value)
                )
                records.append(Record(timestamp, value, key, {QS_TAG: tags}))
            records.sort(key=lambda record: record.timestamp)
            self.each("process_batch", records)
        elif kind == "watermark":
            self.watermark = max(self.watermark, self.now - item[1])
            self._note_coverage()
            self.each("on_watermark", Watermark(self.watermark))
        elif kind == "restore":
            self.seen["restore"] += 1
            for name, operator in list(self.operators.items()):
                twin = type(operator)("agg:A")
                twin.restore(operator.snapshot())
                for counter in ("bitset_ops", "partial_updates", "results_emitted"):
                    setattr(twin, counter, getattr(operator, counter))
                self.operators[name] = self._attach(name, twin)

    def _note_coverage(self) -> None:
        """What the fire about to run will branch on (subject's state)."""
        operator = self.operators["subject"]
        shapes = set()
        for slice_ in operator._slices:
            if slice_.end - 1 > self.watermark or not slice_.store:
                continue
            layout = operator._layouts[slice_.epoch]
            shapes.add(tuple(id(group) for group in layout.groups))
            for slot, held in slice_.store.items():
                if slot >= 0 and held:
                    self.seen["per_slot"] += 1
                elif slot < 0 and any(row == () for row in held.values()):
                    self.seen["demoted"] += 1
            self.seen["min_max"] += sum(not group.minus for group in layout.groups)
        self.seen["two_layouts"] += len(shapes) > 1

    def check(self) -> None:
        subject, oracle = self.operators["subject"], self.operators["oracle"]
        assert _runs(self.outputs["subject"]) == _runs(self.outputs["oracle"])
        for counter in ("results_emitted", "bitset_ops", "partial_updates"):
            assert getattr(subject, counter) == getattr(oracle, counter), counter


def _drive(schedule) -> _Twin:
    twin = _Twin()
    for item in schedule:
        twin.apply(item)
        twin.check()
    twin.now += 5_000
    twin.apply(("watermark", 0))  # fire everything still open
    twin.check()
    return twin


@seed(42)
@settings(max_examples=120, deadline=None)
@given(st.lists(step, min_size=4, max_size=40))
def test_the_batched_fire_equals_the_per_query_fire(schedule):
    _drive(schedule)


def test_a_long_schedule_covers_every_branch_of_the_fire():
    rng = random.Random(7)
    # Every kind has members of several ranges on one field, so runs
    # leave out keys that other members of their group have.
    schedule: List[Tuple] = [
        ("create", index % 7, 7 * index % 50, index % 5, index % 3) for index in range(15)
    ]
    for index in range(160):
        roll = rng.random()
        if roll < 0.12:
            schedule.append(
                ("create", rng.randrange(7), rng.randrange(50), rng.randrange(5),
                 rng.randrange(4))
            )
        elif roll < 0.2:
            schedule.append(("delete", rng.randrange(1_000)))
        elif roll < 0.45:
            schedule.append(("advance", rng.randrange(50, 400)))
        elif roll < 0.8:
            schedule.append(("records", rng.randrange(5, 30), rng.randrange(0, 900),
                             rng.random() < 0.2, rng.randrange(2**16)))
        else:
            schedule.append(("watermark", rng.randrange(0, 400)))
        if index in (60, 120):
            schedule.append(("restore",))
    twin = _drive(schedule)
    assert all(twin.seen.values()), twin.seen
    assert len(_runs(twin.outputs["subject"])) > 200
