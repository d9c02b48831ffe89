"""Work counts of the shared aggregation's per-record fold, with no clock.

The fold must cost one lift per distinct aggregate a record matches plus
one accumulator update per matched slot, and nothing in it may scan the
query population.  These tests count the work directly:

* (a) the late horizon reads no ``WindowedQuery`` per record;
* (b) ``AggregationSpec.add`` runs once per (record, distinct spec
  matched), and the lifted-then-merged partials equal a per-slot fold;
* (c) the derived fold state (per-spec slot masks, the session mask,
  the window-length multiset) is rebuilt on restore and after a
  migration split, and stays out of the snapshot; the snapshot and
  each split part carry exactly their backend's listed keys, so nothing
  extra rides a checkpoint or a migration unnoticed.
"""

import random
from typing import Dict, List

import pytest

from repro.core.changelog import Changelog, QueryActivation, QueryDeactivation
from repro.core.migration import _split_agg_state
from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    TruePredicate,
    WindowSpec,
)
from repro.core.selection import QS_TAG
from repro.core.shared_aggregation import SharedAggregationOperator
from repro.core.slicing import SliceManager, WindowedQuery
from repro.minispe.record import ChangelogMarker, Record
from tests.conftest import flat_collector, make_tuple

SUM = AggregationSpec(AggregationKind.SUM, 0)
MAX = AggregationSpec(AggregationKind.MAX, 1)
AVG = AggregationSpec(AggregationKind.AVG, 2)


def _query(window: WindowSpec, spec: AggregationSpec) -> AggregationQuery:
    return AggregationQuery(
        stream="A", predicate=TruePredicate(), window_spec=window, aggregation=spec
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


def _operator(state_backend: str = "memory", **kwargs) -> SharedAggregationOperator:
    operator = SharedAggregationOperator(
        "agg:A", state_backend=state_backend, **kwargs
    )
    operator.set_collector(flat_collector([]))
    return operator


def _records(rng: random.Random, count: int, slots: int, ts: int) -> List[Record]:
    return [
        Record(
            ts + index,
            make_tuple(index % 4, [rng.randrange(100) for _ in range(5)]),
            index % 4,
            {QS_TAG: rng.getrandbits(slots)},
        )
        for index in range(count)
    ]


class _SpecReads:
    """Data descriptor counting reads of ``WindowedQuery.spec``."""

    def __init__(self) -> None:
        self.reads = 0

    def __get__(self, query, owner):
        if query is None:
            return self
        self.reads += 1
        return query.__dict__["spec"]

    def __set__(self, query, value) -> None:
        query.__dict__["spec"] = value


def test_late_horizon_reads_no_query_per_record(monkeypatch):
    operator = _operator()
    window = WindowSpec.tumbling(10_000)
    operator.on_marker(
        _marker(1, 0, created=[(slot, _query(window, SUM)) for slot in range(1_000)])
    )
    rng = random.Random(7)
    operator.process_batch(_records(rng, 1, 1_000, 100))  # warm the slice cache
    reads = _SpecReads()
    monkeypatch.setattr(WindowedQuery, "spec", reads, raising=False)
    operator.process_batch(_records(rng, 50, 1_000, 200))
    # A max(length) over all 1,000 queries per record would read 50,000
    # times for this batch.  The maintained maximum reads none.
    assert reads.reads <= 1
    assert operator.partial_updates > 50


def test_add_runs_once_per_record_and_distinct_spec(monkeypatch):
    specs = (SUM, MAX, AVG)
    slot_spec = {slot: specs[slot % 3] for slot in range(300)}
    operator = _operator()
    operator.on_marker(
        _marker(
            1,
            0,
            created=[
                (slot, _query(WindowSpec.tumbling(1_000), spec))
                for slot, spec in slot_spec.items()
            ],
        )
    )
    rng = random.Random(11)
    records = _records(rng, 40, 300, 100)
    records.append(Record(150, make_tuple(9, [1] * 5), 9, {QS_TAG: 1 << 4}))

    calls = []
    original_add = AggregationSpec.add

    def counting_add(spec, acc, value):
        calls.append(spec)
        return original_add(spec, acc, value)

    monkeypatch.setattr(AggregationSpec, "add", counting_add)
    operator.process_batch(records)
    monkeypatch.undo()

    matched = [
        [slot for slot in slot_spec if (record.tags[QS_TAG] >> slot) & 1]
        for record in records
    ]
    assert len(calls) == sum(
        len({slot_spec[slot] for slot in slots}) for slots in matched
    )
    assert operator.partial_updates == sum(len(slots) for slots in matched)

    # The lifted-then-merged partials are exactly a per-slot fold.
    expected: Dict[int, Dict[int, object]] = {}
    for record, slots in zip(records, matched):
        for slot in slots:
            per_key = expected.setdefault(slot, {})
            spec = slot_spec[slot]
            acc = per_key.get(record.key, spec.initial())
            per_key[record.key] = spec.add(acc, record.value)
    (slice_,) = list(operator._slices)
    assert slice_.store == expected


# The aggregation snapshot's top-level keys: the materialised shape
# (memory backend, and every migration split part) and the lsm manifest.
MATERIALIZED_KEYS = {
    "slicer", "slices", "changelogs", "specs", "subscribed",
    "session_specs", "session_state",
}
SNAPSHOT_KEYS = {
    "memory": MATERIALIZED_KEYS,
    "lsm": MATERIALIZED_KEYS - {"slices"} | {
        "state_backend", "slices_meta", "created_total", "expired_total",
        "expiry_horizon", "store_checkpoint",
    },
}


def _fold_state(operator: SharedAggregationOperator):
    return (
        operator._spec_masks,
        set(operator._spec_merges),
        operator._session_mask,
        operator._slicer.max_retention_ms,
        operator._slicer._lengths,
    )


def _churned_operator(state_backend: str) -> SharedAggregationOperator:
    """Mixed specs, windows and sessions, with deletes and slot reuse."""
    operator = _operator(state_backend)
    specs = (SUM, MAX, AVG, AggregationSpec(AggregationKind.COUNT))
    windows = (
        WindowSpec.tumbling(1_000),
        WindowSpec.sliding(4_000, 1_000),
        WindowSpec.tumbling(2_000),
        WindowSpec.session(500),
    )
    queries = {
        slot: _query(windows[slot % 4], specs[slot % 3]) for slot in range(24)
    }
    operator.on_marker(_marker(1, 0, created=list(queries.items())))
    rng = random.Random(3)
    operator.process_batch(_records(rng, 30, 24, 100))
    gone = [(slot, queries[slot]) for slot in (1, 5, 6, 7, 13)]
    reused = [(5, _query(WindowSpec.tumbling(3_000), SUM))]
    operator.on_marker(_marker(2, 1_000, created=reused, deleted=gone))
    operator.process_batch(_records(rng, 30, 24, 1_100))
    return operator


@pytest.mark.parametrize("state_backend", ["memory", "lsm"])
def test_fold_state_is_rebuilt_on_restore_and_split(state_backend):
    built = _churned_operator(state_backend)
    masks: Dict[AggregationSpec, int] = {}
    for slot, spec in built._specs.items():
        masks[spec] = masks.get(spec, 0) | 1 << slot
    assert built._spec_masks == masks
    assert built._session_mask == sum(1 << slot for slot in built._session_specs)
    assert built._slicer.max_retention_ms == 4_000
    snapshot = built.snapshot()
    assert set(snapshot) == SNAPSHOT_KEYS[state_backend]
    assert set(snapshot["slicer"].__getstate__()) == {
        "timeline", "_current", "_views", "_cached_bounds",
    }

    for backend in ("memory", "lsm"):
        restored = _operator(backend)
        restored.restore(snapshot)
        assert _fold_state(restored) == _fold_state(built)
        restored.close()
    for part in _split_agg_state([snapshot], 2):
        assert set(part) == MATERIALIZED_KEYS
        split = _operator(state_backend)
        split.restore(part)
        assert _fold_state(split) == _fold_state(built)
        split.close()
    built.close()


def test_slicer_state_from_an_older_checkpoint_rebuilds_the_maximum():
    manager = SliceManager()
    manager.register_query(0, WindowSpec.tumbling(2_000), 0)
    manager.register_query(3, WindowSpec.sliding(5_000, 1_000), 0)
    manager.on_epoch(1, 0)
    # What a checkpoint written before the maximum was maintained holds.
    old_state = {
        name: value
        for name, value in manager.__dict__.items()
        if name in ("timeline", "_current", "_views", "_cached_bounds")
    }
    revived = SliceManager.__new__(SliceManager)
    revived.__setstate__(old_state)
    assert revived.max_retention_ms == 5_000
    revived.unregister_query(3)
    assert revived.max_retention_ms == 2_000
