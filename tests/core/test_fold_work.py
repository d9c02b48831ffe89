"""Work counts of the shared aggregation's per-record fold, with no clock.

A record whose matched queries are single-field intervals must cost one
row update per (aggregate, field) segment group it hits; every other
member costs one lift per distinct aggregate plus one accumulator update
per matched slot; nothing in the fold may scan the query population.
These tests count the work directly:

* the late horizon reads no ``WindowedQuery`` per record;
* ``AggregationSpec.add`` runs once per (record, distinct spec matched),
  and the lifted-then-merged partials equal a per-slot fold;
* 1,000 single-field queries cost at most one update and one lift per
  group hit, and every member's partials equal a per-slot fold;
* conjunctions, ``TRUE`` members and query-sets that are no layout mask
  keep the per-slot fold, exactly;
* int and float samples mixed in one slice match a per-slot fold by
  ``repr`` (a row is demoted at its first non-int sample), also after
  restoring a checkpoint that holds member partials per slot;
* a late record into an epoch with no live slice replays only the
  changelogs inside the retention horizon;
* the derived fold state (per-spec slot masks, the session mask, the
  window-length multiset, the segment layouts) is rebuilt on restore
  and stays out of the snapshot; the snapshot carries exactly the
  listed keys, so nothing extra rides a checkpoint unnoticed.
"""

import random

import pytest
from typing import Dict, List

from repro.core.changelog import Changelog, QueryActivation, QueryDeactivation
from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    Comparison,
    FieldPredicate,
    Predicate,
    TruePredicate,
    WindowSpec,
)
from repro.core.selection import QS_TAG
from repro.core.shared_aggregation import SharedAggregationOperator
from repro.core.sql import ConjunctionPredicate
from repro.core.slicing import SliceManager, WindowedQuery
from repro.minispe.record import ChangelogMarker, Record, Watermark
from tests.conftest import flat_collector, make_tuple

SUM = AggregationSpec(AggregationKind.SUM, 0)
MAX = AggregationSpec(AggregationKind.MAX, 1)
AVG = AggregationSpec(AggregationKind.AVG, 2)


def _query(
    window: WindowSpec, spec: AggregationSpec, predicate: Predicate = TruePredicate()
) -> AggregationQuery:
    return AggregationQuery(
        stream="A", predicate=predicate, window_spec=window, aggregation=spec
    )


def _marker(sequence, at_ms, created=(), deleted=(), width=0) -> ChangelogMarker:
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
            width_after=width,
        ),
    )


def _operator(**kwargs) -> SharedAggregationOperator:
    operator = SharedAggregationOperator("agg:A", **kwargs)
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


def _between(field: int, low: int, high: int) -> Predicate:
    return ConjunctionPredicate(
        (
            FieldPredicate(field, Comparison.GE, low),
            FieldPredicate(field, Comparison.LE, high),
        )
    )


def _tag(queries: Dict[int, AggregationQuery], value) -> int:
    """The query-set the shared selection would attach to ``value``."""
    return sum(
        1 << slot
        for slot, query in queries.items()
        if query.predicate.evaluate(value)
    )


def _tagged(
    rng: random.Random, count: int, queries: Dict[int, AggregationQuery], ts: int
) -> List[Record]:
    records = []
    for index in range(count):
        value = make_tuple(index % 4, [rng.randrange(100) for _ in range(5)])
        records.append(Record(ts + index, value, index % 4, {QS_TAG: _tag(queries, value)}))
    return records


def _per_slot_fold(
    queries: Dict[int, AggregationQuery], records: List[Record]
) -> Dict[int, Dict[object, object]]:
    """The per-slot fold: every matched slot merges the record's lift
    into its own accumulator."""
    partials: Dict[int, Dict[object, object]] = {}
    for record in records:
        for slot, query in queries.items():
            if not (record.tags[QS_TAG] >> slot) & 1:
                continue
            spec = query.aggregation
            delta = spec.add(spec.initial(), record.value)
            per_key = partials.setdefault(slot, {})
            acc = per_key.get(record.key)
            per_key[record.key] = delta if acc is None else spec.merge(acc, delta)
    return partials


def _per_slot_oracle(
    queries: Dict[int, AggregationQuery], records: List[Record]
) -> Dict[int, Dict[object, str]]:
    """:func:`_per_slot_fold`, ``repr`` per accumulator."""
    return {
        slot: {key: repr(acc) for key, acc in per_key.items()}
        for slot, per_key in _per_slot_fold(queries, records).items()
    }


def _partials(operator: SharedAggregationOperator, slice_) -> Dict[int, Dict[object, str]]:
    """One slice's partials as a per-slot fold holds them: the per-slot
    maps plus each member's covered range read off its group's rows.  A
    (slot, key) must live in exactly one of the two."""
    partials: Dict[int, Dict[object, str]] = {}
    for slot, per_key in slice_.store.items():
        if slot >= 0 and per_key:
            partials[slot] = {key: repr(acc) for key, acc in per_key.items()}
    layout = operator._layouts[slice_.epoch]
    for index, group in enumerate(layout.groups):
        for key, row in (slice_.store.get(-1 - index) or {}).items():
            if not row:
                continue  # demoted: its members hold per-slot partials
            for slot, (a, b) in group.ranges.items():
                acc = group.read(row, a, b)
                if acc is not None:
                    per_key = partials.setdefault(slot, {})
                    assert key not in per_key, (slot, key)
                    per_key[key] = repr(acc)
    return partials


def test_segment_fold_costs_one_update_per_group_hit(monkeypatch):
    rng = random.Random(5)
    ops = (Comparison.LT, Comparison.LE, Comparison.GT, Comparison.GE)
    queries = {}
    for slot in range(1_000):
        field = slot % 5
        low = rng.randrange(100)
        predicate = (
            _between(field, low, low + rng.randrange(1, 40))
            if slot % 3 == 0
            else FieldPredicate(field, rng.choice(ops), low)
        )
        queries[slot] = _query(WindowSpec.tumbling(10_000), SUM, predicate)
    operator = _operator()
    operator.on_marker(_marker(1, 0, created=list(queries.items())))
    records = _tagged(rng, 60, queries, 100)

    calls = []
    original_add = AggregationSpec.add

    def counting_add(spec, acc, value):
        calls.append(spec)
        return original_add(spec, acc, value)

    monkeypatch.setattr(AggregationSpec, "add", counting_add)
    matched = 0
    for record in records:
        qs = record.tags[QS_TAG]
        groups_hit = len({slot % 5 for slot in queries if (qs >> slot) & 1})
        updates, lifts = operator.partial_updates, len(calls)
        operator.process_batch([record])
        assert operator.partial_updates - updates <= groups_hit
        assert len(calls) - lifts <= groups_hit
        matched += qs.bit_count()
    monkeypatch.undo()
    # Against about 440 matched slots per record for a per-slot fold.
    assert matched > 100 * len(records)
    assert operator.partial_updates <= 5 * len(records)

    (slice_,) = list(operator._slices)
    assert all(slot < 0 for slot, _ in slice_.store.items())
    assert _partials(operator, slice_) == _per_slot_oracle(queries, records)


def test_other_members_keep_the_per_slot_fold():
    rng = random.Random(8)
    window = WindowSpec.tumbling(10_000)
    queries = {
        slot: _query(window, SUM, _between(slot % 2, 5 * slot, 5 * slot + 60))
        for slot in range(8)
    }
    conjunction = ConjunctionPredicate(
        (FieldPredicate(0, Comparison.GE, 20), FieldPredicate(1, Comparison.LT, 70))
    )
    queries[8] = _query(window, SUM, conjunction)
    queries[9] = _query(window, SUM)
    # Narrow, disjoint members: 15 cells per matched member, too sparse
    # for rows.
    for slot in range(10, 18):
        queries[slot] = _query(window, SUM, _between(2, 12 * (slot - 10), 12 * (slot - 10) + 3))
    operator = _operator()
    operator.on_marker(_marker(1, 0, created=list(queries.items())))
    records = _tagged(rng, 40, queries, 100)
    # A query-set no selection would attach: two disjoint members of the
    # field-0 group together, for key 9 only.
    forged = Record(170, make_tuple(9, [1] * 5), 9, {QS_TAG: 1 << 0 | 1 << 6})
    records.insert(3, forged)
    records.append(Record(180, make_tuple(9, [2] * 5), 9, {QS_TAG: 1 << 2}))
    operator.process_batch(records)

    (slice_,) = list(operator._slices)
    partials = _partials(operator, slice_)
    assert partials == _per_slot_oracle(queries, records)
    store = slice_.store
    # The conjunction, TRUE and sparse members fold per slot, as before.
    assert len(operator._layouts[1].groups) == 2
    for slot in [8, 9] + [slot for slot in range(10, 18) if slot in partials]:
        assert {key: repr(acc) for key, acc in store[slot].items()} == partials[slot]
    assert any(slot in partials for slot in range(10, 18))
    # The forged record demoted key 9's field-0 row: every field-0
    # member holding key 9 holds it per slot, the other keys stay rows.
    field0 = operator._layouts[1].slot_group[0][0]
    assert store[field0][9] == ()
    assert all(row for key, row in store[field0].items() if key != 9)
    for slot in (0, 2, 6):
        assert repr(store[slot][9]) == partials[slot][9]


def test_mixed_int_and_float_samples_match_a_per_slot_fold():
    kinds = (
        AggregationKind.SUM, AggregationKind.AVG, AggregationKind.MIN,
        AggregationKind.MAX, AggregationKind.COUNT,
    )
    queries = {}
    for slot in range(20):
        spec = AggregationSpec(kinds[slot % 5], 0)
        low = 10 * (slot // 5)
        predicate = (
            _between(1, low, low + 45)
            if slot % 2
            else FieldPredicate(1, Comparison.GE, low)
        )
        queries[slot] = _query(WindowSpec.tumbling(10_000), spec, predicate)
    operator = _operator()
    operator.on_marker(_marker(1, 0, created=list(queries.items()), width=20))
    samples = {
        0: [3, 2**53 + 1, 0.5, -4, 7],
        1: [-0.0, 0, 5, -0.0],
        2: [2**53 + 1, 0.5, 1, 2.25],
        3: [11, -2, 2**60, 9],  # stays int: a row to the end
        4: [0, -0.0, 0.0, -1],
    }
    rng = random.Random(2)
    records = []
    for index in range(60):
        key = index % 5
        sample = samples[key][(index // 5) % len(samples[key])]
        value = make_tuple(key, [sample, rng.randrange(100), 0, 0, 0])
        records.append(Record(100 + index, value, key, {QS_TAG: _tag(queries, value)}))
    operator.process_batch(records[:30])
    operator.process_batch(records[30:])

    (slice_,) = list(operator._slices)
    assert _partials(operator, slice_) == _per_slot_oracle(queries, records)
    # Key 3 folded int samples only, so its rows kept segment form; a
    # COUNT lifts every record to 1, so its rows never demote.
    assert len(operator._layouts[1].groups) == len(kinds)
    for index, group in enumerate(operator._layouts[1].groups):
        kept = {key for key, row in slice_.store.get(-1 - index).items() if row}
        assert kept == ({0, 1, 2, 3, 4} if group.spec.kind is AggregationKind.COUNT else {3})

    _assert_fires_as_a_per_slot_fold(operator, queries, records)


def _assert_fires_as_a_per_slot_fold(operator, queries, records) -> None:
    """Fire everything: each result equals a per-slot fold's, by ``repr``."""
    out: List = []
    operator.set_collector(flat_collector(out))
    operator.on_watermark(Watermark(20_000))
    fired: Dict[int, Dict[object, str]] = {}
    for record in out:
        if isinstance(record, Record):
            (slot,) = [s for s in queries if (record.tags[QS_TAG] >> s) & 1]
            fired.setdefault(slot, {})[record.key] = repr(record.value.value)
    expected = {
        slot: {
            key: repr(queries[slot].aggregation.finish(acc))
            for key, acc in per_key.items()
        }
        for slot, per_key in _per_slot_fold(queries, records).items()
    }
    assert fired == expected


def test_member_partials_restored_per_slot_keep_the_per_slot_fold():
    """A checkpoint taken before segment rows existed holds every
    member's partials per slot.  Restored, those (member, key)s stay on
    the per-slot fold, so int and then float records folded after the
    restore match a per-slot fold over all records by ``repr``."""
    kinds = (
        AggregationKind.SUM, AggregationKind.AVG, AggregationKind.MIN,
        AggregationKind.MAX, AggregationKind.COUNT,
    )
    queries = {
        slot: _query(
            WindowSpec.tumbling(10_000),
            AggregationSpec(kinds[slot % 5], 0),
            _between(1, 10 * (slot // 5), 10 * (slot // 5) + 45),
        )
        for slot in range(15)
    }

    def record(ts, key, sample, field1):
        value = make_tuple(key, [sample, field1, 0, 0, 0])
        return Record(ts, value, key, {QS_TAG: _tag(queries, value)})

    before = [record(100 + i, i % 2, (0.5, 2**53 + 1, 3)[i % 3], 7 * i % 70) for i in range(12)]
    after = [
        record(200, 0, 4, 30), record(201, 0, 0.25, 30),  # an int, then a float
        record(202, 1, 2**53 + 1, 12), record(203, 1, -0.0, 50),
        record(204, 2, 6, 40), record(205, 3, 1.5, 20),  # keys new since the restore
    ]
    donor = _operator()
    donor.on_marker(_marker(1, 0, created=list(queries.items()), width=15))
    donor.process_batch(before)
    older = donor.snapshot()
    (slice_,) = list(older["slices"])
    slice_.store = _per_slot_fold(queries, before)  # what a per-slot fold checkpointed

    operator = _operator()
    operator.restore(older)
    operator.process_batch(after)
    (slice_,) = list(operator._slices)
    assert _partials(operator, slice_) == _per_slot_oracle(queries, before + after)
    # Keys 0 and 1 stay per slot; key 2 is new and int-only, so it forms rows.
    rows = slice_.store.get(-1)
    assert rows.get(0) == () and rows.get(1) == () and rows.get(2)
    _assert_fires_as_a_per_slot_fold(operator, queries, before + after)


def _sample(rng: random.Random, key: int):
    """Keys 0 and 1 fold ints only; the others mix in floats."""
    if key < 2 or rng.random() < 0.7:
        return rng.randrange(-5, 50)
    return rng.choice((0.5, -0.0, 2**53 + 1, 1.25, 2**60))


@pytest.mark.parametrize("seed", range(4))
def test_slice_run_fold_matches_a_per_slot_fold_across_slices_and_epochs(seed):
    """Batches whose runs cover several slices of two epochs, folded as
    one batch each: rows in segment form, rows demoted by a float sample,
    prefix-form rows patched by late records, per-slot members, sessions
    and a late drop.  Every live slice's partials equal the per-slot fold
    of the records that landed in it, and the stores, counters and fired
    windows equal those of the same records as one-record batches."""
    rng = random.Random(seed)
    kinds = (
        AggregationKind.SUM, AggregationKind.AVG, AggregationKind.MIN,
        AggregationKind.MAX, AggregationKind.COUNT,
    )
    windows = (
        WindowSpec.tumbling(1_000),
        WindowSpec.sliding(2_000, 500),
        WindowSpec.tumbling(1_000),
        WindowSpec.session(300),
    )
    first = {
        slot: _query(
            windows[slot % 4],
            AggregationSpec(kinds[slot % 5], 0),
            _churn_predicate(slot),
        )
        for slot in range(24)
    }
    deleted = {3, 6, 13}
    later = {slot: query for slot, query in first.items() if slot not in deleted}
    for slot in range(24, 28):
        later[slot] = _query(
            WindowSpec.tumbling(1_000),
            AggregationSpec(kinds[slot % 5], 0),
            FieldPredicate(slot % 2, Comparison.GE, 10 * (slot - 24)),
        )

    def tagged(queries, timestamps) -> List[Record]:
        records = []
        for ts in timestamps:
            key = rng.randrange(6)
            value = make_tuple(key, [_sample(rng, key)] + [rng.randrange(100) for _ in range(4)])
            records.append(Record(ts, value, key, {QS_TAG: _tag(queries, value)}))
        return records

    early = tagged(first, sorted(rng.randrange(0, 2_400) for _ in range(120)))
    late = tagged(first, sorted(rng.randrange(100, 2_400) for _ in range(30)))
    fresh = tagged(later, sorted(rng.randrange(2_500, 4_000) for _ in range(90)))
    mixed = sorted(late + fresh, key=lambda record: rng.random())
    marker_two = _marker(
        2, 2_500,
        created=[(slot, later[slot]) for slot in range(24, 28)],
        deleted=[(slot, first[slot]) for slot in sorted(deleted)],
        width=28,
    )
    steps = [
        _marker(1, 0, created=list(first.items()), width=24),
        early,
        Watermark(2_200),  # fires [0, 1000), [1000, 2000) and [0, 2000)
        marker_two,
        mixed,
    ]

    def run(one_at_a_time: bool):
        operator = _operator()
        fired: List = []
        operator.set_collector(flat_collector(fired))
        for step in steps:
            if isinstance(step, ChangelogMarker):
                operator.on_marker(step)
            elif isinstance(step, Watermark):
                operator.on_watermark(step)
            elif one_at_a_time:
                for record in step:
                    operator.process_batch([record])
            else:
                operator.process_batch(step)
        return operator, fired

    operator, fired = run(one_at_a_time=False)
    twin, twin_fired = run(one_at_a_time=True)
    counters = ("partial_updates", "bitset_ops", "late_records_dropped", "results_emitted")
    assert [getattr(operator, name) for name in counters] == [
        getattr(twin, name) for name in counters
    ]
    assert [(s.start, s.end, s.epoch, repr(s.store)) for s in operator._slices] == [
        (s.start, s.end, s.epoch, repr(s.store)) for s in twin._slices
    ]
    assert repr(operator._session_state) == repr(twin._session_state)
    assert repr(fired) == repr(twin_fired)

    # Per slice, the live time-window members hold a per-slot fold of
    # the records that landed there (none at or before the horizon).
    horizon = 2_200 - 2_000
    time_slots = operator._subscribed & ~operator._session_mask
    dropped = [
        record for record in mixed
        if record.timestamp <= horizon and record.tags[QS_TAG] & time_slots
    ]
    assert operator.late_records_dropped == len(dropped)
    landed = early + [record for record in mixed if all(record is not d for d in dropped)]
    live = {
        slot: query for slot, query in later.items()
        if slot not in operator._session_specs
    }
    rows = prefix = demoted = 0
    for slice_ in operator._slices:
        inside = [r for r in landed if slice_.start <= r.timestamp < slice_.end]
        partials = _partials(operator, slice_)
        assert {
            slot: per_key for slot, per_key in partials.items() if slot in live
        } == _per_slot_oracle(live, inside)
        for slot, per_key in (slice_.store or {}).items():
            if slot < 0:
                rows += sum(1 for row in per_key.values() if row)
                prefix += sum(1 for row in per_key.values() if row and row[-1])
                demoted += sum(1 for row in per_key.values() if not row)
    assert rows and prefix and demoted


def test_a_late_record_replays_no_changelog_behind_the_horizon():
    """A late record into an epoch no live slice holds compiles its
    layout from member sets kept at the retention horizon: each
    changelog is replayed into them once, and a late record then replays
    only the changelogs inside the horizon, not the deploy history."""
    window = WindowSpec.tumbling(1_000)
    rng = random.Random(4)
    queries = {
        slot: _query(window, SUM, _between(slot % 2, 10 * slot, 10 * slot + 40))
        for slot in range(8)
    }
    operator = _operator()
    operator.on_marker(_marker(1, 0, created=list(queries.items()), width=8))
    history = {1: dict(queries)}
    replays = []
    table = operator._changelogs
    original = table.changelog_starting

    def counting(epoch):
        replays.append(epoch)
        return original(epoch)

    table.changelog_starting = counting
    late_replays = late_records = 0
    for sequence in range(2, 201):
        at_ms = 100 * sequence
        slot = sequence % 8
        gone = [(slot, queries[slot])]
        predicate = FieldPredicate(slot % 2, Comparison.LT, rng.randrange(100))
        queries[slot] = _query(window, SUM, predicate)
        operator.on_marker(
            _marker(sequence, at_ms, created=[(slot, queries[slot])], deleted=gone, width=8)
        )
        history[sequence] = dict(queries)
        if sequence % 2 == 0:  # odd epochs get no record in time
            operator.process_batch(_tagged(rng, 4, queries, at_ms + 10))
        operator.on_watermark(Watermark(at_ms + 50))
        if sequence % 20 == 0:
            epoch = sequence - 5  # odd, inside the 1 s lateness
            value = make_tuple(1, [rng.randrange(100) for _ in range(5)])
            late = Record(100 * epoch + 30, value, 1, {QS_TAG: _tag(history[epoch], value)})
            del replays[:]
            operator.process_batch([late])
            late_replays += len(replays)
            late_records += 1
            (slice_,) = [s for s in operator._slices if s.epoch == epoch]
            assert _partials(operator, slice_) == _per_slot_oracle(history[epoch], [late])
    # Replaying from sequence 1 each time would cost about 1,100.
    assert late_replays <= 200 + late_records * 12


# The aggregation snapshot's top-level keys.
SNAPSHOT_KEYS = {
    "slicer", "slices", "changelogs", "specs", "subscribed",
    "session_specs", "session_state",
}


def _layouts(operator: SharedAggregationOperator):
    """epoch -> the shape of each segment group, in pseudo-slot order."""
    return {
        epoch: [
            (group.spec, group.members, group.segment_of, group.ranges)
            for group in layout.groups
        ]
        for epoch, layout in operator._layouts.items()
    }


def _fold_state(operator: SharedAggregationOperator):
    return (
        operator._spec_masks,
        set(operator._spec_merges),
        operator._session_mask,
        operator._slicer.max_retention_ms,
        operator._slicer._lengths,
    )


def _churn_predicate(slot: int) -> Predicate:
    """Segment members on two fields, a conjunction and ``TRUE``."""
    field = slot % 2
    return (
        FieldPredicate(field, Comparison.LT, 30 + 7 * slot),
        _between(field, 5 * slot, 5 * slot + 40),
        FieldPredicate(field, Comparison.GE, 3 * slot),
        ConjunctionPredicate(
            (FieldPredicate(0, Comparison.GE, 20), FieldPredicate(1, Comparison.LT, 70))
        ),
        TruePredicate(),
    )[slot % 5]


def _churned_operator() -> SharedAggregationOperator:
    """Mixed specs, windows, predicates and sessions, with deletes and
    slot reuse, tagged by the predicates (so segment rows form)."""
    operator = _operator()
    specs = (SUM, MAX, AVG, AggregationSpec(AggregationKind.COUNT))
    windows = (
        WindowSpec.tumbling(1_000),
        WindowSpec.sliding(4_000, 1_000),
        WindowSpec.tumbling(2_000),
        WindowSpec.session(500),
    )
    queries = {
        slot: _query(windows[slot % 4], specs[slot % 3], _churn_predicate(slot))
        for slot in range(24)
    }
    operator.on_marker(_marker(1, 0, created=list(queries.items())))
    rng = random.Random(3)
    operator.process_batch(_tagged(rng, 30, queries, 100))
    gone = [(slot, queries.pop(slot)) for slot in (1, 5, 6, 7, 13)]
    queries[5] = _query(
        WindowSpec.tumbling(3_000), SUM, FieldPredicate(0, Comparison.GT, 50)
    )
    operator.on_marker(_marker(2, 1_000, created=[(5, queries[5])], deleted=gone))
    operator.process_batch(_tagged(rng, 30, queries, 1_100))
    return operator


def test_fold_state_is_rebuilt_on_restore():
    built = _churned_operator()
    masks: Dict[AggregationSpec, int] = {}
    for slot, spec in built._specs.items():
        masks[spec] = masks.get(spec, 0) | 1 << slot
    assert built._spec_masks == masks
    assert built._session_mask == sum(1 << slot for slot in built._session_specs)
    assert built._slicer.max_retention_ms == 4_000
    snapshot = built.snapshot()
    assert set(snapshot) == SNAPSHOT_KEYS
    assert set(snapshot["slicer"].__getstate__()) == {
        "timeline", "_current", "_views", "_cached_bounds",
    }

    # Both epochs' layouts hold groups, and rows were folded into them.
    assert sorted(built._layouts) == [1, 2]
    assert all(layout.groups for layout in built._layouts.values())
    assert any(slot < 0 for slice_ in built._slices for slot, _ in slice_.store.items())

    restored = _operator()
    restored.restore(snapshot)
    assert _fold_state(restored) == _fold_state(built)
    assert _layouts(restored) == _layouts(built)


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
