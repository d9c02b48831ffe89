"""Tests for the micro-batch data path (RecordBatch end to end).

The invariant under test everywhere: batching is an *encoding* of the
same element sequence, so any observable behaviour — per-channel record
order, watermark/marker alignment, operator outputs, fault-hook firings
— must be identical to pushing the records one by one.
"""

from typing import List

import pytest

from repro.minispe.graph import JobGraph, Partitioning
from repro.minispe.operators import (
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    Operator,
)
from repro.minispe.record import Record, RecordBatch, Watermark, is_data
from repro.minispe.runtime import JobRuntime, stable_hash
from repro.minispe.sinks import CollectSink, CountingSink
from repro.minispe.sources import batched


def _records(count: int, key_mod: int = 3) -> List[Record]:
    return [
        Record(timestamp=i * 10, value=i, key=i % key_mod)
        for i in range(count)
    ]


class _BatchProbe(Operator):
    """Observes the batches data arrives in."""

    def __init__(self):
        super().__init__("batch_probe")
        self.batches: List[List[Record]] = []
        self.received: List[Record] = []
        """All records in arrival order, however they were delivered."""
        self.watermarks: List[int] = []

    def process_batch(self, records):
        self.batches.append(list(records))
        self.received.extend(records)

    def on_watermark(self, watermark):
        self.watermarks.append(watermark.timestamp)


def _probe_runtime(parallelism: int = 1, partitioning=Partitioning.HASH):
    probes: List[_BatchProbe] = []

    def make_probe():
        probe = _BatchProbe()
        probes.append(probe)
        return probe

    graph = (
        JobGraph()
        .add_source("src")
        .add_operator("probe", make_probe, parallelism=parallelism)
        .connect("src", "probe", partitioning)
    )
    return JobRuntime(graph), probes


class TestRecordBatch:
    def test_basics(self):
        records = _records(3)
        batch = RecordBatch(records)
        assert len(batch) == 3
        assert list(batch) == records
        assert batch.timestamp == records[0].timestamp
        assert batch == RecordBatch(list(records))
        assert batch != RecordBatch(records[:2])
        assert is_data(batch)

    def test_empty_batch_timestamp(self):
        assert RecordBatch([]).timestamp == -1


class TestPushMany:
    def test_groups_records_into_batches(self):
        runtime, probes = _probe_runtime()
        count = runtime.push_many("src", _records(10), batch_size=4)
        assert count == 10
        assert [len(b) for b in probes[0].batches] == [4, 4, 2]

    def test_control_elements_flush_pending_batch(self):
        runtime, probes = _probe_runtime()
        records = _records(5)
        elements = records[:3] + [Watermark(timestamp=100)] + records[3:]
        runtime.push_many("src", elements, batch_size=10)
        probe = probes[0]
        # The watermark split the run of records exactly where it stood.
        assert [len(b) for b in probe.batches] == [3, 2]
        assert probe.watermarks == [100]
        flat = [r for b in probe.batches for r in b]
        assert flat == records

    def test_flattens_incoming_record_batches(self):
        runtime, probes = _probe_runtime()
        records = _records(6)
        runtime.push_many(
            "src",
            [RecordBatch(records[:4]), RecordBatch(records[4:])],
            batch_size=3,
        )
        flat = [r for b in probes[0].batches for r in b]
        assert flat == records
        assert all(len(b) <= 4 for b in probes[0].batches)

    def test_rejects_non_source_and_bad_batch_size(self):
        runtime, _ = _probe_runtime()
        with pytest.raises(KeyError):
            runtime.push_many("probe", _records(1))
        with pytest.raises(ValueError):
            runtime.push_many("src", _records(1), batch_size=0)


class TestBatchPartitioning:
    @pytest.mark.parametrize(
        "partitioning",
        [Partitioning.HASH, Partitioning.REBALANCE, Partitioning.BROADCAST],
    )
    def test_same_per_instance_sequences_as_per_record_path(
        self, partitioning
    ):
        records = _records(40, key_mod=7)

        runtime_a, probes_a = _probe_runtime(4, partitioning)
        for record in records:
            runtime_a.push("src", record)

        runtime_b, probes_b = _probe_runtime(4, partitioning)
        runtime_b.push_many("src", records, batch_size=8)

        for one_by_one, as_batches in zip(probes_a, probes_b):
            # Per-channel record order is the guarantee: each instance
            # sees exactly the records, in exactly the order, of the
            # per-record run — regardless of sub-batch boundaries.
            assert as_batches.received == one_by_one.received

    def test_rebalance_counter_continues_across_batches(self):
        records = _records(6, key_mod=2)
        runtime, probes = _probe_runtime(2, Partitioning.REBALANCE)
        runtime.push_many("src", records[:3], batch_size=10)
        runtime.push_many("src", records[3:], batch_size=10)
        assert [len(probe.received) for probe in probes] == [3, 3]

    def test_hash_batch_respects_stable_hash(self):
        records = _records(20, key_mod=5)
        runtime, probes = _probe_runtime(4, Partitioning.HASH)
        runtime.push_many("src", records, batch_size=20)
        for index, probe in enumerate(probes):
            for record in probe.received:
                assert stable_hash(record.key) % 4 == index


class TestVectorizedOperators:
    def _pipeline(self, make_operator):
        sink = CollectSink()
        graph = (
            JobGraph()
            .add_source("src")
            .add_operator("op", make_operator)
            .add_operator("sink", lambda: sink)
            .connect("src", "op", Partitioning.FORWARD)
            .connect("op", "sink", Partitioning.FORWARD)
        )
        return JobRuntime(graph), sink

    @pytest.mark.parametrize(
        "make_operator",
        [
            lambda: MapOperator(lambda v: v * 2),
            lambda: FilterOperator(lambda v: v % 3 == 0),
            lambda: KeyByOperator(lambda v: v % 2),
            lambda: FlatMapOperator(lambda v: [v, -v] if v % 2 else []),
        ],
        ids=["map", "filter", "key_by", "flat_map"],
    )
    def test_batch_output_equals_per_record_output(self, make_operator):
        records = _records(30)

        runtime_a, sink_a = self._pipeline(make_operator)
        for record in records:
            runtime_a.push("src", record)

        runtime_b, sink_b = self._pipeline(make_operator)
        runtime_b.push_many("src", records, batch_size=7)

        assert sink_b.collected == sink_a.collected

    def test_counting_sink_counts_batches(self):
        sink = CountingSink()
        graph = (
            JobGraph()
            .add_source("src")
            .add_operator("sink", lambda: sink)
            .connect("src", "sink", Partitioning.FORWARD)
        )
        JobRuntime(graph).push_many("src", _records(11), batch_size=4)
        assert sink.count == 11


class TestFaultHooksInsideBatches:
    def test_channel_hook_fires_per_record(self):
        records = _records(6)
        runtime, probes = _probe_runtime()
        seen: List[int] = []

        def channel_hook(edge, from_index, record):
            seen.append(record.value)
            if record.value == 1:
                return 0  # drop
            if record.value == 4:
                return 2  # duplicate
            return 1

        runtime.set_fault_hooks(channel_hook=channel_hook)
        runtime.push_many("src", records, batch_size=6)
        assert seen == [0, 1, 2, 3, 4, 5]
        assert [r.value for r in probes[0].received] == [0, 2, 3, 4, 4, 5]

    def test_deliver_hook_degrades_batch_to_per_record(self):
        records = _records(5)
        runtime, probes = _probe_runtime()

        class Boom(RuntimeError):
            pass

        def deliver_hook(vertex, index, record):
            if record.value == 3:
                raise Boom()

        runtime.set_fault_hooks(deliver_hook=deliver_hook)
        with pytest.raises(Boom):
            runtime.push_many("src", records, batch_size=5)
        # The hook fired per record: everything before the faulted record
        # was processed one at a time (as batches of one), nothing after
        # it was.
        assert [[r.value for r in b] for b in probes[0].batches] == [[0], [1], [2]]


class TestBatchedHelper:
    def test_groups_and_flushes_on_controls(self):
        records = _records(5)
        elements = records[:3] + [Watermark(timestamp=40)] + records[3:]
        out = list(batched(elements, batch_size=2))
        assert [type(e).__name__ for e in out] == [
            "RecordBatch", "RecordBatch", "Watermark", "RecordBatch",
        ]
        assert [len(e) for e in out if isinstance(e, RecordBatch)] == [2, 1, 2]
        flat = [
            r for e in out if isinstance(e, RecordBatch) for r in e.records
        ]
        assert flat == records

    def test_flattens_and_regroups_batches(self):
        records = _records(7)
        out = list(batched([RecordBatch(records)], batch_size=3))
        assert [len(e) for e in out] == [3, 3, 1]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batched([], batch_size=0))
