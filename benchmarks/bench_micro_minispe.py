"""Micro-benchmarks of the substrate's hot paths.

Performance-regression guards for the primitives every experiment sits
on: record allocation, hash routing through a deployed graph, window
assignment, and operator snapshotting.
"""

from repro.minispe.graph import JobGraph, Partitioning
from repro.minispe.operators import FilterOperator, KeyByOperator, MapOperator
from repro.minispe.record import Record, Watermark
from repro.minispe.runtime import JobRuntime
from repro.minispe.sinks import CountingSink
from repro.minispe.window_operators import WindowedAggregateOperator
from repro.minispe.windows import SlidingWindows, TumblingWindows


def bench_record_allocation(benchmark):
    """Create 1k records (the engine's hottest allocation)."""

    def allocate():
        return [
            Record(index, index, index % 7, {"qs": 1}) for index in range(1_000)
        ]

    benchmark(allocate)


def bench_hash_routing_pipeline(benchmark):
    """Push 1k records through source -> map -> filter -> sink (p=4)."""
    sink_holder = []

    def make_sink():
        sink = CountingSink()
        sink_holder.append(sink)
        return sink

    graph = (
        JobGraph()
        .add_source("src")
        .add_operator("map", lambda: MapOperator(lambda v: v + 1), 4)
        .add_operator("filter", lambda: FilterOperator(lambda v: v % 2), 4)
        .add_operator("sink", make_sink, 4)
        .connect("src", "map", Partitioning.HASH)
        .connect("map", "filter", Partitioning.FORWARD)
        .connect("filter", "sink", Partitioning.FORWARD)
    )
    runtime = JobRuntime(graph)
    records = [Record(index, index, index % 16) for index in range(1_000)]

    def push_all():
        for record in records:
            runtime.push("src", record)

    benchmark(push_all)


def bench_hash_routing_pipeline_batched(benchmark):
    """The same 1k-record pipeline pushed as batch_size=64 micro-batches.

    Compare against :func:`bench_hash_routing_pipeline`: the vectorized
    path must move records at least 2x faster (ISSUE acceptance).
    """
    sink_holder = []

    def make_sink():
        sink = CountingSink()
        sink_holder.append(sink)
        return sink

    graph = (
        JobGraph()
        .add_source("src")
        .add_operator("map", lambda: MapOperator(lambda v: v + 1), 4)
        .add_operator("filter", lambda: FilterOperator(lambda v: v % 2), 4)
        .add_operator("sink", make_sink, 4)
        .connect("src", "map", Partitioning.HASH)
        .connect("map", "filter", Partitioning.FORWARD)
        .connect("filter", "sink", Partitioning.FORWARD)
    )
    runtime = JobRuntime(graph)
    records = [Record(index, index, index % 16) for index in range(1_000)]

    def push_all():
        runtime.push_many("src", records, batch_size=64)

    benchmark(push_all)


def _stateless_chain_graph() -> JobGraph:
    """source -> map -> filter -> map -> key_by -> sink, all FORWARD
    until the keyed shuffle."""
    return (
        JobGraph()
        .add_source("src")
        .add_operator("map1", lambda: MapOperator(lambda v: v + 1, "map1"))
        .add_operator("filter1", lambda: FilterOperator(lambda v: v % 3, "filter1"))
        .add_operator("map2", lambda: MapOperator(lambda v: v * 2, "map2"))
        .add_operator("key_by", lambda: KeyByOperator(lambda v: v & 7, "key_by"))
        .add_operator("sink", CountingSink)
        .connect("src", "map1")
        .connect("map1", "filter1")
        .connect("filter1", "map2")
        .connect("map2", "key_by")
        .connect("key_by", "sink", Partitioning.HASH)
    )


def bench_stateless_chain(benchmark):
    """1k records through the map->filter->map->key_by chain, each
    operator its own runtime stage fed whole batches."""
    runtime = JobRuntime(_stateless_chain_graph())
    records = [Record(index, index, index % 16) for index in range(1_000)]
    benchmark(lambda: runtime.push_many("src", records, batch_size=64))


def bench_sliding_window_assignment(benchmark):
    """Assign 1k timestamps to overlapping sliding windows."""
    assigner = SlidingWindows(5_000, 1_000)

    def assign_all():
        total = 0
        for ts in range(0, 100_000, 100):
            total += len(assigner.assign(ts))
        return total

    benchmark(assign_all)


def bench_window_aggregate_fold_and_fire(benchmark):
    """Fold 1k records into tumbling windows and fire them."""

    def run():
        operator = WindowedAggregateOperator(
            TumblingWindows(1_000),
            init=lambda: 0,
            add=lambda acc, value: acc + value,
            merge=lambda a, b: a + b,
        )
        operator.set_collector(lambda element: None)
        for index in range(1_000):
            operator.process(Record(index * 10, 1, index % 8))
        operator.on_watermark(Watermark(timestamp=100_000))
        return operator.pending_windows()

    benchmark(run)


def bench_operator_snapshot(benchmark):
    """Snapshot a window operator holding 1k accumulators."""
    operator = WindowedAggregateOperator(
        TumblingWindows(1_000),
        init=lambda: 0,
        add=lambda acc, value: acc + value,
        merge=lambda a, b: a + b,
    )
    operator.set_collector(lambda element: None)
    for index in range(1_000):
        operator.process(Record(index * 997, 1, index))

    benchmark(operator.snapshot)
