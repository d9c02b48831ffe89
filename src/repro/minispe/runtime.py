"""Deterministic push-based job runtime with simulated parallelism.

The runtime deploys a :class:`~repro.minispe.graph.JobGraph`: every
operator vertex becomes ``parallelism`` live operator instances, each with
private state, connected by in-process channels.  Execution is synchronous
and depth-first — pushing one element into a source drives it (and
everything it triggers) all the way to the sinks before ``push`` returns —
which makes runs bit-for-bit deterministic and easy to test.

Distributed-systems behaviour that matters for correctness is modelled
faithfully:

* **Hash partitioning** routes records to instances by a stable hash of
  the record key, so per-key state is always on one instance.
* **Watermark alignment**: an instance only advances its event-time clock
  to the *minimum* watermark over all its input channels (exactly Flink's
  rule), which is what makes out-of-order processing and binary joins
  correct.
* **Marker/barrier alignment**: changelog markers and checkpoint barriers
  are broadcast on every edge and delivered to the wrapped operator only
  once all input channels have seen them, so every shared operator
  observes a query changelog at one consistent stream position (§2.1.2)
  and checkpoints are consistent cuts (§3.3).

The data path is **batched**: a :class:`~repro.minispe.record.RecordBatch`
is the only data element on an edge.  A lone record entering at
:meth:`JobRuntime.push` (or emitted by a per-record operator) is wrapped
into a batch of one; the runtime partitions a whole batch into
per-target sub-batches in one pass and delivers each with a single
operator dispatch.  Control elements are batch flush points, so any
batching of the same element sequence has identical
event-time/marker/barrier semantics; only the cross-channel interleave of
data records may differ (the same non-guarantee real SPE network
channels have).
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.minispe.graph import Edge, JobGraph, Partitioning, Vertex
from repro.minispe.operators import Operator, OperatorContext, TwoInputOperator
from repro.minispe.record import (
    ChangelogMarker,
    CheckpointBarrier,
    Record,
    RecordBatch,
    StreamElement,
    Watermark,
)


def stable_hash(key: Any) -> int:
    """A hash that is stable across processes (unlike ``hash(str)``)."""
    if isinstance(key, int):
        return key
    return zlib.crc32(repr(key).encode("utf-8"))


ChannelId = Tuple[int, int]
"""(edge index in the graph, upstream instance index)."""


class ExecutionBackend:
    """The executor interface behind an engine's data path.

    :class:`JobRuntime` is the default, in-process implementation;
    :class:`repro.minispe.parallel.ShardedRuntime` executes the same
    element stream across worker processes.  Engines talk only to this
    surface, so the execution strategy is pluggable without touching the
    operator or engine layers.
    """

    def push(self, source_name: str, element: StreamElement) -> None:
        """Inject an element into a source and run it to completion."""
        raise NotImplementedError

    def push_many(
        self,
        source_name: str,
        elements,
        batch_size: Optional[int] = None,
    ) -> int:
        """Inject a sequence of elements, micro-batching the records.

        Consecutive :class:`Record`\\ s are grouped into
        :class:`RecordBatch`\\ es of at most ``batch_size`` (unbounded
        when ``None``); control elements are batch flush points, so the
        observable semantics equal pushing one by one.  Returns the
        number of elements injected.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        pending: List[Record] = []
        count = 0
        for element in elements:
            count += 1
            if isinstance(element, Record):
                pending.append(element)
                if batch_size is not None and len(pending) >= batch_size:
                    self.push(source_name, RecordBatch(pending))
                    pending = []
            elif isinstance(element, RecordBatch):
                pending.extend(element.records)
                if batch_size is not None and len(pending) >= batch_size:
                    self.push(source_name, RecordBatch(pending))
                    pending = []
            else:
                if pending:
                    self.push(source_name, RecordBatch(pending))
                    pending = []
                self.push(source_name, element)
        if pending:
            self.push(source_name, RecordBatch(pending))
        return count

    def close(self) -> None:
        """Release executor resources (flushes pending output)."""
        raise NotImplementedError

    def completed_checkpoint(self, checkpoint_id: int) -> Optional[Dict]:
        """The aligned snapshot for ``checkpoint_id``, if complete."""
        raise NotImplementedError

    def restore_checkpoint(self, snapshot: Dict) -> None:
        """Restore operator state from a completed snapshot."""
        raise NotImplementedError

    def records_processed(self) -> Dict[str, int]:
        """Records processed per vertex (summed over instances)."""
        raise NotImplementedError


class _InstanceInputs:
    """Alignment bookkeeping for one operator instance's input channels."""

    __slots__ = (
        "input_index",
        "watermarks",
        "_aligned_watermark",
        "_marker_counts",
        "_barrier_counts",
    )

    def __init__(self, channels: List[Tuple[ChannelId, int]]) -> None:
        # channel id -> input index (0/1) it feeds.
        self.input_index: Dict[ChannelId, int] = dict(channels)
        self.watermarks: Dict[ChannelId, int] = {
            channel: -1 for channel, _ in channels
        }
        self._aligned_watermark = -1
        self._marker_counts: Dict[Any, int] = {}
        self._barrier_counts: Dict[int, int] = {}

    @property
    def channel_count(self) -> int:
        return len(self.input_index)

    def advance_watermark(self, channel: ChannelId, timestamp: int) -> Optional[int]:
        """Record a per-channel watermark; return the new aligned value if
        the minimum over all channels advanced, else None."""
        if timestamp > self.watermarks[channel]:
            self.watermarks[channel] = timestamp
        aligned = min(self.watermarks.values())
        if aligned > self._aligned_watermark:
            self._aligned_watermark = aligned
            return aligned
        return None

    def marker_complete(self, marker_key: Any) -> bool:
        """Count one marker arrival; True once all channels delivered it."""
        count = self._marker_counts.get(marker_key, 0) + 1
        if count >= self.channel_count:
            self._marker_counts.pop(marker_key, None)
            return True
        self._marker_counts[marker_key] = count
        return False

    def barrier_complete(self, checkpoint_id: int) -> bool:
        """Count one barrier arrival; True once the barrier is aligned."""
        count = self._barrier_counts.get(checkpoint_id, 0) + 1
        if count >= self.channel_count:
            self._barrier_counts.pop(checkpoint_id, None)
            return True
        self._barrier_counts[checkpoint_id] = count
        return False


def _marker_key(marker: ChangelogMarker) -> Any:
    """Alignment identity of a changelog marker."""
    sequence = getattr(marker.changelog, "sequence", None)
    if sequence is not None:
        return sequence
    return ("ts", marker.timestamp)


class DeployedInstance:
    """One live parallel instance of an operator vertex."""

    __slots__ = (
        "vertex",
        "index",
        "operator",
        "inputs",
        "records_processed",
        "is_two_input",
        "process_columnar",
        "batch_sizes",
        "_runtime",
    )

    def __init__(
        self,
        vertex: Vertex,
        index: int,
        operator: Operator,
        inputs: _InstanceInputs,
        runtime: "JobRuntime",
    ) -> None:
        self.vertex = vertex
        self.index = index
        self.operator = operator
        self.inputs = inputs
        self.records_processed = 0
        # Hoisted out of the delivery hot path: one isinstance at deploy
        # time instead of one per delivered element.
        self.is_two_input = isinstance(operator, TwoInputOperator)
        # Hoisted the same way: an operator that consumes the batch
        # object itself (a columnar batch without materialising its
        # rows) exposes ``process_columnar(batch)``; everyone else gets
        # the batch's record list.
        self.process_columnar = getattr(operator, "process_columnar", None)
        # Observability: a per-vertex batch-size histogram, installed at
        # deploy time when the runtime carries an obs hub (None keeps
        # the unobserved hot path at a single falsy check).
        self.batch_sizes = None
        self._runtime = runtime
        route = runtime._route
        operator.set_collector(
            lambda element: route(vertex.name, index, element)
        )
        operator.open(OperatorContext(vertex.name, index, vertex.parallelism))

    def deliver(self, channel: ChannelId, element: StreamElement) -> None:
        """Feed one element arriving on ``channel`` into the operator."""
        if isinstance(element, RecordBatch):
            self.deliver_batch(channel, element)
        elif isinstance(element, Watermark):
            aligned = self.inputs.advance_watermark(channel, element.timestamp)
            if aligned is not None:
                self._invoke(self.operator.on_watermark, Watermark(aligned))
        elif isinstance(element, ChangelogMarker):
            if self.inputs.marker_complete(_marker_key(element)):
                self._invoke(self.operator.on_marker, element)
        elif isinstance(element, CheckpointBarrier):
            if self.inputs.barrier_complete(element.checkpoint_id):
                self._invoke(self._on_barrier, element)
        else:
            raise TypeError(f"unknown stream element {element!r}")

    def _invoke(self, handler, element) -> None:
        """Run an operator handler, spanned when a trace is live (window
        fires triggered by watermarks dominate some stages' cost, so
        traced pushes must attribute control elements too).  The tracer
        is non-None only while a sampled trace is live, so untraced
        deliveries pay one attribute check."""
        tracer = self._runtime._active_tracer
        if tracer is not None:
            tracer.enter(self.vertex.name)
            try:
                handler(element)
            finally:
                tracer.exit()
        else:
            handler(element)

    def deliver_batch(self, channel: ChannelId, batch: RecordBatch) -> None:
        """Feed a batch arriving on ``channel`` into the operator.

        A batch-consuming operator (``process_columnar``) is handed the
        batch intact, so a columnar batch's rows are never materialised
        on the way in; every other operator gets the record list.

        With a fault-injection deliver hook installed, records are handed
        to the operator as batches of one so the hook fires (and may
        raise) *per record inside the batch*: fault plans are batch-size
        agnostic.  Control elements never reach the hook, so alignment
        invariants survive injected faults.
        """
        size = len(batch)
        if not size:
            return
        if self.batch_sizes is not None:
            self.batch_sizes.record(size)
        operator = self.operator
        if self.is_two_input:
            process = (
                operator.process_left_batch
                if self.inputs.input_index[channel] == 0
                else operator.process_right_batch
            )
        else:
            process = operator.process_batch
        hook = self._runtime._deliver_hook
        if hook is not None:
            name = self.vertex.name
            index = self.index
            for record in batch.records:
                hook(name, index, record)
                self.records_processed += 1
                self._invoke(process, [record])
            return
        self.records_processed += size
        if self.process_columnar is not None:
            self._invoke(self.process_columnar, batch)
        else:
            self._invoke(process, batch.records)

    def _on_barrier(self, barrier: CheckpointBarrier) -> None:
        # Snapshot-on-barrier is orchestrated by the runtime so the
        # coordinator sees a consistent cut; the instance just records it.
        self._runtime._record_snapshot(self, barrier)
        self.operator.output(barrier)


class JobRuntime(ExecutionBackend):
    """Deploys and drives a job graph.

    Typical use::

        runtime = JobRuntime(graph)
        runtime.push("source_a", Record(timestamp=0, value=..., key=1))
        runtime.push("source_a", Watermark(timestamp=10_000))
        runtime.close()
    """

    def __init__(self, graph: JobGraph, obs=None) -> None:
        graph.validate()
        self.graph = graph
        # Telemetry hub (repro.obs.Observability) or None; when None the
        # data path is identical to an unobserved build.
        self._obs = obs
        self._tracer = obs.tracer if obs is not None else None
        # Set to the tracer only while a sampled push is being traced;
        # instances read it once per delivery.
        self._active_tracer = None
        self._channel_hook: Optional[
            Callable[[Edge, int, Record], int]
        ] = None
        self._deliver_hook: Optional[
            Callable[[str, int, Record], None]
        ] = None
        self._instances: Dict[str, List[DeployedInstance]] = {}
        self._rebalance_counters: Dict[int, int] = {}
        self._pending_snapshots: Dict[int, Dict[str, Dict[int, Any]]] = {}
        self._completed_snapshots: Dict[int, Dict[str, Dict[int, Any]]] = {}
        self._edge_index = {id(edge): i for i, edge in enumerate(graph.edges)}
        self._deploy()
        # Hot-path adjacency: vertex -> [(edge, edge_idx, target instances)].
        self._out: Dict[str, List[Tuple[Edge, int, List[DeployedInstance]]]] = {
            name: [
                (edge, self._edge_index[id(edge)], self._instances[edge.target])
                for edge in graph.out_edges(name)
            ]
            for name in graph.vertices
        }

    # -- deployment --------------------------------------------------------

    def _deploy(self) -> None:
        for name in self.graph.topological_order():
            vertex = self.graph.vertices[name]
            if vertex.is_source:
                continue
            channels: List[Tuple[ChannelId, int]] = []
            for edge in self.graph.in_edges(name):
                edge_idx = self._edge_index[id(edge)]
                upstream = self.graph.vertices[edge.source]
                upstream_parallelism = (
                    1 if upstream.is_source else upstream.parallelism
                )
                if edge.partitioning is Partitioning.FORWARD:
                    # channel from same-index upstream instance only; the
                    # per-instance channel set is resolved below.
                    for up_index in range(upstream_parallelism):
                        channels.append(((edge_idx, up_index), edge.input_index))
                else:
                    for up_index in range(upstream_parallelism):
                        channels.append(((edge_idx, up_index), edge.input_index))
            instances = []
            for index in range(vertex.parallelism):
                instance_channels = self._channels_for_instance(
                    name, index, channels
                )
                operator = vertex.operator_factory()
                instance = DeployedInstance(
                    vertex,
                    index,
                    operator,
                    _InstanceInputs(instance_channels),
                    self,
                )
                if self._obs is not None:
                    instance.batch_sizes = self._obs.registry.histogram(
                        "operator_batch_records", operator=name
                    )
                instances.append(instance)
            self._instances[name] = instances

    def _channels_for_instance(
        self,
        vertex_name: str,
        index: int,
        all_channels: List[Tuple[ChannelId, int]],
    ) -> List[Tuple[ChannelId, int]]:
        """Restrict forward-edge channels to the same-index upstream."""
        result = []
        for (edge_idx, up_index), input_index in all_channels:
            edge = self.graph.edges[edge_idx]
            if edge.partitioning is Partitioning.FORWARD and up_index != index:
                continue
            result.append(((edge_idx, up_index), input_index))
        return result

    # -- driving -----------------------------------------------------------

    def push(self, source_name: str, element: StreamElement) -> None:
        """Inject an element into a source and run it to completion.

        A lone :class:`Record` enters as a batch of one.
        """
        vertex = self.graph.vertices.get(source_name)
        if vertex is None or not vertex.is_source:
            raise KeyError(f"{source_name!r} is not a source of this job")
        if isinstance(element, Record):
            element = RecordBatch([element])
        if self._tracer is not None:
            # Sampled span trace: execution is synchronous depth-first,
            # so everything this element triggers completes (and is
            # attributed per operator, with a root span on the source
            # vertex) before finish() reads the clock.
            self._sampled_route(source_name, 0, element)
            return
        self._route(source_name, 0, element)

    def _sampled_route(
        self, source_name: str, from_index: int, element: StreamElement
    ) -> None:
        """:meth:`_route` behind the trace-sampling gate (observe mode)."""
        tracer = self._tracer
        if not tracer.maybe_start():
            self._route(source_name, from_index, element)
            return
        self._active_tracer = tracer
        tracer.enter(source_name)
        try:
            self._route(source_name, from_index, element)
        finally:
            total_ns = tracer.exit()
            self._active_tracer = None
            tracer.finish(element.timestamp, total_ns=total_ns)

    def close(self) -> None:
        """Close all operator instances (flushes pending output)."""
        for name in self.graph.topological_order():
            for instance in self._instances.get(name, []):
                instance.operator.close()

    # -- routing -----------------------------------------------------------

    def _route(
        self, from_vertex: str, from_index: int, element: StreamElement
    ) -> None:
        if not isinstance(element, RecordBatch):
            # Control elements are broadcast on every edge.
            for edge, edge_idx, targets in self._out[from_vertex]:
                channel = (edge_idx, from_index)
                if edge.partitioning is Partitioning.FORWARD:
                    targets[from_index].deliver(channel, element)
                else:
                    for target in targets:
                        target.deliver(channel, element)
            return
        hook = self._channel_hook
        for edge, edge_idx, targets in self._out[from_vertex]:
            batch = element
            if hook is not None:
                # Fault-injection point, fired per record *inside* the
                # batch so fault plans are batch-size agnostic: 0 drops
                # the record on this channel, 2+ duplicates it (control
                # elements are never faulted, preserving alignment).
                effective: List[Record] = []
                for record in element.records:
                    effective.extend([record] * hook(edge, from_index, record))
                batch = RecordBatch(effective)
            # No hook: the batch object travels intact, so a columnar
            # batch stays columnar all the way to the consuming operator.
            self._route_batch(
                edge, edge_idx, (edge_idx, from_index), targets, from_index,
                batch,
            )

    def _route_batch(
        self,
        edge: Edge,
        edge_idx: int,
        channel: ChannelId,
        targets: List[DeployedInstance],
        from_index: int,
        batch: RecordBatch,
    ) -> None:
        """Partition a whole batch into per-target sub-batches in one
        pass and deliver each sub-batch with one operator dispatch.

        Single-target partitionings pass the batch through whole
        (columnar batches survive); multi-target hash/rebalance must
        look at every record and materialise first.

        Per-channel record order is preserved (records for one target
        keep their relative order), which is the same ordering guarantee
        a real SPE's network channels give.
        """
        partitioning = edge.partitioning
        if partitioning is Partitioning.FORWARD:
            targets[from_index].deliver_batch(channel, batch)
            return
        if partitioning is Partitioning.BROADCAST:
            for target in targets:
                target.deliver_batch(channel, batch)
            return
        width = len(targets)
        if width == 1:
            if partitioning is Partitioning.REBALANCE:
                self._rebalance_counters[edge_idx] = (
                    self._rebalance_counters.get(edge_idx, 0) + len(batch)
                )
            targets[0].deliver_batch(channel, batch)
            return
        buckets: List[List[Record]] = [[] for _ in range(width)]
        if partitioning is Partitioning.HASH:
            for record in batch.records:
                buckets[stable_hash(record.key) % width].append(record)
        elif partitioning is Partitioning.REBALANCE:
            counter = self._rebalance_counters.get(edge_idx, 0)
            for record in batch.records:
                buckets[counter % width].append(record)
                counter += 1
            self._rebalance_counters[edge_idx] = counter
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown partitioning {partitioning}")
        for target, bucket in zip(targets, buckets):
            if bucket:
                target.deliver_batch(channel, RecordBatch(bucket))

    # -- fault injection ---------------------------------------------------

    def set_fault_hooks(
        self,
        channel_hook: Optional[Callable[[Edge, int, Record], int]] = None,
        deliver_hook: Optional[Callable[[str, int, Record], None]] = None,
    ) -> None:
        """Install fault-injection hooks (see :mod:`repro.faults`).

        ``channel_hook(edge, from_index, record) -> copies`` decides how
        many copies of a data record traverse a channel (0 = drop,
        2 = duplicate).  ``deliver_hook(vertex, index, record)`` runs
        before an instance processes a data record and may raise to
        simulate an operator failure.  Control elements (watermarks,
        markers, barriers) are never passed to either hook.
        """
        self._channel_hook = channel_hook
        self._deliver_hook = deliver_hook

    def clear_fault_hooks(self) -> None:
        """Remove any installed fault-injection hooks."""
        self._channel_hook = None
        self._deliver_hook = None

    def redeliver(self, edge_idx: int, from_index: int, record: Record) -> None:
        """Deliver a previously withheld record on one edge (channel
        delay faults): routed as a fresh batch of one but bypassing the
        channel hook, so a delayed record is not re-faulted."""
        edge = self.graph.edges[edge_idx]
        targets = self._instances[edge.target]
        self._route_batch(
            edge, edge_idx, (edge_idx, from_index), targets, from_index,
            RecordBatch([record]),
        )

    # -- introspection -----------------------------------------------------

    def instances(self, vertex_name: str) -> List[DeployedInstance]:
        """Live instances of an operator vertex."""
        return self._instances[vertex_name]

    def operators(self, vertex_name: str) -> List[Operator]:
        """The operator objects backing a vertex's instances."""
        return [instance.operator for instance in self._instances[vertex_name]]

    def records_processed(self) -> Dict[str, int]:
        """Records processed per vertex (summed over instances)."""
        return {
            name: sum(instance.records_processed for instance in instances)
            for name, instances in self._instances.items()
        }

    # -- checkpointing -----------------------------------------------------

    def _record_snapshot(
        self, instance: DeployedInstance, barrier: CheckpointBarrier
    ) -> None:
        per_checkpoint = self._pending_snapshots.setdefault(
            barrier.checkpoint_id, {}
        )
        per_vertex = per_checkpoint.setdefault(instance.vertex.name, {})
        per_vertex[instance.index] = instance.operator.snapshot()
        if self._checkpoint_is_complete(barrier.checkpoint_id):
            self._completed_snapshots[barrier.checkpoint_id] = (
                self._pending_snapshots.pop(barrier.checkpoint_id)
            )

    def _checkpoint_is_complete(self, checkpoint_id: int) -> bool:
        snapshot = self._pending_snapshots.get(checkpoint_id, {})
        for name, instances in self._instances.items():
            taken = snapshot.get(name, {})
            if len(taken) != len(instances):
                return False
        return True

    def completed_checkpoint(self, checkpoint_id: int) -> Optional[Dict]:
        """The snapshot for ``checkpoint_id`` if all instances reported."""
        return self._completed_snapshots.get(checkpoint_id)

    def restore_checkpoint(self, snapshot: Dict[str, Dict[int, Any]]) -> None:
        """Restore every instance's state from a completed snapshot."""
        for name, per_index in snapshot.items():
            for index, state in per_index.items():
                self._instances[name][index].operator.restore(state)
