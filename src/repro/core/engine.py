"""The AStream engine facade (Figure 2).

:class:`AStreamEngine` wires the shared operators into **one** dataflow
topology that is deployed once and never restarted: ad-hoc queries attach
and detach purely through changelog markers woven into the streams, which
is where AStream's deployment-latency advantage over query-at-a-time
engines comes from (§4.5: "AStream avoids deploying a new streaming
topology for each query.  Instead, it creates and deletes user queries
on-the-fly without affecting the running topology").

Topology layout for streams ``S0 .. Sn`` (each vertex with the cluster's
operator parallelism; R = router)::

    source:Si ──▶ select:Si ──▶ R                      (selection queries)
                     │
                     ├────────▶ agg:Si ──▶ R           (aggregation queries)
                     │
                     └──▶ join:S0~S1 ──▶ R             (join queries)
                              │
                              ├──▶ agg:S0~S1 ──▶ R     (complex queries)
                              └──▶ join:S0~S1~S2 …     (deeper cascades)

All stage names follow :meth:`repro.core.query.Query.stages`, which is
how a submitted query finds its operators.
"""

from __future__ import annotations

import logging
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.bitset import iter_slots
from repro.core.changelog import Changelog
from repro.core.query import Query
from repro.core.registry import QueryRegistry, SlotPolicy
from repro.core.router import QueryChannels, QueryOutput, RouterOperator
from repro.core.selection import SharedSelectionOperator
from repro.core.session import QueryRequest, SharedSession
from repro.core.shared_aggregation import SharedAggregationOperator
from repro.core.shared_join import SharedJoinOperator
from repro.minispe.cluster import SimulatedCluster
from repro.minispe.graph import JobGraph, Partitioning
from repro.minispe.operators import Operator
from repro.minispe.record import (
    ChangelogMarker,
    CheckpointBarrier,
    Record,
    RecordBatch,
    Watermark,
)
from repro.minispe.runtime import JobRuntime
from repro.obs import Observability
from repro.obs.cost import attribute_costs
from repro.obs.registry import gauge_snapshot, merge_snapshots

logger = logging.getLogger("repro.core.engine")


@dataclass
class EngineConfig:
    """Tunable knobs of an AStream deployment."""

    streams: Tuple[str, ...] = ("A", "B")
    max_join_arity: int = 1
    """Binary-join cascade depth: 1 supports A⋈B, 4 supports 5-way joins."""
    changelog_batch_size: int = 100
    changelog_timeout_ms: int = 1_000
    parallelism: Optional[int] = None
    """Operator parallelism; default: one instance per cluster node."""
    slot_policy: SlotPolicy = SlotPolicy.REUSE
    storage_query_threshold: int = 10
    retain_results: bool = True
    enable_slicing: bool = True
    """Ablation switch: False forces per-query windows (no slice sharing)."""
    dedup_predicates: bool = True
    """Evaluate predicates shared by several queries once (selection-level
    sharing; ablation switch)."""
    share_overlapping: bool = True
    """Rewrite *overlapping* (non-identical) selection predicates onto
    shared covering groups with per-query residual filters — the §7
    semantic-overlap optimizer (ISSUE 8).  Exact: outputs are
    byte-identical either way.  Requires ``dedup_predicates``; disable
    for the sharing ablation."""
    log_inputs: bool = False
    """Keep an input log so :meth:`AStreamEngine.checkpoint` /
    :meth:`AStreamEngine.recover` provide exactly-once fault tolerance
    (§3.3: deterministic replay of tuples and changelog markers)."""
    observe: bool = False
    """Enable the :mod:`repro.obs` telemetry subsystem: hierarchical
    metrics, sampled span tracing of the tuple lifecycle, and the
    structured control-plane event log.  Off (the default) compiles the
    instrumentation out of the hot paths — outputs are byte-identical
    either way."""
    obs_sample_every: int = 32
    """Trace every Nth source push when ``observe`` is on."""

    def __post_init__(self) -> None:
        if len(self.streams) < 1:
            raise ValueError("the engine needs at least one input stream")
        if self.max_join_arity < 1:
            raise ValueError(
                f"max_join_arity must be >= 1, got {self.max_join_arity}"
            )

    @property
    def effective_join_arity(self) -> int:
        """Cascade depth actually buildable with the configured streams."""
        return min(self.max_join_arity, max(len(self.streams) - 1, 0))


@dataclass
class EngineCheckpoint:
    """One completed whole-engine checkpoint (state + log offset)."""

    checkpoint_id: int
    log_offset: int
    runtime_state: Dict[str, Dict[int, Any]] = field(repr=False, default_factory=dict)
    channels_state: dict = field(repr=False, default_factory=dict)
    last_watermark_ms: int = -1
    stream_watermarks: Dict[str, int] = field(default_factory=dict)


@dataclass
class RecoveryInfo:
    """What one :meth:`AStreamEngine.recover` call actually did."""

    checkpoint_id: Optional[int]
    """Checkpoint restored from (None = cold replay from offset 0)."""
    replayed_elements: int
    """Input-log entries re-pushed through the fresh runtime."""
    restored_queries: int
    """Queries live immediately after state restoration."""


@dataclass
class DeploymentEvent:
    """Bookkeeping for one query creation/deletion, for QoS metrics."""

    query_id: str
    kind: str  # "create" | "delete"
    requested_at_ms: int
    changelog_at_ms: int
    ready_at_ms: int

    @property
    def deployment_latency_ms(self) -> int:
        """Request enqueue → query live (§4.3)."""
        return self.ready_at_ms - self.requested_at_ms


class AStreamEngine:
    """Ad-hoc shared stream processing on the minispe substrate.

    Typical use::

        engine = AStreamEngine(EngineConfig(streams=("A", "B")))
        engine.submit(query, now_ms=0)
        engine.tick(now_ms=1_000)         # flush the session -> changelog
        engine.push("A", ts, tuple_)
        engine.watermark(ts)
        engine.results(query.query_id)
    """

    JOB_NAME = "astream"

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        cluster: Optional[SimulatedCluster] = None,
        on_deliver: Optional[Callable[[str, int, int], None]] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.cluster = cluster or SimulatedCluster()
        self.channels = QueryChannels(
            retain_results=self.config.retain_results, on_deliver=on_deliver
        )
        self.session = SharedSession(
            registry=QueryRegistry(self.config.slot_policy),
            batch_size=self.config.changelog_batch_size,
            timeout_ms=self.config.changelog_timeout_ms,
        )
        self._parallelism = (
            self.config.parallelism
            if self.config.parallelism is not None
            else self.cluster.parallelism_for()
        )
        # Operator instances deployed in this process, by graph vertex
        # (empty on a process-backend coordinator: its shards own them).
        self._operators: Dict[str, List[Operator]] = {}
        self._stage_names: set = set()
        self.obs: Optional[Observability] = (
            Observability(sample_every=self.config.obs_sample_every)
            if self.config.observe
            else None
        )
        self.graph = self._build_graph()
        self.runtime = self._make_runtime()
        self.cluster.allocate(self.JOB_NAME, self.graph.total_instances())
        self.deployment_events: List[DeploymentEvent] = []
        self._topology_deployed = False
        self._last_watermark_ms = -1
        self._stream_watermarks: Dict[str, int] = {}
        self._pending_requests: List[QueryRequest] = []
        # Exactly-once support (config.log_inputs): a replayable log of
        # everything that entered the dataflow, plus completed checkpoints.
        self._input_log: List[Tuple[str, Any]] = []
        self._input_log_base = 0
        self._next_checkpoint_id = 1
        self._checkpoints: List[EngineCheckpoint] = []
        # Data-path CPU meter for per-query cost attribution.  Metered
        # only under observe so the plain hot path keeps zero clock
        # reads; two perf_counter_ns calls per (batched) push is well
        # inside the >= 0.90x observe-overhead budget.
        self._meter_cpu = self.obs is not None
        self._ingest_cpu_ns = 0

    # -- topology ------------------------------------------------------------

    def _make_runtime(self) -> JobRuntime:
        """Build the execution backend for :attr:`graph`.

        The default is the in-process :class:`JobRuntime`; subclasses
        (:class:`repro.core.parallel_engine.ProcessAStreamEngine`)
        override this seam to plug in a different
        :class:`~repro.minispe.runtime.ExecutionBackend` without
        touching the engine's control and data paths.  Called once at
        construction and again by :meth:`recover` to redeploy.
        """
        return JobRuntime(self.graph, obs=self.obs)

    def _make_aggregation(self, operator_key: str) -> SharedAggregationOperator:
        """Construct one shared-aggregation instance."""
        return SharedAggregationOperator(operator_key)

    def _build_graph(self) -> JobGraph:
        config = self.config
        graph = JobGraph(self.JOB_NAME)
        parallelism = self._parallelism

        def register(vertex: str, operator):
            self._operators.setdefault(vertex, []).append(operator)
            # Shared operators emit control-plane events (slice
            # create/expire) when the engine observes; None keeps their
            # watermark path unchanged.
            operator.obs = self.obs
            return operator

        def add_router(graph: JobGraph, upstream_vertex: str, stage_key: str):
            name = f"router:{stage_key}"
            graph.add_operator(
                name,
                lambda sk=stage_key, n=name: register(
                    n,
                    RouterOperator(sk, self.channels),
                ),
                parallelism=parallelism,
            )
            graph.connect(upstream_vertex, name, Partitioning.FORWARD)

        for stream in config.streams:
            graph.add_source(f"source:{stream}")
            select_key = f"select:{stream}"
            graph.add_operator(
                select_key,
                lambda s=stream, k=select_key: register(
                    k,
                    SharedSelectionOperator(
                        s,
                        dedup_predicates=config.dedup_predicates,
                        share_overlapping=config.share_overlapping,
                    ),
                ),
                parallelism=parallelism,
            )
            graph.connect(f"source:{stream}", select_key, Partitioning.REBALANCE)
            self._stage_names.add(select_key)
            add_router(graph, select_key, select_key)

            agg_key = f"agg:{stream}"
            graph.add_operator(
                agg_key,
                lambda k=agg_key: register(k, self._make_aggregation(k)),
                parallelism=parallelism,
            )
            graph.connect(select_key, agg_key, Partitioning.HASH)
            self._stage_names.add(agg_key)
            add_router(graph, agg_key, agg_key)

        # Left-deep binary-join cascade over the stream order.
        if len(config.streams) >= 2:
            alias = config.streams[0]
            upstream_vertex = f"select:{config.streams[0]}"
            for depth in range(config.effective_join_arity):
                right_stream = config.streams[depth + 1]
                alias = f"{alias}~{right_stream}"
                join_key = f"join:{alias}"
                graph.add_operator(
                    join_key,
                    lambda k=join_key: register(
                        k,
                        SharedJoinOperator(
                            k,
                            storage_query_threshold=config.storage_query_threshold,
                            enable_history=config.enable_slicing,
                        ),
                    ),
                    parallelism=parallelism,
                )
                graph.connect(
                    upstream_vertex, join_key, Partitioning.HASH, input_index=0
                )
                graph.connect(
                    f"select:{right_stream}",
                    join_key,
                    Partitioning.HASH,
                    input_index=1,
                )
                self._stage_names.add(join_key)
                add_router(graph, join_key, join_key)

                cascade_agg_key = f"agg:{alias}"
                graph.add_operator(
                    cascade_agg_key,
                    lambda k=cascade_agg_key: register(
                        k, self._make_aggregation(k)
                    ),
                    parallelism=parallelism,
                )
                graph.connect(join_key, cascade_agg_key, Partitioning.HASH)
                self._stage_names.add(cascade_agg_key)
                add_router(graph, cascade_agg_key, cascade_agg_key)

                upstream_vertex = join_key
        return graph

    # -- query control -----------------------------------------------------------

    def submit(self, query: Query, now_ms: int) -> str:
        """Enqueue a query-creation request; returns the query id.

        The query becomes live at the next changelog (see :meth:`tick`).
        """
        self._validate_query(query)
        request = self.session.submit(query, now_ms)
        self._pending_requests.append(request)
        self.tick(now_ms)
        return query.query_id

    def stop(self, query_id: str, now_ms: int) -> None:
        """Enqueue a query-deletion request."""
        request = self.session.stop(query_id, now_ms)
        self._pending_requests.append(request)
        self.tick(now_ms)

    def _validate_query(self, query: Query) -> None:
        for stage in query.stages():
            if stage.operator not in self._stage_names:
                raise ValueError(
                    f"query {query.query_id!r} needs stage "
                    f"{stage.operator!r}, which this engine was not "
                    f"configured with (streams={self.config.streams}, "
                    f"max_join_arity={self.config.max_join_arity})"
                )

    def tick(self, now_ms: int) -> Optional[Changelog]:
        """Advance session time: flush a changelog if batch/timeout is due."""
        changelog = self.session.maybe_flush(now_ms)
        if changelog is not None:
            self._apply_changelog(changelog, now_ms)
        return changelog

    def flush_session(self, now_ms: int) -> List[Changelog]:
        """Force all pending requests into changelogs immediately."""
        changelogs = []
        while True:
            changelog = self.session.flush(now_ms)
            if changelog is None:
                break
            self._apply_changelog(changelog, now_ms)
            changelogs.append(changelog)
        return changelogs

    def _apply_changelog(self, changelog: Changelog, now_ms: int) -> None:
        marker = ChangelogMarker(timestamp=now_ms, changelog=changelog)
        if self.config.log_inputs:
            self._input_log.append(("marker", marker))
        for stream in self.config.streams:
            self.runtime.push(f"source:{stream}", marker)
        ready_at = now_ms + self._deployment_cost_ms(changelog)
        completed = [
            request
            for request in self._pending_requests
            if request.changelog_sequence == changelog.sequence
        ]
        self._pending_requests = [
            request
            for request in self._pending_requests
            if request.changelog_sequence != changelog.sequence
        ]
        for request in completed:
            self.deployment_events.append(
                DeploymentEvent(
                    query_id=request.target_id,
                    kind=request.kind.value,
                    requested_at_ms=request.enqueued_at_ms,
                    changelog_at_ms=now_ms,
                    ready_at_ms=ready_at,
                )
            )
        if self.obs is not None:
            self.obs.events.emit(
                "changelog",
                t_ms=now_ms,
                sequence=changelog.sequence,
                created=[a.query.query_id for a in changelog.created],
                deleted=[d.query_id for d in changelog.deleted],
                width_after=changelog.width_after,
            )
            for request in completed:
                self.obs.events.emit(
                    f"query_{request.kind.value}",
                    t_ms=now_ms,
                    query_id=request.target_id,
                    sequence=changelog.sequence,
                    requested_at_ms=request.enqueued_at_ms,
                    ready_at_ms=ready_at,
                )
            self.obs.registry.histogram("deployment_latency_ms").record(
                ready_at - now_ms
            )

    def _deployment_cost_ms(self, changelog: Changelog) -> int:
        cost_model = self.cluster.cost_model
        cost = cost_model.changelog_ms(changelog.change_count)
        if not self._topology_deployed:
            # The very first changelog pays the physical topology
            # deployment (Figure 10b's tall first bar).
            cost += cost_model.cold_deploy_ms(
                self.graph.total_instances(), self.cluster.spec.nodes
            )
            self._topology_deployed = True
        return cost

    # -- data path -----------------------------------------------------------------

    def _run_push(self, source: str, element) -> None:
        """``runtime.push`` with the optional data-path CPU meter."""
        if not self._meter_cpu:
            self.runtime.push(source, element)
            return
        started = time.perf_counter_ns()
        try:
            self.runtime.push(source, element)
        finally:
            self._ingest_cpu_ns += time.perf_counter_ns() - started

    def _ingest(self, stream: str, batch: RecordBatch) -> int:
        """Run one batch through the dataflow; returns its size.

        Every data entry point lands here.  With ``log_inputs`` the batch
        is one atomic input-log entry: if an injected (or real) fault
        kills the push mid-batch the entry is un-logged — recovery wipes
        the partial effects and must not replay the batch, because the
        caller, who observed the exception, retries or dead-letters the
        whole batch and keeps the exactly-once accounting.
        """
        count = len(batch)
        if not count:
            return 0
        if batch.trace is not None and self.obs is not None:
            # Force-sample the tracer so the per-operator breakdown
            # lines up with the wire span the trace context belongs to.
            self.obs.tracer.force_next()
        source = f"source:{stream}"
        if not self.config.log_inputs:
            self._run_push(source, batch)
            return count
        self._input_log.append(("batch", (stream, batch)))
        try:
            self._run_push(source, batch)
        except BaseException:
            self._input_log.pop()
            raise
        return count

    def push(
        self, stream: str, timestamp: int, value: Any, key: Any = None
    ) -> None:
        """Inject one data tuple into ``stream`` (a batch of one)."""
        if key is None:
            key = getattr(value, "key", None)
        self._ingest(stream, RecordBatch([Record(timestamp, value, key)]))

    def push_many(
        self, stream: str, tuples: List[Tuple[int, Any]], trace=None
    ) -> int:
        """Inject ``(timestamp, value)`` tuples as one batch.

        The batch traverses the dataflow as one :class:`RecordBatch`, so
        partitioning, routing, and operator dispatch are paid once per
        batch instead of once per tuple.  ``trace`` is an optional wire
        trace context to ride the batch.  Returns the number of tuples
        injected.
        """
        records = [
            Record(timestamp, value, getattr(value, "key", None))
            for timestamp, value in tuples
        ]
        return self._ingest(stream, RecordBatch(records, trace=trace))

    def push_batch(self, stream: str, batch: RecordBatch) -> int:
        """Inject one pre-assembled :class:`RecordBatch`.

        The columnar wire-ingest seam: the serving layer's binary
        decoder produces columnar batches whose row objects materialise
        lazily, and the batch is injected *without touching the rows* —
        shared selection then builds objects only for rows some query
        wants.  Returns the number of rows injected.
        """
        return self._ingest(stream, batch)

    def watermark(self, timestamp: int, stream: Optional[str] = None) -> None:
        """Advance event time (fires due windows).

        With ``stream`` given, only that source's watermark advances —
        modelling skewed sources; binary operators hold their event-time
        clock at the minimum across inputs, so a lagging stream delays
        joint window fires (the standard alignment rule).  Without it,
        every stream advances together.
        """
        if stream is None:
            if timestamp <= self._last_watermark_ms:
                return
            self._last_watermark_ms = timestamp
            targets = self.config.streams
        else:
            if stream not in self.config.streams:
                raise KeyError(f"unknown stream {stream!r}")
            if timestamp <= self._stream_watermarks.get(stream, -1):
                return
            targets = (stream,)
        watermark = Watermark(timestamp=timestamp)
        if self.config.log_inputs:
            self._input_log.append(("watermark", (targets, watermark)))
        try:
            for target in targets:
                self._stream_watermarks[target] = max(
                    self._stream_watermarks.get(target, -1), timestamp
                )
                self._run_push(f"source:{target}", watermark)
        except BaseException:
            # A window fire triggered by this watermark hit an injected
            # fault: un-log it so the post-recovery retry is not a
            # duplicate (recovery restores the watermark clocks too).
            if self.config.log_inputs:
                self._input_log.pop()
            raise

    # -- fault tolerance ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Take a consistent engine checkpoint; returns its id.

        Requires ``config.log_inputs``.  A barrier traverses all sources
        (aligned snapshots of every operator instance); channel contents
        are captured alongside, and the input-log offset is recorded so
        :meth:`recover` can replay the suffix (§3.3).  The shared session
        is not: :meth:`recover` keeps the live one.  Operator snapshots
        share frozen values (changelogs, queries, window specs) with the
        live operators and copy only what can still change.
        """
        if not self.config.log_inputs:
            raise RuntimeError(
                "checkpointing needs EngineConfig(log_inputs=True)"
            )
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        started_ns = time.perf_counter_ns() if self.obs is not None else 0
        barrier = CheckpointBarrier(timestamp=0, checkpoint_id=checkpoint_id)
        for stream in self.config.streams:
            self.runtime.push(f"source:{stream}", barrier)
        state = self.runtime.completed_checkpoint(checkpoint_id)
        if state is None:
            raise RuntimeError(
                f"checkpoint {checkpoint_id} did not complete on all instances"
            )
        log_offset = self._input_log_base + len(self._input_log)
        self._checkpoints.append(
            EngineCheckpoint(
                checkpoint_id=checkpoint_id,
                log_offset=log_offset,
                runtime_state=state,
                channels_state=self.channels.snapshot(),
                last_watermark_ms=self._last_watermark_ms,
                stream_watermarks=dict(self._stream_watermarks),
            )
        )
        if self.obs is not None:
            duration_ms = (time.perf_counter_ns() - started_ns) / 1e6
            size_bytes = len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
            registry = self.obs.registry
            registry.counter("checkpoints").inc()
            registry.histogram("checkpoint_duration_ms").record(duration_ms)
            registry.histogram("checkpoint_size_bytes").record(size_bytes)
            self.obs.events.emit(
                "checkpoint",
                checkpoint_id=checkpoint_id,
                log_offset=log_offset,
                size_bytes=size_bytes,
                duration_ms=duration_ms,
            )
            logger.info(
                "checkpoint %d complete: %d bytes in %.2f ms (log offset %d)",
                checkpoint_id,
                size_bytes,
                duration_ms,
                log_offset,
            )
        return checkpoint_id

    def recover(self) -> RecoveryInfo:
        """Simulate failure + recovery: redeploy, restore, replay.

        The running topology is discarded; a fresh one is deployed from
        the same graph, operator state is restored from the latest
        completed checkpoint (or empty, if none), and the input log's
        suffix — records, watermarks, *and* changelog markers, in their
        original interleaving — is replayed.  Outputs equal those of an
        uninterrupted run (exactly-once).  Returns a :class:`RecoveryInfo`
        describing the restored checkpoint and replay size (the
        supervisor's MTTR / replay metrics).

        The shared session is *client-side* state (§3.1.1): it lives
        outside the SPE, so an engine failure does not roll it back.
        Restoring it from the checkpoint would rewind its changelog
        sequence and re-buffer requests whose markers are already in the
        replayed log, producing duplicate changelog sequences after
        recovery — the live session is kept instead, and the marker
        replay brings the fresh operators up to exactly the changelogs
        the session has issued.
        """
        if not self.config.log_inputs:
            raise RuntimeError("recovery needs EngineConfig(log_inputs=True)")
        started_ns = time.perf_counter_ns() if self.obs is not None else 0
        # Fresh instances: clear the operator registry so introspection
        # and stats point at the recovered topology only.
        self._operators.clear()
        self.runtime = self._make_runtime()
        checkpoint = self._checkpoints[-1] if self._checkpoints else None
        if checkpoint is not None:
            self.runtime.restore_checkpoint(checkpoint.runtime_state)
            self.channels.restore(checkpoint.channels_state)
            self._last_watermark_ms = checkpoint.last_watermark_ms
            self._stream_watermarks = dict(checkpoint.stream_watermarks)
            offset = checkpoint.log_offset
        else:
            self.channels.restore({"counts": {}, "results": {}})
            self._last_watermark_ms = -1
            self._stream_watermarks = {}
            offset = 0
        # Watermark alignment state is channel-local and dies with the old
        # runtime: re-inject the per-stream watermarks known at the
        # checkpoint so the fresh instances' event-time clocks resume
        # where they were (window refires are impossible — the restored
        # firing schedules already advanced past them).
        for stream, watermark_ms in self._stream_watermarks.items():
            if watermark_ms >= 0:
                self.runtime.push(
                    f"source:{stream}", Watermark(timestamp=watermark_ms)
                )
        # Replay the suffix in original global order.
        if offset < self._input_log_base:
            raise RuntimeError(
                f"input-log offset {offset} was compacted away "
                f"(base is {self._input_log_base})"
            )
        replay = list(self._input_log[offset - self._input_log_base :])
        for kind, payload in replay:
            if kind == "batch":
                stream, batch = payload
                self.runtime.push(f"source:{stream}", batch)
            elif kind == "watermark":
                targets, element = payload
                for stream in targets:
                    self.runtime.push(f"source:{stream}", element)
                    self._stream_watermarks[stream] = max(
                        self._stream_watermarks.get(stream, -1),
                        element.timestamp,
                    )
                if tuple(targets) == tuple(self.config.streams):
                    self._last_watermark_ms = max(
                        self._last_watermark_ms, element.timestamp
                    )
            else:  # marker
                for stream in self.config.streams:
                    self.runtime.push(f"source:{stream}", payload)
        info = RecoveryInfo(
            checkpoint_id=(
                checkpoint.checkpoint_id if checkpoint is not None else None
            ),
            replayed_elements=len(replay),
            restored_queries=self.active_query_count,
        )
        if self.obs is not None:
            duration_ms = (time.perf_counter_ns() - started_ns) / 1e6
            registry = self.obs.registry
            registry.counter("recoveries").inc()
            registry.histogram("restore_duration_ms").record(duration_ms)
            registry.histogram("replayed_elements").record(len(replay))
            self.obs.events.emit(
                "restore",
                checkpoint_id=info.checkpoint_id,
                replayed_elements=info.replayed_elements,
                restored_queries=info.restored_queries,
                duration_ms=duration_ms,
            )
            logger.info(
                "recovered from checkpoint %s: replayed %d elements, "
                "%d queries restored in %.2f ms",
                info.checkpoint_id,
                info.replayed_elements,
                info.restored_queries,
                duration_ms,
            )
        return info

    def compact_input_log(self) -> int:
        """Drop log entries already covered by the latest checkpoint.

        Mirrors :meth:`SourceLog.truncate` at the engine level so soak
        runs with periodic checkpoints keep bounded memory; checkpoints
        older than the latest become unusable and are dropped.  Returns
        the number of reclaimed entries.
        """
        if not self._checkpoints:
            return 0
        checkpoint = self._checkpoints[-1]
        dropped = checkpoint.log_offset - self._input_log_base
        if dropped <= 0:
            return 0
        del self._input_log[:dropped]
        self._input_log_base = checkpoint.log_offset
        self._checkpoints = [checkpoint]
        return dropped

    @property
    def input_log_size(self) -> int:
        """Input-log entries currently retained (post-compaction)."""
        return len(self._input_log)

    @property
    def completed_checkpoints(self) -> int:
        """Number of completed engine checkpoints."""
        return len(self._checkpoints)

    # -- results & stats ---------------------------------------------------------------

    def results(self, query_id: str) -> List[QueryOutput]:
        """Results delivered to a query's channel so far."""
        return self.channels.results(query_id)

    def canonical_results(self, query_id: str) -> List[QueryOutput]:
        """Results in the deterministic cross-backend order.

        Use this when comparing outputs between execution backends: the
        in-process path may emit join matches in store-insertion order,
        and the process backend merges shard channels canonically (see
        :func:`repro.core.router.canonical_order`).
        """
        return self.channels.canonical_results(query_id)

    def result_count(self, query_id: str) -> int:
        """Number of results delivered to a query."""
        return self.channels.count(query_id)

    def result_counts(self) -> Dict[str, int]:
        """Delivered result count per query channel."""
        return {
            query_id: self.channels.count(query_id)
            for query_id in self.channels.query_ids()
        }

    def drain(self) -> None:
        """Wait until all injected input has been fully processed.

        The in-process runtime executes synchronously, so this is a
        no-op; the process backend overrides it to flush frame buffers
        and await worker acknowledgements.  Throughput measurements call
        it before reading the clock so in-flight work is counted.
        """

    @property
    def active_query_count(self) -> int:
        """Queries currently live (post-changelog)."""
        return self.session.registry.active_count

    def stats_snapshot(self) -> Dict[str, dict]:
        """Every deployed operator's counters, as one merged snapshot.

        Walks the deployed instances, collects each one's
        :meth:`~repro.minispe.operators.Operator.stats` under an
        ``operator=<vertex>`` label (plus the runtime's per-vertex input
        count) and merges parallel instances by each stat's own hint.
        Entries have the :meth:`MetricsRegistry.snapshot` gauge shape, so
        :func:`~repro.obs.registry.merge_snapshots` combines shards the
        same way.  Every stats view below is a projection of this — the
        process backend overrides only this method.
        """
        records_in = self.runtime.records_processed()
        per_instance = [
            gauge_snapshot(
                {"operator_records_in": (count, "sum")}, operator=vertex
            )
            for vertex, count in records_in.items()
        ]
        for vertex, operators in self._operators.items():
            for op in operators:
                per_instance.append(gauge_snapshot(op.stats(), operator=vertex))
        return merge_snapshots(per_instance)

    _COMPONENT_STATS = {
        "predicate_evaluations": ("predicate_evaluations", ("select",)),
        "selection_dropped": ("records_dropped", ("select",)),
        "bitset_ops": ("bitset_ops", ("join", "agg")),
        "router_copies": ("copies", ("router",)),
        "join_pairs_computed": ("pairs_computed", ("join",)),
        "join_pairs_reused": ("pairs_reused", ("join",)),
        "results_emitted": ("results_emitted", ("join", "agg")),
        "late_records_dropped": ("late_records_dropped", ("join", "agg")),
    }
    """``component_stats`` key → (operator stat, operator kinds summed)."""

    def component_stats(self) -> Dict[str, float]:
        """Aggregate per-component counters (Figure 18's breakdown)."""
        stats = dict.fromkeys(self._COMPONENT_STATS, 0)
        for entry in self.stats_snapshot().values():
            kind = entry["labels"]["operator"].partition(":")[0]
            for key, (name, kinds) in self._COMPONENT_STATS.items():
                if entry["name"] == name and kind in kinds:
                    stats[key] += entry["value"]
        return stats

    # -- observability -----------------------------------------------------------------

    def _refresh_obs_gauges(self) -> None:
        """Publish :meth:`stats_snapshot` and the engine-level facts as
        labelled registry gauges, so one registry snapshot carries the
        whole engine picture.  Engine facts are replicated on every
        shard and merge with ``max``."""
        registry = self.obs.registry
        for entry in self.stats_snapshot().values():
            registry.gauge(
                entry["name"], merge=entry["merge"], **entry["labels"]
            ).set(entry["value"])
        registry.gauge("active_queries", merge="max").set(
            self.active_query_count
        )
        registry.gauge("bitset_width", merge="max").set(
            self.session.registry.width
        )
        registry.gauge("input_log_size", merge="max").set(self.input_log_size)
        registry.gauge("completed_checkpoints", merge="max").set(
            self.completed_checkpoints
        )

    def obs_snapshot(self) -> Dict:
        """The engine's full telemetry snapshot (observe mode only)."""
        if self.obs is None:
            raise RuntimeError(
                "telemetry needs EngineConfig(observe=True)"
            )
        self._refresh_obs_gauges()
        return self.obs.snapshot()

    def sharing_summary(self) -> Dict[str, Dict]:
        """Per-stream shape and counters of the semantic-overlap optimizer.

        It reflects the *planner's* rewrite: how many covering groups the
        current epoch runs, how many query slots they absorb, and how
        much work the cover checks and residual filters did.  Always
        available; with ``share_overlapping=False`` every stream reports
        zero groups.
        """
        summary: Dict[str, Dict] = {}
        for entry in self.stats_snapshot().values():
            kind, _, stream = entry["labels"]["operator"].partition(":")
            if kind == "select" and entry["name"].startswith("sharing_"):
                key = entry["name"][len("sharing_"):]
                summary.setdefault(stream, {})[key] = entry["value"]
        return dict(sorted(summary.items()))

    # -- cost attribution ----------------------------------------------------

    def cost_profile(self) -> Dict:
        """Per-query work-unit weights for CPU cost attribution.

        Each entry names the queries a unit of selection work served:
        direct predicates carry the slot set sharing the (deduplicated)
        predicate, covering groups carry the group's member mask — so
        shared covering-evaluation cost is split across members, per the
        Shared Arrangements accounting argument.  ``engine_cpu_ns`` is
        the measured data-path CPU (observe runs only).  Feed
        the result to :func:`repro.obs.cost.attribute_costs`.
        """
        return self._resolve_cost_profile(self._raw_cost_profile())

    def _raw_cost_profile(self) -> Dict:
        """The slot-mask-keyed cost profile, before query resolution.

        Shard workers ship this form over IPC: their session registries
        are never driven (submits happen coordinator-side, deployments
        ride changelog markers straight into the operators), so only the
        coordinator can map slots back to query ids.
        """
        streams: Dict[str, List[Dict]] = {}
        unattributed = 0.0
        for stream in sorted(self.config.streams):
            entries: List[Dict] = []
            for op in self.selection_operators(stream):
                profile = op.cost_profile()
                unattributed += profile.get("unattributed", 0.0)
                for kind in ("direct", "groups"):
                    for unit in profile.get(kind, ()):
                        work = unit["evaluations"]
                        if not work:
                            continue
                        entries.append(
                            {
                                "kind": kind,
                                "slots": unit["slots"],
                                "evaluations": work,
                            }
                        )
            streams[stream] = entries
        return {
            "streams": streams,
            "unattributed_evaluations": unattributed,
            "engine_cpu_ns": self._ingest_cpu_ns,
        }

    def _resolve_cost_profile(self, raw: Dict) -> Dict:
        """Map a raw profile's slot masks to live query ids.

        Work whose slots no longer resolve (the queries were deleted
        mid-epoch) moves to the unattributed bucket.
        """
        registry = self.session.registry

        def queries_for(mask: int) -> List[str]:
            out = []
            for slot in iter_slots(mask):
                entry = registry.by_slot(slot)
                if entry is not None:
                    out.append(entry.query.query_id)
            return out

        streams: Dict[str, List[Dict]] = {}
        unattributed = float(raw.get("unattributed_evaluations", 0) or 0)
        for stream, entries in raw.get("streams", {}).items():
            resolved: List[Dict] = []
            for entry in entries:
                if "slots" not in entry:
                    resolved.append(entry)
                    continue
                members = queries_for(entry["slots"])
                if not members:
                    unattributed += entry["evaluations"]
                    continue
                resolved.append(
                    {
                        "kind": entry["kind"],
                        "queries": members,
                        "evaluations": entry["evaluations"],
                    }
                )
            streams[stream] = resolved
        return {
            "streams": streams,
            "unattributed_evaluations": unattributed,
            "engine_cpu_ns": raw.get("engine_cpu_ns", 0),
        }

    def cost_attribution(self) -> Dict:
        """Measured engine CPU split across queries (shared work split
        over group members); shares sum to the metered total exactly."""
        profile = self.cost_profile()
        return attribute_costs(profile.get("engine_cpu_ns", 0), profile)

    def selection_operators(self, stream: str) -> List[SharedSelectionOperator]:
        """Live shared-selection instances for a stream."""
        return self._operators.get(f"select:{stream}", [])

    def join_operators(self, join_key: str) -> List[SharedJoinOperator]:
        """Live shared-join instances for a cascade stage."""
        return self._operators.get(join_key, [])

    def aggregation_operators(self, agg_key: str) -> List[SharedAggregationOperator]:
        """Live shared-aggregation instances for a stage."""
        return self._operators.get(agg_key, [])

    def describe(self) -> str:
        """Human-readable topology and query-population summary."""
        lines = [
            f"AStream topology ({len(self.graph.vertices)} vertices, "
            f"parallelism {self._parallelism}, "
            f"{self.graph.total_instances()} instances on "
            f"{self.cluster.spec.nodes} nodes)",
        ]
        for name in self.graph.topological_order():
            vertex = self.graph.vertices[name]
            if vertex.is_source:
                lines.append(f"  {name}  (source)")
                continue
            inputs = ", ".join(
                f"{edge.source}[{edge.partitioning.value}]"
                for edge in self.graph.in_edges(name)
            )
            lines.append(f"  {name}  <- {inputs}")
        active = self.session.registry.active()
        lines.append(
            f"queries: {len(active)} active, "
            f"width {self.session.registry.width}, "
            f"{self.session.pending_count} pending"
        )
        for entry in active:
            lines.append(
                f"  slot {entry.slot}: {entry.query.query_id} "
                f"({type(entry.query).__name__}, "
                f"created t={entry.created_at_ms}ms)"
            )
        return "\n".join(lines)

    def shutdown(self) -> None:
        """Release cluster slots and close operators."""
        self.runtime.close()
        self.cluster.release(self.JOB_NAME)
