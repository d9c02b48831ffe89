"""AStream on the process-parallel sharded backend.

Each worker process runs a complete single-parallelism
:class:`~repro.core.engine.AStreamEngine` over the key range
``stable_hash(key) % workers == shard``.  Because every shared operator
in the engine keys its state by record key (selection is stateless per
record, aggregation groups by key, the join matches equal keys only),
hash-sharding the input by key partitions operator state exactly — the
shared-nothing decomposition STRETCH uses — while each shard keeps
serving *all* active queries for its keys, preserving inter-query
sharing the way Shared Arrangements shards shared indexes.

The coordinator-side :class:`ProcessAStreamEngine` subclasses
:class:`AStreamEngine` and swaps the execution backend through the
``_make_runtime`` seam: control flow (session, changelogs, input log,
checkpoint/recover) is inherited unchanged, because
:class:`~repro.minispe.parallel.ShardedRuntime` broadcasts control
elements to every shard in FIFO order and collects aligned snapshots.
Per-query results are merged deterministically (event time, then stable
value order), making outputs byte-identical to the in-process path.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.router import QueryOutput, merge_channel_snapshots
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.minispe.parallel import (
    ACK_OBS_EVENT_CAP,
    DEFAULT_FRAME_RECORDS,
    DEFAULT_MAX_IN_FLIGHT,
    Op,
    ProcessShardPool,
    ShardProgram,
    ShardedRuntime,
)
from repro.minispe.record import CheckpointBarrier, Record, RecordBatch, Watermark
from repro.obs.cost import merge_cost_profiles
from repro.obs.registry import merge_snapshots, relabel_snapshot
from repro.obs.tracing import merge_trace_snapshots


class AStreamShardProgram(ShardProgram):
    """One shard's AStream engine, driven by coordinator ops.

    The worker engine is a plain in-process engine with
    ``parallelism=1`` and no input log (the coordinator owns logging and
    replay); ops address its runtime directly, so markers, watermarks,
    and barriers follow exactly the in-process code path within the
    shard.
    """

    def __init__(
        self, config: EngineConfig, shard_index: int, shard_count: int,
        deliver_sample_every: int = 1,
    ) -> None:
        worker_config = dataclasses.replace(
            config, parallelism=1, log_inputs=False
        )
        self.shard_index = shard_index
        self.shard_count = shard_count
        # 0 disables delivery sampling entirely (no coordinator-side
        # QoS consumer): recording and shipping samples is pure
        # overhead then.
        self._sample_every = max(0, deliver_sample_every)
        self._deliver_seen = 0
        self._deliveries: List[Tuple[str, int]] = []
        self._wire_spans: List[dict] = []
        self.engine = AStreamEngine(
            worker_config,
            cluster=SimulatedCluster(ClusterSpec(nodes=1, cores_per_node=256)),
            on_deliver=(
                self._record_delivery if self._sample_every else None
            ),
        )
        # Live-migration exports use their own barrier id space
        # (negative, decreasing) so they can never collide with the
        # coordinator's positive checkpoint ids.
        self._export_id = 0

    def _record_delivery(
        self, query_id: str, timestamp: int, count: int = 1
    ) -> None:
        seen = self._deliver_seen
        self._deliver_seen = seen + count
        if seen // self._sample_every != self._deliver_seen // self._sample_every:
            self._deliveries.append((query_id, timestamp))

    def apply(self, op: Op) -> Any:
        """Dispatch one wire op onto the shard engine.

        Asynchronous ops (``push``/``batch``) return None; synchronous
        ops (``snapshot``/``restore``/``collect``/``stats``/``drain``)
        return a picklable reply.
        """
        kind = op[0]
        if kind == "push":
            self.engine._run_push(op[1], op[2])
            return None
        if kind == "batch":
            records: List[Record] = op[2]
            trace = op[3] if len(op) > 3 else None
            element = RecordBatch(records, trace=trace)
            if trace is None or self.engine.obs is None:
                self.engine._run_push(op[1], element)
                return None
            # Traced batch: force-sample the worker tracer so the
            # per-operator breakdown lines up with the wire span, and
            # stamp the shard-local wall span as trace detail.
            self.engine.obs.tracer.force_next()
            started = time.monotonic_ns()
            self.engine._run_push(op[1], element)
            self._wire_spans.append(
                {
                    "id": trace[0],
                    "shard": self.shard_index,
                    "start_ns": started,
                    "span_ns": time.monotonic_ns() - started,
                    "records": len(records),
                }
            )
            return None
        if kind == "snapshot":
            return {
                "runtime": self.engine.runtime.completed_checkpoint(op[1]),
                "channels": self.engine.channels.snapshot(),
            }
        if kind == "restore":
            payload = op[1]
            self.engine.runtime.restore_checkpoint(payload["runtime"])
            self.engine.channels.restore(payload["channels"])
            return True
        if kind == "export":
            return self._export_state()
        if kind == "collect":
            return self.engine.channels.snapshot()
        if kind == "stats":
            # In observe mode the shard's full registry + trace also ride
            # this op's ack (take_obs with unlimited=True: it is
            # synchronous), so one round-trip refreshes every view.
            return {
                "records_processed": self.engine.runtime.records_processed(),
                "snapshot": self.engine.stats_snapshot(),
                "cost": self.engine._raw_cost_profile(),
            }
        if kind == "drain":
            return True
        raise ValueError(f"unknown shard op {kind!r}")

    def _export_state(self) -> dict:
        """Aligned snapshot of this shard's live state, for migration.

        Pushes a barrier through every source of the shard's own engine
        (back-to-back within this synchronous op, satisfying the
        alignment rule), collects the aligned runtime snapshot, and
        returns it alongside the channel state — the same payload shape
        the checkpoint seam carries.
        """
        self._export_id -= 1
        export_id = self._export_id
        runtime = self.engine.runtime
        for stream in self.engine.config.streams:
            runtime.push(
                f"source:{stream}",
                CheckpointBarrier(timestamp=0, checkpoint_id=export_id),
            )
        state = runtime.completed_checkpoint(export_id)
        if state is None:
            raise RuntimeError("export barrier failed to align")
        # Exports are one-shot; drop the runtime's retained copy.
        runtime._completed_snapshots.pop(export_id, None)
        return {
            "runtime": state,
            "channels": self.engine.channels.snapshot(),
        }

    def take_obs(self, unlimited: bool) -> Optional[dict]:
        """Telemetry delta for the next ack (observe mode only).

        Events ship incrementally on every ack (capped on regular acks);
        the full registry + trace snapshot only rides unlimited
        (synchronous) acks, where large payloads cannot deadlock the
        pipe.
        """
        obs = self.engine.obs
        if obs is None:
            return None
        payload: dict = {}
        events = obs.events.take_new(
            limit=None if unlimited else ACK_OBS_EVENT_CAP
        )
        if events:
            payload["events"] = events
        if self._wire_spans:
            spans = self._wire_spans[:ACK_OBS_EVENT_CAP]
            del self._wire_spans[: len(spans)]
            payload["wire_spans"] = spans
        if unlimited:
            self.engine._refresh_obs_gauges()
            payload["registry"] = obs.registry.snapshot()
            payload["trace"] = obs.tracer.snapshot(drain_traces=True)
        return payload or None

    def take_deliveries(
        self, limit: Optional[int] = None
    ) -> List[Tuple[str, int]]:
        """Drain up to ``limit`` sampled deliveries (all when None)."""
        if limit is None or limit >= len(self._deliveries):
            deliveries = self._deliveries
            self._deliveries = []
            return deliveries
        deliveries = self._deliveries[:limit]
        del self._deliveries[:limit]
        return deliveries

    def close(self) -> None:
        """Shut the shard engine down before the worker exits."""
        self.engine.shutdown()


class AStreamShardFactory:
    """Picklable factory building one :class:`AStreamShardProgram`.

    Instances are handed to worker processes; keeping the factory a
    small named class (config + sampling knob) keeps it picklable under
    any multiprocessing start method.
    """

    def __init__(
        self, config: EngineConfig, deliver_sample_every: int = 1
    ) -> None:
        self.config = config
        self.deliver_sample_every = deliver_sample_every

    def __call__(self, shard_index: int, shard_count: int) -> AStreamShardProgram:
        """Build the program for ``shard_index`` of ``shard_count``."""
        return AStreamShardProgram(
            self.config,
            shard_index,
            shard_count,
            deliver_sample_every=self.deliver_sample_every,
        )


class ProcessAStreamEngine(AStreamEngine):
    """AStream engine whose data path runs across worker processes.

    Drop-in replacement for :class:`AStreamEngine`: submit/tick/push/
    watermark/checkpoint/recover are inherited; only the execution
    backend differs.  Result reads trigger a deterministic merge of the
    per-shard channels, so :meth:`canonical_results` is byte-identical
    to the in-process engine's on the same input.

    ``kill_worker`` SIGKILLs one shard for chaos testing; recovery goes
    through the inherited :meth:`recover`, which replaces the whole pool
    via ``_make_runtime`` and replays the coordinator's input log.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        cluster: Optional[SimulatedCluster] = None,
        on_deliver: Optional[Callable[[str, int], None]] = None,
        workers: int = 2,
        frame_records: int = DEFAULT_FRAME_RECORDS,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        deliver_sample_every: int = 1,
        heartbeat_interval_s: Optional[float] = None,
        ack_deadline_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        # _make_runtime is invoked from the base constructor, so the
        # backend knobs must exist first.
        self.workers = workers
        self._frame_records = frame_records
        self._max_in_flight = max_in_flight
        self._deliver_sample_every = deliver_sample_every
        self._pool_on_deliver = on_deliver
        self.heartbeat_interval_s = heartbeat_interval_s
        self.ack_deadline_s = ack_deadline_s
        self._migrations_total = 0
        self._migration_steps_total = 0
        self._worker_failures_by_reason: Dict[str, int] = {}
        self.migration_pauses_ms: List[float] = []
        """Recent ingest-pause durations (export + per-shard restore
        steps), newest last, capped — the resize-latency gate's input."""
        self._merged_at_op_count = -1
        self._shut_down = False
        # (merged stats snapshot, merged raw cost profile) captured at
        # shutdown: every stats view stays readable without the pool.
        self._final_stats: Optional[Tuple[Dict[str, dict], Dict]] = None
        # Observe mode: latest full per-shard telemetry (replace
        # semantics — registries/stage totals are cumulative on the
        # worker) plus incrementally absorbed events and drained traces.
        self._shard_registry: Dict[int, dict] = {}
        self._shard_trace: Dict[int, dict] = {}
        self._wire_spans: List[dict] = []
        super().__init__(
            config,
            cluster or SimulatedCluster(),
            on_deliver=on_deliver,
        )

    # -- backend seam ------------------------------------------------------

    def _make_runtime(self) -> ShardedRuntime:
        """Spawn a fresh worker pool (terminating any previous one)."""
        previous = getattr(self, "runtime", None)
        if isinstance(previous, ShardedRuntime):
            previous.terminate()
        pool = ProcessShardPool(
            self.workers,
            AStreamShardFactory(
                self.config,
                deliver_sample_every=(
                    self._deliver_sample_every
                    if self._pool_on_deliver is not None
                    else 0
                ),
            ),
            on_deliver=self._pool_on_deliver,
            frame_records=self._frame_records,
            max_in_flight=self._max_in_flight,
            on_obs=self._on_shard_obs if self.obs is not None else None,
            on_stall=self._on_stall if self.obs is not None else None,
            heartbeat_interval_s=self.heartbeat_interval_s,
            ack_deadline_s=self.ack_deadline_s,
        )
        self._merged_at_op_count = -1
        return ShardedRuntime(pool, repartitioner=self._repartition)

    def _repartition(self, states: List[Any], new_count: int) -> List[Any]:
        """Key-aware re-split hook injected into the sharded runtime."""
        from repro.core.migration import repartition_shard_states

        return repartition_shard_states(
            states, new_count, retain_results=self.config.retain_results
        )

    # -- cross-worker telemetry --------------------------------------------

    def _on_shard_obs(self, shard: int, payload: dict) -> None:
        """Fold one worker's piggybacked telemetry into the coordinator.

        Events are incremental (re-sequenced into the coordinator log
        with a ``shard`` label); registry and stage totals are cumulative
        worker-side, so the latest shipment replaces the previous one;
        per-tuple trace entries are drained worker-side and accumulate
        here.
        """
        events = payload.get("events")
        if events:
            self.obs.events.absorb(events, shard=shard)
        registry = payload.get("registry")
        if registry is not None:
            self._shard_registry[shard] = registry
        wire_spans = payload.get("wire_spans")
        if wire_spans:
            self._wire_spans.extend(wire_spans)
            del self._wire_spans[:-512]
        trace = payload.get("trace")
        if trace is not None:
            previous = self._shard_trace.get(shard)
            if previous is None:
                self._shard_trace[shard] = trace
            else:
                previous["stage_totals"] = trace["stage_totals"]
                previous["e2e_count"] = trace["e2e_count"]
                previous["e2e_total_ns"] = trace["e2e_total_ns"]
                previous["traces"] = (
                    previous.get("traces", []) + trace.get("traces", [])
                )[:512]

    def _on_stall(self, shard: int, waited_ns: int) -> None:
        """A frame send blocked on the credit window (backpressure)."""
        waited_ms = waited_ns / 1e6
        self.obs.registry.counter(
            "backpressure_stalls", shard=str(shard)
        ).inc()
        self.obs.registry.histogram("backpressure_stall_ms").record(waited_ms)
        self.obs.events.emit(
            "backpressure_stall", shard=shard, waited_ms=waited_ms
        )

    # -- results (merged from shards) --------------------------------------

    def _refresh_results(self) -> None:
        """Re-merge shard channels if new ops were submitted since."""
        pool = self.runtime.pool
        if pool.op_count == self._merged_at_op_count:
            return
        snapshots = self.runtime.collect_channels()
        merged = merge_channel_snapshots(
            snapshots, self.config.retain_results
        )
        self.channels.restore(merged)
        self._merged_at_op_count = pool.op_count

    def results(self, query_id: str) -> List[QueryOutput]:
        """Merged results for one query, in canonical order.

        Unlike the in-process engine — whose per-channel order is
        arrival order — the process backend can only offer the
        deterministic merge order, which is the same for every worker
        count.  Compare backends via :meth:`canonical_results`.
        """
        self._refresh_results()
        return self.channels.results(query_id)

    def canonical_results(self, query_id: str) -> List[QueryOutput]:
        """Merged results in the deterministic cross-backend order."""
        self._refresh_results()
        return self.channels.canonical_results(query_id)

    def result_count(self, query_id: str) -> int:
        """Merged delivered-result count for one query."""
        self._refresh_results()
        return self.channels.count(query_id)

    def result_counts(self) -> Dict[str, int]:
        """Merged delivered-result count per query."""
        self._refresh_results()
        return super().result_counts()

    def drain(self) -> None:
        """Flush frame buffers and await every worker acknowledgement."""
        self.runtime.drain()

    def _collect_stats(self) -> Tuple[Dict[str, dict], Dict]:
        """Every shard's stats snapshot and raw cost profile, each merged
        into one (the cached finals after :meth:`shutdown`)."""
        if self._final_stats is not None:
            return self._final_stats
        replies = self.runtime.collect_stats()
        return (
            merge_snapshots(reply["snapshot"] for reply in replies),
            merge_cost_profiles(reply["cost"] for reply in replies),
        )

    def stats_snapshot(self) -> Dict[str, dict]:
        """The shards' stats snapshots merged by each stat's hint — the
        coordinator deploys no operators of its own."""
        return self._collect_stats()[0]

    def _raw_cost_profile(self) -> Dict:
        """The shards' raw (slot-mask-keyed) cost profiles, merged; the
        inherited :meth:`cost_profile` resolves the masks against the
        coordinator's registry — worker registries are never driven."""
        return self._collect_stats()[1]

    def take_wire_spans(self) -> List[dict]:
        """Drain per-shard wall spans of traced batches (observe mode:
        they ride the ack piggybacks as wire-trace detail)."""
        spans = self._wire_spans
        self._wire_spans = []
        return spans

    # -- telemetry (merged from shards) -------------------------------------

    def obs_snapshot(self) -> Dict:
        """Cluster-wide telemetry: coordinator + every shard, merged.

        The combined registry keeps per-shard addressability (worker
        entries gain a ``shard`` label) alongside the coordinator's
        control-plane metrics and cluster-total operator gauges, and
        adds ``shard_records{shard=N}`` / ``straggler_skew`` gauges.
        Trace snapshots merge across shards, so the breakdown covers
        work wherever it ran.  After :meth:`shutdown` it is rebuilt from
        the telemetry the final stats round-trip carried back.
        """
        if self.obs is None:
            raise RuntimeError("telemetry needs EngineConfig(observe=True)")
        # Live, this is the round-trip whose acks refresh _shard_registry
        # and _shard_trace.
        self._refresh_obs_gauges()
        shard_records = self._shard_input_records()
        for shard, count in shard_records.items():
            self.obs.registry.gauge("shard_records", shard=str(shard)).set(
                count
            )
        if shard_records:
            self.obs.registry.gauge("straggler_skew").set(
                self.straggler_skew_estimate() or 0.0
            )
        combined = merge_snapshots(
            [self.obs.registry.snapshot()]
            + [
                relabel_snapshot(snapshot, shard=str(shard))
                for shard, snapshot in sorted(self._shard_registry.items())
            ]
        )
        trace = merge_trace_snapshots(
            [self.obs.tracer.snapshot()]
            + [s for _, s in sorted(self._shard_trace.items())]
        )
        return {
            "registry": combined,
            "trace": trace,
            "events_total": self.obs.events.total_emitted,
            "events_dropped": self.obs.events.dropped,
            "shards": {
                str(shard): snapshot
                for shard, snapshot in sorted(self._shard_registry.items())
            },
        }

    def shutdown(self) -> None:
        """Merge final results, cache stats, and stop the worker pool.

        Results, every stats view and the telemetry snapshot stay
        readable afterwards (from coordinator-side caches), so sweeps can shut each run's pool down eagerly instead
        of accumulating live worker processes.
        """
        if self._shut_down:
            return
        self._refresh_results()
        # In observe mode the same round-trip carries back each shard's
        # final registry and trace for obs_snapshot().
        self._final_stats = self._collect_stats()
        self._shut_down = True
        super().shutdown()

    # -- elasticity (ISSUE 6) ----------------------------------------------

    MIGRATION_PAUSE_WINDOW = 256
    """Pause samples retained for the resize-latency gate."""

    def _record_pause(self, started: float) -> None:
        paused_ms = (time.perf_counter() - started) * 1e3
        self.migration_pauses_ms.append(paused_ms)
        del self.migration_pauses_ms[: -self.MIGRATION_PAUSE_WINDOW]
        if self.obs is not None:
            self.obs.registry.histogram("migration_pause_ms").record(paused_ms)

    @property
    def migration_active(self) -> bool:
        """True while a resize migration has shards awaiting state."""
        runtime = self.runtime
        return isinstance(runtime, ShardedRuntime) and runtime.migration_active

    def begin_resize(self, workers: int) -> None:
        """Start a live resize to ``workers`` shards.

        Exports and re-splits all shard state and swaps the worker set;
        per-shard restores happen incrementally via
        :meth:`migration_step` (or implicitly on the next synchronous
        engine operation).  Ingest continues throughout — ops for
        not-yet-restored shards are buffered and replayed in order.
        Watermark progress is re-injected ahead of the replay, exactly
        as checkpoint recovery does.
        """
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if workers == self.workers and not self.migration_active:
            return
        started = time.perf_counter()
        prefix = [
            (f"source:{stream}", Watermark(timestamp=watermark_ms))
            for stream, watermark_ms in sorted(self._stream_watermarks.items())
        ]
        self.runtime.begin_resize(workers, prefix)
        self.workers = workers
        self._migrations_total += 1
        if self.obs is not None:
            self.obs.registry.counter("migrations").inc()
            self.obs.events.emit("resize_begun", workers=workers)
        self._record_pause(started)

    def migration_step(self) -> bool:
        """Restore one pending shard; True when a shard was migrated."""
        runtime = self.runtime
        if not isinstance(runtime, ShardedRuntime) or not runtime.migration_active:
            return False
        started = time.perf_counter()
        stepped = runtime.migration_step()
        if stepped:
            self._migration_steps_total += 1
            self._record_pause(started)
        return stepped

    def resize(self, workers: int) -> None:
        """Blocking resize: begin the migration and drive it to the end."""
        self.begin_resize(workers)
        while self.migration_step():
            pass

    def poll_worker_failures(self) -> List[Any]:
        """Drain proactively detected worker failures (liveness probes).

        Requires ``heartbeat_interval_s``; without it the list is always
        empty and death is only discovered on the next send.
        """
        failures = self.runtime.pool.poll_failures()
        for failure in failures:
            self._worker_failures_by_reason[failure.reason] = (
                self._worker_failures_by_reason.get(failure.reason, 0) + 1
            )
            if self.obs is not None:
                self.obs.registry.counter(
                    "worker_failures", reason=failure.reason
                ).inc()
                self.obs.events.emit(
                    "worker_failure",
                    shard=failure.shard,
                    reason=failure.reason,
                )
        return failures

    def migration_counters(self) -> Dict[str, Any]:
        """Cumulative elasticity counters (survive pool replacement)."""
        runtime = self.runtime
        buffered = (
            runtime.migration_records_buffered
            if isinstance(runtime, ShardedRuntime)
            else 0
        )
        return {
            "migrations": self._migrations_total,
            "migration_steps": self._migration_steps_total,
            "migration_active": self.migration_active,
            "migration_records_buffered": buffered,
            "worker_failures": sum(
                self._worker_failures_by_reason.values()
            ),
            "worker_failures_by_reason": dict(
                self._worker_failures_by_reason
            ),
        }

    def _shard_input_records(self) -> Dict[int, float]:
        """Input records per shard, from the cached shard telemetry.

        The selection stage sees every input record routed to its shard
        exactly once per stream, so per-shard select input counts
        measure the key-partitioning balance.
        """
        return {
            shard: sum(
                entry["value"]
                for entry in snapshot.values()
                if entry["name"] == "operator_records_in"
                and entry["labels"].get("operator", "").startswith("select:")
            )
            for shard, snapshot in self._shard_registry.items()
        }

    def straggler_skew_estimate(self) -> Optional[float]:
        """max/mean shard input from the *cached* per-shard telemetry.

        Reuses whatever registry snapshots the unlimited-ack stream has
        already carried back — no pool round-trip.  None without
        telemetry data.
        """
        shard_records = self._shard_input_records()
        if not shard_records:
            return None
        mean = sum(shard_records.values()) / len(shard_records)
        if not mean:
            return None
        return max(shard_records.values()) / mean

    # -- chaos -------------------------------------------------------------

    def kill_worker(self, shard: int) -> None:
        """SIGKILL one shard worker (its un-checkpointed state is lost).

        Follow with :meth:`recover` to rebuild the pool from the latest
        checkpoint and the input-log suffix.
        """
        self.runtime.pool.kill(shard)

    @property
    def alive_workers(self) -> int:
        """Shard workers currently healthy."""
        return self.runtime.pool.alive_workers
