"""The networked multi-tenant stream service (control + data planes).

:class:`AStreamServer` puts a front door on the engine: many
independent clients connect over TCP, create and delete ad-hoc queries
at runtime, feed events, and stream their queries' results back — the
paper's serving setting (hundreds of ad-hoc queries per second from
many users, §1) exercised over a real wire instead of direct Python
calls.

One server process hosts one engine — the in-process
:class:`~repro.core.engine.AStreamEngine` or the process-sharded
:class:`~repro.core.parallel_engine.ProcessAStreamEngine` — behind an
:class:`~repro.serve.gate.EngineGate` that serialises access and
supervises worker recovery.  The asyncio loop is the control plane's
single-writer: every session's frames apply in arrival order, so
changelog sequence numbers give clients an exact global order of query
lifecycle events.

Plane by plane:

* **control** — authenticated sessions submit ``create_query`` /
  ``delete_query`` (a serde document or SQL text), gated through the
  existing :class:`~repro.core.admission.AdmissionController` and QoS
  monitor; acks carry the changelog sequence at which the request took
  effect, so a client knows *exactly* when its query is live;
* **data** — ``push`` frames carry event micro-batches into the
  engine's :meth:`push_many` batch path, paced by per-session ingest
  credits (the same credit discipline the shard pool uses for worker
  IPC);
* **results** — subscriptions fan deliveries out through the
  :class:`~repro.serve.subscriptions.SubscriptionHub` with bounded
  buffers and visible slow-consumer shedding;
* **ops** — ``GET /metrics`` (Prometheus) on a sidecar HTTP listener,
  ``obs_snapshot`` over the wire (the pipeline inspector attaches to a
  live server with it), and graceful drain/shutdown that checkpoints
  the engine before exit.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import logging
import os
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    PlacementPolicy,
    QueryPlacer,
)
from repro.core.changelog import Changelog
from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.parallel_engine import ProcessAStreamEngine
from repro.core.qos import QoSMonitor, QoSThresholds
from repro.core.serde import SerdeError, output_to_dict, query_from_dict
from repro.core.sql import SqlError, parse_query
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.minispe.parallel import ShardWorkerError
from repro.minispe.record import RecordBatch
from repro.obs import MetricsRegistry, render_prometheus, write_flight_record
from repro.obs.cost import cost_summary
from repro.obs.slo import SLOTracker
from repro.obs.tracing import WireTraceBook, breakdown_from_snapshot
from repro.serve.autoscale import Autoscaler, AutoscalePolicy
from repro.serve.gate import EngineGate
from repro.serve.httpmetrics import MetricsHttpServer
from repro.serve.protocol import (
    CODEC_BINARY,
    PROTOCOL_VERSION,
    SUPPORTED_CODECS,
    ProtocolError,
    decode_events,
    encode_result_binary,
    error_frame,
    negotiate_codec,
    read_frame,
    write_frame,
)
from repro.serve.state import (
    DEFAULT_INGEST_CREDITS,
    SessionRegistry,
    SessionState,
)
from repro.serve.subscriptions import DEFAULT_BUFFER_OUTPUTS, SubscriptionHub

logger = logging.getLogger("repro.serve.server")


@dataclass
class ServeConfig:
    """One server deployment's knobs."""

    host: str = "127.0.0.1"
    port: int = 0
    """TCP port for the frame protocol (0 = ephemeral)."""
    auth_token: Optional[str] = None
    """Shared-secret session auth; ``None`` accepts any client."""
    backend: str = "inline"
    """``inline`` or ``process`` (sharded worker pool)."""
    workers: int = 2
    """Worker processes for the process backend."""
    streams: Tuple[str, ...] = ("A", "B")
    max_join_arity: int = 1
    changelog_batch_size: int = 100
    changelog_timeout_ms: int = 50
    flush_on_submit: bool = True
    """Flush the shared session right after each control request, so the
    ack can carry the changelog sequence synchronously.  ``False``
    restores the paper's batched changelogs: acks return without a
    sequence and a ``query_event`` frame announces liveness when the
    batch/timeout flush happens."""
    log_inputs: bool = True
    """Keep the input log so the server can checkpoint/recover."""
    checkpoint_on_drain: bool = True
    observe: bool = False
    """Enable the engine's telemetry subsystem (obs_snapshot carries the
    full registry/trace/events picture when on)."""
    obs_sample_every: int = 32
    metrics_port: Optional[int] = None
    """HTTP ``/metrics`` sidecar port (None disables, 0 = ephemeral)."""
    max_active_queries: Optional[int] = None
    max_deferred: int = 1_000
    max_deployment_latency_ms: Optional[float] = None
    """QoS threshold: deferring admissions above this deployment
    latency (None disables the check)."""
    subscriber_buffer: int = DEFAULT_BUFFER_OUTPUTS
    result_frame_outputs: int = 512
    """Max outputs per streamed ``result`` frame."""
    ingest_credits: int = DEFAULT_INGEST_CREDITS
    tick_interval_ms: int = 20
    """Background tick cadence: session timeout flushes, deferred
    admission retries, subscription flushing."""
    clock: str = "wall"
    """``wall`` stamps control requests with server uptime;``manual``
    advances only on client-supplied ``at_ms``/watermarks, keeping runs
    deterministic for equivalence testing."""
    write_buffer_limit: int = 4 * 1024 * 1024
    """Per-connection transport backlog above which subscription
    flushing skips the connection (results keep buffering — and
    eventually shedding — in the hub instead of in kernel memory)."""
    heartbeat_interval_s: Optional[float] = None
    """Process-backend worker liveness probe cadence (None disables the
    pool monitor; deaths then surface on the next data-path send)."""
    ack_deadline_s: Optional[float] = None
    """Process-backend wedge detector: a worker with outstanding frames
    and no ack progress for this long is killed and reported."""
    autoscale: bool = False
    """Let the ticker resize the worker pool from backpressure-stall
    rates and straggler skew (process backend only)."""
    autoscale_min_workers: int = 1
    autoscale_max_workers: int = 8
    autoscale_interval_ms: int = 1_000
    autoscale_cooldown_ms: int = 5_000
    autoscale_stall_rate: float = 2.0
    """Pool stalls/sec that trigger a scale-up."""
    autoscale_skew: float = 3.0
    """``straggler_skew`` estimate that triggers a scale-up."""
    dead_letter_limit: int = 256
    """Push batches parked after recovery+retry both failed; oldest are
    evicted beyond this depth (0 disables dead-lettering)."""
    placement_groups: int = 1
    """Shard groups for admission-time placement (affinity co-location
    + expensive-query isolation); 1 keeps everything co-located."""
    codecs: Tuple[str, ...] = SUPPORTED_CODECS
    """Wire codecs this server negotiates, in preference-filter order;
    ``("json",)`` pins every session to JSON (the old-server shape the
    client fallback tests simulate)."""
    slo_target_ms: Optional[float] = None
    """Default wire-to-delivery latency SLO for every created query
    (``create_query`` frames override per query with ``slo_ms``).
    None tracks latency without a target (burn rates read 0)."""
    slo_objective: float = 0.99
    """The SLO objective: the fraction of traced deliveries that must
    land under the target before the error budget starts burning."""
    slo_burn_pressure: float = 2.0
    """Burn rate at/above which subscription pressure (halved buffers)
    is applied to the offending query; also the QoS violation line."""
    trace_tail: int = 256
    """Closed wire-trace records kept for flight-recorder dumps."""
    flight_dir: Optional[str] = None
    """Directory for flight-recorder dumps written when the gate
    performs a recovery (``ASTREAM_FLIGHT_DIR`` is the env fallback;
    both unset disables the recorder)."""
    engine_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.backend not in ("inline", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        for codec in self.codecs:
            if codec not in SUPPORTED_CODECS:
                raise ValueError(f"unknown codec {codec!r}")
        if "json" not in self.codecs:
            raise ValueError("the json codec cannot be disabled")
        if self.clock not in ("wall", "manual"):
            raise ValueError(f"unknown clock mode {self.clock!r}")
        if self.autoscale and self.backend != "process":
            raise ValueError("autoscale needs the process backend")
        if self.placement_groups < 1:
            raise ValueError("placement_groups must be >= 1")
        if not 0.0 < self.slo_objective < 1.0:
            raise ValueError("slo_objective must be in (0, 1)")
        if self.flight_dir is None:
            self.flight_dir = os.environ.get("ASTREAM_FLIGHT_DIR") or None


def build_engine(
    config: ServeConfig, qos: Optional[QoSMonitor] = None
) -> AStreamEngine:
    """Construct the hosted engine for a serve config."""
    engine_config = EngineConfig(
        streams=config.streams,
        max_join_arity=config.max_join_arity,
        parallelism=1,
        changelog_batch_size=config.changelog_batch_size,
        changelog_timeout_ms=config.changelog_timeout_ms,
        retain_results=True,
        log_inputs=config.log_inputs,
        observe=config.observe,
        obs_sample_every=config.obs_sample_every,
        **config.engine_overrides,
    )
    if config.backend == "process":
        # Delivery sampling stays off: QoS latency over IPC would tax
        # the very throughput the server exists to provide; the poll
        # flusher reads merged channels instead.
        return ProcessAStreamEngine(
            engine_config,
            cluster=SimulatedCluster(ClusterSpec(nodes=1), mode="process"),
            workers=config.workers,
            deliver_sample_every=0,
            heartbeat_interval_s=config.heartbeat_interval_s,
            ack_deadline_s=config.ack_deadline_s,
        )
    return AStreamEngine(
        engine_config,
        cluster=SimulatedCluster(ClusterSpec(nodes=1)),
        on_deliver=qos.on_deliver if qos is not None else None,
    )


class AStreamServer:
    """The asyncio TCP server fronting one shared-stream engine."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[AStreamEngine] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.qos = QoSMonitor(
            now_fn=self.now_ms,
            thresholds=QoSThresholds(
                max_deployment_latency_ms=(
                    self.config.max_deployment_latency_ms
                ),
                max_slo_burn_rate=self.config.slo_burn_pressure,
            ),
        )
        self.wire_traces = WireTraceBook(max_tail=self.config.trace_tail)
        self.slo = SLOTracker(objective=self.config.slo_objective)
        self._query_owner: Dict[str, str] = {}
        """query_id → owning client_id: the tenant axis for SLO rollups."""
        self._pressured: set = set()
        """Queries currently under SLO-burn subscription pressure."""
        self.engine = engine if engine is not None else build_engine(
            self.config, qos=self.qos
        )
        self.gate = EngineGate(self.engine, on_recovery=self._on_recovery)
        self.placer = QueryPlacer(
            PlacementPolicy(shard_groups=self.config.placement_groups)
        )
        self.admission = AdmissionController(
            self.engine,
            self.qos,
            AdmissionPolicy(
                max_active_queries=self.config.max_active_queries,
                defer_on_qos_violation=(
                    self.config.max_deployment_latency_ms is not None
                ),
                max_deferred=self.config.max_deferred,
            ),
            placer=self.placer,
        )
        self.dead_letters: Deque[Tuple[str, list]] = deque(
            maxlen=max(1, self.config.dead_letter_limit)
        )
        self._dead_lettered_total = 0
        self._autoscaler: Optional[Autoscaler] = None
        if self.config.autoscale and isinstance(
            self.engine, ProcessAStreamEngine
        ):
            self._autoscaler = Autoscaler(
                AutoscalePolicy(
                    min_workers=self.config.autoscale_min_workers,
                    max_workers=self.config.autoscale_max_workers,
                    evaluate_every_ms=self.config.autoscale_interval_ms,
                    cooldown_ms=self.config.autoscale_cooldown_ms,
                    scale_up_stall_rate=self.config.autoscale_stall_rate,
                    scale_up_skew=self.config.autoscale_skew,
                )
            )
        self.sessions = SessionRegistry()
        self.hub = SubscriptionHub(
            self.engine,
            tap_mode=not isinstance(self.engine, ProcessAStreamEngine),
            buffer_capacity=self.config.subscriber_buffer,
        )
        self._writers: Dict[str, asyncio.StreamWriter] = {}
        self._awaiting_flush: Dict[str, List[Tuple[SessionState, str]]] = {}
        """query_id → (session, kind) pairs waiting for the changelog
        flush that makes the request effective (batched-flush mode)."""
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_http: Optional[MetricsHttpServer] = None
        self._ticker_task: Optional[asyncio.Task] = None
        self._stopping: Optional[asyncio.Event] = None
        self._started_monotonic = time.monotonic()
        self._manual_now_ms = 0
        self._last_sequence = 0
        self._last_changelog_ms = 0
        self._shutdown_checkpoint: Optional[int] = None
        self._closed = False

    # -- clock -------------------------------------------------------------

    def now_ms(self) -> int:
        """The server's control-plane clock (see ``ServeConfig.clock``)."""
        if self.config.clock == "manual":
            return self._manual_now_ms
        return int((time.monotonic() - self._started_monotonic) * 1_000)

    def _observe_time(self, at_ms: Optional[int]) -> int:
        """Fold a client-supplied timestamp into the clock; return now."""
        if at_ms is not None:
            self._manual_now_ms = max(self._manual_now_ms, int(at_ms))
            return int(at_ms)
        return self.now_ms()

    def _control_time(self, frame: Dict[str, Any]) -> int:
        """The event time of a ``create_query``/``delete_query`` frame.

        Epochs only move forward: a changelog stamped behind one already
        applied is refused by the operators' epoch timelines — after its
        marker has reached some of them.  Such a frame is rejected here,
        before the request reaches the session, so the connection and
        the engine stay usable.
        """
        at_ms = frame.get("at_ms")
        if at_ms is not None and int(at_ms) < self._last_changelog_ms:
            raise ProtocolError(
                "bad_time",
                f"at_ms {at_ms} lies before the last applied changelog "
                f"at {self._last_changelog_ms}",
            )
        return self._observe_time(at_ms)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind listeners and start the background ticker."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.config.metrics_port is not None:
            self._metrics_http = MetricsHttpServer(
                self.render_metrics,
                host=self.config.host,
                port=self.config.metrics_port,
            )
            await self._metrics_http.start()
        self._ticker_task = asyncio.create_task(self._ticker())
        logger.info(
            "serving %s backend on %s:%d (metrics: %s)",
            self.config.backend,
            self.config.host,
            self.port,
            self._metrics_http.port if self._metrics_http else "off",
        )

    @property
    def port(self) -> int:
        """The bound frame-protocol port."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound HTTP metrics port (None when disabled)."""
        return self._metrics_http.port if self._metrics_http else None

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` frame)."""
        if self._stopping is None:
            raise RuntimeError("call start() first")
        await self._stopping.wait()

    async def stop(self, drain: bool = True) -> None:
        """Graceful teardown: drain, checkpoint, close, release.

        ``drain`` settles in-flight work and (with ``log_inputs``)
        takes a final checkpoint before the engine shuts down, so a
        restarted server could recover the query population.
        """
        if self._closed:
            return
        self._closed = True
        if self._ticker_task is not None:
            self._ticker_task.cancel()
            try:
                await self._ticker_task
            except asyncio.CancelledError:
                pass
        if drain:
            try:
                self._drain_engine(checkpoint=self.config.log_inputs)
                await self._flush_subscriptions(force=True)
            except ShardWorkerError:
                logger.warning("drain failed during shutdown", exc_info=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_http is not None:
            await self._metrics_http.stop()
        for writer in list(self._writers.values()):
            writer.close()
        self.engine.shutdown()
        if self._stopping is not None:
            self._stopping.set()
        logger.info("server stopped (final checkpoint: %s)",
                    self._shutdown_checkpoint)

    def _drain_engine(self, checkpoint: bool) -> None:
        self.gate.call(self.engine.drain)
        self.hub.poll()
        if checkpoint and self.config.log_inputs:
            self._shutdown_checkpoint = self.gate.call(self.engine.checkpoint)

    def _on_recovery(self, info) -> None:
        # Replay may have applied changelogs past what this loop saw.
        self._last_sequence = max(
            self._last_sequence, self.engine.session._next_sequence - 1
        )
        self.registry.counter("serve_recoveries").inc()
        logger.info(
            "supervised recovery: checkpoint %s, replayed %d",
            info.checkpoint_id,
            info.replayed_elements,
        )
        if self.config.flight_dir:
            # Post-incident forensics must never turn a successful
            # recovery into a failure — best-effort only.
            try:
                self._dump_flight_record(info)
            except Exception:
                logger.warning("flight-recorder dump failed", exc_info=True)

    def _dump_flight_record(self, info) -> None:
        """Write the pre-incident picture next to a completed recovery."""
        incident = len(self.gate.recoveries)
        snapshot: Optional[Dict[str, Any]] = None
        events_jsonl = ""
        if self.engine.obs is not None:
            try:
                snapshot = self.engine.obs_snapshot()
            except ShardWorkerError:
                snapshot = None
            events_jsonl = "\n".join(
                json.dumps(event, sort_keys=True, default=str)
                for event in self.engine.obs.events.tail(256)
            )
        paths = write_flight_record(
            self.config.flight_dir,
            f"recovery_{incident}",
            info={
                "incident": incident,
                "checkpoint_id": info.checkpoint_id,
                "replayed_elements": info.replayed_elements,
                "now_ms": self.now_ms(),
                "slo": self.slo.summary(),
            },
            snapshot=snapshot,
            wire_traces={
                "summary": self.wire_traces.snapshot(),
                "tail": self.wire_traces.tail(),
            },
            events_jsonl=events_jsonl,
        )
        logger.info("flight record written: %s", sorted(paths.values()))

    # -- background ticker -------------------------------------------------

    async def _ticker(self) -> None:
        interval = self.config.tick_interval_ms / 1_000.0
        while True:
            await asyncio.sleep(interval)
            try:
                now = self.now_ms()
                changelog = self.gate.call(self.engine.tick, now)
                if changelog is not None:
                    self._note_changelogs([changelog])
                    await self._announce_flushed([changelog])
                if self.admission.deferred_count:
                    with self.gate.locked():
                        admitted = self.admission.retry_deferred(now)
                        if admitted and self.config.flush_on_submit:
                            flushed = self.engine.flush_session(now)
                    if admitted:
                        self._note_changelogs(flushed)
                        await self._announce_flushed(flushed)
                self._elasticity_tick(now)
                if not self.hub.tap_mode:
                    with self.gate.locked():
                        self.hub.poll()
                await self._flush_subscriptions()
            except asyncio.CancelledError:
                raise
            except ShardWorkerError:
                logger.warning("tick hit a dead worker; next op recovers",
                               exc_info=True)
            except Exception:
                logger.exception("ticker iteration failed")

    def _elasticity_tick(self, now: int) -> None:
        """Per-tick elasticity duties (process backend only): drive one
        in-flight migration step, drain liveness-detected worker deaths
        into a gate-bookkept recovery, retry dead-lettered pushes, and
        consult the autoscaler."""
        engine = self.engine
        if not isinstance(engine, ProcessAStreamEngine):
            return
        with self.gate.locked():
            if engine.migration_active:
                # One shard per tick keeps ticks short; the remaining
                # shards keep buffering their ops in order.
                engine.migration_step()
            failures = engine.poll_worker_failures()
            if failures:
                self.registry.counter("serve_worker_failures").inc(
                    len(failures)
                )
                if (
                    not engine.migration_active
                    and engine.alive_workers < engine.workers
                ):
                    # Proactive recovery: the idle death was found by the
                    # heartbeat probe, not by a failed send — recover now
                    # so detection latency bounds repair latency.
                    first = failures[0]
                    try:
                        self.gate._recover(
                            ShardWorkerError(
                                first.shard, f"liveness probe: {first.reason}"
                            )
                        )
                    except ShardWorkerError:
                        logger.warning(
                            "proactive recovery failed", exc_info=True
                        )
            if self.dead_letters:
                self._retry_dead_letters()
            if self._autoscaler is not None and not engine.migration_active:
                target = self._autoscaler.evaluate(
                    now_ms=now,
                    workers=engine.workers,
                    stall_total=sum(engine.runtime.pool.stall_counts),
                    skew=engine.straggler_skew_estimate(),
                    burn_rate=self.slo.max_burn_rate(),
                )
                if target is not None:
                    logger.info(
                        "autoscaling %d -> %d workers (%s)",
                        engine.workers,
                        target,
                        self._autoscaler.decisions[-1].reason,
                    )
                    self.gate.call(engine.begin_resize, target)
                    self.registry.counter("serve_autoscale_resizes").inc()

    def _retry_dead_letters(self) -> None:
        """Re-ingest parked pushes FIFO; stop at the first failure."""
        while self.dead_letters:
            stream, events = self.dead_letters[0]
            # Binary pushes park as columnar RecordBatches, JSON pushes
            # as (timestamp, value) pairs — re-ingest each through the
            # seam it arrived on.
            ingest = (
                self.engine.push_batch
                if isinstance(events, RecordBatch)
                else self.engine.push_many
            )
            try:
                self.gate.call(ingest, stream, events)
            except ShardWorkerError:
                return
            self.dead_letters.popleft()
            self.registry.counter("serve_dead_letters_replayed").inc(
                len(events)
            )

    def _note_changelogs(self, changelogs: List[Changelog]) -> None:
        for changelog in changelogs:
            self._last_sequence = max(self._last_sequence, changelog.sequence)
            self._last_changelog_ms = max(
                self._last_changelog_ms, changelog.timestamp_ms
            )

    async def _announce_flushed(self, changelogs: List[Changelog]) -> None:
        """Resolve batched-mode waiters with their changelog sequence."""
        if not self._awaiting_flush:
            return
        for changelog in changelogs:
            effects = [
                (activation.query.query_id, "live")
                for activation in changelog.created
            ] + [
                (deactivation.query_id, "stopped")
                for deactivation in changelog.deleted
            ]
            for query_id, event in effects:
                waiters = self._awaiting_flush.pop(query_id, ())
                for session, _kind in waiters:
                    if event == "live":
                        session.owned_queries[query_id] = "live"
                    else:
                        session.owned_queries[query_id] = "stopped"
                    await self._send_to(
                        session,
                        {
                            "t": "query_event",
                            "event": event,
                            "query_id": query_id,
                            "sequence": changelog.sequence,
                        },
                    )

    # -- connections -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Optional[SessionState] = None
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as error:
                    # Malformed frame: answer, count, keep the session.
                    self.registry.counter("serve_protocol_errors").inc()
                    write_frame(
                        writer, error_frame(error.code, error.message)
                    )
                    await writer.drain()
                    continue
                if frame is None:
                    break
                session.frames_in += 1
                self.registry.counter("serve_frames_in").inc()
                try:
                    await self._dispatch(session, writer, frame)
                except ProtocolError as error:
                    self.registry.counter("serve_protocol_errors").inc()
                    write_frame(
                        writer,
                        error_frame(error.code, error.message,
                                    seq=frame.get("seq")),
                    )
                    await writer.drain()
                if self._closed:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if session is not None:
                self.sessions.detach(session)
                self._writers.pop(session.client_id, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[SessionState]:
        try:
            frame = await read_frame(reader)
        except ProtocolError as error:
            write_frame(writer, error_frame(error.code, error.message))
            await writer.drain()
            return None
        if frame is None:
            return None
        if frame.get("t") != "hello":
            write_frame(
                writer,
                error_frame("handshake_required",
                            "first frame must be hello"),
            )
            await writer.drain()
            return None
        expected = self.config.auth_token
        if expected is not None:
            supplied = frame.get("token") or ""
            if not hmac.compare_digest(str(supplied), expected):
                self.registry.counter("serve_auth_failures").inc()
                write_frame(
                    writer,
                    error_frame("auth_failed", "invalid auth token"),
                )
                await writer.drain()
                return None
        client_id = str(frame["client_id"]) or f"anon-{uuid.uuid4().hex[:8]}"
        session = self.sessions.attach(
            client_id, credits=self.config.ingest_credits
        )
        session.codec = negotiate_codec(
            frame.get("codecs"), self.config.codecs
        )
        self._writers[client_id] = writer
        write_frame(
            writer,
            {
                "t": "hello_ack",
                "session_id": session.session_id,
                "credits": session.credits,
                "codec": session.codec,
                "server": {
                    "protocol": PROTOCOL_VERSION,
                    "backend": self.config.backend,
                    "streams": list(self.config.streams),
                    "max_join_arity": self.config.max_join_arity,
                    "workers": (
                        self.engine.workers
                        if isinstance(self.engine, ProcessAStreamEngine)
                        else 1
                    ),
                },
            },
        )
        await writer.drain()
        return session

    async def _send_to(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> bool:
        """Best-effort frame delivery to a session's live connection."""
        writer = self._writers.get(session.client_id)
        if writer is None or writer.is_closing():
            return False
        try:
            write_frame(writer, frame)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        self.registry.counter("serve_frames_out").inc()
        return True

    async def _send_result(
        self,
        session: SessionState,
        query_id: str,
        outputs: List[Any],
        dropped: int,
    ) -> bool:
        """Ship one ``result`` frame in the session's negotiated codec.

        Binary sessions get the columnar encoding when the batch fits it
        (homogeneous int64-sized values); anything else falls back to a
        JSON frame, which every client accepts regardless of codec.
        """
        if session.codec == CODEC_BINARY:
            data = encode_result_binary(query_id, outputs, dropped)
            if data is not None:
                writer = self._writers.get(session.client_id)
                if writer is None or writer.is_closing():
                    return False
                try:
                    writer.write(data)
                    await writer.drain()
                except (ConnectionError, OSError):
                    return False
                self.registry.counter("serve_frames_out").inc()
                return True
        return await self._send_to(
            session,
            {
                "t": "result",
                "query_id": query_id,
                "outputs": [output_to_dict(output) for output in outputs],
                "dropped": dropped,
            },
        )

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(
        self,
        session: SessionState,
        writer: asyncio.StreamWriter,
        frame: Dict[str, Any],
    ) -> None:
        kind = frame["t"]
        if kind == "ping":
            write_frame(writer, {"t": "pong"})
            await writer.drain()
            return
        if kind == "push":
            await self._handle_push(session, writer, frame)
            return
        if kind == "watermark":
            self._handle_watermark(frame)
            return
        seq = frame.get("seq")
        if seq is not None:
            cached = session.replay(seq)
            if cached is not None:
                self.registry.counter("serve_idempotent_replays").inc()
                write_frame(writer, cached)
                await writer.drain()
                return
        handler = {
            "create_query": self._handle_create,
            "delete_query": self._handle_delete,
            "subscribe": self._handle_subscribe,
            "unsubscribe": self._handle_unsubscribe,
            "fetch_results": self._handle_fetch_results,
            "stats": self._handle_stats,
            "obs_snapshot": self._handle_obs_snapshot,
            "chaos": self._handle_chaos,
            "resize": self._handle_resize,
            "drain": self._handle_drain,
            "shutdown": self._handle_shutdown,
        }.get(kind)
        if handler is None:
            raise ProtocolError(
                "unexpected_frame", f"server does not accept {kind!r} frames"
            )
        reply = handler(session, frame)
        if asyncio.iscoroutine(reply):
            reply = await reply
        if reply is not None:
            session.remember(seq, reply)
            write_frame(writer, reply)
            await writer.drain()
            self.registry.counter("serve_frames_out").inc()

    # -- control plane -----------------------------------------------------

    def _parse_query_payload(self, frame: Dict[str, Any]):
        if "query" in frame:
            try:
                return query_from_dict(frame["query"])
            except (SerdeError, KeyError, TypeError, ValueError) as error:
                raise ProtocolError(
                    "bad_query", f"undecodable query document: {error}"
                ) from None
        if "sql" in frame:
            try:
                return parse_query(frame["sql"])
            except SqlError as error:
                raise ProtocolError("bad_sql", str(error)) from None
        raise ProtocolError(
            "missing_field", "create_query needs a query document or sql text"
        )

    def _handle_create(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        query = self._parse_query_payload(frame)
        slo_ms = frame.get("slo_ms", self.config.slo_target_ms)
        if slo_ms is not None:
            try:
                slo_ms = float(slo_ms)
                if slo_ms <= 0:
                    raise ValueError
            except (TypeError, ValueError):
                raise ProtocolError(
                    "bad_slo", f"slo_ms must be a positive number, "
                    f"got {frame.get('slo_ms')!r}"
                ) from None
        now = self._control_time(frame)
        with self.gate.locked():
            try:
                decision = self.admission.submit(query, now)
            except ShardWorkerError as error:
                # The submit reached the session before the dead worker
                # surfaced; recovery + flush makes it effective exactly
                # once (the marker is in the replayed input log).
                self.gate._recover(error)
                decision = AdmissionDecision.ADMIT
            except ValueError as error:
                raise ProtocolError("bad_query", str(error)) from None
            flushed: List[Changelog] = []
            if (
                decision is AdmissionDecision.ADMIT
                and self.config.flush_on_submit
            ):
                flushed = self.gate.call(self.engine.flush_session, now)
        self._note_changelogs(flushed)
        reply: Dict[str, Any] = {
            "t": "ack",
            "seq": frame["seq"],
            "status": decision.value,
            "query_id": query.query_id,
        }
        if decision is not AdmissionDecision.REJECT:
            self._query_owner[query.query_id] = session.client_id
            self.slo.declare(
                query.query_id, slo_ms, tenant=session.client_id
            )
            if slo_ms is not None:
                reply["slo_ms"] = slo_ms
        if decision is AdmissionDecision.ADMIT:
            self.registry.counter("serve_queries_created").inc()
            sequence = _sequence_of(flushed, query.query_id, "created")
            if sequence is None and query.query_id in self.engine.session.registry:
                # A supervised recovery replayed the changelog marker
                # before the explicit flush ran; the query is live but
                # its activation rode the replay, not this flush.
                sequence = self._last_sequence
            if sequence is not None:
                session.owned_queries[query.query_id] = "live"
                reply["sequence"] = sequence
            else:
                session.owned_queries[query.query_id] = "pending"
                self._awaiting_flush.setdefault(query.query_id, []).append(
                    (session, "create")
                )
        elif decision is AdmissionDecision.DEFER:
            self.registry.counter("serve_admission_deferred").inc()
            session.owned_queries[query.query_id] = "pending"
            self._awaiting_flush.setdefault(query.query_id, []).append(
                (session, "create")
            )
        else:
            self.registry.counter("serve_admission_rejected").inc()
        return reply

    def _handle_delete(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        query_id = str(frame["query_id"])
        now = self._control_time(frame)
        with self.gate.locked():
            parked = any(
                request.query.query_id == query_id
                for request in self.admission.deferred
            )
            if not parked and query_id not in self.engine.session.registry:
                raise ProtocolError(
                    "unknown_query", f"no live query {query_id!r}"
                )
            try:
                self.admission.stop(query_id, now)
            except ShardWorkerError as error:
                self.gate._recover(error)
            flushed: List[Changelog] = []
            if self.config.flush_on_submit:
                flushed = self.gate.call(self.engine.flush_session, now)
        self._note_changelogs(flushed)
        self.registry.counter("serve_queries_deleted").inc()
        self._query_owner.pop(query_id, None)
        self.slo.forget(query_id)
        self.qos.per_query_burn.pop(query_id, None)
        if query_id in self._pressured:
            self._pressured.discard(query_id)
            self.hub.set_pressure(query_id, False)
        reply: Dict[str, Any] = {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "query_id": query_id,
        }
        sequence = _sequence_of(flushed, query_id, "deleted")
        if sequence is None and query_id not in self.engine.session.registry:
            sequence = self._last_sequence
        if sequence is not None:
            session.owned_queries[query_id] = "stopped"
            reply["sequence"] = sequence
        else:
            self._awaiting_flush.setdefault(query_id, []).append(
                (session, "delete")
            )
        return reply

    # -- data plane --------------------------------------------------------

    async def _handle_push(
        self,
        session: SessionState,
        writer: asyncio.StreamWriter,
        frame: Dict[str, Any],
    ) -> None:
        if session.credits <= 0:
            raise ProtocolError(
                "no_credits",
                "push received with zero ingest credits; await push_ack",
            )
        stream = frame["stream"]
        if stream not in self.config.streams:
            raise ProtocolError("unknown_stream", f"unknown stream {stream!r}")
        trace = self._extract_trace(frame)
        t_client = time.monotonic_ns() if trace is not None else 0
        # Binary push frames arrive as columnar RecordBatches (columns
        # aliasing the frame buffer, rows unbuilt); JSON frames still
        # need the row codec and the pair-to-record rebuild in
        # push_many.
        if frame.get("_decoded"):
            events = frame["batch"]
            ingest = self.engine.push_batch
        else:
            events = decode_events(frame["events"])
            ingest = self.engine.push_many
        session.credits -= 1
        dead_lettered = 0
        t_server = time.monotonic_ns() if trace is not None else 0
        try:
            try:
                if not events:
                    accepted = 0
                elif trace is not None and not frame.get("_decoded"):
                    # JSON path: thread the context through push_many's
                    # trace seam (the binary decoder already stamped
                    # the batch itself).
                    accepted = self.gate.call(ingest, stream, events, trace)
                else:
                    accepted = self.gate.call(ingest, stream, events)
            except ShardWorkerError:
                if not self.config.dead_letter_limit:
                    raise
                # Recovery + retry both failed inside the gate: park the
                # batch instead of dropping it or killing the session.
                # The ticker re-ingests FIFO once the engine is healthy.
                self.dead_letters.append((stream, events))
                self._dead_lettered_total += len(events)
                self.registry.counter("serve_dead_lettered").inc(len(events))
                accepted = 0
                dead_lettered = len(events)
        finally:
            session.credits += 1
        t_shard = time.monotonic_ns() if trace is not None else 0
        session.tuples_in += accepted
        self.registry.counter("serve_push_frames").inc()
        self.registry.counter("serve_tuples_ingested").inc(accepted)
        ack: Dict[str, Any] = {"t": "push_ack", "credits": session.credits,
                               "accepted": accepted}
        if dead_lettered:
            ack["dead_lettered"] = dead_lettered
        if trace is not None:
            # Close the wire span at delivery: poll the merged channels
            # (poll backend) and force-flush subscriptions so results
            # this push produced are on the wire before the final stamp.
            # gate.call, not gate.locked(): the traced push may have
            # landed on a live shard while another shard sits dead, so
            # the cross-shard poll needs the gate's recovery supervision.
            if not self.hub.tap_mode:
                self.gate.call(self.hub.poll)
            delivered = await self._flush_subscriptions(force=True)
            t_deliver = time.monotonic_ns()
            record = self.wire_traces.close(
                trace[0],
                (
                    ("ingest", trace[1]),
                    ("client", t_client),
                    ("server", t_server),
                    ("shard", t_shard),
                    ("subscription", t_deliver),
                ),
                queries=sorted(delivered),
            )
            self._account_wire_trace(trace, record, delivered)
            ack["trace"] = {
                "id": trace[0],
                "e2e_ns": record["e2e_ns"],
                "spans": [[stage, span] for stage, span in record["spans"]],
                "queries": record["queries"],
            }
        write_frame(writer, ack)
        await writer.drain()

    def _extract_trace(
        self, frame: Dict[str, Any]
    ) -> Optional[Tuple[int, int]]:
        """The push frame's trace context ``(id, ingest_ns)``, if any."""
        context = frame.get("trace")
        if context is None:
            return None
        try:
            return (int(context["id"]), int(context["ingest_ns"]))
        except (KeyError, TypeError, ValueError):
            raise ProtocolError(
                "bad_trace", "trace needs integer id and ingest_ns fields"
            ) from None

    def _account_wire_trace(
        self,
        trace: Tuple[int, int],
        record: Dict[str, Any],
        delivered: Dict[str, int],
    ) -> None:
        """Fold one closed wire trace into the SLO/QoS/metrics surfaces."""
        registry = self.registry
        registry.counter("serve_traced_pushes").inc()
        e2e_ms = record["e2e_ns"] / 1e6
        registry.histogram("serve_wire_e2e_ms").record(e2e_ms)
        for stage, span_ns in record["spans"]:
            registry.counter("serve_trace_stage_ns", stage=stage).inc(
                max(0, span_ns)
            )
        if isinstance(self.engine, ProcessAStreamEngine):
            detail = [
                span
                for span in self.engine.take_wire_spans()
                if span.get("id") == trace[0]
            ]
            if detail:
                self.wire_traces.attach_detail(trace[0], detail)
        for query_id in delivered:
            tenant = self._query_owner.get(query_id)
            self.slo.observe(query_id, e2e_ms, tenant=tenant)
            registry.histogram("query_latency_ms", query=query_id).record(
                e2e_ms
            )
            if tenant is not None:
                registry.histogram(
                    "tenant_latency_ms", tenant=tenant
                ).record(e2e_ms)
            self.qos.observe_burn(query_id, self.slo.burn_rate(query_id))
        if delivered:
            self._apply_slo_pressure()

    def _apply_slo_pressure(self) -> None:
        """Reconcile subscription pressure with the burning-query set."""
        burning = set(
            self.slo.burning_queries(self.config.slo_burn_pressure)
        )
        for query_id in burning - self._pressured:
            self.hub.set_pressure(query_id, True)
            self.registry.counter("serve_slo_pressure_applied").inc()
        for query_id in self._pressured - burning:
            self.hub.set_pressure(query_id, False)
        self._pressured = burning

    def _handle_watermark(self, frame: Dict[str, Any]) -> None:
        timestamp = int(frame["timestamp"])
        self._observe_time(timestamp)
        stream = frame.get("stream")
        if stream is not None and stream not in self.config.streams:
            raise ProtocolError("unknown_stream", f"unknown stream {stream!r}")
        try:
            self.gate.call(self.engine.watermark, timestamp, stream)
        except KeyError as error:
            raise ProtocolError("unknown_stream", str(error)) from None

    # -- results -----------------------------------------------------------

    def _handle_subscribe(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        query_id = str(frame["query_id"])
        with self.gate.locked():
            subscription = self.hub.subscribe(
                session, query_id, from_start=bool(frame.get("from_start", True))
            )
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "query_id": query_id,
            "backlog": subscription.pending,
        }

    def _handle_unsubscribe(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        query_id = str(frame["query_id"])
        existed = self.hub.unsubscribe(session, query_id)
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok" if existed else "not_subscribed",
            "query_id": query_id,
        }

    def _handle_fetch_results(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        query_id = str(frame["query_id"])
        outputs = self.gate.call(self.engine.canonical_results, query_id)
        return {
            "t": "results",
            "seq": frame["seq"],
            "query_id": query_id,
            "outputs": [output_to_dict(output) for output in outputs],
        }

    async def _flush_subscriptions(
        self, force: bool = False
    ) -> Dict[str, int]:
        """Ship buffered subscription results as ``result`` frames.

        Connections whose transport backlog exceeds the write-buffer
        limit are skipped (unless forced): their results stay in the
        hub's bounded buffers, where overflow sheds visibly instead of
        ballooning kernel memory.

        Returns per-query delivered-output counts for this flush — the
        traced-push path closes its wire span against exactly the
        queries whose results went out before the closing stamp.
        """
        limit = self.config.result_frame_outputs
        delivered: Dict[str, int] = {}
        for session in self.sessions.sessions():
            if not session.subscriptions:
                continue
            writer = self._writers.get(session.client_id)
            if writer is None or writer.is_closing():
                continue
            if (
                not force
                and writer.transport.get_write_buffer_size()
                > self.config.write_buffer_limit
            ):
                continue
            for subscription in list(session.subscriptions.values()):
                while subscription.pending:
                    batch, dropped = subscription.take(limit)
                    if dropped:
                        self.registry.counter("serve_results_shed").inc(
                            dropped
                        )
                    self.registry.counter("serve_results_streamed").inc(
                        len(batch)
                    )
                    if not await self._send_result(
                        session, subscription.query_id, batch, dropped
                    ):
                        break
                    if batch:
                        delivered[subscription.query_id] = (
                            delivered.get(subscription.query_id, 0)
                            + len(batch)
                        )
                    if not force:
                        break  # one frame per sub per tick keeps ticks short
        return delivered

    # -- ops surface -------------------------------------------------------

    def _handle_stats(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        with self.gate.locked():
            active = self.engine.active_query_count
            counts = self.engine.result_counts()
            sharing = self.engine.sharing_summary()
            try:
                cost = self.engine.cost_attribution()
            except ShardWorkerError:
                cost = None
        stats: Dict[str, Any] = {
            "backend": self.config.backend,
            "active_queries": active,
            "sharing": sharing,
            "changelog_sequence": self._last_sequence,
            "result_counts": counts,
            "sessions_connected": self.sessions.connected_count,
            "subscriptions": self.hub.subscription_count,
            "results_shed": self.hub.dropped_total,
            "recoveries": len(self.gate.recoveries),
            "deferred": self.admission.deferred_count,
            "now_ms": self.now_ms(),
            "dead_letter_depth": len(self.dead_letters),
            "dead_lettered_total": self._dead_lettered_total,
            "placements": {
                query_id: {
                    "group": group,
                    "affinity": affinity,
                    "expensive": expensive,
                }
                for query_id, (group, affinity, expensive)
                in self.placer.placements().items()
            },
            "placement_group_loads": self.placer.group_loads,
            "slo": self.slo.summary(),
            "slo_pressure": sorted(self._pressured),
            "wire_latency": {
                "traced_pushes": self.wire_traces.e2e_count,
                "e2e_total_ns": self.wire_traces.e2e_total_ns,
                "breakdown": breakdown_from_snapshot(
                    self.wire_traces.snapshot()
                ),
            },
        }
        if cost is not None:
            stats["cost"] = {
                "total_ns": cost["total_ns"],
                "unattributed_ns": cost["unattributed_ns"],
                "queries": cost["queries"],
                "top": cost_summary(cost),
            }
        if isinstance(self.engine, ProcessAStreamEngine):
            stats["workers"] = self.engine.workers
            stats["alive_workers"] = self.engine.alive_workers
            stats.update(self.engine.migration_counters())
            if self._autoscaler is not None:
                stats["autoscale_decisions"] = [
                    {
                        "at_ms": decision.at_ms,
                        "workers": decision.workers,
                        "target": decision.target,
                        "reason": decision.reason,
                    }
                    for decision in self._autoscaler.decisions
                ]
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "stats": stats,
        }

    def _handle_obs_snapshot(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        if self.engine.obs is None:
            snapshot: Dict[str, Any] = {"registry": self.registry.snapshot()}
            events: List[Dict[str, Any]] = []
        else:
            snapshot = self.gate.call(self.engine.obs_snapshot)
            snapshot["registry"] = {
                **snapshot.get("registry", {}),
                **self.registry.snapshot(),
            }
            events = self.engine.obs.events.tail(64)
        snapshot["slo"] = self.slo.summary()
        snapshot["wire_trace"] = self.wire_traces.snapshot()
        try:
            snapshot["cost"] = self.gate.call(self.engine.cost_attribution)
        except ShardWorkerError:
            pass
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "snapshot": snapshot,
            "events": events,
        }

    def _handle_chaos(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = frame.get("op")
        if op != "kill_worker":
            raise ProtocolError("bad_chaos", f"unknown chaos op {op!r}")
        if not isinstance(self.engine, ProcessAStreamEngine):
            raise ProtocolError(
                "unsupported", "kill_worker needs the process backend"
            )
        shard = int(frame.get("shard", 0))
        with self.gate.locked():
            self.engine.kill_worker(shard)
        self.registry.counter("serve_chaos_kills").inc()
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "shard": shard,
        }

    def _handle_resize(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        if not isinstance(self.engine, ProcessAStreamEngine):
            raise ProtocolError(
                "unsupported", "resize needs the process backend"
            )
        workers = int(frame.get("workers", 0))
        if workers < 1:
            raise ProtocolError(
                "bad_resize", f"need at least one worker, got {workers}"
            )
        # Start the live migration under the gate; the ticker drives the
        # per-shard restore steps so ingest keeps flowing meanwhile.
        with self.gate.locked():
            self.gate.call(self.engine.begin_resize, workers)
        self.registry.counter("serve_resizes").inc()
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "workers": workers,
            "migration_active": self.engine.migration_active,
        }

    async def _handle_drain(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        checkpoint = bool(frame.get("checkpoint", self.config.checkpoint_on_drain))
        with self.gate.locked():
            self._drain_engine(checkpoint=checkpoint)
        await self._flush_subscriptions(force=True)
        return {
            "t": "ack",
            "seq": frame["seq"],
            "status": "ok",
            "checkpoint": self._shutdown_checkpoint if checkpoint else None,
        }

    async def _handle_shutdown(
        self, session: SessionState, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        reply = {"t": "ack", "seq": frame["seq"], "status": "ok"}
        writer = self._writers.get(session.client_id)
        if writer is not None:
            session.remember(frame["seq"], reply)
            write_frame(writer, reply)
            await writer.drain()
        asyncio.get_running_loop().create_task(self.stop(drain=True))
        return None

    # -- metrics -----------------------------------------------------------

    def _refresh_gauges(self) -> None:
        registry = self.registry
        registry.gauge("serve_sessions_connected", merge="max").set(
            self.sessions.connected_count
        )
        registry.gauge("serve_subscriptions", merge="max").set(
            self.hub.subscription_count
        )
        registry.gauge("serve_pending_outputs", merge="max").set(
            self.hub.pending_outputs
        )
        registry.gauge("serve_active_queries", merge="max").set(
            self.engine.active_query_count
        )
        registry.gauge("serve_changelog_sequence", merge="max").set(
            self._last_sequence
        )
        registry.gauge("serve_dead_letter_depth", merge="max").set(
            len(self.dead_letters)
        )
        registry.gauge("slo_burn_rate", merge="max").set(
            self.slo.max_burn_rate()
        )
        registry.gauge("slo_pressure_active", merge="max").set(
            len(self._pressured)
        )
        registry.gauge("slo_violations", merge="max").set(
            self.slo.violations_total
        )
        if isinstance(self.engine, ProcessAStreamEngine):
            registry.gauge("serve_workers", merge="max").set(
                self.engine.workers
            )
            registry.gauge("serve_alive_workers", merge="max").set(
                self.engine.alive_workers
            )
            counters = self.engine.migration_counters()
            registry.gauge("serve_migrations", merge="max").set(
                counters["migrations"]
            )
            registry.gauge("serve_migration_active", merge="max").set(
                int(counters["migration_active"])
            )

    def render_metrics(self) -> str:
        """The Prometheus exposition body for ``GET /metrics``."""
        self._refresh_gauges()
        snapshot = dict(self.registry.snapshot())
        if self.engine.obs is not None:
            try:
                engine_snapshot = self.gate.call(self.engine.obs_snapshot)
                snapshot = {
                    **engine_snapshot.get("registry", {}),
                    **snapshot,
                }
            except ShardWorkerError:
                logger.warning("metrics scrape skipped engine snapshot",
                               exc_info=True)
        return render_prometheus(snapshot)


def _sequence_of(
    changelogs: List[Changelog], query_id: str, direction: str
) -> Optional[int]:
    """The sequence of the changelog applying ``query_id`` (if flushed)."""
    for changelog in changelogs:
        if direction == "created":
            if any(
                activation.query.query_id == query_id
                for activation in changelog.created
            ):
                return changelog.sequence
        else:
            if any(
                deactivation.query_id == query_id
                for deactivation in changelog.deleted
            ):
                return changelog.sequence
    return None
