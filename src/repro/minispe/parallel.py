"""Process-parallel sharded execution backend (ISSUE 3 tentpole).

The in-process :class:`~repro.minispe.runtime.JobRuntime` models
parallelism; this module *executes* it.  A :class:`ProcessShardPool`
spawns N worker processes, each owning the hash-sharded partition of the
keyed operator state whose keys satisfy ``stable_hash(key) % N == shard``
— the shared-nothing key-sharding STRETCH shows scales stateful
streaming near-linearly, and the shape Shared Arrangements shows
preserves inter-query sharing (each shard serves *all* queries for its
key range).

Wire protocol
-------------

Workers are fed over batched IPC channels:

* an **op** is a small picklable tuple (``("push", source, element)``,
  ``("batch", source, records)``, ``("snapshot", id)``, …);
* a **frame** is a pickled list of ops sent with one
  ``Connection.send_bytes`` syscall.  Data records are coalesced into
  per-shard sub-batches (reusing :class:`~repro.minispe.record.RecordBatch`
  semantics on the worker side), so the per-tuple IPC cost is amortised
  exactly like PR 2's micro-batched data path;
* every frame is acknowledged.  Acks carry sampled ``(query_id,
  timestamp)`` deliveries for QoS monitoring plus the replies of any
  synchronous ops in the frame;
* the coordinator bounds in-flight frames per worker (credit-based
  backpressure), so a slow shard throttles the feed instead of growing
  an unbounded queue.

Frames traverse each pipe in FIFO order and control ops (watermarks,
changelog markers, checkpoint barriers) are broadcast to every shard in
coordinator order, which gives cross-process barrier/marker alignment
for free: every worker observes the same control prefix before any later
data.  Aligned-barrier snapshot collection (:meth:`ShardedRuntime.
completed_checkpoint`) drains all shards and gathers their per-shard
state, so exactly-once snapshots and replay recovery work across
processes.

The module is engine-agnostic: what runs inside a worker is produced by
a picklable *program factory* (see
:class:`repro.core.parallel_engine.AStreamShardFactory` for the AStream
program).
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.minispe.checkpoint import pack_shard_states, unpack_shard_states
from repro.minispe.record import Record, RecordBatch, StreamElement
from repro.minispe.runtime import ExecutionBackend, stable_hash

logger = logging.getLogger("repro.minispe.parallel")

Op = Tuple[Any, ...]
"""One wire operation: ``(kind, *payload)``."""

DEFAULT_FRAME_RECORDS = 512
"""Records buffered per worker before a frame is flushed."""
DEFAULT_MAX_IN_FLIGHT = 8
"""Unacknowledged frames allowed per worker (credit window)."""
ACK_DELIVERY_CAP = 64
"""Sampled deliveries shipped per *regular* ack.

Regular acks must stay far below the OS pipe buffer: if a worker ever
blocked sending an oversized ack while the coordinator blocked sending
it a frame, the pair would deadlock.  One watermark can fire thousands
of results at once, so the worker ships at most this many delivery
samples per ack and carries the backlog forward; synchronous ops flush
the backlog completely, because during a sync the coordinator is
actively receiving and arbitrarily large payloads flow.
"""
ACK_OBS_EVENT_CAP = 16
"""Telemetry events piggybacked per *regular* ack (observe mode).

Same pipe-deadlock reasoning as :data:`ACK_DELIVERY_CAP`: incremental
event shipments stay tiny, and the full metric/trace snapshots only ride
synchronous (unlimited) acks, where the coordinator is known to be
receiving.
"""


class ShardWorkerError(RuntimeError):
    """A worker process failed (crashed, was killed, or raised).

    Carries the shard index so supervision code can target recovery.
    """

    def __init__(self, shard: int, message: str) -> None:
        super().__init__(f"shard {shard}: {message}")
        self.shard = shard


@dataclass
class WorkerFailure:
    """One proactively detected worker death or wedge.

    Produced by the pool's liveness monitor (heartbeat probing), drained
    by supervision code via :meth:`ProcessShardPool.poll_failures`.
    ``reason`` is ``"exit"`` (process died while idle or mid-work) or
    ``"ack_deadline"`` (alive but wedged: outstanding frames made no
    progress within the deadline; the monitor SIGKILLs it so recovery
    can proceed).
    """

    shard: int
    reason: str
    detected_at: float
    pid: Optional[int]


class ShardProgram:
    """What runs inside one worker process.

    Subclasses interpret ops; :meth:`apply` returns ``None`` for
    asynchronous ops and a (picklable) reply for synchronous ones —
    the pool's :meth:`ProcessShardPool.sync` contract.
    """

    def apply(self, op: Op) -> Any:
        """Apply one op; return a reply for synchronous ops else None."""
        raise NotImplementedError

    def take_deliveries(
        self, limit: Optional[int] = None
    ) -> List[Tuple[str, int]]:
        """Drain up to ``limit`` sampled ``(query_id, timestamp)``
        deliveries (all of them when ``limit`` is None)."""
        return []

    def take_obs(self, unlimited: bool) -> Optional[dict]:
        """Telemetry delta to piggyback on the next ack, or ``None``.

        ``unlimited`` acks (synchronous frames) may carry arbitrarily
        large payloads — full registry + trace snapshots; regular acks
        must stay small (incremental events only, capped at
        :data:`ACK_OBS_EVENT_CAP`).
        """
        return None

    def close(self) -> None:
        """Flush and release program resources before worker exit."""


def _worker_main(conn, factory, shard_index: int, shard_count: int) -> None:
    """Worker process entry: build the program, serve frames until close.

    Each frame is unpickled, its ops applied in order, and one ack —
    ``(replies, deliveries, obs, error)`` — is sent back.  An op raising
    does not kill the worker: the error travels back in the ack and the
    coordinator raises :class:`ShardWorkerError`.
    """
    program = factory(shard_index, shard_count)
    try:
        while True:
            try:
                payload = conn.recv_bytes()
            except EOFError:
                break
            ops: List[Op] = pickle.loads(payload)
            replies: List[Any] = []
            error: Optional[str] = None
            closing = False
            for op in ops:
                if op[0] == "close":
                    closing = True
                    replies.append(True)
                    continue
                try:
                    reply = program.apply(op)
                except Exception as exc:  # noqa: BLE001 - shipped upstream
                    error = f"{type(exc).__name__}: {exc}"
                    break
                if reply is not None:
                    replies.append(reply)
            # Synchronous frames (they produced replies, or are closing)
            # may carry the whole delivery backlog — the coordinator is
            # blocked receiving.  Regular acks stay small; see
            # ACK_DELIVERY_CAP.
            unlimited = bool(replies) or closing
            deliveries = program.take_deliveries(
                limit=None if unlimited else ACK_DELIVERY_CAP
            )
            obs = program.take_obs(unlimited)
            ack = (replies, deliveries, obs, error)
            conn.send_bytes(pickle.dumps(ack, protocol=pickle.HIGHEST_PROTOCOL))
            if closing:
                break
    finally:
        program.close()
        conn.close()


class _WorkerHandle:
    """Coordinator-side bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "buffer", "buffered_records",
                 "outstanding", "alive", "last_progress")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.buffer: List[Op] = []
        self.buffered_records = 0
        self.outstanding = 0
        self.alive = True
        self.last_progress = time.monotonic()
        """Last send or ack on this pipe (ack-deadline probing)."""


class ProcessShardPool:
    """N worker processes fed over batched, credit-controlled pipes.

    The pool is transport only: it buffers ops per worker, flushes
    pickled frames, drains acks (invoking ``on_deliver`` for sampled
    result deliveries), and runs synchronous collective ops.  Shard
    *meaning* lives in the program factory.
    """

    def __init__(
        self,
        workers: int,
        program_factory: Callable[[int, int], ShardProgram],
        on_deliver: Optional[Callable[[str, int], None]] = None,
        frame_records: int = DEFAULT_FRAME_RECORDS,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        on_obs: Optional[Callable[[int, dict], None]] = None,
        on_stall: Optional[Callable[[int, int], None]] = None,
        heartbeat_interval_s: Optional[float] = None,
        ack_deadline_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if frame_records < 1:
            raise ValueError(f"frame_records must be >= 1, got {frame_records}")
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        import multiprocessing

        self.workers = workers
        self.frame_records = frame_records
        self.max_in_flight = max_in_flight
        self.on_deliver = on_deliver
        self.on_obs = on_obs
        """Invoked as ``on_obs(shard, payload)`` for every ack carrying a
        telemetry payload (observe mode piggybacking)."""
        self.on_stall = on_stall
        """Invoked as ``on_stall(shard, waited_ns)`` after a send blocked
        on the credit window (backpressure visibility)."""
        self.heartbeat_interval_s = heartbeat_interval_s
        """Liveness probe period; ``None`` disables the monitor thread.

        Without the monitor a worker that dies while *idle* is only
        discovered on the next send; with it, detection latency is
        bounded by the probe period (the idle-death satellite fix)."""
        self.ack_deadline_s = ack_deadline_s
        """Wedge escalation: a worker with outstanding frames but no
        pipe progress for this long is SIGKILLed so the coordinator's
        blocked ``recv`` fails over into normal recovery.  ``None``
        disables the deadline (heartbeats still detect process exits)."""
        self.op_count = 0
        """Ops submitted since the pool started (collect-staleness check)."""
        self._closed = False
        self._program_factory = program_factory
        self._context = multiprocessing.get_context("fork")
        self._failures: List[WorkerFailure] = []
        self._failures_lock = threading.Lock()
        self._monitor_stop = threading.Event()
        self._monitor_quiesced = False
        self._monitor_thread: Optional[threading.Thread] = None
        self._handles: List[_WorkerHandle] = [
            self._spawn_handle(shard, workers) for shard in range(workers)
        ]
        if heartbeat_interval_s is not None:
            self._monitor_thread = threading.Thread(
                target=self._monitor_loop,
                name="shard-pool-monitor",
                daemon=True,
            )
            self._monitor_thread.start()

    def _spawn_handle(self, shard: int, shard_count: int) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self._program_factory, shard, shard_count),
            daemon=True,
            name=f"shard-worker-{shard}",
        )
        process.start()
        child_conn.close()
        logger.debug(
            "started shard worker %d/%d (pid %s)",
            shard,
            shard_count,
            process.pid,
        )
        return _WorkerHandle(process, parent_conn)

    # -- liveness monitoring -----------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.heartbeat_interval_s):
            if self._closed or self._monitor_quiesced:
                continue
            self._probe_once()

    def _probe_once(self) -> None:
        """One heartbeat round: detect exits, escalate wedged workers."""
        now = time.monotonic()
        for shard, handle in enumerate(list(self._handles)):
            if not handle.alive:
                continue
            process = handle.process
            if not process.is_alive():
                handle.alive = False
                self._record_failure(shard, "exit", process.pid)
                continue
            deadline = self.ack_deadline_s
            if (
                deadline is not None
                and handle.outstanding > 0
                and now - handle.last_progress > deadline
            ):
                # select() on the pipe fd never consumes data, so this
                # probe is safe alongside a coordinator blocked in recv.
                try:
                    has_ack = handle.conn.poll(0)
                except OSError:
                    has_ack = False
                if has_ack:
                    continue
                logger.warning(
                    "shard worker %d (pid %s) missed ack deadline "
                    "(%.3fs); killing it",
                    shard,
                    process.pid,
                    deadline,
                )
                try:
                    if process.pid is not None:
                        os.kill(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                handle.alive = False
                self._record_failure(shard, "ack_deadline", process.pid)

    def _record_failure(
        self, shard: int, reason: str, pid: Optional[int]
    ) -> None:
        logger.warning(
            "shard worker %d (pid %s) failed: %s", shard, pid, reason
        )
        with self._failures_lock:
            self._failures.append(
                WorkerFailure(
                    shard=shard,
                    reason=reason,
                    detected_at=time.monotonic(),
                    pid=pid,
                )
            )

    def poll_failures(self) -> List[WorkerFailure]:
        """Drain proactively detected worker failures (may be empty)."""
        with self._failures_lock:
            failures = self._failures
            self._failures = []
        return failures

    # -- submission --------------------------------------------------------

    def submit(self, shard: int, op: Op, records: int = 1) -> None:
        """Buffer one op for ``shard``; flushes when the frame is full."""
        handle = self._handles[shard]
        if not handle.alive:
            raise ShardWorkerError(shard, "worker is down")
        handle.buffer.append(op)
        handle.buffered_records += records
        self.op_count += 1
        if handle.buffered_records >= self.frame_records:
            self._flush_worker(shard)

    def broadcast(self, op: Op) -> None:
        """Buffer one op for every shard (control-plane fan-out)."""
        for shard in range(self.workers):
            self.submit(shard, op)

    def flush(self) -> None:
        """Send every partially filled frame buffer."""
        for shard in range(self.workers):
            self._flush_worker(shard)

    def drain(self) -> None:
        """Flush, then block until every sent frame is acknowledged."""
        self.flush()
        for shard, handle in enumerate(self._handles):
            while handle.outstanding:
                self._drain_one_ack(shard)

    # -- synchronous collectives -------------------------------------------

    def sync(self, op: Op) -> List[Any]:
        """Run one synchronous op on every shard; return per-shard replies.

        All buffers are flushed and outstanding acks drained first, so
        the op observes everything submitted before it (the aligned
        collection point used for snapshots and result merges).
        """
        self.drain()
        replies: List[Any] = []
        for shard in range(self.workers):
            replies.append(self._sync_one_drained(shard, op))
        return replies

    def sync_one(self, shard: int, op: Op) -> Any:
        """Run one synchronous op on a single shard and await its reply."""
        handle = self._handles[shard]
        if not handle.alive:
            raise ShardWorkerError(shard, "worker is down")
        self._flush_worker(shard)
        while handle.outstanding:
            self._drain_one_ack(shard)
        return self._sync_one_drained(shard, op)

    def _sync_one_drained(self, shard: int, op: Op) -> Any:
        handle = self._handles[shard]
        self._send_frame(shard, [op])
        reply = None
        got_reply = False
        while handle.outstanding:
            replies = self._drain_one_ack(shard)
            if replies:
                reply = replies[0]
                got_reply = True
        if not got_reply:
            raise ShardWorkerError(
                shard, f"synchronous op {op[0]!r} returned no reply"
            )
        return reply

    # -- transport ---------------------------------------------------------

    def _flush_worker(self, shard: int) -> None:
        handle = self._handles[shard]
        if not handle.buffer:
            return
        frame = handle.buffer
        handle.buffer = []
        handle.buffered_records = 0
        self._send_frame(shard, frame)

    def _send_frame(self, shard: int, frame: List[Op]) -> None:
        handle = self._handles[shard]
        if not handle.alive:
            raise ShardWorkerError(shard, "worker is down")
        if handle.outstanding >= self.max_in_flight:
            if self.on_stall is not None:
                started = time.perf_counter_ns()
                while handle.outstanding >= self.max_in_flight:
                    self._drain_one_ack(shard)
                self.on_stall(shard, time.perf_counter_ns() - started)
            else:
                while handle.outstanding >= self.max_in_flight:
                    self._drain_one_ack(shard)
        payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            handle.conn.send_bytes(payload)
        except (BrokenPipeError, OSError) as exc:
            handle.alive = False
            raise ShardWorkerError(shard, f"send failed: {exc}") from exc
        handle.outstanding += 1
        handle.last_progress = time.monotonic()

    def _drain_one_ack(self, shard: int) -> List[Any]:
        handle = self._handles[shard]
        try:
            payload = handle.conn.recv_bytes()
        except (EOFError, OSError) as exc:
            handle.alive = False
            raise ShardWorkerError(shard, f"worker died: {exc}") from exc
        handle.outstanding -= 1
        handle.last_progress = time.monotonic()
        replies, deliveries, obs, error = pickle.loads(payload)
        if self.on_deliver is not None:
            for query_id, timestamp in deliveries:
                self.on_deliver(query_id, timestamp)
        if obs is not None and self.on_obs is not None:
            self.on_obs(shard, obs)
        if error is not None:
            raise ShardWorkerError(shard, error)
        return replies

    # -- lifecycle ---------------------------------------------------------

    def resize(self, new_workers: int) -> None:
        """Replace the worker set with ``new_workers`` fresh shards.

        Transport-level only: the caller is responsible for having
        drained and exported shard state first, and for restoring the
        re-split state into the new workers afterwards (see
        :meth:`ShardedRuntime.begin_resize`).  The pool object survives
        — delivery/telemetry callbacks, op counting, and the liveness
        monitor carry over to the new worker set.
        """
        if new_workers < 1:
            raise ValueError(f"need at least one worker, got {new_workers}")
        if self._closed:
            raise RuntimeError("cannot resize a closed pool")
        self._monitor_quiesced = True
        try:
            old_handles = self._handles
            for shard, handle in enumerate(old_handles):
                self._close_handle(shard, handle)
            self.workers = new_workers
            self._handles = [
                self._spawn_handle(shard, new_workers)
                for shard in range(new_workers)
            ]
        finally:
            self._monitor_quiesced = False

    def _close_handle(
        self, shard: int, handle: _WorkerHandle, join_timeout: float = 5.0
    ) -> None:
        """Gracefully retire one worker: close op, drain acks, join."""
        if handle.alive:
            try:
                frame = handle.buffer + [("close",)]
                handle.buffer = []
                handle.buffered_records = 0
                handle.conn.send_bytes(
                    pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
                )
                outstanding = handle.outstanding + 1
                while outstanding:
                    payload = handle.conn.recv_bytes()
                    outstanding -= 1
                    _replies, deliveries, obs, _error = pickle.loads(payload)
                    if self.on_deliver is not None:
                        for query_id, timestamp in deliveries:
                            self.on_deliver(query_id, timestamp)
                    if obs is not None and self.on_obs is not None:
                        self.on_obs(shard, obs)
            except (BrokenPipeError, EOFError, OSError):
                pass
        handle.alive = False
        handle.outstanding = 0
        if handle.process.is_alive():
            handle.process.join(timeout=join_timeout)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=join_timeout)
        try:
            handle.conn.close()
        except OSError:
            pass

    def _stop_monitor(self) -> None:
        self._monitor_stop.set()
        thread = self._monitor_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=2)
        self._monitor_thread = None

    def kill(self, shard: int) -> None:
        """SIGKILL one worker (chaos testing); its shard state is lost.

        Subsequent submissions to the shard raise
        :class:`ShardWorkerError`; recovery replaces the whole pool and
        replays from the coordinator's input log.
        """
        handle = self._handles[shard]
        if handle.process.pid is not None and handle.alive:
            logger.info(
                "killing shard worker %d (pid %s)", shard, handle.process.pid
            )
            try:
                os.kill(handle.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            handle.process.join(timeout=5)
        handle.alive = False

    @property
    def alive_workers(self) -> int:
        """Workers currently believed healthy."""
        return sum(1 for handle in self._handles if handle.alive)

    def close(self) -> None:
        """Graceful shutdown: flush, send close ops, join all workers."""
        if self._closed:
            return
        self._closed = True
        self._stop_monitor()
        for shard, handle in enumerate(self._handles):
            if not handle.alive:
                continue
            try:
                handle.buffer.append(("close",))
                self._flush_worker(shard)
                while handle.outstanding:
                    self._drain_one_ack(shard)
            except ShardWorkerError:
                pass
        self.terminate(join_timeout=5)

    def terminate(self, join_timeout: float = 2.0) -> None:
        """Hard shutdown: kill and join every worker, close pipes."""
        self._closed = True
        self._stop_monitor()
        for handle in self._handles:
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in self._handles:
            handle.process.join(timeout=join_timeout)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=join_timeout)
            handle.alive = False
            try:
                handle.conn.close()
            except OSError:
                pass


class ShardedRuntime(ExecutionBackend):
    """An :class:`ExecutionBackend` over a :class:`ProcessShardPool`.

    Data records are hash-partitioned to shards by
    ``stable_hash(record.key) % workers`` — the same rule the in-process
    runtime uses for HASH edges, so per-key operator state lands on
    exactly one worker and both sides of a co-partitioned join meet.
    Control elements (watermarks, changelog markers, checkpoint
    barriers) are broadcast to every shard in FIFO op order, preserving
    the alignment semantics of the in-process path.

    Elastic resize (ISSUE 6): :meth:`begin_resize` exports every shard's
    state, re-splits it through the injected ``repartitioner`` (key-aware
    code lives above this substrate — see ``repro.core.migration``),
    replaces the worker set, and marks every new shard *pending*.
    Ingest continues: ops destined for a pending shard are buffered in
    FIFO order and replayed — after the shard's re-split state and the
    caller-supplied replay prefix (watermark re-injection) — when
    :meth:`migration_step` restores it.  Synchronous collectives finish
    the migration first, so snapshots, result merges, and drains always
    observe a fully consistent pool.
    """

    def __init__(
        self,
        pool: ProcessShardPool,
        repartitioner: Optional[Callable[[List[Any], int], List[Any]]] = None,
    ) -> None:
        self.pool = pool
        self._shards = pool.workers
        self.repartitioner = repartitioner
        """Re-splits per-shard state payloads for a new shard count."""
        self._pending: List[int] = []
        self._pending_states: Dict[int, Any] = {}
        self._buffers: Dict[int, List[Tuple[Op, int]]] = {}
        self._replay_prefix: List[Tuple[str, StreamElement]] = []
        self.migrations_completed = 0
        self.migration_records_buffered = 0

    # -- data path ---------------------------------------------------------

    def push(self, source_name: str, element: StreamElement) -> None:
        """Route one element: records to their key shard, control to all.

        While a migration is in flight :meth:`_submit` buffers the ops of
        shards still awaiting their state.
        """
        if isinstance(element, Record):
            element = RecordBatch([element])
        if not isinstance(element, RecordBatch):
            for shard in range(self._shards):
                self._submit(shard, ("push", source_name, element))
            return
        # A wire trace context rides as an optional 4th op element so
        # untraced frames keep the 3-tuple shape (and its pickles).
        trace = element.trace
        buckets: Dict[int, List[Record]] = {}
        if self._shards == 1:
            buckets[0] = element.records
        else:
            for record in element.records:
                buckets.setdefault(
                    stable_hash(record.key) % self._shards, []
                ).append(record)
        for shard in sorted(buckets):
            bucket = buckets[shard]
            op = (
                ("batch", source_name, bucket)
                if trace is None
                else ("batch", source_name, bucket, trace)
            )
            self._submit(shard, op, records=len(bucket))

    def _submit(self, shard: int, op: Op, records: int = 1) -> None:
        if shard in self._pending_states:
            self._buffers[shard].append((op, records))
            self.migration_records_buffered += records
        else:
            self.pool.submit(shard, op, records=records)

    # -- elastic resize ----------------------------------------------------

    @property
    def migration_active(self) -> bool:
        """True while any shard still awaits its re-split state."""
        return bool(self._pending_states)

    def begin_resize(
        self,
        new_workers: int,
        replay_prefix: Optional[List[Tuple[str, StreamElement]]] = None,
    ) -> None:
        """Export, re-split, and swap the worker set without losing state.

        ``replay_prefix`` is pushed to each shard right after its state
        restore and before any buffered ops — the engine passes its
        per-stream watermark re-injection here, mirroring what
        checkpoint recovery does, because watermark progress is not part
        of operator snapshots.
        """
        if self.repartitioner is None:
            raise RuntimeError("runtime has no repartitioner; cannot resize")
        self.finish_migration()
        donor_states = self.pool.sync(("export",))
        new_states = self.repartitioner(donor_states, new_workers)
        self.pool.resize(new_workers)
        self._shards = new_workers
        self._pending = list(range(new_workers))
        self._pending_states = dict(enumerate(new_states))
        self._buffers = {shard: [] for shard in range(new_workers)}
        self._replay_prefix = list(replay_prefix or [])
        # Results moved between shards: poke the op counter so cached
        # coordinator-side merges are recognised as stale.
        self.pool.op_count += 1

    def migration_step(self) -> bool:
        """Restore one pending shard and replay its buffered ops.

        Returns True when a shard was migrated, False when no migration
        is in flight.  Incremental stepping keeps each ingest pause
        bounded by one shard's state size instead of the whole pool's.
        """
        if not self._pending:
            return False
        shard = self._pending.pop(0)
        state = self._pending_states.pop(shard)
        self.pool.sync_one(shard, ("restore", state))
        for source_name, element in self._replay_prefix:
            self.pool.submit(shard, ("push", source_name, element))
        for op, records in self._buffers.pop(shard):
            self.pool.submit(shard, op, records=records)
        if not self._pending:
            self._replay_prefix = []
            self.migrations_completed += 1
        return True

    def finish_migration(self) -> None:
        """Drive any in-flight migration to completion."""
        while self.migration_step():
            pass

    def close(self) -> None:
        """Flush everything and shut the worker pool down."""
        self.finish_migration()
        self.pool.close()

    def terminate(self) -> None:
        """Hard-stop the pool (used when recovery replaces the runtime).

        An in-flight migration is abandoned: buffered ops are dropped
        because the records also live in the coordinator's input log,
        which recovery replays.
        """
        self._pending = []
        self._pending_states = {}
        self._buffers = {}
        self._replay_prefix = []
        self.pool.terminate()

    # -- checkpointing -----------------------------------------------------

    def completed_checkpoint(self, checkpoint_id: int) -> Optional[Dict]:
        """Aligned-barrier collection of every shard's snapshot.

        The barriers were broadcast through the FIFO op buffers; this
        drains all shards (so every barrier has traversed its worker's
        dataflow) and gathers the per-shard states into one packed
        snapshot.  Returns ``None`` if any shard has no completed
        snapshot for ``checkpoint_id``.
        """
        self.finish_migration()
        states = self.pool.sync(("snapshot", checkpoint_id))
        if any(state is None or state.get("runtime") is None for state in states):
            return None
        return pack_shard_states(states)

    def restore_checkpoint(self, snapshot: Dict) -> None:
        """Ship each shard's state back to its (fresh) worker.

        A snapshot taken at a different shard count is re-split through
        the repartitioner (when configured), so recovery after a resize
        — or into a resized pool — restores the same keyed state under
        the new hash modulus.
        """
        self.finish_migration()
        states = unpack_shard_states(snapshot)
        if states is None:
            raise ValueError("not a sharded checkpoint snapshot")
        if len(states) != self._shards:
            if self.repartitioner is None:
                raise ValueError(
                    f"snapshot has {len(states)} shards, pool has "
                    f"{self._shards}"
                )
            states = self.repartitioner(states, self._shards)
        for shard, state in enumerate(states):
            self.pool.sync_one(shard, ("restore", state))

    # -- introspection -----------------------------------------------------

    def records_processed(self) -> Dict[str, int]:
        """Records processed per vertex, summed across shards."""
        self.finish_migration()
        totals: Dict[str, int] = {}
        for stats in self.pool.sync(("stats",)):
            for vertex, count in stats.get("records_processed", {}).items():
                totals[vertex] = totals.get(vertex, 0) + count
        return totals

    def collect_channels(self) -> List[dict]:
        """Every shard's ``QueryChannels`` snapshot (for result merging)."""
        self.finish_migration()
        return self.pool.sync(("collect",))

    def collect_stats(self) -> List[dict]:
        """Every shard's raw stats reply."""
        self.finish_migration()
        return self.pool.sync(("stats",))

    def drain(self) -> None:
        """Block until every shard applied everything submitted so far."""
        self.finish_migration()
        self.pool.drain()
