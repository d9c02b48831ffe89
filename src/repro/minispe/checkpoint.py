"""Checkpoint coordination and replay-based recovery.

Exactly-once in this substrate follows the Flink model the paper relies on
(§3.3, citing Carbone et al.):

1. every element pushed into a source is appended to a :class:`SourceLog`
   carrying a *global* sequence number, so the cross-source interleaving
   of records and changelog markers is reproducible;
2. the :class:`CheckpointCoordinator` periodically injects a
   :class:`~repro.minispe.record.CheckpointBarrier` into *all* sources and
   records the global log offset at that point;
3. operator instances snapshot their state when the barrier is aligned on
   all their input channels (handled by the runtime);
4. on failure, a fresh runtime is deployed, instance state is restored
   from the last *completed* checkpoint, and the log is replayed from the
   recorded offset in the original global order.

Determinism of the data path (event-time windows, changelog-driven slices)
guarantees the replayed run produces the same outputs, which the tests
assert end-to-end.

Alignment constraint: instances snapshot when the *last* input channel
delivers the barrier, without blocking already-barriered channels.  That
is consistent exactly when no data is pushed into an already-barriered
source before the other sources' barriers — which the coordinator (and
the engine's ``checkpoint()``) guarantee by injecting all barriers
back-to-back within one synchronous call.  Driving barriers by hand
through ``JobRuntime.push`` must respect the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.minispe.record import CheckpointBarrier, StreamElement
from repro.minispe.runtime import JobRuntime


SHARD_STATE_KEY = "__shards__"
"""Marker key distinguishing packed multi-shard snapshots from the plain
``{vertex: {instance: state}}`` shape produced by a single runtime."""


def pack_shard_states(states: List[Any]) -> Dict[str, Any]:
    """Wrap per-shard snapshots into one checkpoint-shaped payload.

    The process backend collects one snapshot per worker shard; packing
    them under :data:`SHARD_STATE_KEY` lets the existing checkpoint
    plumbing (``EngineCheckpoint``, supervisors, tests) carry sharded
    state without learning a new type.
    """
    return {SHARD_STATE_KEY: list(states)}


def unpack_shard_states(state: Dict[str, Any]) -> Optional[List[Any]]:
    """Per-shard snapshots from a packed payload, or None if not packed."""
    if not isinstance(state, dict):
        return None
    shards = state.get(SHARD_STATE_KEY)
    if shards is None:
        return None
    return list(shards)


class CheckpointFailed(RuntimeError):
    """A triggered checkpoint was not acknowledged by every instance.

    Carries the id of the dropped snapshot so supervision code can log
    it; the coordinator's completed-checkpoint list is untouched, and
    recovery falls back to the previous completed checkpoint.
    """

    def __init__(self, checkpoint_id: int, message: str) -> None:
        super().__init__(message)
        self.checkpoint_id = checkpoint_id


class SourceLog:
    """Globally ordered (in-memory) log of every pushed source element.

    Long soak runs would grow the log without bound; :meth:`truncate`
    drops the prefix already covered by a completed checkpoint while
    keeping *global offsets stable* — ``position`` and ``replay`` keep
    speaking pre-compaction offsets.
    """

    def __init__(self, source_names: List[str]) -> None:
        if not source_names:
            raise ValueError("a job needs at least one source to log")
        self._source_names = list(source_names)
        self._entries: List[Tuple[str, StreamElement]] = []
        self._base_offset = 0

    def append(self, source: str, element: StreamElement) -> None:
        """Record one pushed element in global order."""
        if source not in self._source_names:
            raise KeyError(f"unknown source {source!r}")
        self._entries.append((source, element))

    @property
    def position(self) -> int:
        """Current global offset (the index of the next element)."""
        return self._base_offset + len(self._entries)

    @property
    def base_offset(self) -> int:
        """First global offset still retained (grows with truncation)."""
        return self._base_offset

    @property
    def retained(self) -> int:
        """Entries currently held in memory."""
        return len(self._entries)

    def truncate(self, offset: int) -> int:
        """Drop entries before global ``offset``; returns how many.

        ``offset`` must not exceed :attr:`position`.  Truncating below
        the current base is a no-op (already compacted).
        """
        if offset > self.position:
            raise ValueError(
                f"cannot truncate to {offset}: log position is {self.position}"
            )
        dropped = offset - self._base_offset
        if dropped <= 0:
            return 0
        del self._entries[:dropped]
        self._base_offset = offset
        return dropped

    def replay(self, offset: int) -> List[Tuple[str, StreamElement]]:
        """``(source, element)`` pairs from global ``offset`` onward."""
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if offset < self._base_offset:
            raise ValueError(
                f"offset {offset} was compacted away "
                f"(base offset is {self._base_offset})"
            )
        return list(self._entries[offset - self._base_offset :])

    def sources(self) -> List[str]:
        """The logged source names."""
        return list(self._source_names)


@dataclass
class CompletedCheckpoint:
    """A checkpoint that every operator instance acknowledged."""

    checkpoint_id: int
    offset: int
    state: Dict[str, Dict[int, Any]] = field(repr=False, default_factory=dict)


class CheckpointCoordinator:
    """Injects barriers, tracks completion, and performs recovery.

    The coordinator wraps a running :class:`JobRuntime`; all element pushes
    must go through :meth:`push` so the source log stays complete.
    """

    def __init__(
        self,
        runtime: JobRuntime,
        runtime_factory: Optional[Callable[[], JobRuntime]] = None,
        auto_compact: bool = False,
    ) -> None:
        self.runtime = runtime
        self._runtime_factory = runtime_factory
        self._auto_compact = auto_compact
        source_names = [vertex.name for vertex in runtime.graph.sources()]
        self.log = SourceLog(source_names)
        self._next_checkpoint_id = 1
        self.completed: List[CompletedCheckpoint] = []

    # -- normal operation --------------------------------------------------

    def push(self, source: str, element: StreamElement) -> None:
        """Push an element through the coordinator (logged, then routed)."""
        self.log.append(source, element)
        self.runtime.push(source, element)

    def trigger_checkpoint(self) -> int:
        """Inject a barrier into every source; return the checkpoint id.

        Because execution is synchronous, the barrier has fully traversed
        the dataflow when this method returns, so completion is immediate
        unless an operator failed to snapshot — in which case the snapshot
        is dropped and :class:`CheckpointFailed` is raised so callers can
        distinguish success from a silently missing checkpoint.
        """
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        offset = self.log.position
        barrier = CheckpointBarrier(timestamp=0, checkpoint_id=checkpoint_id)
        for source in self.log.sources():
            # Barriers are control-plane: they are not logged as data, the
            # recovery path re-runs from offsets instead.
            self.runtime.push(source, barrier)
        state = self.runtime.completed_checkpoint(checkpoint_id)
        if state is None:
            raise CheckpointFailed(
                checkpoint_id,
                f"checkpoint {checkpoint_id} was not acknowledged by all "
                f"operator instances; the snapshot is dropped",
            )
        self.completed.append(
            CompletedCheckpoint(
                checkpoint_id=checkpoint_id, offset=offset, state=state
            )
        )
        if self._auto_compact:
            self.compact()
        return checkpoint_id

    def compact(self) -> int:
        """Truncate the log up to the last completed checkpoint's offset.

        Checkpoints older than the latest become unusable for recovery
        and are dropped alongside their log prefix; returns the number of
        log entries reclaimed.  A no-op before the first completed
        checkpoint.
        """
        checkpoint = self.last_completed
        if checkpoint is None:
            return 0
        dropped = self.log.truncate(checkpoint.offset)
        if len(self.completed) > 1:
            self.completed = [checkpoint]
        return dropped

    @property
    def last_completed(self) -> Optional[CompletedCheckpoint]:
        """The most recent completed checkpoint, if any."""
        return self.completed[-1] if self.completed else None

    # -- recovery ----------------------------------------------------------

    def recover(self) -> JobRuntime:
        """Simulate failure + recovery: fresh runtime, restore, replay.

        Returns the new runtime (also stored on :attr:`runtime`).  If no
        checkpoint completed yet, recovery replays the whole log from the
        beginning into fresh state.
        """
        if self._runtime_factory is None:
            raise RuntimeError(
                "recovery needs a runtime_factory to redeploy the job"
            )
        new_runtime = self._runtime_factory()
        checkpoint = self.last_completed
        if checkpoint is not None:
            new_runtime.restore_checkpoint(checkpoint.state)
            offset = checkpoint.offset
        else:
            offset = 0
        self.runtime = new_runtime
        for source, element in self.log.replay(offset):
            new_runtime.push(source, element)
        return new_runtime
