"""Dynamic window slicing (§3.1.3, Figure 4e).

AStream divides each stream into disjoint *slices* whose edges are
determined at runtime by (a) the window begin/end points of the active
ad-hoc queries — anchored at each query's creation time — and (b) the
changelog positions.  Every query window is then a union of whole slices,
so operations performed per slice (a partial aggregate, a slice-pair
join) are computed once and reused by all queries whose windows cover the
slice — the stream generalisation of window panes computed at runtime
instead of compile time (§6.5).

This module provides:

* :class:`EpochTimeline` — maps event time to the changelog epoch in
  force (epochs are the paper's "time slots");
* :class:`Slice` / :class:`SliceIndex` — slice objects and an ordered
  index with overlap queries and retention-based expiry;
* :class:`SliceManager` — computes slice bounds for a timestamp from the
  window edges of the queries active *during that timestamp's epoch*
  (kept as per-epoch views so bounded-lateness records slice
  consistently), with a hot-path cache;
* a firing schedule (:meth:`SliceManager.due_windows`) tracking which
  query windows are due as the watermark advances.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.query import WindowSpec


@dataclass
class EpochTimeline:
    """Event-time intervals of changelog epochs.

    Epoch 0 starts at time 0; the changelog with sequence *k* (event time
    ``t_k``) starts epoch *k* covering ``[t_k, t_{k+1})``.
    """

    _starts: List[int] = field(default_factory=lambda: [0])
    _sequences: List[int] = field(default_factory=lambda: [0])
    _prune_horizon_ms: int = 0

    def append(self, sequence: int, start_ms: int) -> bool:
        """Register the start of a new epoch.

        An epoch starting at the same event time as the previous one
        replaces that entry: ``index_for`` takes the rightmost entry at
        or before a time, so the shadowed one could never be resolved
        again.  Epoch 0 is never replaced.  Returns True on a replace.
        """
        if sequence != self._sequences[-1] + 1:
            raise ValueError(
                f"epoch out of order: expected {self._sequences[-1] + 1}, "
                f"got {sequence}"
            )
        if start_ms < self._starts[-1]:
            raise ValueError(
                f"epoch {sequence} starts at {start_ms}, before epoch "
                f"{self._sequences[-1]} at {self._starts[-1]}"
            )
        if start_ms == self._starts[-1] and self._sequences[-1] != 0:
            self._sequences[-1] = sequence
            return True
        self._starts.append(start_ms)
        self._sequences.append(sequence)
        return False

    def index_for(self, timestamp_ms: int) -> int:
        """Position of the epoch covering ``timestamp_ms``."""
        index = bisect_right(self._starts, timestamp_ms) - 1
        return max(index, 0)

    def epoch_for(self, timestamp_ms: int) -> Tuple[int, int, Optional[int]]:
        """Return ``(sequence, start_ms, end_ms)`` covering the timestamp.

        ``end_ms`` is None for the open current epoch.
        """
        index = self.index_for(timestamp_ms)
        end = self._starts[index + 1] if index + 1 < len(self._starts) else None
        return self._sequences[index], self._starts[index], end

    @property
    def current_sequence(self) -> int:
        """The newest epoch."""
        return self._sequences[-1]

    def prune_before(self, timestamp_ms: int) -> int:
        """Drop epochs fully superseded before ``timestamp_ms``.

        Keeps the epoch covering ``timestamp_ms`` so event-time lookups
        within the lateness bound still resolve.  Returns the number of
        entries dropped (long-running deployments call this from the
        watermark path to bound state).

        The prune horizon is monotonic: with shard-local watermarks
        there is no single global watermark holder, and a shard whose
        watermark lags the others may call this with an older timestamp.
        Such calls are cheap no-ops instead of (incorrectly) assuming
        the caller's watermark is the furthest one seen.
        """
        if timestamp_ms <= self._prune_horizon_ms:
            return 0
        self._prune_horizon_ms = timestamp_ms
        keep_from = self.index_for(timestamp_ms)
        if keep_from <= 0:
            return 0
        del self._starts[:keep_from]
        del self._sequences[:keep_from]
        return keep_from

    def __len__(self) -> int:
        return len(self._sequences)


@dataclass
class Slice:
    """One disjoint stream partition ``[start, end)`` within one epoch.

    ``store`` is attached by the owning shared operator (a tuple store
    for joins, a partial-aggregate map for aggregations).
    """

    start: int
    end: int
    epoch: int
    store: Any = None

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty slice [{self.start}, {self.end})")

    @property
    def id(self) -> Tuple[int, int]:
        """Stable identity: (epoch, start)."""
        return (self.epoch, self.start)

    def covers(self, timestamp_ms: int) -> bool:
        """True when the timestamp falls inside this slice."""
        return self.start <= timestamp_ms < self.end

    def __repr__(self) -> str:
        return f"Slice([{self.start}, {self.end}), epoch={self.epoch})"


class SliceIndex:
    """Slices of one stream ordered by start time."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._slices: Dict[int, Slice] = {}
        self.created_total = 0
        self.expired_total = 0
        self._expiry_horizon_ms = 0

    def get(self, start: int) -> Optional[Slice]:
        """The slice starting exactly at ``start``, if present."""
        return self._slices.get(start)

    def get_or_create(self, start: int, end: int, epoch: int) -> Slice:
        """Fetch the slice at ``start`` or create it with these bounds."""
        existing = self._slices.get(start)
        if existing is not None:
            return existing
        new_slice = Slice(start=start, end=end, epoch=epoch)
        self._slices[start] = new_slice
        insort(self._starts, start)
        self.created_total += 1
        return new_slice

    def overlapping(self, start: int, end: int) -> List[Slice]:
        """Slices intersecting ``[start, end)``, in time order."""
        result = []
        index = bisect_right(self._starts, start) - 1
        if index < 0:
            index = 0
        while index < len(self._starts):
            candidate = self._slices[self._starts[index]]
            if candidate.start >= end:
                break
            if candidate.end > start:
                result.append(candidate)
            index += 1
        return result

    def expire_before(self, timestamp_ms: int) -> List[Slice]:
        """Drop and return slices whose end precedes ``timestamp_ms``.

        This is Figure 4f's red boxes: once no active query window can
        still cover a slice, it (and any cached results involving it) is
        deleted.

        The expiry horizon is monotonic so the call is safe under
        shard-local watermarks: a shard whose watermark regressed
        relative to the furthest horizon already applied (no global
        watermark holder exists in the process backend) gets a fast
        no-op and cannot re-expire or interleave with newer slices.
        The dropped prefix is removed with one ``del`` instead of a
        per-slice ``pop(0)``, so expiring k of n slices is O(k + n)
        instead of O(k·n).
        """
        if timestamp_ms <= self._expiry_horizon_ms:
            return []
        self._expiry_horizon_ms = timestamp_ms
        cut = 0
        expired: List[Slice] = []
        for start in self._starts:
            candidate = self._slices[start]
            if candidate.end > timestamp_ms:
                break
            expired.append(candidate)
            del self._slices[start]
            cut += 1
        if cut:
            del self._starts[:cut]
        self.expired_total += len(expired)
        return expired

    def __len__(self) -> int:
        return len(self._slices)

    def __iter__(self) -> Iterator[Slice]:
        return (self._slices[start] for start in self._starts)


@dataclass
class WindowedQuery:
    """A windowed query as seen by a shared operator."""

    slot: int
    spec: WindowSpec
    created_at_ms: int
    next_fire_index: int = 0


class SliceManager:
    """Computes dynamic slice bounds from active query window edges.

    The slice containing timestamp *t* is the interval between the
    closest window edges around *t*: for each time-windowed query *q*
    active during *t*'s epoch (anchored at its creation time ``c`` with
    slide ``s`` and length ``l``), the edge sets are ``{c + k·s}`` and
    ``{c + k·s + l}``.  Epoch boundaries (changelog event times) are
    edges too, so no slice spans a changelog — the property that makes
    per-slice bitset semantics constant (§2.1.2).

    Query registrations happen exactly at changelog markers, so the
    manager snapshots one query view per epoch; late records (within the
    allowed lateness) slice under the view of their own epoch, keeping
    slicing a pure function of event time and changelog history — the
    determinism exactly-once recovery relies on (§3.3).
    """

    def __init__(self) -> None:
        self.timeline = EpochTimeline()
        self._current: Dict[int, WindowedQuery] = {}
        # One frozen (slot -> WindowedQuery) view per timeline entry.
        self._views: List[Dict[int, WindowedQuery]] = [{}]
        # Hot-path cache: most records land in the most recent slice.
        self._cached_bounds: Optional[Tuple[int, int, int]] = None
        self._count_lengths()

    # The window-length multiset and the firing heap are derived from
    # ``_current`` and left out of the pickled state, so checkpoints keep
    # their format and a restore (or deepcopy) rebuilds them.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lengths"], state["_max_length_ms"], state["_due"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._count_lengths()

    def _count_lengths(self) -> None:
        self._lengths: Dict[int, int] = {}  # window length -> live queries
        self._max_length_ms = 0
        self._due: List[Tuple[int, int]] = []
        """Firing heap: ``(next window end, slot)`` per registration; an
        entry whose slot no longer holds a query with that next end (it
        was deleted, re-registered or already advanced) is stale and is
        dropped when it surfaces."""
        for query in self._current.values():
            self._add_length(query.spec.length_ms)
            self._schedule(query)

    def _add_length(self, length_ms: int) -> None:
        self._lengths[length_ms] = self._lengths.get(length_ms, 0) + 1
        if length_ms > self._max_length_ms:
            self._max_length_ms = length_ms

    def _drop_length(self, length_ms: int) -> None:
        remaining = self._lengths[length_ms] - 1
        if remaining:
            self._lengths[length_ms] = remaining
            return
        del self._lengths[length_ms]
        if length_ms == self._max_length_ms:
            self._max_length_ms = max(self._lengths, default=0)

    # -- query lifecycle -----------------------------------------------------

    def register_query(
        self, slot: int, spec: WindowSpec, created_at_ms: int
    ) -> None:
        """Start slicing for a new windowed query (at a changelog)."""
        if spec.is_session:
            raise ValueError("session windows are not sliced (data-driven)")
        self.unregister_query(slot)
        query = self._current[slot] = WindowedQuery(slot, spec, created_at_ms)
        self._add_length(spec.length_ms)
        self._schedule(query)

    def unregister_query(self, slot: int) -> None:
        """Stop slicing for a deleted query (at a changelog)."""
        previous = self._current.pop(slot, None)
        if previous is not None:
            self._drop_length(previous.spec.length_ms)
        self._cached_bounds = None

    def on_epoch(self, sequence: int, start_ms: int) -> None:
        """Seal the new epoch's query view after applying a changelog; it
        replaces the previous view when the timeline replaced its entry."""
        if not self.timeline.append(sequence, start_ms):
            self._views.append({})
        self._views[-1] = dict(self._current)
        self._cached_bounds = None

    def query(self, slot: int) -> Optional[WindowedQuery]:
        """The currently tracked windowed query at ``slot``."""
        return self._current.get(slot)

    def queries(self) -> List[WindowedQuery]:
        """All currently tracked windowed queries, by slot."""
        return [self._current[slot] for slot in sorted(self._current)]

    @property
    def max_retention_ms(self) -> int:
        """Longest window length among active queries (state horizon).

        Kept up to date by ``register_query``/``unregister_query``, so
        reading it does not scan the query population."""
        return self._max_length_ms

    # -- slice bounds -----------------------------------------------------------

    def slice_bounds(self, timestamp_ms: int) -> Tuple[int, int, int]:
        """Return ``(start, end, epoch)`` of the slice containing the time."""
        cached = self._cached_bounds
        if cached is not None and cached[0] <= timestamp_ms < cached[1]:
            return cached
        index = self.timeline.index_for(timestamp_ms)
        epoch, epoch_start, epoch_end = self.timeline.epoch_for(timestamp_ms)
        floor = epoch_start
        ceiling = epoch_end  # None = open
        for query in self._views[index].values():
            for edge_offset in (0, query.spec.length_ms):
                anchor = query.created_at_ms + edge_offset
                slide = query.spec.slide_ms
                if timestamp_ms >= anchor:
                    below = anchor + ((timestamp_ms - anchor) // slide) * slide
                    if below > floor:
                        floor = below
                    above = below + slide
                else:
                    above = anchor
                if ceiling is None or above < ceiling:
                    ceiling = above
        if ceiling is None:
            # No query edges ahead and the epoch is open: close the slice
            # at the next whole second so it stays finite.
            ceiling = ((timestamp_ms // 1_000) + 1) * 1_000
        bounds = (floor, ceiling, epoch)
        self._cached_bounds = bounds
        return bounds

    def prune_before(self, timestamp_ms: int) -> int:
        """Drop per-epoch views older than the retention horizon."""
        dropped = self.timeline.prune_before(timestamp_ms)
        if dropped:
            del self._views[:dropped]
        return dropped

    # -- firing schedule ----------------------------------------------------------

    def _schedule(self, query: WindowedQuery) -> None:
        """Queue ``query`` at the end of its next window to fire."""
        _, end = query.spec.windows_for(query.created_at_ms, query.next_fire_index)
        heapq.heappush(self._due, (end, query.slot))

    def due_windows(self, watermark_ms: int) -> List[Tuple[int, int, int]]:
        """Windows whose end has passed: ``(slot, start, end)`` tuples,
        by slot, then by fire index.

        Advances each due query's fire index; a window is due when
        ``end - 1 <= watermark``.  Only the due windows are visited, off
        a heap keyed by each query's next window end, with one
        ``windows_for`` call each.  Queries deleted before their window
        completes simply stop appearing here (their slot is gone).
        """
        due = []
        heap = self._due
        current = self._current
        while heap and heap[0][0] - 1 <= watermark_ms:
            queued_end, slot = heap[0]
            query = current.get(slot)
            if query is not None:
                spec = query.spec
                start, end = spec.windows_for(query.created_at_ms, query.next_fire_index)
                if end == queued_end:
                    due.append((slot, start, end))
                    query.next_fire_index += 1
                    heapq.heapreplace(heap, (end + spec.slide_ms, slot))
                    continue
            heapq.heappop(heap)  # stale: deleted, re-registered or advanced
        due.sort()
        return due
