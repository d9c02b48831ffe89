"""The router: fanning results out to per-query channels (§3.1.6).

Routing information is encoded in each result tuple's query-set: the
router copies the tuple to the output channel of every query whose bit is
set *and* whose final plan stage is the upstream operator.  This is the
only place AStream copies data (§3.2.2) — intermediate results flowing to
downstream shared joins are forwarded by reference on a separate edge —
and with many concurrent queries this copy becomes the dominant overhead
component (Figure 18a).  Here the copy is a reference: a fired
aggregation window arrives as one :class:`WindowRun`, one watermark's
runs are handed to their channels in one call, other results are
appended to a channel's open list, and the serving layer's
subscriptions read those channels in place (DESIGN.md, "Result path:
one run per fired window").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.bitset import iter_slots
from repro.core.changelog import Changelog
from repro.core.selection import QS_TAG
from repro.core.shared_aggregation import WindowRun
from repro.minispe.operators import Operator
from repro.minispe.record import ChangelogMarker, Record, Watermark


@dataclass(slots=True)
class QueryOutput:
    """One result of a query, as the API hands it out.

    Channels do not hold these: :meth:`QueryChannels.results`, cursor
    chunks, taps and the JSON codec build them at the edge.  Slotted,
    because clients keep one per received result.
    """

    timestamp: int
    value: Any


class ResultList:
    """A channel's open list: results appended in place, as two columns.

    Selection and join results (and single deliveries) land here with no
    object per result.  The channel seals its open list at a snapshot or
    when a window run follows; a sealed list is never appended to again,
    so snapshots share it by reference.
    """

    __slots__ = ("times", "values")

    def __init__(self, times: List[int], values: List[Any]) -> None:
        self.times = times
        self.values = values

    def __len__(self) -> int:
        return len(self.times)


def _outputs(run: Any, start: int = 0, stop: Optional[int] = None) -> List[QueryOutput]:
    """The :class:`QueryOutput` of each result of ``run[start:stop]``."""
    if type(run) is WindowRun:
        results = run.results(start, stop)
        return list(map(QueryOutput, repeat(run.timestamp, len(results)), results))
    return list(map(QueryOutput, run.times[start:stop], run.values[start:stop]))


class ResultChunk:
    """A read of one channel: ``(run, start, stop)`` slices, in order.

    What a cursor subscription's ``take`` returns.  The binary codec
    packs it column by column; iterating it (JSON frames, tests) builds
    one :class:`QueryOutput` per result.  Compares equal to the list of
    those outputs.
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts: List[Tuple[Any, int, int]], size: int) -> None:
        self.parts = parts
        self.size = size

    def __len__(self) -> int:
        return self.size

    def window_columns(self) -> Optional[Tuple[List[int], List[List[Any]]]]:
        """The timestamp column and the key, window start, window end and
        value columns, when every part is a slice of a :class:`WindowRun`;
        else None."""
        if not all(type(run) is WindowRun for run, _, _ in self.parts):
            return None
        times: List[int] = []
        keys: List[Any] = []
        starts: List[int] = []
        ends: List[int] = []
        values: List[Any] = []
        for run, start, stop in self.parts:
            size = stop - start
            window = run.window
            times += [run.timestamp] * size
            keys += run.keys[start:stop]
            starts += [window.start] * size
            ends += [window.end] * size
            values += run.values[start:stop]
        return times, [keys, starts, ends, values]

    def columns(self) -> Tuple[List[int], List[Any]]:
        """The chunk as a timestamp column and a value column."""
        times: List[int] = []
        values: List[Any] = []
        for run, start, stop in self.parts:
            if type(run) is WindowRun:
                times += [run.timestamp] * (stop - start)
                values += run.results(start, stop)
            else:
                times += run.times[start:stop]
                values += run.values[start:stop]
        return times, values

    def __iter__(self) -> Iterator[QueryOutput]:
        for run, start, stop in self.parts:
            yield from _outputs(run, start, stop)

    def __eq__(self, other: object) -> bool:
        try:
            return list(self) == list(other)  # type: ignore[call-overload]
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:
        return f"ResultChunk({list(self)!r})"


class _Channel:
    """One query's retained results: runs, their absolute start offsets,
    and the open list (the last run, while it is open).

    ``base`` is the absolute offset of the first retained run: results
    below it were trimmed (:meth:`trim`), so offsets never shift."""

    __slots__ = ("runs", "starts", "open", "base")

    def __init__(self, runs: Sequence[Any] = (), base: int = 0) -> None:
        self.runs: List[Any] = list(runs)
        self.starts: List[int] = [*accumulate(map(len, self.runs), initial=base)][:-1]
        self.open: Optional[ResultList] = None
        self.base = base

    def length(self) -> int:
        runs = self.runs
        return self.starts[-1] + len(runs[-1]) if runs else self.base

    def open_list(self) -> ResultList:
        """The list to append to; a new one after a seal."""
        open_list = self.open
        if open_list is None:
            open_list = self.open = ResultList([], [])
            self.starts.append(self.length())
            self.runs.append(open_list)
        return open_list

    def append_run(self, run: WindowRun) -> None:
        self.open = None
        self.starts.append(self.length())
        self.runs.append(run)

    def read(self, start: int, stop: int) -> ResultChunk:
        """Results ``[start, stop)`` as run slices (clamped to the retained)."""
        runs, starts = self.runs, self.starts
        parts: List[Tuple[Any, int, int]] = []
        size = 0
        index = max(0, bisect_right(starts, start) - 1)
        while index < len(runs) and starts[index] < stop:
            run = runs[index]
            offset = starts[index]
            lo = max(start, offset) - offset
            hi = min(stop - offset, len(run))
            if hi > lo:
                parts.append((run, lo, hi))
                size += hi - lo
            index += 1
        return ResultChunk(parts, size)

    def trim(self, below: int) -> None:
        """Drop the runs that end at or below ``below``.

        A partly taken run stays whole, and the open list is sealed, so
        what arrives next starts a run that can go on its own.  Runs are
        never mutated: a checkpoint holding them is unaffected."""
        self.open = None
        runs, starts = self.runs, self.starts
        drop = 0
        while drop < len(runs) and starts[drop] + len(runs[drop]) <= below:
            drop += 1
        if drop:
            self.base = starts[drop - 1] + len(runs[drop - 1])
            del runs[:drop], starts[:drop]


def canonical_order(outputs: List[QueryOutput]) -> List[QueryOutput]:
    """Results in the deterministic merge order: event time, then value.

    Within one channel, ties on timestamp are broken by the stable
    ``repr`` of the value.  Result values here are tuples of ints/strings
    (aggregates, joined pairs), whose ``repr`` is injective, so two
    entries compare equal only when they are the same result.  That makes
    the canonical form independent of arrival order — the property the
    process backend relies on to merge per-shard channels byte-identically
    to the in-process path (which may interleave join matches in
    store-insertion order).
    """
    return sorted(outputs, key=lambda output: (output.timestamp, repr(output.value)))


def merge_channel_snapshots(snapshots: List[dict], retain_results: bool) -> dict:
    """Merge per-shard :meth:`QueryChannels.snapshot` payloads into one.

    Counts are summed per query.  Retained runs are flattened to
    :class:`QueryOutput` s — the one place shard channels need them —
    put in canonical order, and stored back as one sealed list per query,
    so the merged snapshot is deterministic regardless of shard count or
    collection order.
    """
    counts: Dict[str, int] = {}
    results: Dict[str, List[QueryOutput]] = {}
    for snapshot in snapshots:
        for query_id, count in snapshot["counts"].items():
            counts[query_id] = counts.get(query_id, 0) + count
        if retain_results:
            for query_id, runs in snapshot["results"].items():
                merged = results.setdefault(query_id, [])
                for run in runs:
                    merged += _outputs(run)
    sealed = {}
    for query_id, outputs in results.items():
        ordered = canonical_order(outputs)
        sealed[query_id] = (
            ResultList(
                [output.timestamp for output in ordered],
                [output.value for output in ordered],
            ),
        )
    return {"counts": counts, "results": sealed}


class QueryChannels:
    """Per-query output channels shared by all router instances.

    A channel is a list of runs — :class:`WindowRun` s and open lists
    (:class:`ResultList`) — with their start offsets.  Four hand-overs
    fill it: :meth:`deliver_runs` (fired windows), :meth:`deliver_many`
    (several results for one query), :meth:`fan_out` (results for
    several queries, result by result) and :meth:`deliver` (one result).

    ``on_deliver(query_id, timestamp, count)`` is called once per
    hand-over (per run, for fired windows), after its ``count`` results
    are retained; ``timestamp`` is the last one's.  The channel's last
    ``count`` results are the ones it covers, so expanding the calls
    gives the per-result sequence.
    The harness wires it to timestamp deliveries for event-time latency
    (§3.4 extends Flink's latency markers the same way: sample tuples at
    the sink and report to the job manager).
    """

    def __init__(
        self,
        retain_results: bool = True,
        on_deliver: Optional[Callable[[str, int, int], None]] = None,
    ) -> None:
        self.retain_results = retain_results
        self.on_deliver = on_deliver
        self._channels: Dict[str, _Channel] = {}
        self._counts: Dict[str, int] = {}
        self._fresh: Set[str] = set()
        """Queries delivered to (or restored) since :meth:`take_fresh`."""
        self._taps: Dict[str, List[Callable[[str, int, Any], None]]] = {}
        """Per-query delivery taps: each registered callable sees every
        delivery for its query as ``(query_id, timestamp, value)``,
        after retention."""

    def open_channel(self, query_id: str) -> None:
        """Create the channel for a newly deployed query."""
        if self.retain_results and query_id not in self._channels:
            self._channels[query_id] = _Channel()
        self._counts.setdefault(query_id, 0)

    def close_channel(self, query_id: str) -> None:
        """Stop delivering to a deleted query (results stay readable)."""
        # Counts and results are retained so the harness can read them
        # after the query stopped; new deliveries simply stop arriving
        # because the router drops the slot mapping.

    def _channel(self, query_id: str) -> _Channel:
        channel = self._channels.get(query_id)
        if channel is None:
            channel = self._channels[query_id] = _Channel()
        return channel

    def deliver(self, query_id: str, timestamp: int, value: Any) -> None:
        """Copy one result tuple onto a query's channel."""
        self.deliver_many(query_id, (QueryOutput(timestamp, value),))

    def deliver_many(self, query_id: str, items: Sequence[Any]) -> None:
        """Append results for one query to its open list in one call.

        ``items`` carry ``timestamp`` and ``value`` (records or
        :class:`QueryOutput` s); only those two fields are kept.
        """
        if not items:
            return
        self._counts[query_id] = self._counts.get(query_id, 0) + len(items)
        self._fresh.add(query_id)
        if self.retain_results:
            open_list = self._channel(query_id).open_list()
            open_list.times += [item.timestamp for item in items]
            open_list.values += [item.value for item in items]
        taps = self._taps.get(query_id) if self._taps else None
        if taps:
            for item in items:
                for tap in taps:
                    tap(query_id, item.timestamp, item.value)
        if self.on_deliver is not None:
            self.on_deliver(query_id, items[-1].timestamp, len(items))

    def deliver_runs(self, runs: Sequence[Tuple[str, WindowRun]]) -> int:
        """Hand fired windows to their queries' channels in one call:
        each ``(query_id, run)`` is one appended run and one
        ``on_deliver``, in the given order.  Returns the results handed.

        Taps see one ``AggregationResult`` per key, built here only
        because a tap is registered."""
        counts, fresh, taps, on_deliver = self._counts, self._fresh, self._taps, self.on_deliver
        handed = 0
        for query_id, run in runs:
            count = len(run)
            if not count:
                continue
            counts[query_id] = counts.get(query_id, 0) + count
            fresh.add(query_id)
            if self.retain_results:
                self._channel(query_id).append_run(run)
            if taps and query_id in taps:
                timestamp = run.timestamp
                for result in run.results():
                    for tap in taps[query_id]:
                        tap(query_id, timestamp, result)
            if on_deliver is not None:
                on_deliver(query_id, run.timestamp, count)
            handed += count
        return handed

    def fan_out(self, query_ids: Sequence[str], items: Sequence[Any]) -> None:
        """Hand results to several queries, result by result.

        Hooks then see the record-major order one-at-a-time routing
        produces; each append goes straight to a channel's open list.
        """
        counts = self._counts
        self._fresh.update(query_ids)
        lists = (
            [self._channel(query_id).open_list() for query_id in query_ids]
            if self.retain_results
            else repeat(None)
        )
        taps = self._taps
        on_deliver = self.on_deliver
        pairs = list(zip(query_ids, lists))
        for item in items:
            timestamp, value = item.timestamp, item.value
            for query_id, open_list in pairs:
                counts[query_id] = counts.get(query_id, 0) + 1
                if open_list is not None:
                    open_list.times.append(timestamp)
                    open_list.values.append(value)
                if taps:
                    for tap in taps.get(query_id, ()):
                        tap(query_id, timestamp, value)
                if on_deliver is not None:
                    on_deliver(query_id, timestamp, 1)

    def add_tap(
        self, query_id: str, tap: Callable[[str, int, Any], None]
    ) -> None:
        """Register a streaming tap for one query's deliveries.

        Taps see ``(query_id, timestamp, value)`` synchronously on every
        delivery, after it has been retained.  The hot path pays one
        truthiness check while no taps exist.
        """
        self._taps.setdefault(query_id, []).append(tap)

    def results(self, query_id: str) -> List[QueryOutput]:
        """The results ``query_id``'s channel retains (built per call):
        every result delivered so far, unless :meth:`trim` dropped those
        below :meth:`base`."""
        channel = self._channels.get(query_id)
        return list(channel.read(channel.base, channel.length())) if channel else []

    def canonical_results(self, query_id: str) -> List[QueryOutput]:
        """Results for ``query_id`` in the deterministic merge order.

        Use this (not :meth:`results`) when comparing outputs across
        execution backends: see :func:`canonical_order`.
        """
        return canonical_order(self.results(query_id))

    def length(self, query_id: str) -> int:
        """The absolute offset after ``query_id``'s channel (0 when count-only)."""
        channel = self._channels.get(query_id)
        return channel.length() if channel is not None else 0

    def base(self, query_id: str) -> int:
        """The absolute offset of ``query_id``'s first retained result."""
        channel = self._channels.get(query_id)
        return channel.base if channel is not None else 0

    def read(self, query_id: str, start: int, stop: int) -> ResultChunk:
        """Retained results ``[start, stop)`` of one channel, by reference."""
        channel = self._channels.get(query_id)
        if channel is None:
            return ResultChunk([], 0)
        return channel.read(start, stop)

    def trim(self, query_id: str, below: int) -> None:
        """Drop ``query_id``'s retained runs that end at or below the
        absolute offset ``below`` (see :meth:`_Channel.trim`)."""
        channel = self._channels.get(query_id)
        if channel is not None:
            channel.trim(below)

    def retained(self) -> int:
        """Results retained across all channels."""
        return sum(
            channel.length() - channel.base for channel in self._channels.values()
        )

    def take_fresh(self) -> Set[str]:
        """Queries delivered to, or restored, since the last call."""
        fresh, self._fresh = self._fresh, set()
        return fresh

    def count(self, query_id: str) -> int:
        """Number of results delivered to ``query_id``."""
        return self._counts.get(query_id, 0)

    def total_delivered(self) -> int:
        """Results delivered across all queries."""
        return sum(self._counts.values())

    def query_ids(self) -> List[str]:
        """All channels ever opened."""
        return list(self._counts.keys())

    def snapshot(self) -> dict:
        """Channel state for an engine checkpoint.

        Runs are shared by reference: the open lists are sealed first,
        so later deliveries never change what the snapshot holds.  Only
        the retained runs go in, with each channel's base.  In
        count-only mode (``retain_results=False``) no runs exist, so the
        snapshot carries counts alone.
        """
        for channel in self._channels.values():
            channel.open = None
        return {
            "counts": dict(self._counts),
            "results": {
                query_id: tuple(channel.runs)
                for query_id, channel in self._channels.items()
            },
            "bases": {
                query_id: channel.base for query_id, channel in self._channels.items()
            },
        }

    def restore(self, snapshot: dict) -> None:
        """Reset channels to a checkpointed state (recovery).

        Each channel gets a new run list over the snapshot's sealed
        runs, at the snapshot's base, so restoring twice from one
        snapshot gives the same channels."""
        self._counts = dict(snapshot["counts"])
        bases = snapshot.get("bases", {})
        self._channels = (
            {
                query_id: _Channel(runs, bases.get(query_id, 0))
                for query_id, runs in snapshot["results"].items()
            }
            if self.retain_results
            else {}
        )
        self._fresh.update(self._counts)


class RouterOperator(Operator):
    """Routes tagged result tuples from one shared operator to channels.

    ``upstream_key`` is the stage whose outputs this router serves; only
    queries whose *output* stage is that operator are routed here, so
    intermediate join results heading to downstream shared operators are
    not copied (§3.2.2).
    """

    def __init__(
        self,
        upstream_key: str,
        channels: QueryChannels,
    ) -> None:
        super().__init__(f"router:{upstream_key}")
        self.upstream_key = upstream_key
        self.channels = channels
        self._slot_to_query: Dict[int, str] = {}
        self._output_slots = 0
        # Routing table: masked query-set bits -> destination channel ids.
        # Valid for one changelog sequence; rebuilding it lazily per
        # distinct bitset replaces the per-record bit-walk — with many
        # queries the same bitsets recur for thousands of records between
        # changelogs, so the bit-walk is paid once per (epoch, bitset).
        self._route_table: Dict[int, Tuple[str, ...]] = {}
        self.copies = 0

    # -- changelog handling ----------------------------------------------------

    def on_marker(self, marker: ChangelogMarker) -> None:
        changelog: Changelog = marker.changelog
        self._route_table.clear()  # slot meanings change with the changelog
        for deactivation in changelog.deleted:
            if deactivation.slot in self._slot_to_query:
                del self._slot_to_query[deactivation.slot]
                self._output_slots &= ~(1 << deactivation.slot)
                self.channels.close_channel(deactivation.query_id)
        for activation in changelog.created:
            if self._is_output_here(activation):
                self._slot_to_query[activation.slot] = activation.query.query_id
                self._output_slots |= 1 << activation.slot
                self.channels.open_channel(activation.query.query_id)
        self.output(marker)

    def _is_output_here(self, activation) -> bool:
        for stage in activation.query.stages():
            if stage.operator == self.upstream_key:
                return stage.is_output
        return False

    # -- data path -----------------------------------------------------------

    def process_batch(self, records: List[Record]) -> None:
        """Deliver a batch run by run: consecutive records with the same
        masked query-set share one route lookup and one hand-over per
        destination.  A batch from the shared aggregation is one
        watermark's fired windows, each record's value a
        :class:`WindowRun`: they go to the channels whole, in one call.
        A router with no query to deliver to does not read the batch."""
        output_slots = self._output_slots
        if not output_slots:
            return
        if type(records[0].value) is WindowRun:
            self.copies += self._deliver_windows(records, output_slots)
            return
        deliver_run = self._deliver_run
        copies = 0
        run_bits = 0
        run_start = 0
        for index, record in enumerate(records):
            bits = record.tags.get(QS_TAG, 0) & output_slots
            if bits != run_bits:
                if run_bits:
                    copies += deliver_run(run_bits, records[run_start:index])
                run_bits = bits
                run_start = index
        if run_bits:
            copies += deliver_run(run_bits, records[run_start:])
        self.copies += copies

    def _deliver_windows(self, records: List[Record], output_slots: int) -> int:
        """Hand every run to each of its destinations, by reference, in
        one :meth:`QueryChannels.deliver_runs` call; returns the copies."""
        routes = self._route_table
        handed = []
        for record in records:
            bits = record.tags.get(QS_TAG, 0) & output_slots
            if bits:
                queries = routes.get(bits) or self._build_route(bits)
                run = record.value
                handed += [(query_id, run) for query_id in queries]
        return self.channels.deliver_runs(handed)

    def _deliver_run(self, bits: int, run: List[Record]) -> int:
        """Hand one run to each of its destinations; returns the copies.

        A single destination takes it in one call; several take it
        result by result (:meth:`QueryChannels.fan_out`), so hooks see
        the order one-at-a-time routing produces.
        """
        queries = self._route_table.get(bits)
        if queries is None:
            queries = self._build_route(bits)
        channels = self.channels
        if len(queries) == 1:
            channels.deliver_many(queries[0], run)
        else:
            channels.fan_out(queries, run)
        return len(queries) * len(run)

    def _build_route(self, bits: int) -> Tuple[str, ...]:
        """Resolve a masked bitset to channel ids and memoise it for the
        current changelog sequence (slot ascending)."""
        slot_to_query = self._slot_to_query
        resolved = tuple(slot_to_query[slot] for slot in iter_slots(bits))
        self._route_table[bits] = resolved
        return resolved

    def on_watermark(self, watermark: Watermark) -> None:
        # Routers are terminal vertices; nothing to forward.
        pass

    # -- introspection ---------------------------------------------------------

    def stats(self) -> Dict[str, Tuple[float, str]]:
        """Result copies made (additive) and the routed-query fan-out
        (every instance holds the same slot table: max)."""
        return {
            "copies": (self.copies, "sum"),
            "fan_out": (len(self._slot_to_query), "max"),
        }

    def snapshot(self) -> Any:
        return {
            "slot_to_query": dict(self._slot_to_query),
            "output_slots": self._output_slots,
        }

    def restore(self, snapshot: Any) -> None:
        self._slot_to_query = dict(snapshot["slot_to_query"])
        self._output_slots = snapshot["output_slots"]
        self._route_table.clear()
