"""The router: fanning results out to per-query channels (§3.1.6).

Routing information is encoded in each result tuple's query-set: the
router copies the tuple to the output channel of every query whose bit is
set *and* whose final plan stage is the upstream operator.  This is the
only place AStream copies data (§3.2.2) — intermediate results flowing to
downstream shared joins are forwarded by reference on a separate edge —
and with many concurrent queries this copy becomes the dominant overhead
component (Figure 18a).  Here the copy is a reference: each result is
built once as a :class:`QueryOutput`, every destination channel of a run
of same-query-set records receives the run in one call, and the serving
layer's subscriptions read those channels in place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.changelog import Changelog
from repro.core.selection import QS_TAG
from repro.minispe.operators import Operator
from repro.minispe.record import ChangelogMarker, Record, Watermark


@dataclass(slots=True)
class QueryOutput:
    """One delivered result on a query's channel.

    Built once per result by the router and shared by reference: every
    destination channel of the result holds the same object, and
    subscriptions read the channel in place.  Slotted, because a
    long-running server retains one per result.
    """

    timestamp: int
    value: Any


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

    Counts are summed per query; retained result lists are concatenated
    and put in canonical order, so the merged snapshot is deterministic
    regardless of shard count or collection order.
    """
    counts: Dict[str, int] = {}
    results: Dict[str, List[QueryOutput]] = {}
    for snapshot in snapshots:
        for query_id, count in snapshot["counts"].items():
            counts[query_id] = counts.get(query_id, 0) + count
        if retain_results:
            for query_id, outputs in snapshot["results"].items():
                results.setdefault(query_id, []).extend(outputs)
    return {
        "counts": counts,
        "results": {
            query_id: canonical_order(outputs)
            for query_id, outputs in results.items()
        },
    }


class QueryChannels:
    """Per-query output channels shared by all router instances.

    The harness wires ``on_deliver`` to timestamp deliveries for
    event-time latency (§3.4 extends Flink's latency markers the same
    way: sample tuples at the sink and report to the job manager).
    """

    def __init__(
        self,
        retain_results: bool = True,
        on_deliver: Optional[Callable[[str, Record], None]] = None,
    ) -> None:
        self.retain_results = retain_results
        self.on_deliver = on_deliver
        self._results: Dict[str, List[QueryOutput]] = {}
        self._counts: Dict[str, int] = {}
        self._taps: Dict[str, List[Callable[[str, int, Any], None]]] = {}
        """Per-query delivery taps: each registered callable sees every
        delivery for its query as ``(query_id, timestamp, value)``,
        after retention."""

    def open_channel(self, query_id: str) -> None:
        """Create the channel for a newly deployed query."""
        if self.retain_results:
            self._results.setdefault(query_id, [])
        self._counts.setdefault(query_id, 0)

    def close_channel(self, query_id: str) -> None:
        """Stop delivering to a deleted query (results stay readable)."""
        # Counts and results are retained so the harness can read them
        # after the query stopped; new deliveries simply stop arriving
        # because the router drops the slot mapping.

    def deliver(self, query_id: str, timestamp: int, value: Any) -> None:
        """Copy one result tuple onto a query's channel."""
        self.deliver_many(query_id, (QueryOutput(timestamp, value),))

    def deliver_many(self, query_id: str, outputs: Sequence[QueryOutput]) -> None:
        """Append a run of results to a query's channel in one call.

        The count moves once.  Taps and ``on_deliver`` see every result,
        in order, each one after it has been appended.
        """
        self._counts[query_id] = self._counts.get(query_id, 0) + len(outputs)
        channel = None
        if self.retain_results:
            channel = self._results.get(query_id)
            if channel is None:
                channel = self._results[query_id] = []
        taps = self._taps.get(query_id, ()) if self._taps else ()
        on_deliver = self.on_deliver
        for output in outputs:
            if channel is not None:
                channel.append(output)
            for tap in taps:
                tap(query_id, output.timestamp, output.value)
            if on_deliver is not None:
                on_deliver(query_id, output.timestamp)

    def add_tap(
        self, query_id: str, tap: Callable[[str, int, Any], None]
    ) -> None:
        """Register a streaming tap for one query's deliveries.

        Taps see ``(query_id, timestamp, value)`` synchronously on every
        delivery, after it has been retained.  The hot path pays one
        truthiness check while no taps exist.
        """
        self._taps.setdefault(query_id, []).append(tap)

    def remove_tap(
        self, query_id: str, tap: Callable[[str, int, Any], None]
    ) -> None:
        """Unregister a previously added tap (no-op when absent)."""
        taps = self._taps.get(query_id)
        if not taps:
            return
        try:
            taps.remove(tap)
        except ValueError:
            return
        if not taps:
            del self._taps[query_id]

    def results(self, query_id: str) -> List[QueryOutput]:
        """All results delivered to ``query_id`` so far."""
        return self._results.get(query_id, [])

    def canonical_results(self, query_id: str) -> List[QueryOutput]:
        """Results for ``query_id`` in the deterministic merge order.

        Use this (not :meth:`results`) when comparing outputs across
        execution backends: see :func:`canonical_order`.
        """
        return canonical_order(self._results.get(query_id, []))

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

        In count-only mode (``retain_results=False``) no result lists
        exist, so the snapshot carries counts alone.
        """
        return {
            "counts": dict(self._counts),
            "results": (
                {
                    query_id: list(outputs)
                    for query_id, outputs in self._results.items()
                }
                if self.retain_results
                else {}
            ),
        }

    def restore(self, snapshot: dict) -> None:
        """Reset channels to a checkpointed state (recovery)."""
        self._counts = dict(snapshot["counts"])
        if self.retain_results:
            self._results = {
                query_id: list(outputs)
                for query_id, outputs in snapshot["results"].items()
            }
        else:
            self._results = {}


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
        profile: bool = False,
    ) -> None:
        super().__init__(f"router:{upstream_key}")
        self.upstream_key = upstream_key
        self.channels = channels
        self.profile = profile
        self._slot_to_query: Dict[int, str] = {}
        self._output_slots = 0
        # Routing table: masked query-set bits -> destination channel ids.
        # Valid for one changelog sequence; rebuilding it lazily per
        # distinct bitset replaces the per-record bit-walk — with many
        # queries the same bitsets recur for thousands of records between
        # changelogs, so the bit-walk is paid once per (epoch, bitset).
        self._route_table: Dict[int, Tuple[str, ...]] = {}
        self.copies = 0
        self.profile_ns = 0

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
        destination.  A fired aggregation window is a single run (all its
        records carry one tags dict)."""
        started = time.perf_counter_ns() if self.profile else 0
        output_slots = self._output_slots
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
        if self.profile:
            self.profile_ns += time.perf_counter_ns() - started

    def _deliver_run(self, bits: int, run: List[Record]) -> int:
        """Hand one run to each of its destinations; returns the copies.

        Each result becomes one :class:`QueryOutput`, shared by every
        destination channel (§3.2.2's per-query copy is a reference).
        A single-query run is handed over in one call; a run fanning out
        to several queries is handed over result by result, so taps and
        ``on_deliver`` see the order one-at-a-time routing produces.
        """
        queries = self._route_table.get(bits)
        if queries is None:
            queries = self._build_route(bits)
        outputs = [QueryOutput(record.timestamp, record.value) for record in run]
        deliver_many = self.channels.deliver_many
        if len(queries) == 1:
            deliver_many(queries[0], outputs)
        else:
            for output in outputs:
                single = (output,)
                for query_id in queries:
                    deliver_many(query_id, single)
        return len(queries) * len(outputs)

    def _build_route(self, bits: int) -> Tuple[str, ...]:
        """Resolve a masked bitset to channel ids and memoise it for the
        current changelog sequence (slot ascending)."""
        slot_to_query = self._slot_to_query
        queries = []
        remaining = bits
        slot = 0
        while remaining:
            if remaining & 1:
                queries.append(slot_to_query[slot])
            remaining >>= 1
            slot += 1
        resolved = tuple(queries)
        self._route_table[bits] = resolved
        return resolved

    def on_watermark(self, watermark: Watermark) -> None:
        # Routers are terminal vertices; nothing to forward.
        pass

    # -- introspection ---------------------------------------------------------

    @property
    def routed_query_count(self) -> int:
        """Queries currently routed by this instance."""
        return len(self._slot_to_query)

    def stats(self) -> Dict[str, Tuple[float, str]]:
        """Result copies made (additive) and the routed-query fan-out
        (every instance holds the same slot table: max)."""
        return {
            "copies": (self.copies, "sum"),
            "fan_out": (len(self._slot_to_query), "max"),
            "profile_ns": (self.profile_ns, "sum"),
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
