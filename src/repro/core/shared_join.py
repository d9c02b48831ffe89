"""Shared windowed join (§3.1.4, Figure 4f).

One shared join operator executes *all* windowed equi-joins between two
streams.  Incoming tuples (already tagged with query-sets by the shared
selections) are stored once per slice; when the watermark completes a
query window, the operator joins the slice pairs covering that window —
*once* — and keeps the results in a computation history so overlapping
windows of other queries (or later windows of sliding queries) reuse
them instead of recomputing (Figure 4f: at T5 the slice joins are
performed once and reused for Q4, Q5, Q6 and Q7).

Correctness across ad-hoc changes: a pair result's raw query-set is the
AND of the two tuples' query-sets; at emission it is further ANDed with
the changelog-sets between each slice's epoch and the current epoch
(Equation 1), which kills bit positions whose meaning changed — e.g. a
tuple tagged for a deleted query whose slot was reused (§2.1.2's
``10 & 11 & 11`` example).

Storage adapts per §3.1.4/§3.2.3: slices start grouped by query-set
(enabling group-level pruning) and flip to flat lists when the mean
group size drops below :data:`GROUP_SIZE_THRESHOLD` or the number of active
queries exceeds ``storage_query_threshold``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.changelog import Changelog, ChangelogTable
from repro.core.query import WindowSpec
from repro.core.selection import QS_TAG
from repro.core.slicing import Slice, SliceIndex, SliceManager
from repro.core.storage import (
    GroupedStore,
    StoreKind,
    convert_store,
    make_store,
)
from repro.minispe.operators import TwoInputOperator
from repro.minispe.record import ChangelogMarker, Record, Watermark


@dataclass(frozen=True, slots=True)
class JoinedTuple:
    """The payload of a shared-join result.

    ``parts`` holds the joined component payloads left-to-right; for
    cascaded n-ary joins the parts flatten, so a three-way join yields
    three parts.  ``fields`` delegates to the first component so a
    downstream aggregation can reference ``A.FIELD1`` as in Figure 8.
    """

    key: Any
    parts: Tuple[Any, ...]
    timestamp: int

    @property
    def fields(self):
        """Field view of the leading component (for aggregation specs)."""
        return self.parts[0].fields


StoredTuple = Tuple[Any, int]
"""(payload, event timestamp) as kept inside slice stores."""

PairResults = Dict[int, List[Tuple[Any, Any, int]]]
"""raw query-set -> [(key, joined payload, joined event timestamp)].

Grouping the computation history by the results' raw query-set lets a
window fire skip whole groups that share no query with the firing slots
— the same pruning idea as the grouped slice store, applied to cached
join results."""

GROUP_SIZE_THRESHOLD = 2.0
"""Mean tuples per query-set group below which slices flip to flat lists."""


class SharedJoinOperator(TwoInputOperator):
    """Ad-hoc shared windowed equi-join between two tagged streams.

    ``operator_key`` is the stage name queries subscribe with (e.g.
    ``"join:A~B"``); changelog markers carry full query plans, and the
    operator tracks exactly the queries that include this stage.
    """

    def __init__(
        self,
        operator_key: str,
        storage_query_threshold: int = 10,
        enable_history: bool = True,
    ) -> None:
        super().__init__(operator_key)
        self.operator_key = operator_key
        self.storage_query_threshold = storage_query_threshold
        self.enable_history = enable_history
        """Ablation switch: False recomputes every slice pair per window
        instead of reusing the computation history (§3.2.1 off)."""

        self._slicer = SliceManager()
        self._left = SliceIndex()
        self._right = SliceIndex()
        self._changelogs = ChangelogTable()
        self._store_kind = StoreKind.GROUPED
        # Computation history: (left slice id, right slice id) -> results.
        self._pair_cache: Dict[
            Tuple[Tuple[int, int], Tuple[int, int]], PairResults
        ] = {}
        self._output_slots = 0  # bitset of slots whose final stage is here

        # Introspection / Figure 18 accounting.
        self.bitset_ops = 0
        self.pairs_computed = 0
        self.pairs_reused = 0
        self.tuples_stored = 0
        self.results_emitted = 0
        self.late_records_dropped = 0
        self._last_watermark_ms = -1
        self._forwarded_watermark_ms = -1

        # Telemetry hub, attached by the owning engine when observe mode
        # is on; slice churn events are emitted from the watermark path
        # (never the per-record path) so the overhead stays off-band.
        self.obs = None
        self._obs_slices_created = 0
        self._obs_slices_expired = 0

    def _emit_slice_events(self, watermark_ms: int) -> None:
        created = self._left.created_total + self._right.created_total
        expired = self._left.expired_total + self._right.expired_total
        if created != self._obs_slices_created:
            self.obs.events.emit(
                "slice_create",
                t_ms=watermark_ms,
                operator=self.name,
                count=created - self._obs_slices_created,
                live=len(self._left) + len(self._right),
            )
            self._obs_slices_created = created
        if expired != self._obs_slices_expired:
            self.obs.events.emit(
                "slice_expire",
                t_ms=watermark_ms,
                operator=self.name,
                count=expired - self._obs_slices_expired,
                live=len(self._left) + len(self._right),
            )
            self._obs_slices_expired = expired

    # -- data path ---------------------------------------------------------

    def process_left_batch(self, records: List[Record]) -> None:
        self._store_batch(records, self._left)

    def process_right_batch(self, records: List[Record]) -> None:
        self._store_batch(records, self._right)

    def _store_batch(self, records: List[Record], side: SliceIndex) -> None:
        """Store one batch: the slice (and its store) is resolved once
        per run of timestamps with the same slice bounds — batches are
        near-sorted, so this collapses most per-record index lookups.
        Records older than any window that could still fire are dropped,
        observably (a real deployment would alert on the counter)."""
        late_horizon = self._last_watermark_ms - self._slicer.max_retention_ms
        slice_bounds = self._slicer.slice_bounds
        get_or_create = side.get_or_create
        stored = 0
        late = 0
        last_bounds: Optional[Tuple[int, int, int]] = None
        store = None
        for record in records:
            query_set = record.tags.get(QS_TAG, 0)
            if not query_set:
                continue
            timestamp = record.timestamp
            if timestamp <= late_horizon:
                late += 1
                continue
            bounds = slice_bounds(timestamp)
            if bounds != last_bounds:
                slice_ = get_or_create(*bounds)
                if slice_.store is None:
                    slice_.store = make_store(self._store_kind)
                store = slice_.store
                last_bounds = bounds
            store.add(record.key, (record.value, timestamp), query_set)
            stored += 1
        self.tuples_stored += stored
        self.late_records_dropped += late

    # -- changelog handling --------------------------------------------------

    def on_marker(self, marker: ChangelogMarker) -> None:
        changelog: Changelog = marker.changelog
        self._changelogs.append(changelog)
        for deactivation in changelog.deleted:
            self._slicer.unregister_query(deactivation.slot)
            self._output_slots &= ~(1 << deactivation.slot)
        for activation in changelog.created:
            spec = self._window_for(activation)
            if spec is not None:
                self._slicer.register_query(
                    activation.slot, spec, activation.created_at_ms
                )
                if self._is_output_stage(activation):
                    self._output_slots |= 1 << activation.slot
        self._slicer.on_epoch(changelog.sequence, marker.timestamp)
        self._maybe_switch_storage()
        self.output(marker)

    def _window_for(self, activation) -> Optional[WindowSpec]:
        for stage in activation.query.stages():
            if stage.operator == self.operator_key:
                return self._stage_window(activation.query)
        return None

    def _is_output_stage(self, activation) -> bool:
        for stage in activation.query.stages():
            if stage.operator == self.operator_key:
                return stage.is_output
        return False

    @staticmethod
    def _stage_window(query) -> WindowSpec:
        # Complex queries carry a dedicated join window; plain join
        # queries expose it as their (only) window.
        join_window = getattr(query, "join_window", None)
        if join_window is not None:
            return join_window
        return query.window

    def _maybe_switch_storage(self) -> None:
        """The adaptive data structure switch (§3.1.4, §3.2.3)."""
        active = len(self._slicer.queries())
        if self._store_kind is StoreKind.GROUPED:
            if active > self.storage_query_threshold or self._groups_too_small():
                self._switch_storage(StoreKind.LIST)
        elif active <= self.storage_query_threshold // 2:
            # Hysteresis: only fall back to grouped at half the threshold.
            self._switch_storage(StoreKind.GROUPED)

    def _groups_too_small(self) -> bool:
        sizes = []
        for side in (self._left, self._right):
            for slice_ in side:
                if isinstance(slice_.store, GroupedStore) and slice_.store.tuple_count:
                    sizes.append(slice_.store.mean_group_size())
        if not sizes:
            return False
        return sum(sizes) / len(sizes) < GROUP_SIZE_THRESHOLD

    def _switch_storage(self, kind: StoreKind) -> None:
        self._store_kind = kind
        for side in (self._left, self._right):
            for slice_ in side:
                if slice_.store is not None:
                    slice_.store = convert_store(slice_.store, kind)

    @property
    def store_kind(self) -> StoreKind:
        """The layout new slices are created with."""
        return self._store_kind

    # -- firing ----------------------------------------------------------------

    def on_watermark(self, watermark: Watermark) -> None:
        self._last_watermark_ms = watermark.timestamp
        due = self._slicer.due_windows(watermark.timestamp)
        if due:
            # Queries whose windows share exact bounds are emitted in one
            # pass so the shared pair results fan out as a single record.
            grouped: Dict[Tuple[int, int], int] = {}
            for slot, start, end in due:
                grouped[(start, end)] = grouped.get((start, end), 0) | (1 << slot)
            for (start, end), slots_mask in grouped.items():
                self._fire_window(start, end, slots_mask)
        self._expire(watermark.timestamp)
        if self.obs is not None:
            self._emit_slice_events(watermark.timestamp)
        # Watermark holdback: join results carry the newest *component*
        # timestamp, which can be up to one window length older than the
        # input watermark that released them.  Forwarding the input
        # watermark unmodified would make those results late for
        # downstream cascade stages; hold it back by the longest
        # subscribed window (monotonically — retention shrinks when
        # queries leave, the forwarded watermark must not regress).
        held_back = watermark.timestamp - self._slicer.max_retention_ms
        if held_back > self._forwarded_watermark_ms:
            self._forwarded_watermark_ms = held_back
            self.output(Watermark(held_back))

    def _fire_window(self, start: int, end: int, slots_mask: int) -> None:
        """Join the slice pairs covering one window; its results leave as
        one batch."""
        current_epoch = self._changelogs.current_epoch
        fired: List[Record] = []
        left_slices = self._left.overlapping(start, end)
        right_slices = self._right.overlapping(start, end)
        for left_slice in left_slices:
            left_validity = self._changelogs.cl_set(current_epoch, left_slice.epoch)
            for right_slice in right_slices:
                validity = left_validity & self._changelogs.cl_set(
                    current_epoch, right_slice.epoch
                )
                self.bitset_ops += 2
                emit_mask = validity & slots_mask
                if not emit_mask:
                    continue
                results = self._pair_results(left_slice, right_slice)
                for raw_qs, items in results.items():
                    bits = raw_qs & emit_mask
                    self.bitset_ops += 1
                    if not bits:
                        continue
                    tags = {QS_TAG: bits}
                    fired.extend(
                        Record(joined_ts, payload, key, tags)
                        for key, payload, joined_ts in items
                    )
        self.results_emitted += len(fired)
        self.output_batch(fired)

    def _pair_results(
        self, left_slice: Slice, right_slice: Slice
    ) -> PairResults:
        """Join two slices once; reuse via the computation history."""
        if not self.enable_history:
            self.pairs_computed += 1
            return self._compute_pair(left_slice, right_slice)
        cache_key = (left_slice.id, right_slice.id)
        cached = self._pair_cache.get(cache_key)
        if cached is not None:
            self.pairs_reused += 1
            return cached
        self.pairs_computed += 1
        results = self._compute_pair(left_slice, right_slice)
        self._pair_cache[cache_key] = results
        return results

    def _compute_pair(
        self, left_slice: Slice, right_slice: Slice
    ) -> PairResults:
        left_store = left_slice.store
        right_store = right_slice.store
        if left_store is None or right_store is None:
            return {}
        results: PairResults = {}
        if isinstance(left_store, GroupedStore) and isinstance(
            right_store, GroupedStore
        ):
            # Group-level pruning: skip group pairs sharing no query.
            for left_qs, left_keys in left_store.groups():
                for right_qs, right_keys in right_store.groups():
                    self.bitset_ops += 1
                    raw = left_qs & right_qs
                    if not raw:
                        continue
                    group = results.setdefault(raw, [])
                    for key, left_values in left_keys.items():
                        right_values = right_keys.get(key)
                        if not right_values:
                            continue
                        for left_value, left_ts in left_values:
                            for right_value, right_ts in right_values:
                                group.append(
                                    self._join_one(
                                        key, left_value, left_ts,
                                        right_value, right_ts,
                                    )
                                )
        else:
            for key in left_store.keys():
                right_items = right_store.items_for_key(key)
                if not right_items:
                    continue
                for (left_value, left_ts), left_qs in left_store.items_for_key(key):
                    for (right_value, right_ts), right_qs in right_items:
                        self.bitset_ops += 1
                        raw = left_qs & right_qs
                        if not raw:
                            continue
                        results.setdefault(raw, []).append(
                            self._join_one(
                                key, left_value, left_ts, right_value, right_ts
                            )
                        )
        return results

    @staticmethod
    def _join_one(
        key: Any,
        left_value: Any,
        left_ts: int,
        right_value: Any,
        right_ts: int,
    ) -> Tuple[Any, Any, int]:
        # Flatten cascaded joins left-to-right.
        left_parts = (
            left_value.parts
            if isinstance(left_value, JoinedTuple)
            else (left_value,)
        )
        right_parts = (
            right_value.parts
            if isinstance(right_value, JoinedTuple)
            else (right_value,)
        )
        joined_ts = max(left_ts, right_ts)
        payload = JoinedTuple(
            key=key, parts=left_parts + right_parts, timestamp=joined_ts
        )
        return (key, payload, joined_ts)

    # -- retention ----------------------------------------------------------------

    def _expire(self, watermark_ms: int) -> None:
        horizon = watermark_ms - self._slicer.max_retention_ms
        expired_ids = set()
        for side in (self._left, self._right):
            for slice_ in side.expire_before(horizon):
                expired_ids.add(slice_.id)
        if expired_ids:
            stale = [
                key
                for key in self._pair_cache
                if key[0] in expired_ids or key[1] in expired_ids
            ]
            for key in stale:
                del self._pair_cache[key]
        # Bound metadata growth for long-running deployments: epochs and
        # changelog-set memo entries behind the retention horizon can no
        # longer be referenced by any live slice or late record.
        if self._slicer.prune_before(horizon):
            oldest_epoch = self._slicer.timeline.epoch_for(horizon)[0]
            self._changelogs.prune_memo_before(oldest_epoch)

    # -- introspection ---------------------------------------------------------------

    @property
    def active_query_count(self) -> int:
        """Queries currently subscribed to this join."""
        return len(self._slicer.queries())

    @property
    def live_slices(self) -> Tuple[int, int]:
        """(left, right) slice counts currently retained."""
        return (len(self._left), len(self._right))

    @property
    def cached_pairs(self) -> int:
        """Entries in the computation history."""
        return len(self._pair_cache)

    def stats(self) -> Dict[str, Tuple[float, str]]:
        """Slice-store sizes and the Figure 18 work counters; every
        instance owns its own key range, so all of it is additive."""
        left, right = self._left, self._right
        values = {
            "slices_left": len(left),
            "slices_right": len(right),
            "slices_created": left.created_total + right.created_total,
            "slices_expired": left.expired_total + right.expired_total,
            "tuples_stored": self.tuples_stored,
            "pair_cache_size": len(self._pair_cache),
            "changelog_table_size": len(self._changelogs),
            "pairs_computed": self.pairs_computed,
            "pairs_reused": self.pairs_reused,
            "results_emitted": self.results_emitted,
            "late_records_dropped": self.late_records_dropped,
            "bitset_ops": self.bitset_ops,
        }
        return {name: (value, "sum") for name, value in values.items()}

    def snapshot(self) -> Any:
        # A cached pair's results are built once in ``_compute_pair`` and
        # only read afterwards, so the cache dict is copied and its
        # entries are shared; everything else can still change.
        state = copy.deepcopy(
            {
                "slicer": self._slicer,
                "left": self._left,
                "right": self._right,
                "changelogs": self._changelogs,
                "store_kind": self._store_kind,
                "output_slots": self._output_slots,
            }
        )
        state["pair_cache"] = dict(self._pair_cache)
        return state

    def restore(self, snapshot: Any) -> None:
        state = copy.deepcopy(
            {key: value for key, value in snapshot.items() if key != "pair_cache"}
        )
        self._slicer = state["slicer"]
        self._left = state["left"]
        self._right = state["right"]
        self._changelogs = state["changelogs"]
        self._store_kind = state["store_kind"]
        self._pair_cache = dict(snapshot["pair_cache"])
        self._output_slots = state["output_slots"]
