"""Shared windowed aggregation (§3.1.5).

The shared aggregation is the unary sibling of the shared join.  Instead
of materialising input tuples, each window slice keeps *intermediate
aggregation results* per subscribed query and grouping key: a tuple with
query-set ``101`` is folded into Q1's and Q3's partials and discarded.
When a query window completes, the slice partials covering it are merged
— partials shared by overlapping windows of different (or sliding)
queries are thus computed once.

Unlike the join, the aggregation's output cannot be shared with further
downstream shared aggregations (§3.1.5), so results go to the router
only.

Session windows are supported here (the paper: "time- and session-based
windows", §3.1.3): tuples are still tagged and routed once, and the
operator keeps per-query per-key session accumulators merged on the gap
rule, fired when the watermark passes a session's end.

Keyed state has two backends.  With ``state_backend="lsm"`` the
per-slice accumulator maps live behind :class:`repro.store.SpilledSliceStore`
views over one spill-to-disk LSM store per instance, so keyed state can
exceed RAM; snapshots then carry an incremental *manifest* (immutable
segment paths + per-slice key lists) instead of the accumulator values
themselves.
"""

from __future__ import annotations

import copy
import operator
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.changelog import Changelog, ChangelogTable
from repro.core.query import AggregationKind, AggregationSpec, WindowSpec
from repro.core.selection import QS_TAG
from repro.core.slicing import SliceIndex, SliceManager
from repro.minispe.operators import Operator
from repro.minispe.record import ChangelogMarker, Record, Watermark
from repro.minispe.windows import Window
from repro.store.lsm import materialize_checkpoint
from repro.store.spill import SpilledSliceStore, SpillingStoreHost


def _merge_for(spec: AggregationSpec) -> Callable[[Any, Any], Any]:
    """The fold's merge for ``spec``: plain ``+`` for SUM and COUNT."""
    if spec.kind in (AggregationKind.SUM, AggregationKind.COUNT):
        return operator.add
    return spec.merge


@dataclass(frozen=True, slots=True)
class AggregationResult:
    """One fired window's aggregate for one key and one query."""

    key: Any
    window: Window
    value: Any


@dataclass
class _SessionState:
    """Per-(slot, key) session windows with accumulators."""

    __slots__ = ("sessions",)

    sessions: List[Tuple[int, int, Any]]
    """(start, end, accumulator), kept merged and sorted."""


class SharedAggregationOperator(Operator):
    """Ad-hoc shared windowed aggregation over one tagged stream."""

    def __init__(
        self,
        operator_key: str,
        profile: bool = False,
        state_backend: str = "memory",
        state_dir: Optional[str] = None,
        memtable_entries: int = 16_384,
    ) -> None:
        super().__init__(operator_key)
        self.operator_key = operator_key
        self.profile = profile
        self.state_backend = state_backend
        self._memtable_entries = memtable_entries
        self._state_dir = state_dir
        self._store_host: Optional[SpillingStoreHost] = None
        if state_backend == "lsm":
            self._store_host = SpillingStoreHost(
                state_dir,
                memtable_entries=memtable_entries,
                prefix=operator_key.replace(":", "_").replace("~", "-") + "-",
            )

        self._slicer = SliceManager()
        self._slices = SliceIndex()
        self._changelogs = ChangelogTable()
        self._specs: Dict[int, AggregationSpec] = {}
        self._subscribed = 0  # bitset of subscribed slots (time windows)

        # Session-window state, per slot.
        self._session_specs: Dict[int, Tuple[WindowSpec, AggregationSpec]] = {}
        self._session_state: Dict[Tuple[int, Any], _SessionState] = {}

        # Fold masks, derived from the two spec maps at each changelog
        # and rebuilt on restore (never snapshotted): the time-window
        # slots of each distinct aggregate, with its bound merge, and the
        # session slots.
        self._spec_masks: Dict[AggregationSpec, int] = {}
        self._spec_merges: Dict[AggregationSpec, Callable[[Any, Any], Any]] = {}
        self._session_mask = 0

        self.bitset_ops = 0
        self.partial_updates = 0
        self.results_emitted = 0
        self.late_records_dropped = 0
        self.profile_ns = 0
        self._last_watermark_ms = -1

        # Telemetry hub, attached by the owning engine when observe mode
        # is on; slice churn is reported from the watermark path only.
        self.obs = None
        self._obs_slices_created = 0
        self._obs_slices_expired = 0

    def _emit_slice_events(self, watermark_ms: int) -> None:
        created = self._slices.created_total
        expired = self._slices.expired_total
        if created != self._obs_slices_created:
            self.obs.events.emit(
                "slice_create",
                t_ms=watermark_ms,
                operator=self.name,
                count=created - self._obs_slices_created,
                live=len(self._slices),
            )
            self._obs_slices_created = created
        if expired != self._obs_slices_expired:
            self.obs.events.emit(
                "slice_expire",
                t_ms=watermark_ms,
                operator=self.name,
                count=expired - self._obs_slices_expired,
                live=len(self._slices),
            )
            self._obs_slices_expired = expired

    # -- changelog handling ----------------------------------------------------

    def on_marker(self, marker: ChangelogMarker) -> None:
        changelog: Changelog = marker.changelog
        self._changelogs.append(changelog)
        for deactivation in changelog.deleted:
            slot = deactivation.slot
            self._slicer.unregister_query(slot)
            self._drop_spec(slot)
            self._subscribed &= ~(1 << slot)
            if slot in self._session_specs:
                del self._session_specs[slot]
                self._session_mask &= ~(1 << slot)
                stale = [key for key in self._session_state if key[0] == slot]
                for key in stale:
                    del self._session_state[key]
        for activation in changelog.created:
            spec = self._window_for(activation)
            if spec is None:
                continue
            agg_spec = activation.query.aggregation
            if spec.is_session:
                self._session_specs[activation.slot] = (spec, agg_spec)
                self._session_mask |= 1 << activation.slot
                self._subscribed |= 1 << activation.slot
            else:
                self._slicer.register_query(
                    activation.slot, spec, activation.created_at_ms
                )
                self._set_spec(activation.slot, agg_spec)
                self._subscribed |= 1 << activation.slot
        self._slicer.on_epoch(changelog.sequence, marker.timestamp)
        self.output(marker)

    def _window_for(self, activation) -> Optional[WindowSpec]:
        for stage in activation.query.stages():
            if stage.operator == self.operator_key:
                agg_window = getattr(activation.query, "aggregation_window", None)
                if agg_window is not None:
                    return agg_window
                return activation.query.window
        return None

    def _set_spec(self, slot: int, spec: AggregationSpec) -> None:
        self._drop_spec(slot)
        self._specs[slot] = spec
        self._spec_masks[spec] = self._spec_masks.get(spec, 0) | (1 << slot)
        if spec not in self._spec_merges:
            self._spec_merges[spec] = _merge_for(spec)

    def _drop_spec(self, slot: int) -> None:
        spec = self._specs.pop(slot, None)
        if spec is None:
            return
        mask = self._spec_masks[spec] & ~(1 << slot)
        if mask:
            self._spec_masks[spec] = mask
        else:
            del self._spec_masks[spec], self._spec_merges[spec]

    def _rebuild_fold_masks(self) -> None:
        """Re-derive the fold masks after the spec maps were replaced."""
        specs, self._specs = self._specs, {}
        self._spec_masks, self._spec_merges = {}, {}
        for slot, spec in specs.items():
            self._set_spec(slot, spec)
        self._session_mask = 0
        for slot in self._session_specs:
            self._session_mask |= 1 << slot

    # -- data path -----------------------------------------------------------

    def process_batch(self, records: List[Record]) -> None:
        """Fold one batch: the subscription and session bitsets and the
        late horizon are resolved once per batch, not once per record."""
        subscribed = self._subscribed
        if not subscribed:
            self.bitset_ops += len(records)
            return
        started = time.perf_counter_ns() if self.profile else 0
        time_mask = subscribed & ~self._session_mask
        session_mask = subscribed & self._session_mask
        late_horizon = self._last_watermark_ms - self._slicer.max_retention_ms
        fold_time = self._fold_time_windows
        fold_sessions = self._fold_sessions
        bitset_ops = 0
        for record in records:
            query_set = record.tags.get(QS_TAG, 0)
            bitset_ops += 1
            time_window_bits = query_set & time_mask
            if time_window_bits:
                fold_time(record, time_window_bits, late_horizon)
            relevant_sessions = query_set & session_mask
            if relevant_sessions:
                fold_sessions(record, relevant_sessions)
        self.bitset_ops += bitset_ops
        if self.profile:
            self.profile_ns += time.perf_counter_ns() - started

    def _fold_time_windows(self, record: Record, bits: int, late_horizon: int) -> None:
        """Fold one record into the partials of its matched slots.

        The record is lifted once per distinct aggregate it matches,
        ``delta = add(initial(), value)``, and the delta is merged into
        each matched slot's accumulator (stored as is for a new key).
        Only set bits are visited, so the cost is one lift per matched
        aggregate plus one dict update per matched slot — nothing scans
        the query population.  ``merge(acc, add(initial(), v)) ==
        add(acc, v)`` holds exactly for every kind (DESIGN.md, "Shared
        aggregation: one lift per aggregate"), so the partials are those
        of a per-slot fold.
        """
        if record.timestamp <= late_horizon:
            # Beyond any window that could still fire: observable drop.
            self.late_records_dropped += 1
            return
        start, end, epoch = self._slicer.slice_bounds(record.timestamp)
        slice_ = self._slices.get_or_create(start, end, epoch)
        if slice_.store is None:
            # slot -> key -> accumulator; a dict-shaped spill view when
            # the lsm backend is active, a plain dict otherwise.
            if self._store_host is not None:
                slice_.store = self._store_host.make_slice_store(start)
            else:
                slice_.store = {}
        store: Dict[int, Dict[Any, Any]] = slice_.store
        key = record.key
        value = record.value
        merges = self._spec_merges
        updates = 0
        for spec, mask in self._spec_masks.items():
            matched = bits & mask
            if not matched:
                continue
            updates += matched.bit_count()
            delta = spec.add(spec.initial(), value)
            merge = merges[spec]
            while matched:
                low = matched & -matched
                slot = low.bit_length() - 1
                matched ^= low
                per_key = store.get(slot)
                if per_key is None:
                    per_key = store.setdefault(slot, {})
                acc = per_key.get(key)
                per_key[key] = delta if acc is None else merge(acc, delta)
        self.partial_updates += updates

    def _fold_sessions(self, record: Record, bits: int) -> None:
        self.partial_updates += bits.bit_count()
        while bits:
            low = bits & -bits
            slot = low.bit_length() - 1
            bits ^= low
            window_spec, agg_spec = self._session_specs[slot]
            self._merge_session(
                slot, record.key, record.timestamp, record.value,
                window_spec, agg_spec,
            )

    def _merge_session(
        self,
        slot: int,
        key: Any,
        timestamp: int,
        value: Any,
        window_spec: WindowSpec,
        agg_spec: AggregationSpec,
    ) -> None:
        state = self._session_state.get((slot, key))
        if state is None:
            state = _SessionState(sessions=[])
            self._session_state[(slot, key)] = state
        proto_start = timestamp
        proto_end = timestamp + window_spec.gap_ms
        acc = agg_spec.add(agg_spec.initial(), value)
        merged: List[Tuple[int, int, Any]] = []
        for start, end, existing in state.sessions:
            if start <= proto_end and proto_start <= end:
                proto_start = min(proto_start, start)
                proto_end = max(proto_end, end)
                acc = agg_spec.merge(acc, existing)
            else:
                merged.append((start, end, existing))
        merged.append((proto_start, proto_end, acc))
        merged.sort()
        state.sessions = merged

    # -- firing ------------------------------------------------------------------

    def on_watermark(self, watermark: Watermark) -> None:
        started = time.perf_counter_ns() if self.profile else 0
        self._last_watermark_ms = watermark.timestamp
        for slot, start, end in self._slicer.due_windows(watermark.timestamp):
            self._fire_time_window(slot, start, end)
        self._fire_sessions(watermark.timestamp)
        horizon = watermark.timestamp - self._slicer.max_retention_ms
        expired = self._slices.expire_before(horizon)
        if self._store_host is not None:
            # Tombstone expired slices so compaction reclaims the disk.
            for slice_ in expired:
                if isinstance(slice_.store, SpilledSliceStore):
                    slice_.store.drop()
        # Bound metadata growth (see SharedJoinOperator._expire).
        if self._slicer.prune_before(horizon):
            oldest_epoch = self._slicer.timeline.epoch_for(horizon)[0]
            self._changelogs.prune_memo_before(oldest_epoch)
        if self.obs is not None:
            self._emit_slice_events(watermark.timestamp)
        if self.profile:
            self.profile_ns += time.perf_counter_ns() - started
        self.output(watermark)

    def _fire_time_window(self, slot: int, start: int, end: int) -> None:
        spec = self._specs.get(slot)
        if spec is None:
            return
        current_epoch = self._changelogs.current_epoch
        merge = self._spec_merges[spec]
        merged: Dict[Any, Any] = {}
        for slice_ in self._slices.overlapping(start, end):
            validity = self._changelogs.cl_set(current_epoch, slice_.epoch)
            self.bitset_ops += 1
            if not (validity >> slot) & 1:
                continue
            store = slice_.store or {}
            for key, acc in store.get(slot, {}).items():
                existing = merged.get(key)
                merged[key] = acc if existing is None else merge(existing, acc)
        self._emit_window(slot, Window(start, end), spec, merged)

    def _fire_sessions(self, watermark_ms: int) -> None:
        for (slot, key), state in list(self._session_state.items()):
            window_spec, agg_spec = self._session_specs.get(slot, (None, None))
            if window_spec is None:
                continue
            remaining = []
            for start, end, acc in state.sessions:
                if end - 1 <= watermark_ms:
                    self._emit_window(
                        slot, Window(start, end), agg_spec, {key: acc}
                    )
                else:
                    remaining.append((start, end, acc))
            if remaining:
                state.sessions = remaining
            else:
                del self._session_state[(slot, key)]

    def _emit_window(
        self, slot: int, window: Window, spec: AggregationSpec, merged: Dict[Any, Any]
    ) -> None:
        """Emit one fired window of one query — a result per key of
        ``merged`` (key -> accumulator), in key-``repr`` order — as one
        batch."""
        self.results_emitted += len(merged)
        timestamp = window.max_timestamp()
        tags = {QS_TAG: 1 << slot}
        self.output_batch(
            [
                Record(
                    timestamp,
                    AggregationResult(
                        key=key, window=window, value=spec.finish(merged[key])
                    ),
                    key,
                    tags,
                )
                for key in sorted(merged, key=repr)
            ]
        )

    # -- introspection ---------------------------------------------------------------

    @property
    def active_query_count(self) -> int:
        """Queries currently subscribed to this aggregation."""
        return len(self._specs) + len(self._session_specs)

    @property
    def live_slices(self) -> int:
        """Slices currently retained."""
        return len(self._slices)

    def stats(self) -> Dict[str, Tuple[float, str]]:
        """Slice/session sizes and work counters, plus spill-store
        entries on the lsm backend.  All additive."""
        values = {
            "slices": len(self._slices),
            "slices_created": self._slices.created_total,
            "slices_expired": self._slices.expired_total,
            "session_windows": len(self._session_state),
            "changelog_table_size": len(self._changelogs),
            "partial_updates": self.partial_updates,
            "results_emitted": self.results_emitted,
            "late_records_dropped": self.late_records_dropped,
            "bitset_ops": self.bitset_ops,
            "profile_ns": self.profile_ns,
        }
        if self._store_host is not None:
            store = self._store_host.stats()
            values.update(
                spilled_bytes=store["spilled_bytes"],
                spill_segments=store["segments"],
                spill_entries=store["entries"],
                spill_memtable_entries=store["memtable_entries"],
                spill_flushes=store["flushes"],
                spill_compactions=store["compactions"],
            )
        return {name: (value, "sum") for name, value in values.items()}

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> Any:
        if self._store_host is None:
            return copy.deepcopy(
                {
                    "slicer": self._slicer,
                    "slices": self._slices,
                    "changelogs": self._changelogs,
                    "specs": self._specs,
                    "subscribed": self._subscribed,
                    "session_specs": self._session_specs,
                    "session_state": self._session_state,
                }
            )
        # lsm: metadata plus an incremental segment manifest.  The
        # accumulator values stay in their immutable on-disk segments;
        # the payload carries segment *paths* (and the per-slice key
        # lists needed to rebuild the views), so checkpoint cost scales
        # with the delta written since the last barrier, not with total
        # state size.
        store = self._store_host.store
        for slice_ in self._slices:
            if isinstance(slice_.store, SpilledSliceStore):
                slice_.store.spill_hot()
        if store.stats()["segments"] > _COMPACT_SEGMENTS:
            store.compact()  # background-free compaction at the barrier
        return {
            "state_backend": "lsm",
            "slicer": copy.deepcopy(self._slicer),
            "changelogs": copy.deepcopy(self._changelogs),
            "specs": copy.deepcopy(self._specs),
            "subscribed": self._subscribed,
            "session_specs": copy.deepcopy(self._session_specs),
            "session_state": copy.deepcopy(self._session_state),
            "slices_meta": [
                (
                    slice_.start,
                    slice_.end,
                    slice_.epoch,
                    slice_.store.key_manifest()
                    if isinstance(slice_.store, SpilledSliceStore)
                    else None,
                )
                for slice_ in self._slices
            ],
            "created_total": self._slices.created_total,
            "expired_total": self._slices.expired_total,
            "expiry_horizon": self._slices._expiry_horizon_ms,
            "store_checkpoint": store.checkpoint(),
        }

    def restore(self, snapshot: Any) -> None:
        """Restore from either snapshot shape, on either backend.

        Memory-backend snapshots are the materialised dict shape; lsm
        snapshots are manifests.  Elastic resize and recovery may cross
        the two (a memory donor restored into an lsm instance, or an lsm
        checkpoint inspected by a memory one), so both are accepted and
        converted as needed.
        """
        is_manifest = (
            isinstance(snapshot, dict)
            and snapshot.get("state_backend") == "lsm"
        )
        if is_manifest and self._store_host is not None:
            self._restore_manifest(snapshot)
        else:
            if is_manifest:
                snapshot = materialize_agg_snapshot(snapshot)
            self._restore_materialized(snapshot)

    def _restore_materialized(self, snapshot: Any) -> None:
        state = copy.deepcopy(snapshot)
        self._slicer = state["slicer"]
        self._changelogs = state["changelogs"]
        self._specs = state["specs"]
        self._subscribed = state["subscribed"]
        self._session_specs = state["session_specs"]
        self._session_state = state["session_state"]
        self._rebuild_fold_masks()
        slices: SliceIndex = state["slices"]
        if self._store_host is None:
            self._slices = slices
            return
        # Re-spill the materialised accumulators into this instance's
        # own store (resize/recovery hand materialised donors around).
        self._store_host.store.clear()
        rebuilt = SliceIndex()
        for slice_ in slices:
            new_slice = rebuilt.get_or_create(
                slice_.start, slice_.end, slice_.epoch
            )
            if not slice_.store:
                continue
            spill = self._store_host.make_slice_store(slice_.start)
            for slot, per_key in slice_.store.items():
                view = spill.setdefault(slot)
                for key, acc in per_key.items():
                    view[key] = acc
            new_slice.store = spill
        rebuilt.created_total = slices.created_total
        rebuilt.expired_total = slices.expired_total
        rebuilt._expiry_horizon_ms = slices._expiry_horizon_ms
        self._slices = rebuilt

    def _restore_manifest(self, snapshot: Dict[str, Any]) -> None:
        """lsm manifest -> lsm instance: adopt segments by path."""
        self._slicer = copy.deepcopy(snapshot["slicer"])
        self._changelogs = copy.deepcopy(snapshot["changelogs"])
        self._specs = copy.deepcopy(snapshot["specs"])
        self._subscribed = snapshot["subscribed"]
        self._session_specs = copy.deepcopy(snapshot["session_specs"])
        self._session_state = copy.deepcopy(snapshot["session_state"])
        self._rebuild_fold_masks()
        self._store_host.store.restore(snapshot["store_checkpoint"])
        rebuilt = SliceIndex()
        for start, end, epoch, manifest in snapshot["slices_meta"]:
            slice_ = rebuilt.get_or_create(start, end, epoch)
            if manifest:
                spill = self._store_host.make_slice_store(start)
                spill.adopt_keys(manifest)
                slice_.store = spill
        rebuilt.created_total = snapshot["created_total"]
        rebuilt.expired_total = snapshot["expired_total"]
        rebuilt._expiry_horizon_ms = snapshot["expiry_horizon"]
        self._slices = rebuilt

    def close(self) -> None:
        """Release the spill store (its directory, if operator-owned)."""
        if self._store_host is not None:
            self._store_host.close()


# Compact the spill store at a checkpoint barrier once it holds more than
# this many segments: read amplification stays bounded while most
# checkpoints still ship only the delta segments.
_COMPACT_SEGMENTS = 8


def materialize_agg_snapshot(snapshot: Any) -> Any:
    """Expand an lsm-manifest snapshot into the materialised dict shape.

    Migration splits donor state key-by-key, and a memory-backend
    instance restoring an lsm checkpoint needs plain values; both paths
    call this.  Materialised snapshots pass through unchanged.
    """
    if not (
        isinstance(snapshot, dict) and snapshot.get("state_backend") == "lsm"
    ):
        return snapshot
    materialized = materialize_checkpoint(snapshot["store_checkpoint"])
    slices = SliceIndex()
    for start, end, epoch, manifest in snapshot["slices_meta"]:
        slice_ = slices.get_or_create(start, end, epoch)
        if manifest:
            slice_.store = {
                slot: {
                    key: materialized[(start, slot, key)]
                    for key in keys
                    if (start, slot, key) in materialized
                }
                for slot, keys in manifest.items()
            }
    slices.created_total = snapshot["created_total"]
    slices.expired_total = snapshot["expired_total"]
    slices._expiry_horizon_ms = snapshot["expiry_horizon"]
    return {
        "slicer": copy.deepcopy(snapshot["slicer"]),
        "slices": slices,
        "changelogs": copy.deepcopy(snapshot["changelogs"]),
        "specs": copy.deepcopy(snapshot["specs"]),
        "subscribed": snapshot["subscribed"],
        "session_specs": copy.deepcopy(snapshot["session_specs"]),
        "session_state": copy.deepcopy(snapshot["session_state"]),
    }
