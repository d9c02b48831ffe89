"""Shared windowed aggregation (§3.1.5).

The shared aggregation is the unary sibling of the shared join.  Instead
of materialising input tuples, each window slice keeps *intermediate
aggregation results* per subscribed query and grouping key: a tuple with
query-set ``101`` is folded into Q1's and Q3's partials and discarded.
When a query window completes, the slice partials covering it are merged
— partials shared by overlapping windows of different (or sliding)
queries are thus computed once.

Queries whose predicate is one interval on one field share finer: a
record is folded once per (aggregate, anchor field) group it hits, into
the stabbing segment its query-set names, and a member reads its
covered segment range at fire (DESIGN.md, "Shared aggregation: one
update per stabbing segment").

Unlike the join, the aggregation's output cannot be shared with further
downstream shared aggregations (§3.1.5), so results go to the router
only.

Session windows are supported here (the paper: "time- and session-based
windows", §3.1.3): tuples are still tagged and routed once, and the
operator keeps per-query per-key session accumulators merged on the gap
rule, fired when the watermark passes a session's end.
"""

from __future__ import annotations

import copy
import operator
from itertools import accumulate, compress, repeat
from operator import itemgetter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bitset import iter_slots
from repro.core.changelog import Changelog, ChangelogTable
from repro.core.planner import Interval, normalize, stabbing_segments
from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    WindowSpec,
)
from repro.core.selection import QS_TAG
from repro.core.slicing import SliceIndex, SliceManager
from repro.minispe.operators import Operator
from repro.minispe.record import ChangelogMarker, Record, Watermark
from repro.minispe.windows import Window


def _merge_for(spec: AggregationSpec) -> Callable[[Any, Any], Any]:
    """The fold's merge for ``spec``: plain ``+`` for SUM and COUNT."""
    if spec.kind in (AggregationKind.SUM, AggregationKind.COUNT):
        return operator.add
    return spec.merge


# The merge's inverse, for the kinds whose rows take prefix form.
_MINUS: Dict[AggregationKind, Callable[[Any, Any], Any]] = {
    AggregationKind.SUM: operator.sub, AggregationKind.COUNT: operator.sub,
    AggregationKind.AVG: lambda high, low: (high[0] - low[0], high[1] - low[1]),
}
_DEMOTED = ()  # a demoted row: its members fold per slot from then on


# A group shares rows only while a row has at most this many cells per
# member that a record matches (the mean depth of its segments).  A row
# costs a prefix pass over its cells, and every member scans every row of
# the group at fire, so rows pay only while they replace enough per-slot
# updates: narrow, sparse members (500 width-15 intervals, 12 cells per
# match) fold faster per slot.
_CELLS_PER_MATCH = 4


class _SegmentGroup:
    """One (aggregate, anchor field) group's stabbing segments.  A row is
    an initial cell, one cell per segment (``s`` at ``s + 1``), the
    presence bitmask and the prefix flag.  ``segment_of`` maps a query-set
    masked to ``slots`` to its segment (one mask, one member set);
    ``ranges`` maps each member to the segments ``[a, b)`` it covers."""

    def __init__(self, spec: AggregationSpec, members: Dict[int, Interval]) -> None:
        self.spec = spec
        self.members = members
        cuts, masks, self.slots = stabbing_segments(
            [(interval, 1 << slot) for slot, interval in members.items()]
        )
        position = {cut: index for index, cut in enumerate(cuts)}
        self.size = len(cuts) - 1  # nothing covers the last segment
        self.segment_of = {mask: index for index, mask in enumerate(masks) if mask}
        depths = [mask.bit_count() for mask in masks if mask]
        self.shares = self.size * len(depths) <= _CELLS_PER_MATCH * sum(depths)
        self.ranges = {
            slot: (position[interval.start_key], position[interval.end_key])
            for slot, interval in members.items()
        }
        self.empty = [spec.initial()] * (self.size + 1) + [0, False]
        self.merge = _merge_for(spec)
        self.minus = _MINUS.get(spec.kind)  # None: MIN and MAX stay per segment

    def to_prefix(self, row: List[Any]) -> None:
        """Turn the cells into prefixes in place: cell ``i`` then holds
        segments ``[0, i)``, so ``[a, b)`` is ``minus(row[b], row[a])``."""
        row[: self.size + 1] = accumulate(row[: self.size + 1], self.merge)
        row[-1] = True

    def read(self, row: List[Any], a: int, b: int) -> Any:
        """The accumulator of segments ``[a, b)``; None if none is present."""
        present = row[-2] >> a & ((1 << (b - a)) - 1)
        if not present:
            return None
        if row[-1]:
            return self.minus(row[b], row[a])
        acc = None
        while present:
            low = present & -present
            cell = row[a + low.bit_length()]
            acc = cell if acc is None else self.merge(acc, cell)
            present ^= low
        return acc


class _Layout:
    """One epoch's segment groups; group ``i`` keeps its rows in the slice
    store under the pseudo-slot ``-1 - i``."""

    def __init__(self, groups: List[_SegmentGroup]) -> None:
        self.groups = groups
        self.pseudo = {group: -1 - index for index, group in enumerate(groups)}
        self.slot_group = {
            slot: (self.pseudo[group], group) for group in groups for slot in group.members
        }
        self.slots = sum(1 << slot for slot in self.slot_group)
        # The members whose rows take prefix form (all but MIN and MAX).
        self.prefix_slots = sum(group.slots for group in groups if group.minus)
        # One fold entry per spec, so a record is lifted once per spec:
        # [spec, its initial accumulator (immutable, so shared), its
        # groups' slots, is AVG, [(pseudo-slot, group)]].
        folds: Dict[AggregationSpec, list] = {}
        for index, group in enumerate(groups):
            spec = group.spec
            fold = folds.setdefault(
                spec, [spec, spec.initial(), 0, spec.kind is AggregationKind.AVG, []]
            )
            fold[2] |= group.slots
            fold[4].append((-1 - index, group))
        self.folds = list(folds.values())

    def bind(self, store: Dict[int, Dict[Any, Any]]) -> list:
        """The fold entries over one slice's ``store``: each group as
        (slots, segment map, merge, group, its row map in the store)."""
        return [
            (
                spec,
                initial,
                spec_slots,
                is_avg,
                [
                    (
                        group.slots,
                        group.segment_of,
                        group.merge,
                        group,
                        store.setdefault(pseudo_slot, {}),
                    )
                    for pseudo_slot, group in groups
                ],
            )
            for spec, initial, spec_slots, is_avg, groups in self.folds
        ]


@dataclass(frozen=True, slots=True)
class AggregationResult:
    """One fired window's aggregate for one key and one query."""

    key: Any
    window: Window
    value: Any


class WindowRun:
    """One fired window of one query, as columns: the operator's output.

    ``keys`` is in key-``repr`` order and ``values[i]`` is the finished
    aggregate of ``keys[i]``; every result has the window's
    ``timestamp``.  A run is built once by the fire, handed to
    its query's channel by reference and never mutated after that, so
    checkpoints share it (DESIGN.md, "Result path: one run per fired
    window").  :meth:`results` builds the per-result objects, only at the
    edges that need them.
    """

    __slots__ = ("window", "timestamp", "keys", "values")

    def __init__(
        self, window: Window, timestamp: int, keys: List[Any], values: List[Any]
    ) -> None:
        self.window = window
        self.timestamp = timestamp
        self.keys = keys
        self.values = values

    def __len__(self) -> int:
        return len(self.keys)

    def results(self, start: int = 0, stop: Optional[int] = None) -> List[AggregationResult]:
        """The :class:`AggregationResult` of each key in ``[start, stop)``."""
        keys = self.keys[start:stop]
        return list(
            map(AggregationResult, keys, repeat(self.window, len(keys)),
                self.values[start:stop])
        )


@dataclass
class _SessionState:
    """Per-(slot, key) session windows with accumulators."""

    __slots__ = ("sessions",)

    sessions: List[Tuple[int, int, Any]]
    """(start, end, accumulator), kept merged and sorted."""


class SharedAggregationOperator(Operator):
    """Ad-hoc shared windowed aggregation over one tagged stream."""

    def __init__(self, operator_key: str) -> None:
        super().__init__(operator_key)
        self.operator_key = operator_key

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
        self._rebuild_layouts()

        self.bitset_ops = 0
        self.partial_updates = 0
        self.results_emitted = 0
        self.late_records_dropped = 0
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

    # -- segment layouts ------------------------------------------------------

    def _rebuild_layouts(self) -> None:
        """Recompile the layout of every live slice's epoch.  Layouts are
        derived state: compiled per epoch (slices never span a changelog)
        at its first record, kept while a slice of the epoch lives."""
        self._layouts: Dict[int, _Layout] = {}
        self._members: Dict[Tuple[AggregationSpec, int], Dict[int, Interval]] = {}
        self._members_epoch = 0
        # The member sets at an epoch no record can land before: where
        # the replay for a late record starts.
        self._base: Dict[Tuple[AggregationSpec, int], Dict[int, Interval]] = {}
        self._base_epoch = 0
        self._compiled: Dict[Tuple[AggregationSpec, int], _SegmentGroup] = {}
        for epoch in sorted({slice_.epoch for slice_ in self._slices}):
            self._layout_for(epoch)
        # A (member, key) a restored checkpoint holds per slot (one taken
        # before segment rows existed) keeps the per-slot fold: its row
        # starts demoted, so no sample is ever read from both.
        for slice_ in self._slices:
            store = slice_.store
            if not store:
                continue
            for index, group in enumerate(self._layouts[slice_.epoch].groups):
                held = [store.get(slot) for slot in group.members]
                keys = {key for per_key in held if per_key for key in per_key.keys()}
                if keys:
                    rows = store.setdefault(-1 - index, {})
                    for key in keys:
                        if rows.get(key) is None:
                            rows[key] = _DEMOTED

    def _replay(self, members: Dict, first: int, last: int) -> None:
        """Apply the changelogs of epochs ``first + 1 .. last`` to the
        member sets ``members``."""
        for sequence in range(first + 1, last + 1):
            changelog = self._changelogs.changelog_starting(sequence)
            for group in members.values():
                for slot in changelog.changed_slots:
                    group.pop(slot, None)
            for activation in changelog.created:
                # A time-window plain aggregation whose predicate is one
                # interval on one field joins its (spec, field) group.
                query, window = activation.query, self._window_for(activation)
                if type(query) is AggregationQuery and window and not window.is_session:
                    normalized = normalize(query.predicate)
                    if normalized is not None and len(normalized.constraints) == 1:
                        field, interval = normalized.constraints[0]
                        group = members.setdefault((query.aggregation, field), {})
                        group[activation.slot] = interval

    def _layout_for(self, epoch: int) -> _Layout:
        """Compile ``epoch``'s layout from its member sets, reusing every
        group whose members did not change since the last compile."""
        if epoch >= self._members_epoch:
            self._replay(self._members, self._members_epoch, epoch)
            self._members_epoch = epoch
            members = self._members
        else:
            # A late record into an older epoch: replay from the base,
            # first moved up to the oldest epoch a record can still land
            # in, so no replay reaches behind the retention horizon.
            horizon = self._last_watermark_ms - self._slicer.max_retention_ms
            oldest = min(epoch, self._slicer.timeline.epoch_for(horizon)[0])
            if self._base_epoch > epoch:
                self._base, self._base_epoch = {}, 0
            self._replay(self._base, self._base_epoch, oldest)
            self._base_epoch = max(self._base_epoch, oldest)
            members = {key: dict(group) for key, group in self._base.items()}
            self._replay(members, self._base_epoch, epoch)
        groups = []
        for group_key in sorted(members, key=repr):
            if not members[group_key]:
                continue
            group = self._compiled.get(group_key)
            if group is None or group.members != members[group_key]:
                group = _SegmentGroup(group_key[0], dict(members[group_key]))
                if members is self._members:
                    self._compiled[group_key] = group
            if group.shares:
                groups.append(group)
        self._layouts[epoch] = _Layout(groups)
        return self._layouts[epoch]

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
        """Fold one batch — the operator's one data body.

        The subscription and session bitsets and the late horizon are
        resolved once per batch; the slice bounds, the slice's store, its
        epoch's layout and each group's row map once per run of records
        in one slice (batches are near-sorted, so runs are long).

        Per record, segment-group members take one row update per group
        hit, lifted once per aggregate.  A row folds only int deltas
        whose masked query-set is a layout mask; otherwise it is demoted:
        its members take their covered ranges as per-slot accumulators,
        and fold per slot from then on.  A row already in prefix form (a
        late record after a fire) is patched from its segment on.  The
        other slots are lifted once per distinct aggregate they match,
        ``delta = add(initial(), value)``, and each merges the delta into
        its accumulator (stored as is for a new key), which is exactly a
        per-slot fold (DESIGN.md, "Shared aggregation: one update per
        stabbing segment").  Session slots merge into their sessions.
        """
        self.bitset_ops += len(records)
        subscribed = self._subscribed
        if not subscribed:
            return
        time_mask = subscribed & ~self._session_mask
        session_mask = subscribed & self._session_mask
        late_horizon = self._last_watermark_ms - self._slicer.max_retention_ms
        slice_bounds = self._slicer.slice_bounds
        per_spec = [
            (spec, spec.initial(), mask, self._spec_merges[spec])
            for spec, mask in self._spec_masks.items()
        ]
        slice_low = slice_high = 0  # empty run: the first record resolves one
        updates = late = 0
        for record in records:
            query_set = record.tags.get(QS_TAG, 0)
            bits = query_set & time_mask
            timestamp = record.timestamp
            if bits and timestamp <= late_horizon:
                # Beyond any window that could still fire: observable drop.
                late += 1
            elif bits:
                if not slice_low <= timestamp < slice_high:
                    slice_low, slice_high, epoch = slice_bounds(timestamp)
                    slice_ = self._slices.get_or_create(slice_low, slice_high, epoch)
                    if slice_.store is None:
                        # slot -> key -> accumulator, pseudo-slot -> key -> row.
                        slice_.store = {}
                    store: Dict[int, Dict[Any, Any]] = slice_.store
                    # By the slice's epoch: a changelog at the same event
                    # time as the last one starts a new epoch but reuses
                    # the slices at that time.
                    layout = self._layouts.get(slice_.epoch) or self._layout_for(
                        slice_.epoch
                    )
                    layout_slots = layout.slots
                    folds = layout.bind(store)
                key = record.key
                value = record.value
                if query_set & layout_slots:
                    per_slot = 0
                    for spec, initial, spec_slots, is_avg, groups in folds:
                        if not query_set & spec_slots:
                            continue
                        delta = spec.add(initial, value)
                        exact = type(delta[0] if is_avg else delta) is int
                        for group_slots, segment_of, merge, group, per_key in groups:
                            hit = query_set & group_slots
                            if not hit:
                                continue
                            row = per_key.get(key)
                            segment = segment_of.get(hit) if exact else None
                            if segment is None or not row:
                                if row is None:
                                    row = per_key[key] = (
                                        _DEMOTED if segment is None else group.empty.copy()
                                    )
                                elif row:  # no segment: demote the row
                                    for slot, (a, b) in group.ranges.items():
                                        acc = group.read(row, a, b)
                                        if acc is not None:
                                            store.setdefault(slot, {})[key] = acc
                                    row = per_key[key] = _DEMOTED
                                if not row:
                                    per_slot |= hit
                                    continue
                            if row[-1]:  # prefix form: patch from here on
                                for index in range(segment + 1, group.size + 1):
                                    row[index] = merge(row[index], delta)
                            else:
                                row[segment + 1] = merge(row[segment + 1], delta)
                            row[-2] |= 1 << segment
                            updates += 1
                    bits = bits & ~layout_slots | bits & per_slot
                for spec, initial, mask, merge in per_spec:
                    matched = bits & mask
                    if not matched:
                        continue
                    updates += matched.bit_count()
                    delta = spec.add(initial, value)
                    while matched:
                        low = matched & -matched
                        slot = low.bit_length() - 1
                        matched ^= low
                        per_key = store.get(slot)
                        if per_key is None:
                            per_key = store.setdefault(slot, {})
                        acc = per_key.get(key)
                        per_key[key] = delta if acc is None else merge(acc, delta)
            sessions = query_set & session_mask
            if sessions:
                updates += sessions.bit_count()
                while sessions:
                    low = sessions & -sessions
                    slot = low.bit_length() - 1
                    sessions ^= low
                    window_spec, agg_spec = self._session_specs[slot]
                    self._merge_session(
                        slot, record.key, timestamp, record.value,
                        window_spec, agg_spec,
                    )
        self.partial_updates += updates
        self.late_records_dropped += late

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
        self._last_watermark_ms = watermark.timestamp
        fired = self._fire_windows(self._slicer.due_windows(watermark.timestamp))
        self._fire_sessions(watermark.timestamp, fired)
        self.output_batch(fired)
        horizon = watermark.timestamp - self._slicer.max_retention_ms
        expired = self._slices.expire_before(horizon)
        if expired:
            live = {slice_.epoch for slice_ in self._slices}
            self._layouts = {e: l for e, l in self._layouts.items() if e in live}
        # Bound metadata growth (see SharedJoinOperator._expire).
        if self._slicer.prune_before(horizon):
            oldest_epoch = self._slicer.timeline.epoch_for(horizon)[0]
            self._changelogs.prune_memo_before(oldest_epoch)
        if self.obs is not None:
            self._emit_slice_events(watermark.timestamp)
        self.output(watermark)

    def _fire_windows(self, due: List[Tuple[int, int, int]]) -> List[Record]:
        """Fire every due window of one watermark: one run record per
        non-empty ``(slot, start, end)`` of ``due``, in that order.

        Per distinct window, the overlapping slices, their changelog-sets
        and their layouts are resolved once.  The members of a SUM, COUNT
        or AVG group valid in every slice, with no per-slot map in any and
        one group object in all, read one table (:meth:`_fire_group`);
        every other member (MIN and MAX groups, demoted rows, per-slot
        members) merges its partials slice by slice (:meth:`_merge_slot`).
        """
        specs = self._specs
        windows: Dict[Tuple[int, int], int] = {}
        for slot, start, end in due:
            if slot in specs:
                windows[start, end] = windows.get((start, end), 0) | 1 << slot
        cl_set, current = self._changelogs.cl_set, self._changelogs.current_epoch
        runs: Dict[Tuple[int, int], Record] = {}  # by (slot, start)
        for (start, end), firing in windows.items():
            window = Window(start, end)
            slices = self._slices.overlapping(start, end)
            self.bitset_ops += firing.bit_count() * len(slices)
            parts = []  # (valid slots, store, layout) per slice with data
            shared = firing
            for slice_ in slices:
                if slice_.store is not None:
                    store, layout = slice_.store, self._layouts[slice_.epoch]
                    valid = cl_set(current, slice_.epoch) & firing
                    per_slot = sum(1 << slot for slot, held in store.items() if slot >= 0 and held)
                    shared &= valid & layout.prefix_slots & ~per_slot
                    parts.append((valid, store, layout))
            for group in parts[0][2].groups if parts else ():
                members = shared & group.slots
                if members and not all(group in layout.pseudo for _, _, layout in parts):
                    shared &= ~members
                elif members:
                    self._fire_group(group, members, parts, window, runs)
            for slot in iter_slots(firing & ~shared):
                merged = self._merge_slot(slot, self._spec_merges[specs[slot]], parts)
                if merged:
                    runs[slot, start] = self._run(slot, window, specs[slot], merged)
        return [runs[slot, start] for slot, start, _ in due if (slot, start) in runs]

    def _fire_group(
        self, group: _SegmentGroup, members: int, parts: list, window: Window, runs: dict
    ) -> None:
        """The runs of ``group``'s shared ``members`` for ``window``.

        One table holds the rows some member reads, in key-``repr``
        order, each merged across the slices at the members' boundary
        cells only.  A member's run is the table filtered by presence &
        covered, valued ``row[b] - row[a]``.  A row no member reads stays
        as it is (rows take prefix form when first read)."""
        ranges = [(slot, *group.ranges[slot]) for slot in iter_slots(members)]
        reach = 0  # the segments some member reads
        for _, a, b in ranges:
            reach |= (1 << b) - (1 << a)
        bounds = sorted({cell for _, a, b in ranges for cell in (a, b)})
        cells, merge, minus = itemgetter(*bounds), group.merge, group.minus
        table: Dict[Any, Sequence[Any]] = {}
        present: Dict[Any, int] = {}
        for _, store, layout in parts:
            for key, row in (store.get(layout.pseudo[group]) or {}).items():
                if not row or not row[-2] & reach:
                    continue  # demoted (its members hold per-slot maps), or unread
                if not row[-1]:
                    group.to_prefix(row)
                held = table.get(key)
                if held is None:
                    table[key], present[key] = cells(row), row[-2]
                else:
                    # A list: a tuple built from an iterator is resized,
                    # and freed resized tuples would fill the free list.
                    table[key] = list(map(merge, held, cells(row)))
                    present[key] |= row[-2]
        keys = sorted(table, key=repr)
        column = dict(zip(bounds, zip(*map(table.__getitem__, keys))))
        bits = list(map(present.__getitem__, keys))
        finish = group.spec.finish if group.spec.kind is AggregationKind.AVG else None
        start, timestamp, emitted = window.start, window.max_timestamp(), 0
        for slot, a, b in ranges if keys else ():
            values = list(map(minus, column[b], column[a]))
            run_keys = keys
            # A nonzero sum or count has a record in range; a zero one,
            # and any AVG, asks the presence bits.
            if finish is not None or not all(values):
                covered = (1 << b) - (1 << a)
                hits = [
                    finish is None and value or bit & covered for value, bit in zip(values, bits)
                ]
                if not all(hits):
                    run_keys = list(compress(keys, hits))
                    if not run_keys:
                        continue
                    values = list(compress(values, hits))
            if finish is not None:
                values = list(map(finish, values))
            emitted += len(run_keys)
            run = WindowRun(window, timestamp, run_keys, values)
            runs[slot, start] = Record(timestamp, run, None, {QS_TAG: 1 << slot})
        self.results_emitted += emitted

    @staticmethod
    def _merge_slot(slot: int, merge: Callable[[Any, Any], Any], parts: list) -> Dict[Any, Any]:
        """``slot``'s window partials, merged slice by slice: its
        per-slot map, then its covered range of its group's rows.  A key
        of a slice lives in a row or in the per-slot map, never both."""
        merged: Dict[Any, Any] = {}
        for valid, store, layout in parts:
            if not valid >> slot & 1:
                continue
            partials = store.get(slot)
            if partials:
                for key, acc in partials.items():
                    existing = merged.get(key)
                    merged[key] = acc if existing is None else merge(existing, acc)
            member = layout.slot_group.get(slot)
            rows = store.get(member[0]) if member is not None else None
            if not rows:
                continue
            group = member[1]
            a, b = group.ranges[slot]
            covered = (1 << b) - (1 << a)
            minus = group.minus
            for key, row in rows.items():
                if not row or not row[-2] & covered:
                    continue  # demoted (read above), or no record in range
                if minus is None:
                    acc = group.read(row, a, b)
                else:
                    if not row[-1]:
                        group.to_prefix(row)
                    acc = minus(row[b], row[a])
                existing = merged.get(key)
                merged[key] = acc if existing is None else merge(existing, acc)
        return merged

    def _fire_sessions(self, watermark_ms: int, fired: List[Record]) -> None:
        for (slot, key), state in list(self._session_state.items()):
            window_spec, agg_spec = self._session_specs.get(slot, (None, None))
            if window_spec is None:
                continue
            remaining = []
            for start, end, acc in state.sessions:
                if end - 1 <= watermark_ms:
                    fired.append(self._run(slot, Window(start, end), agg_spec, {key: acc}))
                else:
                    remaining.append((start, end, acc))
            if remaining:
                state.sessions = remaining
            else:
                del self._session_state[(slot, key)]

    def _run(
        self, slot: int, window: Window, spec: AggregationSpec, merged: Dict[Any, Any]
    ) -> Record:
        """One fired window of one query — ``merged`` (key ->
        accumulator) — as one :class:`WindowRun` record: keys in
        key-``repr`` order, finished values beside them."""
        keys = sorted(merged, key=repr)
        self.results_emitted += len(keys)
        values = list(map(merged.__getitem__, keys))
        if spec.kind is AggregationKind.AVG:  # the one kind finish changes
            values = list(map(spec.finish, values))
        run = WindowRun(window, window.max_timestamp(), keys, values)
        return Record(run.timestamp, run, None, {QS_TAG: 1 << slot})

    # -- introspection ---------------------------------------------------------------

    @property
    def active_query_count(self) -> int:
        """Queries currently subscribed to this aggregation."""
        return len(self._specs) + len(self._session_specs)

    def stats(self) -> Dict[str, Tuple[float, str]]:
        """Slice/session sizes and work counters.  All additive."""
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
        }
        return {name: (value, "sum") for name, value in values.items()}

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> Any:
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

    def restore(self, snapshot: Any) -> None:
        state = copy.deepcopy(snapshot)
        self._slicer = state["slicer"]
        self._slices = state["slices"]
        self._changelogs = state["changelogs"]
        self._specs = state["specs"]
        self._subscribed = state["subscribed"]
        self._session_specs = state["session_specs"]
        self._session_state = state["session_state"]
        self._rebuild_fold_masks()
        self._rebuild_layouts()
