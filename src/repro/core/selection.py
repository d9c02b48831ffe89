"""Shared selection: tagging tuples with query-sets (§3.1.2).

One shared selection operator serves *all* queries reading a stream.  For
each tuple it evaluates every active query's predicate once, assembles
the resulting query-set bitset, and appends it to the tuple (as the
record tag ``"qs"``).  Tuples no query is interested in are dropped right
here, which avoids redundant shuffling downstream (§3.2.2).

Consistency with ad-hoc changes is event-time based: a changelog marker
carries the event time of the query change, and a tuple is tagged with
the query view of the epoch *its own timestamp* falls into — even when
bounded out-of-orderness delivers it after a newer changelog.  The
operator therefore keeps a short history of epoch views.

Each epoch view's predicate table is compiled through the semantic-
overlap planner (:mod:`repro.core.planner`): value-identical predicates
dedup to one entry (as before), and *overlapping* — not identical —
predicates are rewritten onto shared sub-plans (covering check +
interval stabbing index + per-query residual filters).  The rewrite is
exact, so the emitted qs-bitsets are byte-identical with the optimizer
on or off.

The distinct-predicate table and the plan's parts are live state,
maintained from each changelog's own created and deleted slots: a
predicate is normalized once, when its first slot arrives, and joins
its anchor field's :class:`~repro.core.planner.AnchorIndex`, which
updates only the overlap component the change lands in.  A create costs
what it changes, not what is standing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import operator as _compare

from repro.core.bitset import QuerySet
from repro.core.changelog import Changelog
from repro.core.planner import (
    AnchorIndex,
    NormalizedPredicate,
    SelectionPlan,
    anchor_bounds,
    normalize,
    sharing_anchor,
)
from repro.core.query import Comparison, FieldPredicate, Predicate, TruePredicate
from repro.minispe.operators import Operator
from repro.minispe.record import ChangelogMarker, Record, RecordBatch

_COMPARE_FNS = {
    Comparison.LT: _compare.lt,
    Comparison.GT: _compare.gt,
    Comparison.EQ: _compare.eq,
    Comparison.LE: _compare.le,
    Comparison.GE: _compare.ge,
}
"""Comparison → C-level compare function, for column-bound predicates."""

QS_TAG = "qs"
"""Record tag holding the query-set bits."""

EPOCH_TAG = "epoch"
"""Record tag holding the changelog epoch the tuple was tagged under."""


def _entry_key(slot: int, predicate: Predicate, dedup: bool) -> Any:
    """Group slots by distinct predicate (identity for UDFs).

    Hashable value-predicates (the generated ``FieldPredicate`` and
    ``TruePredicate`` dataclasses) deduplicate by value; unhashable
    black-box predicates fall back to one group per object, and
    without dedup every slot is its own entry.
    """
    if not dedup:
        return ("slot", slot)
    try:
        return (type(predicate), hash(predicate), predicate)
    except TypeError:
        return ("id", id(predicate))


def _lowest(slots: int) -> int:
    return (slots & -slots).bit_length() - 1


@dataclass
class _EpochView:
    """The queries watching this stream during one epoch.

    ``plan`` is the compiled evaluation plan — distinct predicates
    evaluated once, overlapping ones merged into covering groups with
    residual filters (the §7 sharing optimizer); it is a derived cache,
    never snapshotted.  Its groups share their compiled index with the
    other views' but count work of their own.
    """

    start_ms: int
    sequence: int
    table: Dict[int, Predicate]
    """The slot table in force (slot -> predicate); never mutated."""
    dedup: bool
    plan: SelectionPlan

    @property
    def predicates(self) -> List[Tuple[Predicate, int]]:
        """(predicate, slots-bitset) pairs, one per distinct predicate,
        ordered by lowest slot; the predicate is that slot's.  Derived
        from ``table`` on demand (snapshots and tests ask)."""
        return self.pairs({})

    def pairs(
        self, interned: Dict[Tuple[int, int], Tuple[Predicate, int]]
    ) -> List[Tuple[Predicate, int]]:
        """:attr:`predicates`, taking each pair from ``interned`` (keyed by
        predicate id and slots) when there, so that the views one
        snapshot lists share the pairs they have in common."""
        groups: Dict[Any, List] = {}
        for slot in sorted(self.table):
            predicate = self.table[slot]
            group = groups.setdefault(
                _entry_key(slot, predicate, self.dedup), [predicate, 0]
            )
            group[1] |= 1 << slot
        pairs = []
        for predicate, slots in groups.values():
            pair = interned.get((id(predicate), slots))
            if pair is None:
                pair = interned[id(predicate), slots] = (predicate, slots)
            pairs.append(pair)
        return pairs


class _Entry:
    """One distinct predicate of the live slot table."""

    __slots__ = (
        "key",
        "predicate",
        "slots",
        "normalized",
        "anchor",
        "bounds",
        "placed_slots",
        "placed_predicate",
    )

    def __init__(
        self, key: Any, normalized: Optional[NormalizedPredicate]
    ) -> None:
        self.key = key
        self.predicate: Optional[Predicate] = None
        """The lowest slot's predicate, as a regroup from scratch picks."""
        self.slots = 0
        self.normalized = normalized
        self.anchor = sharing_anchor(normalized)
        """Anchor field whose index holds this entry, or None."""
        self.bounds = (
            anchor_bounds(normalized) if self.anchor is not None else None
        )
        """(start_key, end_key, checks) of its anchor member."""
        self.placed_slots = 0
        self.placed_predicate: Optional[Predicate] = None
        """What the plan's parts hold of this entry (0: nothing)."""


class SharedSelectionOperator(Operator):
    """Tags records of one stream with query-set bitsets.

    ``stream`` names the input this operator serves; a query's predicate
    is looked up via ``query.predicate_for(stream)``.
    """

    VIEW_RETENTION_MS = 60_000
    """Epoch views older than this behind the watermark are pruned; it
    bounds metadata growth while leaving generous room for late records."""

    def __init__(
        self,
        stream: str,
        dedup_predicates: bool = True,
        share_overlapping: bool = True,
    ) -> None:
        super().__init__(f"shared_select:{stream}")
        self.stream = stream
        self.dedup_predicates = dedup_predicates
        """Evaluate a predicate shared by several queries only once.

        This is the paper's future-work sharing optimisation at the
        selection stage; disable for the ablation benchmark."""
        self.share_overlapping = share_overlapping
        """Rewrite overlapping (non-identical) predicates onto shared
        covering groups with residual filters (ISSUE 8); disable to fall
        back to identical-only dedup."""
        self._slot_predicates: Dict[int, Predicate] = {}
        self._slot_entries: Dict[int, _Entry] = {}
        self._entries: Dict[Any, _Entry] = {}
        """Grouping key -> distinct predicate (see :func:`_entry_key`)."""
        self._anchors: Dict[int, AnchorIndex] = {}
        """Anchor field -> its share of the current plan."""
        self._loose_lows: List[int] = []
        self._loose_pairs: List[Tuple[Predicate, int]] = []
        """Direct (predicate, slots) of the unanchored entries, by lowest
        slot (``_loose_lows``): UDFs and constant true."""
        self._folded = 0
        """Slots of the predicates folded to constant false."""
        self._views: List[_EpochView] = [self._make_view(0, 0)]
        self._view_starts: List[int] = [0]
        self._evaluations = 0
        self._retired_group_stats = {
            "evaluations": 0,
            "cover_skips": 0,
            "index_probes": 0,
            "residual_checks": 0,
        }
        self.records_dropped = 0

    # -- changelog handling ----------------------------------------------------

    def _make_view(self, start_ms: int, sequence: int) -> _EpochView:
        """Snapshot the live tables as one epoch's view: C-level copies of
        the slot table and the plan's lists, fresh counters per group."""
        direct = list(self._loose_pairs)
        groups = []
        for anchor in sorted(self._anchors):
            index = self._anchors[anchor]
            direct += index.direct
            groups += index.groups
        return _EpochView(
            start_ms=start_ms,
            sequence=sequence,
            table=dict(self._slot_predicates),
            dedup=self.dedup_predicates,
            plan=SelectionPlan(
                direct=direct,
                groups=[group.fresh() for group in groups],
                folded_slots=self._folded,
            ),
        )

    def on_marker(self, marker: ChangelogMarker) -> None:
        self._apply_changelog(marker.changelog, marker.timestamp)
        self.output(marker)

    def _apply_changelog(self, changelog: Changelog, timestamp_ms: int) -> None:
        changes: Dict[int, Optional[Predicate]] = {}
        for deactivation in changelog.deleted:
            changes[deactivation.slot] = None
        for activation in changelog.created:
            # A created query that ignores this stream still voids the
            # slot's previous meaning here.
            query = activation.query
            changes[activation.slot] = (
                query.predicate_for(self.stream)
                if self.stream in query.streams
                else None
            )
        self._update_slots(changes)
        view = self._make_view(timestamp_ms, changelog.sequence)
        if timestamp_ms == self._view_starts[-1]:
            # _view_for takes the rightmost view starting at or before a
            # timestamp, so the one this view shadows is never chosen
            # again: retire it now rather than a retention period later.
            self._retire_views([self._views[-1]])
            self._views[-1] = view
        else:
            self._views.append(view)
            self._view_starts.append(timestamp_ms)

    def _update_slots(self, changes: Dict[int, Optional[Predicate]]) -> None:
        """Point each changed slot at its new predicate (None: vacated).

        Touches only the entries those slots leave or join: a new
        distinct predicate is normalized once, and only the entries
        whose slots or representative changed move in the plan's parts.
        They move in two passes, first shrinking each to the slots it
        keeps, then growing it to its new ones, so the parts never hold
        one slot twice.
        """
        before: Dict[Any, _Entry] = {}
        for slot in changes:
            entry = self._slot_entries.pop(slot, None)
            if entry is not None:
                del self._slot_predicates[slot]
                before[entry.key] = entry
                entry.slots &= ~(1 << slot)
        share = self.share_overlapping and self.dedup_predicates
        for slot, predicate in changes.items():
            if predicate is None:
                continue
            key = _entry_key(slot, predicate, self.dedup_predicates)
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry(key, normalize(predicate) if share else None)
                self._entries[key] = entry
            before[key] = entry
            entry.slots |= 1 << slot
            self._slot_entries[slot] = entry
            self._slot_predicates[slot] = predicate
        touched: Dict[AnchorIndex, None] = {}
        for key, entry in before.items():
            if entry.slots:
                entry.predicate = self._slot_predicates[_lowest(entry.slots)]
            else:
                del self._entries[key]
            keep = entry.placed_slots & entry.slots
            self._place(entry, keep, entry.placed_predicate, touched)
        for entry in before.values():
            self._place(entry, entry.slots, entry.predicate, touched)
        for index in touched:
            index.publish()

    def _place(
        self,
        entry: _Entry,
        slots: int,
        predicate: Optional[Predicate],
        touched: Dict[AnchorIndex, None],
    ) -> None:
        """Move what the plan's parts hold of ``entry`` to ``slots``
        under ``predicate`` (no slots: take it out)."""
        placed = entry.placed_slots
        if placed == slots and entry.placed_predicate is predicate:
            return
        if entry.anchor is not None:
            index = self._anchors.get(entry.anchor)
            if index is None:
                index = self._anchors[entry.anchor] = AnchorIndex(entry.anchor)
            start, end, checks = entry.bounds
            member = (start, end, slots, predicate, checks)
            old = (start, end, placed, entry.placed_predicate, checks)
            if not placed:
                index.insert(member)
            elif not slots:
                index.remove(old)
            else:
                index.replace(old, member)
            touched[index] = None
        elif entry.normalized is not None and not entry.normalized.satisfiable:
            self._folded ^= placed ^ slots
        else:
            lows = self._loose_lows
            if placed:
                position = bisect_left(lows, _lowest(placed))
                del lows[position]
                del self._loose_pairs[position]
            if slots:
                low = _lowest(slots)
                position = bisect_left(lows, low)
                lows.insert(position, low)
                self._loose_pairs.insert(position, (predicate, slots))
        entry.placed_slots = slots
        entry.placed_predicate = predicate

    def _retable(self, table: Dict[int, Predicate]) -> None:
        """Move the live tables to the slot table ``table``."""
        changes: Dict[int, Optional[Predicate]] = {
            slot: None for slot in self._slot_predicates if slot not in table
        }
        for slot, predicate in table.items():
            if self._slot_predicates.get(slot) is not predicate:
                changes[slot] = predicate
        self._update_slots(changes)

    # -- tagging ---------------------------------------------------------------

    def _bind(self, plan: SelectionPlan, batch: RecordBatch):
        """Compile one plan against one batch.

        Returns ``(subjects, compiled, tests, group_probes)``.
        ``subjects[row]`` is what a row's probes are called with;
        ``compiled`` holds ``(column, compare, constant, slots)`` entries
        the tagging loop evaluates on a field column directly (column
        ``None``: always true); ``tests`` holds ``(probe, slots)`` pairs,
        ``probe(subject)`` telling whether the slots match;
        ``group_probes`` are the sharing groups' ``probe(subject) ->
        bits``.

        This is the only place that knows how a batch stores its rows.
        A columnar batch binds predicates to its field columns and
        probes by row index — no row object is built to decide a row's
        fate.  A row-built batch, and any plan holding a black-box (UDF)
        predicate, which needs the row value, probe the materialised
        values instead.
        """
        fields = batch.field_columns()
        if fields is not None:
            compiled: List[Tuple[Any, Any, Any, int]] = []
            tests = []
            for predicate, slots_mask in plan.direct:
                kind = type(predicate)
                if kind is FieldPredicate:
                    compiled.append(
                        (
                            fields[predicate.field_index],
                            _COMPARE_FNS[predicate.op],
                            predicate.constant,
                            slots_mask,
                        )
                    )
                elif kind is TruePredicate:
                    compiled.append((None, None, None, slots_mask))
                else:
                    normalized = normalize(predicate)
                    if normalized is None or not normalized.satisfiable:
                        # A black box needs the row value; a contradiction
                        # (direct only with sharing off) has no intervals
                        # to check, so it takes the same fallback.
                        break
                    checks = tuple(
                        (fields[f], iv.start_key, iv.end_key)
                        for f, iv in normalized.constraints
                    )

                    def in_intervals(row: int, _checks=checks) -> bool:
                        for column, start_key, end_key in _checks:
                            if not (start_key <= (column[row], 0) < end_key):
                                return False
                        return True

                    tests.append((in_intervals, slots_mask))
            else:  # every direct predicate bound to columns
                return (
                    range(len(batch)),
                    compiled,
                    tests,
                    [group.bind_columns(fields) for group in plan.groups],
                )
        return (
            [record.value for record in batch.records],
            (),
            [(predicate.evaluate, mask) for predicate, mask in plan.direct],
            [group.evaluate for group in plan.groups],
        )

    def process_batch(self, records: List[Record]) -> None:
        self.process_columnar(RecordBatch(records))

    def process_columnar(self, batch: RecordBatch) -> None:
        """Tag one batch — the operator's one data body.

        One epoch lookup per run of timestamps in the same view, one
        plan binding (:meth:`_bind`) per view the batch touches,
        counters accumulated locally, and all surviving rows emitted as
        a single downstream batch.  On a
        columnar batch — the wire-ingest path: the binary codec decodes
        frames into columnar batches — a row's value object is built
        only when some query wants the row, so for selective queries
        most rows die here having never existed as Python objects.  The
        runtime hands a batch over under this name without touching its
        rows; :meth:`process_batch` wraps a record list into a batch
        first.
        """
        row_record = batch.row_record
        evaluations = 0
        dropped = 0
        out: List[Record] = []
        append = out.append
        bindings: Dict[int, tuple] = {}  # view sequence -> _bind() result
        view_low = view_high = 0  # empty span: the first row binds a view
        for row, timestamp in enumerate(batch.timestamps()):
            if not (view_low <= timestamp < view_high):
                view = self._view_for(timestamp)
                view_low, view_high = self._view_span(view)
                sequence = view.sequence
                if sequence not in bindings:
                    bindings[sequence] = self._bind(view.plan, batch)
                subjects, compiled, tests, group_probes = bindings[sequence]
                direct_count = len(compiled) + len(tests)
            subject = subjects[row]
            bits = 0
            for column, compare, constant, slots_mask in compiled:
                if column is None or compare(column[row], constant):
                    bits |= slots_mask
            for probe, slots_mask in tests:
                if probe(subject):
                    bits |= slots_mask
            for probe in group_probes:
                bits |= probe(subject)
            evaluations += direct_count
            if bits == 0:
                dropped += 1
                continue
            append(row_record(row, {QS_TAG: bits, EPOCH_TAG: sequence}))
        self._evaluations += evaluations
        self.records_dropped += dropped
        self.output_batch(out)

    def _view_for(self, timestamp_ms: int) -> _EpochView:
        """The epoch view covering ``timestamp_ms`` (event-time lookup)."""
        index = bisect_right(self._view_starts, timestamp_ms) - 1
        return self._views[index]

    def _view_span(self, view: _EpochView) -> Tuple[int, int]:
        """Half-open timestamp interval ``view`` is in force for."""
        starts = self._view_starts
        index = bisect_right(starts, view.start_ms) - 1
        high = (
            starts[index + 1]
            if index + 1 < len(starts)
            else float("inf")
        )
        return view.start_ms, high

    # -- maintenance -------------------------------------------------------------

    def on_watermark(self, watermark) -> None:
        self.prune_views_before(watermark.timestamp - self.VIEW_RETENTION_MS)
        self.output(watermark)

    def _retire_views(self, views: List[_EpochView]) -> None:
        """Fold dropped views' group counters into the lifetime totals."""
        retired = self._retired_group_stats
        for view in views:
            for group in view.plan.groups:
                retired["evaluations"] += group.evaluations
                retired["cover_skips"] += group.cover_skips
                retired["index_probes"] += group.index_probes
                retired["residual_checks"] += group.residual_checks

    def prune_views_before(self, timestamp_ms: int) -> int:
        """Drop epoch views fully superseded before ``timestamp_ms``.

        Keeps at least the view in force at ``timestamp_ms`` so late
        records within the allowed lateness still resolve.  Returns the
        number of views dropped.
        """
        keep_from = max(0, bisect_right(self._view_starts, timestamp_ms) - 1)
        dropped = keep_from
        if dropped:
            self._retire_views(self._views[:keep_from])
            self._views = self._views[keep_from:]
            self._view_starts = self._view_starts[keep_from:]
        return dropped

    # -- introspection -----------------------------------------------------------

    @property
    def predicate_evaluations(self) -> int:
        """Predicate-evaluation units spent, over the operator lifetime.

        Direct predicates count one per tuple as before; a sharing group
        counts one per covering probe (however many members it resolves)
        plus one per residual filter checked — the actual work done, so
        the ablation benches read sharing wins straight off this counter.
        """
        return self._evaluations + self._lifetime_group_stats()["evaluations"]

    def _lifetime_group_stats(self) -> Dict[str, int]:
        """Sharing-group work counters over the operator lifetime: the
        live epoch views' groups plus the retired-view bucket."""
        lifetime = dict(self._retired_group_stats)
        for view in self._views:
            for group in view.plan.groups:
                lifetime["evaluations"] += group.evaluations
                lifetime["cover_skips"] += group.cover_skips
                lifetime["index_probes"] += group.index_probes
                lifetime["residual_checks"] += group.residual_checks
        return lifetime

    @property
    def active_query_count(self) -> int:
        """Queries currently watching this stream."""
        return len(self._slot_predicates)

    def sharing_group_stats(self) -> Dict[str, Any]:
        """Sharing-optimizer shape and lifetime counters for this stream.

        Structure (group/member/segment counts) describes the *current*
        epoch view; counters aggregate over the operator lifetime,
        including pruned views.
        """
        plan = self._views[-1].plan
        lifetime = self._lifetime_group_stats()
        return {
            "groups": len(plan.groups),
            "grouped_slots": plan.grouped_slots,
            "direct_predicates": len(plan.direct),
            "folded_unsatisfiable_slots": bin(plan.folded_slots).count("1"),
            "group_members": [group.member_count for group in plan.groups],
            "group_evaluations": lifetime["evaluations"],
            "cover_skips": lifetime["cover_skips"],
            "index_probes": lifetime["index_probes"],
            "residual_checks": lifetime["residual_checks"],
            "plan": plan.describe(),
        }

    def stats(self) -> Dict[str, Tuple[float, str]]:
        """Selection counters plus the sharing optimizer's shape and work.

        Plan shape is replicated — every parallel instance and shard
        compiles the identical slot table — so it merges with ``max``;
        evaluation counters measure each instance's own work and merge
        with ``sum``.
        """
        sharing = self.sharing_group_stats()
        return {
            "predicate_evaluations": (
                self._evaluations + sharing["group_evaluations"],
                "sum",
            ),
            "records_dropped": (self.records_dropped, "sum"),
            "active_query_count": (self.active_query_count, "max"),
            "sharing_groups": (sharing["groups"], "max"),
            "sharing_grouped_slots": (sharing["grouped_slots"], "max"),
            "sharing_direct_predicates": (sharing["direct_predicates"], "max"),
            "sharing_folded_unsatisfiable_slots": (
                sharing["folded_unsatisfiable_slots"],
                "max",
            ),
            "sharing_group_evaluations": (sharing["group_evaluations"], "sum"),
            "sharing_cover_skips": (sharing["cover_skips"], "sum"),
            "sharing_index_probes": (sharing["index_probes"], "sum"),
            "sharing_residual_checks": (sharing["residual_checks"], "sum"),
        }

    def cost_profile(self) -> Dict[str, Any]:
        """Work units by slot membership, for per-query cost attribution.

        Direct-predicate evaluations (``self._evaluations``, one per
        tuple per direct entry) are split equally across the current
        plan's direct entries — exact within an epoch, since every
        direct predicate runs once per tuple.  Each live covering group
        reports its own probe + residual counters against its member
        mask (``SharingGroup.slots_mask``).  Work from retired epoch
        views is reported as ``unattributed`` — its member masks are
        gone with the views.
        """
        plan = self._views[-1].plan
        direct: List[Dict[str, Any]] = []
        if plan.direct and self._evaluations:
            per_entry = self._evaluations / len(plan.direct)
            direct = [
                {"slots": slots_mask, "evaluations": per_entry}
                for _, slots_mask in plan.direct
            ]
        groups: List[Dict[str, Any]] = []
        group_work: Dict[int, float] = {}
        for view in self._views:
            for group in view.plan.groups:
                work = float(group.evaluations + group.residual_checks)
                if work:
                    group_work[group.slots_mask] = (
                        group_work.get(group.slots_mask, 0.0) + work
                    )
        groups = [
            {"slots": mask, "evaluations": work}
            for mask, work in sorted(group_work.items())
        ]
        retired = self._retired_group_stats
        return {
            "direct": direct,
            "groups": groups,
            "unattributed": float(
                retired["evaluations"] + retired["residual_checks"]
            ),
        }

    def snapshot(self) -> Any:
        # Lifetime work counters travel with the state: a migrated shard
        # must not forget the evaluations it already charged (the
        # cross-shard sharing_summary() merge sums them), and a
        # checkpoint-restore must roll them back to checkpoint time so
        # input-log replay re-accumulates exactly once.
        interned: Dict[Tuple[int, int], Tuple[Predicate, int]] = {}
        return {
            "slot_predicates": dict(self._slot_predicates),
            "views": [
                (view.start_ms, view.sequence, view.pairs(interned))
                for view in self._views
            ],
            "evaluations": self._evaluations,
            "group_stats": self._lifetime_group_stats(),
        }

    def restore(self, snapshot: Any) -> None:
        # Views are rebuilt through the changelog path: each one moves
        # the live tables to its own slot table, so consecutive views
        # recompile only the anchors that differ between them.
        views = []
        for start, sequence, predicates in snapshot["views"]:
            self._retable(
                {
                    slot: predicate
                    for predicate, slots in predicates
                    for slot in QuerySet(slots)
                }
            )
            views.append(self._make_view(start, sequence))
        self._retable(snapshot["slot_predicates"])
        self._views = views
        self._view_starts = [view.start_ms for view in self._views]
        # Freshly compiled views start their group counters at zero; the
        # snapshot's lifetime totals seed the retired bucket, replacing
        # (not adding to) whatever this operator counted before restore.
        self._evaluations = snapshot.get("evaluations", 0)
        self._retired_group_stats = {
            "evaluations": 0,
            "cover_skips": 0,
            "index_probes": 0,
            "residual_checks": 0,
        }
        self._retired_group_stats.update(snapshot.get("group_stats", {}))
