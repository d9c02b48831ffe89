"""Semantic-overlap multi-query planner (§7 future work, ISSUE 8).

AStream's conclusion sketches a cost-based optimizer that groups
*similar* — not only identical — queries.  This module supplies the
machinery: incoming predicates (from serde docs and SQL alike) are
normalized into a canonical **interval form** (conjunction flattening +
constant folding over ``FieldPredicate``/``Comparison``), compared for
**subsumption** (``x >= 50`` ⊑ ``x >= 25``) and **overlap** (ranges that
share tuples), and rewritten onto **shared sub-plans**: one covering
scan per overlap group plus per-query residual refinement.

The rewrite is *exact*, not approximate.  A group's covering predicate
is the hull of its members, so ``cover(t) ∧ member(t) ≡ member(t)`` for
every member — the qs-bitsets the shared selection emits are
byte-identical to evaluating every predicate independently.  Sharing
changes only the work needed to compute them:

* **cover check** — one hull comparison rejects tuples outside the whole
  group (the "covering scan");
* **interval stabbing index** — member intervals on the group's anchor
  field are cut into segments with precomputed slot bitsets, so one
  ``bisect`` resolves *all* single-field members at once;
* **residual filters** — members with constraints on further fields
  (flattened conjunctions) are refined per query with cheap bound
  checks.

Interval endpoints live in a totally ordered *key space* that encodes
open/closed bounds without epsilon hacks: the value ``v`` probes at key
``(v, 0)``, an interval maps to the half-open key range
``[start_key, end_key)`` with ``start_key = (low, 0)`` when the low
bound is inclusive and ``(low, 1)`` when exclusive (and symmetrically
``end_key = (high, 1)`` inclusive / ``(high, 0)`` exclusive).  Interval
membership, emptiness, overlap, and the stabbing segmentation all reduce
to tuple comparisons in that space.

The selection keeps each anchor field's overlap components live
(:class:`AnchorIndex`): a create or delete updates the one component it
lands in by bisection, never re-sorting the field's members, and the
result equals sweeping the whole member set from scratch.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import and_, xor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.query import (
    Comparison,
    FieldPredicate,
    Predicate,
    TruePredicate,
)

_INF = float("inf")

_Key = Tuple[float, int]
"""A point in the bound-encoding key space (see module docstring)."""


# ---------------------------------------------------------------------------
# Interval algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """One field's admissible value range ``low .. high`` with bound kinds."""

    low: float = -_INF
    low_inclusive: bool = False
    high: float = _INF
    high_inclusive: bool = False

    @property
    def start_key(self) -> _Key:
        """First key-space point inside the interval."""
        return (self.low, 0 if self.low_inclusive else 1)

    @property
    def end_key(self) -> _Key:
        """First key-space point past the interval."""
        return (self.high, 1 if self.high_inclusive else 0)

    @property
    def is_empty(self) -> bool:
        """True when no value can satisfy the interval."""
        return self.start_key >= self.end_key

    @property
    def is_full(self) -> bool:
        """True when every value satisfies the interval (no bounds)."""
        return self.low == -_INF and self.high == _INF

    def contains_value(self, value: Any) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.start_key <= (value, 0) < self.end_key

    def contains(self, other: "Interval") -> bool:
        """Region containment: every value of ``other`` is in ``self``."""
        if other.is_empty:
            return True
        return (
            self.start_key <= other.start_key
            and other.end_key <= self.end_key
        )

    def intersect(self, other: "Interval") -> "Interval":
        """The conjunction of both bounds (may be empty)."""
        low, low_inc = max(
            (self.low, not self.low_inclusive),
            (other.low, not other.low_inclusive),
        )
        high, high_inc = min(
            (self.high, self.high_inclusive),
            (other.high, other.high_inclusive),
        )
        return Interval(low, not low_inc, high, bool(high_inc))

    def overlaps(self, other: "Interval") -> bool:
        """True when some value satisfies both intervals."""
        if self.is_empty or other.is_empty:
            return False
        return (
            self.start_key < other.end_key
            and other.start_key < self.end_key
        )

    def hull(self, other: "Interval") -> "Interval":
        """The smallest interval containing both (the covering bound)."""
        low, low_inc = min(
            (self.low, not self.low_inclusive),
            (other.low, not other.low_inclusive),
        )
        high, high_inc = max(
            (self.high, self.high_inclusive),
            (other.high, other.high_inclusive),
        )
        return Interval(low, not low_inc, high, bool(high_inc))

    def __str__(self) -> str:
        left = "[" if self.low_inclusive else "("
        right = "]" if self.high_inclusive else ")"
        return f"{left}{self.low}, {self.high}{right}"


_OP_INTERVALS = {
    Comparison.LT: lambda c: Interval(high=c, high_inclusive=False),
    Comparison.LE: lambda c: Interval(high=c, high_inclusive=True),
    Comparison.GT: lambda c: Interval(low=c, low_inclusive=False),
    Comparison.GE: lambda c: Interval(low=c, low_inclusive=True),
    Comparison.EQ: lambda c: Interval(c, True, c, True),
}


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedPredicate:
    """Canonical conjunction-of-intervals form of a value predicate.

    ``constraints`` maps each constrained field (sorted, deduplicated —
    repeated conjuncts over one field are folded by intersection) to its
    interval.  An empty constraint tuple with ``satisfiable=True`` is
    the normalized ``TruePredicate``; ``satisfiable=False`` marks a
    contradiction folded to constant false (e.g. ``x > 5 AND x < 3``).
    """

    constraints: Tuple[Tuple[int, Interval], ...] = ()
    satisfiable: bool = True

    @property
    def canonical_key(self) -> Tuple:
        """Representation-independent identity: equal regions, equal keys.

        The same query written as a serde doc, as SQL, or with its
        conjuncts permuted lands on the same key — this is what makes
        sharing groups representation-independent.
        """
        if not self.satisfiable:
            return ("unsat",)
        return tuple(
            (f, iv.low, iv.low_inclusive, iv.high, iv.high_inclusive)
            for f, iv in self.constraints
        )

    @property
    def anchor_field(self) -> Optional[int]:
        """The lowest constrained field index (None when unconstrained)."""
        return self.constraints[0][0] if self.constraints else None

    def interval_for(self, field_index: int) -> Interval:
        """The constraint on one field (full interval when absent)."""
        for f, interval in self.constraints:
            if f == field_index:
                return interval
        return Interval()

    def evaluate(self, value: Any) -> bool:
        """Semantics of the normal form (must match the source predicate)."""
        if not self.satisfiable:
            return False
        for f, interval in self.constraints:
            if not interval.contains_value(value.fields[f]):
                return False
        return True

    def __str__(self) -> str:
        if not self.satisfiable:
            return "false"
        if not self.constraints:
            return "true"
        return " AND ".join(
            f"fields[{f}] in {iv}" for f, iv in self.constraints
        )


def _conjuncts_of(predicate: Predicate) -> Optional[List[FieldPredicate]]:
    """Flatten a predicate into field-comparison conjuncts, or None."""
    if isinstance(predicate, TruePredicate):
        return []
    if isinstance(predicate, FieldPredicate):
        return [predicate]
    conjuncts = getattr(predicate, "conjuncts", None)
    if conjuncts is None:
        return None  # black-box UDF or unknown type: not normalizable
    flat: List[FieldPredicate] = []
    for part in conjuncts:
        sub = _conjuncts_of(part)
        if sub is None:
            return None
        flat.extend(sub)
    return flat


def normalize(predicate: Predicate) -> Optional[NormalizedPredicate]:
    """Canonicalize a predicate, or None for black-box (UDF) predicates.

    Conjunctions are flattened, per-field bounds intersected (constant
    folding), and contradictions collapse to the unsatisfiable form.
    """
    conjuncts = _conjuncts_of(predicate)
    if conjuncts is None:
        return None
    by_field: Dict[int, Interval] = {}
    for conjunct in conjuncts:
        interval = _OP_INTERVALS[conjunct.op](conjunct.constant)
        current = by_field.get(conjunct.field_index)
        by_field[conjunct.field_index] = (
            interval if current is None else current.intersect(interval)
        )
    constraints = []
    for field_index in sorted(by_field):
        interval = by_field[field_index]
        if interval.is_empty:
            return NormalizedPredicate(constraints=(), satisfiable=False)
        if not interval.is_full:
            constraints.append((field_index, interval))
    return NormalizedPredicate(constraints=tuple(constraints))


def subsumes(p: NormalizedPredicate, q: NormalizedPredicate) -> bool:
    """True when ``p`` contains ``q``: every tuple matching q matches p."""
    if not q.satisfiable:
        return True
    if not p.satisfiable:
        return False
    for field_index, p_interval in p.constraints:
        if not p_interval.contains(q.interval_for(field_index)):
            return False
    return True


def overlaps(p: NormalizedPredicate, q: NormalizedPredicate) -> bool:
    """True when some tuple satisfies both predicates."""
    if not (p.satisfiable and q.satisfiable):
        return False
    for field_index, p_interval in p.constraints:
        if not p_interval.overlaps(q.interval_for(field_index)):
            return False
    return True


def covering(members: Sequence[NormalizedPredicate]) -> NormalizedPredicate:
    """The per-field hull of ``members`` — subsumes every one of them.

    A field appears in the cover only when *every* member constrains it
    (a member without the constraint admits the whole axis, so the hull
    there is unbounded).
    """
    live = [m for m in members if m.satisfiable]
    if not live:
        return NormalizedPredicate(constraints=(), satisfiable=False)
    shared_fields = set(f for f, _ in live[0].constraints)
    for member in live[1:]:
        shared_fields &= set(f for f, _ in member.constraints)
    constraints = []
    for field_index in sorted(shared_fields):
        hull = live[0].interval_for(field_index)
        for member in live[1:]:
            hull = hull.hull(member.interval_for(field_index))
        if not hull.is_full:
            constraints.append((field_index, hull))
    return NormalizedPredicate(constraints=tuple(constraints))


# ---------------------------------------------------------------------------
# Compiled sharing groups
# ---------------------------------------------------------------------------


def stabbing_segments(
    members: Sequence[Tuple[Interval, int]],
) -> Tuple[List[_Key], List[int], int]:
    """``(cuts, segment_masks, all_slots)`` of ``(interval, slots)`` members.

    Sweep the bound keys in order, toggling each member's slot bits on
    at its start key and off at its end key: the running bitset at cut
    ``i`` is exactly the members containing the key segment
    ``[cuts[i], cuts[i+1])`` (none after the last cut).  Both the
    selection's index and the aggregation's segment layout use it.
    """
    toggles: Dict[_Key, int] = {}
    all_slots = 0
    for interval, slots in members:
        toggles[interval.start_key] = toggles.get(interval.start_key, 0) ^ slots
        toggles[interval.end_key] = toggles.get(interval.end_key, 0) ^ slots
        all_slots |= slots
    cuts = sorted(toggles)
    segment_masks = []
    running = 0
    for cut in cuts:
        running ^= toggles[cut]
        segment_masks.append(running)
    return cuts, segment_masks, all_slots


_Checks = Tuple[Tuple[int, float, bool, float, bool], ...]
"""Per-field bound checks ``(field, low, low_inc, high, high_inc)``."""

_Residual = Tuple[_Checks, int]
"""(per-field bound checks, slots-bitset) for one residual member."""


def _residual_checks(normalized: NormalizedPredicate) -> _Checks:
    """The bound checks a residual member is refined with, per tuple."""
    return tuple(
        (f, iv.low, iv.low_inclusive, iv.high, iv.high_inclusive)
        for f, iv in normalized.constraints
    )


class SharingGroup:
    """One overlap component compiled for per-tuple evaluation.

    Evaluation order per tuple: hull cover check (reject the whole group
    with two comparisons), then one stabbing-index probe resolving every
    single-field member, then the residual filters of multi-field
    members.  Counters feed the sharing statistics exported via
    ``repro.obs``.
    """

    __slots__ = (
        "field_index",
        "slots_mask",
        "member_count",
        "residual_count",
        "cover",
        "_hull_start",
        "_hull_end",
        "_cuts",
        "_segment_masks",
        "_residuals",
        "evaluations",
        "cover_skips",
        "index_probes",
        "residual_checks",
    )

    def __init__(
        self,
        field_index: int,
        single_members: Sequence[Tuple[Interval, int]],
        residual_members: Sequence[Tuple[NormalizedPredicate, int]],
    ) -> None:
        anchor_intervals = [interval for interval, _ in single_members]
        anchor_intervals.extend(
            norm.interval_for(field_index) for norm, _ in residual_members
        )
        cuts, segment_masks, mask = stabbing_segments(single_members)
        residuals: List[_Residual] = []
        for norm, slots in residual_members:
            residuals.append((_residual_checks(norm), slots))
            mask |= slots
        self._layout(
            field_index,
            min(interval.start_key for interval in anchor_intervals),
            max(interval.end_key for interval in anchor_intervals),
            cuts,
            segment_masks,
            residuals,
            mask,
            len(anchor_intervals),
        )

    def _layout(
        self,
        field_index: int,
        hull_start: _Key,
        hull_end: _Key,
        cuts: List[_Key],
        segment_masks: List[int],
        residuals: List[_Residual],
        slots_mask: int,
        member_count: int,
    ) -> None:
        """Install one compiled index, with zeroed counters."""
        self.field_index = field_index
        self.slots_mask = slots_mask
        self.member_count = member_count
        self.residual_count = len(residuals)
        self.cover = Interval(
            hull_start[0], not hull_start[1], hull_end[0], bool(hull_end[1])
        )
        self._hull_start = hull_start
        self._hull_end = hull_end
        self._cuts = cuts
        self._segment_masks = segment_masks
        self._residuals = residuals
        self.evaluations = 0
        self.cover_skips = 0
        self.index_probes = 0
        self.residual_checks = 0

    def fresh(self) -> "SharingGroup":
        """This group's compiled index under new, zeroed counters.

        Epoch views whose component did not change share one compiled
        index (cover, cuts, segment masks, residuals — never mutated once
        laid out); each view still counts its own work.
        """
        copy = SharingGroup.__new__(SharingGroup)
        for name in self.__slots__:
            setattr(copy, name, getattr(self, name))
        copy.evaluations = 0
        copy.cover_skips = 0
        copy.index_probes = 0
        copy.residual_checks = 0
        return copy

    def evaluate(self, value: Any) -> int:
        """Slot bits of every member the tuple satisfies."""
        self.evaluations += 1
        fields = value.fields
        probe = (fields[self.field_index], 0)
        if not (self._hull_start <= probe < self._hull_end):
            self.cover_skips += 1
            return 0
        index = bisect_right(self._cuts, probe) - 1
        bits = self._segment_masks[index] if index >= 0 else 0
        self.index_probes += 1
        for checks, slots in self._residuals:
            self.residual_checks += 1
            self.evaluations += 1
            for f, low, low_inc, high, high_inc in checks:
                v = fields[f]
                if not ((low, 0 if low_inc else 1) <= (v, 0) < (high, 1 if high_inc else 0)):
                    break
            else:
                bits |= slots
        return bits

    def bind_columns(self, columns: Sequence[Sequence[Any]]):
        """Row-index evaluator over parallel field columns (columnar path)."""
        anchor_column = columns[self.field_index]
        hull_start = self._hull_start
        hull_end = self._hull_end
        cuts = self._cuts
        segment_masks = self._segment_masks
        residuals = self._residuals

        def probe_row(row: int) -> int:
            self.evaluations += 1
            probe = (anchor_column[row], 0)
            if not (hull_start <= probe < hull_end):
                self.cover_skips += 1
                return 0
            index = bisect_right(cuts, probe) - 1
            bits = segment_masks[index] if index >= 0 else 0
            self.index_probes += 1
            for checks, slots in residuals:
                self.residual_checks += 1
                self.evaluations += 1
                for f, low, low_inc, high, high_inc in checks:
                    v = columns[f][row]
                    if not (
                        (low, 0 if low_inc else 1)
                        <= (v, 0)
                        < (high, 1 if high_inc else 0)
                    ):
                        break
                else:
                    bits |= slots
            return bits

        return probe_row

    def describe(self) -> Dict[str, Any]:
        """Reportable shape + counters for stats frames and gauges."""
        return {
            "field": self.field_index,
            "members": self.member_count,
            "residuals": self.residual_count,
            "cover": str(self.cover),
            "segments": len(self._cuts),
            "evaluations": self.evaluations,
            "cover_skips": self.cover_skips,
            "residual_checks": self.residual_checks,
        }


@dataclass
class SelectionPlan:
    """The compiled evaluation plan of one epoch view.

    ``direct`` holds (predicate, slots) pairs evaluated one by one as
    before the optimizer existed — black-box UDFs, ``TruePredicate``,
    and overlap components of size one.  ``groups`` holds the shared
    sub-plans.  ``folded_slots`` are slots whose predicates folded to
    constant false and need no evaluation at all.
    """

    direct: List[Tuple[Predicate, int]] = field(default_factory=list)
    groups: List[SharingGroup] = field(default_factory=list)
    folded_slots: int = 0

    @property
    def grouped_slots(self) -> int:
        """How many query slots evaluate through shared groups."""
        total = 0
        for group in self.groups:
            total += bin(group.slots_mask).count("1")
        return total

    def describe(self) -> Dict[str, Any]:
        """Reportable plan shape for stats frames and gauges."""
        return {
            "direct_predicates": len(self.direct),
            "groups": [group.describe() for group in self.groups],
            "grouped_slots": self.grouped_slots,
            "folded_unsatisfiable_slots": bin(self.folded_slots).count("1"),
        }


def sharing_anchor(normalized: Optional[NormalizedPredicate]) -> Optional[int]:
    """The anchor field a predicate clusters on, or None when it stays out
    of every group: black-box UDFs, constant true and constant false."""
    if normalized is None or not normalized.satisfiable:
        return None
    return normalized.anchor_field


# ---------------------------------------------------------------------------
# Incrementally maintained overlap components
# ---------------------------------------------------------------------------


AnchorMember = Tuple[_Key, _Key, int, Predicate, Optional[_Checks]]
"""``(start_key, end_key, slots, predicate, checks)``: one member of an
anchor field — its anchor interval's key range, its slots-bitset, the
predicate a one-member component evaluates directly, and the residual
checks of a multi-field member (None for a one-field one).  Members'
slots are disjoint, so the first three fields alone order them: the
order the from-scratch sweep sorts by."""


def anchor_bounds(
    normalized: NormalizedPredicate,
) -> Tuple[_Key, _Key, Optional[_Checks]]:
    """``(start_key, end_key, checks)`` of an anchored predicate's
    :data:`AnchorMember`."""
    interval = normalized.constraints[0][1]
    checks = (
        _residual_checks(normalized) if len(normalized.constraints) > 1 else None
    )
    return interval.start_key, interval.end_key, checks


class _Component:
    """One overlap component of an anchor field, updated by deltas.

    ``singles`` and ``residuals`` hold the members, sorted.  ``cuts``
    are the single members' endpoint keys, and ``toggles[i]`` XORs the
    slots of the members starting or ending at ``cuts[i]``: the stabbing
    sweep's toggles, so the segment masks are their prefix XOR.  Slots
    are disjoint, so a toggle is zero exactly when no endpoint is left
    at its cut, and the cut goes.  ``start`` / ``end`` is the hull.
    """

    __slots__ = (
        "start",
        "end",
        "slots",
        "singles",
        "cuts",
        "toggles",
        "residuals",
        "residual_pairs",
        "published",
    )

    def __init__(self, member: AnchorMember) -> None:
        self.start, self.end = member[0], member[1]
        self.slots = 0
        self.singles: List[AnchorMember] = []
        self.cuts: List[_Key] = []
        self.toggles: List[int] = []
        self.residuals: List[AnchorMember] = []
        self.residual_pairs: List[_Residual] = []
        """``residuals`` as the group evaluates them: (checks, slots)."""
        self.published: Optional[Tuple[_Key, bool]] = None
        """(start, is a group) this component is listed under, if any."""
        self.add(member)

    @property
    def size(self) -> int:
        return len(self.singles) + len(self.residuals)

    def _toggle(self, key: _Key, slots: int) -> None:
        cuts = self.cuts
        index = bisect_left(cuts, key)
        if index < len(cuts) and cuts[index] == key:
            bits = self.toggles[index] ^ slots
            if bits:
                self.toggles[index] = bits
            else:
                del cuts[index]
                del self.toggles[index]
        else:
            cuts.insert(index, key)
            self.toggles.insert(index, slots)

    def add(self, member: AnchorMember) -> None:
        start, end, slots, _, checks = member
        if checks is None:
            insort(self.singles, member)
            self._toggle(start, slots)
            self._toggle(end, slots)
        else:
            index = bisect_left(self.residuals, member)
            self.residuals.insert(index, member)
            self.residual_pairs.insert(index, (checks, slots))
        self.slots |= slots
        if start < self.start:
            self.start = start
        if end > self.end:
            self.end = end

    def discard(self, member: AnchorMember) -> None:
        """Take a member out; the hull is the caller's to fix."""
        start, end, slots, _, checks = member
        if checks is None:
            del self.singles[bisect_left(self.singles, member)]
            self._toggle(start, slots)
            self._toggle(end, slots)
        else:
            index = bisect_left(self.residuals, member)
            del self.residuals[index]
            del self.residual_pairs[index]
        self.slots &= ~slots

    def absorb(self, other: "_Component") -> None:
        """Append ``other``, whose hull lies at or after this one's end."""
        cuts, toggles = other.cuts, other.toggles
        if self.cuts and cuts and self.cuts[-1] == cuts[0]:  # touching hulls
            self.toggles[-1] ^= toggles[0]
            cuts, toggles = cuts[1:], toggles[1:]
        self.cuts += cuts
        self.toggles += toggles
        self.singles += other.singles
        self.residuals += other.residuals
        self.residual_pairs += other.residual_pairs
        self.slots |= other.slots
        self.end = other.end

    def splits(self) -> bool:
        """Whether these single members chain into more than one component.

        The sweep breaks at a cut no member straddles, i.e. where the
        masks of the segments on either side share no slot.  Both the
        prefix XOR and the scan run in C.
        """
        masks = list(accumulate(self.toggles, xor))
        return 0 in map(and_, masks, islice(masks, 1, len(masks) - 1))

    def compile(self, field_index: int) -> SharingGroup:
        """This component as a group, on copies of its lists."""
        group = SharingGroup.__new__(SharingGroup)
        group._layout(
            field_index,
            self.start,
            self.end,
            list(self.cuts),
            list(accumulate(self.toggles, xor)),
            list(self.residual_pairs),
            self.slots,
            self.size,
        )
        return group


def _sweep(members: Sequence[AnchorMember]) -> List[_Component]:
    """Sorted members chained into components: a member joins the open
    component while it starts strictly before the component's end."""
    components: List[_Component] = []
    for member in members:
        if components and member[0] < components[-1].end:
            components[-1].add(member)
        else:
            components.append(_Component(member))
    return components


class AnchorIndex:
    """One anchor field's share of a selection plan, maintained by deltas.

    Components are kept as sorted disjoint hulls.  A member that
    overlaps some hulls merges them (their lists are concatenated), one
    that overlaps none starts a component.  A removal is re-swept only
    when it can split its component: when the component holds residual
    members, or when a cut no remaining single member straddles appears.
    ``direct`` and ``groups`` are the plan's share in key order — the
    one-member components' ``(predicate, slots)`` and the others'
    :class:`SharingGroup` s — and :meth:`publish` recompiles only the
    components changed since its last call.  So a change costs
    ``O(log members)`` Python steps plus C-level list copies of the one
    component it lands in.  The result depends only on the member set,
    and equals the from-scratch sweep.
    """

    def __init__(self, field_index: int) -> None:
        self.field_index = field_index
        self._components: List[_Component] = []
        self._starts: List[_Key] = []
        self._ends: List[_Key] = []
        self.direct: List[Tuple[Predicate, int]] = []
        self._direct_starts: List[_Key] = []
        self.groups: List[SharingGroup] = []
        self._group_starts: List[_Key] = []
        self._changed: Dict[_Component, None] = {}

    def _unpublish(self, component: _Component) -> None:
        if component.published is None:
            return
        start, grouped = component.published
        starts, items = (
            (self._group_starts, self.groups)
            if grouped
            else (self._direct_starts, self.direct)
        )
        index = bisect_left(starts, start)
        del starts[index]
        del items[index]
        component.published = None

    def _find(self, member: AnchorMember) -> int:
        return bisect_right(self._starts, member[0]) - 1

    def _set_hull(self, index: int, component: _Component) -> None:
        self._starts[index] = component.start
        self._ends[index] = component.end

    def insert(self, member: AnchorMember) -> None:
        """Add a member, merging every component whose hull it overlaps."""
        start, end = member[0], member[1]
        low = bisect_right(self._ends, start)  # first hull ending after start
        high = bisect_left(self._starts, end)  # first hull starting at/after end
        if low == high:
            component = _Component(member)
            self._components.insert(low, component)
            self._starts.insert(low, start)
            self._ends.insert(low, end)
        else:
            component = self._components[low]
            self._unpublish(component)
            for other in self._components[low + 1 : high]:
                self._unpublish(other)
                self._changed.pop(other, None)
                component.absorb(other)
            component.add(member)
            del self._components[low + 1 : high]
            del self._starts[low + 1 : high]
            del self._ends[low + 1 : high]
            self._set_hull(low, component)
        self._changed[component] = None

    def remove(self, member: AnchorMember) -> None:
        """Take a member out, re-sweeping its component if it can split."""
        index = self._find(member)
        component = self._components[index]
        self._unpublish(component)
        component.discard(member)
        if not component.slots:
            del self._components[index]
            del self._starts[index]
            del self._ends[index]
            self._changed.pop(component, None)
            return
        if component.residuals or component.splits():
            self._changed.pop(component, None)
            parts = _sweep(sorted(component.singles + component.residuals))
            self._components[index : index + 1] = parts
            self._starts[index : index + 1] = [part.start for part in parts]
            self._ends[index : index + 1] = [part.end for part in parts]
            for part in parts:
                self._changed[part] = None
            return
        component.start, component.end = component.cuts[0], component.cuts[-1]
        self._set_hull(index, component)
        self._changed[component] = None

    def replace(self, old: AnchorMember, new: AnchorMember) -> None:
        """Swap a member for one over the same interval (new slots or
        predicate): the components keep their shape."""
        component = self._components[self._find(old)]
        self._unpublish(component)
        component.discard(old)
        component.add(new)
        self._changed[component] = None

    def publish(self) -> None:
        """List the components changed since the last call afresh."""
        for component in self._changed:
            if component.size == 1:
                member = (component.singles or component.residuals)[0]
                starts, items = self._direct_starts, self.direct
                item: Any = (member[3], member[2])
            else:
                starts, items = self._group_starts, self.groups
                item = component.compile(self.field_index)
            index = bisect_left(starts, component.start)
            starts.insert(index, component.start)
            items.insert(index, item)
            component.published = (component.start, component.size > 1)
        self._changed.clear()
