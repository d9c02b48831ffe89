"""From-scratch compile of a selection plan: the incremental index's oracle.

The shared selection maintains each anchor field's overlap components by
deltas (:class:`repro.core.planner.AnchorIndex`).  The functions here
are what it replaced and must agree with: regroup a whole slot table's
``(predicate, slots)`` pairs, sort each anchor field's members by
``(start_key, end_key, slots)``, sweep them into components and build
every :class:`~repro.core.planner.SharingGroup` from its members.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.planner import (
    Interval,
    NormalizedPredicate,
    SelectionPlan,
    SharingGroup,
    _Key,
    normalize,
    sharing_anchor,
)
from repro.core.query import Predicate

_Member = Tuple[Optional[NormalizedPredicate], Predicate, int]
"""(normalized form or None for a UDF, original predicate, slots-bitset)."""

AnchorPlan = Tuple[List[Tuple[Predicate, int]], List[SharingGroup]]
"""One anchor field's compiled share of a plan: (direct, groups)."""


def compile_anchor(anchor: int, members: Sequence[_Member]) -> AnchorPlan:
    """Sweep one anchor field's members into overlap components.

    Sorted by start key, a member joins the open component while its
    interval begins before the component's furthest end.  A component
    of one stays direct, larger ones become :class:`SharingGroup` s, both
    in sweep order.  The result depends only on the member *set*, so a
    changelog need only recompile the anchors whose members changed.
    """
    ordered = sorted(
        (
            (normalized.interval_for(anchor), normalized, predicate, slots)
            for normalized, predicate, slots in members
        ),
        key=lambda entry: (entry[0].start_key, entry[0].end_key, entry[3]),
    )
    direct: List[Tuple[Predicate, int]] = []
    groups: List[SharingGroup] = []

    def flush(component: List[tuple]) -> None:
        if len(component) == 1:
            _, _, predicate, slots = component[0]
            direct.append((predicate, slots))
            return
        singles: List[Tuple[Interval, int]] = []
        residuals: List[Tuple[NormalizedPredicate, int]] = []
        for interval, normalized, _, slots in component:
            if len(normalized.constraints) == 1:
                singles.append((interval, slots))
            else:
                residuals.append((normalized, slots))
        groups.append(SharingGroup(anchor, singles, residuals))

    component: List[tuple] = []
    max_end: Optional[_Key] = None
    for entry in ordered:
        interval = entry[0]
        if component and interval.start_key < max_end:
            component.append(entry)
            max_end = max(max_end, interval.end_key)
            continue
        if component:
            flush(component)
        component = [entry]
        max_end = interval.end_key
    if component:
        flush(component)
    return direct, groups


def assemble_plan(
    loose: Sequence[_Member], anchors: Dict[int, AnchorPlan]
) -> SelectionPlan:
    """One view's plan from its unanchored members and compiled anchors.

    ``loose`` holds the members :func:`sharing_anchor` leaves out, in
    pair order: UDFs and constant-true predicates are evaluated direct,
    constant-false ones fold away.  Anchors follow in field order.
    Every group enters the plan as a :meth:`SharingGroup.fresh` copy, so
    each view counts its own work over a shared compiled index.
    """
    plan = SelectionPlan()
    for normalized, predicate, slots in loose:
        if normalized is not None and not normalized.satisfiable:
            plan.folded_slots |= slots
        else:
            plan.direct.append((predicate, slots))
    for anchor in sorted(anchors):
        direct, groups = anchors[anchor]
        plan.direct.extend(direct)
        plan.groups.extend(group.fresh() for group in groups)
    return plan


def compile_selection_plan(
    pairs: Sequence[Tuple[Predicate, int]],
    share_overlapping: bool = True,
) -> SelectionPlan:
    """Rewrite deduplicated (predicate, slots) pairs into a shared plan.

    Deterministic: the same pairs (and they are derived from the sorted
    slot table) compile to the same plan on every backend and after
    every recovery, which is what keeps sharded and restored runs
    byte-equal to the inline oracle.  The selection operator maintains
    the same plan incrementally (:class:`repro.core.planner.AnchorIndex`);
    this from-scratch form is its test oracle.
    """
    if not share_overlapping:
        return SelectionPlan(direct=list(pairs))
    loose: List[_Member] = []
    clusters: Dict[int, List[_Member]] = {}
    for predicate, slots in pairs:
        normalized = normalize(predicate)
        anchor = sharing_anchor(normalized)
        if anchor is None:
            loose.append((normalized, predicate, slots))
        else:
            clusters.setdefault(anchor, []).append((normalized, predicate, slots))
    return assemble_plan(
        loose,
        {
            anchor: compile_anchor(anchor, members)
            for anchor, members in clusters.items()
        },
    )
