"""Unit tests for the semantic-overlap multi-query planner (ISSUE 8)."""

from bisect import bisect_right

from repro.core.planner import (
    Interval,
    NormalizedPredicate,
    SharingGroup,
    covering,
    normalize,
    overlaps,
    stabbing_segments,
    subsumes,
)
from repro.core.query import (
    CallablePredicate,
    Comparison,
    FieldPredicate,
    TruePredicate,
)
from repro.core.selection import SharedSelectionOperator
from repro.core.sql import ConjunctionPredicate
from tests.conftest import field_tuple
from tests.core.plan_oracle import compile_selection_plan

GE = Comparison.GE
GT = Comparison.GT
LE = Comparison.LE
LT = Comparison.LT
EQ = Comparison.EQ


class TestIntervalAlgebra:
    def test_bound_kinds_in_key_space(self):
        closed = Interval(5, True, 10, True)
        assert closed.contains_value(5) and closed.contains_value(10)
        open_ = Interval(5, False, 10, False)
        assert not open_.contains_value(5) and not open_.contains_value(10)
        assert open_.contains_value(6)

    def test_intersect_prefers_tighter_bounds(self):
        left = Interval(0, True, 10, True)
        right = Interval(0, False, 10, False)
        meet = left.intersect(right)
        assert not meet.contains_value(0) and not meet.contains_value(10)

    def test_touching_intervals_do_not_overlap(self):
        # (5, inf) and (-inf, 5] touch at 5 without sharing a value.
        gt = Interval(low=5, low_inclusive=False)
        le = Interval(high=5, high_inclusive=True)
        assert not gt.overlaps(le)
        # [5, inf) and (-inf, 5] do share the value 5.
        ge = Interval(low=5, low_inclusive=True)
        assert ge.overlaps(le)

    def test_empty_after_contradictory_intersection(self):
        meet = Interval(low=5, low_inclusive=False).intersect(
            Interval(high=3, high_inclusive=True)
        )
        assert meet.is_empty

    def test_hull_widens_both_bounds(self):
        hull = Interval(0, True, 4, True).hull(Interval(2, False, 9, False))
        assert hull.contains_value(0) and hull.contains_value(8)
        assert not hull.contains_value(9)


class TestNormalize:
    def test_field_predicate_forms(self):
        for op, inside, outside in (
            (LT, 4, 5),
            (LE, 5, 6),
            (GT, 6, 5),
            (GE, 5, 4),
            (EQ, 5, 6),
        ):
            norm = normalize(FieldPredicate(0, op, 5))
            assert norm.evaluate(field_tuple(1, f0=inside)), op
            assert not norm.evaluate(field_tuple(1, f0=outside)), op

    def test_true_predicate_is_unconstrained(self):
        norm = normalize(TruePredicate())
        assert norm.satisfiable and norm.constraints == ()
        assert norm.anchor_field is None

    def test_udf_is_not_normalizable(self):
        assert normalize(CallablePredicate(lambda v: True)) is None

    def test_conjunction_folds_per_field(self):
        norm = normalize(
            ConjunctionPredicate(
                (
                    FieldPredicate(0, GE, 25),
                    FieldPredicate(0, GE, 50),  # tighter: folded in
                    FieldPredicate(1, LT, 10),
                )
            )
        )
        assert len(norm.constraints) == 2
        assert norm.evaluate(field_tuple(1, f0=50, f1=5))
        assert not norm.evaluate(field_tuple(1, f0=40, f1=5))

    def test_contradiction_folds_to_unsatisfiable(self):
        norm = normalize(
            ConjunctionPredicate(
                (FieldPredicate(0, GT, 5), FieldPredicate(0, LT, 3))
            )
        )
        assert not norm.satisfiable
        assert not norm.evaluate(field_tuple(1, f0=4))

    def test_canonical_key_is_representation_independent(self):
        permuted = normalize(
            ConjunctionPredicate(
                (FieldPredicate(1, LT, 10), FieldPredicate(0, GE, 50))
            )
        )
        ordered = normalize(
            ConjunctionPredicate(
                (FieldPredicate(0, GE, 50), FieldPredicate(1, LT, 10))
            )
        )
        assert permuted.canonical_key == ordered.canonical_key
        # GE 50 alone vs the same region spelled redundantly.
        redundant = normalize(
            ConjunctionPredicate(
                (FieldPredicate(0, GE, 50), FieldPredicate(0, GE, 25))
            )
        )
        assert redundant.canonical_key == normalize(
            FieldPredicate(0, GE, 50)
        ).canonical_key


class TestSubsumptionAndOverlap:
    def test_issue_example_ge50_subsumed_by_ge25(self):
        wider = normalize(FieldPredicate(0, GE, 25))
        narrower = normalize(FieldPredicate(0, GE, 50))
        assert subsumes(wider, narrower)
        assert not subsumes(narrower, wider)

    def test_multi_field_subsumption(self):
        wider = normalize(FieldPredicate(0, GE, 25))
        narrower = normalize(
            ConjunctionPredicate(
                (FieldPredicate(0, GE, 50), FieldPredicate(1, LT, 10))
            )
        )
        assert subsumes(wider, narrower)
        assert not subsumes(narrower, wider)

    def test_everything_subsumes_unsatisfiable(self):
        unsat = normalize(
            ConjunctionPredicate(
                (FieldPredicate(0, GT, 5), FieldPredicate(0, LT, 3))
            )
        )
        assert subsumes(normalize(FieldPredicate(0, LT, 0)), unsat)
        assert not subsumes(unsat, normalize(TruePredicate()))

    def test_overlap_of_shifted_ranges(self):
        a = normalize(
            ConjunctionPredicate(
                (FieldPredicate(0, GE, 10), FieldPredicate(0, LE, 25))
            )
        )
        b = normalize(
            ConjunctionPredicate(
                (FieldPredicate(0, GE, 20), FieldPredicate(0, LE, 35))
            )
        )
        c = normalize(FieldPredicate(0, GE, 30))
        assert overlaps(a, b)
        assert not overlaps(a, c)
        assert overlaps(b, c)

    def test_covering_subsumes_every_member(self):
        members = [
            normalize(FieldPredicate(0, GE, 25)),
            normalize(
                ConjunctionPredicate(
                    (FieldPredicate(0, GE, 50), FieldPredicate(1, LT, 10))
                )
            ),
        ]
        cover = covering(members)
        for member in members:
            assert subsumes(cover, member)
        # Field 1 is unconstrained in the first member, so the cover
        # must not constrain it.
        assert [f for f, _ in cover.constraints] == [0]


def _pairs(*predicates):
    return [(predicate, 1 << slot) for slot, predicate in enumerate(predicates)]


class TestCompiledPlan:
    def test_disjoint_predicates_stay_direct(self):
        plan = compile_selection_plan(
            _pairs(FieldPredicate(0, GT, 5), FieldPredicate(0, LE, 5))
        )
        assert len(plan.direct) == 2 and not plan.groups

    def test_overlapping_predicates_form_group(self):
        plan = compile_selection_plan(
            _pairs(FieldPredicate(0, GE, 25), FieldPredicate(0, GE, 50))
        )
        assert not plan.direct
        assert len(plan.groups) == 1
        group = plan.groups[0]
        assert group.member_count == 2
        assert group.slots_mask == 0b11

    def test_group_evaluation_matches_members(self):
        a = FieldPredicate(0, GE, 25)
        b = FieldPredicate(0, GE, 50)
        plan = compile_selection_plan(_pairs(a, b))
        group = plan.groups[0]
        for value in (0, 24, 25, 30, 49, 50, 75, 100):
            record = field_tuple(1, f0=value)
            expected = (1 if a.evaluate(record) else 0) | (
                2 if b.evaluate(record) else 0
            )
            assert group.evaluate(record) == expected, value

    def test_cover_check_rejects_outside_hull(self):
        plan = compile_selection_plan(
            _pairs(
                ConjunctionPredicate(
                    (FieldPredicate(0, GE, 20), FieldPredicate(0, LE, 40))
                ),
                ConjunctionPredicate(
                    (FieldPredicate(0, GE, 30), FieldPredicate(0, LE, 50))
                ),
            )
        )
        group = plan.groups[0]
        assert group.evaluate(field_tuple(1, f0=60)) == 0
        assert group.cover_skips == 1
        assert group.evaluate(field_tuple(1, f0=35)) == 0b11
        assert group.evaluate(field_tuple(1, f0=45)) == 0b10

    def test_residual_refines_multi_field_member(self):
        single = ConjunctionPredicate(
            (FieldPredicate(0, GE, 20), FieldPredicate(0, LE, 40))
        )
        multi = ConjunctionPredicate(
            (
                FieldPredicate(0, GE, 30),
                FieldPredicate(0, LE, 50),
                FieldPredicate(1, LT, 10),
            )
        )
        plan = compile_selection_plan(_pairs(single, multi))
        group = plan.groups[0]
        assert group.residual_count == 1
        assert group.evaluate(field_tuple(1, f0=35, f1=5)) == 0b11
        assert group.evaluate(field_tuple(1, f0=35, f1=50)) == 0b01
        assert group.evaluate(field_tuple(1, f0=45, f1=5)) == 0b10

    def test_unsatisfiable_predicates_fold_away(self):
        plan = compile_selection_plan(
            _pairs(
                ConjunctionPredicate(
                    (FieldPredicate(0, GT, 5), FieldPredicate(0, LT, 3))
                ),
                FieldPredicate(0, GE, 25),
            )
        )
        assert not plan.groups and len(plan.direct) == 1
        assert plan.folded_slots == 0b01

    def test_udf_predicates_stay_direct(self):
        udf = CallablePredicate(lambda v: v.fields[0] > 5)
        plan = compile_selection_plan(
            _pairs(udf, FieldPredicate(0, GE, 25), FieldPredicate(0, GE, 50))
        )
        assert [p for p, _ in plan.direct] == [udf]
        assert len(plan.groups) == 1

    def test_share_overlapping_off_is_identity(self):
        pairs = _pairs(FieldPredicate(0, GE, 25), FieldPredicate(0, GE, 50))
        plan = compile_selection_plan(pairs, share_overlapping=False)
        assert plan.direct == pairs and not plan.groups

    def test_stabbing_index_segments_resolve_all_members(self):
        # A chain of overlapping [low, low+15] intervals, every probe
        # value checked against brute force.
        predicates = [
            ConjunctionPredicate(
                (
                    FieldPredicate(0, GE, low),
                    FieldPredicate(0, LE, low + 15),
                )
            )
            for low in (0, 10, 20, 30, 40, 50)
        ]
        plan = compile_selection_plan(_pairs(*predicates))
        assert len(plan.groups) == 1
        group = plan.groups[0]
        for value in range(-5, 75):
            expected = 0
            for slot, predicate in enumerate(predicates):
                if predicate.evaluate(field_tuple(1, f0=value)):
                    expected |= 1 << slot
            assert group.evaluate(field_tuple(1, f0=value)) == expected, value

    def test_stabbing_sweep_is_shared_and_exact(self):
        # One sweep serves the selection's index and the aggregation's
        # segment layout: each segment's mask is exactly the members
        # containing it, nothing covers the last one, and SharingGroup
        # holds the sweep's own output.
        members = [
            (normalize(predicate).interval_for(0), 1 << slot)
            for slot, predicate in enumerate(
                (
                    FieldPredicate(0, LT, 30),
                    FieldPredicate(0, GE, 10),
                    FieldPredicate(0, EQ, 20),
                    ConjunctionPredicate(
                        (FieldPredicate(0, GT, 5), FieldPredicate(0, LE, 20))
                    ),
                    FieldPredicate(0, GT, 20),
                )
            )
        ]
        cuts, masks, all_slots = stabbing_segments(members)
        assert all_slots == 0b11111
        assert cuts == sorted(set(cuts)) and masks[-1] == 0
        for value in range(-5, 40):
            index = bisect_right(cuts, (value, 0)) - 1
            expected = sum(
                slots for interval, slots in members if interval.contains_value(value)
            )
            assert (masks[index] if index >= 0 else 0) == expected, value
        group = SharingGroup(0, members, [])
        assert (group._cuts, group._segment_masks) == (cuts, masks)

    def test_columnar_binding_matches_row_evaluation(self):
        predicates = [
            FieldPredicate(0, GE, 25),
            ConjunctionPredicate(
                (
                    FieldPredicate(0, GE, 30),
                    FieldPredicate(0, LE, 60),
                    FieldPredicate(2, GT, 40),
                )
            ),
        ]
        plan = compile_selection_plan(_pairs(*predicates))
        group = plan.groups[0]
        values = [0, 20, 25, 30, 45, 61, 99]
        others = [10, 50, 41, 40, 99, 50, 0]
        columns = [values, [0] * len(values), others, [0] * len(values), [0] * len(values)]
        probe = group.bind_columns(columns)
        for row in range(len(values)):
            record = field_tuple(1, f0=values[row], f2=others[row])
            assert probe(row) == group.evaluate(record), row


class TestOperatorSharingStats:
    def test_sharing_group_stats_shape(self):
        operator = SharedSelectionOperator("A")
        stats = operator.sharing_group_stats()
        assert stats["groups"] == 0 and stats["grouped_slots"] == 0
