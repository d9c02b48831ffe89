"""Tests and property tests for query-set bitsets."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bitset import QuerySet, extend_mask, iter_slots

slot_sets = st.sets(st.integers(min_value=0, max_value=63), max_size=16)


class TestConstruction:
    def test_empty(self):
        assert QuerySet().is_empty()
        assert QuerySet().count() == 0

    def test_of(self):
        qs = QuerySet.of(0, 2)
        assert qs.contains(0)
        assert not qs.contains(1)
        assert qs.contains(2)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            QuerySet(-1)

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError):
            QuerySet.of(-1)

    def test_all_of(self):
        assert QuerySet.all_of(3).slots() == [0, 1, 2]
        assert QuerySet.all_of(0).is_empty()

    def test_paper_string_round_trip(self):
        # Figure 3a: "0010" means only the query at position 3.
        qs = QuerySet.from_paper_string("0010")
        assert qs.slots() == [2]
        assert qs.to_paper_string(4) == "0010"

    def test_paper_string_invalid(self):
        with pytest.raises(ValueError):
            QuerySet.from_paper_string("01x")


class TestAlgebra:
    def test_intersect_is_shared_queries(self):
        # Figure 3a: t2 (10) and t3 (01) share nothing; t4 (11) shares
        # Q1 with t2 and Q2 with t3.
        t2 = QuerySet.from_paper_string("10")
        t3 = QuerySet.from_paper_string("01")
        t4 = QuerySet.from_paper_string("11")
        assert (t2 & t3).is_empty()
        assert (t4 & t2).slots() == [0]
        assert (t4 & t3).slots() == [1]

    def test_union_minus(self):
        a = QuerySet.of(0, 1)
        b = QuerySet.of(1, 2)
        assert (a | b).slots() == [0, 1, 2]
        assert (a - b).slots() == [0]

    def test_with_without_slot(self):
        qs = QuerySet().with_slot(3)
        assert qs.contains(3)
        assert not qs.without_slot(3).contains(3)

    def test_shares_any(self):
        assert QuerySet.of(1).shares_any(QuerySet.of(1, 2))
        assert not QuerySet.of(1).shares_any(QuerySet.of(2))

    def test_equality_with_int(self):
        assert QuerySet.of(0, 2) == 0b101
        assert QuerySet.of(0) == QuerySet.of(0)
        assert hash(QuerySet.of(1)) == hash(QuerySet.of(1))

    def test_bool(self):
        assert not QuerySet()
        assert QuerySet.of(0)


class TestIteration:
    def test_slots_sorted(self):
        assert QuerySet.of(5, 1, 3).slots() == [1, 3, 5]

    def test_count_matches_popcount(self):
        assert QuerySet.of(0, 7, 63).count() == 3

    @given(
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=200).map(lambda slot: 1 << slot),
            st.integers(min_value=0, max_value=(1 << 200) - 1),
        )
    )
    def test_iter_slots_matches_a_per_bit_walk(self, bits):
        naive = [slot for slot in range(bits.bit_length()) if bits >> slot & 1]
        assert list(iter_slots(bits)) == naive
        assert QuerySet(bits).slots() == naive


class TestProperties:
    @given(slot_sets, slot_sets)
    def test_intersection_matches_set_semantics(self, left, right):
        qs_left = QuerySet.from_slots(left)
        qs_right = QuerySet.from_slots(right)
        assert set((qs_left & qs_right).slots()) == left & right

    @given(slot_sets, slot_sets)
    def test_union_matches_set_semantics(self, left, right):
        assert set(
            (QuerySet.from_slots(left) | QuerySet.from_slots(right)).slots()
        ) == left | right

    @given(slot_sets)
    def test_round_trip_through_slots(self, slots):
        assert set(QuerySet.from_slots(slots).slots()) == slots

    @given(slot_sets)
    def test_paper_string_round_trip(self, slots):
        qs = QuerySet.from_slots(slots)
        width = (max(slots) + 1) if slots else 0
        assert QuerySet.from_paper_string(qs.to_paper_string(width)) == qs


class TestExtendMask:
    def test_pads_with_unchanged(self):
        # A 2-wide mask 0b01 extended to width 4: new slots count as
        # unchanged (set bits).
        assert extend_mask(0b01, 2, 4) == 0b1101

    def test_same_width_identity(self):
        assert extend_mask(0b101, 3, 3) == 0b101

    def test_shrink_rejected(self):
        with pytest.raises(ValueError):
            extend_mask(0b1, 2, 1)

    @given(st.integers(0, 2**8 - 1), st.integers(8, 16))
    def test_extension_preserves_low_bits(self, mask, target):
        extended = extend_mask(mask, 8, target)
        assert extended & 0xFF == mask
        assert extended >> 8 == (1 << (target - 8)) - 1
