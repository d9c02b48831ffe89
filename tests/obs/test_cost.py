"""Unit tests for shared-work CPU cost attribution (ISSUE 9).

The conservation contract: :func:`attribute_costs` is a proportional
split of the *measured* total, so per-query shares plus the idle bucket
sum to the total exactly — shared covering-group work is divided equally
across member queries.  Raw shard profiles (slot bitmasks) merge before
the coordinator resolves them to query ids.
"""

import pytest

from repro.core.bitset import iter_slots
from repro.obs.cost import (
    attribute_costs,
    cost_summary,
    merge_cost_profiles,
)


class TestSlotsOf:
    """A raw profile's slot mask resolves through ``iter_slots``."""

    def test_bit_positions(self):
        assert list(iter_slots(0)) == []
        assert list(iter_slots(0b1)) == [0]
        assert list(iter_slots(0b1010)) == [1, 3]
        assert list(iter_slots(1 << 63)) == [63]


def _profile(entries, unattributed=0.0):
    return {"streams": {"A": entries}, "unattributed_evaluations": unattributed}


class TestAttribution:
    def test_shares_sum_to_total_exactly(self):
        profile = _profile(
            [
                {"kind": "direct", "queries": ["q1"], "evaluations": 7},
                {"kind": "cover", "queries": ["q1", "q2", "q3"],
                 "evaluations": 11},
                {"kind": "direct", "queries": ["q2"], "evaluations": 3},
            ],
            unattributed=5,
        )
        total = 1_000_003  # awkward total: integer truncation guaranteed
        result = attribute_costs(total, profile)
        assert (
            sum(result["queries"].values()) + result["unattributed_ns"]
            == total
        )
        assert set(result["queries"]) == {"q1", "q2", "q3"}

    def test_shared_work_splits_equally(self):
        profile = _profile(
            [{"kind": "cover", "queries": ["q1", "q2"], "evaluations": 100}]
        )
        result = attribute_costs(1_000_000, profile)
        assert result["weights"]["q1"] == result["weights"]["q2"] == 50.0
        # Shares match up to the remainder nanosecond.
        q1, q2 = result["queries"]["q1"], result["queries"]["q2"]
        assert abs(q1 - q2) <= 1
        assert q1 + q2 == 1_000_000

    def test_memberless_entry_counts_as_unattributed(self):
        profile = _profile(
            [
                {"kind": "direct", "queries": [], "evaluations": 30},
                {"kind": "direct", "queries": ["q1"], "evaluations": 10},
            ]
        )
        result = attribute_costs(4_000, profile)
        assert result["queries"]["q1"] == 1_000
        assert result["unattributed_ns"] == 3_000

    def test_zero_total_and_zero_weight(self):
        assert attribute_costs(0, _profile([]))["queries"] == {}
        idle = attribute_costs(500, _profile([]))
        assert idle["queries"] == {}
        assert idle["unattributed_ns"] == 500

    def test_zero_evaluation_entries_ignored(self):
        profile = _profile(
            [
                {"kind": "direct", "queries": ["q1"], "evaluations": 0},
                {"kind": "direct", "queries": ["q2"], "evaluations": 4},
            ]
        )
        result = attribute_costs(100, profile)
        assert "q1" not in result["queries"]
        assert result["queries"]["q2"] == 100


class TestMerge:
    def test_raw_slot_entries_merge_by_mask(self):
        shard0 = {
            "streams": {
                "A": [{"kind": "cover", "slots": 0b11, "evaluations": 10}]
            },
            "unattributed_evaluations": 1,
            "engine_cpu_ns": 100,
        }
        shard1 = {
            "streams": {
                "A": [
                    {"kind": "cover", "slots": 0b11, "evaluations": 5},
                    {"kind": "direct", "slots": 0b100, "evaluations": 2},
                ]
            },
            "unattributed_evaluations": 2,
            "engine_cpu_ns": 250,
        }
        merged = merge_cost_profiles([shard0, None, shard1])
        assert merged["engine_cpu_ns"] == 350
        assert merged["unattributed_evaluations"] == 3
        entries = {
            (e["kind"], e["slots"]): e["evaluations"]
            for e in merged["streams"]["A"]
        }
        assert entries[("cover", 0b11)] == 15.0
        assert entries[("direct", 0b100)] == 2.0

    def test_resolved_query_entries_merge_by_member_set(self):
        a = _profile(
            [{"kind": "cover", "queries": ["q2", "q1"], "evaluations": 3}]
        )
        b = _profile(
            [{"kind": "cover", "queries": ["q1", "q2"], "evaluations": 4}]
        )
        merged = merge_cost_profiles([a, b])
        (entry,) = merged["streams"]["A"]
        assert entry["queries"] == ["q1", "q2"]
        assert entry["evaluations"] == 7.0

    def test_merged_raw_profile_feeds_attribution(self):
        # The process-backend path: merge raw shard masks, resolve
        # (here: trivially rename), attribute — conservation holds.
        merged = merge_cost_profiles(
            [
                {
                    "streams": {
                        "A": [{"kind": "cover", "slots": 0b1,
                               "evaluations": 6}]
                    },
                    "engine_cpu_ns": 900,
                },
                {
                    "streams": {
                        "A": [{"kind": "cover", "slots": 0b1,
                               "evaluations": 6}]
                    },
                    "engine_cpu_ns": 100,
                },
            ]
        )
        resolved = {
            "streams": {
                "A": [
                    {
                        "kind": entry["kind"],
                        "queries": [f"q{s}" for s in iter_slots(entry["slots"])],
                        "evaluations": entry["evaluations"],
                    }
                    for entry in merged["streams"]["A"]
                ]
            },
            "unattributed_evaluations": merged["unattributed_evaluations"],
        }
        result = attribute_costs(merged["engine_cpu_ns"], resolved)
        assert result["queries"] == {"q0": 1_000}


class TestSummary:
    def test_ranked_shares(self):
        attribution = {
            "total_ns": 100,
            "queries": {"small": 10, "big": 70, "mid": 20},
            "unattributed_ns": 0,
        }
        rows = cost_summary(attribution, top=2)
        assert [row["query_id"] for row in rows] == ["big", "mid"]
        assert rows[0]["share"] == pytest.approx(0.7)
