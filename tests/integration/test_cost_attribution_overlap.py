"""Cost-attribution conservation on the 500-query overlap workload.

ISSUE 9 acceptance criterion: per-query cost attribution must sum to
the total measured engine CPU within 1 % on the ROADMAP's 500-query
~30 %-pairwise-overlap workload.  Attribution is a proportional split
of the metered total, so conservation actually holds *exactly* — the
assertions below check the hard identity first and the 1 % bound as
the stated acceptance bar.

The workload mirrors ``bench_ablation_predicate_dedup``: 500
non-identical interval predicates ``low <= f0 <= low + 15`` with low
bounds uniform in [0, 85) under a fixed seed, expressed as flattened
conjunctions so the planner's normalization (not predicate identity)
drives the covering-group sharing whose amortized cost the attribution
has to split.
"""

import random

from repro.core.engine import EngineConfig
from repro.core.parallel_engine import ProcessAStreamEngine
from repro.core.query import (
    AggregationQuery,
    Comparison,
    FieldPredicate,
    WindowSpec,
)
from repro.core.sql import ConjunctionPredicate
from tests.conftest import field_tuple, make_engine

QUERIES = 500
INTERVAL_WIDTH = 15.0
CONSTANT_SPAN = 85.0
SEED = 2019
PUSHES = 400


def overlap_queries(count: int = QUERIES):
    rng = random.Random(SEED)
    queries = []
    for index in range(count):
        low = round(rng.uniform(0.0, CONSTANT_SPAN), 2)
        queries.append(
            AggregationQuery(
                stream="A",
                predicate=ConjunctionPredicate(
                    (
                        FieldPredicate(0, Comparison.GE, low),
                        FieldPredicate(0, Comparison.LE, low + INTERVAL_WIDTH),
                    )
                ),
                window_spec=WindowSpec.tumbling(1_000),
                query_id=f"ovl-{index}",
            )
        )
    return queries


def drive(engine, pushes: int = PUSHES):
    for query in overlap_queries():
        engine.submit(query, 0)
    engine.flush_session(0)
    for index in range(pushes):
        # f0 sweeps the [0, 100) predicate domain deterministically.
        engine.push(
            "A", index, field_tuple(key=index % 8, f0=(index * 7) % 100)
        )
    engine.watermark(pushes)


def assert_conserved(cost):
    total = cost["total_ns"]
    attributed = sum(cost["queries"].values()) + cost["unattributed_ns"]
    assert total > 0, "observe=True must meter data-path CPU"
    # The hard identity: proportional split + remainder handoff.
    assert attributed == total
    # The stated acceptance bar (held with zero slack, not 1 %).
    assert abs(attributed - total) <= 0.01 * total
    return total


class TestOverlapWorkloadAttribution:
    def test_inline_shares_sum_to_metered_total(self):
        engine = make_engine(streams=("A",), observe=True)
        drive(engine)
        cost = engine.cost_attribution()
        assert_conserved(cost)
        # Every query shares the covering group, so every query is
        # charged a share of the amortized scan.
        assert set(cost["queries"]) == {
            f"ovl-{index}" for index in range(QUERIES)
        }
        assert all(share > 0 for share in cost["queries"].values())

    def test_overlapping_pair_splits_shared_work_fairly(self):
        engine = make_engine(streams=("A",), observe=True)
        drive(engine)
        profile = engine.cost_profile()
        group_entries = [
            entry
            for entry in profile["streams"]["A"]
            if entry["kind"] == "groups"
        ]
        assert group_entries, "overlap workload must form covering groups"
        # The covering group spans (essentially) the whole population —
        # this is the shared work the split must amortize.
        assert max(len(e["queries"]) for e in group_entries) > QUERIES // 2

    def test_process_backend_merged_profile_conserves(self):
        engine = ProcessAStreamEngine(
            EngineConfig(streams=("A",), parallelism=1, observe=True),
            workers=2,
        )
        try:
            drive(engine, pushes=160)
            engine.drain()
            cost = engine.cost_attribution()
            assert_conserved(cost)
            assert len(cost["queries"]) == QUERIES
        finally:
            engine.shutdown()
