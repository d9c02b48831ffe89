"""One stats surface (ISSUE 19).

Operators declare their counters once in ``stats()``; ``component_stats``,
``sharing_summary`` and the registry gauges of ``obs_snapshot`` are
projections of ``stats_snapshot()``, merged by each stat's own hint — so
the same input must read the same on every backend and through every
view, and the process backend's views must outlive its worker pool.  (The wire ``stats`` frame is held to the same snapshot in
``tests/serve/test_server.py``.)
"""

from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.parallel_engine import ProcessAStreamEngine
from repro.core.shared_aggregation import SharedAggregationOperator
from repro.core.sql import parse_query
from repro.workloads.datagen import DataGenerator

# Nested bounds fold into one covering group with residual filters, so
# the sharing counters do real work; the B query drops and passes rows.
SQLS = (
    "SELECT * FROM A WHERE A.F0 > 100",
    "SELECT * FROM A WHERE A.F0 > 400",
    "SELECT * FROM A WHERE A.F0 > 700",
    "SELECT * FROM B WHERE B.F1 < 300",
)
TUPLES = 200

# Counters whose totals do not depend on how keys are partitioned.
ADDITIVE = {
    # component_stats key -> (operator kind, registry gauge name)
    "predicate_evaluations": ("select", "predicate_evaluations"),
    "selection_dropped": ("select", "records_dropped"),
    "router_copies": ("router", "copies"),
}
SHARING_COUNTERS = (
    "group_evaluations",
    "cover_skips",
    "index_probes",
    "residual_checks",
)


def events():
    """The shared input: ``(stream, timestamp, tuple)`` in push order."""
    generator = DataGenerator(seed=7)
    return [
        (stream, ts, generator.next_tuple())
        for ts in range(TUPLES // 2)
        for stream in ("A", "B")
    ]


def run(engine):
    """Deploy :data:`SQLS` (one changelog each, as the server does) and
    push :func:`events` through ``engine``."""
    for sql in SQLS:
        engine.submit(parse_query(sql), 0)
        engine.flush_session(0)
    for stream, ts, value in events():
        engine.push(stream, ts, value)
    engine.watermark(TUPLES)
    engine.drain()
    return engine


def _config(**overrides):
    return EngineConfig(streams=("A", "B"), observe=True, **overrides)


def _engines():
    yield "inline-p1", AStreamEngine(_config(parallelism=1))
    yield "inline-p2", AStreamEngine(_config(parallelism=2))
    yield "process-w2", ProcessAStreamEngine(_config(parallelism=1), workers=2)


def _gauge_total(registry, kind, name):
    """Cluster total of one operator gauge: the entries without a
    ``shard`` label (per-shard copies stay addressable beside them)."""
    return sum(
        entry["value"]
        for entry in registry.values()
        if entry["name"] == name
        and "shard" not in entry["labels"]
        and entry["labels"].get("operator", "").startswith(kind + ":")
    )


class TestOneSnapshotEveryView:
    def test_additive_counters_agree_across_backends_and_views(self):
        seen = {}
        for label, engine in _engines():
            run(engine)
            component = engine.component_stats()
            sharing = engine.sharing_summary()
            registry = engine.obs_snapshot()["registry"]
            engine.shutdown()
            for key, (kind, gauge) in ADDITIVE.items():
                assert component[key] == _gauge_total(registry, kind, gauge), (
                    f"{label}: component_stats[{key!r}] disagrees with "
                    f"the {gauge} gauges"
                )
            for key in SHARING_COUNTERS:
                assert sharing["A"][key] + sharing["B"][key] == _gauge_total(
                    registry, "select", f"sharing_{key}"
                ), f"{label}: sharing_summary[{key!r}] disagrees with gauges"
            seen[label] = (
                {key: component[key] for key in ADDITIVE},
                sharing,
            )
        assert seen["inline-p1"][0]["predicate_evaluations"] > 0
        assert seen["inline-p1"][0]["selection_dropped"] > 0
        assert seen["inline-p1"][0]["router_copies"] > 0
        assert seen["inline-p1"] == seen["inline-p2"] == seen["process-w2"]


class TestProcessViewsOutliveThePool:
    def test_every_stats_view_is_readable_after_shutdown(self):
        engine = run(
            ProcessAStreamEngine(_config(parallelism=1), workers=2)
        )
        views = {
            "stats_snapshot": engine.stats_snapshot,
            "component_stats": engine.component_stats,
            "sharing_summary": engine.sharing_summary,
            "cost_profile": engine.cost_profile,
        }
        live = {name: view() for name, view in views.items()}
        live_registry = engine.obs_snapshot()["registry"]
        engine.shutdown()
        assert engine.alive_workers == 0
        for name, view in views.items():
            assert view() == live[name], f"{name} changed across shutdown"
        assert engine.cost_attribution()["total_ns"] > 0
        final_registry = engine.obs_snapshot()["registry"]
        key = "predicate_evaluations{operator=select:A}"
        assert final_registry[key] == live_registry[key]
        assert final_registry[key]["value"] > 0
        assert "predicate_evaluations{operator=select:A,shard=0}" in (
            final_registry
        )


class _ProbedAggregation(SharedAggregationOperator):
    """A shared aggregation that declares one extra stat."""

    def stats(self):
        return {**super().stats(), "probe_units": (7, "sum")}


class _ProbedEngine(AStreamEngine):
    def _make_aggregation(self, operator_key):
        return _ProbedAggregation(operator_key)


class TestOperatorsDeclareTheirOwnStats:
    def test_new_stat_reaches_snapshot_and_registry_without_engine_edit(self):
        engine = _ProbedEngine(_config(parallelism=2))
        snapshot = engine.stats_snapshot()
        entry = snapshot["probe_units{operator=agg:A}"]
        # Two parallel instances, merged by the stat's own hint.
        assert (entry["value"], entry["merge"]) == (14, "sum")
        registry = engine.obs_snapshot()["registry"]
        assert registry["probe_units{operator=agg:A}"]["value"] == 14
        assert registry["probe_units{operator=agg:B}"]["value"] == 14
        engine.shutdown()
