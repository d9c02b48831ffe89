"""Ablation: slice storage layouts and the keyed-state backend.

§3.1.4: grouping tuples by query-set lets slice joins skip whole group
pairs, but beyond ~10 concurrent queries most groups hold one tuple and
the flat list wins.  The engine's threshold switches layouts; this bench
pins all three settings against the same workload.

ISSUE 10 adds the physical state axis: the same SC1 aggregation run on
``state_backend={memory,lsm}`` (spill throughput ratio) and copy-on-write
vs deepcopy operator snapshots.  The ``measure_*`` helpers are imported
by ``check_perf_regression.py --state``; running this module directly
with ``--keys N`` drives the out-of-core capacity check (the acceptance
run is ``--keys 1000000``).
"""

import copy
import shutil
import statistics
import tempfile
import time

from repro.core.storage import StoreKind
from repro.harness.report import FigureResult
from repro.harness.runner import RunnerConfig, run_scenario
from repro.minispe.state import KeyedState
from repro.store.lsm import LSMStateStore

# The gate workload spills for real (memtable/write-buffer cap well
# below the per-slot key cardinality) while staying representative:
# SC1 aggregations at 8-way ad-hoc parallelism.
STATE_MEMTABLE_ENTRIES = 512
SPILL_PAIRS = 3


def _run(threshold: int, parallelism: int):
    return run_scenario(
        RunnerConfig(
            input_rate_tps=400.0,
            duration_s=8.0,
            engine_overrides={"storage_query_threshold": threshold},
        ),
        scenario="sc1",
        queries_per_second=float(parallelism),
        query_parallelism=parallelism,
        kind="join",
    )


def bench_ablation_storage(benchmark, record_figure):
    result = FigureResult(
        figure_id="Ablation storage",
        title="Grouped vs list slice storage (16 concurrent join queries)",
        columns=("setting", "store_kind", "service_tps", "results"),
        paper_expectation=(
            "Beyond about ten concurrent queries, storing tuples as a "
            "list is more efficient than query-set groups (§3.1.4)."
        ),
    )

    def run_all():
        return {
            "always grouped": _run(threshold=10_000, parallelism=16),
            "always list": _run(threshold=0, parallelism=16),
            "adaptive (10)": _run(threshold=10, parallelism=16),
        }

    metrics = benchmark.pedantic(run_all, rounds=1, iterations=1)
    outputs = {}
    for setting, run in metrics.items():
        join_op = run.engine.join_operators("join:A~B")[0]
        outputs[setting] = sum(run.report.per_query_results.values())
        result.add(
            setting=setting,
            store_kind=join_op.store_kind.value,
            service_tps=run.report.service_rate_tps,
            results=outputs[setting],
        )
    record_figure(result)
    # Correctness is layout-independent: identical output counts.
    assert len(set(outputs.values())) == 1
    # The adaptive engine is in list mode at 16 concurrent queries.
    adaptive = metrics["adaptive (10)"].engine.join_operators("join:A~B")[0]
    assert adaptive.store_kind is StoreKind.LIST


# -- ISSUE 10: keyed-state backend metrics -----------------------------------


def _state_run(backend: str):
    return run_scenario(
        RunnerConfig(
            input_rate_tps=1000.0,
            duration_s=6.0,
            engine_overrides={
                "state_backend": backend,
                "state_memtable_entries": STATE_MEMTABLE_ENTRIES,
            },
        ),
        scenario="sc1",
        queries_per_second=2.0,
        query_parallelism=8,
        kind="agg",
    )


def measure_spill_ratio(pairs: int = SPILL_PAIRS) -> dict:
    """Median lsm/memory service-rate ratio on a genuinely spilling run.

    Backends are interleaved pair-wise so host drift cancels; the lsm
    run must actually write segments (``spilled_bytes > 0``) or the
    ratio would flatter an in-memory-only configuration.
    """
    ratios = []
    memory_tps = lsm_tps = spilled = 0.0
    for _ in range(pairs):
        memory = _state_run("memory")
        lsm = _state_run("lsm")
        memory_tps = memory.report.service_rate_tps
        lsm_tps = lsm.report.service_rate_tps
        ratios.append(lsm_tps / memory_tps)
        spilled = lsm.engine.state_summary()["spilled_bytes"]
    return {
        "ratio": statistics.median(ratios),
        "memory_tps": memory_tps,
        "lsm_tps": lsm_tps,
        "spilled_bytes": spilled,
    }


def measure_cow_snapshot(keys: int = 20_000) -> dict:
    """Copy-on-write snapshot vs the deepcopy it replaced.

    Window accumulators are overwhelmingly immutable (tuples of
    scalars), which the COW snapshot shares by reference instead of
    pickling; only the mutable minority is deep-copied.
    """
    state = KeyedState()
    for i in range(keys):
        state.put(("user", i), (i, i * 2, float(i)))
    for i in range(0, keys, 20):
        state.put(("hot", i), [i, i + 1])
    reference = dict(state.items())
    started = time.perf_counter()
    snapshot = state.snapshot()
    cow_ms = (time.perf_counter() - started) * 1_000.0
    started = time.perf_counter()
    deep = copy.deepcopy(reference)
    deepcopy_ms = (time.perf_counter() - started) * 1_000.0
    assert snapshot == deep == reference
    return {
        "keys": len(reference),
        "cow_ms": cow_ms,
        "deepcopy_ms": deepcopy_ms,
        "speedup": deepcopy_ms / cow_ms,
    }


def run_capacity(keys: int, memtable_entries: int = 4_096) -> dict:
    """Spill ``keys`` distinct keys through a capped memtable and probe.

    The ISSUE 10 acceptance run is ``--keys 1000000``: far beyond RAM
    budgets the memtable cap implies, every key must stay readable and
    a full compaction must still complete.
    """
    directory = tempfile.mkdtemp(prefix="lsm-capacity-")
    store = LSMStateStore(directory, memtable_entries=memtable_entries)
    try:
        started = time.perf_counter()
        for i in range(keys):
            store.put(i, (i, i % 7))
        put_s = time.perf_counter() - started
        assert len(store) == keys
        started = time.perf_counter()
        step = max(1, keys // 1_000)
        for probe in range(0, keys, step):
            assert store.get(probe) == (probe, probe % 7)
        probe_s = time.perf_counter() - started
        stats = store.stats()
        assert stats["memtable_entries"] <= memtable_entries
        assert stats["spilled_bytes"] > 0
        return {
            "keys": keys,
            "puts_per_s": keys / put_s,
            "probe_gets_per_s": (keys // step) / probe_s,
            "segments": stats["segments"],
            "spilled_mb": stats["spilled_bytes"] / 1e6,
        }
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)


def bench_state_backend_spill(benchmark, record_figure):
    result = FigureResult(
        figure_id="Ablation state backend",
        title="Keyed state: in-memory vs spill-to-disk LSM (SC1 agg)",
        columns=("metric", "value"),
        paper_expectation=(
            "Out-of-core keyed state keeps the shared engine within "
            "30% of in-memory throughput while windows spill to disk."
        ),
    )
    spill = benchmark.pedantic(
        measure_spill_ratio, kwargs={"pairs": 1}, rounds=1, iterations=1
    )
    result.add(metric="lsm/memory service-rate ratio", value=round(spill["ratio"], 3))
    result.add(metric="lsm spilled bytes", value=int(spill["spilled_bytes"]))
    record_figure(result)
    assert spill["spilled_bytes"] > 0


def bench_cow_snapshot(benchmark, record_figure):
    result = FigureResult(
        figure_id="Ablation snapshot cow",
        title="Operator snapshots: copy-on-write vs deepcopy",
        columns=("keys", "cow_ms", "deepcopy_ms", "speedup"),
        paper_expectation=(
            "Sharing immutable accumulators makes checkpoint snapshots "
            "several times cheaper than wholesale deepcopy."
        ),
    )
    metrics = benchmark.pedantic(measure_cow_snapshot, rounds=1, iterations=1)
    result.add(
        keys=metrics["keys"],
        cow_ms=round(metrics["cow_ms"], 2),
        deepcopy_ms=round(metrics["deepcopy_ms"], 2),
        speedup=round(metrics["speedup"], 2),
    )
    record_figure(result)
    assert metrics["speedup"] > 1.5


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Out-of-core capacity run for the LSM state store."
    )
    parser.add_argument("--keys", type=int, default=1_000_000)
    parser.add_argument("--memtable-entries", type=int, default=4_096)
    cli = parser.parse_args()
    report = run_capacity(cli.keys, cli.memtable_entries)
    for name, value in report.items():
        print(f"{name}: {value:,.1f}" if isinstance(value, float) else f"{name}: {value}")
