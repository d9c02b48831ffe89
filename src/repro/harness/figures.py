"""One experiment per evaluation figure of the paper (Figures 9–20).

Every function returns a :class:`~repro.harness.report.FigureResult`
whose rows regenerate the paper's series.  ``quick=True`` (the default,
used by tests and the standard benchmark run) shrinks query counts and
input rates so a figure completes in seconds; ``quick=False`` runs the
paper-scale query counts (minutes, still a single Python process).

Scale disclaimer: absolute tuples/second are one Python process, nothing
like a 4-node JVM cluster; EXPERIMENTS.md compares *shapes* (who wins,
how curves bend), never absolute numbers.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from repro.harness.report import FigureResult
from repro.harness.runner import (
    RunnerConfig,
    run_scenario,
    sustainable_query_search,
)
from repro.workloads.querygen import QueryGenerator
from repro.workloads.scenarios import ScheduledRequest, WorkloadSchedule

NODE_COUNTS = (4, 8)
KINDS = ("join", "agg")


def _sc1_configs(quick: bool) -> List[Tuple[float, int]]:
    """(queries/second, query parallelism) — the paper's SC1 points."""
    if quick:
        return [(1.0, 10), (5.0, 30), (20.0, 100)]
    return [(1.0, 20), (10.0, 60), (100.0, 1000)]


def _sc2_configs(quick: bool) -> List[Tuple[int, int]]:
    """(queries per batch, batch interval seconds) — SC2 points."""
    if quick:
        return [(5, 5), (10, 5), (15, 5)]
    return [(10, 10), (30, 10), (50, 10)]


def _rate(quick: bool) -> float:
    # Full mode runs the paper's query counts; the input rate stays at
    # simulation scale (a pure-Python data path is ~100x a JVM cluster).
    return 400.0 if quick else 500.0


def _duration(quick: bool) -> float:
    return 12.0 if quick else 30.0


# ---------------------------------------------------------------------------
# Figure 9 — SC1 slowest & overall data throughput
# ---------------------------------------------------------------------------

def fig09_sc1_throughput(quick: bool = True) -> FigureResult:
    """Figure 9: slowest and overall data throughput for SC1."""
    result = FigureResult(
        figure_id="Figure 9",
        title="SC1 data throughput (slowest and overall)",
        columns=(
            "nodes", "kind", "config", "sut",
            "slowest_tps", "overall_tps", "sustained",
        ),
        paper_expectation=(
            "Flink slightly ahead of AStream for a single query; slowest "
            "throughput falls with query parallelism at a flattening "
            "slope; overall throughput rises sharply with parallelism; "
            "8 nodes ≈ √2 × 4 nodes; Flink cannot sustain ad-hoc "
            "multi-query workloads."
        ),
    )
    rate = _rate(quick)
    duration = _duration(quick)
    for nodes in NODE_COUNTS:
        for kind in KINDS:
            for sut in ("flink", "astream"):
                metrics = run_scenario(
                    RunnerConfig(
                        sut=sut, nodes=nodes,
                        input_rate_tps=rate, duration_s=duration,
                    ),
                    scenario="single",
                    kind=kind,
                )
                result.add(
                    nodes=nodes, kind=kind, config="single query", sut=sut,
                    slowest_tps=metrics.slowest_data_throughput_tps,
                    overall_tps=metrics.overall_data_throughput_tps,
                    sustained=metrics.sustained,
                )
            for qps, parallelism in _sc1_configs(quick):
                metrics = run_scenario(
                    RunnerConfig(
                        sut="astream", nodes=nodes,
                        input_rate_tps=rate, duration_s=duration,
                    ),
                    scenario="sc1",
                    queries_per_second=qps,
                    query_parallelism=parallelism,
                    kind=kind,
                )
                result.add(
                    nodes=nodes, kind=kind,
                    config=f"{qps:g}q/s {parallelism}qp", sut="astream",
                    slowest_tps=metrics.slowest_data_throughput_tps,
                    overall_tps=metrics.overall_data_throughput_tps,
                    sustained=metrics.sustained,
                )
    # The Flink-cannot-sustain data point: the mildest ad-hoc config.
    qps, parallelism = _sc1_configs(quick)[0]
    flink_adhoc = run_scenario(
        RunnerConfig(
            sut="flink", nodes=4, input_rate_tps=rate, duration_s=duration,
        ),
        scenario="sc1",
        queries_per_second=qps,
        query_parallelism=parallelism,
        kind="join",
    )
    result.add(
        nodes=4, kind="join", config=f"{qps:g}q/s {parallelism}qp",
        sut="flink",
        slowest_tps=flink_adhoc.slowest_data_throughput_tps,
        overall_tps=flink_adhoc.overall_data_throughput_tps,
        sustained=_flink_adhoc_sustained(flink_adhoc),
    )
    return result


def _flink_adhoc_sustained(metrics) -> bool:
    """Flink 'sustains' an ad-hoc workload only if every query deployed
    within bounded latency — unbounded deployment queueing is the
    paper's ever-increasing-latency failure."""
    if not metrics.sustained:
        return False
    latencies = metrics.report.deployment_latencies_ms
    if not latencies:
        return True
    # Queueing failure: latencies grow monotonically past 10 s.
    return max(latencies) < 10_000


# ---------------------------------------------------------------------------
# Figure 10 — deployment latency timeline, 1 q/s up to 20 queries
# ---------------------------------------------------------------------------

def fig10_deployment_timeline(quick: bool = True) -> FigureResult:
    """Figure 10: per-query deployment latency, Flink vs AStream."""
    parallelism = 10 if quick else 20
    result = FigureResult(
        figure_id="Figure 10",
        title=f"Deployment latency timeline, 1 q/s up to {parallelism} queries",
        columns=("sut", "query_index", "requested_at_s", "latency_s"),
        paper_expectation=(
            "Flink latency climbs roughly linearly (to ~80 s at 20 "
            "queries; 910 s summed); AStream pays ~7 s for the first "
            "deployment then stays within the 1 s changelog timeout."
        ),
    )
    for sut in ("flink", "astream"):
        metrics = run_scenario(
            RunnerConfig(
                sut=sut, nodes=4, input_rate_tps=100.0,
                duration_s=parallelism + 5.0,
            ),
            scenario="sc1",
            queries_per_second=1.0,
            query_parallelism=parallelism,
            kind="join",
        )
        for index, (requested_at, latency) in enumerate(
            metrics.deployment_timeline(), start=1
        ):
            result.add(
                sut=sut, query_index=index,
                requested_at_s=requested_at / 1000.0,
                latency_s=latency / 1000.0,
            )
    return result


# ---------------------------------------------------------------------------
# Figure 11 — SC1 deployment latency bars
# ---------------------------------------------------------------------------

def fig11_sc1_deployment(quick: bool = True) -> FigureResult:
    """Figure 11: mean ad-hoc query deployment latency for SC1."""
    result = FigureResult(
        figure_id="Figure 11",
        title="SC1 query deployment latency",
        columns=("nodes", "kind", "config", "sut", "mean_deploy_s", "max_deploy_s"),
        paper_expectation=(
            "Flink single-query deployment ≈ 5 s; AStream single query "
            "pays the one-off topology deployment; higher query rates "
            "amortise changelog generation, so 100 q/s → 1000 qp has "
            "*lower* per-query latency than 1 q/s → 20 qp."
        ),
    )
    rate = 100.0
    for nodes in NODE_COUNTS:
        for kind in KINDS:
            for sut in ("astream", "flink"):
                metrics = run_scenario(
                    RunnerConfig(
                        sut=sut, nodes=nodes, input_rate_tps=rate,
                        duration_s=8.0,
                    ),
                    scenario="single",
                    kind=kind,
                )
                result.add(
                    nodes=nodes, kind=kind, config="single query", sut=sut,
                    mean_deploy_s=metrics.mean_deployment_latency_ms / 1000.0,
                    max_deploy_s=metrics.max_deployment_latency_ms / 1000.0,
                )
            for qps, parallelism in _sc1_configs(quick):
                duration = parallelism / qps + 6.0
                metrics = run_scenario(
                    RunnerConfig(
                        sut="astream", nodes=nodes, input_rate_tps=rate,
                        duration_s=duration,
                    ),
                    scenario="sc1",
                    queries_per_second=qps,
                    query_parallelism=parallelism,
                    kind=kind,
                )
                result.add(
                    nodes=nodes, kind=kind,
                    config=f"{qps:g}q/s {parallelism}qp", sut="astream",
                    mean_deploy_s=metrics.mean_deployment_latency_ms / 1000.0,
                    max_deploy_s=metrics.max_deployment_latency_ms / 1000.0,
                )
    return result


# ---------------------------------------------------------------------------
# Figure 12 — SC1 average event-time latency
# ---------------------------------------------------------------------------

def fig12_sc1_latency(quick: bool = True) -> FigureResult:
    """Figure 12: average event-time latency for SC1."""
    result = FigureResult(
        figure_id="Figure 12",
        title="SC1 average event-time latency",
        columns=("nodes", "kind", "config", "sut", "latency_ms"),
        paper_expectation=(
            "Join latency exceeds aggregation latency; latency grows "
            "with query parallelism but stays sustainable; Flink ad-hoc "
            "latency exceeds 8 s and keeps growing (not sustainable)."
        ),
    )
    rate = _rate(quick)
    for nodes in NODE_COUNTS:
        for kind in KINDS:
            for sut in ("astream", "flink"):
                metrics = run_scenario(
                    RunnerConfig(
                        sut=sut, nodes=nodes, input_rate_tps=rate,
                        duration_s=_duration(quick),
                    ),
                    scenario="single",
                    kind=kind,
                )
                result.add(
                    nodes=nodes, kind=kind, config="single query", sut=sut,
                    latency_ms=metrics.mean_event_time_latency_ms,
                )
            for qps, parallelism in _sc1_configs(quick):
                metrics = run_scenario(
                    RunnerConfig(
                        sut="astream", nodes=nodes, input_rate_tps=rate,
                        duration_s=_duration(quick),
                    ),
                    scenario="sc1",
                    queries_per_second=qps,
                    query_parallelism=parallelism,
                    kind=kind,
                )
                result.add(
                    nodes=nodes, kind=kind,
                    config=f"{qps:g}q/s {parallelism}qp", sut="astream",
                    latency_ms=metrics.mean_event_time_latency_ms,
                )
    return result


# ---------------------------------------------------------------------------
# Figures 13/14/15 — SC2 latency, throughput, deployment latency
# ---------------------------------------------------------------------------

def _sc2_metrics(quick: bool, nodes: int, kind: str, per_batch: int, interval: int):
    batches = 3 if quick else 6
    return run_scenario(
        RunnerConfig(
            sut="astream", nodes=nodes, input_rate_tps=_rate(quick),
            duration_s=batches * interval + 4.0,
        ),
        scenario="sc2",
        queries_per_batch=per_batch,
        batch_interval_s=interval,
        batches=batches,
        kind=kind,
    )


def fig13_sc2_latency(quick: bool = True) -> FigureResult:
    """Figure 13: average event-time latency for SC2."""
    result = FigureResult(
        figure_id="Figure 13",
        title="SC2 average event-time latency",
        columns=("nodes", "kind", "config", "latency_ms"),
        paper_expectation=(
            "SC2 latency is lower than SC1's: the workload churns but "
            "does not accumulate queries, so most queries are "
            "short-running (all under ~1 s in the paper)."
        ),
    )
    for nodes in NODE_COUNTS:
        for kind in KINDS:
            for per_batch, interval in _sc2_configs(quick):
                metrics = _sc2_metrics(quick, nodes, kind, per_batch, interval)
                result.add(
                    nodes=nodes, kind=kind,
                    config=f"{per_batch}q/{interval}s",
                    latency_ms=metrics.mean_event_time_latency_ms,
                )
    return result


def fig14_sc2_throughput(quick: bool = True) -> FigureResult:
    """Figure 14: slowest and overall data throughput for SC2."""
    result = FigureResult(
        figure_id="Figure 14",
        title="SC2 data throughput (slowest and overall)",
        columns=("nodes", "kind", "config", "slowest_tps", "overall_tps"),
        paper_expectation=(
            "SC2's slowest throughput exceeds SC1's at comparable query "
            "counts: fewer simultaneously active queries and smaller "
            "bitsets; AStream sustained ≥10× Flink's rate before the "
            "Flink runs were stopped."
        ),
    )
    for nodes in NODE_COUNTS:
        for kind in KINDS:
            for per_batch, interval in _sc2_configs(quick):
                metrics = _sc2_metrics(quick, nodes, kind, per_batch, interval)
                result.add(
                    nodes=nodes, kind=kind,
                    config=f"{per_batch}q/{interval}s",
                    slowest_tps=metrics.slowest_data_throughput_tps,
                    overall_tps=metrics.overall_data_throughput_tps,
                )
    return result


def fig15_sc2_deployment(quick: bool = True) -> FigureResult:
    """Figure 15: ad-hoc query deployment latency for SC2."""
    result = FigureResult(
        figure_id="Figure 15",
        title="SC2 query deployment latency",
        columns=("nodes", "kind", "config", "mean_deploy_s", "max_deploy_s"),
        paper_expectation=(
            "SC2 deployment latency exceeds SC1's: continuous creation "
            "and deletion generates changelogs throughout the run."
        ),
    )
    for nodes in NODE_COUNTS:
        for kind in KINDS:
            for per_batch, interval in _sc2_configs(quick):
                metrics = _sc2_metrics(quick, nodes, kind, per_batch, interval)
                result.add(
                    nodes=nodes, kind=kind,
                    config=f"{per_batch}q/{interval}s",
                    mean_deploy_s=metrics.mean_deployment_latency_ms / 1000.0,
                    max_deploy_s=metrics.max_deployment_latency_ms / 1000.0,
                )
    return result


# ---------------------------------------------------------------------------
# Figure 16 — complex query timeline
# ---------------------------------------------------------------------------

def fig16_complex_timeline(quick: bool = True) -> FigureResult:
    """Figure 16: throughput / latency / query count under complex queries.

    Three phases as in §4.7: sharp query-count increases, a gradual
    drain-and-refill, then fluctuation.  Complex queries pipeline a
    selection, an n-ary windowed join, and a windowed aggregation.
    """
    streams = ("A", "B", "C") if quick else ("A", "B", "C", "D", "E")
    arity = len(streams) - 1
    phase_s = 8 if quick else 60
    generator = QueryGenerator(
        streams=streams, seed=11, window_max_seconds=3, max_join_arity=arity
    )
    requests: List[ScheduledRequest] = []
    active: List = []

    def create(count: int, at_s: float) -> None:
        for _ in range(count):
            query = generator.complex_query()
            active.append(query)
            requests.append(
                ScheduledRequest(at_ms=int(at_s * 1000), kind="create", query=query)
            )

    def delete(count: int, at_s: float) -> None:
        for _ in range(min(count, len(active))):
            query = active.pop(0)
            requests.append(
                ScheduledRequest(
                    at_ms=int(at_s * 1000), kind="delete", query_id=query.query_id
                )
            )

    # Phase 1: two sharp increases.
    create(5, 1.0)
    create(10, phase_s * 0.5)
    # Phase 2: gradual drain then gradual refill.
    for index in range(6):
        delete(2, phase_s * (1.0 + index * 0.1))
    for index in range(6):
        create(2, phase_s * (1.8 + index * 0.1))
    # Phase 3: fluctuation.
    for index in range(4):
        create(3, phase_s * (2.6 + index * 0.2))
        delete(3, phase_s * (2.7 + index * 0.2))
    schedule = WorkloadSchedule(name="complex timeline", requests=requests)

    config = RunnerConfig(
        sut="astream",
        nodes=4,
        streams=streams,
        max_join_arity=arity,
        input_rate_tps=150.0 if quick else 400.0,
        duration_s=phase_s * 3.5,
    )
    metrics = run_scenario(config, schedule=schedule, kind="complex")
    result = FigureResult(
        figure_id="Figure 16",
        title="Complex ad-hoc queries: throughput, latency, query count",
        columns=("time_s", "throughput_tps", "latency_ms", "query_count"),
        paper_expectation=(
            "Sharp query-count increases leave event-time latency "
            "roughly stable (no plan change); slowest throughput drops "
            "with query throughput; fluctuations keep both stable."
        ),
    )
    rate_series = dict(metrics.report.step_rate_series)
    queries_series = metrics.report.active_queries_series
    # Bucket the timestamped latency samples to the same 2 s grid.
    latency_buckets: Dict[int, List[float]] = {}
    for now_ms, lag_ms in metrics.qos.latency_series:
        latency_buckets.setdefault(now_ms - now_ms % 2_000, []).append(lag_ms)
    for time_ms, count in queries_series:
        if time_ms % 2_000:
            continue
        bucket = latency_buckets.get(time_ms - 2_000, [])
        result.add(
            time_s=time_ms / 1000.0,
            throughput_tps=rate_series.get(time_ms, 0.0),
            latency_ms=sum(bucket) / len(bucket) if bucket else 0.0,
            query_count=count,
        )
    result.notes = (
        f"mean event-time latency {metrics.engine_latency_ms:.0f} ms; "
        f"sustained={metrics.sustained}"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 17 — slowest throughput vs query parallelism (log-log)
# ---------------------------------------------------------------------------

def fig17_parallelism_sweep(quick: bool = True) -> FigureResult:
    """Figure 17: slowest data throughput across query parallelism."""
    parallelisms = (1, 4, 16, 64) if quick else (1, 10, 100, 1000)
    result = FigureResult(
        figure_id="Figure 17",
        title="Slowest data throughput vs query parallelism (SC1)",
        columns=("nodes", "kind", "query_parallelism", "slowest_tps"),
        paper_expectation=(
            "Log-log decline whose slope flattens with more queries: "
            "the probability of sharing a tuple rises with the query "
            "count, so each additional query costs less."
        ),
    )
    for nodes in NODE_COUNTS:
        for kind in KINDS:
            for parallelism in parallelisms:
                metrics = run_scenario(
                    RunnerConfig(
                        sut="astream", nodes=nodes,
                        input_rate_tps=200.0, duration_s=10.0,
                    ),
                    scenario="sc1",
                    queries_per_second=max(parallelism / 4.0, 1.0),
                    query_parallelism=parallelism,
                    kind=kind,
                )
                result.add(
                    nodes=nodes, kind=kind, query_parallelism=parallelism,
                    slowest_tps=metrics.slowest_data_throughput_tps,
                )
    return result


def fig17_measured_scaling(
    quick: bool = True, worker_counts: Tuple[int, ...] = (1, 2, 4)
) -> FigureResult:
    """Figure 17 companion: *measured* scaling on the process backend.

    Runs the same SC1 workload at each worker count on
    ``backend="process"`` and reports two scaling views per run:

    * ``speedup_vs_1`` — wall-clock service throughput relative to one
      worker.  This is real parallel speed-up, but it only materialises
      when the machine has at least ``workers`` cores;
    * ``cpu_scaling_vs_1`` — how the per-worker CPU time per record
      divides as shards are added.  Sharding is effective exactly when
      each worker burns ~1/N of the single-worker CPU, and that holds
      regardless of how many cores the host can run concurrently — on a
      single-core container it is the only honest scaling signal.

    The workload is query-heavy (shard CPU dominates the coordinator's
    partition+pickle cost) and ships no delivery samples, the regime the
    backend is built for.
    """
    import os

    parallelism = 48 if quick else 160
    result = FigureResult(
        figure_id="Figure 17 (measured)",
        title="Measured process-backend scaling (SC1 aggregation)",
        columns=(
            "workers", "kind", "service_tps", "speedup_vs_1",
            "worker_cpu_s", "cpu_scaling_vs_1", "cores",
        ),
        paper_expectation=(
            "Per-worker CPU per record divides ~linearly with the "
            "worker count; wall-clock service throughput follows when "
            "the host has as many cores as workers."
        ),
    )
    cores = os.cpu_count() or 1
    base_tps = None
    base_cpu = None
    for workers in worker_counts:
        before = os.times()
        metrics = run_scenario(
            RunnerConfig(
                sut="astream",
                backend="process",
                workers=workers,
                deliver_sample_every=0,
                retain_results=False,
                input_rate_tps=250.0 if quick else 400.0,
                duration_s=8.0 if quick else 10.0,
                batch_size=64,
            ),
            scenario="sc1",
            queries_per_second=float(parallelism),
            query_parallelism=parallelism,
            kind="agg",
        )
        after = os.times()
        # run_scenario shut the pool down, so the workers are reaped and
        # their CPU time has been folded into the parent's children
        # counters.
        children_cpu = (
            (after.children_user - before.children_user)
            + (after.children_system - before.children_system)
        )
        worker_cpu = children_cpu / workers
        service_tps = metrics.report.service_rate_tps
        if base_tps is None:
            base_tps, base_cpu = service_tps, worker_cpu
        result.add(
            workers=workers,
            kind="agg",
            service_tps=service_tps,
            speedup_vs_1=service_tps / base_tps if base_tps else 0.0,
            worker_cpu_s=worker_cpu,
            cpu_scaling_vs_1=base_cpu / worker_cpu if worker_cpu else 0.0,
            cores=cores,
        )
    return result


# ---------------------------------------------------------------------------
# Figure 18 — overhead proportions of AStream components
# ---------------------------------------------------------------------------

def fig18_overhead(quick: bool = True) -> FigureResult:
    """Figure 18: component overhead share and total sharing overhead."""
    parallelisms = (1, 2, 8, 32) if quick else (1, 10, 100, 400, 1000)
    result = FigureResult(
        figure_id="Figure 18",
        title="AStream overhead: component proportions and total",
        columns=(
            "query_parallelism",
            "queryset_gen_pct", "bitset_ops_pct", "router_copy_pct",
            "total_overhead_pct",
        ),
        paper_expectation=(
            "With few queries the three components weigh about equally; "
            "with many, router data copy dominates.  Total sharing "
            "overhead ≈ 9 % for a single query, under 2 % beyond a few "
            "hundred queries."
        ),
    )
    for parallelism in parallelisms:
        scenario_kwargs = dict(
            scenario="sc1",
            queries_per_second=max(parallelism / 4.0, 1.0),
            query_parallelism=parallelism,
            kind="join",
        )
        # Figure 18a's split comes from the observe tracer's exclusive
        # per-vertex span times.  Every push is traced so no watermark
        # (where windows fire and results are copied) is skipped by the
        # sampling cadence.
        traced = run_scenario(
            RunnerConfig(
                sut="astream", nodes=4, input_rate_tps=300.0,
                duration_s=10.0, observe=True, obs_sample_every=1,
            ),
            **scenario_kwargs,
        )
        stage_ns = _stage_ns_by_kind(traced.engine.obs.tracer.stage_totals)
        stats = traced.engine.component_stats()
        # Overhead components per Figure 18a: query-set generation
        # (selection tagging), bitset operations (shared-op filtering),
        # and the router's per-query data copy.
        queryset_ns = stage_ns["select"]
        bitset_ns = (stage_ns["join"] + stage_ns["agg"]) * _bitset_share(stats)
        router_ns = stage_ns["router"]
        overhead_ns = queryset_ns + bitset_ns + router_ns
        if overhead_ns <= 0:
            continue
        # Figure 18b's definition: the cost of ad-hoc sharing support,
        # measured as AStream's throughput deficit against the same
        # queries running unshared with free deployment.  Sharing wins
        # outright past a handful of queries, so the overhead bottoms
        # out at zero.  Both rates come from untraced runs, so tracing
        # overhead never counts as sharing overhead.  A run takes about
        # a tenth of a wall second, so each rate is the median of three
        # runs, alternating the two systems, to damp scheduler noise.
        rates: Dict[str, List[float]] = {"astream": [], "flink-free": []}
        for _ in range(3):
            for sut, samples in rates.items():
                samples.append(run_scenario(
                    RunnerConfig(
                        sut=sut, nodes=4, input_rate_tps=300.0,
                        duration_s=10.0,
                    ),
                    **scenario_kwargs,
                ).report.service_rate_tps)
        astream_rate, unshared_rate = (
            sorted(samples)[1] for samples in rates.values()
        )
        total_overhead_pct = 0.0
        if unshared_rate > 0:
            total_overhead_pct = max(
                0.0, 100.0 * (1.0 - astream_rate / unshared_rate)
            )
        result.add(
            query_parallelism=parallelism,
            queryset_gen_pct=100.0 * queryset_ns / overhead_ns,
            bitset_ops_pct=100.0 * bitset_ns / overhead_ns,
            router_copy_pct=100.0 * router_ns / overhead_ns,
            total_overhead_pct=total_overhead_pct,
        )
    return result


def _stage_ns_by_kind(stage_totals: Dict[str, List[int]]) -> Counter:
    """Exclusive traced nanoseconds per operator kind (the vertex name's
    prefix: ``select``, ``join``, ``agg``, ``router``), summed over
    vertices."""
    by_kind: Counter = Counter()
    for stage, (_, total_ns) in stage_totals.items():
        by_kind[stage.partition(":")[0]] += total_ns
    return by_kind


def _bitset_share(stats: Dict[str, float]) -> float:
    """Fraction of shared-operator time attributable to bitset filtering.

    Shared-operator span time covers slice management, the actual
    join/fold work, and bitset filtering; the bitset share is estimated
    from the operation counters (a bitset AND is cheap relative to a
    join probe, weighted 1:4)."""
    bitset_ops = stats["bitset_ops"]
    probes = max(stats["results_emitted"], 1.0)
    return min(1.0, bitset_ops / (bitset_ops + 4.0 * probes))


# ---------------------------------------------------------------------------
# Figure 19 — impact of ad-hoc queries on long-running queries
# ---------------------------------------------------------------------------

def fig19_adhoc_impact(quick: bool = True) -> FigureResult:
    """Figure 19: slowest throughput of standing queries as ad-hoc join
    queries come and go (4-node cluster)."""
    standing_counts = (5, 15, 30) if quick else (10, 50, 100)
    adhoc_counts = (0, 5, 10) if quick else (0, 10, 20, 50)
    result = FigureResult(
        figure_id="Figure 19",
        title="Effect of ad-hoc join queries on standing queries",
        columns=("scenario", "standing", "adhoc", "slowest_tps"),
        paper_expectation=(
            "Adding ad-hoc queries barely affects large standing "
            "populations; small populations in SC1 suffer more than in "
            "SC2 (SC2's churn keeps bitsets and the active set small)."
        ),
    )
    for scenario_name in ("SC1", "SC2"):
        for standing in standing_counts:
            for adhoc in adhoc_counts:
                metrics = _fig19_run(scenario_name, standing, adhoc, quick)
                result.add(
                    scenario=scenario_name, standing=standing, adhoc=adhoc,
                    slowest_tps=metrics.slowest_data_throughput_tps,
                )
    return result


def _fig19_run(scenario_name: str, standing: int, adhoc: int, quick: bool):
    """Best-of-two runs: single quick runs carry ±20 % wall-clock noise,
    which would swamp the few-percent effects this figure measures."""
    first = _fig19_run_once(scenario_name, standing, adhoc, quick)
    second = _fig19_run_once(scenario_name, standing, adhoc, quick)
    return max(
        (first, second), key=lambda m: m.slowest_data_throughput_tps
    )


def _fig19_run_once(scenario_name: str, standing: int, adhoc: int, quick: bool):
    generator = QueryGenerator(streams=("A", "B"), seed=5, window_max_seconds=3)
    duration = 12.0
    requests: List[ScheduledRequest] = []
    # Standing long-running join queries, all up at t=0.
    standing_queries = [generator.join_query() for _ in range(standing)]
    for query in standing_queries:
        requests.append(ScheduledRequest(at_ms=0, kind="create", query=query))
    if scenario_name == "SC2":
        # Churn half the standing population mid-run.
        for index, query in enumerate(standing_queries[: standing // 2]):
            requests.append(
                ScheduledRequest(
                    at_ms=6_000 + index, kind="delete", query_id=query.query_id
                )
            )
            replacement = generator.join_query()
            requests.append(
                ScheduledRequest(
                    at_ms=6_000 + index, kind="create", query=replacement
                )
            )
    # Ad-hoc burst in the middle of the run, deleted before the end.
    for index in range(adhoc):
        query = generator.join_query()
        requests.append(
            ScheduledRequest(at_ms=4_000 + index, kind="create", query=query)
        )
        requests.append(
            ScheduledRequest(
                at_ms=9_000 + index, kind="delete", query_id=query.query_id
            )
        )
    schedule = WorkloadSchedule(
        name=f"fig19 {scenario_name} {standing}+{adhoc}", requests=requests
    )
    return run_scenario(
        RunnerConfig(
            sut="astream", nodes=4,
            input_rate_tps=200.0 if quick else 500.0, duration_s=duration,
        ),
        schedule=schedule,
    )


# ---------------------------------------------------------------------------
# Figure 20 — scalability with node count
# ---------------------------------------------------------------------------

def fig20_scalability(quick: bool = True) -> FigureResult:
    """Figure 20: sustainable ad-hoc query count vs cluster size."""
    node_counts = (2, 4, 8) if quick else (2, 4, 8, 16)
    result = FigureResult(
        figure_id="Figure 20",
        title="Sustainable ad-hoc queries vs node count",
        columns=("nodes", "scenario", "sustainable_queries"),
        paper_expectation=(
            "Sustainable query count grows with node count; SC2 scales "
            "better than SC1 (periodic deletion keeps active sets and "
            "bitsets small)."
        ),
    )
    high = 128 if quick else 1024
    for nodes in node_counts:
        for scenario_name in ("sc1", "sc2"):
            config = RunnerConfig(
                sut="astream", nodes=nodes,
                input_rate_tps=150.0, duration_s=6.0,
            )
            count = sustainable_query_search(
                config,
                scenario=scenario_name,
                kind="join",
                high=high,
                min_throughput_tps=25_000.0,
            )
            result.add(
                nodes=nodes, scenario=scenario_name.upper(),
                sustainable_queries=count,
            )
    return result


ALL_FIGURES = {
    "fig09": fig09_sc1_throughput,
    "fig10": fig10_deployment_timeline,
    "fig11": fig11_sc1_deployment,
    "fig12": fig12_sc1_latency,
    "fig13": fig13_sc2_latency,
    "fig14": fig14_sc2_throughput,
    "fig15": fig15_sc2_deployment,
    "fig16": fig16_complex_timeline,
    "fig17": fig17_parallelism_sweep,
    "fig17_measured": fig17_measured_scaling,
    "fig18": fig18_overhead,
    "fig19": fig19_adhoc_impact,
    "fig20": fig20_scalability,
}
