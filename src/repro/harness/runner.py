"""Experiment runner: build SUTs, run scenarios, search sustainability.

Every figure experiment funnels through :func:`run_scenario`, which
wires a generator, a schedule, an engine (one of three SUT kinds), the
QoS monitor, and the driver together:

* ``"astream"`` — the shared engine with the full deployment model;
* ``"flink"`` — the query-at-a-time baseline with its real (queued,
  multi-second) deployment model — this is the paper's Flink;
* ``"flink-free"`` — the baseline with deployment costs zeroed out.
  The paper cannot measure multi-query Flink data throughput because
  Flink fails outright; this SUT isolates the *data-path* sharing
  benefit for the overhead analyses (Figures 17–19) by letting every
  baseline query start instantly.

Engines run with operator ``parallelism=1`` in-process; multi-node
throughput is derived through the calibrated cluster speed-up
(√(nodes/4), matching the paper's own 4→8-node ratios).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.baseline import (
    BaselineDeploymentModel, QueryAtATimeEngine, UnsustainableWorkload,
)
from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.parallel_engine import ProcessAStreamEngine
from repro.core.qos import QoSMonitor
from repro.minispe.cluster import (
    ClusterCapacityError, ClusterSpec, SimulatedCluster,
)
from repro.minispe.parallel import ShardWorkerError
from repro.harness.metrics import ScenarioMetrics
from repro.workloads.driver import (
    AStreamAdapter,
    BaselineAdapter,
    Driver,
    DriverConfig,
)
from repro.workloads.querygen import QueryGenerator
from repro.workloads.scenarios import WorkloadSchedule, sc1_schedule, sc2_schedule

logger = logging.getLogger("repro.harness.runner")


@dataclass
class RunnerConfig:
    """One scenario run's full parameterisation."""

    sut: str = "astream"  # astream | flink | flink-free
    backend: str = "inline"
    """Execution backend for the astream SUT: ``inline`` runs operators
    in-process; ``process`` shards them across worker processes (real
    parallelism instead of the modelled cluster speed-up)."""
    workers: int = 2
    """Worker-process count for ``backend="process"``."""
    deliver_sample_every: int = 1
    """Process backend only: ship every Nth delivery sample over IPC for
    QoS latency (0 disables delivery shipping entirely — throughput
    figures that never read latency avoid the per-result IPC cost)."""
    nodes: int = 4
    streams: Tuple[str, ...] = ("A", "B")
    max_join_arity: int = 1
    input_rate_tps: float = 1_000.0
    duration_s: float = 12.0
    step_ms: int = 250
    watermark_interval_ms: int = 500
    latency_sample_every: int = 64
    seed: int = 1
    window_max_seconds: int = 3
    retain_results: bool = False
    """Figures only need counts; retaining payloads wastes memory."""
    batch_size: int = 1
    """Data-path micro-batch size (see ``DriverConfig.batch_size``)."""
    observe: bool = False
    """Enable the runtime telemetry layer (``repro.obs``): metrics
    registry, sampled span tracing, structured event log.  Off by
    default — the data path then pays a single ``is None`` check."""
    obs_sample_every: int = 32
    """Trace one source push in N when ``observe`` is on."""
    engine_overrides: dict = field(default_factory=dict)

    def cluster(self) -> SimulatedCluster:
        """A fresh simulated cluster for this run."""
        return SimulatedCluster(ClusterSpec(nodes=self.nodes))

    def generator(self) -> QueryGenerator:
        """A fresh deterministic query generator for this run."""
        return QueryGenerator(
            streams=self.streams,
            seed=self.seed,
            window_max_seconds=self.window_max_seconds,
        )

    def driver_config(self) -> DriverConfig:
        """The matching driver configuration."""
        return DriverConfig(
            input_rate_tps=self.input_rate_tps,
            duration_s=self.duration_s,
            step_ms=self.step_ms,
            watermark_interval_ms=self.watermark_interval_ms,
            latency_sample_every=self.latency_sample_every,
            batch_size=self.batch_size,
        )


def build_sut(config: RunnerConfig, qos: QoSMonitor):
    """Construct the engine + adapter pair for a runner config."""
    cluster = config.cluster()
    if config.sut == "astream":
        engine_config = EngineConfig(
            streams=config.streams,
            max_join_arity=config.max_join_arity,
            parallelism=1,
            retain_results=config.retain_results,
            observe=config.observe,
            obs_sample_every=config.obs_sample_every,
            **config.engine_overrides,
        )
        if config.backend == "process":
            # Real worker processes: slot accounting stays on the
            # simulated cluster; run_scenario skips the modelled
            # scale-out for this backend.
            engine = ProcessAStreamEngine(
                engine_config,
                cluster=cluster,
                on_deliver=(
                    qos.on_deliver if config.deliver_sample_every else None
                ),
                workers=config.workers,
                deliver_sample_every=config.deliver_sample_every,
            )
            return engine, AStreamAdapter(engine)
        if config.backend != "inline":
            raise ValueError(f"unknown backend {config.backend!r}")
        engine = AStreamEngine(
            engine_config,
            cluster=cluster,
            on_deliver=qos.on_deliver,
        )
        return engine, AStreamAdapter(engine)
    if config.sut == "flink":
        engine = QueryAtATimeEngine(
            cluster=cluster,
            parallelism=1,
            on_deliver=qos.on_deliver,
            retain_results=config.retain_results,
        )
        return engine, BaselineAdapter(engine)
    if config.sut == "flink-free":
        # Generous cluster + zero deployment cost: pure data-path baseline.
        engine = QueryAtATimeEngine(
            cluster=SimulatedCluster(ClusterSpec(nodes=max(config.nodes, 64))),
            deployment=BaselineDeploymentModel(
                cold_start_ms=0,
                job_submit_ms=0,
                job_stop_ms=0,
                per_instance_ms=0,
            ),
            parallelism=1,
            on_deliver=qos.on_deliver,
            retain_results=config.retain_results,
        )
        return engine, BaselineAdapter(engine)
    raise ValueError(f"unknown SUT kind {config.sut!r}")


def run_scenario(
    config: RunnerConfig,
    schedule: Optional[WorkloadSchedule] = None,
    scenario: str = "sc1",
    queries_per_second: float = 1.0,
    query_parallelism: int = 10,
    queries_per_batch: int = 10,
    batch_interval_s: int = 10,
    batches: int = 3,
    kind: str = "join",
) -> ScenarioMetrics:
    """Run one scenario and return its §4.3 metrics.

    Pass an explicit ``schedule`` or let the runner build SC1/SC2/single
    from the keyword parameters.
    """
    generator = config.generator()
    if schedule is None:
        if scenario == "sc1":
            schedule = sc1_schedule(
                generator, queries_per_second, query_parallelism, kind
            )
        elif scenario == "sc2":
            schedule = sc2_schedule(
                generator, queries_per_batch, batch_interval_s, batches, kind
            )
        elif scenario == "single":
            schedule = sc1_schedule(generator, 1.0, 1, kind)
        else:
            raise ValueError(f"unknown scenario {scenario!r}")
    qos = QoSMonitor(sample_every=config.latency_sample_every)
    engine, adapter = build_sut(config, qos)
    driver = Driver(
        adapter,
        schedule,
        config.streams,
        config.driver_config(),
        qos=qos,
    )
    report = driver.run()
    # The modelled cluster speed-up only applies to the inline backend:
    # process runs measure real parallel wall time, so scaling them by
    # the model would double-count.
    speedup = 1.0 if config.backend == "process" else (config.nodes / 4) ** 0.5
    metrics = ScenarioMetrics(report=report, speedup=speedup)
    metrics.engine = engine  # expose for component-level figures
    metrics.qos = qos        # expose for latency-timeline figures
    if config.observe and getattr(engine, "obs", None) is not None:
        # Snapshot before any shutdown so the merged cross-shard view
        # (and the event log) survive the worker pool.
        metrics.obs_snapshot = engine.obs_snapshot()
        metrics.obs_events = engine.obs.events.to_jsonl()
        # Per-query CPU cost attribution (shared covering work split
        # across members) feeds the inspector's cost panel.
        try:
            metrics.obs_snapshot["cost"] = engine.cost_attribution()
        except ShardWorkerError:
            logger.warning("cost attribution unavailable", exc_info=True)
    if config.backend == "process":
        # Stop the worker pool now; merged results and cached component
        # stats stay readable on the engine, and sweeps don't pile up
        # live processes.
        engine.shutdown()
    return metrics


def sustainable_query_search(
    config: RunnerConfig,
    scenario: str = "sc1",
    kind: str = "join",
    low: int = 1,
    high: int = 256,
    min_throughput_tps: float = 200.0,
) -> int:
    """Largest query count the SUT sustains at the configured input rate.

    Binary search over query parallelism (SC1) or batch size (SC2): a
    count *sustains* when the run finishes without failure and the
    scaled service rate still covers the input rate (Figure 20's
    methodology: constant data throughput, grow the ad-hoc query count
    until the SUT falls over).
    """

    def sustains(count: int) -> bool:
        try:
            if scenario == "sc1":
                # Fast ramp: the full population is active almost the
                # whole run, so the measurement reflects `count`
                # simultaneously active long-running queries.
                metrics = run_scenario(
                    config,
                    scenario="sc1",
                    queries_per_second=float(count),
                    query_parallelism=count,
                    kind=kind,
                )
            else:
                metrics = run_scenario(
                    config,
                    scenario="sc2",
                    queries_per_batch=count,
                    batch_interval_s=3,
                    batches=max(2, int(config.duration_s) // 3),
                    kind=kind,
                )
        except (UnsustainableWorkload, ClusterCapacityError):
            return False
        if not metrics.sustained:
            return False
        return metrics.slowest_data_throughput_tps >= min_throughput_tps

    if not sustains(low):
        return 0
    while low < high:
        middle = (low + high + 1) // 2
        if sustains(middle):
            low = middle
        else:
            high = middle - 1
    return low


def _results_dir() -> "Path":
    """Directory for runner artefacts, next to the benchmark results."""
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[3]
    results = repo_root / "benchmarks" / "results"
    if not results.parent.is_dir():  # installed outside the repo tree
        results = Path.cwd()
    results.mkdir(parents=True, exist_ok=True)
    return results


def main(argv: Optional[list] = None) -> int:
    """Command-line scenario runner.

    Runs one SC1/SC2 scenario against a chosen SUT and backend and
    prints the §4.3 metrics; ``--profile`` additionally captures a
    cProfile of this process (on the process backend: the coordinator
    only) plus the engine's per-component counters and writes both next
    to the benchmark results (``benchmarks/results/profile_*.txt``).

    Example::

        python -m repro.harness.runner --backend process --workers 4
    """
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--sut", default="astream",
                        choices=("astream", "flink", "flink-free"))
    parser.add_argument("--backend", default="inline",
                        choices=("inline", "process"),
                        help="astream execution backend")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for --backend process")
    parser.add_argument("--scenario", default="sc1",
                        choices=("sc1", "sc2", "single"))
    parser.add_argument("--kind", default="agg", choices=("join", "agg"))
    parser.add_argument("--rate", type=float, default=400.0,
                        help="input rate (tuples/second per stream)")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="run duration in virtual seconds")
    parser.add_argument("--queries-per-second", type=float, default=4.0)
    parser.add_argument("--query-parallelism", type=int, default=16)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--batch-size", type=int, default=1,
                        help="data-path micro-batch size")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile this process (the coordinator on "
                             "the process backend) and dump it with the "
                             "component counters next to benchmark results")
    parser.add_argument("--observe", action="store_true",
                        help="enable the runtime telemetry layer and "
                             "print the pipeline-inspector dashboard")
    parser.add_argument("--obs-out", default=None, metavar="DIR",
                        help="directory for telemetry artifacts (metrics "
                             "json/prom + events jsonl); defaults to "
                             "benchmarks/results")
    parser.add_argument("--obs-sample-every", type=int, default=32,
                        help="trace one source push in N (with --observe)")
    parser.add_argument("--verbose", action="store_true",
                        help="console logging for repro.* loggers (DEBUG)")
    args = parser.parse_args(argv)

    if args.verbose:
        from repro.logsetup import configure_logging

        configure_logging(verbose=True)

    config = RunnerConfig(
        sut=args.sut,
        backend=args.backend,
        workers=args.workers,
        nodes=args.nodes,
        input_rate_tps=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        batch_size=args.batch_size,
        observe=args.observe,
        obs_sample_every=args.obs_sample_every,
    )
    scenario_kwargs = dict(
        scenario=args.scenario,
        queries_per_second=args.queries_per_second,
        query_parallelism=args.query_parallelism,
        kind=args.kind,
    )

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    metrics = run_scenario(config, **scenario_kwargs)
    if profiler is not None:
        profiler.disable()

    report = metrics.report
    print(f"sut={args.sut} backend={args.backend} workers={args.workers} "
          f"scenario={args.scenario} kind={args.kind}")
    print(f"service_tps={report.service_rate_tps:,.0f} "
          f"wall_s={report.wall_seconds:.2f} "
          f"results={sum(report.per_query_results.values()):,}")
    print(f"slowest_tps={metrics.slowest_data_throughput_tps:,.0f} "
          f"mean_deploy_ms={metrics.mean_deployment_latency_ms:.1f} "
          f"sustained={report.sustained}")

    run_tag = f"{args.scenario}_{args.sut}_{args.backend}"

    if args.observe:
        from repro.harness.inspector import render_dashboard
        from repro.obs import write_obs_artifacts

        snapshot = getattr(metrics, "obs_snapshot", None)
        if snapshot is not None:
            engine = metrics.engine
            events = (
                engine.obs.events.events()
                if getattr(engine, "obs", None) is not None
                else []
            )
            print()
            print(render_dashboard(snapshot, events=events, title=run_tag))
            out_dir = args.obs_out if args.obs_out else _results_dir()
            paths = write_obs_artifacts(
                snapshot,
                getattr(metrics, "obs_events", ""),
                out_dir,
                prefix=run_tag,
            )
            for kind, path in sorted(paths.items()):
                print(f"obs {kind} written to {path}")

    if profiler is not None:
        import io
        import pstats

        out = _results_dir() / f"profile_{run_tag}.txt"
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(40)
        lines = [buffer.getvalue(), "", "# component counters"]
        engine = metrics.engine
        if hasattr(engine, "component_stats"):
            for name, value in sorted(engine.component_stats().items()):
                lines.append(f"{name}: {value:,.0f}")
        out.write_text("\n".join(lines) + "\n")
        print(f"profile written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
