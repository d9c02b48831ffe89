"""One benchmark run: generate, measure, verify, report.

``run_workload`` is what both the single-run contract (``--workload``,
one JSON line last) and the all-workload report build on.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from bench import reference as ref
from bench.loadgen import PROBE_QUERY_ID, Measurement, measure
from bench.stats import (
    attribute_latencies,
    latency_summary,
    percentile,
    quiet_high,
    quiet_low,
)
from bench.workloads import WORKLOADS, Schedule, build_schedule

END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("throughput_tps", "tuples/s", "higher", 0.25),
    ("server_rss_peak_mb", "MiB", "lower", 0.10),
)
"""The gate: whole-phase figures as the issue defines them, whose spread
over ten seeds on this kind of host stays under a third of the bound."""

DEMOTED: Tuple[Tuple[str, str], ...] = (
    # name, unit — measured and printed on every run, gated on none
    ("server_cpu_us_per_tuple", "us"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("deploy_p50_ms", "ms"),
    ("deploy_p95_ms", "ms"),
    ("result_loss_ratio", "ratio"),
)
"""End-to-end metrics, computed as the issue defines them, that could not
meet a bound here (bench/README.md gives each one's measured spread);
the traced run reports them per layer."""


def verify(
    schedule: Schedule, reference: ref.Reference, measurement: Measurement
) -> Tuple[int, List[str]]:
    """Failed operations and what failed.

    (b) every query's delivered count and digest equal the reference
    pass — which runs the inline engine, so on the process-backend
    workload this is also check (c); (a) the sampled queries' outputs
    equal the query-at-a-time baseline's.
    """
    failed = 0
    findings: List[str] = list(measurement.problems)
    prints = {
        query_id: [ref.fingerprint(o.timestamp, o.value) for o in outputs]
        for query_id, outputs in measurement.outputs.items()
        if query_id != PROBE_QUERY_ID
    }
    for query_id, expected in reference.counts.items():
        got = prints.get(query_id, [])
        if len(got) != expected:
            failed += abs(len(got) - expected)
            findings.append(f"{query_id}: {len(got)} results, expected {expected}")
        elif ref.digest_of(got) != reference.digests[query_id]:
            failed += expected
            findings.append(f"{query_id}: result digest differs from the reference")
    for query_id in set(prints) - set(reference.counts):
        failed += len(prints[query_id])
        findings.append(f"{query_id}: results for a query the reference never saw")
    sample = ref.baseline_sample(schedule)
    for query_id, expected_prints in ref.baseline_results(schedule, sample).items():
        if sorted(prints.get(query_id, [])) != expected_prints:
            failed += max(1, len(expected_prints))
            findings.append(f"{query_id}: differs from QueryAtATimeEngine")
    if measurement.shed:
        findings.append(f"{measurement.shed} results shed by the server")
    if measurement.accepted != measurement.pushed:
        failed += abs(measurement.pushed - measurement.accepted)
        findings.append(
            f"server accepted {measurement.accepted} of {measurement.pushed} tuples"
        )
    if findings and not failed:
        failed = 1  # an unclean teardown is a failed run even with exact results
    return failed, findings


def end_to_end_metrics(
    reference: ref.Reference, measurement: Measurement
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The contract's metrics plus the diagnostics printed beside them."""
    blocks = measurement.s_blocks
    block_tps = [
        (after[2] - before[2]) / ((after[0] - before[0]) / 1e9)
        for before, after in zip(blocks, blocks[1:])
    ]
    block_cpu_us = [
        (after[1] - before[1]) / (after[2] - before[2]) * 1e6
        for before, after in zip(blocks, blocks[1:])
    ]
    by_tick = attribute_latencies(
        measurement.receipts, reference.emits, measurement.l_due_ns
    )
    latency = latency_summary(by_tick) or {}
    deploy = measurement.churn_deploy_ms or measurement.setup_deploy_ms
    metrics = {
        "setup_s": percentile(measurement.setup_s, 50.0),
        "throughput_tps": measurement.s_tuples / measurement.s_wall_s,
        "server_rss_peak_mb": measurement.rss_peak_mib,
    }
    diagnostics = {
        "server_cpu_us_per_tuple": measurement.s_server_cpu_s
        / measurement.s_tuples * 1e6,
        "latency_p50_ms": latency.get("p50_ms"),
        "latency_p90_ms": latency.get("p90_ms"),
        "deploy_p50_ms": percentile(deploy, 50.0),
        "deploy_p95_ms": percentile(deploy, 95.0),
        "setup_samples": len(measurement.setup_s),
        "s_tuples": measurement.s_tuples,
        "s_wall_s": measurement.s_wall_s,
        "s_blocks": len(block_tps),
        "s_quiet_block_tps": quiet_high(block_tps),
        "s_quiet_block_cpu_us_per_tuple": quiet_low(block_cpu_us),
        "latency_results": latency.get("results", 0),
        "latency_bursts": latency.get("samples", 0),
        "latency_supported_percentile": latency.get("supported"),
        "latency_p99_ms": latency.get("p99_ms"),
        "l_quiet_burst_p50_ms": latency.get("quiet_burst_p50_ms"),
        "l_quiet_burst_p90_ms": latency.get("quiet_burst_p90_ms"),
        "deploy_samples": len(deploy),
        "overloaded": measurement.overloaded,
        "loadgen.lag_max_ms": measurement.l_lag_max_ms,
        "loadgen.cpu_share": measurement.s_loadgen_cpu_s / measurement.s_wall_s,
        "subscriptions.shed_results": measurement.shed,
    }
    return metrics, diagnostics


def run_workload(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Measure one workload once, tracing off; returns the full record."""
    workload = WORKLOADS[name]
    started = time.perf_counter()
    schedule = build_schedule(workload, seed, seconds)
    reference, cached = ref.load_or_compute(schedule)
    prepared = time.perf_counter()
    measurement = measure(schedule, reference)
    measured = time.perf_counter()
    failed, findings = verify(schedule, reference, measurement)
    metrics, diagnostics = end_to_end_metrics(reference, measurement)
    diagnostics.update(
        reference_cached=cached,
        prepare_s=prepared - started,
        measure_s=measured - prepared,
        verify_s=time.perf_counter() - measured,
        result_loss_ratio=min(1.0, failed / max(1, reference.total)),
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "input": schedule.identity(),
        "correct": failed == 0,
        "attempted": max(1, reference.total),
        "failed": failed,
        "metrics": metrics,
        "diagnostics": diagnostics,
        "findings": findings,
    }
