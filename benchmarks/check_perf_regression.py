"""Perf regression gate for CI: batched data-path speed-up vs baseline.

Absolute tuples/second differ wildly across runner hardware, so the
committed baseline (``benchmarks/baselines/perf_baseline.csv``) gates a
machine-normalised ratio instead: the batched (``batch_size=64``) over
unbatched (``batch_size=1``) service throughput on the quick SC1 join
workload — the same shape the data-batch ablation sweeps.  A change that
slows the batched data path shrinks this ratio on every machine, while a
uniformly slower runner leaves it alone.  The absolute rates ride along
in the CSV as ungated context.

Usage::

    python benchmarks/check_perf_regression.py            # gate (CI)
    python benchmarks/check_perf_regression.py --update   # re-baseline
    python benchmarks/check_perf_regression.py --observe-overhead
    python benchmarks/check_perf_regression.py --serve    # serving layer

The gate fails when a gated metric drops more than ``TOLERANCE`` (20 %)
below its committed baseline value.

``--serve`` gates the serving layer (ISSUE 5): the framed loopback
ingest TPS relative to direct in-process ``push_many`` on the same
workload (``serve_ingest_ratio_inline``, machine-normalised the same
way as the batched-speedup ratio), against its own committed baseline
(``benchmarks/baselines/serve_baseline.csv``); the wire control-plane
rate rides along ungated and is floor-checked at 200 ops/sec.  The
binary columnar codec (ISSUE 7) adds a second gated ratio,
``serve_ingest_ratio_binary_inline`` (pipelined binary wire / direct),
with an *absolute* floor of 0.5 on top of the baseline gate.

``--sharing`` gates the semantic-overlap optimizer (ISSUE 8): on the
500-query ~30%-pairwise-overlap workload of
``bench_ablation_predicate_dedup.py``, service TPS with
``share_overlapping`` on must be at least ``SHARING_RATIO_FLOOR``
(1.3x) the TPS with it off — an absolute, machine-independent floor —
and the measured ratio is additionally gated against its committed
baseline (``benchmarks/baselines/sharing_baseline.csv``) with the
standard tolerance.  The bench itself raises if the sharing-on run's
outputs differ from sharing-off (the rewrite must be exact).

``--latency`` gates the wire-to-delivery latency plane (ISSUE 9): the
inline-backend p95 of traced push frames (client→server→engine→
subscriber, closed by the span telescoping at delivery) per codec,
from ``bench_serve_throughput.measure_latency_metrics``.  It is an
inverted (ceiling) gate with a wide tolerance (100 %): absolute
loopback milliseconds vary across hosts, and the gate exists to catch a
latency path that grew an order of magnitude — a lost force-flush, an
accidental sleep — not scheduler jitter.  The metrics
live in ``serve_baseline.csv`` next to the throughput ratios;
``--latency --update`` merges them into that file without touching the
``--serve`` metrics.

``--observe-overhead`` gates the telemetry subsystem (ISSUE 4) instead:
the same SC1 workload is run in interleaved pairs with ``observe`` off
and on, and the median on/off service-throughput ratio must stay at or
above ``OBSERVE_FLOOR`` (telemetry may cost at most 10 % service_tps).
The observe-off path is already covered by the default gate — telemetry
off leaves the data path with one ``is None`` check per delivery.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from repro.harness.runner import RunnerConfig, run_scenario

BASELINE_PATH = Path(__file__).parent / "baselines" / "perf_baseline.csv"
SERVE_BASELINE_PATH = Path(__file__).parent / "baselines" / "serve_baseline.csv"
SHARING_BASELINE_PATH = Path(__file__).parent / "baselines" / "sharing_baseline.csv"
TOLERANCE = 0.20
REPEATS = 4
GATED_METRICS = ("batched_speedup_sc1_agg",)
SERVE_GATED_METRICS = (
    "serve_ingest_ratio_inline",
    "serve_ingest_ratio_binary_inline",
)
LATENCY_TOLERANCE = 1.00
"""Traced-push p95 latency may grow at most this fraction over
baseline (absolute loopback ms: wide on purpose)."""
LATENCY_GATED_METRICS = (
    "serve_e2e_p95_ms_json_inline",
    "serve_e2e_p95_ms_binary_inline",
)
SERVE_CONTROL_FLOOR_OPS = 200.0
"""Absolute floor on wire control-plane ops/sec (the ISSUE 5 bar)."""
SERVE_BINARY_RATIO_FLOOR = 0.5
"""Absolute floor on binary pipelined wire / direct ingest (the ISSUE 7
bar): machine-independent, on top of the relative baseline gate."""
OBSERVE_FLOOR = 0.90
"""Minimum observe-on / observe-off service-throughput ratio."""
SHARING_GATED_METRICS = ("sharing_tps_ratio_500q_overlap",)
SHARING_RATIO_FLOOR = 1.3
"""Absolute floor on sharing-on / sharing-off service TPS on the
500-query ~30%-overlap workload (the ISSUE 8 bar)."""


def _service_tps(batch_size: int, observe: bool = False) -> float:
    """One run's service rate for the gate's SC1 aggregation workload.

    Aggregation keeps per-record work small and constant, so the
    batched/unbatched ratio isolates dispatch amortisation — the thing
    the gate protects — instead of join-state growth, which made a join
    workload's ratio noisier than the gate tolerance.
    """
    metrics = run_scenario(
        RunnerConfig(
            # Big enough that one run takes O(1s) of wall time:
            # sub-second runs made the ratio noisy relative to the
            # 20% gate tolerance.
            input_rate_tps=2_000.0,
            duration_s=10.0,
            batch_size=batch_size,
            observe=observe,
        ),
        scenario="sc1",
        queries_per_second=4.0,
        query_parallelism=16,
        kind="agg",
    )
    return metrics.report.service_rate_tps


def measure() -> dict:
    """Run the gate workloads and compute all baseline metrics.

    The batched and unbatched runs are interleaved in pairs and the
    gate metric is the *median* of the per-pair ratios: slow phases on
    a shared host hit both runs of a pair about equally, so pairing
    cancels drift that best-of-N over separate phases cannot.
    """
    _service_tps(1)  # discarded warm-up (imports, allocator, caches)
    pairs = [
        (_service_tps(1), _service_tps(64)) for _ in range(REPEATS)
    ]
    ratios = sorted(
        batched / unbatched for unbatched, batched in pairs if unbatched
    )
    median_ratio = ratios[len(ratios) // 2] if ratios else 0.0
    best_unbatched = max(unbatched for unbatched, _ in pairs)
    best_batched = max(batched for _, batched in pairs)
    return {
        "batched_speedup_sc1_agg": median_ratio,
        "batched_service_tps_sc1_agg": best_batched,
        "unbatched_service_tps_sc1_agg": best_unbatched,
    }


def measure_observe_overhead() -> dict:
    """Median observe-on / observe-off service-throughput ratio.

    Pairs are interleaved for the same drift-cancelling reason as
    :func:`measure`; telemetry runs use the default sampling cadence
    (every 32nd push), which is what ``runner --observe`` ships.
    """
    _service_tps(64)  # discarded warm-up
    pairs = [
        (_service_tps(64), _service_tps(64, observe=True))
        for _ in range(REPEATS)
    ]
    ratios = sorted(observed / plain for plain, observed in pairs if plain)
    median_ratio = ratios[len(ratios) // 2] if ratios else 0.0
    return {
        "observe_overhead_ratio_sc1_agg": median_ratio,
        "observe_on_service_tps_sc1_agg": max(on for _, on in pairs),
        "observe_off_service_tps_sc1_agg": max(off for off, _ in pairs),
    }


def measure_serve() -> dict:
    """The serving-layer gate metrics (ISSUE 5 satellite 2)."""
    try:
        from bench_serve_throughput import measure_gate_metrics
    except ImportError:  # imported as a package (pytest, tooling)
        from benchmarks.bench_serve_throughput import measure_gate_metrics
    return measure_gate_metrics()


def measure_latency() -> dict:
    """The wire-latency gate metrics (ISSUE 9)."""
    try:
        from bench_serve_throughput import measure_latency_metrics
    except ImportError:  # imported as a package (pytest, tooling)
        from benchmarks.bench_serve_throughput import measure_latency_metrics
    return measure_latency_metrics()


def measure_sharing() -> dict:
    """The semantic-overlap optimizer gate metrics (ISSUE 8)."""
    try:
        from bench_ablation_predicate_dedup import measure_sharing_metrics
    except ImportError:  # imported as a package (pytest, tooling)
        from benchmarks.bench_ablation_predicate_dedup import (
            measure_sharing_metrics,
        )
    return measure_sharing_metrics()


def load_baseline(path: Path = BASELINE_PATH) -> dict:
    """Read the committed baseline metrics CSV."""
    with path.open(newline="") as handle:
        return {
            row["metric"]: float(row["value"])
            for row in csv.DictReader(handle)
        }


def write_baseline(metrics: dict, path: Path = BASELINE_PATH) -> None:
    """Persist measured metrics as the new committed baseline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("metric", "value"))
        for metric, value in metrics.items():
            writer.writerow((metric, f"{value:.4f}"))


def merge_baseline(metrics: dict, path: Path) -> None:
    """Update ``metrics`` in a baseline CSV, keeping its other rows.

    The serve baseline holds metrics from two gate modes (``--serve``
    throughput ratios and ``--latency`` percentiles); re-baselining one
    mode must not drop the other's rows.
    """
    existing = load_baseline(path) if path.exists() else {}
    existing.update(metrics)
    write_baseline(existing, path)


def check(measured: dict, baseline: dict, gated=GATED_METRICS) -> list:
    """Return failure strings for gated metrics below tolerance.

    A gated metric absent from the committed baseline is reported as
    its own actionable failure (re-run with ``--update`` after a codec
    or workload change adds a metric) instead of surfacing as a bare
    ``KeyError`` half-way through the gate.
    """
    failures = []
    for metric in gated:
        base = baseline.get(metric)
        if base is None:
            failures.append(
                f"{metric}: missing from committed baseline — re-run "
                f"check_perf_regression.py with --update to record it"
            )
            continue
        if metric not in measured:
            failures.append(
                f"{metric}: gated but not measured — the bench no "
                f"longer reports it"
            )
            continue
        floor = base * (1.0 - TOLERANCE)
        if measured[metric] < floor:
            failures.append(
                f"{metric}: measured {measured[metric]:.3f} < floor "
                f"{floor:.3f} (baseline {base:.3f} "
                f"- {TOLERANCE:.0%})"
            )
    return failures


def check_ceiling(
    measured: dict,
    baseline: dict,
    gated,
    tolerance: float,
) -> list:
    """Inverted gate: fail when a latency metric *exceeds* baseline."""
    failures = []
    for metric in gated:
        base = baseline.get(metric)
        if base is None:
            failures.append(
                f"{metric}: missing from committed baseline — re-run "
                f"check_perf_regression.py with --update to record it"
            )
            continue
        ceiling = base * (1.0 + tolerance)
        if measured[metric] > ceiling:
            failures.append(
                f"{metric}: measured {measured[metric]:.3f} > ceiling "
                f"{ceiling:.3f} (baseline {base:.3f} "
                f"+ {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    """Gate (default) or re-baseline (``--update``) the perf metrics."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="write the measured metrics as the new "
                             "committed baseline instead of gating")
    parser.add_argument("--serve", action="store_true",
                        help="gate the serving layer's loopback ingest "
                             "ratio and control-plane rate instead of "
                             "the core baseline metrics")
    parser.add_argument("--observe-overhead", action="store_true",
                        help="gate the telemetry overhead (observe-on "
                             "service throughput must stay within 10%% "
                             "of observe-off) instead of the baseline "
                             "metrics")
    parser.add_argument("--latency", action="store_true",
                        help="gate the wire-to-delivery p95 of traced "
                             "pushes (ceiling gate vs the committed "
                             "serve baseline) instead of the baseline "
                             "metrics")
    parser.add_argument("--sharing", action="store_true",
                        help="gate the semantic-overlap optimizer: "
                             "sharing-on service TPS must be at least "
                             "1.3x sharing-off on the 500-query "
                             "~30%%-overlap workload, and within "
                             "tolerance of its committed baseline")
    args = parser.parse_args(argv)

    if args.sharing:
        measured = measure_sharing()
        for metric, value in measured.items():
            print(f"{metric} = {value:,.3f}")
        ratio = measured["sharing_tps_ratio_500q_overlap"]
        if ratio < SHARING_RATIO_FLOOR:
            print(
                f"REGRESSION: sharing-on service TPS is only "
                f"{ratio:.3f}x sharing-off "
                f"(absolute floor {SHARING_RATIO_FLOOR:.1f}x)",
                file=sys.stderr,
            )
            return 1
        if args.update:
            write_baseline(measured, SHARING_BASELINE_PATH)
            print(f"sharing baseline updated: {SHARING_BASELINE_PATH}")
            return 0
        baseline = load_baseline(SHARING_BASELINE_PATH)
        failures = check(measured, baseline, gated=SHARING_GATED_METRICS)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if not failures:
            print(
                "sharing gate OK ("
                + ", ".join(
                    f"{metric} {measured[metric]:.3f} vs baseline "
                    f"{baseline[metric]:.3f}"
                    for metric in SHARING_GATED_METRICS
                )
                + f"; overlap fraction "
                f"{measured['sharing_overlap_fraction']:.2f})"
            )
        return 1 if failures else 0

    if args.latency:
        measured = measure_latency()
        for metric, value in measured.items():
            print(f"{metric} = {value:,.3f}")
        if args.update:
            merge_baseline(measured, SERVE_BASELINE_PATH)
            print(f"latency baseline updated: {SERVE_BASELINE_PATH}")
            return 0
        baseline = load_baseline(SERVE_BASELINE_PATH)
        failures = check_ceiling(
            measured,
            baseline,
            gated=LATENCY_GATED_METRICS,
            tolerance=LATENCY_TOLERANCE,
        )
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if not failures:
            print(
                "wire latency gate OK ("
                + ", ".join(
                    f"{metric} {measured[metric]:.3f}ms vs baseline "
                    f"{baseline[metric]:.3f}ms"
                    for metric in LATENCY_GATED_METRICS
                )
                + ")"
            )
        return 1 if failures else 0

    if args.serve:
        measured = measure_serve()
        for metric, value in measured.items():
            print(f"{metric} = {value:,.3f}")
        control_rate = measured["serve_control_ops_per_sec_inline"]
        if control_rate < SERVE_CONTROL_FLOOR_OPS:
            print(
                f"REGRESSION: wire control plane sustained only "
                f"{control_rate:.0f} ops/s "
                f"(floor {SERVE_CONTROL_FLOOR_OPS:.0f})",
                file=sys.stderr,
            )
            return 1
        binary_ratio = measured["serve_ingest_ratio_binary_inline"]
        if binary_ratio < SERVE_BINARY_RATIO_FLOOR:
            print(
                f"REGRESSION: binary pipelined wire ingest is only "
                f"{binary_ratio:.3f}x direct push_many "
                f"(absolute floor {SERVE_BINARY_RATIO_FLOOR:.1f})",
                file=sys.stderr,
            )
            return 1
        if args.update:
            merge_baseline(measured, SERVE_BASELINE_PATH)
            print(f"serve baseline updated: {SERVE_BASELINE_PATH}")
            return 0
        baseline = load_baseline(SERVE_BASELINE_PATH)
        failures = check(measured, baseline, gated=SERVE_GATED_METRICS)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if not failures:
            print(
                "serve perf gate OK ("
                + ", ".join(
                    f"{metric} {measured[metric]:.3f} vs baseline "
                    f"{baseline[metric]:.3f}"
                    for metric in SERVE_GATED_METRICS
                )
                + f"; control {control_rate:,.0f} ops/s)"
            )
        return 1 if failures else 0

    if args.observe_overhead:
        measured = measure_observe_overhead()
        for metric, value in measured.items():
            print(f"{metric} = {value:,.3f}")
        ratio = measured["observe_overhead_ratio_sc1_agg"]
        if ratio < OBSERVE_FLOOR:
            print(
                f"REGRESSION: observe-on service throughput is "
                f"{ratio:.3f}x observe-off (floor {OBSERVE_FLOOR:.2f}x)",
                file=sys.stderr,
            )
            return 1
        print(
            f"observe overhead gate OK ({ratio:.3f}x >= "
            f"{OBSERVE_FLOOR:.2f}x of observe-off throughput)"
        )
        return 0

    measured = measure()
    for metric, value in measured.items():
        print(f"{metric} = {value:,.3f}")

    if args.update:
        write_baseline(measured)
        print(f"baseline updated: {BASELINE_PATH}")
        return 0

    baseline = load_baseline()
    failures = check(measured, baseline)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        gated = ", ".join(
            f"{metric} {measured[metric]:.2f} vs baseline "
            f"{baseline[metric]:.2f}"
            for metric in GATED_METRICS
        )
        print(f"perf gate OK ({gated})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
