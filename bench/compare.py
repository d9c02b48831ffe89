"""Comparing two result files, and two sets of runs of the same code.

The rule is the choosing-metrics guide's: medians and quartiles per
side, the share of pairs the change wins, *regressed* when the median
worsens by more than the metric's bound, *improved* only with ten pairs,
nine tenths of them won and a median shift beyond the parent's own
quartile distance, and *unresolved* — never "unchanged" — when the
parent's run-to-run spread is wider than the bound.  Absolute numbers
from different hosts are not compared at all.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from bench import REPO_ROOT
from bench.stats import quartiles

Metric = Tuple[str, str, str, float]
"""``(name, unit, better, bound)`` as ``bench.run.END_TO_END`` lists them."""

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


class FingerprintMismatch(ValueError):
    """The two files were measured on different hosts."""


def fingerprint_record() -> Dict[str, Any]:
    """What results must share to be compared absolutely, plus the commit."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # an exported checkout has no .git
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": commit,
    }


def _values(records: Iterable[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [
        record["metrics"][metric]
        for record in records
        if record["workload"] == workload and metric in record["metrics"]
    ]


def judge(
    before: Sequence[float], after: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """One metric on one workload: the numbers and the verdict."""
    sign = 1.0 if better == "higher" else -1.0
    median_before = statistics.median(before)
    median_after = statistics.median(after)
    gain = sign * (median_after - median_before) / median_before
    pairs = list(zip(before, after))
    wins = sum(1 for b, a in pairs if sign * (a - b) > 0)
    losses = sum(1 for b, a in pairs if sign * (a - b) < 0)
    verdict = "unchanged"
    spread = None
    if len(before) < 2:
        verdict = "unresolved"  # one run has no spread to judge against
    else:
        q1, _, q3 = quartiles(before)
        spread = (q3 - q1) / median_before
        if spread > bound:
            verdict = "unresolved"
        elif gain < -bound:
            verdict = "regressed"
        elif (
            len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
            and abs(median_after - median_before) > q3 - q1
        ):
            verdict = "improved"
    return {
        "median_before": median_before,
        "median_after": median_after,
        "gain": gain,
        "spread_before": spread,
        "pairs": len(pairs),
        "wins": wins,
        "losses": losses,
        "verdict": verdict,
    }


def compare_files(before_path: str, after_path: str, metrics: Sequence[Metric]) -> str:
    """The per-workload, per-metric comparison table of two result files."""
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    hosts = [
        {key: document["host"].get(key) for key in ("cpu_model", "nproc", "python")}
        for document in (before, after)
    ]
    if hosts[0] != hosts[1]:
        raise FingerprintMismatch(
            f"refusing to compare absolute numbers across hosts: "
            f"{hosts[0]} vs {hosts[1]}"
        )
    lines = [
        f"before: {before['host'].get('commit')}   after: {after['host'].get('commit')}",
        f"{'workload':18s} {'metric':26s} {'before':>12s} {'after':>12s} "
        f"{'gain':>8s} {'spread':>8s} {'bound':>6s} {'won':>7s}  verdict",
    ]
    workloads = sorted({record["workload"] for record in before["records"]})
    for workload in workloads:
        for name, _unit, better, bound in metrics:
            left = _values(before["records"], workload, name)
            right = _values(after["records"], workload, name)
            if not left or not right:
                continue
            row = judge(left, right, better, bound)
            spread = "n/a" if row["spread_before"] is None else f"{row['spread_before']:.1%}"
            lines.append(
                f"{workload:18s} {name:26s} {row['median_before']:12.3f} "
                f"{row['median_after']:12.3f} {row['gain']:+8.1%} {spread:>8s} "
                f"{bound:6.0%} {row['wins']:3d}/{row['pairs']:<3d}  {row['verdict']}"
            )
    return "\n".join(lines)


def repeatability(records: Sequence[Dict[str, Any]], metrics: Sequence[Metric]) -> str:
    """Two interleaved sets of the same code: do they agree within bounds?"""
    lines = [
        f"{'workload':18s} {'metric':26s} {'set 0':>12s} {'set 1':>12s} "
        f"{'worse by':>9s} {'bound':>6s}"
    ]
    workloads = list(dict.fromkeys(record["workload"] for record in records))
    for workload in workloads:
        for name, _unit, better, bound in metrics:
            first = _values([r for r in records if r.get("set") == 0], workload, name)
            second = _values([r for r in records if r.get("set") == 1], workload, name)
            if not first or not second:
                continue
            sign = 1.0 if better == "higher" else -1.0
            a, b = statistics.median(first), statistics.median(second)
            worse = max(0.0, -sign * (b - a) / a, -sign * (a - b) / b)
            flag = "" if worse <= bound else "  EXCEEDS BOUND"
            lines.append(
                f"{workload:18s} {name:26s} {a:12.3f} {b:12.3f} "
                f"{worse:9.1%} {bound:6.0%}{flag}"
            )
    return "\n".join(lines)
