"""Live pipeline inspector: render telemetry snapshots for terminals.

The ISSUE 4 tentpole's presentation layer.  Input is the JSON-able
snapshot produced by :meth:`repro.core.engine.AStreamEngine.obs_snapshot`
(or the merged cross-shard snapshot of
:class:`~repro.core.parallel_engine.ProcessAStreamEngine`); output is a
plain-text dashboard:

* per-operator latency breakdown — exclusive time per stage from the
  sampled span traces, with each stage's share of the end-to-end time;
* operator state — slice counts, changelog table sizes, join/agg
  cardinalities and router fan-out — grouped per operator (and per shard
  on the process backend);
* shard balance — per-shard input records and the straggler skew gauge;
* the tail of the structured event log.

Everything renders from snapshot dicts, so the inspector works equally
on a live engine, a merged cross-process snapshot, or a
``obs_*_metrics.json`` artifact read back from disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.tracing import breakdown_from_snapshot

_STATE_GAUGES = (
    "slices",
    "slices_left",
    "slices_right",
    "tuples_stored",
    "pair_cache_size",
    "changelog_table_size",
    "session_windows",
    "fan_out",
    "active_query_count",
    "sharing_groups",
    "sharing_grouped_slots",
    "sharing_cover_skips",
    "sharing_residual_checks",
)


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    return f"{ns / 1e3:.1f}us"


def render_breakdown(trace_snapshot: Dict, width: int = 28) -> List[str]:
    """Per-operator latency breakdown lines from a trace snapshot."""
    breakdown = breakdown_from_snapshot(trace_snapshot)
    lines = [
        f"latency breakdown ({breakdown['sampled']} sampled pushes, "
        f"mean e2e {_fmt_ns(breakdown['e2e_mean_ns'])}, "
        f"{breakdown['coverage']:.1%} attributed)"
    ]
    if not breakdown["stages"]:
        lines.append("  (no sampled traces)")
        return lines
    total = breakdown["e2e_total_ns"] or 1
    ranked = sorted(
        breakdown["stages"].items(),
        key=lambda item: -item[1]["total_ns"],
    )
    for stage, info in ranked:
        share = info["total_ns"] / total
        bar = "#" * max(1, round(share * 24)) if info["total_ns"] else ""
        lines.append(
            f"  {stage:<{width}} {_fmt_ns(info['mean_ns']):>9}/push "
            f"{share:>6.1%} {bar}"
        )
    return lines


def render_operator_state(registry: Dict[str, dict]) -> List[str]:
    """Operator state-gauge lines grouped by (operator, shard)."""
    grouped: Dict[str, Dict[str, object]] = {}
    for entry in registry.values():
        if entry["type"] != "gauge" or entry["name"] not in _STATE_GAUGES:
            continue
        operator = entry["labels"].get("operator")
        if operator is None:
            continue
        shard = entry["labels"].get("shard")
        group = operator if shard is None else f"{operator} [shard {shard}]"
        grouped.setdefault(group, {})[entry["name"]] = entry["value"]
    if not grouped:
        return []
    lines = ["operator state"]
    for group in sorted(grouped):
        parts = ", ".join(
            f"{name}={grouped[group][name]:,}"
            for name in _STATE_GAUGES
            if name in grouped[group]
        )
        lines.append(f"  {group}: {parts}")
    return lines


def render_shard_balance(registry: Dict[str, dict]) -> List[str]:
    """Per-shard record counts and straggler skew (process backend)."""
    records = {
        entry["labels"]["shard"]: entry["value"]
        for entry in registry.values()
        if entry["name"] == "shard_records" and "shard" in entry["labels"]
    }
    if not records:
        return []
    skew = next(
        (
            entry["value"]
            for entry in registry.values()
            if entry["name"] == "straggler_skew"
        ),
        None,
    )
    lines = ["shard balance" + (f" (straggler skew {skew:.2f}x)" if skew else "")]
    peak = max(records.values()) or 1
    for shard in sorted(records, key=int):
        count = records[shard]
        bar = "#" * max(1, round(count / peak * 24)) if count else ""
        lines.append(f"  shard {shard}: {count:>10,.0f} {bar}")
    return lines


def render_latency_slo(
    slo_summary: Optional[Dict],
    wire_snapshot: Optional[Dict] = None,
    limit: int = 10,
) -> List[str]:
    """Wire-latency / SLO panel: per-query percentiles, targets, burn.

    ``slo_summary`` is :meth:`repro.obs.slo.SLOTracker.summary` (or the
    ``slo`` block of a serve ``stats`` frame); ``wire_snapshot`` is a
    :meth:`repro.obs.tracing.WireTraceBook.snapshot`, rendered as the
    wire-stage breakdown header when present.
    """
    if not slo_summary or not slo_summary.get("queries"):
        return []
    lines: List[str] = []
    if wire_snapshot and wire_snapshot.get("e2e_count"):
        count = wire_snapshot["e2e_count"]
        mean_ns = wire_snapshot["e2e_total_ns"] / count
        stages = ", ".join(
            f"{stage} {_fmt_ns(total / max(1, n))}"
            for stage, (n, total) in sorted(
                wire_snapshot.get("stage_totals", {}).items(),
                key=lambda item: -item[1][1],
            )
        )
        lines.append(
            f"wire latency ({count} traced pushes, mean e2e "
            f"{_fmt_ns(mean_ns)}; {stages})"
        )
    header = (
        f"latency SLOs (objective {slo_summary.get('objective', 0):.2%}, "
        f"{slo_summary.get('observed_total', 0)} observed, "
        f"{slo_summary.get('violations_total', 0)} violations, "
        f"max burn {slo_summary.get('max_burn_rate', 0.0):.2f}x)"
    )
    lines.append(header)
    queries = slo_summary["queries"]
    ranked = sorted(
        queries.items(),
        key=lambda item: (-item[1].get("burn_rate", 0.0), item[0]),
    )
    for query_id, info in ranked[:limit]:
        target = info.get("target_ms")
        target_txt = f"slo {target:g}ms" if target is not None else "no slo"
        burn = info.get("burn_rate", 0.0)
        flame = " BURNING" if burn >= 1.0 else ""
        lines.append(
            f"  {query_id:<20} p50 {info.get('p50', 0.0):>8.2f}ms  "
            f"p95 {info.get('p95', 0.0):>8.2f}ms  "
            f"p99 {info.get('p99', 0.0):>8.2f}ms  "
            f"{target_txt:>12}  burn {burn:>5.2f}x{flame}"
        )
    if len(queries) > limit:
        lines.append(f"  ... and {len(queries) - limit} more queries")
    return lines


def render_cost_attribution(attribution: Optional[Dict], limit: int = 8) -> List[str]:
    """Per-query CPU shares (shared work split across group members)."""
    if not attribution or not attribution.get("queries"):
        return []
    total = attribution.get("total_ns", 0) or 1
    lines = [
        f"cost attribution ({_fmt_ns(total)} engine CPU, "
        f"{_fmt_ns(attribution.get('unattributed_ns', 0))} unattributed)"
    ]
    ranked = sorted(
        attribution["queries"].items(), key=lambda item: (-item[1], item[0])
    )
    for query_id, ns in ranked[:limit]:
        share = ns / total
        bar = "#" * max(1, round(share * 24)) if ns else ""
        lines.append(
            f"  {query_id:<20} {_fmt_ns(ns):>9} {share:>6.1%} {bar}"
        )
    return lines


def render_events(events: List[Dict], limit: int = 12) -> List[str]:
    """The tail of the structured event log, one line per event."""
    if not events:
        return []
    lines = [f"events (last {min(limit, len(events))} of {len(events)})"]
    for event in events[-limit:]:
        fields = ", ".join(
            f"{key}={value}"
            for key, value in sorted(event.items())
            if key not in ("seq", "kind", "t_ms")
        )
        stamp = f"t={event['t_ms']}ms " if event.get("t_ms") is not None else ""
        lines.append(f"  [{event['seq']:>5}] {stamp}{event['kind']}: {fields}")
    return lines


def render_dashboard(
    snapshot: Dict,
    events: Optional[List[Dict]] = None,
    title: str = "pipeline inspector",
) -> str:
    """The full terminal dashboard for one telemetry snapshot."""
    registry = snapshot.get("registry", {})
    sections = [
        [f"== {title} =="],
        render_breakdown(snapshot.get("trace", {})),
        render_latency_slo(
            snapshot.get("slo"), snapshot.get("wire_trace")
        ),
        render_cost_attribution(snapshot.get("cost")),
        render_shard_balance(registry),
        render_operator_state(registry),
        render_events(events or []),
    ]
    body = []
    for section in sections:
        if not section:
            continue
        if body:
            body.append("")
        body.extend(section)
    return "\n".join(body)
