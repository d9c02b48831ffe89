"""Prometheus-style text exposition for registry snapshots.

Renders the JSON-able snapshots of
:class:`repro.obs.registry.MetricsRegistry` in the Prometheus text
format (``metric{label="value"} 123``) so a run's final metrics drop
into any Prometheus-compatible toolchain.  Counters expose a
``_total``-suffixed sample, gauges expose their value, histograms
expose ``_count`` / ``_sum`` and quantile-labelled samples (a summary,
which matches the reservoir percentiles we actually have).
"""

from __future__ import annotations

import re
from typing import Dict

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    return _NAME_OK.sub("_", name)


def _labels(labels: Dict[str, str], extra: Dict[str, str] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{_sanitize(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(merged.items())
    )
    return f"{{{body}}}"


def _escape_label_value(value) -> str:
    # Text-format spec: label values escape backslash, double-quote, and
    # line feed (backslash first so the other escapes stay single).
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


HELP_TEXT: Dict[str, str] = {
    "serve_dead_letter_depth": "Pushes parked after recovery+retry both failed",
    "serve_dead_lettered": "Records dead-lettered since server start",
    "serve_recoveries": "Engine recoveries performed by the serving gate",
    "serve_worker_failures": "Worker deaths surfaced by liveness probing",
    "worker_failures": "Proactively detected worker deaths, by reason",
    "mttr_ms": "Supervised mean-time-to-recovery distribution",
    "serve_wire_e2e_ms": "Wire-to-delivery latency of trace-stamped pushes",
    "serve_traced_pushes": "Push frames carrying a wire trace context",
    "serve_trace_stage_ns": "Cumulative wire-span self time, by stage",
    "query_latency_ms": "Per-query wire-to-delivery latency distribution",
    "tenant_latency_ms": "Per-tenant wire-to-delivery latency distribution",
    "slo_burn_rate": "Error-budget burn over the sliding SLO window",
    "slo_violations": "Deliveries that exceeded their declared SLO target",
    "slo_pressure_active": "Subscriptions shedding early due to SLO burn",
    "query_cost_ns": "Attributed engine CPU per query (shared work split)",
    "engine_cpu_ns": "Measured engine CPU consumed by the data path",
}
"""# HELP text for degradation-visibility metrics: operators should be
able to *see* recoveries, worker failures and dead-letters in the
exposition, not infer them from throughput dips."""


def render_prometheus(
    snapshot: Dict[str, dict], help_text: Dict[str, str] = None
) -> str:
    """Render one registry snapshot as Prometheus exposition text.

    ``help_text`` (defaulting to :data:`HELP_TEXT`) adds ``# HELP``
    comments for known metric names.
    """
    if help_text is None:
        help_text = HELP_TEXT
    lines = []
    seen_types = set()
    for entry in sorted(
        snapshot.values(),
        key=lambda e: (e["name"], sorted(e["labels"].items())),
    ):
        name = _sanitize(entry["name"])
        kind = entry["type"]
        if kind == "counter":
            if name not in seen_types:
                if entry["name"] in help_text:
                    lines.append(
                        f"# HELP {name}_total {help_text[entry['name']]}"
                    )
                lines.append(f"# TYPE {name}_total counter")
                seen_types.add(name)
            lines.append(
                f"{name}_total{_labels(entry['labels'])} {entry['value']}"
            )
        elif kind == "gauge":
            if name not in seen_types:
                if entry["name"] in help_text:
                    lines.append(f"# HELP {name} {help_text[entry['name']]}")
                lines.append(f"# TYPE {name} gauge")
                seen_types.add(name)
            lines.append(f"{name}{_labels(entry['labels'])} {entry['value']}")
        else:  # histogram snapshot -> summary exposition
            if name not in seen_types:
                if entry["name"] in help_text:
                    lines.append(f"# HELP {name} {help_text[entry['name']]}")
                lines.append(f"# TYPE {name} summary")
                seen_types.add(name)
            for key, value in entry.items():
                if key.startswith("p") and key[1:].replace(".", "").isdigit():
                    quantile = float(key[1:]) / 100.0
                    lines.append(
                        f"{name}{_labels(entry['labels'], {'quantile': f'{quantile:g}'})}"
                        f" {value}"
                    )
            lines.append(
                f"{name}_count{_labels(entry['labels'])} {entry['count']}"
            )
            lines.append(f"{name}_sum{_labels(entry['labels'])} {entry['sum']}")
    return "\n".join(lines) + ("\n" if lines else "")
