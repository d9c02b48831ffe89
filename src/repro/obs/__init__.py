"""``repro.obs``: low-overhead runtime telemetry (ISSUE 4 tentpole).

Off by default and compiled out of the hot paths: engines hold
``obs = None`` unless ``EngineConfig(observe=True)``, so the data path
pays a single ``is not None`` check per delivery.  When enabled, one
:class:`Observability` hub per engine bundles the three planes:

* :class:`~repro.obs.registry.MetricsRegistry` — hierarchical
  (engine/operator/query/shard-scoped) counters, gauges, histograms;
* :class:`~repro.obs.tracing.TraceCollector` — sampled exclusive-time
  span tracing of the tuple lifecycle, yielding per-operator latency
  breakdowns, plus :meth:`Observability.span` for control-plane spans
  (query deployment, checkpoint, recovery);
* :class:`~repro.obs.events.EventLog` — a structured ring of
  control-plane events with a JSONL exporter.

Cross-process runs piggyback worker deltas on the
:class:`~repro.minispe.parallel.ProcessShardPool` ack frames; the
coordinator merges them (see
:class:`repro.core.parallel_engine.ProcessAStreamEngine`), so
``--backend process`` reports per-shard operator stats and straggler
skew from the same snapshot surface.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, Optional

from repro.obs.events import EventLog
from repro.obs.exposition import render_prometheus
from repro.obs.registry import (
    MetricsRegistry,
    MetricsScope,
    merge_snapshots,
    relabel_snapshot,
    render_key,
)
from repro.obs.tracing import (
    TraceCollector,
    WireTraceBook,
    breakdown_from_snapshot,
    merge_trace_snapshots,
    new_trace_id,
)

__all__ = [
    "EventLog",
    "MetricsRegistry",
    "MetricsScope",
    "Observability",
    "TraceCollector",
    "WireTraceBook",
    "breakdown_from_snapshot",
    "merge_snapshots",
    "merge_trace_snapshots",
    "new_trace_id",
    "relabel_snapshot",
    "render_key",
    "render_prometheus",
    "write_flight_record",
    "write_obs_artifacts",
]


class Observability:
    """One engine's telemetry hub: registry + tracer + event log."""

    def __init__(self, sample_every: int = 32) -> None:
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self.tracer = TraceCollector(sample_every=sample_every)

    @contextmanager
    def span(self, kind: str, t_ms: Optional[int] = None, **fields):
        """Time a control-plane operation; record + log it.

        Records the wall duration into the ``span_ms{span=kind}``
        histogram and emits one ``kind`` event carrying ``duration_ms``
        plus ``fields`` (fields may be updated by the caller through the
        yielded dict before the block exits).
        """
        extra: Dict = dict(fields)
        started = perf_counter_ns()
        try:
            yield extra
        finally:
            duration_ms = (perf_counter_ns() - started) / 1e6
            self.registry.histogram("span_ms", span=kind).record(duration_ms)
            self.events.emit(kind, t_ms=t_ms, duration_ms=duration_ms, **extra)

    def snapshot(self) -> Dict:
        """The full JSON-able telemetry snapshot."""
        return {
            "registry": self.registry.snapshot(),
            "trace": self.tracer.snapshot(),
            "events_total": self.events.total_emitted,
            "events_dropped": self.events.dropped,
        }


def write_obs_artifacts(
    snapshot: Dict,
    events_jsonl: str,
    out_dir,
    prefix: str,
) -> Dict[str, str]:
    """Write the standard artifact set for one observed run.

    ``obs_<prefix>_metrics.json`` (full snapshot incl. trace),
    ``obs_<prefix>_metrics.prom`` (Prometheus text exposition of the
    registry), ``obs_<prefix>_events.jsonl`` (event log).  Returns the
    written paths keyed by artifact kind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    metrics_path = out / f"obs_{prefix}_metrics.json"
    metrics_path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True, default=str) + "\n"
    )
    paths["metrics"] = str(metrics_path)
    prom_path = out / f"obs_{prefix}_metrics.prom"
    prom_path.write_text(render_prometheus(snapshot.get("registry", {})))
    paths["prometheus"] = str(prom_path)
    events_path = out / f"obs_{prefix}_events.jsonl"
    events_path.write_text(events_jsonl + ("\n" if events_jsonl else ""))
    paths["events"] = str(events_path)
    return paths


def write_flight_record(
    out_dir,
    prefix: str,
    info: Optional[Dict] = None,
    snapshot: Optional[Dict] = None,
    wire_traces: Optional[Dict] = None,
    events_jsonl: str = "",
) -> Dict[str, str]:
    """Dump a post-incident flight record.

    Written automatically when the serving gate performs a recovery: one
    ``flight_<prefix>.json`` holding the recovery info, the telemetry
    snapshot (when observe is on), and the wire-trace tail — the last
    traced pushes leading up to the incident — plus a companion
    ``flight_<prefix>_events.jsonl`` with the merged event log.  Returns
    the written paths keyed by artifact kind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, str] = {}
    record = {
        "kind": "flight_record",
        "info": info or {},
        "snapshot": snapshot or {},
        "wire_traces": wire_traces or {},
    }
    record_path = out / f"flight_{prefix}.json"
    record_path.write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    )
    paths["record"] = str(record_path)
    if events_jsonl:
        events_path = out / f"flight_{prefix}_events.jsonl"
        events_path.write_text(events_jsonl + "\n")
        paths["events"] = str(events_path)
    return paths
