"""Per-query / per-tenant latency SLOs over wire-to-delivery spans.

The serving layer closes a wire trace when a traced push's outputs reach
the subscriber send path; each closed trace yields one end-to-end
latency observation per delivered query.  This module turns those
observations into the paper-style latency report (p50/p95/p99 per query
and per tenant) plus an *actionable* signal: each query may declare an
SLO target, and the tracker computes a burn rate — the fraction of the
error budget being consumed over a sliding sample window:

    burn = (violating fraction in window) / (1 - objective)

``burn == 1.0`` means the query is exactly spending its budget;
sustained ``burn > 1`` means the SLO will be missed.  QoS shedding
consumes :meth:`SLOTracker.max_burn_rate` as a first-class shed signal.

Snapshots follow the ``sharing_summary()`` merge conventions: counters
sum, targets max, reservoirs concatenate — so cross-shard / cross-server
merges are associative.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.obs.registry import Histogram

DEFAULT_OBJECTIVE = 0.99
"""Fraction of deliveries that must meet the latency target."""

DEFAULT_WINDOW = 256
"""Sliding observation window (per query) used for burn-rate computation."""

SLO_PERCENTILES = (50.0, 95.0, 99.0)


class SLOTracker:
    """Latency histograms + declared targets + burn rates.

    One tracker per server (or per engine when embedded).  All methods
    are cheap enough to sit on the traced-push close path: an observe is
    two histogram appends and a deque push.
    """

    __slots__ = (
        "objective",
        "window",
        "_targets",
        "_tenants",
        "_query_hist",
        "_tenant_hist",
        "_recent",
        "observed_total",
        "violations_total",
    )

    def __init__(
        self,
        objective: float = DEFAULT_OBJECTIVE,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.objective = objective
        self.window = window
        self._targets: Dict[str, float] = {}
        self._tenants: Dict[str, str] = {}
        self._query_hist: Dict[str, Histogram] = {}
        self._tenant_hist: Dict[str, Histogram] = {}
        self._recent: Dict[str, deque] = {}
        self.observed_total = 0
        self.violations_total = 0

    # -- declaration -------------------------------------------------------

    def declare(
        self, query_id: str, target_ms: Optional[float], tenant: Optional[str] = None
    ) -> None:
        """Register a query; ``target_ms=None`` means observe-only (no
        burn rate, latencies still tracked)."""
        if target_ms is not None and target_ms <= 0:
            raise ValueError(f"target_ms must be positive, got {target_ms}")
        if target_ms is not None:
            self._targets[query_id] = float(target_ms)
        if tenant is not None:
            self._tenants[query_id] = tenant

    def forget(self, query_id: str) -> None:
        """Drop per-query state (tenant aggregates are kept)."""
        self._targets.pop(query_id, None)
        self._tenants.pop(query_id, None)
        self._query_hist.pop(query_id, None)
        self._recent.pop(query_id, None)

    def tenant(self, query_id: str) -> Optional[str]:
        """The tenant that declared ``query_id``, if any."""
        return self._tenants.get(query_id)

    def target(self, query_id: str) -> Optional[float]:
        """The query's declared latency target in ms, if any."""
        return self._targets.get(query_id)

    # -- observation -------------------------------------------------------

    def observe(
        self, query_id: str, latency_ms: float, tenant: Optional[str] = None
    ) -> None:
        """Record one wire-to-delivery latency for ``query_id``."""
        if tenant is not None:
            self._tenants.setdefault(query_id, tenant)
        hist = self._query_hist.get(query_id)
        if hist is None:
            hist = self._query_hist[query_id] = Histogram(
                f"query_latency_ms:{query_id}"
            )
        hist.record(latency_ms)
        owner = self._tenants.get(query_id)
        if owner is not None:
            thist = self._tenant_hist.get(owner)
            if thist is None:
                thist = self._tenant_hist[owner] = Histogram(
                    f"tenant_latency_ms:{owner}"
                )
            thist.record(latency_ms)
        self.observed_total += 1
        target = self._targets.get(query_id)
        if target is None:
            return
        recent = self._recent.get(query_id)
        if recent is None:
            recent = self._recent[query_id] = deque(maxlen=self.window)
        violated = latency_ms > target
        recent.append(violated)
        if violated:
            self.violations_total += 1

    # -- reporting ---------------------------------------------------------

    def percentiles(self, query_id: str) -> Dict[str, float]:
        """``{"p50": ms, ...}`` from the query's latency reservoir."""
        hist = self._query_hist.get(query_id)
        if hist is None or not hist.count:
            return {}
        return {f"p{p:g}": hist.percentile(p) for p in SLO_PERCENTILES}

    def burn_rate(self, query_id: str) -> float:
        """Error-budget burn over the sliding window; 0.0 when no target
        is declared or nothing has been observed yet."""
        recent = self._recent.get(query_id)
        if not recent:
            return 0.0
        violating = sum(recent) / len(recent)
        return violating / (1.0 - self.objective)

    def max_burn_rate(self) -> float:
        """The hottest query's burn rate — the shedding signal."""
        if not self._recent:
            return 0.0
        return max(self.burn_rate(qid) for qid in self._recent)

    def burning_queries(self, threshold: float) -> List[str]:
        """Queries whose burn rate meets or exceeds ``threshold``."""
        return sorted(
            qid for qid in self._recent if self.burn_rate(qid) >= threshold
        )

    def summary(self) -> Dict:
        """The ``stats`` frame / inspector view."""
        queries = {}
        for qid, hist in sorted(self._query_hist.items()):
            entry = {
                "count": hist.count,
                "tenant": self._tenants.get(qid),
                "target_ms": self._targets.get(qid),
            }
            entry.update(self.percentiles(qid))
            if qid in self._targets:
                entry["burn_rate"] = self.burn_rate(qid)
            queries[qid] = entry
        tenants = {}
        for tenant, hist in sorted(self._tenant_hist.items()):
            tenants[tenant] = {
                "count": hist.count,
                **{f"p{p:g}": hist.percentile(p) for p in SLO_PERCENTILES},
            }
        return {
            "objective": self.objective,
            "observed_total": self.observed_total,
            "violations_total": self.violations_total,
            "max_burn_rate": self.max_burn_rate(),
            "queries": queries,
            "tenants": tenants,
        }

    # -- cross-process shipping --------------------------------------------

    def snapshot(self) -> Dict:
        """Picklable cumulative view; mergeable via
        :func:`merge_slo_snapshots` (counts sum, targets max, reservoirs
        concatenate)."""
        return {
            "objective": self.objective,
            "observed_total": self.observed_total,
            "violations_total": self.violations_total,
            "queries": {
                qid: {
                    "count": hist.count,
                    "reservoir": hist.reservoir(),
                    "target_ms": self._targets.get(qid),
                    "tenant": self._tenants.get(qid),
                    "recent": list(self._recent.get(qid, ())),
                }
                for qid, hist in self._query_hist.items()
            },
            "tenants": {
                tenant: {"count": hist.count, "reservoir": hist.reservoir()}
                for tenant, hist in self._tenant_hist.items()
            },
        }


def merge_slo_snapshots(snapshots: Iterable[Dict]) -> Dict:
    """Associatively combine tracker snapshots (sum counts, max targets,
    concatenate reservoirs/windows) — the sharing_summary() convention."""
    merged: Dict = {
        "objective": DEFAULT_OBJECTIVE,
        "observed_total": 0,
        "violations_total": 0,
        "queries": {},
        "tenants": {},
    }
    for snapshot in snapshots:
        if not snapshot:
            continue
        merged["objective"] = snapshot.get("objective", merged["objective"])
        merged["observed_total"] += snapshot.get("observed_total", 0)
        merged["violations_total"] += snapshot.get("violations_total", 0)
        for qid, entry in snapshot.get("queries", {}).items():
            slot = merged["queries"].setdefault(
                qid,
                {
                    "count": 0,
                    "reservoir": [],
                    "target_ms": None,
                    "tenant": None,
                    "recent": [],
                },
            )
            slot["count"] += entry.get("count", 0)
            slot["reservoir"].extend(entry.get("reservoir", ()))
            target = entry.get("target_ms")
            if target is not None:
                slot["target_ms"] = (
                    target
                    if slot["target_ms"] is None
                    else max(slot["target_ms"], target)
                )
            if entry.get("tenant") is not None:
                slot["tenant"] = entry["tenant"]
            slot["recent"].extend(entry.get("recent", ()))
        for tenant, entry in snapshot.get("tenants", {}).items():
            slot = merged["tenants"].setdefault(
                tenant, {"count": 0, "reservoir": []}
            )
            slot["count"] += entry.get("count", 0)
            slot["reservoir"].extend(entry.get("reservoir", ()))
    return merged


def summary_from_snapshot(snapshot: Dict) -> Dict:
    """The :meth:`SLOTracker.summary` view of a (merged) snapshot —
    percentiles recomputed from the concatenated reservoirs."""
    objective = snapshot.get("objective", DEFAULT_OBJECTIVE)
    queries = {}
    max_burn = 0.0
    for qid, entry in sorted(snapshot.get("queries", {}).items()):
        samples = sorted(entry.get("reservoir", ()))
        out = {
            "count": entry.get("count", 0),
            "tenant": entry.get("tenant"),
            "target_ms": entry.get("target_ms"),
        }
        if samples:
            for p in SLO_PERCENTILES:
                rank = max(0, min(len(samples) - 1, int(p / 100.0 * len(samples))))
                out[f"p{p:g}"] = samples[rank]
        recent = entry.get("recent", ())
        if entry.get("target_ms") is not None and recent:
            burn = (sum(recent) / len(recent)) / (1.0 - objective)
            out["burn_rate"] = burn
            max_burn = max(max_burn, burn)
        queries[qid] = out
    tenants = {}
    for tenant, entry in sorted(snapshot.get("tenants", {}).items()):
        samples = sorted(entry.get("reservoir", ()))
        out = {"count": entry.get("count", 0)}
        if samples:
            for p in SLO_PERCENTILES:
                rank = max(0, min(len(samples) - 1, int(p / 100.0 * len(samples))))
                out[f"p{p:g}"] = samples[rank]
        tenants[tenant] = out
    return {
        "objective": objective,
        "observed_total": snapshot.get("observed_total", 0),
        "violations_total": snapshot.get("violations_total", 0),
        "max_burn_rate": max_burn,
        "queries": queries,
        "tenants": tenants,
    }
