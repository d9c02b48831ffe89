"""Per-query CPU cost attribution with shared-work splitting.

Sharing makes naive per-query accounting wrong: one covering-group
evaluation serves every member query, so charging each member the full
evaluation over-counts, and charging only the "first" member starves the
rest.  Following the Shared Arrangements argument, amortized work must
be attributed *explicitly*: each unit of shared work is split equally
across the queries it served.

The engine exposes a **cost profile** — per stream, a list of work
entries ``{"queries": [...], "evaluations": n}`` where direct-predicate
entries carry the slot set sharing that predicate and covering-group
entries carry the group's member mask (``SharingGroup.slots_mask``).
:func:`attribute_costs` then splits the *measured* engine CPU total
proportionally over those work-unit weights.  Because attribution is a
proportional split of the measured total, the per-query shares sum to
the total exactly (the largest share absorbs the float remainder) — the
"within 1%" acceptance bound holds by construction, with the weights
deciding *fairness*, not *conservation*.

Profiles merge across shards with :func:`merge_cost_profiles` (counters
sum, keyed by stream + member set), mirroring ``sharing_summary()``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


def attribute_costs(total_ns: int, profile: Dict) -> Dict[str, object]:
    """Split ``total_ns`` of measured CPU across queries by work weight.

    ``profile`` is an engine cost profile::

        {"streams": {stream: [{"kind": ..., "queries": [...],
                               "evaluations": n}, ...]},
         "unattributed_evaluations": n,        # retired-view work etc.
         "engine_cpu_ns": n}                   # optional; overrides total

    Each entry's ``evaluations`` is split equally across its member
    queries; per-query weights are then normalized against the total
    weight (including unattributed work) so Σ shares == ``total_ns``
    exactly.  Returns ``{"total_ns", "queries": {qid: ns},
    "unattributed_ns", "weights": {qid: work units}}``.
    """
    weights: Dict[str, float] = {}
    unattributed = float(profile.get("unattributed_evaluations", 0) or 0)
    for entries in profile.get("streams", {}).values():
        for entry in entries:
            members = entry.get("queries") or ()
            work = float(entry.get("evaluations", 0) or 0)
            if work <= 0:
                continue
            if not members:
                unattributed += work
                continue
            share = work / len(members)
            for qid in members:
                weights[qid] = weights.get(qid, 0.0) + share
    total_weight = sum(weights.values()) + unattributed
    result: Dict[str, object] = {
        "total_ns": total_ns,
        "queries": {},
        "unattributed_ns": 0,
        "weights": weights,
    }
    if total_ns <= 0 or total_weight <= 0:
        result["unattributed_ns"] = max(0, total_ns)
        return result
    shares: Dict[str, int] = {
        qid: int(total_ns * weight / total_weight)
        for qid, weight in weights.items()
    }
    unattributed_ns = int(total_ns * unattributed / total_weight)
    # Integer truncation leaves a remainder; hand it to the largest
    # consumer (or the idle bucket) so the shares sum to total exactly.
    remainder = total_ns - sum(shares.values()) - unattributed_ns
    if remainder:
        if shares:
            top = max(shares, key=lambda q: shares[q])
            shares[top] += remainder
        else:
            unattributed_ns += remainder
    result["queries"] = dict(sorted(shares.items()))
    result["unattributed_ns"] = unattributed_ns
    return result


def merge_cost_profiles(profiles: Iterable[Optional[Dict]]) -> Dict:
    """Combine shard cost profiles: entries with the same stream, kind,
    and member set sum their evaluations; CPU meters sum.

    Accepts both resolved entries (``"queries"`` lists) and raw shard
    entries (``"slots"`` bitmasks — workers cannot resolve slot→query,
    so the coordinator merges raw profiles and resolves afterwards).
    """
    merged: Dict = {
        "streams": {},
        "unattributed_evaluations": 0,
        "engine_cpu_ns": 0,
    }
    buckets: Dict[str, Dict] = {}
    for profile in profiles:
        if not profile:
            continue
        merged["unattributed_evaluations"] += profile.get(
            "unattributed_evaluations", 0
        )
        merged["engine_cpu_ns"] += profile.get("engine_cpu_ns", 0)
        for stream, entries in profile.get("streams", {}).items():
            bucket = buckets.setdefault(stream, {})
            for entry in entries:
                key = (
                    entry.get("kind", ""),
                    entry.get("slots", -1),
                    tuple(sorted(entry.get("queries") or ())),
                )
                slot = bucket.get(key)
                if slot is None:
                    slot = bucket[key] = {
                        "kind": entry.get("kind", ""),
                        "evaluations": 0.0,
                    }
                    if "slots" in entry:
                        slot["slots"] = entry["slots"]
                    else:
                        slot["queries"] = list(key[2])
                slot["evaluations"] += float(entry.get("evaluations", 0) or 0)
    merged["streams"] = {
        stream: [bucket[key] for key in sorted(bucket)]
        for stream, bucket in sorted(buckets.items())
    }
    return merged


def cost_summary(attribution: Dict, top: int = 8) -> List[Dict]:
    """Inspector/stats view: the ``top`` most expensive queries with
    their absolute and fractional shares."""
    total = attribution.get("total_ns", 0) or 0
    rows = [
        {
            "query_id": qid,
            "cpu_ns": ns,
            "share": (ns / total) if total else 0.0,
        }
        for qid, ns in attribution.get("queries", {}).items()
    ]
    rows.sort(key=lambda row: (-row["cpu_ns"], row["query_id"]))
    return rows[:top]
