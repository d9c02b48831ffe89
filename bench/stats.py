"""Percentiles, spreads and the latency attribution rule.

Latency of a result is the receipt time of its ``result`` frame at the
subscriber minus the *due* time of the tick that emitted it.  Due times
are fixed before the run, so a stalled generator raises the reported
latency instead of hiding it (no coordinated omission).
"""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def weighted_percentile(pairs: Sequence[Tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile of values repeated by their weights."""
    ordered = sorted(pairs)
    total = sum(weight for _, weight in ordered)
    if total <= 0:
        raise ValueError("percentile of no values")
    target = max(1, -(-total * q // 100))
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= target:
            return value
    return ordered[-1][0]


def highest_supported_percentile(samples: int) -> float:
    """The highest ladder percentile with ten samples beyond it."""
    supported = [
        q for q in PERCENTILE_LADDER if samples * (100.0 - q) / 100.0 >= SAMPLES_BEYOND
    ]
    return supported[-1] if supported else PERCENTILE_LADDER[0]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


Receipt = Tuple[int, int]
"""``(receipt time ns, outputs in the frame)`` for one result frame."""


def attribute_latencies(
    receipts: Dict[str, List[Receipt]],
    emits: Dict[str, List[Tuple[int, int]]],
    due_ns: Dict[int, int],
) -> Dict[int, List[Tuple[float, int]]]:
    """Per due tick, ``(latency ms, results)`` pairs of what it emitted.

    A query's i-th received result belongs to the tick whose cumulative
    count first exceeds i (``emits`` comes from the reference pass).
    Ticks without a due time (warm-up, phase S) are skipped.
    """
    by_tick: Dict[int, List[Tuple[float, int]]] = {tick: [] for tick in due_ns}
    for query_id, frames in receipts.items():
        history = emits.get(query_id, [])
        bounds = [cumulative for _, cumulative in history]
        position = 0
        for received_ns, count in frames:
            end = position + count
            while position < end:
                slot = bisect.bisect_right(bounds, position)
                if slot >= len(history):
                    break  # more results than the reference: counted as loss
                tick, cumulative = history[slot]
                share = min(end, cumulative) - position
                due = due_ns.get(tick)
                if due is not None:
                    by_tick[tick].append(((received_ns - due) / 1e6, share))
                position += share
            position = end
    return by_tick


QUIET_SHARE = 25.0
"""The host this runs on slows down in episodes and never speeds up: the
noise is one-sided.  Beside every whole-phase figure the run therefore
prints a *quiet-side* diagnostic — the quartile toward the undisturbed
side of the phase's blocks (an event-second of phase S, a result burst
of phase L).  It estimates what the phase would have shown on a calm
host; it is never a gate, because a change that slows three blocks in
four does not move it."""


def quiet_high(values: Sequence[float]) -> float:
    """Upper-quartile block of a higher-is-better quantity."""
    return percentile(values, 100.0 - QUIET_SHARE)


def quiet_low(values: Sequence[float]) -> float:
    """Lower-quartile block of a lower-is-better quantity."""
    return percentile(values, QUIET_SHARE)


def latency_summary(
    by_tick: Dict[int, List[Tuple[float, int]]]
) -> Optional[Dict[str, float]]:
    """Per-result latency percentiles of phase L, and their support.

    ``p50_ms``/``p90_ms``/``p99_ms`` are percentiles over every result
    of the phase.  Results arrive in per-watermark bursts, so the
    independent sample is the emitting tick: ``supported`` is the
    highest percentile with ten *bursts* beyond it.  ``quiet_burst_*``
    are the lower-quartile burst's own median and 90th percentile.
    """
    bursts = [samples for samples in by_tick.values() if samples]
    if not bursts:
        return None
    pairs = [pair for samples in bursts for pair in samples]
    return {
        "p50_ms": weighted_percentile(pairs, 50.0),
        "p90_ms": weighted_percentile(pairs, 90.0),
        "p99_ms": weighted_percentile(pairs, 99.0),
        "quiet_burst_p50_ms": quiet_low(
            [weighted_percentile(burst, 50.0) for burst in bursts]
        ),
        "quiet_burst_p90_ms": quiet_low(
            [weighted_percentile(burst, 90.0) for burst in bursts]
        ),
        "results": sum(weight for _, weight in pairs),
        "samples": len(bursts),
        "supported": highest_supported_percentile(len(bursts)),
    }
