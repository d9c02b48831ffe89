"""What the server should have delivered: the in-process reference pass.

The schedule is replayed through an in-process :class:`AStreamEngine`
with the server's own flush discipline (one changelog per control
request).  The pass records, per query, the delivered count, an
order-independent digest, and the cumulative count after every tick that
emitted — which is what attributes a subscriber receipt to the tick
whose due time its latency is measured from.  A sample of queries is
additionally checked against the query-at-a-time baseline.

Reference results are cached under ``bench/out/`` keyed by a hash of
the code that computes them and the schedule's content hash.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from bench import OUT_DIR, REPO_ROOT, SRC_DIR
from bench.workloads import Control, Schedule, Tick
from repro.baseline import QueryAtATimeEngine
from repro.core.engine import AStreamEngine
from repro.core.query import Query
from repro.core.shared_aggregation import AggregationResult
from repro.core.shared_join import JoinedTuple
from repro.minispe.cluster import ClusterSpec, SimulatedCluster
from repro.minispe.window_operators import JoinResult, WindowResult
from repro.serve import ServeConfig, build_engine
from repro.workloads.datagen import DataTuple

_MASK = (1 << 64) - 1
BASELINE_SAMPLE = 8


def fingerprint(timestamp: int, value: Any) -> Tuple:
    """One result as a flat tuple of ints, equal iff the results are.

    Covers both engines' payloads: the baseline's :class:`JoinResult`
    flattens to the same tuple as the shared join's :class:`JoinedTuple`
    (which repeats the output timestamp inside the payload).
    """
    if isinstance(value, DataTuple):
        return (timestamp, 0, value.key) + value.fields
    if isinstance(value, (AggregationResult, WindowResult)):
        return (timestamp, 1, value.key, value.window.start, value.window.end,
                value.value)
    if isinstance(value, JoinedTuple):
        flat = [timestamp, 2, value.key, value.timestamp]
        for part in value.parts:
            flat.append(part.key)
            flat.extend(part.fields)
        return tuple(flat)
    if isinstance(value, JoinResult):
        return (timestamp, 2, value.key, timestamp,
                value.left.key) + value.left.fields + (
                value.right.key,) + value.right.fields
    raise TypeError(f"unexpected result payload {type(value).__name__}")


def digest_of(fingerprints: Iterable[Tuple]) -> int:
    """Order-independent digest (int tuples hash the same in every process)."""
    total = 0
    for item in fingerprints:
        total = (total + hash(item)) & _MASK
    return total


@dataclass
class Reference:
    """Expected deliveries for one schedule."""

    counts: Dict[str, int]
    digests: Dict[str, int]
    emits: Dict[str, List[Tuple[int, int]]]
    """query → ``(tick index, cumulative count after it)`` per emitting tick."""

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def counts_through(self, tick_index: int) -> Dict[str, int]:
        """Results each query has produced by the end of ``tick_index``."""
        counts = {}
        for query_id, emits in self.emits.items():
            reached = 0
            for index, cumulative in emits:
                if index > tick_index:
                    break
                reached = cumulative
            counts[query_id] = reached
        return counts


def make_engine(backend: str = "inline") -> AStreamEngine:
    """An in-process engine built as ``repro serve --backend <b> --workers 2``
    builds its own, from the shipped ``ServeConfig`` defaults."""
    return build_engine(ServeConfig(backend=backend, workers=2, clock="manual"))


def apply_control(engine: AStreamEngine, control: Control, now_ms: int) -> None:
    """One create/delete as the server applies it: its own changelog."""
    if control.op == "create":
        engine.submit(control.query, now_ms)
    else:
        engine.stop(control.query_id, now_ms)
    engine.flush_session(now_ms)


def compute_reference(schedule: Schedule) -> Reference:
    """Replay the schedule in process and record what each query gets."""
    engine = make_engine()
    digests: Dict[str, int] = {}
    emits: Dict[str, List[Tuple[int, int]]] = {}

    def tap(query_id: str, timestamp: int, value: Any) -> None:
        digests[query_id] = (
            digests[query_id] + hash(fingerprint(timestamp, value))
        ) & _MASK

    def control(item: Control, now_ms: int, index: int) -> None:
        apply_control(engine, item, now_ms)
        if item.op == "create":
            digests[item.query_id] = 0
            emits[item.query_id] = []
            engine.channels.add_tap(item.query_id, tap)

    def watermark(index: int, tick: Tick) -> None:
        engine.watermark(tick.watermark_ms)
        for query_id, count in engine.result_counts().items():
            history = emits[query_id]
            if count != (history[-1][1] if history else 0):
                history.append((index, count))

    try:
        schedule.replay(
            control,
            lambda index, tick, stream, events: engine.push_many(stream, events),
            watermark,
        )
        counts = {query_id: engine.result_count(query_id) for query_id in digests}
    finally:
        engine.shutdown()
    return Reference(counts, digests, emits)


def code_identity() -> str:
    """Hash of what computes the reference: ``src/repro``, this file and
    the interpreter.

    The cached counts and digests come from running the in-tree engine
    and from the builtin ``hash`` of int tuples, so a change to either
    must miss the cache instead of judging the server by old results.
    """
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted((SRC_DIR / "repro").rglob("*.py")) + [Path(__file__)]:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _store_reference(schedule: Schedule, path: Path) -> None:
    reference = compute_reference(schedule)
    temporary = path.with_suffix(".tmp")
    temporary.write_text(
        json.dumps(
            {
                "counts": reference.counts,
                "digests": reference.digests,
                "emits": reference.emits,
            }
        )
    )
    temporary.replace(path)


def load_or_compute(schedule: Schedule) -> Tuple[Reference, bool]:
    """The schedule's reference, from the cache when present.

    A missing reference is computed in a child process and read back
    from the cache file, so the load generator's own heap is the same
    whether the cache was warm or not: computed in process, the replay
    left the generator measurably slower (its CPU share of phase S on
    ``agg-1000q`` rose from 0.13 to 0.21 and throughput fell by 10 %).
    """
    code = code_identity()
    path = OUT_DIR / f"reference_{code}_{schedule.identity()}.json"
    cached = path.exists()
    if not cached:
        OUT_DIR.mkdir(exist_ok=True)
        # What other code computed is never read again.
        for stale in OUT_DIR.glob("reference_*.json"):
            if not stale.name.startswith(f"reference_{code}_"):
                stale.unlink(missing_ok=True)
        # A plain child, waited for here: ``multiprocessing``'s spawn
        # context would also start a resource tracker that outlives us.
        subprocess.run(
            [sys.executable, "-m", "bench.reference", str(path)],
            input=pickle.dumps(schedule),
            cwd=REPO_ROOT,
            check=True,
        )
    document = json.loads(path.read_text())
    reference = Reference(
        document["counts"],
        document["digests"],
        {
            query_id: [tuple(pair) for pair in pairs]
            for query_id, pairs in document["emits"].items()
        },
    )
    return reference, cached


def baseline_sample(schedule: Schedule) -> List[Query]:
    """The seed-chosen queries checked against the baseline engine.

    Drawn from the initial population: the baseline aligns windows to
    the epoch and AStream to a query's creation, and only for queries
    created at time 0 do the two coincide.
    """
    rng = random.Random(schedule.seed)
    population = schedule.population
    return rng.sample(population, min(BASELINE_SAMPLE, len(population)))


def baseline_results(
    schedule: Schedule, sample: List[Query]
) -> Dict[str, List[Tuple]]:
    """Sorted result fingerprints of ``sample`` from ``QueryAtATimeEngine``."""
    wanted = {query.query_id for query in sample}
    engine = QueryAtATimeEngine(
        cluster=SimulatedCluster(ClusterSpec(nodes=len(sample))), parallelism=1
    )

    def control(item: Control, now_ms: int, index: int) -> None:
        if item.query_id not in wanted:
            return
        if item.op == "create":
            engine.submit(item.query, now_ms)
        else:
            engine.stop(item.query_id, now_ms)

    try:
        schedule.replay(
            control,
            lambda index, tick, stream, events: engine.push_many(stream, events),
            lambda index, tick: engine.watermark(tick.watermark_ms),
        )
        # The baseline's epoch-aligned sliding windows also fire the
        # partial windows that start before time 0; creation-anchored
        # windows do not exist there, so those results have no counterpart.
        return {
            query.query_id: sorted(
                fingerprint(output.timestamp, output.value)
                for output in engine.results(query.query_id)
                if getattr(output.value, "window", None) is None
                or output.value.window.start >= 0
            )
            for query in sample
        }
    finally:
        engine.shutdown()


if __name__ == "__main__":
    # The child of ``load_or_compute``: schedule pickled on stdin, cache
    # file to write as the only argument.
    _store_reference(pickle.load(sys.stdin.buffer), Path(sys.argv[1]))
