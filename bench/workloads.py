"""The six named workloads and the input schedule each one generates.

A workload fixes everything but the data: query kind and population,
backend, key space, event-time density and phase sizes.  The query
population is part of the workload's identity (``select-8q-fanout`` is
"about 3.5 results per tuple" only for one particular draw of eight
predicates), so it is drawn from the paper's :class:`QueryGenerator`
with the workload's own fixed seed; ``--seed`` draws the tuples.  All
inputs are generated before any timing starts: the server only ever
sees frames.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.query import Query
from repro.core.serde import query_to_dict
from repro.serve.protocol import encode_frame, encode_push_binary
from repro.workloads.datagen import DataGenerator, DataTuple
from repro.workloads.querygen import QueryGenerator

Event = Tuple[int, DataTuple]

S_TICK_MS = 250
"""Phase S: one watermark per 250 event-ms."""
WARMUP_MS = 2_000
S_SHARE = 0.7
"""Share of ``--seconds`` sized for phase S; phase L takes the rest.
Phase S carries the gated throughput, whose steadiness grows with its
length; phase L only feeds diagnostics."""
POPULATION_SEED = 20190630


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (see bench/README.md)."""

    name: str
    kind: str
    """``selection`` | ``aggregation`` | ``join`` (QueryGenerator kinds)."""
    queries: int
    backend: str
    key_max: int
    rate: int
    """Tuples per event-second per stream."""
    s_tuples_per_second: int
    """Phase S input per second of its time share: sized so the phase
    lasts about that share on the code this benchmark was defined on."""
    why: str
    churn: int = 0
    """Queries deleted and created at every whole event-second."""
    l_tick_ms: int = 100
    """Phase L: wall time between ticks; each tick is one push per
    stream (``rate`` tuples per wall-second) and one watermark."""
    l_event_ms: int = 100
    """Phase L: event time one tick spans.  Above ``l_tick_ms`` the
    stream is thinner in event time than in phase S and windows fire
    more often per wall-second, which is what gives a short phase
    enough result bursts to take a quantile over."""

    @property
    def streams(self) -> Tuple[str, ...]:
        return ("A", "B") if self.kind == "join" else ("A",)

    def config(self) -> Dict[str, object]:
        """The fields that decide the generated input."""
        return dataclasses.asdict(self)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "select-8q-fanout", "selection", 8, "inline", 1000, 2500, 9_600,
            "about 3.5 results per tuple and almost no operator work: wire "
            "decode/encode, subscriptions and the client dominate",
        ),
        Workload(
            "agg-100q", "aggregation", 100, "inline", 32, 2000, 7_000,
            "the steady-state core: selection tagging and the slicing/"
            "aggregation fold dominate, few results, little wire",
            l_event_ms=500,
        ),
        Workload(
            "join-100q", "join", 100, "inline", 1000, 250, 1_550,
            "shared join, slice stores and pair cache; result-heavy, so "
            "the router and the result path matter",
            l_event_ms=250,
        ),
        Workload(
            "agg-1000q", "aggregation", 1000, "inline", 16, 200, 500,
            "the per-query fold and window-fire wall; the only workload "
            "whose set-up time is large",
        ),
        Workload(
            "agg-100q-churn", "aggregation", 100, "inline", 32, 2000, 6_700,
            "agg-100q with 10 queries replaced every event-second: epoch "
            "views, selection plans and slice grids are rebuilt under load",
            churn=10,
            l_event_ms=250,
        ),
        Workload(
            "agg-100q-proc2", "aggregation", 100, "process", 32, 2000, 4_300,
            "the process-backend twin of agg-100q on the same input prefix: "
            "IPC, cross-shard merge and poll-mode subscriptions",
            # ten watermarks a second overload this backend; four do not
            l_tick_ms=250,
            l_event_ms=500,
        ),
    )
}


@dataclass(frozen=True)
class Control:
    """One ad-hoc request issued at the start of a tick."""

    op: str
    """``create`` | ``delete``."""
    query_id: str
    query: Optional[Query] = None


@dataclass
class Tick:
    """One pusher step: controls, one batch per stream, one watermark."""

    phase: str
    """``warmup`` | ``S`` | ``L``."""
    start_ms: int
    batches: List[Tuple[str, List[Event]]]
    watermark_ms: int
    controls: List[Control] = field(default_factory=list)

    @property
    def tuples(self) -> int:
        return sum(len(events) for _, events in self.batches)


@dataclass
class Schedule:
    """Everything one run sends, in order."""

    workload: Workload
    seed: int
    population: List[Query]
    ticks: List[Tick]

    def phase(self, name: str) -> List[Tick]:
        return [tick for tick in self.ticks if tick.phase == name]

    def tuples(self, phase: str) -> int:
        return sum(tick.tuples for tick in self.phase(phase))

    def last_index(self, phase: str) -> int:
        """Index in ``ticks`` of the phase's last tick."""
        return max(i for i, tick in enumerate(self.ticks) if tick.phase == phase)

    def replay(
        self,
        control: Callable[[Control, int, int], None],
        push: Callable[[int, Tick, str, List[Event]], None],
        watermark: Callable[[int, Tick], None],
        phases: Tuple[str, ...] = ("warmup", "S", "L"),
    ) -> None:
        """Drive one in-process pass through the schedule, in wire order.

        The population's creates at time 0 (tick index -1), then per
        tick of ``phases`` its controls, one ``push`` per stream and one
        ``watermark``.  Every pass that is compared with another (the
        reference, the baseline, the traced passes) goes through here,
        so they cannot disagree about the order of operations.
        """
        for query in self.population:
            control(Control("create", query.query_id, query), 0, -1)
        for index, tick in enumerate(self.ticks):
            if tick.phase not in phases:
                continue
            for item in tick.controls:
                control(item, tick.start_ms, index)
            for stream, events in tick.batches:
                push(index, tick, stream, events)
            watermark(index, tick)

    def all_queries(self) -> List[Query]:
        """Initial population plus every churn-created query, in order."""
        created = [
            control.query
            for tick in self.ticks
            for control in tick.controls
            if control.op == "create"
        ]
        return list(self.population) + created

    def frame_hash(self) -> str:
        """Content hash of every frame the schedule puts on the wire."""
        digest = hashlib.sha256()
        for query in self.population:
            digest.update(_control_bytes(Control("create", query.query_id, query), 0))
        for tick in self.ticks:
            for control in tick.controls:
                digest.update(_control_bytes(control, tick.start_ms))
            for stream, events in tick.batches:
                digest.update(encode_push_binary(stream, events))
            digest.update(
                encode_frame({"t": "watermark", "timestamp": tick.watermark_ms})
            )
        return digest.hexdigest()

    def identity(self) -> str:
        """Stable id of (workload config, seed, sizes): the cache key."""
        payload = json.dumps(
            {
                "config": self.workload.config(),
                "seed": self.seed,
                "frames": self.frame_hash(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _control_bytes(control: Control, at_ms: int) -> bytes:
    frame = {"t": f"{control.op}_query", "seq": 0, "at_ms": at_ms}
    if control.query is not None:
        frame["query"] = query_to_dict(control.query)
    else:
        frame["query_id"] = control.query_id
    return encode_frame(frame)


def _named_queries(kind: str) -> Iterator[Query]:
    """Generator-drawn queries with run-independent ids.

    Ids carry no workload name, so ``agg-100q``, its churn variant and
    its process-backend twin share their first hundred queries.
    """
    generator = QueryGenerator(streams=("A", "B"), seed=POPULATION_SEED)
    for index in itertools.count():
        if kind == "selection":
            query = generator.selection_query("A")
        else:
            query = generator.query(kind)
        yield dataclasses.replace(query, query_id=f"q{index:05d}")


def _tick_batches(
    generators: Dict[str, DataGenerator], start_ms: int, span_ms: int, per_tick: int
) -> List[Tuple[str, List[Event]]]:
    return [
        (
            stream,
            [
                (start_ms + (i * span_ms) // per_tick, generator.next_tuple())
                for i in range(per_tick)
            ],
        )
        for stream, generator in generators.items()
    ]


def build_schedule(
    workload: Workload, seed: int, seconds: float, s_tuples: Optional[int] = None
) -> Schedule:
    """Generate one run's inputs from ``seed``, sized by ``seconds``.

    ``s_tuples`` overrides the size of phase S (the traced run measures a
    fixed prefix); phase L always lasts its share of ``seconds``.
    """
    streams = workload.streams
    generators = {
        stream: DataGenerator(seed=seed * 7919 + index, key_max=workload.key_max)
        for index, stream in enumerate(streams)
    }
    s_per_tick = workload.rate * S_TICK_MS // 1_000
    if s_tuples is None:
        s_tuples = int(workload.s_tuples_per_second * S_SHARE * seconds)
    # Whole event-seconds, so that phase S divides into equal blocks.
    s_seconds = max(1, s_tuples // (workload.rate * len(streams)))
    s_ticks = s_seconds * 1_000 // S_TICK_MS
    l_ticks = max(1, int((1.0 - S_SHARE) * seconds * 1_000) // workload.l_tick_ms)
    l_per_tick = workload.rate * workload.l_tick_ms // 1_000

    plan = (
        [("warmup", S_TICK_MS, s_per_tick)] * (WARMUP_MS // S_TICK_MS)
        + [("S", S_TICK_MS, s_per_tick)] * s_ticks
        + [("L", workload.l_event_ms, l_per_tick)] * l_ticks
    )
    queries = _named_queries(workload.kind)
    population = [next(queries) for _ in range(workload.queries)]
    live = [query.query_id for query in population]

    ticks: List[Tick] = []
    now_ms = 0
    for phase, span_ms, per_tick in plan:
        controls: List[Control] = []
        # A churn round at every tick that starts a new event-second.
        if workload.churn and ticks and now_ms // 1_000 > ticks[-1].start_ms // 1_000:
            for _ in range(workload.churn):
                controls.append(Control("delete", live.pop(0)))
            for _ in range(workload.churn):
                query = next(queries)
                live.append(query.query_id)
                controls.append(Control("create", query.query_id, query))
        ticks.append(
            Tick(
                phase,
                now_ms,
                _tick_batches(generators, now_ms, span_ms, per_tick),
                now_ms + span_ms,
                controls,
            )
        )
        now_ms += span_ms
    return Schedule(workload, seed, population, ticks)
