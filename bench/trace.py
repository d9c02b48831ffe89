"""The traced run: where the time goes, layer by layer, from outside.

End-to-end metrics are always taken with tracing off (``bench.run``).
This module produces the per-layer numbers by timing calls into each
layer's public functions on the same generated input:

* a short run against the real server, for server CPU per tuple, the
  generator's own health and the over-the-wire probes;
* an in-process *wire pass* — per tick ``client.encode`` →
  ``protocol.decode`` → ``engine.push`` → ``engine.watermark`` →
  ``protocol.result_encode`` → ``client.decode`` — whose delivered
  results are checked against the reference;
* an *operator pass* — stand-alone selection → aggregation | join →
  router → subscription buffers, each fed the previous stage's captured
  elements, so every stage time is a self time by construction.

Spans ``{name, start_ns, end_ns, parent, tick}`` stay in memory and are
written to ``bench/out/trace_<workload>.jsonl`` at the end.
"""

from __future__ import annotations

import gc
import json
import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench import OUT_DIR
from bench import reference as ref
from bench.loadgen import measure
from bench.run import end_to_end_metrics, verify
from bench.stats import weighted_percentile
from bench.workloads import (
    S_SHARE,
    WORKLOADS,
    Control,
    Schedule,
    Tick,
    build_schedule,
)
from repro.core.registry import QueryRegistry
from repro.core.router import QueryChannels, RouterOperator
from repro.core.selection import SharedSelectionOperator
from repro.core.serde import output_from_dict, output_to_dict
from repro.core.session import SharedSession
from repro.core.shared_aggregation import SharedAggregationOperator
from repro.core.shared_join import SharedJoinOperator
from repro.minispe.operators import Operator
from repro.minispe.record import ChangelogMarker, Record, RecordBatch, Watermark
from repro.minispe.runtime import stable_hash
from repro.serve import ServeConfig, SessionState, SubscriptionHub
from repro.serve.protocol import (
    HEADER_BYTES,
    decode_binary_payload,
    decode_events,
    decode_frame,
    encode_events,
    encode_frame,
    encode_push_binary,
    encode_result_binary,
)

TRACE_TUPLES = 20_000
"""The traced passes cover at most this prefix of phase S."""
JSON_SAMPLE_TICKS = 8
"""The JSON codec is timed on this many ticks only (it is the fallback)."""
STOP_SAMPLE = 50

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # name, unit, better
    ("loadgen.lag_max_ms", "ms", "lower"),
    ("loadgen.cpu_share", "ratio", "lower"),
    ("client.encode_ns_per_tuple.binary", "ns", "lower"),
    ("client.encode_ns_per_tuple.json", "ns", "lower"),
    ("client.decode_ns_per_result.binary", "ns", "lower"),
    ("client.decode_ns_per_result.json", "ns", "lower"),
    ("client.push_bytes_per_tuple", "bytes", "lower"),
    ("protocol.decode_ns_per_tuple.binary", "ns", "lower"),
    ("protocol.decode_ns_per_tuple.json", "ns", "lower"),
    ("protocol.result_encode_ns_per_result.binary", "ns", "lower"),
    ("protocol.result_encode_ns_per_result.json", "ns", "lower"),
    ("protocol.result_bytes_per_result", "bytes", "lower"),
    ("server.ping_rtt_us", "us", "lower"),
    ("server.push_rtt_us", "us", "lower"),
    ("server.push_after_watermark_ms", "ms", "lower"),
    ("server.cpu_us_per_tuple", "us", "lower"),
    ("subscriptions.flush_wait_ms", "ms", "lower"),
    ("subscriptions.shed_results", "count", "lower"),
    ("subscriptions.results_per_tuple", "count", "lower"),
    ("subscriptions.offer_ns_per_result", "ns", "lower"),
    ("subscriptions.take_ns_per_result", "ns", "lower"),
    ("latency.p50_ms", "ms", "lower"),
    ("latency.p90_ms", "ms", "lower"),
    ("deploy.p50_ms", "ms", "lower"),
    ("deploy.p95_ms", "ms", "lower"),
    ("engine.push_ns_per_tuple", "ns", "lower"),
    ("engine.watermark_ms_per_call", "ms", "lower"),
    ("engine.runtime_overhead_ns_per_tuple", "ns", "lower"),
    ("engine.submit_ms_per_query", "ms", "lower"),
    ("engine.stop_ms_per_query", "ms", "lower"),
    ("selection.tag_ns_per_tuple", "ns", "lower"),
    ("selection.predicate_evals_per_tuple", "count", "lower"),
    ("selection.pass_ratio", "ratio", "lower"),
    ("selection.marker_ms_per_changelog", "ms", "lower"),
    ("aggregation.fold_ns_per_tuple", "ns", "lower"),
    ("aggregation.fire_ms_per_watermark", "ms", "lower"),
    ("aggregation.bitset_ops_per_tuple", "count", "lower"),
    ("aggregation.results_per_tuple", "count", "lower"),
    ("join.process_ns_per_tuple", "ns", "lower"),
    ("join.fire_ms_per_watermark", "ms", "lower"),
    ("join.pairs_computed_per_tuple", "count", "lower"),
    ("join.pair_reuse_ratio", "ratio", "higher"),
    ("router.route_ns_per_result", "ns", "lower"),
    ("router.copies_per_result", "count", "lower"),
    ("ipc.push_ns_per_tuple", "ns", "lower"),
    ("ipc.watermark_ms_per_call", "ms", "lower"),
    ("ipc.shard_skew", "ratio", "lower"),
    ("state.checkpoint_ms", "ms", "lower"),
    ("trace.stage_coverage", "ratio", "higher"),
    ("trace.cpu_coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Spans:
    """In-memory span log; ``timed`` records one span around a call."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self.totals: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.per_tick: Dict[str, Dict[int, int]] = {}

    def timed(self, name: str, tick: int, call: Callable, *args: Any) -> Any:
        started = time.perf_counter_ns()
        result = call(*args)
        ended = time.perf_counter_ns()
        self.rows.append(
            {"name": name, "start_ns": started, "end_ns": ended,
             "parent": "tick", "tick": tick}
        )
        self.totals[name] = self.totals.get(name, 0) + ended - started
        self.calls[name] = self.calls.get(name, 0) + 1
        ticks = self.per_tick.setdefault(name, {})
        ticks[tick] = ticks.get(tick, 0) + ended - started
        return result

    def total(self, *names: str) -> int:
        return sum(self.totals.get(name, 0) for name in names)

    def tick_sums(self, *names: str) -> Dict[int, int]:
        """Per tick, the time spent in the named spans together."""
        sums: Dict[int, int] = {}
        for name in names:
            for tick, spent in self.per_tick.get(name, {}).items():
                sums[tick] = sums.get(tick, 0) + spent
        return sums

    def write(self, workload: str) -> str:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{workload}.jsonl"
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")
        return str(path)


def _columnar(stream: str, events: List) -> RecordBatch:
    """The batch exactly as the server's binary decoder hands it over."""
    return decode_binary_payload(encode_push_binary(stream, events)[HEADER_BYTES:])[
        "batch"
    ]


TRACED_PHASES = ("warmup", "S")
"""The in-process passes replay these phases; only phase S is timed."""


# -- wire pass -----------------------------------------------------------------------


def _subscribed(engine: Any) -> Tuple[SubscriptionHub, SessionState]:
    """A tap-mode hub and one session, as the server holds per subscriber."""
    return (
        SubscriptionHub(engine, tap_mode=True),
        SessionState(client_id="bench-trace", session_id="trace"),
    )


def _elapsed(call: Callable, *args: Any) -> int:
    started = time.perf_counter_ns()
    call(*args)
    return time.perf_counter_ns() - started


def wire_pass(schedule: Schedule, spans: Spans) -> Dict[str, Any]:
    """Client encode to client decode around an in-process engine.

    Results leave the engine the way they leave the server's: through a
    tap-mode :class:`SubscriptionHub` into bounded buffers (that cost is
    inside ``engine.push`` / ``engine.watermark``, as it is in the
    server), then ``take`` → ``result_encode`` → ``client.decode``.
    """
    engine = ref.make_engine()
    hub, session = _subscribed(engine)
    frame_outputs = ServeConfig().result_frame_outputs
    delivered: Dict[str, int] = {}
    sizes = {"push_bytes": 0, "result_bytes": 0, "tuples": 0, "results": 0,
             "json_tuples": 0, "json_results": 0}
    first_timed = next(i for i, tick in enumerate(schedule.ticks) if tick.phase == "S")
    json_ticks = range(first_timed, first_timed + JSON_SAMPLE_TICKS)
    submit_ns = 0

    def control(item: Control, now_ms: int, index: int) -> None:
        nonlocal submit_ns
        spent = _elapsed(ref.apply_control, engine, item, now_ms)
        if index < 0:
            submit_ns += spent  # the initial population's creates
        if item.op == "create":
            hub.subscribe(session, item.query_id)

    def push(index: int, tick: Tick, stream: str, events: List) -> None:
        if tick.phase != "S":
            engine.push_batch(stream, _columnar(stream, events))
            return
        raw = spans.timed("client.encode", index, encode_push_binary, stream, events)
        frame = spans.timed(
            "protocol.decode", index, decode_binary_payload, raw[HEADER_BYTES:]
        )
        spans.timed("engine.push", index, engine.push_batch, stream, frame["batch"])
        sizes["push_bytes"] += len(raw)
        sizes["tuples"] += len(events)
        if index in json_ticks:
            document = spans.timed(
                "client.encode.json", index,
                lambda: encode_frame(
                    {"t": "push", "stream": stream, "events": encode_events(events)}
                ),
            )
            spans.timed(
                "protocol.decode.json", index,
                lambda: decode_events(decode_frame(document[HEADER_BYTES:])["events"]),
            )
            sizes["json_tuples"] += len(events)

    def watermark(index: int, tick: Tick) -> None:
        if tick.phase != "S":
            engine.watermark(tick.watermark_ms)
        else:
            spans.timed("engine.watermark", index, engine.watermark, tick.watermark_ms)
        for query_id, subscription in session.subscriptions.items():
            while subscription.pending:
                if tick.phase != "S":
                    chunk, _ = subscription.take(frame_outputs)
                else:
                    chunk, _ = spans.timed(
                        "subscriptions.take", index, subscription.take, frame_outputs
                    )
                delivered[query_id] = delivered.get(query_id, 0) + len(chunk)
                if tick.phase != "S":
                    continue
                data = spans.timed(
                    "protocol.result_encode", index,
                    encode_result_binary, query_id, chunk, 0,
                )
                spans.timed(
                    "client.decode", index, decode_binary_payload, data[HEADER_BYTES:]
                )
                sizes["result_bytes"] += len(data)
                sizes["results"] += len(chunk)
                if index in json_ticks:
                    document = spans.timed(
                        "protocol.result_encode.json", index,
                        lambda: encode_frame(
                            {"t": "result", "query_id": query_id, "dropped": 0,
                             "outputs": [output_to_dict(o) for o in chunk]}
                        ),
                    )
                    spans.timed(
                        "client.decode.json", index,
                        lambda: [
                            output_from_dict(o)
                            for o in decode_frame(document[HEADER_BYTES:])["outputs"]
                        ],
                    )
                    sizes["json_results"] += len(chunk)

    try:
        schedule.replay(control, push, watermark, TRACED_PHASES)
        counters = engine.component_stats()
        checkpoint_ns = _elapsed(engine.checkpoint)
        live = [q.query_id for q in schedule.all_queries()
                if q.query_id in engine.session.registry][:STOP_SAMPLE]
        end_ms = schedule.ticks[schedule.last_index("S")].watermark_ms
        stop_ns = sum(
            _elapsed(ref.apply_control, engine, Control("delete", query_id), end_ms)
            for query_id in live
        )
    finally:
        engine.shutdown()

    return {
        **{f"count.{key}": value for key, value in counters.items()},
        **{f"size.{key}": value for key, value in sizes.items()},
        "submit_ms_per_query": submit_ns / 1e6 / max(1, len(schedule.population)),
        "stop_ms_per_query": stop_ns / 1e6 / max(1, len(live)),
        "checkpoint_ms": checkpoint_ns / 1e6,
        "counts": delivered,
    }


def plain_engine_pass(schedule: Schedule, backend: str) -> Dict[str, Any]:
    """The engine calls of the wire pass with no span around them.

    On the inline engine this is the tracing-off twin of the wire pass;
    on the process backend its excess over the inline figures is what
    IPC and the cross-shard merge cost.
    """
    engine = ref.make_engine(backend)
    # Poll-mode subscriptions (process backend) add nothing to engine calls.
    subscriber = _subscribed(engine) if backend == "inline" else None
    spent = {"push": 0, "watermark": 0, "tuples": 0, "calls": 0}
    per_tick: Dict[int, int] = {}

    def control(item: Control, now_ms: int, index: int) -> None:
        ref.apply_control(engine, item, now_ms)
        if subscriber is not None and item.op == "create":
            subscriber[0].subscribe(subscriber[1], item.query_id)

    def push(index: int, tick: Tick, stream: str, events: List) -> None:
        took = _elapsed(engine.push_batch, stream, _columnar(stream, events))
        if tick.phase == "S":
            spent["push"] += took
            per_tick[index] = per_tick.get(index, 0) + took

    def watermark(index: int, tick: Tick) -> None:
        took = _elapsed(engine.watermark, tick.watermark_ms) + _elapsed(engine.drain)
        if tick.phase == "S":
            spent["watermark"] += took
            spent["tuples"] += tick.tuples
            spent["calls"] += 1
            per_tick[index] = per_tick.get(index, 0) + took

    try:
        schedule.replay(control, push, watermark, TRACED_PHASES)
    finally:
        engine.shutdown()
    return {
        "push_ns_per_tuple": spent["push"] / max(1, spent["tuples"]),
        "watermark_ms_per_call": spent["watermark"] / 1e6 / max(1, spent["calls"]),
        "per_tick_ns": per_tick,
    }


# -- operator pass -------------------------------------------------------------------


class _Stage:
    """One stand-alone operator, its captured output and its self times."""

    def __init__(self, name: str, operator: Operator, spans: Spans) -> None:
        self.name = name
        self.operator = operator
        self.spans = spans
        self.captured: List[Any] = []
        operator.set_collector(self.captured.append)

    def feed(self, element: Any, tick: int, timed: bool, right: bool = False) -> None:
        """Hand one element over as ``DeployedInstance.deliver`` would."""
        operator = self.operator
        if isinstance(element, RecordBatch):
            kind = "data"
            if isinstance(operator, SharedJoinOperator):
                call = operator.process_right_batch if right else operator.process_left_batch
                args: Tuple = (element.records,)
            elif element.is_columnar and hasattr(operator, "process_columnar"):
                call, args = operator.process_columnar, (element,)
            else:
                call, args = operator.process_batch, (element.records,)
        elif isinstance(element, Record):
            kind = "data"
            if isinstance(operator, SharedJoinOperator):
                call = operator.process_right if right else operator.process_left
            else:
                call = operator.process
            args = (element,)
        elif isinstance(element, Watermark):
            kind, call, args = "watermark", operator.on_watermark, (element,)
        else:
            kind, call, args = "marker", operator.on_marker, (element,)
        if timed or kind == "marker":
            self.spans.timed(f"{self.name}.{kind}", tick, call, *args)
        else:
            call(*args)

    def take(self) -> List[Any]:
        taken, self.captured[:] = list(self.captured), []
        return taken


def _is_data(element: Any) -> bool:
    return isinstance(element, (Record, RecordBatch))


def operator_pass(schedule: Schedule, spans: Spans) -> Dict[str, float]:
    """Selection → aggregation | join → router, each stage on its own."""
    workload = schedule.workload
    served = ServeConfig()
    requests = SharedSession(
        registry=QueryRegistry(),
        batch_size=served.changelog_batch_size,
        timeout_ms=served.changelog_timeout_ms,
    )
    selections = {
        stream: _Stage("selection", SharedSelectionOperator(stream), spans)
        for stream in workload.streams
    }
    if workload.kind == "aggregation":
        shared: Optional[_Stage] = _Stage(
            "aggregation", SharedAggregationOperator("agg:A"), spans
        )
        stage_key = "agg:A"
    elif workload.kind == "join":
        shared = _Stage("join", SharedJoinOperator("join:A~B"), spans)
        stage_key = "join:A~B"
    else:
        shared, stage_key = None, "select:A"
    # The router delivers into retained channels, as the server's does;
    # a capture tap hands each delivery on to the subscription stage.
    channels = QueryChannels(retain_results=True)
    router = _Stage("router", RouterOperator(stage_key, channels), spans)
    router.operator.set_collector(lambda element: None)
    deliveries: List[Tuple[str, int, Any]] = []
    hub, session = _subscribed(
        SimpleNamespace(
            channels=QueryChannels(retain_results=False),
            results=lambda query_id: [],
        )
    )

    def capture(query_id: str, timestamp: int, value: Any) -> None:
        deliveries.append((query_id, timestamp, value))

    def offer_all() -> None:
        deliver = hub.engine.channels.deliver
        for query_id, timestamp, value in deliveries:
            deliver(query_id, timestamp, value)

    def through(elements_by_stream: Dict[str, List[Any]], tick: int, timed: bool) -> None:
        """Push one tick's per-stream elements through every stage."""
        outputs: Dict[str, List[Any]] = {}
        for stream, elements in elements_by_stream.items():
            stage = selections[stream]
            for element in elements:
                stage.feed(element, tick, timed)
            outputs[stream] = stage.take()
        left = outputs["A"]
        if shared is None:
            downstream = left
        else:
            # Control elements are aligned across inputs: the shared
            # operator sees each marker and watermark once.
            for element in left:
                if not _is_data(element) and not isinstance(element, Watermark):
                    shared.feed(element, tick, timed)
            for element in left:
                if _is_data(element):
                    shared.feed(element, tick, timed)
            for element in outputs.get("B", ()):
                if _is_data(element):
                    shared.feed(element, tick, timed, right=True)
            for element in left:
                if isinstance(element, Watermark):
                    shared.feed(element, tick, timed)
            downstream = shared.take()
        for element in downstream:
            router.feed(element, tick, timed)
        if timed:
            spans.timed("subscriptions.offer", tick, offer_all)
        else:
            offer_all()
        deliveries.clear()
        for subscription in session.subscriptions.values():
            subscription.buffer.clear()  # the wire pass times ``take``

    def control(item: Control, now_ms: int, index: int) -> None:
        if item.op == "create":
            requests.submit(item.query, now_ms)
        else:
            requests.stop(item.query_id, now_ms)
        marker = ChangelogMarker(timestamp=now_ms, changelog=requests.flush(now_ms))
        through({stream: [marker] for stream in workload.streams}, index, False)
        if item.op == "create":
            channels.add_tap(item.query_id, capture)
            hub.subscribe(session, item.query_id)

    arrived: Dict[str, List[Any]] = {}
    tuples = 0

    def push(index: int, tick: Tick, stream: str, events: List) -> None:
        arrived[stream] = [_columnar(stream, events)]

    def watermark(index: int, tick: Tick) -> None:
        nonlocal tuples
        mark = Watermark(timestamp=tick.watermark_ms)
        through(
            {stream: elements + [mark] for stream, elements in arrived.items()},
            index,
            tick.phase == "S",
        )
        arrived.clear()
        tuples += tick.tuples if tick.phase == "S" else 0

    schedule.replay(control, push, watermark, TRACED_PHASES)
    return {"tuples": tuples, "results": channels.total_delivered()}


# -- the traced run ------------------------------------------------------------------


def _median_ratio(above: Dict[int, int], below: Dict[int, int]) -> float:
    """Median over ticks of ``above / below``, each tick weighted by ``below``.

    The two passes run the same work tick for tick but seconds apart, on
    a host whose speed wanders; the ratio of their totals inherits that,
    the median of per-tick ratios does not.  The weights keep the median
    on the ticks where the time goes: windows fire on one tick in four.
    """
    pairs = [
        (above[tick] / below[tick], below[tick]) for tick in above if below.get(tick)
    ]
    return weighted_percentile(pairs, 50.0) if pairs else 0.0


def _shard_skew(schedule: Schedule, workers: int = 2) -> float:
    """max/mean tuples per shard under the pool's key hashing."""
    shards = [0] * workers
    for tick in schedule.phase("S"):
        for _, events in tick.batches:
            for _, value in events:
                shards[stable_hash(value.key) % workers] += 1
    return max(shards) / (sum(shards) / workers)


def in_process_layers(
    schedule: Schedule, reference: ref.Reference, spans: Spans
) -> Tuple[Dict[str, float], float, List[str]]:
    """Wire pass, operator pass and plain passes → in-process layer metrics.

    Also returns the server-side layers' time per tuple in µs (the
    numerator of ``trace.cpu_coverage``) and what did not add up.
    """
    workload = schedule.workload
    findings: List[str] = []
    wire = wire_pass(schedule, spans)
    expected = reference.counts_through(schedule.last_index("S"))
    if {q: c for q, c in wire["counts"].items() if c} != {
        q: c for q, c in expected.items() if c
    }:
        findings.append("wire pass delivered other results than the reference")
    stages = operator_pass(schedule, spans)
    if stages["results"] < wire["size.results"]:
        findings.append("operator pass delivered fewer results than the wire pass")
    plain = plain_engine_pass(schedule, "inline")

    tuples = max(1, stages["tuples"])
    all_tuples = tuples + schedule.tuples("warmup")  # what the counters saw
    results = max(1, wire["size.results"])
    json_tuples = max(1, wire["size.json_tuples"])
    json_results = max(1, wire["size.json_results"])
    engine_ticks = spans.tick_sums("engine.push", "engine.watermark")
    stage_names = [
        name for name in spans.totals
        if name.split(".")[0] in ("selection", "aggregation", "join", "router")
        and not name.endswith(".marker")
    ] + ["subscriptions.offer"]

    def ns_per(name: str, count: int) -> float:
        return spans.total(name) / count

    def ms_per_call(name: str) -> float:
        return spans.total(name) / 1e6 / max(1, spans.calls.get(name, 0))

    metrics = {
        "client.encode_ns_per_tuple.binary": ns_per("client.encode", tuples),
        "client.encode_ns_per_tuple.json": ns_per("client.encode.json", json_tuples),
        "client.decode_ns_per_result.binary": ns_per("client.decode", results),
        "client.decode_ns_per_result.json": ns_per("client.decode.json", json_results),
        "client.push_bytes_per_tuple": wire["size.push_bytes"] / tuples,
        "protocol.decode_ns_per_tuple.binary": ns_per("protocol.decode", tuples),
        "protocol.decode_ns_per_tuple.json": ns_per("protocol.decode.json", json_tuples),
        "protocol.result_encode_ns_per_result.binary": ns_per(
            "protocol.result_encode", results
        ),
        "protocol.result_encode_ns_per_result.json": ns_per(
            "protocol.result_encode.json", json_results
        ),
        "protocol.result_bytes_per_result": wire["size.result_bytes"] / results,
        "subscriptions.results_per_tuple": wire["size.results"] / tuples,
        "subscriptions.offer_ns_per_result": ns_per("subscriptions.offer", results),
        "subscriptions.take_ns_per_result": ns_per("subscriptions.take", results),
        "engine.push_ns_per_tuple": ns_per("engine.push", tuples),
        "engine.watermark_ms_per_call": ms_per_call("engine.watermark"),
        "engine.runtime_overhead_ns_per_tuple": (
            spans.total("engine.push", "engine.watermark") - spans.total(*stage_names)
        ) / tuples,
        "engine.submit_ms_per_query": wire["submit_ms_per_query"],
        "engine.stop_ms_per_query": wire["stop_ms_per_query"],
        "selection.tag_ns_per_tuple": ns_per("selection.data", tuples),
        "selection.predicate_evals_per_tuple": wire["count.predicate_evaluations"]
        / all_tuples,
        "selection.pass_ratio": 1.0 - wire["count.selection_dropped"] / all_tuples,
        "selection.marker_ms_per_changelog": ms_per_call("selection.marker"),
        "aggregation.fold_ns_per_tuple": ns_per("aggregation.data", tuples),
        "aggregation.fire_ms_per_watermark": ms_per_call("aggregation.watermark"),
        "aggregation.bitset_ops_per_tuple": 0.0 if workload.kind == "join"
        else wire["count.bitset_ops"] / all_tuples,
        "aggregation.results_per_tuple": 0.0 if workload.kind != "aggregation"
        else wire["count.results_emitted"] / all_tuples,
        "join.process_ns_per_tuple": ns_per("join.data", tuples),
        "join.fire_ms_per_watermark": ms_per_call("join.watermark"),
        "join.pairs_computed_per_tuple": wire["count.join_pairs_computed"] / all_tuples,
        "join.pair_reuse_ratio": wire["count.join_pairs_reused"]
        / max(1, wire["count.join_pairs_computed"] + wire["count.join_pairs_reused"]),
        "router.route_ns_per_result": spans.total("router.data", "router.watermark")
        / results,
        "router.copies_per_result": wire["count.router_copies"]
        / max(1, wire["count.results_emitted"] or wire["count.router_copies"]),
        "ipc.push_ns_per_tuple": 0.0,
        "ipc.watermark_ms_per_call": 0.0,
        "ipc.shard_skew": 0.0,
        "state.checkpoint_ms": wire["checkpoint_ms"],
        "trace.stage_coverage": _median_ratio(
            spans.tick_sums(*stage_names), engine_ticks
        ),
        "trace.overhead_ratio": _median_ratio(engine_ticks, plain["per_tick_ns"]),
    }
    server_layers_us = spans.total(
        "protocol.decode", "engine.push", "engine.watermark",
        "subscriptions.take", "protocol.result_encode",
    ) / 1e3 / tuples
    if workload.backend == "process":
        sharded = plain_engine_pass(schedule, "process")
        # Negative when the coordinator only enqueues and the workers fold.
        metrics["ipc.push_ns_per_tuple"] = (
            sharded["push_ns_per_tuple"] - plain["push_ns_per_tuple"]
        )
        metrics["ipc.watermark_ms_per_call"] = (
            sharded["watermark_ms_per_call"] - plain["watermark_ms_per_call"]
        )
        metrics["ipc.shard_skew"] = _shard_skew(schedule)
    return metrics, server_layers_us, findings


def trace_workload(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Run the traced passes for one workload; returns the full record."""
    workload = WORKLOADS[name]
    prefix = min(TRACE_TUPLES, int(workload.s_tuples_per_second * S_SHARE * seconds))
    schedule = build_schedule(workload, seed, seconds, s_tuples=prefix)
    reference, _ = ref.load_or_compute(schedule)
    measurement = measure(schedule, reference, probes=True)
    failed, findings = verify(schedule, reference, measurement)
    _, served = end_to_end_metrics(reference, measurement)
    probes, shed = measurement.probes, measurement.shed
    del measurement  # its retained outputs are no longer needed

    # The in-process passes run with the cycle collector off: a
    # collection lands on whichever span is open when it triggers, which
    # would smear tens of milliseconds over arbitrary layers.  What the
    # server pays for collection shows up as the part of its CPU that
    # ``trace.cpu_coverage`` leaves unexplained.
    spans = Spans()
    gc.collect()
    gc.disable()
    try:
        layers, server_layers_us, layer_findings = in_process_layers(
            schedule, reference, spans
        )
    finally:
        gc.enable()
    findings.extend(layer_findings)

    metrics = {
        **layers,
        **probes,
        "loadgen.lag_max_ms": served["loadgen.lag_max_ms"],
        "loadgen.cpu_share": served["loadgen.cpu_share"],
        "server.cpu_us_per_tuple": served["server_cpu_us_per_tuple"],
        "subscriptions.shed_results": float(shed),
        # A prefix this short may hold no result burst at all.
        "latency.p50_ms": served["latency_p50_ms"] or 0.0,
        "latency.p90_ms": served["latency_p90_ms"] or 0.0,
        "deploy.p50_ms": served["deploy_p50_ms"],
        "deploy.p95_ms": served["deploy_p95_ms"],
        "trace.cpu_coverage": server_layers_us / served["server_cpu_us_per_tuple"],
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "input": schedule.identity(),
        "correct": not findings,
        "attempted": max(1, reference.total),
        "failed": max(failed, len(findings)),
        "metrics": {name: metrics[name] for name, _, _ in PER_LAYER},
        "findings": findings,
        "span_file": spans.write(name),
        "spans": len(spans.rows),
    }
