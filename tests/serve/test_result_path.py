"""The result path, counted and replayed with no clock.

A fired window is one run from the operator to the socket: handed to
its channel once and read in place by subscribers.  These tests pin that
directly:

* (a) firing one window of K keys for one query builds one record and
  no ``QueryOutput`` or ``AggregationResult``, makes one ``deliver_run``
  call and resolves its route at most once per distinct query-set per
  changelog;
* (b) on the inline engine the hub registers no tap, subscribes with a
  ``CursorSubscription`` and never calls the poll-mode
  ``Subscription.offer``;
* (c) a cursor subscription yields the frames — outputs and ``dropped``
  — that a buffer offered every result would, through capacity
  overflow, pressure toggles, ``from_start`` both ways, resubscribe
  and unsubscribe;
* (d) after ``engine.recover()`` a subscription neither re-sends nor
  skips a result, also when the hub trims the channel behind its cursor
  after every take (recovery restores the checkpoint's base and runs,
  the same twice over).

Also here: a ``drain`` keeps one checkpoint, the slotted result classes
keep their equality, pickling and wire bytes, a cursor's chunk of runs
encodes to the bytes of its outputs (falling back to JSON as they do),
and a flush visits only the subscriptions whose channels moved, in the
frame order it always had.
"""

import hashlib
import pickle
import random
from collections import Counter, deque
from types import SimpleNamespace

import pytest

from repro.core import router as router_module
from repro.core import shared_aggregation as aggregation_module
from repro.core.engine import AStreamEngine, EngineConfig
from repro.core.query import (
    AggregationKind,
    AggregationQuery,
    AggregationSpec,
    SelectionQuery,
    TruePredicate,
    WindowSpec,
)
from repro.core.router import QueryChannels, QueryOutput, RouterOperator
from repro.core.selection import QS_TAG
from repro.core.serde import output_to_dict
from repro.core.shared_aggregation import AggregationResult, WindowRun
from repro.core.shared_join import JoinedTuple
from repro.minispe.record import Record
from repro.minispe.windows import Window
from repro.serve import ServeConfig
from repro.serve.protocol import encode_frame, encode_result_binary
from repro.serve.state import SessionState
from repro.serve.subscriptions import (
    CursorSubscription,
    Subscription,
    SubscriptionHub,
)
from repro.workloads.datagen import DataTuple
from tests.core.test_router import _marker, _selection
from tests.serve.test_server_core import PipeClient, make_pipe  # noqa: F401

SQL_SELECT = "SELECT * FROM A WHERE A.F0 > 10"


def _tuple(key, f0=50):
    return DataTuple(key=key, fields=(f0, 1, 2, 3, 4))


def _agg_engine(query_id, **config):
    engine = AStreamEngine(
        EngineConfig(streams=("A",), parallelism=1, **config)
    )
    engine.submit(
        AggregationQuery(
            stream="A",
            predicate=TruePredicate(),
            window_spec=WindowSpec.tumbling(1_000),
            aggregation=AggregationSpec(AggregationKind.SUM, 0),
            query_id=query_id,
        ),
        now_ms=0,
    )
    engine.flush_session(now_ms=0)
    return engine


# -- (a) work counts --------------------------------------------------------------


def test_a_fired_window_is_one_run_one_call_one_route(monkeypatch):
    keys = 6
    engine = _agg_engine("rp-agg-a")
    for window_start in (0, 1_000):
        for key in range(keys):
            engine.push("A", window_start + 10 + key, _tuple(key))

    built = Counter()
    calls = []
    routes = []

    def counting(name, cls):
        def build(*args, **kwargs):
            built[name] += 1
            return cls(*args, **kwargs)

        return build

    def counting_call(kind, call):
        def hand_over(query_id, items):
            calls.append((kind, query_id, len(items)))
            call(query_id, items)

        return hand_over

    build_route = RouterOperator._build_route

    def counting_build_route(router, bits):
        routes.append(bits)
        return build_route(router, bits)

    monkeypatch.setattr(router_module, "QueryOutput", counting("output", QueryOutput))
    monkeypatch.setattr(
        aggregation_module, "AggregationResult",
        counting("result", AggregationResult),
    )
    monkeypatch.setattr(aggregation_module, "Record", counting("record", Record))
    channels = engine.channels
    monkeypatch.setattr(
        channels, "deliver_run", counting_call("run", channels.deliver_run)
    )
    monkeypatch.setattr(
        channels, "deliver_many", counting_call("list", channels.deliver_many)
    )
    monkeypatch.setattr(RouterOperator, "_build_route", counting_build_route)

    engine.watermark(1_500)  # fires [0, 1000): one record, no object per key
    assert (dict(built), calls, len(routes)) == (
        {"record": 1}, [("run", "rp-agg-a", keys)], 1
    )
    engine.watermark(2_500)  # fires [1000, 2000): same query-set, same changelog
    assert dict(built) == {"record": 2}
    assert calls == [("run", "rp-agg-a", keys)] * 2
    assert len(routes) == 1

    # A new changelog invalidates the route table: one more resolution.
    engine.submit(SelectionQuery(stream="A", predicate=TruePredicate(),
                                 query_id="rp-sel-a"), now_ms=2_500)
    engine.flush_session(now_ms=2_500)
    engine.push_many("A", [(2_600 + key, _tuple(key)) for key in range(keys)])
    engine.watermark(3_500)
    assert calls[2:] == [("list", "rp-sel-a", keys), ("run", "rp-agg-a", keys)]
    assert len(routes) == 3  # the selection's query-set, then the window's
    assert dict(built) == {"record": 3}
    monkeypatch.undo()
    assert [(o.timestamp, o.value) for o in engine.results("rp-agg-a")] == [
        (start + 999, AggregationResult(key, Window(start, start + 1_000), 50))
        for start in (0, 1_000, 2_000)
        for key in range(keys)
    ]
    engine.shutdown()


def _fan_out(channels):
    """Route one run of four records to three selection queries."""
    router = RouterOperator("select:A", channels)
    router.set_collector(lambda element: None)
    queries = [(_selection(f"fan{i}"), i) for i in range(3)]
    router.on_marker(_marker(1, created=queries, width=3))
    records = [
        Record(timestamp=ts, value=f"v{ts}", key=ts, tags={QS_TAG: 0b111})
        for ts in range(4)
    ]
    router.process_batch(records)
    return channels


def test_one_object_per_result_shared_by_every_destination():
    channels = _fan_out(QueryChannels())
    first, second, third = (channels.results(f"fan{i}") for i in range(3))
    assert [o.value for o in first] == ["v0", "v1", "v2", "v3"]
    assert all(
        a.value is b.value is c.value for a, b, c in zip(first, second, third)
    )
    assert channels.count("fan1") == 4


def test_hooks_see_single_deliveries_in_routing_order():
    """With a hook attached, a multi-query run is handed over result by
    result: the hook sees record-major order, each result already
    retained when it fires."""
    seen = []

    def on_deliver(query_id, timestamp, count):
        assert count == 1
        seen.append((query_id, timestamp, channels.results(query_id)[-1].value))

    channels = QueryChannels(on_deliver=on_deliver)
    _fan_out(channels)
    assert seen == [
        (f"fan{q}", ts, f"v{ts}") for ts in range(4) for q in range(3)
    ]


# -- (b) no tap, no offer ---------------------------------------------------------


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_inline_hub_registers_no_tap_and_never_offers(make_pipe, monkeypatch, codec):
    def refuse(subscription, output):
        raise AssertionError("a cursor subscription was offered a result")

    monkeypatch.setattr(Subscription, "offer", refuse)
    pipe = make_pipe(backend="inline")
    client = PipeClient(pipe, codec=codec)
    query_id = client.create_query(sql=SQL_SELECT, at_ms=0).query_id
    client.subscribe(query_id)
    client.push("A", [(ts, _tuple(ts)) for ts in range(20)])
    client.watermark(50)
    streamed = client.collect(query_id, 20)
    assert [o.timestamp for o in streamed] == list(range(20))
    assert pipe.server.engine.channels._taps == {}
    (session,) = pipe.server.sessions.sessions()
    assert isinstance(session.subscriptions[query_id], CursorSubscription)
    fetched = client.fetch_results(query_id)
    assert fetched.base + len(fetched) == 20
    assert streamed[fetched.base:] == fetched


# -- (c) cursor frames == buffered frames -----------------------------------------


class _Buffered:
    """A subscription buffer that is offered every result as it is
    delivered and sheds the oldest when full — the contract the cursor
    must reproduce frame for frame."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.buffer = deque()
        self.pressure = False
        self.dropped_total = 0
        self.unreported = 0

    def offer(self, output):
        capacity = self.capacity // 2 if self.pressure else self.capacity
        while len(self.buffer) >= max(1, capacity):
            self.buffer.popleft()
            self.dropped_total += 1
            self.unreported += 1
        self.buffer.append(output)

    def take(self, limit):
        batch = []
        while self.buffer and len(batch) < limit:
            batch.append(self.buffer.popleft())
        dropped, self.unreported = self.unreported, 0
        return batch, dropped


class _Replay:
    """One query's channel, a cursor hub over it, and the buffered model,
    driven by the same script."""

    QUERY = "rp-cursor"

    def __init__(self, capacity):
        self.channels = QueryChannels()
        self.channels.open_channel(self.QUERY)
        self.hub = SubscriptionHub(
            SimpleNamespace(channels=self.channels),
            tap_mode=True,
            buffer_capacity=capacity,
        )
        self.capacity = capacity
        self.sessions = [
            SessionState(client_id=f"c{i}", session_id=f"s{i}") for i in range(2)
        ]
        self.model = {}
        self.frames = []
        self._next_ts = 0

    def deliver(self, count):
        outputs = [
            QueryOutput(self._next_ts + i, f"r{self._next_ts + i}")
            for i in range(count)
        ]
        self._next_ts += count
        self.channels.deliver_many(self.QUERY, outputs)
        for output in outputs:
            for buffered in self.model.values():
                buffered.offer(output)

    def subscribe(self, index, from_start):
        self.hub.subscribe(self.sessions[index], self.QUERY, from_start)
        if index not in self.model:
            buffered = _Buffered(self.capacity)
            if from_start:
                for output in self.channels.results(self.QUERY):
                    buffered.offer(output)
            self.model[index] = buffered

    def unsubscribe(self, index):
        existed = self.hub.unsubscribe(self.sessions[index], self.QUERY)
        assert existed == (self.model.pop(index, None) is not None)

    def pressure(self, active):
        self.hub.set_pressure(self.QUERY, active)
        for buffered in self.model.values():
            buffered.pressure = active

    def take(self, index, limit):
        subscription = self.sessions[index].subscriptions.get(self.QUERY)
        if subscription is None:
            return
        frame = subscription.take(limit)
        assert frame == self.model[index].take(limit)
        self.frames.append(frame)

    def flush(self, limit):
        """The server's forced flush: frames until nothing is pending."""
        for index, session in enumerate(self.sessions):
            subscription = session.subscriptions.get(self.QUERY)
            while subscription is not None and subscription.pending:
                self.take(index, limit)

    def check(self):
        for index, buffered in self.model.items():
            subscription = self.sessions[index].subscriptions[self.QUERY]
            assert subscription.pending == len(buffered.buffer)
            assert subscription.dropped_total == buffered.dropped_total
        assert self.hub.pending_outputs == sum(
            len(buffered.buffer) for buffered in self.model.values()
        )
        assert self.hub.dropped_total == sum(
            buffered.dropped_total for buffered in self.model.values()
        )


def test_scripted_frames_match_a_buffer():
    replay = _Replay(capacity=6)
    script = [
        ("subscribe", 0, True),
        ("deliver", 4),
        ("take", 0, 3),           # plain frame
        ("deliver", 9),           # overflow: 1 + 9 > 6
        ("take", 0, 2),           # frame reports the shed count
        ("pressure", True),       # capacity 3, nothing arrived yet
        ("take", 0, 1),           # above the pressured cap: no shedding yet
        ("deliver", 1),           # now the pressured cap applies
        ("subscribe", 1, False),  # only new results for session 1
        ("deliver", 5),
        ("pressure", False),
        ("deliver", 2),
        ("flush", 4),
        ("subscribe", 0, False),  # resubscribe: the existing attachment
        ("unsubscribe", 1),
        ("unsubscribe", 1),       # not subscribed any more
        ("deliver", 3),
        ("subscribe", 1, True),   # from the start: the whole channel
        ("flush", 5),
    ]
    for step in script:
        getattr(replay, step[0])(*step[1:])
        replay.check()
    assert any(dropped for _, dropped in replay.frames)
    assert replay.hub.pending_outputs == 0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("capacity", [1, 2, 7])
def test_random_scripts_frames_match_a_buffer(seed, capacity):
    rng = random.Random(seed)
    replay = _Replay(capacity=capacity)
    for _ in range(300):
        roll = rng.random()
        index = rng.randrange(2)
        if roll < 0.35:
            replay.deliver(rng.randrange(0, 2 * capacity + 3))
        elif roll < 0.6:
            replay.take(index, rng.randrange(1, capacity + 3))
        elif roll < 0.7:
            replay.flush(rng.randrange(1, capacity + 3))
        elif roll < 0.8:
            replay.pressure(rng.random() < 0.5)
        elif roll < 0.92:
            replay.subscribe(index, rng.random() < 0.5)
        else:
            replay.unsubscribe(index)
        replay.check()
    assert replay.frames


# -- (d) recovery -----------------------------------------------------------------


def _pushes(engine, start_ms, count):
    for offset in range(count):
        engine.push("A", start_ms + offset * 37, _tuple(offset % 5, f0=offset))
    engine.watermark(start_ms + 1_000)


def _recover_midway(query_id, checkpoint, trim):
    """Stream an aggregation through ``engine.recover()`` four windows
    in, four results per take; ``trim`` releases the channel behind the
    cursor after every take, as the server's flush does.  Returns what
    was taken and the (shut down) engine."""
    oracle = _agg_engine(query_id)
    engine = _agg_engine(query_id, log_inputs=True)
    channels = engine.channels
    hub = SubscriptionHub(engine, tap_mode=True)
    subscription = hub.subscribe(
        SessionState(client_id="c", session_id="s"), query_id
    )

    def take():
        batch, dropped = subscription.take(4)
        assert dropped == 0
        if trim:
            hub.release(query_id)
            assert channels.base(query_id) <= subscription.cursor
        return list(batch)

    taken = []
    restored = (0, 0)  # the channel's base and length at the checkpoint
    for start_ms in range(0, 6_000, 1_000):
        for target in (engine, oracle):
            _pushes(target, start_ms, 20)
        taken += take()
        if start_ms == 1_000 and checkpoint:
            engine.checkpoint()
            restored = (channels.base(query_id), channels.length(query_id))
            assert (restored[0] > 0) == trim
        if start_ms == 4_000:
            # Sent past the checkpoint, with results still pending.
            assert restored[1] < subscription.cursor < channels.length(query_id)
            engine.recover()
            assert channels.base(query_id) == restored[0]
            if trim:
                # Restoring twice from one checkpoint: same base and runs.
                base, length = restored[0], channels.length(query_id)
                first = list(channels.read(query_id, base, length))
                engine.recover()
                assert channels.base(query_id) == base
                assert channels.length(query_id) == length
                assert list(channels.read(query_id, base, length)) == first
    while subscription.pending:
        taken += take()
    assert len(taken) == 6 * 5
    assert taken == oracle.results(query_id)
    engine.shutdown()
    oracle.shutdown()
    return taken, engine


@pytest.mark.parametrize("checkpoint", [True, False])
def test_recovery_neither_resends_nor_skips(checkpoint):
    taken, engine = _recover_midway(
        f"rp-recover-{checkpoint}", checkpoint, trim=False
    )
    assert taken == engine.results(f"rp-recover-{checkpoint}")


@pytest.mark.parametrize("checkpoint", [True, False])
def test_recovery_with_trimmed_channels_neither_resends_nor_skips(checkpoint):
    query_id = f"rp-recover-trim-{checkpoint}"
    taken, engine = _recover_midway(query_id, checkpoint, trim=True)
    # The engine retains only what the cursor has not taken: nothing.
    assert engine.channels.length(query_id) == len(taken)
    assert engine.channels.base(query_id) == len(taken)
    assert engine.results(query_id) == []


# -- satellites -------------------------------------------------------------------


def test_a_drain_keeps_one_checkpoint_and_the_log_after_it(make_pipe):
    pipe = make_pipe()
    client = PipeClient(pipe)
    client.create_query(sql=SQL_SELECT, at_ms=0)
    engine = pipe.server.engine
    for round_ in range(3):
        client.push("A", [(round_ * 100 + i, _tuple(i)) for i in range(5)])
        client.watermark(round_ * 100 + 50)
        client.drain()
    assert engine.completed_checkpoints == 1
    assert engine.input_log_size == 0
    client.push("A", [(400, _tuple(1))])
    client.watermark(450)
    assert engine.input_log_size == 2  # one batch, one watermark


def _codec_batches():
    """One fixed batch per result value kind the wire carries."""
    return {
        "tuple": [
            QueryOutput(10 + i, DataTuple(key=i, fields=(i, -i, 7, 2**40, 0)))
            for i in range(4)
        ],
        "agg": [
            QueryOutput(
                999 + i,
                AggregationResult(
                    key=i, window=Window(start=i * 1000, end=i * 1000 + 1000),
                    value=i * 31 - 5,
                ),
            )
            for i in range(4)
        ],
        "joined": [
            QueryOutput(
                50 + i,
                JoinedTuple(
                    key=i,
                    parts=(
                        DataTuple(key=i, fields=(1, 2, 3, 4, i)),
                        DataTuple(key=i, fields=(5, 6, 7, 8, -i)),
                    ),
                    timestamp=50 + i,
                ),
            )
            for i in range(3)
        ],
        "agg_float": [
            QueryOutput(
                5, AggregationResult(key="k", window=Window(0, 10), value=2.5)
            )
        ],
    }


GOLDEN = {
    # kind: (sha256 of the binary frame, of the JSON frame, of repr(batch))
    "tuple": (
        "40abb064ed4805db7f24ce1f72c9f43b62739c534ab066e8b66c74485c809e2c",
        "06e159c06cbf88314fce35efded0e8cd05ec8e0299cf9a53ff70d62efa98805f",
        "45ae9bf7a98f2e76d09874ec6f8c8bbf5566b0b69cd6f7300f27b9cf865c4eb2",
    ),
    "agg": (
        "037046d650ee9b85cfb66cb913454c01c804233f42012c9def52331de85f0816",
        "5dee4cbafaf1399679e0c38c9b84876f3ae734bec25304ba7b4dc8cf89e795d3",
        "855c596d171db2c9e516acbc0928aeb88daaf983a5edffcd3643fce85d6667ef",
    ),
    "joined": (
        "4099cb70ddb93233ef07eb04c0ac2fc9e3fb6ac12deecfa7453a737e8d61d0fa",
        "0d529a0daf5904dd7bb242a29cfcc3239fd8b80486d0d75cd2f87e35858b0642",
        "d4a409c4bb8f490e84aae6992532712198086058f824977d91bfd9dee030fb08",
    ),
    "agg_float": (
        None,  # a float aggregate is not columnar: the JSON frame carries it
        "068aacfdba660a827b75852d034a7ef52c2d45a3161d252799cc099f1824f364",
        "cda3b5ba4bd3f6a3a7e3b07810e8be43ea80d3954d512ec264fe2a763b9d819c",
    ),
}


def _sha(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_result_frames_keep_their_golden_bytes(kind):
    outputs = _codec_batches()[kind]
    binary = encode_result_binary("q-7", outputs, 3)
    document = encode_frame(
        {"t": "result", "query_id": "q-7", "dropped": 3,
         "outputs": [output_to_dict(output) for output in outputs]}
    )
    assert (_sha(binary), _sha(document), _sha(repr(outputs).encode())) == (
        GOLDEN[kind]
    )


def test_result_objects_have_no_dict_and_pickle_equal():
    for outputs in _codec_batches().values():
        for output in outputs:
            for item in (output, output.value):
                if isinstance(item, DataTuple):
                    continue
                assert not hasattr(item, "__dict__"), type(item).__name__
                clone = pickle.loads(pickle.dumps(item))
                assert clone == item and repr(clone) == repr(item)
            if not isinstance(output.value, DataTuple):
                assert hash(pickle.loads(pickle.dumps(output.value))) == hash(
                    output.value
                )


# -- codec and flush equivalence --------------------------------------------------


def _run_channels(sizes, value=lambda start, key: start + 3 * key):
    """One query's channel holding a window run per entry of ``sizes``."""
    channels = QueryChannels()
    for index, size in enumerate(sizes):
        window = Window(index * 1_000, index * 1_000 + 1_000)
        channels.deliver_run(
            "q", WindowRun(window, window.max_timestamp(), list(range(size)),
                           [value(window.start, key) for key in range(size)]),
        )
    return channels


def _chunks(channels, limit):
    """A cursor's frames over the whole channel."""
    hub = SubscriptionHub(SimpleNamespace(channels=channels), tap_mode=True)
    subscription = hub.subscribe(SessionState(client_id="c", session_id="s"), "q")
    chunks = []
    while subscription.pending:
        chunks.append(subscription.take(limit)[0])
    return chunks


def _json_bytes(outputs):
    return encode_frame(
        {"t": "result", "query_id": "q", "dropped": 1,
         "outputs": [output_to_dict(output) for output in outputs]}
    )


def test_a_chunk_of_window_runs_encodes_as_its_outputs():
    limit = ServeConfig().result_frame_outputs
    chunks = _chunks(_run_channels([300, 150, 200, 1]), limit)
    assert [len(chunk) for chunk in chunks] == [limit, 651 - limit]
    assert len(chunks[0].parts) == 3  # cut inside the third run
    for chunk in chunks:
        outputs = list(chunk)
        binary = encode_result_binary("q", chunk, 1)
        assert binary is not None
        assert binary == encode_result_binary("q", outputs, 1)
        assert _json_bytes(chunk) == _json_bytes(outputs)


def test_open_list_and_mixed_chunks_encode_as_their_outputs():
    channels = _run_channels([3])
    channels.deliver_many(
        "q", [QueryOutput(ts, _tuple(ts)) for ts in range(5_000, 5_004)]
    )
    (mixed,) = _chunks(channels, 512)
    outputs = list(mixed)
    assert encode_result_binary("q", mixed) is None  # two value kinds
    assert encode_result_binary("q", outputs) is None
    assert _json_bytes(mixed) == _json_bytes(outputs)
    tuples = channels.read("q", 3, 7)
    assert encode_result_binary("q", tuples, 2) == encode_result_binary(
        "q", list(tuples), 2
    )


@pytest.mark.parametrize(
    "value",
    [
        lambda start, key: (start + key) / 2,  # an AVG
        lambda start, key: key % 2 == 0,  # a bool
        lambda start, key: 2**63 + key,  # past int64
    ],
    ids=["avg-float", "bool", "int64-overflow"],
)
def test_non_int64_window_runs_fall_back_to_json(value):
    (chunk,) = _chunks(_run_channels([4, 2], value=value), 512)
    assert encode_result_binary("q", chunk) is None
    assert encode_result_binary("q", list(chunk)) is None
    assert _json_bytes(chunk) == _json_bytes(list(chunk))


def _counting_pending(monkeypatch):
    asked = []
    pending = CursorSubscription.pending

    def counted(subscription):
        asked.append(subscription.query_id)
        return pending.fget(subscription)

    monkeypatch.setattr(CursorSubscription, "pending", property(counted))
    return asked


def test_a_quiet_tick_asks_no_subscription_for_pending(make_pipe, monkeypatch):
    pipe = make_pipe()
    client = PipeClient(pipe)
    query_ids = [
        client.create_query(sql=f"SELECT * FROM A WHERE A.F0 > {bound}",
                            at_ms=0).query_id
        for bound in (10, 11, 12)
    ]
    for query_id in query_ids:
        client.subscribe(query_id)
    client.push("A", [(ts, _tuple(ts)) for ts in range(6)])
    client.watermark(50)
    for query_id in query_ids:
        assert len(client.collect(query_id, 6)) == 6
    asked = _counting_pending(monkeypatch)
    pipe.tick()
    assert asked == []
    client.push("A", [(60, _tuple(0))])
    pipe.tick()
    assert sorted(set(asked)) == sorted(query_ids)
    asked.clear()
    pipe.tick()
    assert asked == []


def test_frames_keep_subscribe_order_and_congestion_only_defers(make_pipe):
    pipe = make_pipe(result_frame_outputs=2)
    client = PipeClient(pipe)
    query_ids = [
        client.create_query(sql=f"SELECT * FROM A WHERE A.F0 > {bound}",
                            at_ms=0).query_id
        for bound in (10, 11, 12)
    ]
    for query_id in query_ids:
        client.subscribe(query_id)
    inbox = pipe.inboxes[client._conn]
    server = pipe.server
    pipe.carry(server.tick(server.now_ms(), congested={client._conn}))
    client.push("A", [(ts, _tuple(ts)) for ts in range(5)])
    client.watermark(50)
    for _ in range(2):
        pipe.carry(server.tick(server.now_ms(), congested={client._conn}))
        assert not inbox and not client._results
    frames = []
    for _ in range(4):
        pipe.tick()
        while inbox:
            frame = inbox.popleft()
            frames.append((frame["query_id"], len(frame["outputs"])))
    assert frames == [
        (query_id, size) for size in (2, 2, 1) for query_id in query_ids
    ]
