"""Bounded retention: a subscribed channel keeps only what its slowest
subscriber has not taken.

The server's flush trims each visited query's channel behind the
minimum cursor of its subscriptions, after every subscription applied
its backlog bound.  These tests pin, through the in-memory pipe:

* retained results stay flat with uptime when every query is subscribed
  (and grow with it when none is, as every channel did before trimming);
* a subscriber whose connection is away pins at most its capacity plus
  one run, and reports what it shed when it comes back;
* settling the backlog bound early, before each trim, sheds what the
  lazy settle at ``take`` would;
* a ``from_start`` subscription that arrives after a trim starts at the
  channel's base and reports the gap as shed;
* ``fetch_results`` returns what the channel retains with its ``base``,
  and an unsubscribed query keeps every result.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.router import QueryChannels, QueryOutput
from repro.serve.state import SessionState
from repro.serve.subscriptions import SubscriptionHub
from repro.workloads.datagen import DataTuple
from tests.serve.test_server_core import PipeClient, make_pipe  # noqa: F401

SQL = "SELECT * FROM A WHERE A.F0 > {bound}"
STEP_MS = 100


def _events(start, count):
    return [
        (start + i, DataTuple(key=i, fields=(50, 1, 2, 3, 4)))
        for i in range(count)
    ]


def _queries(client, count):
    return [
        client.create_query(sql=SQL.format(bound=10 + i), at_ms=0).query_id
        for i in range(count)
    ]


def _run(make_pipe, steps, subscribe, per_step=10):
    """``steps`` pushes of ``per_step`` tuples to four queries, one tick
    each; returns the peak ``retained_results`` and what was streamed."""
    pipe = make_pipe()
    client = PipeClient(pipe)
    query_ids = _queries(client, 4)
    if subscribe:
        for query_id in query_ids:
            client.subscribe(query_id)
    peak = 0
    streamed = {query_id: [] for query_id in query_ids}
    for step in range(steps):
        client.push("A", _events(step * STEP_MS, per_step))
        client.watermark(step * STEP_MS + STEP_MS - 1)
        peak = max(peak, client.stats()["retained_results"])
        if subscribe:
            for query_id in query_ids:
                streamed[query_id] += client.collect(query_id, per_step)
    assert client._core.shed == {}
    return peak, streamed


def test_retained_results_stay_flat_with_uptime(make_pipe):
    short, _ = _run(make_pipe, steps=12, subscribe=True)
    long, streamed = _run(make_pipe, steps=120, subscribe=True)
    assert long == short == 0  # each push's flush takes and trims its results
    for outputs in streamed.values():
        assert [o.timestamp for o in outputs] == [
            step * STEP_MS + i for step in range(120) for i in range(10)
        ]
    # Unsubscribed, nothing trims: retention grows with uptime.
    unsubscribed_short, _ = _run(make_pipe, steps=12, subscribe=False)
    unsubscribed_long, _ = _run(make_pipe, steps=120, subscribe=False)
    assert unsubscribed_short == 4 * 12 * 10
    assert unsubscribed_long == 10 * unsubscribed_short


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_an_away_subscriber_pins_its_capacity_plus_one_run(make_pipe, codec):
    capacity, per_tick = 8, 5
    pipe = make_pipe(subscriber_buffer=capacity)
    channels = pipe.server.engine.channels
    reader = PipeClient(pipe, client_id="reader", codec=codec)
    pusher = PipeClient(pipe, client_id="pusher", codec=codec)
    (query_id,) = _queries(pusher, 1)
    reader.subscribe(query_id)
    pusher.push("A", _events(0, per_tick))
    pusher.watermark(STEP_MS - 1)
    assert len(reader.collect(query_id, per_tick)) == per_tick
    reader.sever()
    away = 6
    for step in range(1, away + 1):
        pusher.push("A", _events(step * STEP_MS, per_tick))
        pusher.watermark(step * STEP_MS + STEP_MS - 1)
        pipe.tick()
        assert channels.retained() <= capacity + per_tick
    delivered = per_tick * (away + 1)
    assert channels.length(query_id) == delivered
    assert channels.base(query_id) >= delivered - capacity - per_tick
    reader.connect()  # resubscribes: the existing attachment
    outputs = reader.collect(query_id, capacity)
    assert reader._core.shed == {query_id: away * per_tick - capacity}
    assert [o.timestamp for o in outputs] == [
        step * STEP_MS + i for step in range(1, away + 1) for i in range(per_tick)
    ][-capacity:]
    assert channels.retained() == 0


def _hub(capacity):
    channels = QueryChannels()
    channels.open_channel("q")
    hub = SubscriptionHub(
        SimpleNamespace(channels=channels), tap_mode=True,
        buffer_capacity=capacity,
    )
    return channels, hub


@pytest.mark.parametrize("seed", range(8))
def test_settling_before_each_trim_sheds_what_a_lazy_settle_would(seed):
    """Each settle moves the cursor to at least ``end - capacity``, and
    ``end`` only grows, so extra settles between takes change neither
    the frames nor the total shed.  One hub trims (settling every
    subscription first) after every delivery; its twin never does."""
    rng = random.Random(seed)
    capacity = rng.choice([1, 3, 8])
    twins = [_hub(capacity) for _ in range(2)]
    subscriptions = [
        hub.subscribe(SessionState(client_id="c", session_id="s"), "q")
        for _, hub in twins
    ]
    delivered = 0
    for _ in range(200):
        if rng.random() < 0.5:
            count = rng.randrange(1, 3 * capacity + 2)
            outputs = [
                QueryOutput(delivered + i, delivered + i) for i in range(count)
            ]
            delivered += count
            for channels, _ in twins:
                channels.deliver_many("q", outputs)
            twins[0][1].release("q")
        elif rng.random() < 0.1:
            active = rng.random() < 0.5
            for _, hub in twins:
                hub.set_pressure("q", active)
        else:
            limit = rng.randrange(1, capacity + 3)
            early, lazy = (s.take(limit) for s in subscriptions)
            assert (list(early[0]), early[1]) == (list(lazy[0]), lazy[1])
        assert subscriptions[0].dropped_total == subscriptions[1].dropped_total
    trimmed, kept = (channels for channels, _ in twins)
    assert trimmed.retained() <= capacity + 3 * capacity + 1
    assert kept.retained() == delivered


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_from_start_after_a_trim_starts_at_the_base(make_pipe, codec):
    pipe = make_pipe()
    first = PipeClient(pipe, client_id="first", codec=codec)
    (query_id,) = _queries(first, 1)
    first.subscribe(query_id)
    first.push("A", _events(0, 6))
    first.watermark(STEP_MS - 1)
    assert len(first.collect(query_id, 6)) == 6
    base = pipe.server.engine.channels.base(query_id)
    assert base == 6
    late = PipeClient(pipe, client_id="late", codec=codec)
    assert late.subscribe(query_id, from_start=True).raw["backlog"] == 0
    first.push("A", _events(STEP_MS, 3))
    first.watermark(2 * STEP_MS - 1)
    outputs = late.collect(query_id, 3)
    assert [o.timestamp for o in outputs] == [STEP_MS, STEP_MS + 1, STEP_MS + 2]
    assert late._core.shed == {query_id: base}
    assert first.collect(query_id, 3) == outputs
    assert first._core.shed == {}


def test_fetch_reports_the_base_and_an_unsubscribed_query_keeps_all(make_pipe):
    pipe = make_pipe()
    client = PipeClient(pipe)
    subscribed, unsubscribed = _queries(client, 2)
    client.subscribe(subscribed)
    client.push("A", _events(0, 7))
    client.watermark(STEP_MS - 1)
    streamed = client.collect(subscribed, 7)
    server = pipe.server
    pipe.carry(server.tick(server.now_ms(), congested={client._conn}))
    client.push("A", _events(STEP_MS, 2))  # congested, not flushed: retained
    client.watermark(2 * STEP_MS - 1)
    fetched = client.fetch_results(subscribed)
    assert fetched.base == 7
    assert [o.timestamp for o in fetched] == [STEP_MS, STEP_MS + 1]
    assert streamed + list(fetched) == client.fetch_results(unsubscribed)
    assert client.fetch_results(unsubscribed).base == 0
    assert client.stats()["retained_results"] == 2 + 9
    assert "serve_retained_results 11" in pipe.server.render_metrics()
