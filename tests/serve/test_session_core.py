"""The client session core on its own: no socket, no event loop.

Every test drives :class:`_SessionCore` (or the shared request methods
of :class:`_ClientAPI` over a recording transport) with plain frames.
"""

import ast
import inspect
import textwrap

import pytest

from repro.core.router import QueryOutput
from repro.core.serde import output_to_dict
from repro.serve.client import (
    ConnectionLost,
    ControlResult,
    ServeError,
    _checked,
    _ClientAPI,
    _SessionCore,
)
from repro.serve.protocol import (
    BINARY_FLAG,
    CODEC_BINARY,
    CODEC_JSON,
    HEADER_BYTES,
    decode_binary_payload,
    decode_frame,
)
from repro.workloads.datagen import DataTuple
from repro.workloads.driver import RetryPolicy

HELLO_ACK = {
    "t": "hello_ack", "session_id": "s", "credits": 4, "codec": "binary",
    "server": {"backend": "inline"},
}


def _core(codec=CODEC_BINARY, welcome=HELLO_ACK, **kwargs):
    delivered = []
    core = _SessionCore(
        "unit", kwargs.pop("token", None), kwargs.pop("retry", None), codec,
        kwargs.pop("trace_sample_every", 0),
        lambda query_id, outputs: delivered.append((query_id, outputs)),
    )
    assert not kwargs
    if welcome is not None:
        core.welcome(dict(welcome))
    return core, delivered


def _events(count=3, key=1):
    return [
        (ts, DataTuple(key=key, fields=(ts, 2, 3, 4, 5))) for ts in range(count)
    ]


def _decode(raw):
    """A wire image back into its frame (either codec)."""
    header = int.from_bytes(raw[:HEADER_BYTES], "big")
    payload = raw[HEADER_BYTES:]
    if header & BINARY_FLAG:
        return decode_binary_payload(payload)
    return decode_frame(payload)


class Recorder(_ClientAPI):
    """A third 'transport' that carries nothing: calls return the op."""

    def __init__(self, core):
        self._core = core

    def _call(self, op):
        return op


class TestNoIO:
    def test_core_and_shared_api_name_no_socket_and_no_event_loop(self):
        for cls in (_SessionCore, _ClientAPI):
            tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
            names = {
                node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            }
            assert not names & {"socket", "asyncio", "select"}, cls


class TestHandshake:
    def test_hello_offers_binary_then_json_and_carries_the_token(self):
        core, _ = _core(welcome=None, token="sesame")
        hello = _decode(core.hello())
        assert hello["t"] == "hello"
        assert hello["client_id"] == "unit"
        assert hello["codecs"] == [CODEC_BINARY, CODEC_JSON]
        assert hello["token"] == "sesame"

    def test_json_pin_offers_json_only_and_no_token_field(self):
        core, _ = _core(codec=CODEC_JSON, welcome=None)
        hello = _decode(core.hello())
        assert hello["codecs"] == [CODEC_JSON]
        assert "token" not in hello
        # A server that grants something never offered is not believed.
        core.welcome(dict(HELLO_ACK))
        assert core.codec == CODEC_JSON

    def test_welcome_adopts_credits_codec_and_server_info(self):
        core, _ = _core()
        assert (core.credits, core.codec) == (4, CODEC_BINARY)
        assert core.server_info == {"backend": "inline"}

    def test_old_server_without_codec_field_stays_json(self):
        ack = {key: value for key, value in HELLO_ACK.items() if key != "codec"}
        core, _ = _core(welcome=ack)
        assert core.codec == CODEC_JSON

    def test_refusal_and_eof_raise(self):
        core, _ = _core(welcome=None)
        with pytest.raises(ServeError) as excinfo:
            core.welcome({"t": "error", "code": "auth_failed", "message": "no"})
        assert excinfo.value.code == "auth_failed"
        with pytest.raises(ConnectionLost):
            core.welcome(None)

    def test_welcome_replays_subscriptions_with_fresh_seqs(self):
        core, _ = _core()
        core.subscribe("q1", True)
        core.subscribe("q2", False)
        core.unsubscribe("q2")
        before = core.seq
        replay = core.welcome(dict(HELLO_ACK))
        assert [op.frame for op in replay] == [{
            "t": "subscribe", "seq": before + 1,
            "query_id": "q1", "from_start": True,
        }]

    def test_unknown_codec_is_rejected_up_front(self):
        with pytest.raises(ValueError):
            _core(codec="msgpack")


class TestRetryPolicy:
    def test_backoff_then_give_up(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_ms=100, jitter_ms=0)
        core, _ = _core(retry=policy)
        cause = ConnectionLost("wire fell out")
        frame = {"t": "stats", "seq": 1}
        assert core.next_redial(1, frame, cause) == pytest.approx(0.1)
        assert core.next_redial(2, frame, cause) == pytest.approx(0.2)
        assert core.reconnects == 2
        with pytest.raises(ConnectionLost, match="stats failed after 3") as info:
            core.next_redial(3, frame, cause)
        assert info.value.__cause__ is cause
        assert core.reconnects == 2
        assert core.ack_timeout_s == policy.ack_timeout_ms / 1000


class TestRequestBuilders:
    def test_control_ops_are_sequenced_and_drop_none_fields(self):
        core, _ = _core()
        api = Recorder(core)
        op = api.delete_query("q9")
        assert op.frame == {"t": "delete_query", "seq": 1, "query_id": "q9"}
        assert _decode(op.raw) == op.frame
        assert api.drain(checkpoint=True).frame == {
            "t": "drain", "seq": 2, "checkpoint": True,
        }
        assert api.chaos_kill_worker(1).frame == {
            "t": "chaos", "seq": 3, "op": "kill_worker", "shard": 1,
        }
        assert core.seq == 3

    def test_every_request_kind_is_a_known_frame(self):
        api = Recorder(_core()[0])
        ops = [
            api.create_query(sql="SELECT * FROM A", at_ms=0, slo_ms=5.0),
            api.delete_query("q", at_ms=1),
            api.subscribe("q"),
            api.unsubscribe("q"),
            api.fetch_results("q"),
            api.stats(),
            api.obs_snapshot(),
            api.chaos_kill_worker(),
            api.drain(),
            api.shutdown(),
            api.ping(),
            api.watermark(7, stream="A"),
            api.push("A", _events()),
        ]
        kinds = [_decode(op.raw)["t"] for op in ops]  # decode validates
        assert kinds == [
            "create_query", "delete_query", "subscribe", "unsubscribe",
            "fetch_results", "stats", "obs_snapshot", "chaos", "drain",
            "shutdown", "ping", "watermark", "push",
        ]
        assert [op.frame.get("seq") for op in ops[:10]] == list(range(1, 11))
        assert all("seq" not in op.frame for op in ops[10:])
        assert ops[11].finish is None  # watermark: nothing to wait for

    def test_create_query_wants_exactly_one_of_query_and_sql(self):
        api = Recorder(_core()[0])
        with pytest.raises(ValueError):
            api.create_query()
        with pytest.raises(ValueError):
            api.create_query(query=object(), sql="SELECT * FROM A")

    def test_reply_decoders(self):
        api = Recorder(_core()[0])
        ack = {"t": "ack", "seq": 1, "status": "admit", "query_id": "q",
               "sequence": 5}
        assert api.create_query(sql="x").finish(ack) == ControlResult(
            status="admit", query_id="q", sequence=5, raw=ack
        )
        output = QueryOutput(timestamp=3, value=_events(1)[0][1])
        assert api.fetch_results("q").finish(
            {"t": "results", "outputs": [output_to_dict(output)]}
        ) == [output]
        assert api.stats().finish({"stats": {"n": 1}}) == {"n": 1}
        assert api.obs_snapshot().finish({"snapshot": {"a": 1}}) == {
            "snapshot": {"a": 1}, "events": [],
        }
        assert api.ping().finish({"t": "pong"}) is True

    def test_subscribe_and_unsubscribe_keep_the_replay_set(self):
        core, _ = _core()
        api = Recorder(core)
        api.subscribe("q1")
        api.subscribe("q2", from_start=False)
        assert core.subscriptions == {"q1": True, "q2": False}
        api.unsubscribe("q1")
        assert core.subscriptions == {"q2": False}

    def test_take_events_drains_in_arrival_order(self):
        core, _ = _core()
        for sequence in (1, 2):
            core.receive({"t": "query_event", "event": "live",
                          "query_id": "q", "sequence": sequence})
        api = Recorder(core)
        assert [event["sequence"] for event in api.take_events()] == [1, 2]
        assert api.take_events() == []


class TestPush:
    def test_binary_session_ships_columns(self):
        core, _ = _core()
        op = core.push("A", _events(4))
        assert op.raw[0] & 0x80  # the binary header bit
        frame = _decode(op.raw)
        assert frame["t"] == "push" and frame["stream"] == "A"
        assert len(frame["batch"]) == 4

    def test_binary_falls_back_to_json_for_events_columns_cannot_carry(self):
        core, _ = _core()
        huge = [(0, DataTuple(key=2**70, fields=(1, 2, 3, 4, 5)))]
        frame = _decode(core.push("A", huge).raw)
        assert frame == {
            "t": "push", "stream": "A", "events": [[0, 2**70, [1, 2, 3, 4, 5]]],
        }

    def test_json_session_never_ships_columns(self):
        core, _ = _core(codec=CODEC_JSON)
        assert "events" in _decode(core.push("A", _events(2)).raw)

    @pytest.mark.parametrize("codec", [CODEC_BINARY, CODEC_JSON])
    def test_every_nth_push_is_trace_stamped(self, codec):
        core, _ = _core(codec=codec, trace_sample_every=3)
        traces = [
            _decode(core.push("A", _events(1)).raw).get("trace")
            for _ in range(7)
        ]
        assert [trace is not None for trace in traces] == [
            False, False, True, False, False, True, False,
        ]
        assert traces[2]["id"] != traces[5]["id"]
        assert traces[2]["ingest_ns"] <= traces[5]["ingest_ns"]

    def test_pipelined_frames_are_never_stamped(self):
        core, _ = _core(trace_sample_every=1)
        assert "trace" not in _decode(core.encode_push("A", _events(1)))
        assert core.pushes == 0

    def test_push_ack_updates_credits_and_harvests_the_trace(self):
        core, _ = _core()
        finish = core.push("A", _events(2)).finish
        assert finish({"t": "push_ack", "credits": 9, "accepted": 2}) == 2
        assert core.credits == 9
        summary = {"id": 1, "e2e_ns": 2_500_000, "spans": {}}
        assert finish({"t": "push_ack", "accepted": 0, "trace": summary}) == 0
        assert core.credits == 9  # an ack without credits keeps the grant
        assert list(core.trace_summaries) == [summary]
        assert core.wire_latencies_ms == [2.5]


class TestReplyMatching:
    def test_sequenced_replies_match_by_seq_in_any_order(self):
        core, _ = _core()
        core.expect(1, "first")
        core.expect(2, "second")
        assert core.receive({"t": "ack", "seq": 2, "status": "ok"}) == "second"
        assert core.receive({"t": "results", "seq": 1, "query_id": "q",
                             "outputs": []}) == "first"
        assert core.tagged == {}

    def test_a_reply_nobody_waits_for_is_dropped(self):
        core, delivered = _core()
        core.expect(3, "live")
        assert core.receive({"t": "ack", "seq": 2, "status": "ok"}) is None
        assert core.receive({"t": "push_ack", "credits": 1, "accepted": 0}) is None
        assert core.receive({"t": "pong"}) is None
        assert core.tagged == {3: "live"} and not delivered

    def test_unsequenced_replies_match_in_send_order(self):
        core, _ = _core()
        core.expect(None, "push-1")
        core.expect(None, "ping")
        core.expect(None, "push-2")
        acks = [
            {"t": "push_ack", "credits": 1, "accepted": 1},
            {"t": "pong"},
            {"t": "push_ack", "credits": 1, "accepted": 1},
        ]
        assert [core.receive(ack) for ack in acks] == ["push-1", "ping", "push-2"]
        assert not core.untagged

    def test_streamed_frames_pass_between_request_and_reply(self):
        core, delivered = _core()
        core.expect(1, "stats")
        output = QueryOutput(timestamp=3, value=_events(1)[0][1])
        streamed = {"t": "result", "query_id": "q", "dropped": 0,
                    "outputs": [output_to_dict(output)]}
        assert core.receive(streamed) is None
        assert core.receive({"t": "ack", "seq": 1, "status": "ok"}) == "stats"
        assert delivered == [("q", [output])]

    def test_error_with_a_seq_settles_that_request_only(self):
        core, _ = _core()
        core.expect(1, "create")
        core.expect(None, "push")
        error = {"t": "error", "seq": 1, "code": "unknown_query",
                 "message": "nope"}
        assert core.receive(error) == "create"
        with pytest.raises(ServeError) as excinfo:
            _checked(error)
        assert excinfo.value.code == "unknown_query"
        assert list(core.untagged) == ["push"]

    def test_error_without_a_seq_settles_the_oldest_unsequenced_request(self):
        core, _ = _core()
        core.expect(7, "stats")
        core.expect(None, "push-1")
        core.expect(None, "push-2")
        error = {"t": "error", "code": "unknown_stream", "message": "Z"}
        assert core.receive(error) == "push-1"
        assert list(core.untagged) == ["push-2"] and core.tagged == {7: "stats"}

    def test_error_for_nobody_is_dropped(self):
        core, _ = _core()
        core.expect(7, "stats")
        assert core.receive(
            {"t": "error", "seq": 6, "code": "x", "message": "late"}
        ) is None
        assert core.receive({"t": "error", "code": "x", "message": "y"}) is None
        assert core.tagged == {7: "stats"}

    def test_forget_is_a_noop_once_settled_and_abandon_clears_all(self):
        core, _ = _core()
        core.expect(1, "a")
        core.expect(None, "b")
        core.forget(1, "someone else's waiter")
        assert core.tagged == {1: "a"}
        core.forget(1, "a")
        core.forget(None, "b")
        core.forget(None, "b")
        assert not core.tagged and not core.untagged
        core.expect(2, "c")
        core.expect(None, "d")
        assert core.abandon() == ["c", "d"]
        assert core.abandon() == []


class TestStreamedResults:
    def test_json_outputs_are_decoded_and_binary_ones_pass_through(self):
        core, delivered = _core()
        output = QueryOutput(timestamp=1, value=_events(1)[0][1])
        core.receive({"t": "result", "query_id": "q",
                      "outputs": [output_to_dict(output)]})
        core.receive({"t": "result", "query_id": "q", "_decoded": True,
                      "outputs": [output]})
        assert delivered == [("q", [output]), ("q", [output])]
        assert core.shed == {}

    def test_shed_counts_accumulate_even_with_no_outputs_left(self):
        core, delivered = _core()
        core.receive({"t": "result", "query_id": "q", "outputs": [],
                      "dropped": 5})
        core.receive({"t": "result", "query_id": "q", "outputs": [],
                      "dropped": 2})
        assert core.shed == {"q": 7}
        assert delivered == [("q", []), ("q", [])]
