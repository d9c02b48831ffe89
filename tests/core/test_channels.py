"""Query channels as runs: a property test against a flat-list model.

A channel holds window runs and open lists by reference.  Whatever the
interleaving of window runs (0 to N keys), single-query lists, fan-out
deliveries, snapshots, restores (twice from one snapshot) and cursor
reads, the channel must read back exactly as a flat list of the
delivered results would, its length must equal its count, the
``on_deliver`` calls expanded into the channel's last ``count`` results
must give the per-result delivery sequence, and a snapshot must not
change when deliveries continue after it.
"""

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core.router import QueryChannels, QueryOutput
from repro.core.shared_aggregation import AggregationResult, WindowRun
from repro.minispe.record import Record
from repro.minispe.windows import Window

QUERIES = ("q0", "q1", "q2")

_query = st.sampled_from(QUERIES)
_ops = st.one_of(
    st.tuples(st.just("window"), _query, st.integers(0, 6)),
    st.tuples(st.just("list"), _query, st.integers(1, 5)),
    st.tuples(
        st.just("fan"),
        st.lists(_query, min_size=2, max_size=3, unique=True),
        st.integers(1, 4),
    ),
    st.tuples(st.just("one"), _query),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("read"), _query, st.integers(0, 40), st.integers(0, 12)),
)


class _Model:
    """The channels under test, a flat list per query, and the
    per-result delivery sequence the hook must expand to."""

    def __init__(self, hooked: bool) -> None:
        self.channels = QueryChannels(
            on_deliver=self._on_deliver if hooked else None
        )
        self.flat = {query_id: [] for query_id in QUERIES}
        self.sequence = []
        self.expanded = []
        self.snapshot = None
        self.clock = 0
        for query_id in QUERIES:
            self.channels.open_channel(query_id)

    def _on_deliver(self, query_id, timestamp, count):
        end = self.channels.length(query_id)
        chunk = self.channels.read(query_id, end - count, end)
        assert len(chunk) == count
        outputs = list(chunk)
        assert outputs[-1].timestamp == timestamp
        self.expanded += [(query_id, output) for output in outputs]

    def _tick(self) -> int:
        self.clock += 10
        return self.clock

    def apply(self, op) -> None:
        kind = op[0]
        channels = self.channels
        if kind == "window":
            _, query_id, keys = op
            start = self._tick()
            window = Window(start, start + 10)
            run = WindowRun(
                window, window.max_timestamp(), list(range(keys)),
                [start * 7 + key for key in range(keys)],
            )
            outputs = [
                QueryOutput(run.timestamp, AggregationResult(key, window, value))
                for key, value in zip(run.keys, run.values)
            ]
            channels.deliver_run(query_id, run)
            self._delivered([(query_id, output) for output in outputs])
        elif kind == "list":
            _, query_id, size = op
            outputs = [
                QueryOutput(self._tick(), f"{query_id}:{self.clock}")
                for _ in range(size)
            ]
            channels.deliver_many(query_id, outputs)
            self._delivered([(query_id, output) for output in outputs])
        elif kind == "fan":
            _, query_ids, size = op
            records = [
                Record(self._tick(), f"fan:{self.clock}") for _ in range(size)
            ]
            channels.fan_out(query_ids, records)
            self._delivered(
                [
                    (query_id, QueryOutput(record.timestamp, record.value))
                    for record in records
                    for query_id in query_ids
                ]
            )
        elif kind == "one":
            _, query_id = op
            output = QueryOutput(self._tick(), f"one:{self.clock}")
            channels.deliver(query_id, output.timestamp, output.value)
            self._delivered([(query_id, output)])
        elif kind == "snapshot":
            self.snapshot = (
                channels.snapshot(),
                {query_id: list(flat) for query_id, flat in self.flat.items()},
            )
        elif kind == "restore":
            if self.snapshot is None:
                return
            state, flat = self.snapshot
            channels.restore(state)
            self.flat = {query_id: list(outputs) for query_id, outputs in flat.items()}
        else:
            _, query_id, start, limit = op
            chunk = channels.read(query_id, start, start + limit)
            expected = self.flat[query_id][start:start + limit]
            assert len(chunk) == len(expected)
            assert list(chunk) == expected
            assert chunk == expected

    def _delivered(self, pairs) -> None:
        for query_id, output in pairs:
            self.flat[query_id].append(output)
        self.sequence += pairs

    def check(self) -> None:
        channels = self.channels
        for query_id, flat in self.flat.items():
            length = channels.length(query_id)
            assert length == len(flat) == channels.count(query_id)
            assert list(channels.read(query_id, 0, length)) == flat
            assert channels.results(query_id) == flat
        if self.snapshot is not None:
            state, flat = self.snapshot
            frozen = QueryChannels()
            frozen.restore(state)
            for query_id, outputs in flat.items():
                assert frozen.results(query_id) == outputs


@seed(32)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(_ops, max_size=40), st.booleans())
def test_channels_read_as_a_flat_list(ops, hooked):
    model = _Model(hooked)
    for op in ops:
        model.apply(op)
        model.check()
    if hooked:
        # Restores roll the channels back but not the hook's record, so
        # compare only when the run never restored.
        if not any(op[0] == "restore" for op in ops):
            assert model.expanded == model.sequence


@seed(32)
@settings(max_examples=60, deadline=None)
@given(st.lists(_ops, max_size=30))
def test_recovering_twice_from_one_snapshot_gives_the_same_channels(ops):
    model = _Model(hooked=False)
    for op in ops:
        model.apply(op)
    state = model.channels.snapshot()
    expected = {query_id: list(flat) for query_id, flat in model.flat.items()}
    for _ in range(2):
        model.channels.restore(state)
        model.apply(("window", "q0", 3))
        model.apply(("list", "q1", 2))
        model.apply(("fan", ["q0", "q2"], 2))
        model.flat = {query_id: list(flat) for query_id, flat in expected.items()}
    model.channels.restore(state)
    for query_id, flat in expected.items():
        assert model.channels.results(query_id) == flat
        assert model.channels.length(query_id) == len(flat)


def test_a_window_run_is_kept_by_reference():
    channels = QueryChannels()
    run = WindowRun(Window(0, 10), 9, [1, 2], [5, 6])
    channels.deliver_run("q", run)
    (part,) = channels.read("q", 0, 2).parts
    assert part == (run, 0, 2)
    assert channels.snapshot()["results"]["q"] == (run,)
