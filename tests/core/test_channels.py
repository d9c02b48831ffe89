"""Query channels as runs: a property test against a flat-list model.

A channel holds window runs and open lists by reference.  Whatever the
interleaving of window runs (0 to N keys), single-query lists, fan-out
deliveries, trims, snapshots, restores (twice from one snapshot) and
cursor reads, the channel must read back exactly as the flat list of the
delivered results would from its base on, its length must stay absolute
and equal its count, a trim must drop exactly the runs that end at or
below its offset, the ``on_deliver`` calls expanded into the channel's
last ``count`` results must give the per-result delivery sequence, and a
snapshot must not change when deliveries or trims continue after it.
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
    st.tuples(st.just("trim"), _query, st.integers(0, 40)),
)


class _Model:
    """The channels under test, a flat list per query, and the
    per-result delivery sequence the hook must expand to."""

    def __init__(self, hooked: bool) -> None:
        self.channels = QueryChannels(
            on_deliver=self._on_deliver if hooked else None
        )
        self.flat = {query_id: [] for query_id in QUERIES}
        self.bases = dict.fromkeys(QUERIES, 0)
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
        elif kind == "trim":
            _, query_id, below = op
            channels.trim(query_id, below)
            base = channels.base(query_id)
            length = len(self.flat[query_id])
            # Whole runs only: never past ``below`` (a partly taken run
            # stays), and every run that ends at or below it is gone.
            assert self.bases[query_id] <= base <= max(self.bases[query_id], below)
            parts = channels.read(query_id, base, length).parts
            if parts:
                run, lo, hi = parts[0]
                assert (lo, hi) == (0, len(run)) and base + len(run) > below
            else:
                assert base == length
            self.bases[query_id] = base
        elif kind == "snapshot":
            self.snapshot = (
                channels.snapshot(),
                {query_id: list(flat) for query_id, flat in self.flat.items()},
                dict(self.bases),
            )
        elif kind == "restore":
            if self.snapshot is None:
                return
            state, flat, bases = self.snapshot
            channels.restore(state)
            self.flat = {query_id: list(outputs) for query_id, outputs in flat.items()}
            self.bases = dict(bases)
        else:
            _, query_id, start, limit = op
            chunk = channels.read(query_id, start, start + limit)
            lo = max(start, self.bases[query_id])
            expected = self.flat[query_id][lo:start + limit]
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
            base = self.bases[query_id]
            length = channels.length(query_id)
            assert channels.base(query_id) == base
            assert length == len(flat) == channels.count(query_id)
            assert list(channels.read(query_id, base, length)) == flat[base:]
            assert channels.results(query_id) == flat[base:]
        assert channels.retained() == sum(
            len(flat) - self.bases[query_id] for query_id, flat in self.flat.items()
        )
        if self.snapshot is not None:
            state, flat, bases = self.snapshot
            frozen = QueryChannels()
            frozen.restore(state)
            for query_id, outputs in flat.items():
                assert frozen.base(query_id) == bases[query_id]
                assert frozen.length(query_id) == len(outputs)
                assert frozen.results(query_id) == outputs[bases[query_id]:]


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
    bases = dict(model.bases)
    for _ in range(2):
        model.channels.restore(state)
        model.apply(("window", "q0", 3))
        model.apply(("list", "q1", 2))
        model.apply(("fan", ["q0", "q2"], 2))
        model.apply(("trim", "q0", len(model.flat["q0"]) - 1))
        model.flat = {query_id: list(flat) for query_id, flat in expected.items()}
        model.bases = dict(bases)
    model.channels.restore(state)
    for query_id, flat in expected.items():
        assert model.channels.base(query_id) == bases[query_id]
        assert model.channels.results(query_id) == flat[bases[query_id]:]
        assert model.channels.length(query_id) == len(flat)


def test_a_window_run_is_kept_by_reference():
    channels = QueryChannels()
    run = WindowRun(Window(0, 10), 9, [1, 2], [5, 6])
    channels.deliver_run("q", run)
    (part,) = channels.read("q", 0, 2).parts
    assert part == (run, 0, 2)
    assert channels.snapshot()["results"]["q"] == (run,)
