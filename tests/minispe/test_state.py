"""Tests for keyed and operator state."""

from repro.minispe.state import KeyedState, OperatorState


class TestKeyedState:
    def test_default_factory(self):
        state = KeyedState(default_factory=list)
        state.get("k").append(1)
        assert state.get("k") == [1]

    def test_no_factory_returns_none(self):
        state = KeyedState()
        assert state.get("missing") is None

    def test_put_and_contains(self):
        state = KeyedState()
        state.put("k", 42)
        assert state.contains("k")
        assert state.get("k") == 42

    def test_remove_is_idempotent(self):
        state = KeyedState()
        state.put("k", 1)
        state.remove("k")
        state.remove("k")
        assert not state.contains("k")

    def test_len_and_keys(self):
        state = KeyedState()
        state.put("a", 1)
        state.put("b", 2)
        assert len(state) == 2
        assert sorted(state.keys()) == ["a", "b"]

    def test_items(self):
        state = KeyedState()
        state.put("a", 1)
        assert list(state.items()) == [("a", 1)]

    def test_clear(self):
        state = KeyedState()
        state.put("a", 1)
        state.clear()
        assert len(state) == 0

    def test_snapshot_is_deep_copy(self):
        state = KeyedState(default_factory=list)
        state.get("k").append(1)
        snapshot = state.snapshot()
        state.get("k").append(2)
        assert snapshot["k"] == [1]

    def test_restore_is_deep_copy(self):
        state = KeyedState(default_factory=list)
        snapshot = {"k": [1]}
        state.restore(snapshot)
        state.get("k").append(2)
        assert snapshot["k"] == [1]
        assert state.get("k") == [1, 2]

    def test_peek_does_not_create_state(self):
        state = KeyedState(default_factory=list)
        assert state.peek("ghost") is None
        assert state.peek("ghost", "d") == "d"
        assert len(state) == 0 and not state.contains("ghost")
        state.get("ghost")  # the read-modify accessor DOES create
        assert state.contains("ghost")
        state.put("k", 7)
        assert state.peek("k") == 7

    def test_snapshot_shares_immutable_values(self):
        state = KeyedState()
        scalar_tuple = (1, "a", 2.5, None)
        nested = ("outer", [1, 2])
        state.put("shared", scalar_tuple)
        state.put("copied", nested)
        state.put("n", 7)
        snapshot = state.snapshot()
        # All-immutable tuples and scalars are shared, not copied...
        assert snapshot["shared"] is scalar_tuple
        assert snapshot["n"] == 7
        # ...while anything mutable (even inside a tuple) is deep-copied.
        assert snapshot["copied"] is not nested
        assert snapshot["copied"][1] is not nested[1]
        nested[1].append(3)
        assert snapshot["copied"] == ("outer", [1, 2])


class TestOperatorState:
    def test_initial_value(self):
        assert OperatorState(5).value == 5
        assert OperatorState().value is None

    def test_set_value(self):
        state = OperatorState()
        state.value = "x"
        assert state.value == "x"

    def test_snapshot_restore_round_trip(self):
        state = OperatorState({"nested": [1]})
        snapshot = state.snapshot()
        state.value["nested"].append(2)
        restored = OperatorState()
        restored.restore(snapshot)
        assert restored.value == {"nested": [1]}
