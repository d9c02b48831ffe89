"""Tests for the basic operator framework."""

from typing import List

import pytest

from repro.minispe.operators import (
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    Operator,
    OperatorContext,
    TwoInputOperator,
)
from repro.minispe.record import ChangelogMarker, Record, Watermark
from tests.conftest import flat_collector


def _collecting(operator: Operator) -> List:
    out: List = []
    operator.set_collector(flat_collector(out))
    operator.open(OperatorContext(operator.name, 0, 1))
    return out


class TestOperatorBase:
    def test_emit_before_wiring_raises(self):
        operator = MapOperator(lambda v: v)
        with pytest.raises(RuntimeError, match="wired"):
            operator.output(Record(timestamp=0, value=1))

    def test_default_forwards_watermark_and_marker(self):
        class Passthrough(Operator):
            def process(self, record):
                pass

        operator = Passthrough()
        out = _collecting(operator)
        operator.on_watermark(Watermark(timestamp=5))
        operator.on_marker(ChangelogMarker(timestamp=6))
        assert [element.timestamp for element in out] == [5, 6]

    def test_default_snapshot_is_none(self):
        operator = MapOperator(lambda v: v)
        assert operator.snapshot() is None
        operator.restore(None)  # no-op

    def test_two_input_process_rejected(self):
        class Join(TwoInputOperator):
            def process_left(self, record):
                pass

            def process_right(self, record):
                pass

        with pytest.raises(RuntimeError):
            Join().process(Record(timestamp=0, value=1))


class TestMapOperator:
    def test_transforms_value_preserves_metadata(self):
        operator = MapOperator(lambda v: v * 10)
        out = _collecting(operator)
        operator.process(Record(timestamp=7, value=3, key="k", tags={"qs": 1}))
        assert out[0].value == 30
        assert out[0].timestamp == 7
        assert out[0].key == "k"
        assert out[0].tags == {"qs": 1}


class TestFilterOperator:
    def test_keeps_matching(self):
        operator = FilterOperator(lambda v: v > 2)
        out = _collecting(operator)
        for value in range(5):
            operator.process(Record(timestamp=value, value=value))
        assert [record.value for record in out] == [3, 4]


class TestKeyByOperator:
    def test_rekeys(self):
        operator = KeyByOperator(lambda v: v % 2)
        out = _collecting(operator)
        operator.process(Record(timestamp=0, value=5))
        assert out[0].key == 1


class TestFlatMapOperator:
    def test_expands(self):
        operator = FlatMapOperator(lambda v: [v, v + 1])
        out = _collecting(operator)
        operator.process(Record(timestamp=0, value=10, key="k"))
        assert [record.value for record in out] == [10, 11]
        assert all(record.key == "k" for record in out)

    def test_empty_expansion(self):
        operator = FlatMapOperator(lambda v: [])
        out = _collecting(operator)
        operator.process(Record(timestamp=0, value=10))
        assert out == []


def test_operator_context_repr():
    context = OperatorContext("op", 1, 4)
    assert "op" in repr(context)
    assert "1/4" in repr(context)
