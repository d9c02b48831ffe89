"""Operator state with snapshot/restore support.

Two kinds of state mirror Flink's model:

* :class:`KeyedState` — a per-key map scoped to the record key currently
  being processed.  The per-query window operators keep their
  ``(key, window)`` accumulators in it.
* :class:`OperatorState` — a single value per operator instance (e.g. the
  set of active queries inside a shared operator).

Both support :meth:`snapshot` / :meth:`restore` used by the checkpoint
coordinator.  Snapshots are copy-on-write: immutable values (tuples of
scalars, numbers, strings) are shared with the live map — they cannot be
mutated in place, so sharing is safe — and only mutable values pay a
deep copy.  Later mutation of live state therefore still cannot corrupt
a completed checkpoint, at a fraction of the old whole-map
``copy.deepcopy`` cost (benchmarked in ``bench_ablation_storage.py``).

Keyed state is a plain in-memory dict: state larger than RAM is out of
scope.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

_IMMUTABLE_SCALARS = (int, float, str, bytes, bool, frozenset, type(None))


def _copy_value(value: Any) -> Any:
    """Copy-on-write snapshot copy: share immutables, deep-copy the rest."""
    if isinstance(value, _IMMUTABLE_SCALARS):
        return value
    if type(value) is tuple:
        if all(isinstance(item, _IMMUTABLE_SCALARS) for item in value):
            return value
        return tuple(_copy_value(item) for item in value)
    return copy.deepcopy(value)


class KeyedState:
    """A per-key state map with a default factory.

    Example::

        state = KeyedState(default_factory=list)
        state.get(key).append(tuple_)
    """

    def __init__(self, default_factory: Optional[Callable[[], Any]] = None) -> None:
        self._entries: Dict[Any, Any] = {}
        self._default_factory = default_factory

    def get(self, key: Any) -> Any:
        """Return the state for ``key``, creating it via the factory if absent.

        This is the *read-modify* accessor: with a ``default_factory``
        the created entry is inserted so callers can mutate it in place.
        Use :meth:`peek` on read-only paths — probing here permanently
        materialises an entry per probed key.
        """
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            if self._default_factory is None:
                return None
            value = self._default_factory()
            self._entries[key] = value
        return value

    def peek(self, key: Any, default: Any = None) -> Any:
        """Return the state for ``key`` without creating it.

        The read-only sibling of :meth:`get`: absent keys return
        ``default`` and the map is left untouched, so probes do not
        inflate state size or snapshot cost.
        """
        return self._entries.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        """Set the state for ``key``."""
        self._entries[key] = value

    def contains(self, key: Any) -> bool:
        """Return True if state exists for ``key``."""
        return key in self._entries

    def remove(self, key: Any) -> None:
        """Drop the state for ``key`` (no-op if absent)."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop all per-key state."""
        self._entries.clear()

    def keys(self) -> Iterator[Any]:
        """Iterate over keys that currently hold state (a copy, so the
        map may change during the loop)."""
        return iter(list(self._entries))

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate over ``(key, state)`` pairs (a copy, as :meth:`keys`)."""
        return iter(list(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[Any, Any]:
        """Copy-on-write snapshot of all entries for checkpointing.

        Immutable values are shared (they cannot change under the
        checkpoint); mutable values are deep-copied.
        """
        return {key: _copy_value(value) for key, value in self._entries.items()}

    def restore(self, snapshot: Dict[Any, Any]) -> None:
        """Replace the entries from ``snapshot`` (copy-on-write copies)."""
        self._entries = {key: _copy_value(value) for key, value in snapshot.items()}


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


class OperatorState:
    """A single mutable value per operator instance."""

    def __init__(self, initial: Any = None) -> None:
        self._value = initial

    @property
    def value(self) -> Any:
        """The current state value."""
        return self._value

    @value.setter
    def value(self, new_value: Any) -> None:
        self._value = new_value

    def snapshot(self) -> Any:
        """Return a deep copy of the value for checkpointing."""
        return copy.deepcopy(self._value)

    def restore(self, snapshot: Any) -> None:
        """Replace the value with a deep copy of ``snapshot``."""
        self._value = copy.deepcopy(snapshot)
