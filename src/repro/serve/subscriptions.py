"""Streaming result subscriptions: fan-out, bounded backlogs, shedding.

A subscription attaches one client session to one query's output
channel.  Two delivery modes cover the two execution backends:

* **cursor** (inline backend) — the engine retains results in its
  query channel, so a subscription is just an absolute offset into it:
  ``take`` reads the channel's runs from the cursor on, by reference.
  No result is copied into a per-subscription buffer and nothing runs
  per delivery.  The channel keeps only what some subscription has not
  taken yet: after each flush visit the hub trims it behind the slowest
  cursor (:meth:`SubscriptionHub.release`);
* **poll** (process backend) — deliveries happen inside shard worker
  processes, so the coordinator only sees results at merge points; the
  hub diffs the merged channel against what each subscription has
  already been handed (a multiset cursor keyed by the result's
  canonical identity) and buffers exactly the new results.  The diff
  is order-insensitive, which matters because the deterministic
  cross-shard merge re-sorts the full channel on every refresh.

Each subscription's unsent backlog is bounded.  When a consumer is
slower than its query produces, the oldest unsent results are shed and
counted; the next ``result`` frame reports the shed count, so clients
know their view has gaps instead of silently missing data (the
slow-consumer contract: shedding is visible, never fatal).  A poll
subscription sheds from its buffer as results arrive; a cursor
subscription applies the same bound by moving its cursor past the
oldest unsent results, with the same outcome.  A ``from_start``
subscription that arrives after a trim starts at the channel's base,
and its first frame reports the trimmed results as shed.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import count
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.engine import AStreamEngine
from repro.core.router import QueryChannels, QueryOutput, ResultChunk
from repro.serve.state import SessionState

DEFAULT_BUFFER_OUTPUTS = 65_536
"""Per-subscription unsent-result cap before shedding kicks in."""


def output_key(output: QueryOutput) -> Tuple[int, str]:
    """A result's canonical identity for multiset cursors.

    ``(timestamp, repr(value))`` — the same key the deterministic merge
    sorts by, injective for the engine's result payloads.
    """
    return (output.timestamp, repr(output.value))


class Subscription:
    """One session's live attachment to one query's results, in poll mode:
    it owns a bounded buffer that :meth:`SubscriptionHub.poll` fills."""

    def __init__(
        self,
        session: SessionState,
        query_id: str,
        capacity: int = DEFAULT_BUFFER_OUTPUTS,
    ) -> None:
        self.session = session
        self.query_id = query_id
        self.capacity = capacity
        self.buffer: deque = deque()
        self.dropped_total = 0
        self._dropped_unreported = 0
        self.delivered_total = 0
        self.pressure = False
        """SLO-burn shedding: while set, the effective buffer capacity
        is halved so backlog (and thus tail latency) stops compounding
        for a query already burning its error budget."""
        self.sent: Dict[Tuple[int, str], int] = {}
        """Multiset cursor: canonical key → count handed over."""
        self.order = 0
        """Position in the hub's subscribe order (the flush order)."""

    def set_pressure(self, active: bool) -> bool:
        """Apply or lift SLO-burn pressure; True when the state changed."""
        if self.pressure == active:
            return False
        self.pressure = active
        return True

    def offer(self, output: QueryOutput) -> None:
        """Buffer one result, shedding the oldest when full."""
        capacity = self.capacity // 2 if self.pressure else self.capacity
        while len(self.buffer) >= max(1, capacity):
            self.buffer.popleft()
            self.dropped_total += 1
            self._dropped_unreported += 1
        self.buffer.append(output)

    def take(self, limit: int) -> Tuple[List[QueryOutput], int]:
        """Pop up to ``limit`` buffered results + the unreported shed count."""
        batch: List[QueryOutput] = []
        while self.buffer and len(batch) < limit:
            batch.append(self.buffer.popleft())
        dropped = self._dropped_unreported
        self._dropped_unreported = 0
        self.delivered_total += len(batch)
        return batch, dropped

    @property
    def pending(self) -> int:
        """Results buffered and not yet taken."""
        return len(self.buffer)


class CursorSubscription:
    """One session's live attachment to one query's results, as a cursor
    over the query's retained channel.

    The channel is read through ``channels.length`` and
    ``channels.read`` on every call, because recovery replaces the
    channels.  The cursor is an absolute channel offset.  It starts at
    the channel's base or, without ``from_start``, at its end; a start
    above zero reports the results below the base as shed.  The hub
    trims the channel behind the slowest cursor, so everything from the
    cursor on stays readable.  Same interface as :class:`Subscription`.
    """

    def __init__(
        self,
        session: SessionState,
        query_id: str,
        channels: QueryChannels,
        capacity: int = DEFAULT_BUFFER_OUTPUTS,
        from_start: bool = True,
    ) -> None:
        self.session = session
        self.query_id = query_id
        self.capacity = capacity
        self.channels = channels
        base = channels.base(query_id)
        start = base if from_start else channels.length(query_id)
        self.cursor = start
        """Channel offset of the next result to send."""
        self._settled = start
        """Channel length the backlog bound was last applied at."""
        self._dropped_total = self._dropped_unreported = start if from_start else 0
        self.delivered_total = 0
        self.pressure = False
        """SLO-burn shedding, as on :class:`Subscription`: while set,
        the backlog bound is halved."""
        self.order = 0
        """Position in the hub's subscribe order (the flush order)."""

    @property
    def buffer(self) -> deque:
        """Always empty: a cursor buffers nothing."""
        return deque()

    def _backlog(self) -> Tuple[int, int]:
        """(channel length, results to shed).

        Results that arrived since the last settle were all offered under
        the current pressure, so a buffer would now hold the newest
        ``capacity`` of the unsent ones — the rest are to be shed.  With
        no arrivals a buffer sheds nothing, even above capacity.  Reads
        only, so gauges may call it from another thread.
        """
        end = self.channels.length(self.query_id)
        if end <= self._settled:
            return end, 0
        capacity = max(1, self.capacity // 2 if self.pressure else self.capacity)
        return end, max(0, end - self.cursor - capacity)

    def settle(self) -> None:
        """Move the cursor past what :meth:`_backlog` sheds.

        Settling early, before every trim, sheds the same in total as
        settling only at :meth:`take`: each settle moves the cursor to
        at least ``end - capacity``, and ``end`` only grows."""
        end, shed = self._backlog()
        self._settled = max(self._settled, end)
        self.cursor += shed
        self._dropped_total += shed
        self._dropped_unreported += shed

    def set_pressure(self, active: bool) -> bool:
        """Apply or lift SLO-burn pressure; True when the state changed.

        Settles first, so results that arrived under the old capacity
        are bounded by it."""
        if self.pressure == active:
            return False
        self.settle()
        self.pressure = active
        return True

    def take(self, limit: int) -> Tuple[ResultChunk, int]:
        """Up to ``limit`` unsent results, as a chunk of the channel's
        runs, + the unreported shed count."""
        self.settle()
        start = self.cursor
        batch = self.channels.read(self.query_id, start, start + limit)
        self.cursor = start + len(batch)
        dropped = self._dropped_unreported
        self._dropped_unreported = 0
        self.delivered_total += len(batch)
        return batch, dropped

    @property
    def pending(self) -> int:
        """Results waiting to be taken."""
        end, shed = self._backlog()
        return max(0, end - self.cursor - shed)

    @property
    def dropped_total(self) -> int:
        """Results shed since subscribing."""
        return self._dropped_total + self._backlog()[1]


AnySubscription = Union[Subscription, CursorSubscription]

_ORDER = attrgetter("order")


class SubscriptionHub:
    """All live subscriptions against one engine.

    ``tap_mode`` (the inline backend, whose router delivers in this
    process) makes subscriptions cursors over the engine's retained
    channels — a count-only engine (``retain_results=False``) therefore
    streams nothing; otherwise :meth:`poll` fills per-subscription
    buffers.

    :meth:`due` names the subscriptions a flush must visit: those whose
    query's channel was delivered to since the last call, plus those
    :meth:`hold` kept (results left over, or a connection that could
    not take them).  Every subscription with results pending is among
    them, so a flush never looks at the others.
    """

    def __init__(
        self,
        engine: AStreamEngine,
        tap_mode: bool,
        buffer_capacity: int = DEFAULT_BUFFER_OUTPUTS,
    ) -> None:
        self.engine = engine
        self.tap_mode = tap_mode
        self.buffer_capacity = buffer_capacity
        self._by_query: Dict[str, List[AnySubscription]] = {}
        self._held: Set[AnySubscription] = set()
        self._order = count()

    # -- lifecycle ---------------------------------------------------------

    def subscribe(
        self,
        session: SessionState,
        query_id: str,
        from_start: bool = True,
    ) -> AnySubscription:
        """Attach ``session`` to ``query_id``; returns the subscription.

        ``from_start`` makes everything the query has already produced
        pending; otherwise only results delivered after this call flow.
        Re-subscribing an already-subscribed query returns the existing
        attachment (the SDK's post-reconnect resubscribe must not
        double-deliver).
        """
        existing = session.subscriptions.get(query_id)
        if existing is not None:
            return existing
        if self.tap_mode:
            subscription: AnySubscription = CursorSubscription(
                session, query_id, self.engine.channels,
                capacity=self.buffer_capacity, from_start=from_start,
            )
        else:
            subscription = Subscription(
                session, query_id, capacity=self.buffer_capacity
            )
            backlog = self.engine.results(query_id)
            if from_start:
                for output in backlog:
                    subscription.offer(output)
            # Everything produced so far counts as handed over.
            subscription.sent = Counter(map(output_key, backlog))
        subscription.order = next(self._order)
        self._held.add(subscription)
        session.subscriptions[query_id] = subscription
        self._by_query.setdefault(query_id, []).append(subscription)
        return subscription

    def unsubscribe(self, session: SessionState, query_id: str) -> bool:
        """Detach ``session`` from ``query_id``; True when it existed."""
        subscription = session.subscriptions.pop(query_id, None)
        if subscription is None:
            return False
        self._held.discard(subscription)
        peers = self._by_query.get(query_id, [])
        if subscription in peers:
            peers.remove(subscription)
        if not peers:
            self._by_query.pop(query_id, None)
        return True

    def drop_session(self, session: SessionState) -> None:
        """Tear down every subscription a session holds."""
        for query_id in list(session.subscriptions):
            self.unsubscribe(session, query_id)

    # -- delivery ----------------------------------------------------------

    def due(self) -> List[AnySubscription]:
        """Subscriptions that may have results to send, in subscribe
        order (so each connection's frames keep their order); the held
        set starts empty again."""
        due = self._held
        self._held = set()
        for query_id in self.engine.channels.take_fresh():
            due.update(self._by_query.get(query_id, ()))
        return sorted(due, key=_ORDER)

    def hold(self, subscription: AnySubscription) -> None:
        """Visit ``subscription`` again at the next :meth:`due`."""
        self._held.add(subscription)

    def release(self, query_id: str) -> None:
        """Trim ``query_id``'s channel behind its slowest cursor.

        Every subscription applies its backlog bound first, so one whose
        connection is away pins at most its capacity plus one run.  A
        query with no subscription is never trimmed, and neither is a
        poll-mode channel."""
        subscriptions = self._by_query.get(query_id)
        if self.tap_mode and subscriptions:
            for subscription in subscriptions:
                subscription.settle()
            cursor = min(subscription.cursor for subscription in subscriptions)
            self.engine.channels.trim(query_id, cursor)

    def poll(self, query_ids: Optional[List[str]] = None) -> int:
        """Poll-mode refresh: diff channels into buffers; returns new count.

        For each subscribed query the merged channel is compared against
        each subscription's multiset cursor; results beyond the cursor
        are buffered.  In tap mode the subscriptions are cursors over the
        channels already: 0, with no channel read — so callers stay
        backend-agnostic.
        """
        if self.tap_mode:
            return 0
        fanned = 0
        targets = query_ids if query_ids is not None else list(self._by_query)
        for query_id in targets:
            subscriptions = self._by_query.get(query_id)
            if not subscriptions:
                continue
            outputs = self.engine.results(query_id)
            if not outputs:
                continue
            for subscription in subscriptions:
                fanned += self._advance(subscription, outputs)
        return fanned

    def _advance(
        self, subscription: Subscription, outputs: List[QueryOutput]
    ) -> int:
        """Hand one subscription everything beyond its multiset cursor."""
        sent = subscription.sent
        tally: Dict[Tuple[int, str], int] = {}
        new = 0
        for output in outputs:
            key = output_key(output)
            seen = tally.get(key, 0) + 1
            tally[key] = seen
            if seen > sent.get(key, 0):
                subscription.offer(output)
                sent[key] = seen
                new += 1
        if new:
            self._held.add(subscription)
        return new

    # -- shedding ----------------------------------------------------------

    def set_pressure(self, query_id: str, active: bool) -> int:
        """Apply/lift SLO-burn pressure on a query's subscriptions.

        Returns how many subscriptions changed state."""
        return sum(
            subscription.set_pressure(active)
            for subscription in self._by_query.get(query_id, ())
        )

    # -- introspection -----------------------------------------------------

    @property
    def subscription_count(self) -> int:
        """Live subscriptions across all sessions."""
        return sum(len(peers) for peers in self._by_query.values())

    @property
    def pending_outputs(self) -> int:
        """Results waiting across all subscriptions, not yet shipped."""
        return sum(
            subscription.pending
            for peers in self._by_query.values()
            for subscription in peers
        )

    @property
    def dropped_total(self) -> int:
        """Results shed across all subscriptions since start."""
        return sum(
            subscription.dropped_total
            for peers in self._by_query.values()
            for subscription in peers
        )
