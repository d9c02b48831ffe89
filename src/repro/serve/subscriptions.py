"""Streaming result subscriptions: fan-out, bounded buffers, shedding.

A subscription attaches one client session to one query's output
channel.  Two delivery modes cover the two execution backends:

* **tap** (inline backend) — a :meth:`QueryChannels.add_tap` hook fires
  synchronously on every router delivery, so results stream with no
  polling and no re-reads;
* **poll** (process backend) — deliveries happen inside shard worker
  processes, so the coordinator only sees results at merge points; the
  hub diffs the merged channel against what each subscription has
  already been handed (a multiset cursor keyed by the result's
  canonical identity) and forwards exactly the new results.  The diff
  is order-insensitive, which matters because the deterministic
  cross-shard merge re-sorts the full channel on every refresh.

Each subscription owns a bounded buffer.  When a consumer is slower
than its query produces, the oldest buffered results are shed and
counted; the next ``result`` frame reports the shed count, so clients
know their view has gaps instead of silently missing data (the
slow-consumer contract: shedding is visible, never fatal).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, Optional, Tuple

from repro.core.engine import AStreamEngine
from repro.core.router import QueryOutput
from repro.serve.state import SessionState

DEFAULT_BUFFER_OUTPUTS = 65_536
"""Per-subscription buffered-result cap before shedding kicks in."""


def output_key(output: QueryOutput) -> Tuple[int, str]:
    """A result's canonical identity for multiset cursors.

    ``(timestamp, repr(value))`` — the same key the deterministic merge
    sorts by, injective for the engine's result payloads.
    """
    return (output.timestamp, repr(output.value))


class Subscription:
    """One session's live attachment to one query's results."""

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
        """Poll-mode multiset cursor: canonical key → count handed over
        (tap mode keeps none: the tap hands over every result once)."""

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


class SubscriptionHub:
    """All live subscriptions against one engine."""

    def __init__(
        self,
        engine: AStreamEngine,
        tap_mode: bool,
        buffer_capacity: int = DEFAULT_BUFFER_OUTPUTS,
    ) -> None:
        self.engine = engine
        self.tap_mode = tap_mode
        self.buffer_capacity = buffer_capacity
        self._by_query: Dict[str, List[Subscription]] = {}

    # -- lifecycle ---------------------------------------------------------

    def subscribe(
        self,
        session: SessionState,
        query_id: str,
        from_start: bool = True,
    ) -> Subscription:
        """Attach ``session`` to ``query_id``; returns the subscription.

        ``from_start`` seeds the buffer with everything the query has
        already produced; otherwise only results delivered after this
        call flow.  Re-subscribing an already-subscribed query returns
        the existing attachment (the SDK's post-reconnect resubscribe
        must not double-deliver).
        """
        existing = session.subscriptions.get(query_id)
        if existing is not None:
            return existing
        subscription = Subscription(
            session, query_id, capacity=self.buffer_capacity
        )
        backlog = self.engine.results(query_id)
        if from_start:
            for output in backlog:
                subscription.offer(output)
        if not self.tap_mode:
            # Everything produced so far counts as handed over.
            subscription.sent = Counter(map(output_key, backlog))
        session.subscriptions[query_id] = subscription
        peers = self._by_query.setdefault(query_id, [])
        if self.tap_mode and not peers:
            self.engine.channels.add_tap(query_id, self._tap)
        peers.append(subscription)
        return subscription

    def unsubscribe(self, session: SessionState, query_id: str) -> bool:
        """Detach ``session`` from ``query_id``; True when it existed."""
        subscription = session.subscriptions.pop(query_id, None)
        if subscription is None:
            return False
        peers = self._by_query.get(query_id, [])
        if subscription in peers:
            peers.remove(subscription)
        if not peers:
            self._by_query.pop(query_id, None)
            if self.tap_mode:
                self.engine.channels.remove_tap(query_id, self._tap)
        return True

    def drop_session(self, session: SessionState) -> None:
        """Tear down every subscription a session holds."""
        for query_id in list(session.subscriptions):
            self.unsubscribe(session, query_id)

    # -- delivery ----------------------------------------------------------

    def _tap(self, query_id: str, timestamp: int, value) -> None:
        """Tap mode: offer one router delivery to the query's subscribers."""
        output = QueryOutput(timestamp=timestamp, value=value)
        for subscription in self._by_query.get(query_id, ()):
            subscription.offer(output)

    def poll(self, query_ids: Optional[List[str]] = None) -> int:
        """Poll-mode refresh: diff channels into buffers; returns new count.

        For each subscribed query the merged channel is compared against
        each subscription's multiset cursor; results beyond the cursor
        are buffered.  In tap mode the taps already delivered everything:
        0, without reading a channel — so callers stay backend-agnostic.
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
        return new

    # -- shedding ----------------------------------------------------------

    def set_pressure(self, query_id: str, active: bool) -> int:
        """Apply/lift SLO-burn pressure on a query's subscriptions.

        Returns how many subscriptions changed state."""
        changed = 0
        for subscription in self._by_query.get(query_id, ()):
            if subscription.pressure != active:
                subscription.pressure = active
                changed += 1
        return changed

    # -- introspection -----------------------------------------------------

    @property
    def subscription_count(self) -> int:
        """Live subscriptions across all sessions."""
        return sum(len(peers) for peers in self._by_query.values())

    @property
    def pending_outputs(self) -> int:
        """Results buffered across all subscriptions, not yet shipped."""
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
