"""Server-side tenant state: sessions, idempotency, ingest credits.

A *session* is the durable identity of one client (``client_id``),
surviving reconnects: its idempotency cache (applied control sequence
numbers and their cached replies), its owned queries, and its live
subscriptions all key off the session, not the TCP connection.  That is
what makes the client SDK's retry loop safe — after a reconnect it
re-sends unacknowledged control frames verbatim, and the server replays
the cached reply for any it had already applied instead of creating a
duplicate query.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

DEFAULT_APPLIED_CACHE = 4_096
"""Per-session cap on remembered (seq → reply) idempotency entries."""

DEFAULT_INGEST_CREDITS = 64
"""Push frames a client may have in flight before awaiting a
``push_ack`` — the credit scheme mirroring the worker pool's
:data:`repro.minispe.parallel.DEFAULT_MAX_IN_FLIGHT` backpressure."""


@dataclass
class SessionState:
    """One client's durable state (survives reconnects)."""

    client_id: str
    session_id: str
    applied_cache: int = DEFAULT_APPLIED_CACHE
    applied: "OrderedDict[int, Dict[str, Any]]" = field(
        default_factory=OrderedDict
    )
    """Control ``seq`` → cached reply frame, for idempotent replay."""
    owned_queries: Dict[str, str] = field(default_factory=dict)
    """query_id → lifecycle ("pending" | "live" | "stopped")."""
    subscriptions: Dict[str, Any] = field(default_factory=dict)
    """query_id → live subscription (a
    :class:`~repro.serve.subscriptions.CursorSubscription` on the inline
    backend, a :class:`~repro.serve.subscriptions.Subscription` on the
    process backend)."""
    credits: int = DEFAULT_INGEST_CREDITS
    connected: bool = True
    codec: str = "json"
    """Wire codec negotiated at the last handshake (``json``/``binary``);
    governs how ``result`` frames are encoded for this session."""
    frames_in: int = 0
    tuples_in: int = 0

    def remember(self, seq: int, reply: Dict[str, Any]) -> None:
        """Cache one applied control frame's reply for replay."""
        self.applied[seq] = reply
        while len(self.applied) > self.applied_cache:
            self.applied.popitem(last=False)

    def replay(self, seq: int) -> Optional[Dict[str, Any]]:
        """The cached reply for ``seq`` (None = not yet applied)."""
        return self.applied.get(seq)


class SessionRegistry:
    """All known client sessions, keyed by client id."""

    def __init__(self, applied_cache: int = DEFAULT_APPLIED_CACHE) -> None:
        self._sessions: Dict[str, SessionState] = {}
        self._ids = itertools.count(1)
        self._applied_cache = applied_cache

    def attach(
        self, client_id: str, credits: int = DEFAULT_INGEST_CREDITS
    ) -> SessionState:
        """Look up (or create) the session for a connecting client.

        A reconnect reuses the existing state — the idempotency cache
        and subscriptions carry over; ingest credits reset to the grant
        (any in-flight push frames died with the old connection).
        """
        session = self._sessions.get(client_id)
        if session is None:
            session = SessionState(
                client_id=client_id,
                session_id=f"s{next(self._ids)}",
                applied_cache=self._applied_cache,
            )
            self._sessions[client_id] = session
        session.credits = credits
        session.connected = True
        return session

    def detach(self, session: SessionState) -> None:
        """Mark a session's connection as gone (state is retained)."""
        session.connected = False

    def get(self, client_id: str) -> Optional[SessionState]:
        """The session for ``client_id`` if one exists."""
        return self._sessions.get(client_id)

    def sessions(self) -> list:
        """All known sessions (connected or not)."""
        return list(self._sessions.values())

    @property
    def connected_count(self) -> int:
        """Sessions with a live connection right now."""
        return sum(1 for s in self._sessions.values() if s.connected)
