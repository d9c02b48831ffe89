"""``repro.serve``: the networked multi-tenant stream service layer.

Puts the shared-stream engine behind a TCP frame protocol so many
independent clients can create/delete ad-hoc queries, push events, and
stream results concurrently — the paper's serving setting exercised
over a real wire.  See :mod:`repro.serve.core` for the architecture
tour and ``docs/ARCHITECTURE.md`` for the frame protocol spec.

Start a server with ``python -m repro serve`` or in-process::

    server = AStreamServer(ServeConfig(backend="process", workers=4))
    await server.start()

and talk to it with :class:`ServeClient` (blocking) or
:class:`AsyncServeClient` (asyncio).
"""

from repro.serve.client import (
    AsyncServeClient,
    ConnectionLost,
    ControlResult,
    ServeClient,
    ServeError,
)
from repro.serve.gate import EngineGate
from repro.serve.hosting import ServerThread
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_events,
    decode_frame,
    encode_events,
    encode_frame,
)
from repro.serve.core import ServeConfig, build_engine
from repro.serve.server import AStreamServer
from repro.serve.state import SessionRegistry, SessionState
from repro.serve.subscriptions import (
    CursorSubscription,
    Subscription,
    SubscriptionHub,
)

__all__ = [
    "AStreamServer",
    "AsyncServeClient",
    "ConnectionLost",
    "ControlResult",
    "CursorSubscription",
    "EngineGate",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "SessionRegistry",
    "SessionState",
    "Subscription",
    "SubscriptionHub",
    "build_engine",
    "decode_events",
    "decode_frame",
    "encode_events",
    "encode_frame",
]
