"""The networked multi-tenant stream service: the asyncio transport.

:class:`AStreamServer` is the thin I/O shell around one sans-IO
:class:`~repro.serve.core.ServerCore`, which holds everything the
service *does* (see :mod:`repro.serve.core` for the plane-by-plane
tour).  The transport only moves bytes and time:

* ``asyncio.start_server`` and one read loop per connection, handing
  each decoded frame (or the :class:`ProtocolError` decoding raised) to
  :meth:`ServerCore.receive`;
* :meth:`AStreamServer._send`, the one function that writes to a
  ``StreamWriter``: it carries the core's effects out in order and
  drains, building a deferred frame (a traced push's ``push_ack``) only
  once everything before it is on the wire;
* the ticker's sleep (every :data:`TICK_INTERVAL_MS`), telling the core
  which connections' write buffers are over :data:`WRITE_BUFFER_LIMIT`
  so its result flushes skip them until the next tick (results leave
  with the push or watermark that made them; the tick is their upper
  bound);
* the ``GET /metrics`` sidecar, ``start``/``stop``/``serve_forever``.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
from typing import Dict, List, Optional, Set

from repro.core.engine import AStreamEngine
from repro.serve.core import CLOSE, STOP, Effect, ServeConfig, ServerCore
from repro.serve.httpmetrics import MetricsHttpServer
from repro.serve.protocol import ProtocolError, encode_frame, read_frame

logger = logging.getLogger("repro.serve.server")

TICK_INTERVAL_MS = 20
"""Ticker cadence: session timeout flushes, deferred admission retries,
worker supervision, and the upper bound on a result's wait — for held
leftovers, congested connections and poll mode (a push or watermark
flushes what it made at once)."""

WRITE_BUFFER_LIMIT = 4 * 1024 * 1024
"""Per-connection transport backlog above which the subscription
flushes skip the connection until the next tick (results keep buffering
— and eventually shedding — in the hub instead of in kernel memory)."""


class AStreamServer:
    """The asyncio TCP server fronting one shared-stream engine."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[AStreamEngine] = None,
    ) -> None:
        self.core = ServerCore(config, engine)
        self.config = self.core.config
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        """Connection id → its writer (the core's ``conn`` handles)."""
        self._conn_ids = itertools.count(1)
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_http: Optional[MetricsHttpServer] = None
        self._ticker_task: Optional[asyncio.Task] = None
        self._stopping: Optional[asyncio.Event] = None
        self._stop_task: Optional[asyncio.Task] = None
        """The :meth:`stop` a wire ``shutdown`` started."""
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind listeners and start the background ticker."""
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._connection, self.config.host, self.config.port
        )
        if self.config.metrics_port is not None:
            self._metrics_http = MetricsHttpServer(
                self.core.render_metrics,
                host=self.config.host,
                port=self.config.metrics_port,
            )
            await self._metrics_http.start()
        self._ticker_task = asyncio.create_task(self._ticker())
        logger.info(
            "serving %s backend on %s:%d (metrics: %s)",
            self.config.backend,
            self.config.host,
            self.port,
            self._metrics_http.port if self._metrics_http else "off",
        )

    @property
    def port(self) -> int:
        """The bound frame-protocol port."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound HTTP metrics port (None when disabled)."""
        return self._metrics_http.port if self._metrics_http else None

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` frame)."""
        if self._stopping is None:
            raise RuntimeError("call start() first")
        await self._stopping.wait()
        if self._stop_task is not None:
            await self._stop_task  # surface a failed wire-triggered stop

    async def stop(self, drain: bool = True) -> None:
        """Graceful teardown: drain, checkpoint, close, release.

        ``drain`` settles in-flight work and (with ``log_inputs``)
        takes a final checkpoint before the engine shuts down, so a
        restarted server could recover the query population.
        """
        if self._closed:
            return
        self._closed = True
        if self._ticker_task is not None:
            self._ticker_task.cancel()
            try:
                await self._ticker_task
            except asyncio.CancelledError:
                pass
        await self._send(self.core.stop(drain))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_http is not None:
            await self._metrics_http.stop()
        for writer in list(self._writers.values()):
            writer.close()
        self.core.shutdown()
        if self._stopping is not None:
            self._stopping.set()

    # -- the wire ----------------------------------------------------------

    async def _ticker(self) -> None:
        while True:
            await asyncio.sleep(TICK_INTERVAL_MS / 1_000.0)
            congested = {
                conn
                for conn, writer in self._writers.items()
                if writer.transport.get_write_buffer_size()
                > WRITE_BUFFER_LIMIT
            }
            try:
                await self._send(self.core.tick(self.core.now_ms(), congested))
            except Exception:
                logger.exception("ticker iteration failed")

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = next(self._conn_ids)
        self._writers[conn] = writer
        try:
            while not (self._closed or writer.is_closing()):
                try:
                    frame = await read_frame(reader)
                except ProtocolError as error:
                    frame = error  # answered, never fatal
                if frame is None:
                    break
                await self._send(self.core.receive(conn, frame))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self.core.disconnect(conn)
            self._writers.pop(conn, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, effects: List[Effect]) -> None:
        """Carry the core's effects out, in order: the one place bytes
        reach a ``StreamWriter``.

        Frames to connections already gone are dropped.  A deferred
        frame (a callable) is built only after every frame before it is
        written and drained.  ``STOP`` starts :meth:`stop` once the
        batch is out.
        """
        written: Set[asyncio.StreamWriter] = set()

        async def drain() -> None:
            for pending in written:
                try:
                    await pending.drain()
                except OSError:
                    pass  # a lost peer: its read loop ends the session
            written.clear()

        stopping = False
        for conn, item in effects:
            if item is STOP:
                stopping = True
                continue
            if callable(item):
                await drain()
                item = item()
            writer = self._writers.get(conn)
            if writer is None or writer.is_closing():
                continue
            if item is CLOSE:
                writer.close()
                continue
            raw = item if isinstance(item, bytes) else encode_frame(item)
            writer.write(raw)
            written.add(writer)
        await drain()
        if stopping:
            self._stop_task = asyncio.get_running_loop().create_task(
                self.stop(drain=True)
            )
