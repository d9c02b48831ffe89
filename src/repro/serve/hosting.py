"""Run an :class:`AStreamServer` on a background event-loop thread.

The server is asyncio-native, but benchmarks, examples, and tests want
to drive it from plain blocking code with :class:`ServeClient`.
:class:`ServerThread` owns a private event loop on a daemon thread,
boots the server there, and exposes just enough control surface —
``port``, ``run(coro)`` for loop-side calls, ``stop()``/``join()`` —
to host a server inside any synchronous program::

    with ServerThread(ServeConfig(backend="process")) as host:
        client = ServeClient("127.0.0.1", host.port)
        ...
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from typing import Any, Coroutine, Optional

from repro.serve.core import ServeConfig
from repro.serve.server import AStreamServer

logger = logging.getLogger("repro.serve.hosting")


class ServerThread:
    """One server hosted on a dedicated event-loop thread."""

    STOP_TIMEOUT_S = 60.0
    """Bound on :meth:`stop`: graceful drain + final checkpoint + pool
    teardown, then the thread's exit."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        start_timeout_s: float = 30.0,
    ) -> None:
        self.config = config or ServeConfig()
        self.server = AStreamServer(self.config)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._crash: Optional[Exception] = None
        self._thread = threading.Thread(
            target=self._main, name="astream-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(start_timeout_s):
            raise RuntimeError("server failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            )

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            try:
                await self.server.start()
            except BaseException as error:  # surface to the creator
                self._startup_error = error
                raise
            finally:
                self._ready.set()
            await self.server.serve_forever()

        try:
            self._loop.run_until_complete(boot())
        except Exception as error:
            if error is not self._startup_error:
                # A crash after startup has no waiting creator to tell:
                # log it now and let stop() re-raise it.
                logger.exception("server thread crashed")
                self._crash = error
        finally:
            self._loop.close()

    @property
    def port(self) -> int:
        """The server's bound frame-protocol port."""
        return self.server.port

    def run(self, coro: Coroutine) -> Any:
        """Run a coroutine on the server's loop (thread-safe), await it."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(60)

    def stop(self) -> None:
        """Gracefully stop the server and wait for the thread to exit.

        Safe to call when the server is already stopping or stopped (a
        wire ``shutdown`` frame stops it from inside): the thread then
        exits — closing the loop — whether or not this call's own stop
        request ever got to run, so the wait is on *either* the request
        finishing or the thread exiting.  Raises what the server raised
        if it crashed or failed to stop, and ``RuntimeError`` if the
        thread is still alive after :attr:`STOP_TIMEOUT_S`.
        """
        deadline = time.monotonic() + self.STOP_TIMEOUT_S
        if self._thread.is_alive():
            request = self.server.stop()
            try:
                stopping = asyncio.run_coroutine_threadsafe(request, self._loop)
            except RuntimeError:  # the loop closed under us: already stopped
                request.close()
            else:
                while (
                    not stopping.done()
                    and self._thread.is_alive()
                    and time.monotonic() < deadline
                ):
                    self._thread.join(0.01)
                if stopping.done():
                    stopping.result()  # re-raise a failed stop
                elif not self._thread.is_alive():
                    request.close()  # never ran: the loop closed first
        self._thread.join(max(0.0, deadline - time.monotonic()))
        if self._thread.is_alive():
            raise RuntimeError(
                f"server thread still alive {self.STOP_TIMEOUT_S:g} s "
                "after stop()"
            )
        if self._crash is not None:
            raise self._crash

    def join(self, timeout_s: float = 10.0) -> None:
        """Wait for the hosting thread to finish."""
        self._thread.join(timeout_s)

    @property
    def is_alive(self) -> bool:
        """True while the hosting thread is running."""
        return self._thread.is_alive()

    def __enter__(self) -> "ServerThread":
        """Context-manager entry: the server is already running."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: stop the server."""
        self.stop()
