"""``ServerThread`` teardown is bounded and loud (ISSUE 19 satellite).

A wire ``shutdown`` stops the server from inside its own loop; a
``ServerThread.stop()`` racing it used to queue a second stop that the
closing loop never ran, wait out its 60 s timeout and swallow the error.
"""

import time

import pytest

from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.server import AStreamServer


class TestStop:
    def test_stop_after_wire_shutdown_returns_promptly(self):
        # The process backend makes the self-stop slow enough (pool
        # teardown) that stop() reliably lands inside it.
        host = ServerThread(
            ServeConfig(backend="process", workers=2, clock="manual")
        )
        with ServeClient("127.0.0.1", host.port, client_id="bye") as client:
            assert client.shutdown().status == "ok"
        started = time.monotonic()
        host.stop()
        assert time.monotonic() - started < 2.0
        assert not host.is_alive
        host.stop()  # idempotent once stopped

    def test_stop_reraises_a_crash_after_startup(self, monkeypatch):
        serve_forever = AStreamServer.serve_forever

        async def crash_on_exit(server):
            await serve_forever(server)
            raise OSError("listener lost")

        monkeypatch.setattr(AStreamServer, "serve_forever", crash_on_exit)
        host = ServerThread(ServeConfig(clock="manual"))
        with pytest.raises(OSError, match="listener lost"):
            host.stop()
        assert not host.is_alive
