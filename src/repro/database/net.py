"""TCP serving plumbing shared by the decision-cache and replica servers.

Both servers run a :mod:`socketserver` threading server on a daemon thread
behind the same ``address``/``start``/``close`` lifecycle.  Closing drops
every established connection too: a closed server must look exactly like a
dead one, so self-healing clients take their reconnect path instead of
talking to a ghost handler.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Optional, Tuple

__all__ = ["TCPService"]


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs):
        self._active_lock = threading.Lock()
        self._active: set = set()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        with self._active_lock:
            self._active.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._active_lock:
            self._active.discard(request)
        super().shutdown_request(request)

    def close_all_connections(self) -> None:
        """Abruptly drop every established connection (a dead server has
        no live sockets -- closing only the listener would leave clients
        connected to a ghost)."""
        with self._active_lock:
            doomed = list(self._active)
            self._active.clear()
        for request in doomed:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                request.close()
            except OSError:
                pass


class TCPService:
    """A listening socket served on a daemon thread.

    ``handler`` is the :class:`socketserver.StreamRequestHandler` subclass
    serving each connection; it reads ``idle_timeout`` and every
    ``shared`` keyword as attributes of ``self.server``.  ``port=0`` binds
    an ephemeral port: hand :attr:`address` to clients.
    """

    def __init__(
        self,
        handler,
        host: str,
        port: int,
        *,
        idle_timeout: Optional[float],
        thread_name: str,
        **shared,
    ) -> None:
        self._server = _ThreadingTCPServer((host, port), handler)
        self._server.idle_timeout = idle_timeout  # type: ignore[attr-defined]
        for name, value in shared.items():
            setattr(self._server, name, value)
        self._thread_name = thread_name
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` -- resolve after construction."""
        return self._server.server_address[:2]

    def start(self):
        """Serve forever on a daemon thread; returns ``self`` for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=self._thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving, release the listener, drop live connections (idempotent)."""
        self._server.shutdown()
        self._server.server_close()
        self._server.close_all_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
