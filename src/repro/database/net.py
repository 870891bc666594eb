"""TCP plumbing shared by both wire protocols: each side of an exchange, once.

* :class:`TCPService` -- a :mod:`socketserver` threading server on a daemon
  thread.  Closing drops every established connection too: a closed server
  must look exactly like a dead one, so self-healing clients take their
  reconnect path instead of talking to a ghost handler.
* :class:`LineRequestHandler` -- the server's request loop (docs/PROTOCOL.md,
  "Request lines"); a protocol adds its line bound and dispatch.
* :class:`Connection` -- the client's socket.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import List, Optional, Tuple

__all__ = ["Connection", "LineRequestHandler", "TCPService"]


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


class LineRequestHandler(socketserver.StreamRequestHandler):
    """One connection of a line protocol: requests are read and answered in turn.

    The loop ends on end of stream, on the idle timeout, after ``ERROR line
    too long`` (everything up to the next newline would parse as garbage, so
    the server hangs up instead of resynchronizing), on ``quit`` and once a
    command sets :attr:`close_connection`.  Command words reach
    :meth:`dispatch` in lower case; subclasses set ``max_line`` and
    implement :meth:`dispatch`.
    """

    # Request/response round trips are tiny; Nagle + delayed ACK would add
    # ~40 ms stalls to each one.
    disable_nagle_algorithm = True
    #: The protocol's request-line bound in bytes, newline included.
    max_line: int

    def setup(self) -> None:  # noqa: D102 - socketserver plumbing
        # A silent client must not pin this handler thread forever.
        self.timeout = self.server.idle_timeout  # type: ignore[attr-defined]
        super().setup()

    def handle(self) -> None:  # noqa: D102 - protocol plumbing
        self.close_connection = False
        while not self.close_connection:
            try:
                line = self.rfile.readline(self.max_line)
            except (TimeoutError, ConnectionError):
                return
            if not line:
                return
            if len(line) >= self.max_line and not line.endswith(b"\n"):
                self.reply("ERROR line too long")
                return
            try:
                parts = line.decode("utf-8").split()
            except UnicodeDecodeError:
                self.reply("ERROR malformed line")
                continue
            if not parts:
                continue
            command, args = parts[0].lower(), parts[1:]
            if command == "quit" and not args:
                return
            try:
                if not self.dispatch(command, args):
                    self.reply("ERROR unknown command or bad arity")
            except ValueError:
                self.reply("ERROR malformed arguments")
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                return

    def dispatch(self, command: str, args: List[str]) -> bool:
        """Answer one request; ``False`` for an unknown command or bad arity."""
        raise NotImplementedError

    def reply(self, text: str) -> None:
        """Send one response line."""
        self.wfile.write(text.encode("utf-8") + b"\r\n")


class Connection:
    """One client socket of a line protocol (used by one thread at a time).

    ``timeout`` bounds the dial and every read; :attr:`rfile` also serves
    framed reads.
    """

    __slots__ = ("sock", "rfile", "wfile", "max_line")

    def __init__(self, address: Tuple[str, int], *, timeout: float, max_line: int) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")
        self.max_line = max_line

    def send(self, *lines: str) -> None:
        """Write request lines, buffered, and flush them as one write."""
        for line in lines:
            self.wfile.write(line.encode("utf-8") + b"\r\n")
        self.wfile.flush()

    def read_line(self) -> str:
        """One response line of at most ``max_line`` bytes, decoded and stripped.

        A closed stream or a torn line raises ``ConnectionResetError``.
        """
        line = self.rfile.readline(self.max_line)
        if not line.endswith(b"\n"):
            raise ConnectionResetError(
                "server closed the connection" if not line else "torn or oversized response line"
            )
        return line.decode("utf-8", "replace").strip()

    def close(self) -> None:
        """Close the socket and its files; errors are ignored."""
        for handle in (self.rfile, self.wfile, self.sock):
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
