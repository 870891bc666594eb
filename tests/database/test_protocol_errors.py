"""Protocol error paths against live servers: the inputs a hostile or
broken network actually delivers.

Both wire protocols (``repro-cache/1``, ``repro-replica/1``) promise that
a malformed, oversized, or torn exchange produces a typed ``ERROR`` reply
or a clean connection close -- never a hung handler, an unhandled
exception in the server thread, or a corrupt answer to a *later* client.
These tests drive raw sockets at live servers to pin those promises,
plus the client-side frame-integrity checks (CRC, short reads) and the
server-side idle-client timeouts that keep abandoned sockets from
pinning handler threads forever.
"""

import io
import pickle
import socket
import struct
import time
import zlib

import pytest

from repro.database.cacheserver import DecisionCacheServer, RemoteDecisionCache
from repro.database.faults import CircuitBreaker, FaultPolicy
from repro.database.net import LineRequestHandler, TCPService
from repro.database.replica import (
    PROTOCOL_VERSION,
    ReplicaConnectionError,
    ReplicaProtocolError,
    ReplicaServer,
    SnapshotReplica,
    _read_frame,
)
from repro.database.store import DatabaseState
from repro.optimizer.optimizer import SemanticQueryOptimizer
from repro.workloads.driver import batch_workload_setup

_HEADER = struct.Struct("<II")


def build_primary():
    schema, state, catalog, _ = batch_workload_setup("university", 2, 1, 0)
    optimizer = SemanticQueryOptimizer(schema)
    for name, concept in catalog.items():
        optimizer.register_view_concept(name, concept)
    optimizer.catalog.refresh_all(state)
    return optimizer, state


def raw_connection(address, timeout=2.0):
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(timeout)
    return sock


# -- cache server -------------------------------------------------------------


class TestCacheServerErrorPaths:
    def test_malformed_lines_get_typed_errors(self):
        with DecisionCacheServer() as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"bogus command\r\n")
                assert rfile.readline().startswith(b"ERROR")
                sock.sendall(b"get\r\n")  # missing namespace
                assert rfile.readline().startswith(b"ERROR")
                sock.sendall(b"set ns notakey 1\r\n")  # unparseable key
                assert rfile.readline().startswith(b"ERROR")
                # The connection survives malformed lines: a well-formed
                # command on the same socket still answers.
                sock.sendall(b"version\r\n")
                assert rfile.readline().startswith(b"VERSION")

    def test_non_utf8_line_is_malformed_and_the_connection_survives(self):
        with DecisionCacheServer() as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"get ns \xff\xfe:1\r\n")
                assert rfile.readline() == b"ERROR malformed line\r\n"
                sock.sendall(b"version\r\n")
                assert rfile.readline().startswith(b"VERSION")

    def test_oversized_line_is_rejected_and_closed(self):
        with DecisionCacheServer() as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"get ns " + b"x" * (64 * 1024) + b"\r\n")
                assert rfile.readline().startswith(b"ERROR line too long")
                # An unbounded line is an attack or a framing bug, not a
                # recoverable request: the server hangs up after replying.
                assert rfile.readline() == b""

    def test_half_closed_socket_is_handled(self):
        with DecisionCacheServer() as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"version\r\n")
                assert rfile.readline().startswith(b"VERSION")
                sock.shutdown(socket.SHUT_WR)  # we will never write again
                assert rfile.readline() == b""  # server closes its half too
            # The server keeps serving other clients afterwards.
            client = RemoteDecisionCache(server.address, "ns")
            assert client.probe()
            client.close()

    def test_idle_client_is_disconnected(self):
        with DecisionCacheServer(idle_timeout=0.2) as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"version\r\n")
                assert rfile.readline().startswith(b"VERSION")
                # Go silent past the idle budget: the server reclaims the
                # handler thread and closes the socket.
                time.sleep(0.5)
                assert rfile.readline() == b""
            client = RemoteDecisionCache(server.address, "ns")
            assert client.probe()
            client.close()


# -- replica server -----------------------------------------------------------


class TestReplicaServerErrorPaths:
    def test_non_utf8_line_is_malformed_and_the_connection_survives(self):
        optimizer, state = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"POLL \xff\r\n")
                assert rfile.readline() == b"ERROR malformed line\r\n"
                sock.sendall(b"STAT\r\n")
                assert rfile.readline().startswith(b"PRIMARY")

    def test_oversized_command_line_is_rejected_and_closed(self):
        optimizer, state = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"POLL " + b"9" * 8192 + b"\r\n")
                assert rfile.readline().startswith(b"ERROR line too long")
                assert rfile.readline() == b""

    def test_half_closed_socket_is_handled(self):
        optimizer, state = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"STAT\r\n")
                assert rfile.readline().startswith(b"PRIMARY")
                sock.shutdown(socket.SHUT_WR)
                assert rfile.readline() == b""
            replica = SnapshotReplica(server.address).connect()
            assert replica.state is not None
            replica.close()

    def test_idle_client_is_disconnected(self):
        optimizer, state = build_primary()
        with ReplicaServer(state, optimizer.catalog, idle_timeout=0.2) as server:
            with raw_connection(server.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"STAT\r\n")
                assert rfile.readline().startswith(b"PRIMARY")
                time.sleep(0.5)
                assert rfile.readline() == b""
            # Idle reaping never kills the server itself.
            replica = SnapshotReplica(server.address).connect()
            assert replica.state is not None
            replica.close()


# -- client-side frame integrity ----------------------------------------------


class TestFrameIntegrity:
    def frame(self, payload_bytes, crc=None):
        crc = zlib.crc32(payload_bytes) if crc is None else crc
        return _HEADER.pack(len(payload_bytes), crc) + payload_bytes

    def test_crc_corrupt_frame_raises_connection_error(self):
        payload = pickle.dumps({"sequence": 1})
        torn = self.frame(payload, crc=zlib.crc32(payload) ^ 0xDEADBEEF)
        with pytest.raises(ReplicaConnectionError, match="CRC mismatch"):
            _read_frame(io.BytesIO(torn))

    def test_truncated_frame_raises_connection_error(self):
        payload = pickle.dumps({"sequence": 1})
        whole = self.frame(payload)
        with pytest.raises(ReplicaConnectionError, match="mid-frame"):
            _read_frame(io.BytesIO(whole[: len(whole) // 2]))

    def test_oversized_frame_header_is_rejected(self):
        header = _HEADER.pack(1 << 31, 0)  # a frame no honest server sends
        with pytest.raises(ReplicaConnectionError, match="oversized"):
            _read_frame(io.BytesIO(header))

    def test_frame_over_the_wire_bound_is_rejected_before_its_payload(self):
        """PROTOCOL.md section 2.1 bounds wire frames at 64 MiB: a header
        announcing 100 MiB is refused as oversized before the reader waits
        for (or buffers) a single payload byte."""
        header = _HEADER.pack(100 << 20, 0)
        with pytest.raises(ReplicaConnectionError, match="oversized"):
            _read_frame(io.BytesIO(header))

    def test_corrupt_frame_from_a_live_exchange_heals_by_redial(self):
        """A torn snapshot frame (flipped bytes in flight) is detected by
        the CRC, surfaces as a retryable connection fault, and the
        client's next clean exchange completes the handshake."""
        optimizer, state = build_primary()
        with ReplicaServer(state, optimizer.catalog) as server:
            # First, capture one legitimate SNAPSHOT response.
            with raw_connection(server.address, timeout=5.0) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(f"HELLO {PROTOCOL_VERSION} -1\r\n".encode())
                header = rfile.readline()
                assert header.startswith(b"SNAPSHOT")
                frame_header = rfile.read(_HEADER.size)
                length, crc = _HEADER.unpack(frame_header)
                payload = rfile.read(length)
            # Corrupt one byte mid-payload and feed it back through the
            # client's frame reader: the CRC catches it.
            corrupt = bytearray(payload)
            corrupt[len(corrupt) // 2] ^= 0xFF
            stream = io.BytesIO(_HEADER.pack(length, crc) + bytes(corrupt))
            with pytest.raises(ReplicaConnectionError, match="CRC mismatch"):
                _read_frame(stream)
            # The server is unaffected; a real client connects cleanly.
            replica = SnapshotReplica(server.address).connect()
            assert replica.state.objects == state.objects
            replica.close()


# -- client-side reply parsing ------------------------------------------------


class _CannedHandler(LineRequestHandler):
    """Answers every request line with the server's canned bytes."""

    max_line = 4096

    def dispatch(self, command, args):
        self.wfile.write(self.server.canned)
        return True


def canned_server(reply: bytes) -> TCPService:
    return TCPService(
        _CannedHandler, "127.0.0.1", 0, idle_timeout=5.0, thread_name="canned", canned=reply
    )


class TestGarbledReplies:
    """A well-framed reply whose fields do not parse is a typed fault."""

    def test_cache_client_degrades_to_a_miss(self):
        with canned_server(b"VALUE x:y 1\r\nEND\r\n") as server:
            client = RemoteDecisionCache(
                server.address,
                "ns",
                policy=FaultPolicy(max_retries=1, sleep=lambda _: None, retryable=lambda e: True),
                breaker=CircuitBreaker(cooldown=60.0),
            )
            assert client.get(1, 2) is None
            assert client.failures == 2
            assert client.dead
            client.close()

    def test_replica_raises_a_protocol_error(self):
        # The garbled header comes with a well-formed line behind it: a
        # client that kept the connection would read that leftover line as
        # the answer to its next request.
        with canned_server(b"PRIMARY x y\r\nPRIMARY 7 8\r\n") as server:
            replica = SnapshotReplica(server.address)
            for dials in (1, 2):
                with pytest.raises(ReplicaProtocolError) as raised:
                    replica.primary_position()
                assert not isinstance(raised.value, ReplicaConnectionError)
                assert replica.reconnects == dials
            replica.close()
