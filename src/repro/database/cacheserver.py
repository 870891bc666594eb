"""Shared decision-cache tier: a memcached-style server over interned id pairs.

PR 3 made subsumption decisions *portable*: they are keyed by interned
concept-id pairs that are process-unique and fork-stable, and every batch
worker already records its decisions in a private overlay
(:class:`~repro.optimizer.parallel.BatchCheckerView`) merged on join.
This module externalizes that keyspace so N serving *processes* share one
decision cache: a subsumption completion any process has ever run is a
~100 µs cache hit for every other process in the fleet, instead of a
multi-millisecond completion re-run per process.

Two halves, one wire protocol (normatively specified in
``docs/PROTOCOL.md`` and conformance-tested against that document):

* :class:`DecisionCacheServer` -- a stdlib-sockets
  (:mod:`socketserver`) server speaking a small memcached-style text
  protocol: ``get``/``set``/``touch``/``stats``/``flush`` over
  ``<query-id>:<view-id>`` keys namespaced by a catalog-identity token.
  Entries are booleans (``0``/``1``); an LRU bound (``max_entries``)
  caps memory.  The server is *version-oblivious*: invalidation is by
  namespace, below.
* :class:`RemoteDecisionCache` -- the client that is the last layer of
  :class:`~repro.core.checker.SubsumptionChecker`
  (``SubsumptionChecker(schema, remote=cache)``): consulted only when a
  decision would otherwise run a *full completion* (local memos and the
  cheap told, signature and profile shortcuts are tried first, so remote
  round trips are paid exactly where they buy the most), and populated
  write-behind with ``noreply`` sets.  The client degrades to a no-op on any socket error
  -- a dead cache server slows the fleet down, it never breaks serving
  -- and pickles by address (the socket is re-dialed lazily after a
  fork/spawn), so process-backend shard workers can carry it.

**Versioning & invalidation.**  Decisions are only meaningful relative
to (a) the schema and catalog they were computed against and (b) the
intern table that assigned the ids.  Both are folded into the
*namespace token* (:func:`cache_namespace`): a digest of the structural
catalog identity (view names + normalized concepts, the same identity
the WAL checkpoints record), the schema, the checker's
``use_repair_rule`` flag, and a per-process-family token that only
forked children inherit.  Changing any of them yields a fresh
namespace, so stale entries are never *hit* -- they age out of the LRU
instead of requiring coordinated invalidation.  A catalog mutation
therefore invalidates by identity: re-derive the namespace and the old
entries are unreachable (``flush`` exists for eager reclamation).

The id-pair keys are **only valid within one fork family** (ids are
fork-stable, not globally stable); the family token in the namespace is
what makes that invariant unforgeable rather than a usage convention.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .faults import CircuitBreaker, FaultPolicy, network_fault_policy
from .net import Connection, LineRequestHandler, TCPService

__all__ = [
    "DecisionCacheServer",
    "RemoteDecisionCache",
    "cache_namespace",
]

#: Inherited as-is by forked children, regenerated by any independently
#: started process -- which is exactly the scope within which interned
#: concept ids are comparable.  Folded into every namespace token.
_FAMILY_TOKEN = "%d-%s" % (os.getpid(), os.urandom(4).hex())

#: Hard cap on one protocol line; longer lines are a client error.
_MAX_LINE_BYTES = 64 * 1024


def cache_namespace(schema, catalog, *, use_repair_rule: bool = True) -> str:
    """The namespace token binding cache entries to one catalog identity.

    A 16-hex-digit digest of the *structural* identity -- the schema, the
    catalog's ``(name, normalized concept)`` pairs (the same identity the
    WAL's checkpoints record) and the ``use_repair_rule`` flag -- plus the
    process-family token, because the ``(query_id, view_id)`` keys under
    the namespace are interned ids, comparable only between a process and
    its forked children.  Two fleet members get the same token iff their
    decisions are interchangeable.
    """
    from .wal import catalog_identity

    digest = hashlib.sha256()
    digest.update(_FAMILY_TOKEN.encode())
    digest.update(b"|repair=%d|" % bool(use_repair_rule))
    digest.update(repr(schema).encode())
    for name, concept in catalog_identity(catalog):
        digest.update(b"|")
        digest.update(name.encode())
        digest.update(b"=")
        digest.update(repr(concept).encode())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


def _entry_bytes(key: Tuple[str, int, int], value: bool) -> int:
    """The resident cost of one entry (key tuple + components + value)."""
    return (
        sys.getsizeof(key)
        + sys.getsizeof(key[0])
        + sys.getsizeof(key[1])
        + sys.getsizeof(key[2])
        + sys.getsizeof(value)
    )


class _CacheStore:
    """The namespaced LRU of boolean decisions behind one server."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: ``(namespace, query_id, view_id) -> bool`` in LRU order
        #: (``last=True`` end is most recently used).
        self._entries: "OrderedDict[Tuple[str, int, int], bool]" = OrderedDict()
        self.gets = 0
        self.hits = 0
        self.misses = 0
        self.sets = 0
        self.touches = 0
        self.evictions = 0
        self.flushes = 0
        self.resident_bytes = 0

    def get(self, keys: Iterable[Tuple[str, int, int]]):
        """Look up many keys at once; returns the found ``(key, value)`` pairs."""
        found = []
        with self._lock:
            for key in keys:
                self.gets += 1
                value = self._entries.get(key)
                if value is None:
                    self.misses += 1
                    continue
                self.hits += 1
                self._entries.move_to_end(key)
                found.append((key, value))
        return found

    def set(self, key: Tuple[str, int, int], value: bool) -> None:
        """Store one decision, evicting LRU entries past ``max_entries``."""
        with self._lock:
            self.sets += 1
            old = self._entries.get(key)
            if old is not None:
                self.resident_bytes -= _entry_bytes(key, old)
            self._entries[key] = value
            self.resident_bytes += _entry_bytes(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                doomed_key, doomed_value = self._entries.popitem(last=False)
                self.resident_bytes -= _entry_bytes(doomed_key, doomed_value)
                self.evictions += 1

    def touch(self, key: Tuple[str, int, int]) -> bool:
        """Refresh a key's LRU position; ``False`` when it is absent."""
        with self._lock:
            self.touches += 1
            if key not in self._entries:
                return False
            self._entries.move_to_end(key)
            return True

    def flush_namespace(self, namespace: str) -> int:
        """Drop every entry in ``namespace``; returns how many were dropped."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == namespace]
            for key in doomed:
                self.resident_bytes -= _entry_bytes(key, self._entries[key])
                del self._entries[key]
            self.flushes += 1
            return len(doomed)

    def stats(self) -> Dict[str, object]:
        """Counter snapshot: occupancy, hit/miss/set/eviction tallies, bytes.

        ``hit_rate`` is ``hits / gets`` over the server's lifetime (0.0
        before any traffic); ``resident_bytes`` is the live entry
        footprint (keys + values), the number to size ``max_entries``
        against (see the LRU-sizing note in ``docs/PROTOCOL.md``).
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "namespaces": len({key[0] for key in self._entries}),
                "gets": self.gets,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / self.gets, 4) if self.gets else 0.0,
                "sets": self.sets,
                "touches": self.touches,
                "evictions": self.evictions,
                "flushes": self.flushes,
                "max_entries": self.max_entries,
                "resident_bytes": self.resident_bytes,
            }


def _parse_key(token: str) -> Tuple[int, int]:
    query_id, _, view_id = token.partition(":")
    return int(query_id), int(view_id)


def _parse_value(key: str, value: str) -> Tuple[Tuple[int, int], bool]:
    if value not in ("0", "1"):
        raise ValueError(value)
    return _parse_key(key), value == "1"


def _parse_stat(name: str, value: str) -> Tuple[str, object]:
    try:
        return name, int(value)
    except ValueError:
        return name, float(value)


class _CacheHandler(LineRequestHandler):
    """One client connection: a loop of text commands (see docs/PROTOCOL.md)."""

    max_line = _MAX_LINE_BYTES

    def dispatch(self, command: str, args: List[str]) -> bool:  # noqa: D102
        store: _CacheStore = self.server.store  # type: ignore[attr-defined]
        if command == "get" and len(args) >= 2:
            namespace = args[0]
            keys = [(namespace,) + _parse_key(token) for token in args[1:]]
            for (_, query_id, view_id), value in store.get(keys):
                self.reply(f"VALUE {query_id}:{view_id} {int(value)}")
            self.reply("END")
        elif command == "set" and len(args) in (3, 4):
            noreply = len(args) == 4 and args[3] == "noreply"
            if len(args) == 4 and not noreply:
                raise ValueError(args[3])
            key, value = _parse_value(args[1], args[2])
            store.set((args[0],) + key, value)
            if not noreply:
                self.reply("STORED")
        elif command == "touch" and len(args) in (2, 3):
            noreply = len(args) == 3 and args[2] == "noreply"
            if len(args) == 3 and not noreply:
                raise ValueError(args[2])
            found = store.touch((args[0],) + _parse_key(args[1]))
            if not noreply:
                self.reply("TOUCHED" if found else "NOT_FOUND")
        elif command == "flush" and len(args) == 1:
            self.reply(f"OK {store.flush_namespace(args[0])}")
        elif command == "stats" and not args:
            for name, value in sorted(store.stats().items()):
                self.reply(f"STAT {name} {value}")
            self.reply("END")
        elif command == "version" and not args:
            self.reply(f"VERSION {DecisionCacheServer.PROTOCOL_VERSION}")
        else:
            return False
        return True


class DecisionCacheServer(TCPService):
    """The shared decision-cache server (stdlib sockets, text protocol).

    ``port=0`` (the default) binds an ephemeral port; :attr:`address` is
    the bound ``(host, port)`` to hand to clients.  :meth:`start` serves
    on a daemon thread; :meth:`close` shuts the listener down and drops
    established connections.  All handler threads funnel into one
    :class:`_CacheStore` whose LRU bound (``max_entries``) caps memory;
    invalidation is by namespace (see the module docstring), so the server
    itself never interprets entries.
    """

    #: Bumped on any incompatible wire change; clients may probe it with
    #: the ``version`` command.
    PROTOCOL_VERSION = "repro-cache/1"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_entries: int = 1 << 16,
        idle_timeout: Optional[float] = 60.0,
    ) -> None:
        self.store = _CacheStore(max_entries)
        super().__init__(
            _CacheHandler,
            host,
            port,
            idle_timeout=idle_timeout,
            thread_name="decision-cache-server",
            store=self.store,
        )


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


class RemoteDecisionCache:
    """Client half of the shared cache; the ``SubsumptionChecker`` remote tier.

    One instance wraps one namespace on one server.  ``get``/``get_many``
    are synchronous round trips; ``set`` is write-behind (``noreply``
    on the wire), because a lost set only costs a future recomputation.
    Counters (:attr:`hits`, :attr:`misses`, :attr:`sets`) feed the
    serve-fleet verdicts.

    Concurrency: the client keeps a small **connection pool**
    (``pool_size``) rather than one locked socket, so shard workers and
    client threads issue round trips in parallel instead of serializing
    on a single connection; each connection is used exclusively by the
    thread that checked it out.

    Fault model (self-healing): a socket fault tears down the failing
    connection and the operation is retried through a fresh dial under
    the jittered-backoff ``policy``; if the budget is exhausted the
    shared :class:`~repro.database.faults.CircuitBreaker` trips, the
    idle pooled connections are closed, and every later call -- pooled
    connection or not -- degrades to a cheap no-op miss (``None``)
    without a dial or a pause: a crashed or unreachable cache server
    degrades the fleet to cold per-process caches instead of failing
    queries.  The breaker re-probes automatically after its cooldown, so
    a restarted server is re-adopted without intervention; :meth:`probe`
    asks explicitly and :meth:`reconnect` force-resets.  Instances
    pickle by address and namespace only (connections are re-dialed on
    first use after unpickling), which is what lets process-backend
    shard workers carry one.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        namespace: str,
        *,
        timeout: float = 2.0,
        pool_size: int = 4,
        policy: Optional[FaultPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.address = (address[0], int(address[1]))
        self.namespace = namespace
        self.timeout = timeout
        self.pool_size = pool_size
        self.policy = policy if policy is not None else network_fault_policy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.hits = 0
        self.misses = 0
        self.sets = 0
        self.failures = 0
        self.reconnects = 0
        self._stats_lock = threading.Lock()
        self._pool_lock = threading.Lock()
        self._pool: list = []

    # -- connection management ---------------------------------------------

    def _dial(self) -> Connection:
        conn = Connection(self.address, timeout=self.timeout, max_line=_MAX_LINE_BYTES)
        with self._stats_lock:
            self.reconnects += 1
        return conn

    def _checkin(self, conn: Connection) -> None:
        with self._pool_lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def _drain_pool(self) -> None:
        with self._pool_lock:
            doomed, self._pool = self._pool, []
        for conn in doomed:
            conn.close()

    def _exchange(self, perform):
        """Run ``perform(conn)`` under the fault policy; ``None`` when degraded.

        The breaker is asked once, before the first attempt: an open breaker
        refuses the call at once (no dial, no pause, no recorded failure).
        Each failed attempt closes its connection and counts in
        :attr:`failures`; a spent budget records one breaker failure and
        closes the idle pooled connections, which share the failed one's
        fate.  Every operation here is idempotent on the wire.
        """
        if not self.breaker.allow():
            return None
        with self._pool_lock:
            conn = self._pool.pop() if self._pool else None

        def attempt():
            nonlocal conn
            if conn is None:
                conn = self._dial()
            return perform(conn)

        def on_fault(error: OSError) -> None:
            nonlocal conn
            if conn is not None:
                conn.close()
                conn = None
            with self._stats_lock:
                self.failures += 1

        try:
            result = self.policy.run(attempt, on_fault)
        except OSError:
            self.breaker.record_failure()
            self._drain_pool()
            return None
        self.breaker.record_success()
        self._checkin(conn)
        return result

    @property
    def dead(self) -> bool:
        """``True`` while degraded to no-op (the circuit breaker is open)."""
        return self.breaker.state != "closed"

    def probe(self) -> bool:
        """Health probe: one ``version`` round trip; ``True`` on an answer."""
        reply = self._exchange(self._probe_version)
        return bool(reply)

    @staticmethod
    def _probe_version(conn: Connection) -> bool:
        conn.send("version")
        return conn.read_line().startswith("VERSION")

    def reconnect(self) -> bool:
        """Force-reset the breaker and re-probe; ``True`` when answered."""
        self._drain_pool()
        self.breaker.reset()
        return self.probe()

    def close(self) -> None:
        """Drop pooled connections (the client stays usable; it re-dials)."""
        self._drain_pool()

    def __getstate__(self):
        return {
            "address": self.address,
            "namespace": self.namespace,
            "timeout": self.timeout,
            "pool_size": self.pool_size,
        }

    def __setstate__(self, state) -> None:
        self.__init__(
            state["address"],
            state["namespace"],
            timeout=state["timeout"],
            pool_size=state.get("pool_size", 4),
        )

    # -- wire helpers (each runs on a checked-out connection) ---------------

    @staticmethod
    def _read_listing(conn: Connection, kind: str, parse) -> Dict:
        """``<kind> <name> <value>`` lines up to ``END``, as ``dict(parse(name, value))``.

        A line of another kind, or one ``parse`` rejects, is a protocol
        error: the exchange is torn down and retried like a dropped one.
        """
        listing = {}
        while True:
            reply = conn.read_line()
            if reply == "END":
                return listing
            head, _, rest = reply.partition(" ")
            name, _, value = rest.partition(" ")
            try:
                if head != kind:
                    raise ValueError(head)
                key, parsed = parse(name, value)
            except ValueError:
                raise ConnectionResetError(f"protocol error: {reply!r}") from None
            listing[key] = parsed

    # -- the decision-cache surface ----------------------------------------

    def get(self, query_id: int, view_id: int) -> Optional[bool]:
        """The shared decision for one id pair, or ``None`` on miss/fault."""
        return self.get_many([(query_id, view_id)]).get((query_id, view_id))

    def get_many(
        self, keys: Iterable[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], bool]:
        """Batch lookup: one round trip for any number of id pairs."""
        keys = list(keys)
        if not keys:
            return {}
        tokens = " ".join(f"{query_id}:{view_id}" for query_id, view_id in keys)
        line = f"get {self.namespace} {tokens}"

        def perform(conn: Connection) -> Dict[Tuple[int, int], bool]:
            conn.send(line)
            return self._read_listing(conn, "VALUE", _parse_value)

        values = self._exchange(perform)
        with self._stats_lock:
            if values is None:
                self.misses += len(keys)
            else:
                self.hits += len(values)
                self.misses += len(keys) - len(values)
        return {} if values is None else values

    def set(self, query_id: int, view_id: int, decision: bool) -> None:
        """Publish one decision, write-behind (``noreply``)."""
        self.set_many({(query_id, view_id): decision})

    def set_many(self, decisions: Mapping[Tuple[int, int], bool]) -> None:
        """Publish a batch of decisions with buffered ``noreply`` sets."""
        if not decisions:
            return

        def perform(conn: Connection) -> bool:
            conn.send(
                *(
                    f"set {self.namespace} {query_id}:{view_id} {int(decision)} noreply"
                    for (query_id, view_id), decision in decisions.items()
                )
            )
            return True

        if self._exchange(perform):
            with self._stats_lock:
                self.sets += len(decisions)

    def stats(self) -> Dict[str, object]:
        """The server's counters (empty on a degraded client).

        Values come back as ``int`` where the wire token parses as one
        (the counters) and ``float`` otherwise (``hit_rate``).
        """

        def perform(conn: Connection) -> Dict[str, object]:
            conn.send("stats")
            return self._read_listing(conn, "STAT", _parse_stat)

        result = self._exchange(perform)
        return {} if result is None else result

    def flush_namespace(self) -> None:
        """Eagerly drop every entry under this client's namespace."""

        def perform(conn: Connection) -> bool:
            conn.send(f"flush {self.namespace}")
            conn.read_line()
            return True

        self._exchange(perform)
