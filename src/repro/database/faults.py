"""Shared fault-handling toolkit: retry policies, breakers, typed statuses.

PR 7 grew a bounded-retry :class:`FaultPolicy` inside the commit pipeline
for transient *disk* faults; the serving fabric needs the identical
discipline for *network* faults (dropped sockets, refused dials, torn
frames).  This module is the shared home of both:

* :class:`FaultPolicy` -- bounded retries with exponential backoff, an
  injectable ``sleep`` (tests pay no wall-clock), an injectable
  ``retryable`` predicate (disk faults retry on
  :func:`~repro.database.wal.is_retryable_io_error`, network faults on
  :func:`is_retryable_net_error`) and optional **jitter** so a fleet of
  reconnecting clients does not thundering-herd a recovering server.
  :meth:`FaultPolicy.run` is the system's one retry loop;
  ``repro.database.commit`` re-exports the class unchanged.
* :class:`CircuitBreaker` -- consecutive-failure trip wire with a
  cooldown-gated half-open probe, so a client facing a dead server fails
  *fast* (no dial, no backoff) yet re-probes automatically: the
  self-healing half of graceful degradation.  A client asks it once per
  exchange and records one failure per spent retry budget.
* :class:`StalenessError` -- typed failure of a freshness contract (a
  replica that cannot catch up within its polling budget), carrying the
  observed ``lag`` and the violated ``bound``.
* :class:`DegradedServing` -- the typed *status* a self-healing component
  reports while serving through a fault (a replica pinned to its last
  applied generation behind a partition; a cache client running local
  completions).  It is deliberately not an exception: degraded serving
  is an answer, not an error.

The split of roles: the **policy** bounds how hard one operation tries,
the **breaker** bounds how often a degraded component re-tries at all,
and the typed status/error make the degradation observable instead of
silent.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from .wal import is_retryable_io_error

T = TypeVar("T")

__all__ = [
    "CircuitBreaker",
    "DegradedServing",
    "FaultPolicy",
    "StalenessError",
    "is_retryable_net_error",
    "network_fault_policy",
]


def is_retryable_net_error(error: BaseException) -> bool:
    """Whether a network fault is worth a reconnect-and-retry.

    Every :class:`OSError` on a socket is transient from the client's
    point of view -- refused dials, resets, timeouts, broken pipes all
    mean "the server is not answering *right now*" -- so unlike the
    disk-side :func:`~repro.database.wal.is_retryable_io_error` (which
    whitelists errnos), the network predicate retries any ``OSError``.
    Protocol-level errors (a server *replying* ``ERROR``) are not
    ``OSError`` and are never retried.
    """
    return isinstance(error, OSError)


@dataclass(frozen=True)
class FaultPolicy:
    """Bounded retry with exponential backoff for transient I/O faults.

    ``max_retries`` bounds the re-attempts *per operation* (an append, a
    sync, a socket exchange); ``backoff`` is the first pause and doubles
    per attempt up to ``max_backoff``.  Only errors the ``retryable``
    predicate accepts are retried at all (the default is the WAL's
    errno whitelist; network clients pass
    :func:`is_retryable_net_error`); anything else -- or a retryable
    error that outlives the budget -- is treated as persistent.
    ``jitter`` spreads each pause uniformly over
    ``[1 - jitter, 1 + jitter]`` times its nominal value (``rng`` is
    injectable for determinism), so simultaneously-disconnected clients
    do not reconnect in lockstep.  ``sleep`` is injectable so tests pay
    no wall-clock for the backoff.
    """

    max_retries: int = 4
    backoff: float = 0.002
    max_backoff: float = 0.05
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    retryable: Callable[[BaseException], bool] = field(
        default=is_retryable_io_error, repr=False
    )
    jitter: float = 0.0
    rng: Callable[[], float] = field(default=None, repr=False)  # type: ignore[assignment]

    def should_retry(self, attempt: int, error: BaseException) -> bool:
        """Whether attempt number ``attempt`` (1-based) warrants another try."""
        return attempt <= self.max_retries and self.retryable(error)

    def delay(self, attempt: int) -> float:
        """The (jittered) pause before retry number ``attempt`` (1-based)."""
        nominal = min(self.backoff * (2 ** (attempt - 1)), self.max_backoff)
        if not self.jitter:
            return nominal
        if self.rng is not None:
            sample = self.rng()
        else:  # lazy import keeps the frozen default picklable
            import random

            sample = random.random()
        return nominal * (1.0 - self.jitter + 2.0 * self.jitter * sample)

    def pause(self, attempt: int) -> None:
        """Back off before retry number ``attempt`` (1-based)."""
        self.sleep(self.delay(attempt))

    def run(
        self,
        operation: Callable[[], T],
        on_fault: Optional[Callable[[OSError], None]] = None,
    ) -> T:
        """Call ``operation`` until it returns: the one bounded-retry loop.

        Each ``OSError`` is a failed attempt: ``on_fault`` sees it first,
        then the policy pauses and retries, or re-raises once the budget is
        spent or ``retryable`` rejects it.  Other exceptions propagate at once.
        """
        attempt = 0
        while True:
            try:
                return operation()
            except OSError as error:
                if on_fault is not None:
                    on_fault(error)
                attempt += 1
                if not self.should_retry(attempt, error):
                    raise
                self.pause(attempt)


def network_fault_policy(
    *,
    max_retries: int = 2,
    backoff: float = 0.01,
    max_backoff: float = 0.2,
    jitter: float = 0.5,
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[Callable[[], float]] = None,
) -> FaultPolicy:
    """The default reconnect policy for serving-fabric clients.

    Fewer, slower, jittered retries compared to the disk-side default:
    a socket retry costs a fresh dial (milliseconds, not microseconds),
    and a recovering server should see its clients trickle back rather
    than stampede.
    """
    return FaultPolicy(
        max_retries=max_retries,
        backoff=backoff,
        max_backoff=max_backoff,
        sleep=sleep,
        retryable=is_retryable_net_error,
        jitter=jitter,
        rng=rng,
    )


class CircuitBreaker:
    """A consecutive-failure trip wire with cooldown-gated half-open probes.

    *Closed* (healthy): every call is allowed.  After
    ``failure_threshold`` consecutive recorded failures the breaker
    *opens*: :meth:`allow` answers ``False`` -- callers degrade
    immediately instead of paying a doomed dial -- until ``cooldown``
    seconds pass, whereupon one half-open probe window opens: the next
    :meth:`allow` returns ``True`` once, a success closes the breaker,
    another failure re-opens it (and re-arms the cooldown).  ``clock``
    is injectable so tests drive the cooldown without sleeping.

    Thread-safe; one breaker is shared by every connection of one
    client, so the trip/probe cadence is per *server*, not per socket.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 1,
        cooldown: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self.trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (probe in flight)."""
        with self._lock:
            if self._opened_at is None:
                return "closed"
            return "half-open" if self._probing else "open"

    def allow(self) -> bool:
        """Whether a caller may attempt the guarded operation now."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing:
                return False
            if self.clock() - self._opened_at >= self.cooldown:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """Close the breaker: the guarded operation worked."""
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        """Count one failure; trip (or re-trip) past the threshold.

        While the breaker is already open (and no probe is in flight) a
        recorded failure does **not** re-arm the cooldown: fast-fails
        from callers retrying more often than the cooldown would
        otherwise keep pushing the half-open window away forever -- a
        livelock where the breaker never probes a recovered server.
        Only tripping from closed and a failed half-open probe restart
        the clock.
        """
        with self._lock:
            self._failures += 1
            if self._opened_at is None:
                if self._failures < self.failure_threshold:
                    return
                self.trips += 1
                self._opened_at = self.clock()
                self._probing = False
            elif self._probing:
                # The half-open probe itself failed: re-arm the cooldown.
                self._opened_at = self.clock()
                self._probing = False

    def reset(self) -> None:
        """Force-close (an explicit operator ``reconnect()``)."""
        self.record_success()


class StalenessError(RuntimeError):
    """A freshness contract could not be met within the polling budget.

    Raised by :meth:`~repro.database.replica.SnapshotReplica.ensure_fresh`
    when the primary *is* reachable but keeps outrunning the replica's
    apply rate -- an operational error distinct from both silent
    staleness and connection loss.  ``lag`` is the last observed lag,
    ``bound`` the violated contract.
    """

    def __init__(self, message: str, *, lag: int, bound: int) -> None:
        super().__init__(message)
        self.lag = lag
        self.bound = bound


@dataclass(frozen=True)
class DegradedServing:
    """The typed status of a component serving *through* a fault.

    ``reason`` is the human-readable fault description; ``since_sequence``
    /``since_generation`` pin what the component is still serving;
    ``last_known_lag`` is the staleness it could last verify (``None``
    when the primary has been unreachable since the last successful
    exchange); ``bound`` is the declared staleness contract the pinned
    answers were within when the fault hit.
    """

    reason: str
    since_sequence: int = 0
    since_generation: int = 0
    last_known_lag: Optional[int] = None
    bound: int = 0
