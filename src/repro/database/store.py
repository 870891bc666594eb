"""An in-memory OODB state: objects, class memberships, attribute values.

The paper assumes "every state of the database gives rise to exactly one
model of [the schema] formulas" (Section 2.1); a :class:`DatabaseState` is a
finite such structure:

* a set of *objects* (identified by strings),
* explicit class membership assertions (closed upwards along the ``isA``
  hierarchy when exported as an interpretation, i.e. classification and
  generalization),
* attribute value assignments (aggregation).

A state can be checked against the structural schema
(:meth:`DatabaseState.integrity_violations`) -- typing, necessary and single
constraints -- and converted into a
:class:`repro.semantics.interpretation.Interpretation` so that concepts,
query classes and constraint formulas can be evaluated over it.

This module is the "simulated ConceptBase" substrate of the reproduction
(see DESIGN.md): the paper's optimizer only needs a store that can
materialize view extensions and evaluate queries, which this provides.

Since PR 4 the store is **versioned and delta-logged**:

* a monotonically increasing :attr:`DatabaseState.generation` counter bumps
  on every *effective* mutation (idempotent re-assertions are no-ops);
* every mutation records a typed delta (:class:`ObjectAdded`,
  :class:`ObjectRemoved`, :class:`MembershipAsserted`,
  :class:`MembershipRetracted`, :class:`AttributeSet`,
  :class:`AttributeRemoved`) -- the mutation log that drives the
  incremental view-maintenance engine (:mod:`repro.database.maintenance`),
  the write-ahead log and the replica stream;
* reverse indexes (object -> classes, object -> attribute pairs,
  ``(subject, attribute)`` -> values) make :meth:`remove_object`,
  :meth:`attribute_values` and :meth:`neighbours` proportional to the
  object's own data instead of the whole store;
* upward-closed extents are memoized per class with targeted,
  generation-correct invalidation (a membership change invalidates exactly
  the class and its superclasses), and :meth:`to_interpretation` is a
  cached, incrementally patched export: unchanged per-class / per-attribute
  frozensets are reused, and the :class:`Interpretation` is rebuilt through
  the trusted fast path only when the generation moved.

``with state.batch():`` opens a mutation epoch.  The store is the one place
an epoch is sealed: at the end of the outermost batch it builds a single
:class:`EpochRecord` -- the commit sequence, the generation, the epoch's
deltas in emission order and whether the schema was swapped -- and hands
that same record to every subscribed listener's ``on_commit(record)``.
Deltas never reach listeners during the batch, and a commit with no
listener attached builds no record at all.

Since PR 7 the store is also the **commit scheduler's serialization
point**: a reentrant write lock serializes concurrent writer threads for
the whole batch (mutations + commit notifications, so WAL appends are
naturally ordered), the epoch sequence is assigned *here*
(:attr:`DatabaseState.commit_sequence` bumps once per effective commit,
before listeners run) rather than in the maintainer, and an attached
:class:`~repro.database.commit.CommitScheduler` gates new write batches --
in read-only degraded mode writers get a typed
:class:`~repro.database.commit.DurabilityError` *before* mutating anything
while readers keep serving.  Reads never take the write lock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..concepts.schema import Schema
from ..semantics.interpretation import Interpretation
from ..dl.ast import DLSchema

__all__ = [
    "IntegrityViolation",
    "DatabaseState",
    "StateSnapshot",
    "Delta",
    "ObjectAdded",
    "ObjectRemoved",
    "MembershipAsserted",
    "MembershipRetracted",
    "AttributeSet",
    "AttributeRemoved",
    "EpochRecord",
]


@dataclass(frozen=True)
class IntegrityViolation:
    """One violation of the structural schema by a database state."""

    kind: str
    object_id: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} on {self.object_id}: {self.detail}"


# ---------------------------------------------------------------------------
# Typed deltas (the mutation log records)
# ---------------------------------------------------------------------------


#: Bound on cached constants-extended interpretation exports per generation
#: (each retains an O(domain) constant map; see :meth:`to_interpretation`).
_MAX_EXTENDED_EXPORTS = 64


@dataclass(frozen=True)
class Delta:
    """Base class of the typed mutation-log records."""


@dataclass(frozen=True)
class ObjectAdded(Delta):
    """A new object identifier entered the store."""

    object_id: str


@dataclass(frozen=True)
class ObjectRemoved(Delta):
    """An object left the store (its memberships/pairs are retracted first)."""

    object_id: str


@dataclass(frozen=True)
class MembershipAsserted(Delta):
    """An explicit class membership was asserted."""

    object_id: str
    class_name: str


@dataclass(frozen=True)
class MembershipRetracted(Delta):
    """An explicit class membership was retracted."""

    object_id: str
    class_name: str


@dataclass(frozen=True)
class AttributeSet(Delta):
    """An attribute value pair ``(subject attribute value)`` was asserted."""

    subject: str
    attribute: str
    value: str


@dataclass(frozen=True)
class AttributeRemoved(Delta):
    """An attribute value pair was retracted."""

    subject: str
    attribute: str
    value: str


@dataclass(frozen=True)
class EpochRecord:
    """One committed epoch: what every listener receives and the WAL persists.

    ``sequence`` is the store-assigned commit sequence, ``generation`` the
    committing state's generation after the epoch (process-local, so
    diagnostic only once persisted), ``deltas`` the epoch's typed deltas in
    emission order, and ``schema_changed`` whether the epoch swapped the
    schema -- a change no object-level delta describes.
    """

    sequence: int
    generation: int
    deltas: Tuple[Delta, ...]
    schema_changed: bool = False


class StateSnapshot:
    """An immutable, generation-pinned read view of a :class:`DatabaseState`.

    Pins the state *as of one generation*: the object set, the ``SL``
    schema, and the cached interpretation export, all of which are frozen
    structures shared with the live state (taking a snapshot is O(classes +
    attributes), not O(data)).  The snapshot exposes exactly the read
    surface query evaluation and the maintenance flush walk consume
    (:meth:`to_interpretation`, :attr:`objects`, :meth:`extent`,
    :meth:`attribute_pairs`, :meth:`neighbours`), so views can be
    re-materialized against a *past* generation while the live state keeps
    mutating -- the serve-from-generation substrate of the async
    maintenance tier (:class:`repro.database.maintenance.AsyncMaintainer`).

    Snapshots are **picklable** (custom ``__getstate__``/``__setstate__``
    over the slots, dropping the lazily built index): the durable
    tier's checkpoint files (:mod:`repro.database.wal`) are pickled
    snapshots.  To make a checkpoint lossless the snapshot also pins the
    *explicit* membership assertions (:attr:`explicit`) -- the upward-closed
    extents alone cannot reconstruct a live state, since retracting an
    explicit membership later must not disturb closures contributed by
    other explicit assertions.  :meth:`DatabaseState.from_snapshot` rebuilds
    a live state from that explicit surface.
    """

    __slots__ = (
        "generation",
        "schema",
        "objects",
        "explicit",
        "_interpretation",
        "_concepts",
        "_attributes",
        "_adjacency",
    )

    def __init__(self, state: "DatabaseState") -> None:
        self.generation = state.generation
        self.schema = state.schema
        self.objects = state.objects
        self.explicit = {
            class_name: frozenset(members)
            for class_name, members in state._memberships.items()
            if members
        }
        self._interpretation = state.to_interpretation()
        if state._objects:
            # The per-name frozensets backing the export; _export_base
            # builds fresh dicts per generation and never mutates old ones,
            # so holding references pins them.  (to_interpretation() above
            # refreshed them to this generation.)
            self._concepts = dict(state._interp_concepts)
            self._attributes = dict(state._interp_attributes)
        else:
            # The empty-state export bypasses _export_base, whose dicts may
            # still describe the last non-empty generation.
            self._concepts = {}
            self._attributes = {}
        self._adjacency: Dict[Tuple[str, bool], Dict[str, List[str]]] = {}

    def __getstate__(self):
        # Slots class: pickle every slot except the lazily built adjacency
        # index (cheap to rebuild, and keeping it out makes checkpoint
        # payloads independent of whether a flush walked the snapshot).
        return {
            "generation": self.generation,
            "schema": self.schema,
            "objects": self.objects,
            "explicit": self.explicit,
            "_interpretation": self._interpretation,
            "_concepts": self._concepts,
            "_attributes": self._attributes,
        }

    def __setstate__(self, payload) -> None:
        for slot, value in payload.items():
            object.__setattr__(self, slot, value)
        object.__setattr__(self, "_adjacency", {})

    def to_interpretation(self, constants: Optional[Iterable[str]] = None) -> Interpretation:
        """The pinned state as a finite interpretation (see ``DatabaseState``)."""
        extra = frozenset(constants or ()) - self.objects
        if not extra:
            return self._interpretation
        if not self.objects:
            constant_map = {name: name for name in extra}
            return Interpretation(extra, {}, {}, constant_map)
        domain = self._interpretation.domain | extra
        constant_map = {obj: obj for obj in domain}
        return Interpretation.trusted(
            frozenset(domain), self._concepts, self._attributes, constant_map
        )

    def __len__(self) -> int:
        return len(self.objects)

    def extent(self, class_name: str) -> FrozenSet[str]:
        """The upward-closed class extent at the pinned generation."""
        return self._concepts.get(class_name, frozenset())

    def attribute_pairs(self, attribute: str) -> FrozenSet[Tuple[str, str]]:
        """All value assignments of one attribute at the pinned generation."""
        return self._attributes.get(attribute, frozenset())

    def classes(self) -> FrozenSet[str]:
        """Class names with a pinned extension (explicit members or schema)."""
        return frozenset(self._concepts)

    def attributes(self) -> FrozenSet[str]:
        """Attribute names with a pinned extension."""
        return frozenset(self._attributes)

    def neighbours(self, object_id: str, attribute: str, inverted: bool = False) -> Collection[str]:
        """The fillers of ``attribute`` (``attribute^-1`` when ``inverted``) at one object.

        The snapshot counterpart of :meth:`DatabaseState.neighbours`:
        backed by a per-direction index of one attribute's pinned pairs,
        built on first use (one pass over that attribute's pairs, on the
        maintenance worker thread, never on the committing mutator).  The
        returned collection belongs to the index; callers must not mutate
        it.
        """
        key = (attribute, inverted)
        index = self._adjacency.get(key)
        if index is None:
            index = {}
            for subject, value in self._attributes.get(attribute, ()):
                if inverted:
                    subject, value = value, subject
                bucket = index.get(subject)
                if bucket is None:
                    index[subject] = [value]
                else:
                    bucket.append(value)
            self._adjacency[key] = index
        return index.get(object_id, ())


class DatabaseState:
    """A mutable, in-memory object base.

    Parameters
    ----------
    schema:
        The ``SL`` schema governing the state (used for the upward closure of
        memberships along ``isA`` and for integrity checking).  May be
        ``None`` for schema-less scratch states.
    """

    def __init__(self, schema: Optional[Schema] = None) -> None:
        self._schema = schema if schema is not None else Schema.empty()
        self._objects: Set[str] = set()
        self._memberships: Dict[str, Set[str]] = {}
        self._attributes: Dict[str, Set[Tuple[str, str]]] = {}

        # Reverse indexes: object -> explicit classes, object -> the
        # (attribute, subject, value) triples it participates in (either
        # end), and (subject, attribute) -> values.
        self._classes_of: Dict[str, Set[str]] = {}
        self._pairs_of: Dict[str, Set[Tuple[str, str, str]]] = {}
        self._values_of: Dict[Tuple[str, str], Set[str]] = {}

        # Versioning, mutation log and memo invalidation state.
        self.generation = 0
        self._listeners: List[object] = []
        self._batch_depth = 0
        self._commit_pending = False
        # The open epoch's deltas (collected only while a listener is
        # subscribed) and whether it swapped the schema.
        self._epoch_deltas: List[Delta] = []
        self._epoch_schema_changed = False

        # Commit scheduling: writer threads serialize on the write lock
        # for the whole batch; the store assigns the epoch sequence at
        # commit; an attached CommitScheduler gates writes while degraded.
        self._write_lock = threading.RLock()
        self._commit_sequence = 0
        self._commit_gate = None

        # class -> membership classes contributing to its upward-closed
        # extent (filled lazily as membership classes first appear).
        self._contributors: Dict[str, Set[str]] = {}
        self._schema_concepts: Optional[FrozenSet[str]] = None
        self._schema_attributes: Optional[FrozenSet[str]] = None
        self._supers_memo: Dict[str, FrozenSet[str]] = {}
        self._extent_memo: Dict[str, FrozenSet[str]] = {}
        self._frozen_attrs: Dict[str, FrozenSet[Tuple[str, str]]] = {}
        self._frozen_objects: Optional[FrozenSet[str]] = None

        # Cached interpretation export (generation-keyed).
        self._interp_generation = -1
        self._interp_base: Optional[Interpretation] = None
        self._interp_concepts: Dict[str, FrozenSet[str]] = {}
        self._interp_attributes: Dict[str, FrozenSet[Tuple[str, str]]] = {}
        self._interp_extended: Dict[FrozenSet[str], Interpretation] = {}

    # -- schema ----------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The ``SL`` schema governing the state."""
        return self._schema

    @schema.setter
    def schema(self, schema: Optional[Schema]) -> None:
        """Swap the schema inside a batch, dropping schema-derived memos."""
        with self.batch():
            self._schema = schema if schema is not None else Schema.empty()
            # A different hierarchy changes every upward closure: rebuild
            # the contributor map and drop all schema-derived memos.
            self._supers_memo.clear()
            self._extent_memo.clear()
            self._schema_concepts = None
            self._schema_attributes = None
            self._contributors = {}
            for class_name in self._memberships:
                for superclass in self._superclasses(class_name):
                    self._contributors.setdefault(superclass, set()).add(class_name)
            self._touch_generation()
            # A schema swap changes extents without any object-level delta;
            # listeners that memoize the hierarchy (the maintenance queue)
            # must invalidate and re-materialize, so it commits like any
            # other mutation, flagged in the epoch record.
            self._commit_pending = True
            self._epoch_schema_changed = True

    def _superclasses(self, class_name: str) -> FrozenSet[str]:
        cached = self._supers_memo.get(class_name)
        if cached is None:
            cached = self._schema.all_superclasses(class_name)
            self._supers_memo[class_name] = cached
        return cached

    # -- mutation log ----------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Attach a mutation-log listener.

        Listeners receive ``on_commit(record)`` once per committed epoch
        (one outermost mutation, or one :meth:`batch`): every listener gets
        the same :class:`EpochRecord`.  A listener subscribed mid-batch
        sees only the deltas recorded after it joined; one unsubscribed
        mid-batch receives nothing for that epoch.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Detach a previously subscribed listener (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    @property
    def in_batch(self) -> bool:
        """``True`` while inside a ``with state.batch():`` epoch."""
        return self._batch_depth > 0

    @property
    def commit_sequence(self) -> int:
        """The store-assigned epoch sequence of the last effective commit.

        Bumps exactly once per committed epoch that emitted at least one
        delta (or swapped the schema), *before* the ``on_commit``
        listeners run -- so the epoch record carries it, and concurrent
        writers (serialized by the write lock) can never race it.
        """
        return self._commit_sequence

    def reset_commit_sequence(self, sequence: int) -> None:
        """Re-anchor the epoch numbering (a state rebuilt from a snapshot continues it)."""
        self._commit_sequence = sequence

    def attach_commit_scheduler(self, scheduler) -> None:
        """Gate write batches through a :class:`~repro.database.commit.CommitScheduler`.

        While the scheduler is degraded, entering a new outermost batch
        raises its typed ``DurabilityError`` before any mutation happens.
        One gate at a time: attaching a different scheduler replaces the
        previous one.
        """
        self._commit_gate = scheduler

    def detach_commit_scheduler(self, scheduler=None) -> None:
        """Remove the commit gate (no-op when ``scheduler`` is not attached)."""
        if scheduler is None or self._commit_gate is scheduler:
            self._commit_gate = None

    @property
    def read_only(self) -> bool:
        """``True`` while the attached scheduler is in degraded mode."""
        gate = self._commit_gate
        return bool(gate is not None and gate.read_only)

    @property
    def last_commit_ticket(self):
        """The calling thread's most recent commit ticket (if durable-tiered)."""
        gate = self._commit_gate
        return None if gate is None else gate.last_ticket

    @contextmanager
    def batch(self):
        """Open a mutation epoch: listeners see one record at the end.

        Batches nest; only the outermost exit seals the epoch into an
        :class:`EpochRecord` and hands it to every listener.  Every public
        mutator runs inside an implicit batch, so a lone
        ``state.set_attribute(...)`` commits immediately while
        ``with state.batch(): ...`` coalesces an arbitrary interleaving of
        mutations into one maintenance flush.  The record is built only
        when a listener is subscribed: bulk loads with nothing attached pay
        for no epoch bookkeeping.

        Concurrent writer threads serialize here: the (reentrant) write
        lock is held for the whole batch, including the commit
        notifications, so epochs -- and the WAL appends the durable tier
        issues from ``on_commit`` -- are totally ordered.  When a commit
        scheduler is attached and degraded, the outermost entry raises its
        ``DurabilityError`` before any mutation happens (read-only mode);
        readers never touch this lock.
        """
        self._write_lock.acquire()
        try:
            if self._batch_depth == 0 and self._commit_gate is not None:
                self._commit_gate.check_writable()
        except BaseException:
            self._write_lock.release()
            raise
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            try:
                if self._batch_depth == 0 and self._commit_pending:
                    self._commit_pending = False
                    self._commit_sequence += 1
                    deltas, self._epoch_deltas = self._epoch_deltas, []
                    schema_changed, self._epoch_schema_changed = self._epoch_schema_changed, False
                    if self._listeners:
                        record = EpochRecord(
                            self._commit_sequence, self.generation, tuple(deltas), schema_changed
                        )
                        for listener in list(self._listeners):
                            listener.on_commit(record)
            finally:
                self._write_lock.release()

    def _emit(self, delta: Delta) -> None:
        self._commit_pending = True
        if self._listeners:
            self._epoch_deltas.append(delta)

    def _touch_generation(self) -> None:
        self.generation += 1

    # -- population -----------------------------------------------------------

    def add_object(self, object_id: str, *classes: str) -> str:
        """Create an object (idempotent) and optionally assert memberships."""
        with self.batch():
            self._add_object(object_id)
            for class_name in classes:
                self.assert_membership(object_id, class_name)
        return object_id

    def _add_object(self, object_id: str) -> None:
        if object_id in self._objects:
            return
        self._objects.add(object_id)
        self._frozen_objects = None
        self._touch_generation()
        self._emit(ObjectAdded(object_id))

    def assert_membership(self, object_id: str, class_name: str) -> None:
        """Assert that the object is an instance of the class."""
        with self.batch():
            self._add_object(object_id)
            members = self._memberships.get(class_name)
            if members is None:
                members = self._memberships[class_name] = set()
                for superclass in self._superclasses(class_name):
                    self._contributors.setdefault(superclass, set()).add(class_name)
            if object_id in members:
                return
            members.add(object_id)
            self._classes_of.setdefault(object_id, set()).add(class_name)
            self._invalidate_extents(class_name)
            self._touch_generation()
            self._emit(MembershipAsserted(object_id, class_name))

    def retract_membership(self, object_id: str, class_name: str) -> None:
        """Remove an explicit membership assertion (no cascade)."""
        with self.batch():
            members = self._memberships.get(class_name)
            if members is None or object_id not in members:
                return
            members.discard(object_id)
            self._classes_of.get(object_id, set()).discard(class_name)
            self._invalidate_extents(class_name)
            self._touch_generation()
            self._emit(MembershipRetracted(object_id, class_name))

    def set_attribute(self, subject: str, attribute: str, value: str) -> None:
        """Assert an attribute value ``(subject attribute value)``."""
        with self.batch():
            self._add_object(subject)
            self._add_object(value)
            pairs = self._attributes.setdefault(attribute, set())
            if (subject, value) in pairs:
                return
            pairs.add((subject, value))
            triple = (attribute, subject, value)
            self._pairs_of.setdefault(subject, set()).add(triple)
            self._pairs_of.setdefault(value, set()).add(triple)
            self._values_of.setdefault((subject, attribute), set()).add(value)
            self._frozen_attrs.pop(attribute, None)
            self._touch_generation()
            self._emit(AttributeSet(subject, attribute, value))

    def remove_attribute(self, subject: str, attribute: str, value: str) -> None:
        """Retract an attribute value assertion."""
        with self.batch():
            pairs = self._attributes.get(attribute)
            if pairs is None or (subject, value) not in pairs:
                return
            pairs.discard((subject, value))
            triple = (attribute, subject, value)
            self._pairs_of.get(subject, set()).discard(triple)
            self._pairs_of.get(value, set()).discard(triple)
            values = self._values_of.get((subject, attribute))
            if values is not None:
                values.discard(value)
                # Empty index entries must not outlive their data: a churn
                # of create/link/delete cycles would otherwise grow the
                # reverse indexes with one dead key per pair ever seen.
                if not values:
                    del self._values_of[(subject, attribute)]
            self._frozen_attrs.pop(attribute, None)
            self._touch_generation()
            self._emit(AttributeRemoved(subject, attribute, value))

    def remove_object(self, object_id: str) -> None:
        """Delete an object together with its memberships and attribute values.

        Thanks to the reverse indexes the cost is proportional to the
        object's own memberships and pairs, not to the total store size; the
        constituent retractions are emitted individually (so maintenance can
        recheck affected neighbours) before the final :class:`ObjectRemoved`.
        """
        with self.batch():
            if object_id not in self._objects:
                return
            for class_name in sorted(self._classes_of.get(object_id, ())):
                self.retract_membership(object_id, class_name)
            for attribute, subject, value in sorted(self._pairs_of.get(object_id, ())):
                self.remove_attribute(subject, attribute, value)
            self._classes_of.pop(object_id, None)
            self._pairs_of.pop(object_id, None)
            self._objects.discard(object_id)
            self._frozen_objects = None
            self._touch_generation()
            self._emit(ObjectRemoved(object_id))

    # -- memo invalidation ------------------------------------------------------

    def _invalidate_extents(self, class_name: str) -> None:
        """Drop the memoized upward-closed extents a membership change touches."""
        for superclass in self._superclasses(class_name):
            self._extent_memo.pop(superclass, None)

    # -- inspection ------------------------------------------------------------

    @property
    def objects(self) -> FrozenSet[str]:
        """All object identifiers of the state."""
        if self._frozen_objects is None:
            self._frozen_objects = frozenset(self._objects)
        return self._frozen_objects

    def __len__(self) -> int:
        return len(self._objects)

    def explicit_extent(self, class_name: str) -> FrozenSet[str]:
        """The objects explicitly asserted to be members of the class."""
        return frozenset(self._memberships.get(class_name, ()))

    def extent(self, class_name: str) -> FrozenSet[str]:
        """The class extent closed upwards along ``isA``.

        An object explicitly asserted to belong to ``Patient`` is also a
        member of every (transitive) superclass such as ``Person``.  Extents
        are memoized; a membership change invalidates exactly the asserted
        class and its superclasses.
        """
        cached = self._extent_memo.get(class_name)
        if cached is None:
            members: Set[str] = set(self._memberships.get(class_name, ()))
            for contributor in self._contributors.get(class_name, ()):
                if contributor != class_name:
                    members.update(self._memberships.get(contributor, ()))
            cached = frozenset(members)
            self._extent_memo[class_name] = cached
        return cached

    def attribute_pairs(self, attribute: str) -> FrozenSet[Tuple[str, str]]:
        """All value assignments of one attribute."""
        cached = self._frozen_attrs.get(attribute)
        if cached is None:
            cached = frozenset(self._attributes.get(attribute, ()))
            self._frozen_attrs[attribute] = cached
        return cached

    def attribute_values(self, subject: str, attribute: str) -> FrozenSet[str]:
        """The values of ``attribute`` for one object (indexed, O(result))."""
        return frozenset(self._values_of.get((subject, attribute), ()))

    def object_classes(self, object_id: str) -> FrozenSet[str]:
        """The classes explicitly asserted for one object."""
        return frozenset(self._classes_of.get(object_id, ()))

    def object_pairs(self, object_id: str) -> FrozenSet[Tuple[str, str, str]]:
        """The ``(attribute, subject, value)`` triples touching one object.

        Both the subject and the value position count as "touching".  The
        result is a copy, safe to hold across later mutations.
        """
        return frozenset(self._pairs_of.get(object_id, ()))

    def neighbours(self, object_id: str, attribute: str, inverted: bool = False) -> Collection[str]:
        """The fillers of ``attribute`` (``attribute^-1`` when ``inverted``) at one object.

        ``neighbours(x, P)`` are the ``y`` with ``(x, y) ∈ P``;
        ``neighbours(x, P, inverted=True)`` are the ``y`` with ``(y, x) ∈
        P``.  This is the adjacency read of the maintenance engine's path
        walks, and it copies no relation: a forward read returns the live
        ``(subject, attribute)`` index entry, an inverted read filters the
        object's own triples.  Callers must neither mutate the result nor
        hold it across a mutation of the state.
        """
        if not inverted:
            return self._values_of.get((object_id, attribute), ())
        return [
            subject
            for name, subject, value in self._pairs_of.get(object_id, ())
            if name == attribute and value == object_id
        ]

    def classes(self) -> FrozenSet[str]:
        """Class names with at least one explicit member, plus schema classes."""
        if self._schema_concepts is None:
            self._schema_concepts = self._schema.concept_names()
        return frozenset(self._memberships) | self._schema_concepts

    def attributes(self) -> FrozenSet[str]:
        """Attribute names with at least one assignment, plus schema attributes."""
        if self._schema_attributes is None:
            self._schema_attributes = self._schema.attribute_names()
        return frozenset(self._attributes) | self._schema_attributes

    # -- integrity --------------------------------------------------------------

    def integrity_violations(self) -> List[IntegrityViolation]:
        """Check the state against the structural schema.

        The checks mirror the three kinds of restrictions of Section 2.1:
        attribute typing (value must belong to the declared range when the
        subject belongs to the declaring class), necessary attributes (at
        least one value) and single-valued attributes (at most one value),
        plus the global attribute domain/range declarations.
        """
        violations: List[IntegrityViolation] = []
        extents = {name: self.extent(name) for name in self.classes()}

        for axiom_class in self._schema.concept_names():
            members = extents.get(axiom_class, frozenset())
            for attribute, range_class in self._schema.value_restrictions(axiom_class):
                range_extent = extents.get(range_class, frozenset())
                for subject in members:
                    for value in self.attribute_values(subject, attribute):
                        if value not in range_extent:
                            violations.append(
                                IntegrityViolation(
                                    "typing",
                                    subject,
                                    f"value {value!r} of {attribute!r} is not in {range_class!r}",
                                )
                            )
            for attribute in self._schema.necessary_attributes(axiom_class):
                for subject in members:
                    if not self.attribute_values(subject, attribute):
                        violations.append(
                            IntegrityViolation(
                                "necessary",
                                subject,
                                f"member of {axiom_class!r} has no value for {attribute!r}",
                            )
                        )
            for attribute in self._schema.functional_attributes(axiom_class):
                for subject in members:
                    values = self.attribute_values(subject, attribute)
                    if len(values) > 1:
                        violations.append(
                            IntegrityViolation(
                                "single",
                                subject,
                                f"member of {axiom_class!r} has {len(values)} values "
                                f"for functional attribute {attribute!r}",
                            )
                        )

        for typing in self._schema.attribute_typings:
            domain_extent = extents.get(typing.domain, frozenset())
            range_extent = extents.get(typing.range, frozenset())
            for subject, value in self.attribute_pairs(typing.attribute):
                if subject not in domain_extent:
                    violations.append(
                        IntegrityViolation(
                            "domain",
                            subject,
                            f"subject of {typing.attribute!r} is not in {typing.domain!r}",
                        )
                    )
                if value not in range_extent:
                    violations.append(
                        IntegrityViolation(
                            "range",
                            value,
                            f"value of {typing.attribute!r} is not in {typing.range!r}",
                        )
                    )
        return violations

    def is_consistent(self) -> bool:
        """``True`` iff the state satisfies all structural schema constraints."""
        return not self.integrity_violations()

    # -- export -----------------------------------------------------------------

    def snapshot(self) -> StateSnapshot:
        """Pin the current generation as an immutable :class:`StateSnapshot`.

        The snapshot shares the frozen per-name extensions with the cached
        interpretation export, so taking one costs a dict copy, not a data
        copy.  Later mutations of this state never change a snapshot:
        readers (and the async maintenance worker) evaluate against the
        pinned generation while the live state moves on.
        """
        return StateSnapshot(self)

    @classmethod
    def from_snapshot(
        cls, snapshot: StateSnapshot, schema: Optional[Schema] = None
    ) -> "DatabaseState":
        """Rebuild a live state from a snapshot's explicit surface.

        Replays the pinned objects, *explicit* membership assertions and
        attribute pairs into a fresh state (one batch, no listeners yet --
        recovery attaches maintainers afterwards).  The rebuilt state is
        extensionally identical to the snapshotted one: every extent and
        attribute extension matches, and future retractions behave as they
        would have on the original (which closed extents alone could not
        guarantee).  The :attr:`generation` counter restarts from the
        replay -- generations are process-local serving coordinates, not
        durable identities -- and ``schema`` (default: the snapshot's)
        lets recovery rebuild under a schema that evolved past the
        checkpoint.
        """
        state = cls(schema if schema is not None else snapshot.schema)
        with state.batch():
            for object_id in sorted(snapshot.objects):
                state._add_object(object_id)
            for class_name in sorted(snapshot.explicit):
                for object_id in sorted(snapshot.explicit[class_name]):
                    state.assert_membership(object_id, class_name)
            for attribute in sorted(snapshot.attributes()):
                for subject, value in sorted(snapshot.attribute_pairs(attribute)):
                    state.set_attribute(subject, attribute, value)
        return state

    def replay(self, record: EpochRecord) -> None:
        """Apply one logged epoch: its deltas in one batch, committed as ``record.sequence``.

        The one apply path for recorded epochs -- crash recovery,
        promotion and a replica's delta leg -- so a replayed state's
        :attr:`commit_sequence` always names the last epoch it holds, and
        listeners see one commit under the record's own sequence.  The
        record's schema swap is not replayed: the log does not carry the
        new schema, so whoever replays a swap sets :attr:`schema` itself.
        """
        with self.batch():
            # The outermost exit bumps the numbering onto the record's own.
            self._commit_sequence = record.sequence - 1
            self._commit_pending = True
            for delta in record.deltas:
                self.apply_delta(delta)

    def apply_delta(self, delta: Delta) -> None:
        """Apply one logged :class:`Delta` to this state (replay-idempotent).

        :meth:`replay` applies each epoch's deltas through this: deltas
        are records of *effective* mutations, so replaying them through the
        public mutators reproduces the explicit data exactly, and
        re-applying an already-present delta is a no-op (every mutator is
        idempotent).
        """
        if isinstance(delta, ObjectAdded):
            self.add_object(delta.object_id)
        elif isinstance(delta, MembershipAsserted):
            self.assert_membership(delta.object_id, delta.class_name)
        elif isinstance(delta, MembershipRetracted):
            self.retract_membership(delta.object_id, delta.class_name)
        elif isinstance(delta, AttributeSet):
            self.set_attribute(delta.subject, delta.attribute, delta.value)
        elif isinstance(delta, AttributeRemoved):
            self.remove_attribute(delta.subject, delta.attribute, delta.value)
        elif isinstance(delta, ObjectRemoved):
            # The constituent retractions were logged (and replayed) before
            # this record; removing the bare object is what remains.
            self.remove_object(delta.object_id)
        else:  # pragma: no cover - future delta kinds must opt in explicitly
            raise TypeError(f"unknown delta type: {type(delta).__name__}")

    def to_interpretation(self, constants: Optional[Iterable[str]] = None) -> Interpretation:
        """The state as a finite interpretation (classes upward-closed along ``isA``).

        Every object identifier also serves as a constant denoting itself, so
        singleton concepts ``{o}`` in queries refer to stored objects;
        ``constants`` may add further constant names that should denote
        themselves (they are added to the domain if missing).

        The export is cached on :attr:`generation`: while the state does not
        change, repeated calls return the *same* :class:`Interpretation`
        object, and after a change only the per-class / per-attribute pieces
        whose memos were invalidated are recomputed (the rest of the frozen
        extensions are shared with the previous export).
        """
        if not self._objects:
            # The tiny empty-state export keeps the original (validating)
            # construction: a placeholder element when nothing denotes.
            domain: Set[str] = set(constants or ())
            constant_map = {name: name for name in domain}
            if not domain:
                domain = {"__empty__"}
            return Interpretation(domain, {}, {}, constant_map)
        extra = frozenset(constants or ()) - self.objects
        base = self._export_base()
        if not extra:
            return base
        cached = self._interp_extended.get(extra)
        if cached is None:
            domain = base.domain | extra
            constant_map = {obj: obj for obj in domain}
            cached = Interpretation.trusted(
                frozenset(domain), self._interp_concepts, self._interp_attributes, constant_map
            )
            # Each entry retains an O(domain) constant map; a read-heavy
            # phase with many distinct constraint-constant sets must not
            # accumulate them without bound.
            if len(self._interp_extended) >= _MAX_EXTENDED_EXPORTS:
                self._interp_extended.clear()
            self._interp_extended[extra] = cached
        return cached

    def _export_base(self) -> Interpretation:
        if self._interp_base is not None and self._interp_generation == self.generation:
            return self._interp_base
        domain = self.objects
        # Incremental patch: extent()/attribute_pairs() are memoized, so
        # only the entries a mutation invalidated are recomputed; the dicts
        # themselves are rebuilt (cheap -- one lookup per name) so
        # previously exported interpretations stay frozen.
        self._interp_concepts = {name: self.extent(name) for name in self.classes()}
        self._interp_attributes = {name: self.attribute_pairs(name) for name in self.attributes()}
        constant_map = {obj: obj for obj in domain}
        self._interp_base = Interpretation.trusted(
            domain, self._interp_concepts, self._interp_attributes, constant_map
        )
        self._interp_generation = self.generation
        self._interp_extended.clear()
        return self._interp_base

    # -- synonym handling ----------------------------------------------------------

    def apply_inverse_synonyms(self, dl_schema: DLSchema) -> None:
        """Materialize inverse-synonym attribute values (e.g. ``specialist``).

        For every attribute declaration with an ``inverse`` synonym, the
        synonym's pairs are kept in sync with the primitive attribute in both
        directions, so that query evaluation over the concrete state can use
        either name.  The sync goes through :meth:`set_attribute`, so every
        materialized pair lands in the mutation log and the maintenance
        engine sees it.
        """
        with self.batch():
            for decl in dl_schema.attributes.values():
                if decl.inverse is None:
                    continue
                primitive_pairs = set(self._attributes.get(decl.name, ()))
                synonym_pairs = set(self._attributes.get(decl.inverse, ()))
                for first, second in synonym_pairs:
                    if (second, first) not in primitive_pairs:
                        self.set_attribute(second, decl.name, first)
                        primitive_pairs.add((second, first))
                for first, second in primitive_pairs:
                    if (second, first) not in synonym_pairs:
                        self.set_attribute(second, decl.inverse, first)
