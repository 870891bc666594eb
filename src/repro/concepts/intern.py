"""Hash-consing (interning) of ``QL`` concepts and paths.

The optimizer and the view lattice compare, hash and memoize the same
concepts over and over: every query is probed against many views, every view
against its lattice neighbours, and all of them share sub-expressions.  With
plain structural hashing each dictionary operation walks the whole AST; at
catalog scale that dominates the cost of cache *hits*.

This module gives every concept a single canonical ("interned") instance:

* structurally equal concepts intern to the *same object* (``is``-identity),
* every canonical instance carries a **stable integer id**, assigned once
  when the structure is first seen,
* caches throughout the library (`normalize_concept`, the checker's
  signature / satisfiability / decision memos, the shared cross-checker
  decision cache) are keyed on those integer ids, so lookups cost one
  attribute read and one small-int hash instead of a deep traversal.

The structural hash itself is *not* precomputed: the frozen dataclasses'
``__hash__`` still walks the whole structure on every call, canonical
instances included -- which is why hot caches key on the id instead of on
the concept.

Interning is bottom-up: children are interned first, so the table key of a
composite node is built from the child *ids* (O(1) per node, O(size) the
first time a structure is seen, O(1) for every already-canonical instance).

Ids are drawn from a process-wide monotonic counter that is **never reset**
-- :func:`clear_intern_tables` drops the tables (so canonical instances can
be garbage collected) but keeps the counter, which guarantees that an id can
never be reused for a different structure and therefore that stale id-keyed
cache entries can only miss, never alias.

Concurrency and serialization (the batch/parallel layer relies on both):

* interning is **thread-safe**: table lookups and stamping happen under a
  process-wide lock, so two threads interning the same new structure agree
  on one canonical instance and one id (the already-canonical fast path
  stays lock-free);
* canonical instances **never leak their id through pickling or copying**:
  the syntax nodes drop the stamp in ``__getstate__``, so an unpickled (or
  deep-copied) concept is an ordinary non-canonical instance that re-interns
  to whatever id its structure has in the *receiving* process.  Round-trips
  within one process are therefore id-stable (``concept_id(loads(dumps(c)))
  == concept_id(c)``), and shipping concepts to a worker process can never
  alias a foreign id onto a different structure.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Tuple

from .syntax import (
    And,
    AttributeRestriction,
    Concept,
    ExistsPath,
    Path,
    PathAgreement,
    Primitive,
    Singleton,
    Top,
)

__all__ = [
    "intern_concept",
    "intern_path",
    "concept_id",
    "path_id",
    "is_interned",
    "intern_table_size",
    "clear_intern_tables",
    "register_dependent_cache",
]

#: Attribute stamped (via ``object.__setattr__``) onto canonical instances.
#: Non-canonical copies never carry it, so ``getattr(c, _ID_ATTR, None)``
#: doubles as the "is this the canonical instance?" probe.
_ID_ATTR = "_repro_intern_id"

_ids = itertools.count(1)
_concepts: Dict[Tuple, Concept] = {}
_paths: Dict[Tuple, Path] = {}

#: Guards the lookup-then-stamp sections below.  Without it two threads
#: interning the same new structure could both miss the table and stamp two
#: "canonical" instances with distinct ids; ``RLock`` because composite
#: nodes intern their children recursively.
_INTERN_LOCK = threading.RLock()


def _stamp(node, key: Tuple, table: Dict[Tuple, object]):
    """Register ``node`` as the canonical instance for ``key``."""
    object.__setattr__(node, _ID_ATTR, next(_ids))
    table[key] = node
    return node


def intern_path(path: Path) -> Path:
    """The canonical instance of ``path`` (fillers interned recursively)."""
    if getattr(path, _ID_ATTR, None) is not None:
        return path
    fillers = tuple(intern_concept(step.concept) for step in path.steps)
    key = tuple(
        (step.attribute.name, step.attribute.inverted, getattr(filler, _ID_ATTR))
        for step, filler in zip(path.steps, fillers)
    )
    with _INTERN_LOCK:
        canonical = _paths.get(key)
        if canonical is not None:
            return canonical
        if all(filler is step.concept for step, filler in zip(path.steps, fillers)):
            rebuilt = path
        else:
            rebuilt = Path(
                tuple(
                    AttributeRestriction(step.attribute, filler)
                    for step, filler in zip(path.steps, fillers)
                )
            )
        return _stamp(rebuilt, key, _paths)


def intern_concept(concept: Concept) -> Concept:
    """The canonical instance of ``concept``.

    Idempotent and structure-preserving: the result is structurally equal to
    the input, and two structurally equal inputs intern to the same object.
    """
    if getattr(concept, _ID_ATTR, None) is not None:
        return concept
    if isinstance(concept, Primitive):
        key: Tuple = ("A", concept.name)
        rebuilt: Concept = concept
    elif isinstance(concept, Top):
        key = ("T",)
        rebuilt = concept
    elif isinstance(concept, Singleton):
        key = ("{}", concept.constant)
        rebuilt = concept
    elif isinstance(concept, And):
        left = intern_concept(concept.left)
        right = intern_concept(concept.right)
        key = ("&", getattr(left, _ID_ATTR), getattr(right, _ID_ATTR))
        if left is concept.left and right is concept.right:
            rebuilt = concept
        else:
            rebuilt = And(left, right)
    elif isinstance(concept, ExistsPath):
        path = intern_path(concept.path)
        key = ("E", getattr(path, _ID_ATTR))
        rebuilt = concept if path is concept.path else ExistsPath(path)
    elif isinstance(concept, PathAgreement):
        left_path = intern_path(concept.left)
        right_path = intern_path(concept.right)
        key = ("=", getattr(left_path, _ID_ATTR), getattr(right_path, _ID_ATTR))
        if left_path is concept.left and right_path is concept.right:
            rebuilt = concept
        else:
            rebuilt = PathAgreement(left_path, right_path)
    else:
        raise TypeError(f"cannot intern {concept!r}: not a QL concept")
    with _INTERN_LOCK:
        canonical = _concepts.get(key)
        if canonical is not None:
            return canonical
        return _stamp(rebuilt, key, _concepts)


def concept_id(concept: Concept) -> int:
    """The stable integer id of a concept (interning it if necessary).

    Equal ids imply structural equality; distinct ids imply structural
    inequality (for ids issued while the tables are live).
    """
    cached = getattr(concept, _ID_ATTR, None)
    if cached is not None:
        return cached
    return getattr(intern_concept(concept), _ID_ATTR)


def path_id(path: Path) -> int:
    """The stable integer id of a path (interning it if necessary)."""
    cached = getattr(path, _ID_ATTR, None)
    if cached is not None:
        return cached
    return getattr(intern_path(path), _ID_ATTR)


def is_interned(node) -> bool:
    """``True`` iff ``node`` is the canonical instance of its structure."""
    return getattr(node, _ID_ATTR, None) is not None


def intern_table_size() -> int:
    """Number of distinct concept structures currently interned."""
    return len(_concepts)


#: Clear-callbacks of caches that hold references to canonical instances
#: (e.g. the normalize memo); invoked by :func:`clear_intern_tables` so that
#: "canonical instances become collectible" actually holds.
_dependent_cache_clearers: list = []


def register_dependent_cache(clear: "callable") -> None:
    """Register a cache-clearing callback to run with :func:`clear_intern_tables`."""
    _dependent_cache_clearers.append(clear)


def clear_intern_tables() -> None:
    """Drop the intern tables (canonical instances become collectible).

    Registered dependent caches (the process-wide normalize memo) are cleared
    too, so no strong references to the old canonical instances survive here.
    The id counter is deliberately *not* reset: instances stamped before the
    clear keep their ids, and new structures get fresh ones, so id-keyed
    caches that survive the clear can only miss, never return a wrong entry.
    """
    with _INTERN_LOCK:
        _concepts.clear()
        _paths.clear()
        for clear in _dependent_cache_clearers:
            clear()
