"""Update epochs that keep the database a legal state of its schema.

The optimizer answers a query from a view's extent because the query is
subsumed by the view *under the schema* (Proposition 3.1): the answer is
only guaranteed for states that satisfy the schema's typing, necessity and
single-value axioms.  ``repro.workloads.driver.generate_update_stream``
draws updates without looking at the schema, so after its first epoch the
trading state already violates dozens of axioms, and served answers may
then differ from a from-scratch evaluation without any fault in the
program.  ``legal_epochs`` draws the same kinds of updates (add, assert,
retract, set, unset, remove) but proposes each against a scratch copy of
the state and keeps only those after which every axiom still holds; an
added object comes with a value for each of its necessary attributes.

Every choice is made from sorted candidates, so the epochs depend on the
seed only (not on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.database.store import DatabaseState
from repro.workloads.driver import apply_update

#: Relative frequency of each update kind (as in ``generate_update_stream``).
KINDS = (
    ("add", 0.18),
    ("assert", 0.22),
    ("retract", 0.12),
    ("set", 0.28),
    ("unset", 0.10),
    ("remove", 0.10),
)
#: Proposals per accepted update before an epoch gives up on filling up.
ATTEMPTS = 200


class _Axioms:
    """The schema's axioms, closed over the ``isA`` hierarchy per class set."""

    def __init__(self, schema) -> None:
        self.schema = schema
        self.classes = sorted(schema.concept_names())
        self.typed = sorted(
            name for name in schema.attribute_names() if schema.attribute_typing(name)
        )
        self._memo: Dict[FrozenSet[str], tuple] = {}

    def closure(self, explicit) -> FrozenSet[str]:
        closed: Set[str] = set()
        for name in explicit:
            closed |= self.schema.all_superclasses(name)
        return frozenset(closed)

    def of(self, closure: FrozenSet[str]):
        """(necessary, single, restrictions attribute -> ranges) of a class set."""
        cached = self._memo.get(closure)
        if cached is None:
            necessary: Set[str] = set()
            single: Set[str] = set()
            restrictions: Dict[str, Set[str]] = {}
            for name in closure:
                necessary |= self.schema.necessary_attributes(name)
                single |= self.schema.functional_attributes(name)
                for attribute, range_class in self.schema.value_restrictions(name):
                    restrictions.setdefault(attribute, set()).add(range_class)
            cached = self._memo[closure] = (necessary, single, restrictions)
        return cached


class _Proposer:
    def __init__(self, schema, state: DatabaseState, rng: random.Random) -> None:
        self.axioms = _Axioms(schema)
        self.state = state
        self.rng = rng
        self.alive: List[str] = sorted(state.objects)
        self.created = 0

    # -- state reads ------------------------------------------------------

    def closure_of(self, obj: str) -> FrozenSet[str]:
        return self.axioms.closure(self.state.object_classes(obj))

    def object_legal(self, obj: str, closure: FrozenSet[str]) -> bool:
        """Every axiom touching ``obj`` holds if its classes were ``closure``."""
        state = self.state
        necessary, single, restrictions = self.axioms.of(closure)
        for attribute in necessary:
            if not state.attribute_values(obj, attribute):
                return False
        for attribute in single:
            if len(state.attribute_values(obj, attribute)) > 1:
                return False
        for attribute, subject, value in state.object_pairs(obj):
            typing = self.axioms.schema.attribute_typing(attribute)
            if subject == obj:
                if typing is not None and typing[0] not in closure:
                    return False
                value_closure = closure if value == obj else self.closure_of(value)
                if not restrictions.get(attribute, set()) <= value_closure:
                    return False
            if value == obj:
                if typing is not None and typing[1] not in closure:
                    return False
                subject_closure = closure if subject == obj else self.closure_of(subject)
                _, _, subject_restrictions = self.axioms.of(subject_closure)
                if not subject_restrictions.get(attribute, set()) <= closure:
                    return False
        return True

    def fits(self, value: str, attribute: str, ranges: Set[str]) -> bool:
        typing = self.axioms.schema.attribute_typing(attribute)
        needed = set(ranges)
        if typing is not None:
            needed.add(typing[1])
        return needed <= self.closure_of(value)

    def candidates(self, attribute: str, ranges: Set[str]) -> List[str]:
        typing = self.axioms.schema.attribute_typing(attribute)
        pool = self.state.extent(typing[1]) if typing is not None else self.state.objects
        return sorted(value for value in pool if self.fits(value, attribute, ranges))

    # -- proposals (each returns the ops of one legal update, or None) ----

    def add(self, room: int) -> Optional[List[tuple]]:
        class_name = self.rng.choice(self.axioms.classes)
        closure = self.axioms.closure((class_name,))
        necessary, _, restrictions = self.axioms.of(closure)
        if 1 + len(necessary) > room:
            return None
        self.created += 1
        obj = f"upd_{self.created}"
        ops: List[tuple] = [("add", obj, (class_name,))]
        for attribute in sorted(necessary):
            typing = self.axioms.schema.attribute_typing(attribute)
            if typing is not None and typing[0] not in closure:
                return None
            values = self.candidates(attribute, restrictions.get(attribute, set()))
            if not values:
                return None
            ops.append(("set", obj, attribute, self.rng.choice(values)))
        return ops

    def assert_(self, room: int) -> Optional[List[tuple]]:
        obj = self.rng.choice(self.alive)
        class_name = self.rng.choice(self.axioms.classes)
        explicit = self.state.object_classes(obj)
        if class_name in explicit:
            return None
        if not self.object_legal(obj, self.axioms.closure(explicit | {class_name})):
            return None
        return [("assert", obj, class_name)]

    def retract(self, room: int) -> Optional[List[tuple]]:
        obj = self.rng.choice(self.alive)
        explicit = sorted(self.state.object_classes(obj))
        if not explicit:
            return None
        class_name = self.rng.choice(explicit)
        remaining = self.axioms.closure(set(explicit) - {class_name})
        if not self.object_legal(obj, remaining):
            return None
        return [("retract", obj, class_name)]

    def set(self, room: int) -> Optional[List[tuple]]:
        attribute = self.rng.choice(self.axioms.typed)
        domain, _ = self.axioms.schema.attribute_typing(attribute)
        subjects = sorted(self.state.extent(domain))
        if not subjects:
            return None
        subject = self.rng.choice(subjects)
        _, single, restrictions = self.axioms.of(self.closure_of(subject))
        current = self.state.attribute_values(subject, attribute)
        if attribute in single and current:
            return None
        values = [
            value
            for value in self.candidates(attribute, restrictions.get(attribute, set()))
            if value not in current
        ]
        if not values:
            return None
        return [("set", subject, attribute, self.rng.choice(values))]

    def unset(self, room: int) -> Optional[List[tuple]]:
        subject = self.rng.choice(self.alive)
        pairs = sorted(
            (attribute, value)
            for attribute, owner, value in self.state.object_pairs(subject)
            if owner == subject
        )
        if not pairs:
            return None
        attribute, value = self.rng.choice(pairs)
        necessary, _, _ = self.axioms.of(self.closure_of(subject))
        if attribute in necessary and len(self.state.attribute_values(subject, attribute)) == 1:
            return None
        return [("unset", subject, attribute, value)]

    def remove(self, room: int) -> Optional[List[tuple]]:
        obj = self.rng.choice(self.alive)
        for attribute, subject, value in self.state.object_pairs(obj):
            if value != obj or subject == obj:
                continue
            necessary, _, _ = self.axioms.of(self.closure_of(subject))
            if attribute in necessary and self.state.attribute_values(
                subject, attribute
            ) == frozenset((obj,)):
                return None
        return [("remove", obj)]

    def apply(self, ops: List[tuple]) -> None:
        for op in ops:
            apply_update(self.state, op)
            if op[0] == "add":
                self.alive.append(op[1])
            elif op[0] == "remove":
                self.alive.remove(op[1])


def legal_epochs(
    schema, snapshot, epochs: int, size: int, seed: int
) -> List[Tuple[tuple, ...]]:
    """``epochs`` epochs of ``size`` updates, each leaving the state legal.

    ``snapshot`` is the starting state (itself legal); the updates are
    applied to a scratch copy as they are drawn, so later epochs see the
    effects of earlier ones -- apply them in order to a state loaded from
    the same snapshot.
    """
    state = DatabaseState.from_snapshot(snapshot)
    if state.integrity_violations():
        raise ValueError("the starting state violates its schema")
    proposer = _Proposer(schema, state, random.Random(seed))
    kinds = [kind for kind, _ in KINDS]
    weights = [weight for _, weight in KINDS]
    methods = {
        "add": proposer.add,
        "assert": proposer.assert_,
        "retract": proposer.retract,
        "set": proposer.set,
        "unset": proposer.unset,
        "remove": proposer.remove,
    }
    result: List[Tuple[tuple, ...]] = []
    for _ in range(epochs):
        epoch: List[tuple] = []
        for _ in range(ATTEMPTS * size):
            if len(epoch) >= size:
                break
            kind = proposer.rng.choices(kinds, weights)[0]
            ops = methods[kind](size - len(epoch))
            if ops is not None:
                proposer.apply(ops)
                epoch.extend(ops)
        result.append(tuple(epoch))
    violations = state.integrity_violations()
    if violations:
        raise AssertionError(f"generated epochs leave {len(violations)} violations")
    return result
