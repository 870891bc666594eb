"""Constraints, constraint systems and fact/goal pairs (Section 4.1).

The calculus works on syntactic entities called *constraints*::

    s : C      ("s is an instance of concept C")
    s R t      ("t is an R-filler of s")
    s p t      ("s and t are related through the path p")

where ``s`` and ``t`` are *individuals* -- constants of the query/view or
variables introduced by the rules.  A *constraint system* is a set of
constraints, and the rules operate on *pairs* ``F : G`` of constraint
systems, ``F`` being the **facts** and ``G`` the **goals**.

:class:`Pair` also tracks the two distinguished individuals of the
procedure: the subject of the original fact ``x : C`` and the subject ``o``
of the original goal ``x : D`` (which may be renamed by the substitution
rules D3 and S4).  Theorem 4.7 needs ``o`` for the final test
``o : D ∈ F_C``.

The pair is an **indexed constraint store**: besides the plain fact/goal
sets it maintains, incrementally on every mutation,

* membership constraints indexed by subject and by the top-level concept
  constructor (``And``, ``ExistsPath``, ...),
* attribute constraints (edges) indexed by ``(subject, attribute)`` and
  by filler,
* path constraints indexed by subject,
* a sorted view of facts and goals kept in insertion-sorted order with
  cached sort keys (so determinism never requires re-sorting or
  re-stringifying the whole system), and
* the set of variable names in use (so fresh-variable generation is O(1)).

The rule modules (:mod:`repro.calculus.rules`) and the agenda-driven
completion engine (:mod:`repro.calculus.engine`) probe these indexes instead
of scanning the whole system.  :meth:`Pair.fork` copies the facts and their
indexes into a new pair without goals, which is how a warm decision starts
from a completed facts-only pair without changing it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

from ..concepts.syntax import Attribute, Concept, Path

__all__ = [
    "Individual",
    "Variable",
    "Constant",
    "Constraint",
    "MembershipConstraint",
    "AttributeConstraint",
    "PathConstraint",
    "Substitution",
    "Pair",
    "constraint_sort_key",
]


# ---------------------------------------------------------------------------
# Individuals
# ---------------------------------------------------------------------------


class Individual:
    """Base class for the individuals (constants and variables) of the calculus."""

    __slots__ = ()

    @property
    def is_variable(self) -> bool:
        raise NotImplementedError

    def sort_key(self) -> Tuple:
        raise NotImplementedError


@dataclass(frozen=True, order=True)
class Variable(Individual):
    """A variable introduced by the rules (``x``, ``y`` in the paper)."""

    name: str

    @property
    def is_variable(self) -> bool:
        return True

    def sort_key(self) -> Tuple:
        return (1, self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant(Individual):
    """A constant of the query language (interpreted under the UNA)."""

    name: str

    @property
    def is_variable(self) -> bool:
        return False

    def sort_key(self) -> Tuple:
        return (0, self.name)

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


class Constraint:
    """Base class of the three constraint forms of the calculus."""

    __slots__ = ()

    def substitute(self, old: Individual, new: Individual) -> "Constraint":
        """Return this constraint with every occurrence of ``old`` replaced by ``new``."""
        raise NotImplementedError

    def individuals(self) -> Tuple[Individual, ...]:
        """The individuals mentioned by this constraint."""
        raise NotImplementedError

    def sort_key(self) -> Tuple:
        """The deterministic ordering key, computed once per (immutable) instance."""
        try:
            return self._sort_key  # type: ignore[attr-defined]
        except AttributeError:
            key = self._compute_sort_key()
            # Frozen dataclasses forbid normal attribute assignment; the
            # memo slot is invisible to ==/hash, so this stays value-safe.
            object.__setattr__(self, "_sort_key", key)
            return key

    def _compute_sort_key(self) -> Tuple:
        raise NotImplementedError


@dataclass(frozen=True)
class MembershipConstraint(Constraint):
    """The constraint ``s : C`` ("``s`` is an instance of ``C``")."""

    subject: Individual
    concept: Concept

    def substitute(self, old: Individual, new: Individual) -> "MembershipConstraint":
        if self.subject == old:
            return MembershipConstraint(new, self.concept)
        return self

    def individuals(self) -> Tuple[Individual, ...]:
        return (self.subject,)

    def _compute_sort_key(self) -> Tuple:
        return (0, self.subject.sort_key(), str(self.concept))

    def __str__(self) -> str:
        return f"{self.subject}: {self.concept}"


@dataclass(frozen=True)
class AttributeConstraint(Constraint):
    """The constraint ``s R t`` ("``t`` is an ``R``-filler of ``s``")."""

    subject: Individual
    attribute: Attribute
    filler: Individual

    def substitute(self, old: Individual, new: Individual) -> "AttributeConstraint":
        subject = new if self.subject == old else self.subject
        filler = new if self.filler == old else self.filler
        if subject is self.subject and filler is self.filler:
            return self
        return AttributeConstraint(subject, self.attribute, filler)

    def individuals(self) -> Tuple[Individual, ...]:
        return (self.subject, self.filler)

    def _compute_sort_key(self) -> Tuple:
        return (1, self.subject.sort_key(), str(self.attribute), self.filler.sort_key())

    def __str__(self) -> str:
        return f"{self.subject} {self.attribute} {self.filler}"


@dataclass(frozen=True)
class PathConstraint(Constraint):
    """The constraint ``s p t`` ("``s`` and ``t`` are related through path ``p``")."""

    subject: Individual
    path: Path
    filler: Individual

    def substitute(self, old: Individual, new: Individual) -> "PathConstraint":
        subject = new if self.subject == old else self.subject
        filler = new if self.filler == old else self.filler
        if subject is self.subject and filler is self.filler:
            return self
        return PathConstraint(subject, self.path, filler)

    def individuals(self) -> Tuple[Individual, ...]:
        return (self.subject, self.filler)

    def _compute_sort_key(self) -> Tuple:
        return (2, self.subject.sort_key(), str(self.path), self.filler.sort_key())

    def __str__(self) -> str:
        return f"{self.subject} {self.path} {self.filler}"


def constraint_sort_key(constraint: Constraint) -> Tuple:
    """The deterministic ordering key of a constraint (cached per instance)."""
    return constraint.sort_key()


Substitution = Tuple[Individual, Individual]

#: Shared empty bucket returned by index accessors for absent keys.
_EMPTY_BUCKET: FrozenSet = frozenset()


# ---------------------------------------------------------------------------
# Pairs of constraint systems
# ---------------------------------------------------------------------------


def _copy_buckets(buckets: Dict) -> Dict:
    return {key: set(bucket) for key, bucket in buckets.items()}


class _SystemIndex:
    """The index structures of one constraint system (facts or goals).

    Entries are only ever *added*; :meth:`Pair.apply_substitution` rebuilds
    the affected systems wholesale (substitutions are rare -- one per
    eliminated variable -- so the rebuild does not affect the asymptotics).
    """

    __slots__ = (
        "constraints",
        "sorted_entries",
        "memberships_by_subject",
        "memberships_by_ctor",
        "edges_by_subject_attr",
        "edges_by_filler",
        "paths_by_subject",
    )

    def __init__(self) -> None:
        self.constraints: Set[Constraint] = set()
        #: ``(sort_key, seq, constraint)`` triples in sorted order; the unique
        #: seq (the entry count at insertion) breaks sort-key ties so
        #: constraints themselves never compare.
        self.sorted_entries: List[Tuple[Tuple, int, Constraint]] = []
        self.memberships_by_subject: Dict[Individual, Set[MembershipConstraint]] = {}
        self.memberships_by_ctor: Dict[Type[Concept], Set[MembershipConstraint]] = {}
        self.edges_by_subject_attr: Dict[
            Tuple[Individual, Attribute], Set[AttributeConstraint]
        ] = {}
        self.edges_by_filler: Dict[Individual, Set[AttributeConstraint]] = {}
        self.paths_by_subject: Dict[Individual, Set[PathConstraint]] = {}

    def add(self, constraint: Constraint) -> None:
        self.constraints.add(constraint)
        entries = self.sorted_entries
        insort(entries, (constraint.sort_key(), len(entries), constraint))
        if isinstance(constraint, MembershipConstraint):
            self.memberships_by_subject.setdefault(constraint.subject, set()).add(constraint)
            self.memberships_by_ctor.setdefault(type(constraint.concept), set()).add(constraint)
        elif isinstance(constraint, AttributeConstraint):
            self.edges_by_subject_attr.setdefault(
                (constraint.subject, constraint.attribute), set()
            ).add(constraint)
            self.edges_by_filler.setdefault(constraint.filler, set()).add(constraint)
        elif isinstance(constraint, PathConstraint):
            self.paths_by_subject.setdefault(constraint.subject, set()).add(constraint)

    def rebuild(self, constraints: Iterable[Constraint]) -> None:
        self.__init__()
        for constraint in constraints:
            self.add(constraint)

    def copy(self) -> "_SystemIndex":
        """An independent copy: every set, list and bucket is a new container."""
        clone = _SystemIndex.__new__(_SystemIndex)
        clone.constraints = set(self.constraints)
        clone.sorted_entries = list(self.sorted_entries)
        clone.memberships_by_subject = _copy_buckets(self.memberships_by_subject)
        clone.memberships_by_ctor = _copy_buckets(self.memberships_by_ctor)
        clone.edges_by_subject_attr = _copy_buckets(self.edges_by_subject_attr)
        clone.edges_by_filler = _copy_buckets(self.edges_by_filler)
        clone.paths_by_subject = _copy_buckets(self.paths_by_subject)
        return clone

    def sorted(self) -> List[Constraint]:
        return [entry[2] for entry in self.sorted_entries]


class Pair:
    """A pair ``F : G`` of constraint systems (facts and goals).

    The object is mutable: the rules of :mod:`repro.calculus.rules` add
    constraints or apply substitutions through the methods below, and the
    engine (:mod:`repro.calculus.engine`) drives them to completion.  All
    secondary indexes (see the module docstring) are maintained incrementally
    by :meth:`add_facts`, :meth:`add_goals` and :meth:`apply_substitution`.
    """

    def __init__(
        self,
        facts: Iterable[Constraint] = (),
        goals: Iterable[Constraint] = (),
        root_fact_subject: Optional[Individual] = None,
        root_goal_subject: Optional[Individual] = None,
    ) -> None:
        self._fact_index = _SystemIndex()
        self._goal_index = _SystemIndex()
        self.root_fact_subject = root_fact_subject
        self.root_goal_subject = root_goal_subject
        self._next_fresh = 1
        #: Variable names in use anywhere in the pair.  The set is only ever
        #: grown (a stale name merely skips a candidate), which keeps
        #: :meth:`fresh_variable` O(1) instead of a full rescan.
        self._used_variable_names: Set[str] = set()
        for constraint in facts:
            self._add_fact(constraint)
        for constraint in goals:
            self._add_goal(constraint)

    # -- construction --------------------------------------------------------

    @classmethod
    def initial(cls, query: Concept, view: Concept, subject_name: str = "x") -> "Pair":
        """The starting pair ``{x : C} : {x : D}`` of the decision procedure."""
        subject = Variable(subject_name)
        pair = cls(
            facts=[MembershipConstraint(subject, query)],
            goals=[MembershipConstraint(subject, view)],
            root_fact_subject=subject,
            root_goal_subject=subject,
        )
        return pair

    def fork(self) -> "Pair":
        """A new pair holding a copy of this pair's facts and no goals.

        The decision procedure starts a warm decision from the fork of a
        completed facts-only pair (see
        :func:`repro.calculus.subsume.decide_subsumption`).  The fork shares
        no mutable structure with this pair -- the fact set, its sorted
        entries and every index bucket are new containers -- so completing
        the fork never changes the original.  The root subjects, the used
        variable names and the fresh-variable counter carry over, so the
        fork never reuses a variable name of the original.
        """
        clone = Pair.__new__(Pair)
        clone._fact_index = self._fact_index.copy()
        clone._goal_index = _SystemIndex()
        clone.root_fact_subject = self.root_fact_subject
        clone.root_goal_subject = self.root_goal_subject
        clone._next_fresh = self._next_fresh
        clone._used_variable_names = set(self._used_variable_names)
        return clone

    # -- basic views ----------------------------------------------------------

    @property
    def facts(self) -> Set[Constraint]:
        """The fact constraint system ``F`` (do not mutate directly)."""
        return self._fact_index.constraints

    @property
    def goals(self) -> Set[Constraint]:
        """The goal constraint system ``G`` (do not mutate directly)."""
        return self._goal_index.constraints

    # -- fresh variables ------------------------------------------------------

    def fresh_variable(self) -> Variable:
        """A variable not occurring anywhere in the pair (O(1) amortized)."""
        while True:
            name = f"y{self._next_fresh}"
            self._next_fresh += 1
            if name not in self._used_variable_names:
                return Variable(name)

    def _note_individuals(self, constraint: Constraint) -> None:
        for individual in constraint.individuals():
            if individual.is_variable:
                self._used_variable_names.add(individual.name)

    # -- queries ---------------------------------------------------------------

    def constraints(self) -> Iterator[Constraint]:
        """Iterate over facts then goals."""
        yield from self._fact_index.constraints
        yield from self._goal_index.constraints

    def individuals(self) -> FrozenSet[Individual]:
        """Every individual occurring in the pair."""
        found: Set[Individual] = set()
        for constraint in self.constraints():
            found.update(constraint.individuals())
        return frozenset(found)

    def fact_individuals(self) -> FrozenSet[Individual]:
        """Every individual occurring in the facts (Proposition 4.8 counts these)."""
        found: Set[Individual] = set()
        for constraint in self._fact_index.constraints:
            found.update(constraint.individuals())
        return frozenset(found)

    def constants(self) -> FrozenSet[Constant]:
        """Every constant occurring in the pair."""
        return frozenset(
            individual for individual in self.individuals() if not individual.is_variable
        )

    def attribute_fillers(self, subject: Individual, attribute: Attribute) -> FrozenSet[Individual]:
        """The individuals ``t`` such that ``subject attribute t`` is a fact."""
        bucket = self._fact_index.edges_by_subject_attr.get((subject, attribute))
        if not bucket:
            return frozenset()
        return frozenset(constraint.filler for constraint in bucket)

    def sorted_facts(self) -> List[Constraint]:
        """The facts in a deterministic order (used by the rules for determinism)."""
        return self._fact_index.sorted()

    def sorted_goals(self) -> List[Constraint]:
        """The goals in a deterministic order."""
        return self._goal_index.sorted()

    # -- index accessors (used by the incremental rules and clash detection) ---
    #
    # These return the live index buckets (empty frozenset when absent) to
    # keep the agenda's delta routing allocation-free; callers must treat
    # them as read-only and must not mutate the pair while iterating one.

    def fact_memberships_at(self, subject: Individual) -> AbstractSet[MembershipConstraint]:
        """The membership facts ``subject : C`` (read-only view)."""
        return self._fact_index.memberships_by_subject.get(subject, _EMPTY_BUCKET)

    def fact_memberships_with_ctor(
        self, ctor: Type[Concept]
    ) -> AbstractSet[MembershipConstraint]:
        """The membership facts whose concept has the given top-level constructor."""
        return self._fact_index.memberships_by_ctor.get(ctor, _EMPTY_BUCKET)

    def fact_edges_into(self, filler: Individual) -> AbstractSet[AttributeConstraint]:
        """The attribute facts ``s R filler`` (reverse-edge lookup, read-only view)."""
        return self._fact_index.edges_by_filler.get(filler, _EMPTY_BUCKET)

    def fact_edge_constraints(
        self, subject: Individual, attribute: Attribute
    ) -> AbstractSet[AttributeConstraint]:
        """The attribute facts ``subject attribute t`` as full constraints."""
        return self._fact_index.edges_by_subject_attr.get((subject, attribute), _EMPTY_BUCKET)

    def has_path_fact(self, subject: Individual, path: Path) -> bool:
        """``True`` iff some fact ``subject path t`` exists (D4/C3 witness test)."""
        bucket = self._fact_index.paths_by_subject.get(subject)
        if not bucket:
            return False
        return any(constraint.path == path for constraint in bucket)

    def path_facts_with(self, subject: Individual, path: Path) -> List[PathConstraint]:
        """The facts ``subject path t`` in deterministic order (C5 continuation)."""
        bucket = self._fact_index.paths_by_subject.get(subject)
        if not bucket:
            return []
        return sorted(
            (constraint for constraint in bucket if constraint.path == path),
            key=constraint_sort_key,
        )

    def goal_memberships_at(self, subject: Individual) -> AbstractSet[MembershipConstraint]:
        """The membership goals ``subject : C`` (read-only view)."""
        return self._goal_index.memberships_by_subject.get(subject, _EMPTY_BUCKET)

    # -- mutation ----------------------------------------------------------------

    def _add_fact(self, constraint: Constraint) -> None:
        self._fact_index.add(constraint)
        self._note_individuals(constraint)

    def _add_goal(self, constraint: Constraint) -> None:
        self._goal_index.add(constraint)
        self._note_individuals(constraint)

    def add_facts(self, constraints: Iterable[Constraint]) -> Tuple[Constraint, ...]:
        """Add fact constraints; return the ones that were actually new."""
        added: List[Constraint] = []
        existing = self._fact_index.constraints
        for constraint in constraints:
            if constraint not in existing:
                self._add_fact(constraint)
                added.append(constraint)
        return tuple(added)

    def add_goals(self, constraints: Iterable[Constraint]) -> Tuple[Constraint, ...]:
        """Add goal constraints; return the ones that were actually new."""
        added: List[Constraint] = []
        existing = self._goal_index.constraints
        for constraint in constraints:
            if constraint not in existing:
                self._add_goal(constraint)
                added.append(constraint)
        return tuple(added)

    def apply_substitution(self, old: Individual, new: Individual) -> bool:
        """Replace ``old`` by ``new`` throughout the pair; return ``True`` if it changed."""
        if old == new:
            return False
        new_facts = {
            constraint.substitute(old, new) for constraint in self._fact_index.constraints
        }
        new_goals = {
            constraint.substitute(old, new) for constraint in self._goal_index.constraints
        }
        changed = (
            new_facts != self._fact_index.constraints
            or new_goals != self._goal_index.constraints
        )
        if changed:
            self._fact_index.rebuild(new_facts)
            self._goal_index.rebuild(new_goals)
            for constraint in self.constraints():
                self._note_individuals(constraint)
            if new.is_variable:
                self._used_variable_names.add(new.name)  # type: ignore[union-attr]
        if self.root_fact_subject == old:
            self.root_fact_subject = new
            changed = True
        if self.root_goal_subject == old:
            self.root_goal_subject = new
            changed = True
        return changed

    # -- presentation --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Pair(|F|={len(self.facts)}, |G|={len(self.goals)})"

    def pretty(self) -> str:
        """A human-readable rendering of the pair (used by the trace module)."""
        fact_lines = "\n".join(f"  {constraint}" for constraint in self.sorted_facts())
        goal_lines = "\n".join(f"  {constraint}" for constraint in self.sorted_goals())
        return f"Facts:\n{fact_lines}\nGoals:\n{goal_lines}"
