"""A classified lattice (subsumption DAG) over materialized views.

``SemanticQueryOptimizer.subsuming_views`` originally scanned the whole
catalog and ran one subsumption check per surviving view, so the cost of
*every* query grew linearly with the catalog.  This module organizes the
views themselves into the transitive reduction of their Σ-subsumption
order -- the classic TBox-classification structure -- so that matching can
prune whole subtrees:

* **Nodes** group Σ-equivalent views (one node per equivalence class); an
  edge ``parent → child`` means ``child.concept ⊑_Σ parent.concept`` with no
  node strictly in between (covering relation).
* **Insertion** is the standard two-phase traversal: find the most specific
  subsumers (the parents), then the most general subsumees below them (the
  children), splice the node in and drop the parent→child edges that became
  transitive.  A view equivalent to an existing node just joins that node.
* **Matching** (:meth:`ViewLattice.subsumers`) walks top-down from the
  roots.  Soundness of pruning: if ``Q ⋢ V`` then ``Q ⋢ V'`` for every
  descendant ``V' ⊑ V`` (otherwise ``Q ⊑ V' ⊑ V``).  The answer set is
  therefore upward closed, and a node needs a subsumption check only when
  *all* of its parents subsume the query -- the traversal touches exactly
  the answer set plus its failing frontier, independent of catalog size.
* **Removal** (:meth:`ViewLattice.remove`) splices a node out and re-links
  its parents to its children unless another path already connects them,
  preserving the transitive reduction.
* **Told seeding** (:meth:`ViewLattice.seed_told`): normalized concepts are
  canonical conjunctions, so ``conjunct_ids(N) ⊆ conjunct_ids(C)`` proves
  ``C ⊑_Σ N`` for every schema, and every ancestor of such a node subsumes
  ``C`` too.  The lattice keeps one conjunct-id posting index over its
  nodes, current across insertions and splice-outs, and every match walk
  records these entailed decisions through its checker before walking.

All subsumption questions are delegated to a
:class:`~repro.core.checker.SubsumptionChecker` supplied by the caller (or a
batch worker's overlay over one), so the lattice automatically benefits
from the checker's signature filter, interned-id memo tables, the shared
decision cache and its remote tier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..concepts.intern import concept_id
from ..concepts.syntax import Concept
from ..core.checker import conjunct_ids

__all__ = ["LatticeMatchStats", "LatticeNode", "ViewLattice", "seed_against_lattice"]


@dataclass
class LatticeMatchStats:
    """Bookkeeping of one :meth:`ViewLattice.subsumers` traversal.

    ``checks`` and ``signature_skips`` count *nodes* consulted (one check
    covers every view of an equivalence class); ``pruned_views`` counts the
    views that were never examined at all because an ancestor already failed.
    """

    checks: int = 0
    signature_skips: int = 0
    nodes_visited: int = 0
    pruned_views: int = 0


class LatticeNode:
    """One equivalence class of views: a concept plus the views that share it."""

    __slots__ = ("concept", "views", "parents", "children")

    def __init__(self, concept: Concept) -> None:
        self.concept = concept
        self.views: List[object] = []
        self.parents: Set["LatticeNode"] = set()
        self.children: Set["LatticeNode"] = set()

    def __repr__(self) -> str:
        names = ",".join(getattr(view, "name", "?") for view in self.views)
        return f"LatticeNode([{names}])"


class ViewLattice:
    """The incremental, transitive-reduced subsumption DAG over views.

    The lattice stores whatever objects expose ``.name`` and ``.concept``
    (in practice :class:`~repro.database.views.MaterializedView`); concepts
    must already be normalized (they are, by ``MaterializedView``'s
    constructor).
    """

    def __init__(self) -> None:
        self._node_of: Dict[str, LatticeNode] = {}
        self._roots: Set[LatticeNode] = set()
        #: The told-seed index: each node's ``(interned id, conjunct ids)``,
        #: and the nodes holding each conjunct id.  Kept current by
        #: :meth:`insert` and :meth:`remove`; a node's concept never changes.
        self._told_keys: Dict[LatticeNode, Tuple[int, FrozenSet[int]]] = {}
        self._postings: Dict[int, Set[LatticeNode]] = {}

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._node_of)

    @property
    def node_count(self) -> int:
        """Number of equivalence classes currently in the lattice."""
        return len(set(self._node_of.values()))

    @property
    def roots(self) -> Tuple[LatticeNode, ...]:
        """The maximal nodes (no registered view subsumes them)."""
        return tuple(self._roots)

    def node_of(self, name: str) -> Optional[LatticeNode]:
        """The node holding the view of that name, if registered."""
        return self._node_of.get(name)

    def parents_of(self, name: str) -> Set[str]:
        """Names of the views in the direct-subsumer nodes of ``name``'s node."""
        node = self._node_of[name]
        return {view.name for parent in node.parents for view in parent.views}

    def children_of(self, name: str) -> Set[str]:
        """Names of the views in the direct-subsumee nodes of ``name``'s node."""
        node = self._node_of[name]
        return {view.name for child in node.children for view in child.views}

    def nodes(self) -> List[LatticeNode]:
        """The unique nodes in deterministic (first-registration) order."""
        seen: Set[int] = set()
        ordered: List[LatticeNode] = []
        for node in self._node_of.values():
            if id(node) not in seen:
                seen.add(id(node))
                ordered.append(node)
        return ordered

    def _nodes(self) -> Set[LatticeNode]:
        return set(self._node_of.values())

    def ancestor_closure(self, nodes) -> Dict[int, LatticeNode]:
        """The given nodes plus all of their ancestors, keyed by ``id()``.

        The maintenance engine flushes a delta batch by walking exactly this
        sub-DAG in topological order: the closure is parent-closed by
        construction, so every in-degree computed inside it is the node's
        true in-degree and Kahn's algorithm needs no special cases.
        """
        closure: Dict[int, LatticeNode] = {}
        frontier = [node for node in nodes if node is not None]
        while frontier:
            node = frontier.pop()
            if id(node) in closure:
                continue
            closure[id(node)] = node
            frontier.extend(node.parents)
        return closure

    # -- insertion -----------------------------------------------------------

    def insert(self, view, checker) -> None:
        """Classify ``view`` into the DAG (two-phase most-specific-subsumer search)."""
        if view.name in self._node_of:
            raise ValueError(f"view {view.name!r} is already classified")
        concept = view.concept

        subsumers = self._find_subsumers(concept, checker)
        parents = self._most_specific(subsumers)

        # A parent that is itself subsumed by the new concept is equivalent
        # (mutual subsumption): the view joins the existing node.  At most
        # one node per equivalence class exists, so the first hit suffices.
        for parent in parents:
            if checker.subsumes(parent.concept, concept):
                parent.views.append(view)
                self._node_of[view.name] = parent
                return

        children = self._find_subsumees(concept, checker, parents)

        node = LatticeNode(concept)
        node.views.append(view)
        node.parents = set(parents)
        node.children = set(children)
        for parent in parents:
            parent.children.add(node)
        for child in children:
            child.parents.add(node)
            self._roots.discard(child)
        # Edges parent → child that now route through the new node are
        # transitive; drop them to keep the reduction.
        for parent in parents:
            for child in children:
                if child in parent.children:
                    parent.children.discard(child)
                    child.parents.discard(parent)
        if not node.parents:
            self._roots.add(node)
        self._node_of[view.name] = node
        told_key = (concept_id(concept), conjunct_ids(concept))
        self._told_keys[node] = told_key
        for conjunct in told_key[1]:
            self._postings.setdefault(conjunct, set()).add(node)

    def classification_probe(self, concept: Concept, checker) -> None:
        """Run the two insertion traversals for ``concept`` without mutating.

        Executes exactly the subsumption questions :meth:`insert` would ask
        against the *current* (frozen) DAG -- the most-specific-subsumer
        search, the equivalence probes and the most-general-subsumee search
        -- but splices nothing in.  The point is cache warming: the batched
        classifier fans these probes over a worker pool against a frozen
        lattice, merges the workers' decision deltas, and then replays the
        plain sequential insertions, which find every frozen-DAG decision
        already answered.
        """
        subsumers = self._find_subsumers(concept, checker)
        parents = self._most_specific(subsumers)
        for parent in parents:
            if checker.subsumes(parent.concept, concept):
                return
        self._find_subsumees(concept, checker, parents)

    def _find_subsumers(self, concept: Concept, checker) -> Set[LatticeNode]:
        """All nodes ``N`` with ``concept ⊑ N.concept`` (pruned top-down search).

        If ``concept ⋢ N`` then ``concept ⋢ M`` for every descendant ``M`` of
        ``N``, so children of failing nodes are never visited (unless they
        are reachable through some subsuming parent).
        """
        subsumers: Set[LatticeNode] = set()
        seen: Set[LatticeNode] = set(self._roots)
        frontier = deque(self._roots)
        while frontier:
            node = frontier.popleft()
            if checker.subsumes(concept, node.concept):
                subsumers.add(node)
                for child in node.children:
                    if child not in seen:
                        seen.add(child)
                        frontier.append(child)
        return subsumers

    @staticmethod
    def _most_specific(subsumers: Set[LatticeNode]) -> List[LatticeNode]:
        """The minimal elements of an upward-closed subsumer set.

        Because the set is upward closed, "no child in the set" is equivalent
        to "no strict descendant in the set".
        """
        return [
            node
            for node in subsumers
            if not any(child in subsumers for child in node.children)
        ]

    def _find_subsumees(
        self, concept: Concept, checker, parents: List[LatticeNode]
    ) -> List[LatticeNode]:
        """The most general nodes ``M`` with ``M.concept ⊑ concept``.

        Candidates live strictly below every parent (a subsumee is below the
        new node, which sits below all parents), so the search starts at the
        parents' children -- or at the roots when the new node has no parent.
        Once a node is found to be a subsumee its descendants are skipped
        (they are subsumees too, but not most general); a failing node's
        children must still be visited, since ``M ⋢ concept`` says nothing
        about nodes below ``M``.
        """
        start: Set[LatticeNode] = set()
        if parents:
            for parent in parents:
                start.update(parent.children)
        else:
            start.update(self._roots)
        found: Set[LatticeNode] = set()
        seen: Set[LatticeNode] = set(start)
        frontier = deque(start)
        while frontier:
            node = frontier.popleft()
            if checker.subsumes(node.concept, concept):
                found.add(node)
                continue
            for child in node.children:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        # Drop candidates below another candidate (reachable through it).
        return [
            node
            for node in found
            if not self._reachable_from_any(found - {node}, node)
        ]

    def _reachable_from_any(self, sources: Set[LatticeNode], target: LatticeNode) -> bool:
        frontier = deque(sources)
        seen = set(sources)
        while frontier:
            node = frontier.popleft()
            if node is target:
                return True
            for child in node.children:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return False

    # -- removal -------------------------------------------------------------

    def remove(self, name: str) -> None:
        """Remove a view; splice its node out when the equivalence class empties.

        Spliced-out nodes re-link each (parent, child) pair unless another
        path still connects them, so the DAG remains the transitive
        reduction of the remaining views' subsumption order.
        """
        node = self._node_of.pop(name, None)
        if node is None:
            return
        node.views = [view for view in node.views if view.name != name]
        if node.views:
            return
        for conjunct in self._told_keys.pop(node)[1]:
            bucket = self._postings[conjunct]
            bucket.discard(node)
            if not bucket:
                del self._postings[conjunct]
        parents = list(node.parents)
        children = list(node.children)
        for parent in parents:
            parent.children.discard(node)
        for child in children:
            child.parents.discard(node)
        self._roots.discard(node)
        for parent in parents:
            for child in children:
                if not self._reachable_from_any({parent}, child):
                    parent.children.add(child)
                    child.parents.add(parent)
        for child in children:
            if not child.parents:
                self._roots.add(child)

    # -- told seeding ----------------------------------------------------------

    def seed_told(self, concept: Concept, checker) -> None:
        """Record every told subsumption between ``concept`` and the nodes.

        ``concept`` must be normalized.  ``checker.seed(query_id, view_id,
        True)`` receives ``concept ⊑ N`` for each node ``N`` whose conjuncts
        the concept contains, and for each ancestor of such a node;
        ``N ⊑ concept`` for each node containing the concept's conjuncts
        (these answer the equivalence probes and subsumee searches of
        insertion).  One tally over the postings of the concept's conjuncts
        decides both inclusions per node -- a node's count equals its own
        size, resp. the concept's -- and nodes sharing no conjunct are never
        touched.  :func:`seed_against_lattice` is the linear specification.
        """
        query_id = concept_id(concept)
        query_conjuncts = conjunct_ids(concept)
        shared: Dict[LatticeNode, int] = {}
        for conjunct in query_conjuncts:
            for node in self._postings.get(conjunct, ()):
                shared[node] = shared.get(node, 0) + 1
        told: List[LatticeNode] = []
        for node, count in shared.items():
            node_id, node_conjuncts = self._told_keys[node]
            if count == len(node_conjuncts):
                checker.seed(query_id, node_id, True)
                told.append(node)
            if count == len(query_conjuncts):
                checker.seed(node_id, query_id, True)
        _seed_ancestors(checker, query_id, told)

    # -- matching ------------------------------------------------------------

    def subsumers(
        self, concept: Concept, checker, stats: Optional[LatticeMatchStats] = None
    ) -> List[object]:
        """All registered views whose concept subsumes the normalized ``concept``.

        Seeds the told subsumptions first (:meth:`seed_told`), then walks
        the frontier top-down: a node is evaluated exactly when its last
        parent has been found to subsume the query (roots are always
        evaluated); everything below a failing node is pruned without so
        much as a signature test.  The checker's ``quick_reject`` signature
        filter is consulted before each full check, mirroring the flat
        scan.  Seeding answers checks, it never skips one, so ``stats``
        counts the same checks with or without it.
        """
        self.seed_told(concept, checker)
        stats = stats if stats is not None else LatticeMatchStats()
        total_views = len(self._node_of)
        matches: List[object] = []
        examined_views = 0
        satisfied_parents: Dict[LatticeNode, int] = {}
        frontier = deque(self._roots)
        while frontier:
            node = frontier.popleft()
            stats.nodes_visited += 1
            examined_views += len(node.views)
            if checker.quick_reject(concept, node.concept):
                stats.signature_skips += 1
                continue
            stats.checks += 1
            if not checker.subsumes(concept, node.concept):
                continue
            matches.extend(node.views)
            for child in node.children:
                count = satisfied_parents.get(child, 0) + 1
                satisfied_parents[child] = count
                if count == len(child.parents):
                    frontier.append(child)
        stats.pruned_views += total_views - examined_views
        return matches

    # -- invariants (used by the tests) ---------------------------------------

    def check_invariants(self, checker) -> None:
        """Assert structural soundness of the DAG (edges, reduction, roots, index)."""
        nodes = self._nodes()
        assert self._roots == {node for node in nodes if not node.parents}
        assert set(self._told_keys) == nodes
        assert all(bucket and bucket <= nodes for bucket in self._postings.values())
        for node in nodes:
            assert node.views, "empty equivalence class left in the lattice"
            for child in node.children:
                assert node in child.parents
                assert checker.subsumes(child.concept, node.concept)
                # Transitive reduction: no alternative path parent ⇝ child.
                others = set(node.children) - {child}
                assert not self._reachable_from_any(others, child)
            for parent in node.parents:
                assert node in parent.children


def _seed_ancestors(checker, query_id: int, told: List[LatticeNode]) -> None:
    """Close told subsumers upwards: ``C ⊑ N`` and ``N ⊑ P`` give ``C ⊑ P``."""
    seen = set(told)
    frontier = list(told)
    while frontier:
        node = frontier.pop()
        for parent in node.parents:
            if parent not in seen:
                seen.add(parent)
                checker.seed(query_id, concept_id(parent.concept), True)
                frontier.append(parent)


def seed_against_lattice(checker, lattice: ViewLattice, concept: Concept) -> None:
    """The linear specification of :meth:`ViewLattice.seed_told`.

    Compares the normalized ``concept``'s conjunct ids with every node's
    instead of reading the posting index; property-tested to record the
    identical seeds after every insertion and splice-out.
    """
    query_id = concept_id(concept)
    query_conjuncts = conjunct_ids(concept)
    told: List[LatticeNode] = []
    for node in lattice.nodes():
        node_id, node_conjuncts = concept_id(node.concept), conjunct_ids(node.concept)
        if node_conjuncts <= query_conjuncts:
            checker.seed(query_id, node_id, True)
            told.append(node)
        if query_conjuncts <= node_conjuncts:
            checker.seed(node_id, query_id, True)
    _seed_ancestors(checker, query_id, told)
