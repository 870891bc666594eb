"""Oracles for the delta-scoped maintenance walk.

The maintenance engine re-evaluates a view only on its *affected set* and
only through the candidate-scoped evaluator, so both functions are checked
against the whole-domain set semantics of
:func:`repro.semantics.evaluate.concept_extension`:

* :func:`~repro.database.maintenance.members` equals ``candidates ∩
  objects ∩ C^I`` on live states and pinned snapshots, for candidates in
  and outside the domain;
* :func:`~repro.database.maintenance.affected_objects` contains every
  object whose membership differs between the state before and after a
  random epoch (except deleted ones, which the flush discards), and
  patching the old extent on it gives the new one;
* the synchronous lattice and flat flushes and the async tier maintain
  fuzzed catalogs -- singletons, nested path fillers and two-sided
  agreements included, with conjunctive specializations so the lattice
  walk has edges to prune with -- exactly like a from-scratch refresh.

Concepts, schemas and update streams come from ``tests/strategies.py``;
the states are built on the concept vocabulary (:data:`STATE_OBJECTS`),
so fuzzed concepts bite on them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts import builders as b
from repro.concepts.schema import Schema
from repro.database.maintenance import (
    AsyncMaintainer,
    EpochChanges,
    MaintenanceQueue,
    affected_objects,
    members,
)
from repro.database.query_eval import QueryEvaluator
from repro.database.store import DatabaseState
from repro.semantics.evaluate import concept_extension

from ..strategies import (
    ATTRIBUTE_NAMES,
    CONCEPT_NAMES,
    STATE_OBJECTS,
    agreements,
    apply_mutation,
    atomic_concepts,
    concepts,
    fuzzed_catalog,
    layered_concepts,
    mutations,
    schemas,
)

EVALUATOR = QueryEvaluator(None)

state_ops = st.lists(mutations(STATE_OBJECTS, CONCEPT_NAMES, ATTRIBUTE_NAMES), max_size=20)
epochs = mutations(STATE_OBJECTS, CONCEPT_NAMES, ATTRIBUTE_NAMES, max_batch=8)
view_concepts = concepts(max_depth=4)
#: The general fuzz draws two-sided agreements rarely; this draws only them,
#: with atomic fillers over a three-object pool, so both paths often meet.
two_sided = agreements(filler=atomic_concepts())
dense_ops = st.lists(mutations(STATE_OBJECTS[:3], CONCEPT_NAMES, ATTRIBUTE_NAMES), max_size=30)
dense_epochs = mutations(STATE_OBJECTS[:3], CONCEPT_NAMES, ATTRIBUTE_NAMES)
catalogs = layered_concepts(view_concepts)
#: Candidates may name objects that were never stored (or were removed).
candidate_sets = st.sets(st.sampled_from(STATE_OBJECTS + ["ghost"]))


def build_state(schema, ops) -> DatabaseState:
    state = DatabaseState(schema)
    for operation in ops:
        apply_mutation(state, operation)
    return state


def extension(concept, source):
    """``objects ∩ C^I`` by whole-domain evaluation (the spec)."""
    return source.objects & concept_extension(concept, source.to_interpretation())


class _Recorder:
    """A mutation-log listener collecting the deltas of the records it receives."""

    def __init__(self):
        self.deltas = []

    def on_commit(self, record):
        self.deltas.extend(record.deltas)


def run_epoch(state, epoch) -> EpochChanges:
    """Apply one epoch and return its recorded changes."""
    recorder = _Recorder()
    state.subscribe(recorder)
    try:
        apply_mutation(state, epoch)
    finally:
        state.unsubscribe(recorder)
    changes = EpochChanges()
    for delta in recorder.deltas:
        changes.record(delta, state.schema.all_superclasses)
    return changes


class TestMembers:
    @settings(deadline=None)
    @given(
        schema=schemas(),
        ops=state_ops,
        concept=view_concepts,
        candidates=candidate_sets,
    )
    def test_members_equals_the_extension_on_the_candidates(self, schema, ops, concept, candidates):
        state = build_state(schema, ops)
        for source in (state, state.snapshot()):
            expected = frozenset(candidates) & extension(concept, source)
            assert members(concept, source, candidates) == expected

    def test_inverted_paths_and_two_sided_agreements(self):
        state = DatabaseState()
        state.add_object("a", "A")
        state.set_attribute("a", "p", "o2")
        state.set_attribute("o3", "p", "o2")
        state.set_attribute("o3", "q", "o2")
        # a's p-filler has a p-predecessor (o3) that is not a.
        back = b.exists("p", b.inv("p"))
        agree = b.agreement(["p"], ["q"])
        for source in (state, state.snapshot()):
            assert members(back, source, ["a", "o3", "ghost"]) == {"a", "o3"}
            assert members(agree, source, STATE_OBJECTS) == {"o3"}


class TestAffectedObjects:
    @settings(deadline=None)
    @given(
        schema=schemas(),
        ops=state_ops,
        epoch=epochs,
        concept=view_concepts,
    )
    def test_every_changed_membership_is_affected(self, schema, ops, epoch, concept):
        state = build_state(schema, ops)
        before = extension(concept, state.snapshot())
        changes = run_epoch(state, epoch)
        after = extension(concept, state)
        changed = before ^ after
        assert changed - state.objects <= changes.removed
        for source in (state, state.snapshot()):
            affected = affected_objects(concept, source, changes)
            assert changed & state.objects <= affected
            # The maintenance patch rebuilds the new extent from the old.
            patched = (before - changes.removed - affected) | members(concept, source, affected)
            assert patched == after

    @settings(deadline=None)
    @given(schema=schemas(), ops=dense_ops, epoch=dense_epochs, concept=two_sided)
    def test_two_sided_agreements_are_walked_on_both_paths(self, schema, ops, epoch, concept):
        state = build_state(schema, ops)
        before = extension(concept, state.snapshot())
        changes = run_epoch(state, epoch)
        changed = (before ^ extension(concept, state)) & state.objects
        assert changed <= affected_objects(concept, state, changes)

    def test_a_change_on_the_right_path_of_an_agreement_is_seen(self):
        state = DatabaseState()
        state.set_attribute("a", "p", "o2")
        concept = b.agreement(["p"], ["q"])
        changes = run_epoch(state, ("set", "a", "q", "o2"))
        assert members(concept, state, ["a"]) == {"a"}
        assert "a" in affected_objects(concept, state, changes)

    def test_the_walk_follows_the_view_paths_backwards(self):
        state = DatabaseState()
        for name in ("a", "b", "o2", "o3", "o4"):
            state.add_object(name)
        state.set_attribute("a", "p", "o2")
        state.set_attribute("o2", "q", "o3")
        state.set_attribute("o4", "q", "b")
        concept = b.exists(("p", b.TOP), ("q", b.concept("A")))
        changes = run_epoch(state, ("assert", "o3", "A"))
        # o3's change reaches a through o2, back along q then p; o3 itself
        # has no p-edge, and o4 is linked, but by no p-q route.
        assert affected_objects(concept, state, changes) == {"a"}


class TestFuzzedCatalogMaintenance:
    @settings(deadline=None, max_examples=40)
    @given(
        schema=schemas(),
        views=catalogs,
        ops=state_ops,
        updates=st.lists(epochs, min_size=1, max_size=10),
        lattice=st.booleans(),
    )
    def test_sync_flush_matches_scratch_refresh(self, schema, views, ops, updates, lattice):
        state = build_state(schema, ops)
        catalog = fuzzed_catalog(schema, views, lattice=lattice)
        catalog.refresh_all(state)
        queue = MaintenanceQueue(state, catalog)
        try:
            for epoch in updates:
                apply_mutation(state, epoch)
                for view in catalog:
                    assert view.stored_extent == EVALUATOR.concept_answers(
                        view.concept, state
                    ), view.name
        finally:
            queue.close()

    @settings(deadline=None, max_examples=20)
    @given(
        schema=schemas(),
        views=catalogs,
        ops=state_ops,
        updates=st.lists(epochs, min_size=1, max_size=10),
        window=st.integers(min_value=1, max_value=4),
    )
    def test_async_drain_matches_scratch_refresh(self, schema, views, ops, updates, window):
        state = build_state(schema, ops)
        catalog = fuzzed_catalog(schema, views)
        catalog.refresh_all(state)
        maintainer = AsyncMaintainer(state, catalog, window=window)
        try:
            for epoch in updates:
                apply_mutation(state, epoch)
            maintainer.drain()
        finally:
            maintainer.close()
        for view in catalog:
            assert view.stored_extent == EVALUATOR.concept_answers(view.concept, state)

    def test_a_parent_holding_an_affected_object_does_not_prune(self):
        state = DatabaseState()
        state.add_object("a", "A")
        views = [b.concept("A"), b.conjoin(b.concept("A"), b.concept("B"))]
        catalog = fuzzed_catalog(Schema.empty(), views)
        assert catalog.lattice.parents_of("v1") == {"v0"}
        catalog.refresh_all(state)
        queue = MaintenanceQueue(state, catalog)
        try:
            state.assert_membership("a", "B")
            assert catalog.get("v1").stored_extent == {"a"}
            state.retract_membership("a", "A")
            assert catalog.get("v1").stored_extent == frozenset()
        finally:
            queue.close()

    def test_pruning_never_uses_a_schema_only_edge(self):
        # Under A ⊑ ∃p the lattice puts view A below ∃p, but a live state
        # may hold an A without a p-filler: ∃p's extent then rules nothing
        # out about A, and the walk must evaluate A rather than prune it.
        schema = Schema([b.necessary("A", "p")])
        state = DatabaseState(schema)
        state.add_object("a")
        catalog = fuzzed_catalog(schema, [b.exists("p"), b.concept("A")])
        assert catalog.lattice.parents_of("v1") == {"v0"}
        catalog.refresh_all(state)
        queue = MaintenanceQueue(state, catalog)
        try:
            state.assert_membership("a", "A")
        finally:
            queue.close()
        assert catalog.get("v1").stored_extent == {"a"}
        assert catalog.get("v0").stored_extent == frozenset()
