"""Tests for the delta-driven incremental view-maintenance engine.

The centerpiece is the equivalence oracle: *any* interleaving of object
additions/removals, membership asserts/retracts, attribute sets/removals
and batch epochs, flushed through the :class:`MaintenanceQueue`, must leave
every view extent identical to re-materializing the view from scratch over
the final state.  The remaining tests pin the versioned-store mechanics
(generation counter, memo invalidation, cached interpretation export,
coalescing) and the engine's pruning/relevance counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts import builders as b
from repro.concepts.schema import Schema
from repro.concepts.syntax import Singleton, Top
from repro.core.checker import SubsumptionChecker
from repro.database.maintenance import (
    DOMAIN_KEY,
    MaintenanceQueue,
    RelevanceIndex,
    relevance_keys,
)
from repro.database.query_eval import QueryEvaluator
from repro.database.store import AttributeSet, DatabaseState, MembershipAsserted
from repro.database.views import ViewCatalog
from repro.dl.parser import parse_schema
from repro.semantics.interpretation import Interpretation
from repro.workloads.medical import MEDICAL_DL_SOURCE, medical_schema
from repro.workloads.synthetic import SchemaProfile, random_schema

from ..strategies import (
    apply_mutation as apply_op,
    hierarchical_catalog,
    mutation_vocabulary,
    mutations,
)

SCHEMA = random_schema(
    SchemaProfile(classes=6, attributes=4, hierarchy_depth=2), seed=5
)
OBJECT_IDS, CLASSES, ATTRIBUTES = mutation_vocabulary(SCHEMA, object_count=8)

EVALUATOR = QueryEvaluator(None)


def build_catalog(lattice: bool) -> ViewCatalog:
    return hierarchical_catalog(SCHEMA, 8, lattice=lattice, seed=3)


@pytest.fixture(scope="module")
def lattice_catalog():
    return build_catalog(lattice=True)


@pytest.fixture(scope="module")
def flat_catalog():
    return build_catalog(lattice=False)


# -- op strategies (shared with the async oracle; see tests/strategies.py) ---

op = mutations(OBJECT_IDS, CLASSES, ATTRIBUTES)


def seed_state() -> DatabaseState:
    state = DatabaseState(SCHEMA)
    state.add_object("o0", CLASSES[0])
    state.add_object("o1", CLASSES[-1])
    state.set_attribute("o0", ATTRIBUTES[0], "o1")
    return state


class _Recorder:
    """A mutation-log listener keeping every epoch record it receives."""

    def __init__(self):
        self.records = []

    def on_commit(self, record):
        self.records.append(record)


def assert_extents_match_oracle(catalog: ViewCatalog, state: DatabaseState) -> None:
    for view in catalog:
        oracle = EVALUATOR.concept_answers(view.concept, state)
        assert view.stored_extent == oracle, view.name


class TestEquivalenceOracle:
    @settings(deadline=None, max_examples=60)
    @given(ops=st.lists(op, max_size=25))
    def test_lattice_engine_matches_scratch_refresh(self, lattice_catalog, ops):
        state = seed_state()
        lattice_catalog.refresh_all(state)
        queue = MaintenanceQueue(state, lattice_catalog)
        try:
            for operation in ops:
                apply_op(state, operation)
        finally:
            queue.close()
        assert_extents_match_oracle(lattice_catalog, state)

    @settings(deadline=None, max_examples=30)
    @given(ops=st.lists(op, max_size=20))
    def test_flat_engine_matches_scratch_refresh(self, flat_catalog, ops):
        state = seed_state()
        flat_catalog.refresh_all(state)
        queue = MaintenanceQueue(state, flat_catalog)
        try:
            for operation in ops:
                apply_op(state, operation)
        finally:
            queue.close()
        assert_extents_match_oracle(flat_catalog, state)

    @settings(deadline=None, max_examples=25)
    @given(ops=st.lists(op, max_size=15))
    def test_cached_interpretation_equals_validating_export(self, ops):
        state = seed_state()
        for operation in ops:
            apply_op(state, operation)
        cached = state.to_interpretation()
        domain = set(state.objects) or {"__empty__"}
        validating = Interpretation(
            domain,
            {name: state.extent(name) & frozenset(domain) for name in state.classes()},
            {name: state.attribute_pairs(name) for name in state.attributes()},
            {obj: obj for obj in state.objects},
        )
        assert cached == validating


class TestVersionedStore:
    def test_generation_bumps_only_on_effective_mutations(self):
        state = DatabaseState(SCHEMA)
        start = state.generation
        state.add_object("x", CLASSES[0])
        after_add = state.generation
        assert after_add > start
        state.add_object("x", CLASSES[0])  # idempotent
        assert state.generation == after_add
        state.set_attribute("x", ATTRIBUTES[0], "x")
        bumped = state.generation
        assert bumped > after_add
        state.set_attribute("x", ATTRIBUTES[0], "x")  # duplicate pair
        assert state.generation == bumped
        state.retract_membership("x", "NotAsserted")  # no-op retraction
        assert state.generation == bumped

    def test_extent_memo_invalidation(self):
        state = DatabaseState(medical_schema())
        state.add_object("p", "Patient")
        first = state.extent("Person")
        assert first == {"p"}
        assert state.extent("Person") is first  # memo hit
        state.add_object("q", "Patient")
        second = state.extent("Person")
        assert second == {"p", "q"}
        state.retract_membership("q", "Patient")
        assert state.extent("Person") == {"p"}

    def test_to_interpretation_is_generation_cached(self):
        state = seed_state()
        first = state.to_interpretation()
        assert state.to_interpretation() is first
        state.assert_membership("o1", CLASSES[0])
        second = state.to_interpretation()
        assert second is not first
        assert second.concept_extension(CLASSES[0]) != first.concept_extension(
            CLASSES[0]
        )

    def test_to_interpretation_extra_constants(self):
        state = seed_state()
        base = state.to_interpretation()
        extended = state.to_interpretation(constants=["ghost"])
        assert extended is not base
        assert extended.has_constant("ghost")
        assert "ghost" in extended.domain
        # Constants already stored collapse to the cached base export.
        assert state.to_interpretation(constants=["o0"]) is base

    def test_extended_export_cache_is_bounded(self):
        from repro.database.store import _MAX_EXTENDED_EXPORTS

        state = seed_state()
        for index in range(_MAX_EXTENDED_EXPORTS + 10):
            state.to_interpretation(constants=[f"ghost_{index}"])
        assert len(state._interp_extended) <= _MAX_EXTENDED_EXPORTS

    def test_remove_object_uses_reverse_indexes(self):
        state = seed_state()
        state.set_attribute("o2", ATTRIBUTES[1], "o0")
        state.remove_object("o0")
        assert "o0" not in state.objects
        assert not state.object_pairs("o0")
        assert all(
            "o0" not in pair
            for name in state.attributes()
            for pair in state.attribute_pairs(name)
        )
        assert "o0" not in state.extent(CLASSES[0])

    def test_reverse_indexes_do_not_leak_on_churn(self):
        state = DatabaseState(SCHEMA)
        for index in range(50):
            subject, value = f"churn_{index}", f"link_{index}"
            state.add_object(subject, CLASSES[0])
            state.set_attribute(subject, ATTRIBUTES[0], value)
            state.remove_object(subject)
            state.remove_object(value)
        assert not state.objects
        assert not state._values_of
        assert not state._pairs_of
        assert not state._classes_of

    def test_mutation_log_emits_typed_deltas(self):
        state = DatabaseState(SCHEMA)
        recorder = _Recorder()
        state.subscribe(recorder)
        with state.batch():
            state.add_object("a", CLASSES[0])
            state.set_attribute("a", ATTRIBUTES[0], "b")
        (record,) = recorder.records
        kinds = [type(delta).__name__ for delta in record.deltas]
        assert kinds == [
            "ObjectAdded",
            "MembershipAsserted",
            "ObjectAdded",
            "AttributeSet",
        ]
        assert MembershipAsserted("a", CLASSES[0]) in record.deltas
        assert AttributeSet("a", ATTRIBUTES[0], "b") in record.deltas
        state.unsubscribe(recorder)
        state.set_attribute("a", ATTRIBUTES[1], "b")
        assert len(recorder.records) == 1  # detached listeners stay silent

    def test_each_commit_seals_one_record_for_every_listener(self):
        state = DatabaseState(SCHEMA)
        first, second = _Recorder(), _Recorder()
        state.subscribe(first)
        state.subscribe(second)
        with state.batch():
            state.add_object("a", CLASSES[0])
            with state.batch():
                state.set_attribute("a", ATTRIBUTES[0], "b")
            assert not first.records  # nothing reaches listeners mid-batch
        # Nested batches seal one record, and every listener gets that record.
        (record,) = first.records
        assert len(second.records) == 1 and second.records[0] is record
        assert record.sequence == state.commit_sequence
        assert record.generation == state.generation
        assert not record.schema_changed

        # A batch that changes nothing delivers nothing and commits nothing.
        sequence = state.commit_sequence
        with state.batch():
            state.add_object("a")
            state.retract_membership("a", CLASSES[1])
        assert state.commit_sequence == sequence
        assert len(first.records) == len(second.records) == 1

        # A schema swap is flagged on its record.
        state.schema = Schema.empty()
        swap = first.records[-1]
        assert swap.schema_changed and swap.deltas == ()
        assert swap.sequence == sequence + 1 == state.commit_sequence
        assert second.records[-1] is swap

        # A listener unsubscribed mid-batch receives nothing for that epoch.
        with state.batch():
            state.assert_membership("a", CLASSES[1])
            state.unsubscribe(second)
        assert first.records[-1].deltas == (MembershipAsserted("a", CLASSES[1]),)
        assert len(first.records) == 3
        assert len(second.records) == 2


class TestRelevanceIndex:
    def test_keys_cover_vocabulary(self):
        concept = b.conjoin(
            [
                b.concept("Patient"),
                b.exists(("consults", b.concept("Doctor"))),
                Singleton("flu"),
            ]
        )
        keys = relevance_keys(concept)
        assert ("class", "Patient") in keys
        assert ("class", "Doctor") in keys
        assert ("attr", "consults") in keys
        assert ("const", "flu") in keys

    def test_top_concept_uses_domain_key(self):
        assert DOMAIN_KEY in relevance_keys(Top())

    def test_add_discard_roundtrip(self):
        index = RelevanceIndex()

        class FakeView:
            name = "v"
            concept = b.exists(("suffers", b.concept("Disease")))

        index.add(FakeView())
        assert index.views_for([("attr", "suffers")]) == {"v"}
        index.discard("v")
        assert not index.views_for([("attr", "suffers")])


class TestMaintenanceQueue:
    def test_coalescing_counters(self):
        state = seed_state()
        catalog = build_catalog(lattice=True)
        catalog.refresh_all(state)
        queue = MaintenanceQueue(state, catalog)
        with state.batch():
            state.assert_membership("o0", CLASSES[1])
            state.retract_membership("o0", CLASSES[1])
            state.assert_membership("o0", CLASSES[1])
        stats = queue.statistics
        # Three deltas about the same (object, class): the later ones add
        # nothing new to the pending epoch.
        assert stats.deltas_seen == 3
        assert stats.deltas_coalesced == 2
        assert stats.flushes == 1
        queue.close()

    def test_irrelevant_deltas_skip_views(self):
        state = seed_state()
        catalog = ViewCatalog(None, checker=SubsumptionChecker(SCHEMA))
        catalog.register_concept("only_class", b.concept(CLASSES[0]))
        catalog.refresh_all(state)
        queue = MaintenanceQueue(state, catalog)
        state.set_attribute("o0", ATTRIBUTES[2], "o1")
        stats = queue.statistics
        assert stats.flushes == 1
        assert stats.views_skipped_irrelevant == 1
        assert stats.views_evaluated == 0
        queue.close()

    def test_lattice_pruning_skips_descendants(self):
        state = DatabaseState(medical_schema())
        state.add_object("flu", "Topic")
        state.add_object("doc", "Doctor")
        state.set_attribute("doc", "skilled_in", "flu")
        catalog = ViewCatalog(None, checker=SubsumptionChecker(medical_schema()))
        parent = b.concept("Doctor")
        child = b.conjoin(
            [b.concept("Doctor"), b.exists(("skilled_in", b.concept("Topic")))]
        )
        grandchild = b.conjoin(
            [
                b.concept("Doctor"),
                b.concept("Female"),
                b.exists(("skilled_in", b.concept("Topic"))),
            ]
        )
        catalog.register_concept("parent", parent)
        catalog.register_concept("child", child)
        catalog.register_concept("grandchild", grandchild)
        catalog.refresh_all(state)
        queue = MaintenanceQueue(state, catalog)
        # A Topic membership on a fresh, unconnected object is relevant to
        # both descendants (they mention Topic) but the object fails their
        # Doctor ancestor, so both are updated by set algebra alone.
        state.add_object("new_topic", "Topic")
        stats = queue.statistics
        assert stats.views_lattice_pruned >= 2
        assert stats.views_evaluated == 0
        assert_extents_match_oracle(catalog, state)
        queue.close()

    def test_registration_keeps_index_aligned(self):
        state = seed_state()
        catalog = build_catalog(lattice=True)
        catalog.refresh_all(state)
        queue = MaintenanceQueue(state, catalog)
        view = catalog.register_concept(
            "late_arrival", b.concept(CLASSES[2]), None
        )
        view.refresh(state, QueryEvaluator(None))
        state.assert_membership("o3", CLASSES[2])
        assert "o3" in view.stored_extent
        catalog.unregister("late_arrival")
        assert queue._index.keys_of("late_arrival") == frozenset()
        queue.close()

    def test_schema_swap_triggers_full_refresh(self):
        state = DatabaseState(medical_schema())
        state.add_object("p", "Patient")
        catalog = ViewCatalog(None, checker=SubsumptionChecker(medical_schema()))
        view = catalog.register_concept("people", b.concept("Person"))
        catalog.refresh_all(state)
        queue = MaintenanceQueue(state, catalog)
        assert view.stored_extent == {"p"}
        # Swap in a schema without the Patient ⊑ Person edge: the upward
        # closure changes with no object-level delta, so the queue must
        # re-materialize everything on commit.
        state.schema = Schema.empty()
        assert view.stored_extent == frozenset()
        state.schema = medical_schema()
        assert view.stored_extent == {"p"}
        # The hierarchy memo was rebuilt: membership deltas still map to
        # the right relevance keys after the swap.
        state.add_object("q", "Patient")
        assert view.stored_extent == {"p", "q"}
        queue.close()


class TestStalenessFixes:
    """The satellite hooks: mutations that previously bypassed maintenance."""

    @pytest.fixture
    def hospital(self):
        dl = parse_schema(MEDICAL_DL_SOURCE)
        state = DatabaseState(medical_schema())
        state.add_object("flu", "Disease", "Topic")
        state.add_object("dr_lee", "Doctor", "Female", "Person")
        state.add_object("dr_lee_name", "String")
        state.set_attribute("dr_lee", "name", "dr_lee_name")
        state.set_attribute("dr_lee", "skilled_in", "flu")
        state.add_object("john", "Patient", "Male", "Person")
        state.add_object("john_name", "String")
        state.set_attribute("john", "name", "john_name")
        state.set_attribute("john", "suffers", "flu")
        state.set_attribute("john", "consults", "dr_lee")
        state.apply_inverse_synonyms(dl)
        catalog = ViewCatalog(dl)
        view = catalog.register(dl.query_classes["ViewPatient"], state)
        queue = MaintenanceQueue(state, catalog)
        yield dl, state, view, queue
        queue.close()

    def test_retract_membership_propagates_through_reachability(self, hospital):
        dl, state, view, _ = hospital
        assert "john" in view.stored_extent
        # The delta is on the *doctor*, not on john: the closure walks the
        # consults edge back to john and re-checks him.
        state.retract_membership("dr_lee", "Doctor")
        assert "john" not in view.stored_extent

    def test_remove_attribute_propagates(self, hospital):
        dl, state, view, _ = hospital
        assert "john" in view.stored_extent
        state.remove_attribute("dr_lee", "skilled_in", "flu")
        assert "john" not in view.stored_extent

    def test_set_attribute_propagates(self, hospital):
        dl, state, view, _ = hospital
        state.remove_attribute("john", "consults", "dr_lee")
        assert "john" not in view.stored_extent
        state.set_attribute("john", "consults", "dr_lee")
        assert "john" in view.stored_extent

    def test_apply_inverse_synonyms_routes_through_log(self, hospital):
        dl, state, view, queue = hospital
        state.add_object("cold", "Disease", "Topic")
        state.add_object("dr_kim", "Doctor", "Female", "Person")
        state.add_object("dr_kim_name", "String")
        with state.batch():
            state.set_attribute("dr_kim", "name", "dr_kim_name")
            state.add_object("mary", "Patient", "Female", "Person")
            state.add_object("mary_name", "String")
            state.set_attribute("mary", "name", "mary_name")
            state.set_attribute("mary", "suffers", "cold")
            state.set_attribute("mary", "consults", "dr_kim")
            # Assert skill through the *synonym* direction only; the synonym
            # materialization must reach the view through the delta log.
            state.set_attribute("cold", "specialist", "dr_kim")
        assert "mary" not in view.stored_extent
        state.apply_inverse_synonyms(dl)
        assert "mary" in view.stored_extent
