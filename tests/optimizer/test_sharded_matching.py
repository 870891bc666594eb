"""Property tests: sharded matching ≡ the sequential matching loop.

``plan_batch`` / ``answer_batch`` fan queries over worker shards; the spec
is the plain ``for query: plan(query)`` loop.  Plans must be byte-identical
(same plan type, the *same* view objects, same alternatives, same anchors),
the merged traversal statistics must equal the sequential counters, and
every backend must agree.
"""

import pickle
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concepts.intern import concept_id
from repro.concepts.normalize import normalize_concept
from repro.core.checker import SubsumptionChecker, clear_shared_decision_cache
from repro.database.views import ViewCatalog
from repro.optimizer import SemanticQueryOptimizer, ShardedMatcher, ViewFilterPlan
from repro.optimizer.parallel import available_backends
from repro.workloads.synthetic import (
    SchemaProfile,
    generate_hierarchical_catalog,
    generate_matching_queries,
    random_schema,
)
from repro.workloads.university import generate_university_state, university_dl_schema

from ..strategies import concepts, schemas


def plan_descriptor(plan):
    if isinstance(plan, ViewFilterPlan):
        return ("view", plan.query.name, plan.view.name, plan.alternatives)
    return ("scan", plan.query.name, plan.anchor_class)


def build_optimizer(schema, items, lattice=True):
    optimizer = SemanticQueryOptimizer(schema, lattice=lattice)
    for name, concept in items:
        optimizer.register_view_concept(name, concept)
    return optimizer


class TestShardedMatchingEquivalence:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        schemas(max_axioms=3),
        st.lists(concepts(max_depth=2), min_size=1, max_size=6),
        st.lists(concepts(max_depth=2), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
    )
    def test_match_batch_equals_sequential(self, schema, views, queries, shards, lattice):
        items = [(f"view{index}", concept) for index, concept in enumerate(views)]
        optimizer = build_optimizer(schema, items, lattice=lattice)
        sequential = [
            [view.name for view in optimizer.subsuming_views_for_concept(concept)]
            for concept in queries
        ]
        matcher = ShardedMatcher(
            optimizer.checker, optimizer.catalog, shards=shards, backend="thread"
        )
        batched = [
            [view.name for view in matched] for matched in matcher.match_batch(queries)
        ]
        assert batched == sequential

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=1, max_value=8))
    def test_merged_statistics_equal_sequential(self, seed, shards):
        """The merged traversal counters equal the sequential loop's."""
        schema = random_schema(SchemaProfile(classes=6, attributes=4), seed=seed)
        catalog = generate_hierarchical_catalog(schema, 12, seed=seed + 1)
        queries = generate_matching_queries(schema, catalog, 6, seed=seed + 2)
        items = list(catalog.items())

        clear_shared_decision_cache()
        sequential = build_optimizer(schema, items)
        sequential.checker.clear_cache()
        clear_shared_decision_cache()
        for concept in queries:
            sequential.subsuming_views_for_concept(concept)

        clear_shared_decision_cache()
        batched = build_optimizer(schema, items)
        batched.checker.clear_cache()
        clear_shared_decision_cache()
        matcher = ShardedMatcher(
            batched.checker, batched.catalog, shards=shards, backend="serial"
        )
        matcher.match_batch(queries)
        assert matcher.match_statistics.checks == sequential.statistics.subsumption_checks
        assert (
            matcher.match_statistics.signature_skips
            == sequential.statistics.signature_skips
        )
        assert matcher.match_statistics.pruned_views == sequential.statistics.lattice_pruned

    def test_plan_batch_byte_identical_plans(self):
        dl = university_dl_schema()
        state = generate_university_state(students=25, professors=4, courses=6, seed=9)
        optimizer = SemanticQueryOptimizer(dl, lattice=True)
        for view_name in ("StudentsOfTheirAdvisor", "NamedStudents"):
            optimizer.register_view(dl.query_classes[view_name], state)
        queries = [query for query in dl.query_classes.values() if query.is_structural]

        sequential_plans = [optimizer.plan(query) for query in queries]
        batch_plans = optimizer.plan_batch(queries, shards=2, backend="thread")
        for sequential, batched in zip(sequential_plans, batch_plans):
            assert type(batched) is type(sequential)
            assert plan_descriptor(batched) == plan_descriptor(sequential)
            assert pickle.dumps(plan_descriptor(batched)) == pickle.dumps(
                plan_descriptor(sequential)
            )
            if isinstance(batched, ViewFilterPlan):
                # Same catalog => the very same view objects, not copies.
                assert batched.view is sequential.view

    def test_answer_batch_equals_sequential_execution(self):
        dl = university_dl_schema()
        state = generate_university_state(students=30, professors=5, courses=8, seed=5)
        optimizer = SemanticQueryOptimizer(dl, lattice=True)
        for view_name in ("StudentsOfTheirAdvisor", "NamedStudents"):
            optimizer.register_view(dl.query_classes[view_name], state)
        queries = [query for query in dl.query_classes.values() if query.is_structural]
        sequential = [optimizer.optimize_and_execute(query, state) for query in queries]
        batched = optimizer.answer_batch(queries, state, shards=3)
        for left, right in zip(batched, sequential):
            assert left.answers == right.answers
            assert plan_descriptor(left.plan) == plan_descriptor(right.plan)
            assert left.answers == optimizer.evaluate_unoptimized(left.plan.query, state)

    @pytest.mark.skipif(
        "process" not in available_backends(), reason="needs a fork platform"
    )
    def test_process_backend_matches(self):
        schema = random_schema(SchemaProfile(classes=6, attributes=4), seed=31)
        catalog = generate_hierarchical_catalog(schema, 10, seed=32)
        queries = generate_matching_queries(schema, catalog, 5, seed=33)
        optimizer = build_optimizer(schema, list(catalog.items()))
        sequential = [
            [view.name for view in optimizer.subsuming_views_for_concept(concept)]
            for concept in queries
        ]
        optimizer.checker.clear_cache()
        clear_shared_decision_cache()
        matcher = ShardedMatcher(
            optimizer.checker, optimizer.catalog, shards=2, backend="process"
        )
        batched = [
            [view.name for view in matched] for matched in matcher.match_batch(queries)
        ]
        assert batched == sequential
        # The workers' decision deltas were merged back on join.
        assert matcher.statistics.cache_delta_entries > 0

    def test_empty_batch(self):
        schema = random_schema(SchemaProfile(classes=4, attributes=2), seed=1)
        optimizer = build_optimizer(schema, [])
        assert optimizer.plan_batch([]) == []
        matcher = ShardedMatcher(optimizer.checker, optimizer.catalog)
        assert matcher.match_batch([]) == []


class TestSharedSeedSlot:
    """Thread workers that share one checker share its one seed slot.

    ``SubsumptionChecker`` keeps the completed facts-only pair of the most
    recently profiled query and starts that query's full decisions from it.
    Under a 1 µs switch interval, four thread shards overwrite the slot
    between one worker's profile and its full decision all the time; a
    worker that completed against another query's seed would show up as a
    lattice edge or a match that the cold, shortcut-free spec disagrees with.
    """

    def test_thread_shards_under_rapid_switching_equal_the_cold_spec(self):
        schema = random_schema(SchemaProfile(classes=6, attributes=4), seed=3)
        catalog = generate_hierarchical_catalog(schema, 16, seed=4)
        queries = generate_matching_queries(schema, catalog, 12, seed=5)
        items = list(catalog.items())

        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        spec_catalog = ViewCatalog(checker=spec, lattice=True)
        for name, concept in items:
            spec_catalog.register_concept(name, concept)

        clear_shared_decision_cache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            optimizer = SemanticQueryOptimizer(schema, lattice=True)
            optimizer.register_views_batch(items, backend="thread", shards=4)
            matcher = ShardedMatcher(
                optimizer.checker, optimizer.catalog, shards=4, backend="thread"
            )
            matched = matcher.match_names(queries)
        finally:
            sys.setswitchinterval(interval)

        lattice, spec_lattice = optimizer.catalog.lattice, spec_catalog.lattice
        for name, _concept in items:
            assert set(lattice.parents_of(name)) == set(spec_lattice.parents_of(name))
            assert set(lattice.children_of(name)) == set(spec_lattice.children_of(name))
        for query, names in zip(queries, matched):
            expected = {name for name, concept in items if spec.subsumes(query, concept)}
            assert set(names) == expected
        for query in queries + [concept for _name, concept in items]:
            for _name, view in items:
                decision = optimizer.checker.cached_decision(
                    concept_id(normalize_concept(query)), concept_id(normalize_concept(view))
                )
                if decision is not None:
                    assert decision == spec.subsumes(query, view)
