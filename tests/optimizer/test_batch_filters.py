"""Soundness fuzz for the decision shortcuts (now promoted into the checker).

The shortcuts replace completion runs by two kinds of reasoning, and both
must *never* contradict the spec decision (``shortcuts=False``, i.e. the
signature filter plus a full completion):

* told subsumption: ``conjunct_ids(D) ⊆ conjunct_ids(C)`` must imply
  ``C ⊑_Σ D`` for every schema;
* profile rejection: whenever :class:`BatchCheckerView` (or the promoted
  predicate inside :meth:`SubsumptionChecker.subsumes`) rejects a pair via
  the root-membership / head-attribute filters, the spec must agree the
  subsumption fails.

These properties are exactly what makes batched results bitwise equal to
the sequential spec, so they get their own high-volume fuzz on the shared
random vocabulary (which exercises necessity axioms, inverses, agreements
and unsatisfiable singletons).  ``TestAdversarialSchemas`` additionally
drives both shortcuts over the adversarial corners ROADMAP gated the
promotion on: the empty schema (no Σ reasoning to hide behind), deep
``isA`` chains (told closure meets long hierarchies) and necessity-gated
vocabularies over inverted attribute uses (the inverse-synonym shape,
which exercises the S5 gate of the head filter).  With the promotion
landed, ``TestPromotedShortcuts`` pins the two checker modes decision-
equal end to end; every *spec* checker below opts out via
``shortcuts=False`` so the fuzz stays non-circular.
``TestSnapshotSeedingIndex`` and ``TestIncrementalSeedIndex`` pin the
view lattice's own told-seed posting index -- the one every match walk
seeds from -- to the linear ``seed_against_lattice`` spec, on frozen
catalogs and across insertions, re-registrations and splice-outs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.concepts.normalize import normalize_concept
from repro.core.checker import SubsumptionChecker
from repro.database.lattice import seed_against_lattice
from repro.database.views import ViewCatalog
from repro.optimizer.parallel import (
    BatchCheckerView,
    conjunct_ids,
    profile_concept,
)

from ..strategies import (
    CHAIN_NAMES,
    adversarial_schemas,
    concepts,
    schemas,
)

#: Concepts over the deep-chain name pool, heavy on inverted attributes.
chain_concepts = concepts(max_depth=2, names=CHAIN_NAMES)


class TestToldSubsumption:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schemas(max_axioms=4), concepts(max_depth=2), concepts(max_depth=2))
    def test_told_inclusion_implies_subsumption(self, schema, query, view):
        if conjunct_ids(view) <= conjunct_ids(query):
            checker = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
            assert checker.subsumes(query, view)


class TestProfileFilters:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schemas(max_axioms=4), concepts(max_depth=2), concepts(max_depth=2))
    def test_rejection_never_contradicts_checker(self, schema, query, view):
        checker = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        view_checker = BatchCheckerView(checker)
        from repro.concepts.normalize import normalize_concept

        if view_checker._rejects(normalize_concept(query), normalize_concept(view)):
            assert checker.subsumes(query, view) is False

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schemas(max_axioms=4), concepts(max_depth=2))
    def test_profile_satisfiability_matches_checker(self, schema, concept):
        checker = SubsumptionChecker(schema)
        profile = profile_concept(concept, checker)
        assert profile.satisfiable == checker.is_satisfiable(concept)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schemas(max_axioms=4), concepts(max_depth=2), concepts(max_depth=2))
    def test_view_decisions_equal_spec_decisions(self, schema, query, view):
        """End to end: the worker view returns exactly the spec decision."""
        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        worker = BatchCheckerView(SubsumptionChecker(schema, shared_cache=False))
        assert worker.subsumes(query, view) == spec.subsumes(query, view)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schemas(max_axioms=4), concepts(max_depth=2), concepts(max_depth=2))
    def test_delta_records_spec_decisions(self, schema, query, view):
        """Everything a worker writes into its overlay is a true decision."""
        from repro.concepts.intern import concept_id
        from repro.concepts.normalize import normalize_concept

        worker = BatchCheckerView(SubsumptionChecker(schema, shared_cache=False))
        worker.subsumes(query, view)
        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        by_id = {}
        for concept in (query, view):
            normalized = normalize_concept(concept)
            by_id[concept_id(normalized)] = normalized
        for (query_id, view_id), decision in worker.delta.items():
            if query_id in by_id and view_id in by_id:
                assert spec.subsumes(by_id[query_id], by_id[view_id]) == decision


class _RecordedSeeds:
    """A seed sink that keeps every pair offered, decided or not."""

    def __init__(self) -> None:
        self.pairs = set()

    def seed(self, query_id, view_id, decision) -> None:
        assert decision is True
        self.pairs.add((query_id, view_id))


def _index_matches_linear_spec(lattice, concept) -> set:
    """Seed ``concept`` both ways, assert the seeds agree, return them."""
    concept = normalize_concept(concept)
    indexed, linear = _RecordedSeeds(), _RecordedSeeds()
    lattice.seed_told(concept, indexed)
    seed_against_lattice(linear, lattice, concept)
    assert indexed.pairs == linear.pairs
    return indexed.pairs


def _hierarchical_catalog(lattice: bool, seed: int = 11):
    from repro.workloads.synthetic import (
        SchemaProfile,
        generate_hierarchical_catalog,
        generate_matching_queries,
        random_schema,
    )

    schema = random_schema(SchemaProfile(classes=8, attributes=5), seed=seed)
    checker = SubsumptionChecker(schema, shared_cache=False)
    catalog = ViewCatalog(None, checker=checker, lattice=lattice)
    concepts_by_name = generate_hierarchical_catalog(schema, 24, seed=7)
    for name, concept in concepts_by_name.items():
        catalog.register_concept(name, concept)
    queries = generate_matching_queries(schema, concepts_by_name, 12, seed=13)
    return catalog, checker, queries


class TestSnapshotSeedingIndex:
    """Seeding against a frozen catalog, as every match walk does.

    A lattice catalog seeds from the lattice's conjunct-id posting index;
    the linear pass over every node (``seed_against_lattice``) is its
    executable specification.  A flat catalog seeds nothing: without a
    lattice there is no ancestor closure, so a told seed would be exactly
    a pair the checker's own told shortcut answers.
    """

    def test_lattice_snapshot(self):
        catalog, _checker, queries = _hierarchical_catalog(lattice=True)
        seeded = set()
        for query in queries + [view.concept for view in catalog]:
            seeded |= _index_matches_linear_spec(catalog.lattice, query)
        assert seeded, "the hierarchical catalog must produce told seeds"

    def test_flat_snapshot(self):
        catalog, checker, queries = _hierarchical_catalog(lattice=False)
        told_pairs = 0
        for query in queries:
            view_checker = BatchCheckerView(checker)
            matched = {view.name for view in catalog.subsumers(query, view_checker)}
            assert view_checker.statistics.told_seeded == 0
            told = {
                view.name
                for view in catalog
                if conjunct_ids(view.concept) <= conjunct_ids(query)
            }
            assert told <= matched
            told_pairs += len(told)
        assert told_pairs, "the hierarchical catalog must hold told subsumers"


#: Concepts over the union vocabulary: the chain names meet the default
#: names/attributes, so the same stream exercises deep hierarchies and the
#: necessity-gated (S5) head filter branch.
adversarial_concepts = concepts(max_depth=2, names=CHAIN_NAMES[:4] + ["A", "B"])


class TestAdversarialSchemas:
    """Promotion-precondition fuzz: the shortcuts on the adversarial corners.

    ROADMAP gates promoting the told seeds and profile filters into the
    spec checker on exactly this rigor: no schema (nothing for Σ reasoning
    to hide behind), deep ``isA`` chains (told closure vs. long
    hierarchies) and necessity axioms over attributes that concepts use
    inverted (the inverse-synonym shape; necessity is what arms rule S5,
    the only rule that can conjure a root attribute step the profile did
    not see).  Example budgets are unpinned so ``HYPOTHESIS_PROFILE=ci``
    scales them up.
    """

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(adversarial_schemas(), adversarial_concepts, adversarial_concepts)
    def test_told_inclusion_implies_subsumption(self, schema, query, view):
        if conjunct_ids(view) <= conjunct_ids(query):
            checker = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
            assert checker.subsumes(query, view)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(adversarial_schemas(), adversarial_concepts, adversarial_concepts)
    def test_rejection_never_contradicts_checker(self, schema, query, view):
        from repro.concepts.normalize import normalize_concept

        checker = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        view_checker = BatchCheckerView(checker)
        if view_checker._rejects(normalize_concept(query), normalize_concept(view)):
            assert checker.subsumes(query, view) is False

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(adversarial_schemas(), adversarial_concepts)
    def test_profile_satisfiability_matches_checker(self, schema, concept):
        checker = SubsumptionChecker(schema, shared_cache=False)
        profile = profile_concept(concept, checker)
        assert profile.satisfiable == checker.is_satisfiable(concept)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(adversarial_schemas(), adversarial_concepts, adversarial_concepts)
    def test_view_decisions_equal_spec_decisions(self, schema, query, view):
        """End to end: on every adversarial corner, shortcut == spec."""
        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        worker = BatchCheckerView(SubsumptionChecker(schema, shared_cache=False))
        assert worker.subsumes(query, view) == spec.subsumes(query, view)

    def test_deep_chain_subsumption_is_schema_derived_not_told(self):
        """``L0 ⊑_Σ Lk`` holds via the chain only: told seeding must not
        claim it for free, and the full decision must still find it."""
        from repro.concepts import builders as b
        from repro.concepts.schema import Schema

        schema = Schema(
            [b.isa(CHAIN_NAMES[i], CHAIN_NAMES[i + 1]) for i in range(5)]
        )
        checker = SubsumptionChecker(schema, shared_cache=False)
        worker = BatchCheckerView(checker)
        bottom, top = b.concept(CHAIN_NAMES[0]), b.concept(CHAIN_NAMES[2])
        assert not (conjunct_ids(top) <= conjunct_ids(bottom))
        assert worker.subsumes(bottom, top) is checker.subsumes(bottom, top) is True
        # The reverse direction fails, and the profile filter may prove it.
        assert worker.subsumes(top, bottom) is False


class TestPromotedShortcuts:
    """The promoted checker shortcuts never change a decision.

    ``SubsumptionChecker`` now applies told subsumption and the profile
    rejection inside :meth:`subsumes`; these properties pin the shortcut
    mode decision-equal to the ``shortcuts=False`` spec mode on both the
    regular and the adversarial vocabularies, and check the statistics
    counters actually attribute the short-circuits.
    """

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schemas(max_axioms=4), concepts(max_depth=2), concepts(max_depth=2))
    def test_shortcut_mode_equals_spec_mode(self, schema, query, view):
        fast = SubsumptionChecker(schema, shared_cache=False)
        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        assert fast.subsumes(query, view) == spec.subsumes(query, view)
        assert fast.subsumes(view, query) == spec.subsumes(view, query)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(adversarial_schemas(), adversarial_concepts, adversarial_concepts)
    def test_shortcut_mode_equals_spec_mode_adversarial(self, schema, query, view):
        fast = SubsumptionChecker(schema, shared_cache=False)
        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        assert fast.subsumes(query, view) == spec.subsumes(query, view)

    def test_shortcut_counters_attribute_the_short_circuits(self):
        from repro.concepts import builders as b

        # q is schema-known (so the signature filter stays out of the way)
        # but carries no necessity axiom (so S5 cannot arm it).
        schema = b.schema(b.isa("A", "B"), b.typed("B", "q", "B"))
        checker = SubsumptionChecker(schema, shared_cache=False)
        conj = b.conjoin(b.concept("A"), b.exists("p"))
        # Told: dropping a conjunct generalizes -- no completion needed.
        assert checker.subsumes(conj, b.concept("A"))
        assert checker.statistics["told_shortcuts"] == 1
        # Profile: A has no root q-step and q carries no necessity axiom.
        assert not checker.subsumes(b.concept("A"), b.exists("q"))
        assert checker.statistics["profile_rejections"] == 1
        assert checker.statistics["profiles_computed"] == 1
        # The spec mode decides identically without ever profiling.
        spec = SubsumptionChecker(schema, shared_cache=False, shortcuts=False)
        assert spec.subsumes(conj, b.concept("A"))
        assert not spec.subsumes(b.concept("A"), b.exists("q"))
        assert spec.statistics["profiles_computed"] == 0


class TestIncrementalSeedIndex:
    """The lattice's live posting index vs. the linear seeding spec.

    ``ViewLattice.insert`` indexes each new node and ``remove`` drops each
    spliced-out one.  After every insertion, re-registration and splice-out
    the index must seed exactly what ``seed_against_lattice`` (one pass
    over every node) seeds, and must index exactly the lattice's nodes.
    """

    def _replay(self, catalog, operations, probes) -> set:
        seeded = set()
        for name, concept in operations:
            if concept is None:
                catalog.unregister(name)
            else:
                catalog.register_concept(name, concept)
            catalog.lattice.check_invariants(catalog.checker)
            for probe in probes:
                seeded |= _index_matches_linear_spec(catalog.lattice, probe)
        return seeded

    def test_incremental_seeding_matches_linear_spec(self):
        from repro.workloads.synthetic import (
            SchemaProfile,
            generate_hierarchical_catalog,
            random_schema,
        )

        schema = random_schema(SchemaProfile(classes=8, attributes=5), seed=17)
        catalog = ViewCatalog(
            None, checker=SubsumptionChecker(schema, shared_cache=False), lattice=True
        )
        items = list(generate_hierarchical_catalog(schema, 20, seed=23).items())
        # Register a prefix, replay the whole list (the suffix re-registers
        # existing names, splicing their nodes out first), then unregister
        # every other name.
        operations = items[:10] + items + [(name, None) for name, _ in items[::2]]
        seeded = self._replay(catalog, operations, [concept for _, concept in items])
        assert seeded, "the hierarchical catalog must produce told seeds"

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        schemas(max_axioms=3),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), st.none() | concepts(max_depth=2)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_fuzzed_catalogs_match_linear_spec(self, schema, steps):
        """Random registrations, re-registrations and unregistrations."""
        catalog = ViewCatalog(
            None, checker=SubsumptionChecker(schema, shared_cache=False), lattice=True
        )
        operations = [(f"view{slot}", concept) for slot, concept in steps]
        probes = [concept for _, concept in operations if concept is not None]
        self._replay(catalog, operations, probes)

    def test_register_batch_reregistration_over_existing_catalog(self):
        """The wired-in merge path: batched re-registration over a live
        catalog equals sequential re-registration (names, edges, order)."""
        from repro.database.views import ViewCatalog
        from repro.workloads.synthetic import (
            SchemaProfile,
            generate_hierarchical_catalog,
            random_schema,
        )

        schema = random_schema(SchemaProfile(classes=8, attributes=5), seed=29)
        concepts_by_name = generate_hierarchical_catalog(schema, 16, seed=31)
        items = list(concepts_by_name.items())

        def preload() -> ViewCatalog:
            catalog = ViewCatalog(
                None, checker=SubsumptionChecker(schema, shared_cache=False), lattice=True
            )
            for name, concept in items:
                catalog.register_concept(name, concept)
            return catalog

        overlap = items[4:12] + items[:4]  # re-register existing names, shuffled
        sequential = preload()
        for name, concept in overlap:
            sequential.register_concept(name, concept)
        batched = preload()
        batched.register_batch([(name, concept) for name, concept in overlap])
        assert batched.names() == sequential.names()
        for name in batched.names():
            assert batched.lattice.parents_of(name) == sequential.lattice.parents_of(
                name
            )
