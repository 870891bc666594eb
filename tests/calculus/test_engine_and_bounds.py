"""Tests for the completion engine, its control strategy, and Proposition 4.8."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.calculus.constraints import Pair
from repro.calculus.engine import CompletionEngine, CompletionError
from repro.calculus.subsume import decide_subsumption
from repro.concepts import builders as b
from repro.concepts.normalize import normalize_concept
from repro.concepts.schema import Schema
from repro.concepts.size import concept_size
from repro.workloads.chains import agreement_pair, chain_pair, chain_schema, fan_pair
from repro.workloads.medical import medical_schema, query_patient_concept, view_patient_concept

from ..strategies import concepts, schemas


class TestEngineBehaviour:
    def test_completion_reaches_a_fixpoint(self):
        engine = CompletionEngine()
        pair = Pair.initial(
            normalize_concept(query_patient_concept()),
            normalize_concept(view_patient_concept()),
        )
        engine.complete(pair, medical_schema())
        # After completion no rule is applicable any more.
        assert engine._apply_one(pair, medical_schema()) is None

    def test_trace_can_be_disabled(self):
        engine = CompletionEngine(keep_trace=False)
        result = engine.complete_concepts(
            normalize_concept(query_patient_concept()),
            normalize_concept(view_patient_concept()),
            medical_schema(),
        )
        assert result.trace == ()
        assert result.statistics.total_applications > 0

    def test_decomposition_has_priority_over_schema_rules(self):
        """The first firing on a decomposable fact must be a decomposition rule."""
        engine = CompletionEngine()
        schema = b.schema(b.isa("A", "B"))
        pair = Pair.initial(b.conjoin(b.concept("A"), b.concept("C")), b.concept("B"))
        first = engine._apply_one(pair, schema)
        assert first.category == "decomposition"

    def test_schema_rules_fire_when_nothing_else_is_applicable(self):
        engine = CompletionEngine()
        schema = b.schema(b.isa("A", "B"))
        pair = Pair.initial(b.concept("A"), b.concept("B"))
        result = engine.complete(pair, schema)
        assert any(app.rule == "S1" for app in result.trace)

    def test_budget_exceeded_raises(self):
        engine = CompletionEngine(max_steps=1)
        with pytest.raises(CompletionError):
            engine.complete_concepts(
                normalize_concept(query_patient_concept()),
                normalize_concept(view_patient_concept()),
                medical_schema(),
            )

    def test_decisions_never_hash_the_schema(self, monkeypatch):
        # The budget reads the schema's size from the schema itself; hashing
        # a schema builds the frozenset of all its axioms.
        schema = medical_schema()
        query = query_patient_concept()
        calls = []
        structural = Schema.__hash__

        def counting_hash(self):
            calls.append(self)
            return structural(self)

        monkeypatch.setattr(Schema, "__hash__", counting_hash)
        cold = decide_subsumption(query, view_patient_concept(), schema)
        seed = decide_subsumption(query, b.concept("HashProbe"), schema).completion.pair
        warm = decide_subsumption(query, view_patient_concept(), schema, seed=seed)
        assert cold.subsumed and warm.subsumed
        assert calls == []

    def test_rule_categories_map(self):
        categories = CompletionEngine().rule_categories()
        assert categories["D1"] == "decomposition"
        assert categories["S5"] == "schema"
        assert categories["G2"] == "goal"
        assert categories["C6"] == "composition"

    def test_statistics_by_category(self):
        engine = CompletionEngine()
        result = engine.complete_concepts(
            normalize_concept(query_patient_concept()),
            normalize_concept(view_patient_concept()),
            medical_schema(),
        )
        by_category = result.statistics.by_category(engine.rule_categories())
        assert by_category["decomposition"] > 0
        assert by_category["schema"] > 0


class TestProposition48:
    """The number of individuals of the completion is at most M * N."""

    def check_bound(self, query, view, schema):
        result = decide_subsumption(query, view, schema)
        bound = concept_size(result.query) * concept_size(result.view)
        assert result.statistics.individuals <= bound, (
            f"|individuals|={result.statistics.individuals} exceeds M*N={bound}"
        )
        return result

    def test_on_the_paper_example(self):
        self.check_bound(query_patient_concept(), view_patient_concept(), medical_schema())

    @pytest.mark.parametrize("length", [1, 2, 4, 8])
    def test_on_chain_workloads(self, length):
        query, view = chain_pair(length)
        self.check_bound(query, view, chain_schema(length))

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_on_agreement_workloads(self, length):
        query, view = agreement_pair(length)
        self.check_bound(query, view, Schema.empty())

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_on_fan_workloads(self, width):
        query, view = fan_pair(width)
        self.check_bound(query, view, Schema.empty())

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(concepts(max_depth=2), concepts(max_depth=2), schemas(max_axioms=4))
    def test_on_random_inputs(self, query, view, schema):
        self.check_bound(query, view, schema)
