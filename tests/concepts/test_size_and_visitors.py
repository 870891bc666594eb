"""Tests for the size measures and the traversal utilities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concepts import builders as b
from repro.concepts.schema import InclusionAxiom
from repro.concepts.size import concept_size, path_size, schema_size, sl_concept_size
from repro.concepts.syntax import (
    AtMostOne,
    ExistsAttribute,
    Primitive,
    SLPrimitive,
    ValueRestriction,
)
from repro.concepts.visitors import (
    conjuncts,
    constants,
    map_fillers,
    paths_of,
    primitive_attributes,
    primitive_concepts,
    subconcepts,
)
from repro.workloads.medical import medical_schema, query_patient_concept

from ..strategies import (
    adversarial_schemas,
    concepts,
    deep_chain_schemas,
    necessity_schemas,
    schemas,
)


class TestSizes:
    def test_atomic_sizes(self):
        assert concept_size(b.concept("A")) == 1
        assert concept_size(b.top()) == 1
        assert concept_size(b.singleton("a")) == 1

    def test_conjunction_size(self):
        assert concept_size(b.conjoin(b.concept("A"), b.concept("B"))) == 3

    def test_path_sizes(self):
        assert path_size(b.path("p")) == 2  # attribute + TOP filler
        assert path_size(b.path(("p", b.concept("A")), "q")) == 4
        assert concept_size(b.exists("p")) == 3

    def test_sl_concept_sizes(self):
        assert sl_concept_size(SLPrimitive("A")) == 1
        assert sl_concept_size(ExistsAttribute("p")) == 2
        assert sl_concept_size(AtMostOne("p")) == 2
        assert sl_concept_size(ValueRestriction("p", "A")) == 3

    def test_schema_size_of_medical_schema(self):
        assert schema_size(medical_schema()) > 20

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(schemas(), deep_chain_schemas(), necessity_schemas(), adversarial_schemas()))
    def test_schema_size_is_the_sum_over_axioms(self, schema):
        expected = sum(
            2 + sl_concept_size(axiom.right) if isinstance(axiom, InclusionAxiom) else 4
            for axiom in schema.axioms()
        )
        assert schema_size(schema) == expected
        assert schema_size(schema) == expected  # the kept value

    @settings(max_examples=50, deadline=None)
    @given(concepts(max_depth=3))
    def test_size_is_positive_and_monotone_under_conjunction(self, concept):
        assert concept_size(concept) >= 1
        assert concept_size(b.conjoin(concept, b.concept("Z"))) > concept_size(concept)


class TestVisitors:
    def test_subconcepts_include_nested_fillers(self):
        concept = b.exists(("p", b.conjoin(b.concept("A"), b.exists(("q", b.concept("B"))))))
        names = {sub for sub in subconcepts(concept) if isinstance(sub, Primitive)}
        assert names == {Primitive("A"), Primitive("B")}

    def test_primitive_collectors_on_paper_query(self):
        concept = query_patient_concept()
        assert {"Male", "Patient", "Female", "Doctor"} <= primitive_concepts(concept)
        assert {"consults", "suffers", "skilled_in"} <= primitive_attributes(concept)

    def test_constants_collector(self):
        concept = b.exists(("takes", b.singleton("Aspirin")))
        assert constants(concept) == {"Aspirin"}
        assert constants(b.concept("A")) == frozenset()

    def test_conjuncts_flattens_nested_ands(self):
        concept = b.conjoin(b.concept("A"), b.conjoin(b.concept("B"), b.concept("C")))
        assert set(conjuncts(concept)) == {Primitive("A"), Primitive("B"), Primitive("C")}

    def test_paths_of_yields_both_agreement_sides(self):
        concept = b.agreement(b.path("p"), b.path("q"))
        found = list(paths_of(concept))
        assert b.path("p") in found and b.path("q") in found

    def test_map_fillers_identity(self):
        concept = query_patient_concept()
        assert map_fillers(concept, lambda node: node) == concept

    def test_map_fillers_can_rename_primitives(self):
        concept = b.exists(("p", b.concept("A")))

        def rename(node):
            if isinstance(node, Primitive):
                return Primitive(node.name.lower())
            return node

        renamed = map_fillers(concept, rename)
        assert primitive_concepts(renamed) == {"a"}
