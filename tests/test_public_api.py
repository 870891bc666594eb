"""Tests for the top-level public API (repro / repro.core)."""


import repro
from repro import SubsumptionChecker, subsumes
from repro.concepts import builders as b
from repro.workloads.medical import medical_schema, query_patient_concept, view_patient_concept


class TestPackageSurface:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_snippet_from_the_readme(self):
        checker = SubsumptionChecker(medical_schema())
        assert checker.subsumes(query_patient_concept(), view_patient_concept())


class TestSubsumptionChecker:
    def test_subsumes_and_explain_agree(self):
        checker = SubsumptionChecker(medical_schema())
        query, view = query_patient_concept(), view_patient_concept()
        assert checker.subsumes(query, view) == checker.explain(query, view).subsumed
        assert not checker.subsumes(view, query)

    def test_cache_counts_hits(self):
        checker = SubsumptionChecker(medical_schema())
        query, view = query_patient_concept(), view_patient_concept()
        checker.subsumes(query, view)
        checker.subsumes(query, view)
        stats = checker.statistics
        assert stats["checks"] == 2 and stats["cache_hits"] == 1
        checker.clear_cache()
        assert checker.statistics["cache_size"] == 0

    def test_equivalence(self):
        checker = SubsumptionChecker()
        left = b.conjoin(b.concept("A"), b.concept("B"))
        right = b.conjoin(b.concept("B"), b.concept("A"))
        assert checker.equivalent(left, right)
        assert not checker.equivalent(left, b.concept("A"))

    def test_satisfiability(self):
        checker = SubsumptionChecker(b.schema(b.functional("A", "p")))
        fine = b.conjoin(b.concept("A"), b.exists(("p", b.singleton("v1"))))
        broken = b.conjoin(
            b.concept("A"),
            b.exists(("p", b.singleton("v1"))),
            b.exists(("p", b.singleton("v2"))),
        )
        assert checker.is_satisfiable(fine)
        assert not checker.is_satisfiable(broken)

    def test_classify_builds_direct_parent_relation(self):
        schema = medical_schema()
        checker = SubsumptionChecker(schema)
        concepts = {
            "patients": b.concept("Patient"),
            "persons": b.concept("Person"),
            "male_patients": b.conjoin(b.concept("Male"), b.concept("Patient")),
        }
        hierarchy = checker.classify(concepts)
        assert hierarchy["patients"] == ["persons"]
        assert hierarchy["male_patients"] == ["patients"]
        assert hierarchy["persons"] == []

    def test_module_level_subsumes_defaults_to_empty_schema(self):
        assert subsumes(b.conjoin(b.concept("A"), b.concept("B")), b.concept("A"))
        assert not subsumes(query_patient_concept(), view_patient_concept())
