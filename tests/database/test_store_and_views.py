"""Tests for the OODB substrate: states, integrity, query evaluation, views."""

import pytest

from repro.concepts import builders as b
from repro.core.errors import NonStructuralViewError
from repro.database.query_eval import QueryEvaluator
from repro.database.store import DatabaseState
from repro.database.views import ViewCatalog
from repro.dl.parser import parse_schema
from repro.workloads.medical import MEDICAL_DL_SOURCE, medical_schema


@pytest.fixture
def hospital_state():
    """A tiny consistent medical database with one QueryPatient answer."""
    dl = parse_schema(MEDICAL_DL_SOURCE)
    state = DatabaseState(medical_schema())
    state.add_object("flu", "Disease", "Topic")
    state.add_object("cold", "Disease", "Topic")
    state.add_object("Aspirin", "Drug")
    state.add_object("cough_syrup", "Drug")
    state.add_object("dr_lee", "Doctor", "Female", "Person")
    state.add_object("dr_kim", "Doctor", "Person")
    for doctor in ("dr_lee", "dr_kim"):
        state.add_object(f"{doctor}_name", "String")
        state.set_attribute(doctor, "name", f"{doctor}_name")
    state.set_attribute("dr_lee", "skilled_in", "flu")
    state.set_attribute("dr_kim", "skilled_in", "cold")

    # john: male patient, consults dr_lee (female, specialist in his flu), takes only aspirin.
    state.add_object("john", "Patient", "Male", "Person")
    state.add_object("john_name", "String")
    state.set_attribute("john", "name", "john_name")
    state.set_attribute("john", "suffers", "flu")
    state.set_attribute("john", "consults", "dr_lee")
    state.set_attribute("john", "takes", "Aspirin")

    # mary: patient, consults dr_kim about a disease he is not skilled in.
    state.add_object("mary", "Patient", "Female", "Person")
    state.add_object("mary_name", "String")
    state.set_attribute("mary", "name", "mary_name")
    state.set_attribute("mary", "suffers", "flu")
    state.set_attribute("mary", "consults", "dr_kim")

    # bob: male patient matching the structural part but taking a non-aspirin drug.
    state.add_object("bob", "Patient", "Male", "Person")
    state.add_object("bob_name", "String")
    state.set_attribute("bob", "name", "bob_name")
    state.set_attribute("bob", "suffers", "cold")
    state.set_attribute("bob", "consults", "dr_kim")
    state.set_attribute("bob", "takes", "cough_syrup")
    # make dr_kim female so bob matches ViewPatient's structural part too
    state.assert_membership("dr_kim", "Female")

    state.apply_inverse_synonyms(dl)
    return dl, state


class TestDatabaseState:
    def test_extent_closes_upwards_along_isa(self, hospital_state):
        _, state = hospital_state
        assert "john" in state.extent("Person")
        assert "john" in state.extent("Patient")
        # An object asserted only on the subclass is still in the superclass extent.
        state.add_object("implicit_patient", "Patient")
        assert "implicit_patient" in state.extent("Person")
        assert "implicit_patient" not in state.explicit_extent("Person")

    def test_attribute_lookups(self, hospital_state):
        _, state = hospital_state
        assert state.attribute_values("john", "consults") == {"dr_lee"}
        assert ("dr_lee", "flu") in state.attribute_pairs("skilled_in")

    def test_inverse_synonyms_materialized(self, hospital_state):
        _, state = hospital_state
        assert ("flu", "dr_lee") in state.attribute_pairs("specialist")

    def test_consistent_state_has_no_violations(self, hospital_state):
        _, state = hospital_state
        assert state.is_consistent(), state.integrity_violations()

    def test_violations_detected(self):
        state = DatabaseState(medical_schema())
        state.add_object("p", "Patient", "Person")  # no suffers, no name
        state.add_object("thing")
        state.set_attribute("p", "takes", "thing")  # thing is not a Drug
        kinds = {v.kind for v in state.integrity_violations()}
        assert "necessary" in kinds and "typing" in kinds

    def test_functional_violation_detected(self):
        state = DatabaseState(medical_schema())
        state.add_object("p", "Person")
        state.add_object("n1", "String")
        state.add_object("n2", "String")
        state.set_attribute("p", "name", "n1")
        state.set_attribute("p", "name", "n2")
        assert any(v.kind == "single" for v in state.integrity_violations())

    def test_remove_object_cascades(self, hospital_state):
        _, state = hospital_state
        state.remove_object("dr_lee")
        assert "dr_lee" not in state.objects
        assert not any("dr_lee" in pair for pair in state.attribute_pairs("consults"))

    def test_to_interpretation_round_trip(self, hospital_state):
        _, state = hospital_state
        interpretation = state.to_interpretation()
        assert state.extent("Patient") == interpretation.concept_extension("Patient")
        assert interpretation.constant_value("john") == "john"


class TestQueryEvaluation:
    def test_structural_query_answers(self, hospital_state):
        dl, state = hospital_state
        evaluator = QueryEvaluator(dl)
        answers = evaluator.answers(dl.query_classes["ViewPatient"], state)
        # john and bob consult a doctor skilled in their disease; mary does not.
        assert answers == {"john", "bob"}

    def test_constraint_clause_filters_answers(self, hospital_state):
        dl, state = hospital_state
        evaluator = QueryEvaluator(dl)
        answers = evaluator.answers(dl.query_classes["QueryPatient"], state)
        # bob is excluded by the Aspirin-only constraint, mary by Male/female doctor.
        assert answers == {"john"}

    def test_candidate_restriction(self, hospital_state):
        dl, state = hospital_state
        evaluator = QueryEvaluator(dl)
        answers = evaluator.answers(
            dl.query_classes["ViewPatient"], state, candidates=["mary", "bob"]
        )
        assert answers == {"bob"}

    def test_answers_from_source(self, hospital_state):
        dl, state = hospital_state
        evaluator = QueryEvaluator(dl)
        answers = evaluator.answers_from_source(
            """
            QueryClass FluPatients isA Patient with
              derived
                l_1: (suffers: {flu})
            end FluPatients
            """,
            state,
        )
        assert answers == {"john", "mary"}


class TestMaterializedViews:
    def test_non_structural_view_rejected(self, hospital_state):
        dl, _ = hospital_state
        catalog = ViewCatalog(dl)
        with pytest.raises(NonStructuralViewError):
            catalog.register(dl.query_classes["QueryPatient"])

    def test_register_and_refresh(self, hospital_state):
        dl, state = hospital_state
        catalog = ViewCatalog(dl)
        view = catalog.register(dl.query_classes["ViewPatient"], state)
        assert view.extent == {"john", "bob"}
        assert "ViewPatient" in catalog and len(catalog) == 1

    def test_incremental_maintenance_on_insert(self, hospital_state):
        dl, state = hospital_state
        catalog = ViewCatalog(dl)
        view = catalog.register(dl.query_classes["ViewPatient"], state)
        # A new patient consulting a specialist of her disease joins the view.
        state.add_object("nina", "Patient", "Person")
        state.add_object("nina_name", "String")
        state.set_attribute("nina", "name", "nina_name")
        state.set_attribute("nina", "suffers", "flu")
        state.set_attribute("nina", "consults", "dr_lee")
        catalog.notify_object_added("nina", state)
        assert "nina" in view.extent

    def test_incremental_maintenance_on_delete(self, hospital_state):
        dl, state = hospital_state
        catalog = ViewCatalog(dl)
        view = catalog.register(dl.query_classes["ViewPatient"], state)
        state.remove_object("bob")
        catalog.notify_object_removed("bob")
        assert view.extent == {"john"}

    def test_register_concept_directly(self, hospital_state):
        dl, state = hospital_state
        catalog = ViewCatalog(dl)
        view = catalog.register_concept("patients", b.concept("Patient"))
        view.refresh(state, QueryEvaluator(dl))
        assert view.extent == state.extent("Patient")
