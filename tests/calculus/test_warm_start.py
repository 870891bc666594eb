"""Warm-started decisions against the cold specification.

A warm decision starts from a copy of the query's completed facts-only pair
(the *seed*) plus the goal ``o : D`` instead of from ``{x : C} : {x : D}``
(:func:`repro.calculus.subsume.decide_subsumption` with ``seed=``, used by
:meth:`repro.core.checker.SubsumptionChecker.subsumes`).  Cold
``decide_subsumption`` is its specification.  The properties here fuzz
(query, view, schema) triples over the regular and the adversarial
vocabularies and require:

* the direct warm decision and the checker's decision equal the cold one,
  with the same clash verdict;
* the seed's facts, goals and root are unchanged afterwards, so one seed
  serves every view;
* a warm "subsumed" has no small counterexample (brute force), and a warm
  denial is witnessed by the canonical countermodel of its completed facts.

Three ``@example`` pins cover the corners a fact-side copy could get wrong:
the root renamed by S4 during the seed's run, an S5 filler created for the
goal (whose S3 typing then fires on the copy), and an unsatisfiable query.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import find_counterexample
from repro.calculus import decide_subsumption
from repro.calculus.constraints import Constant, Variable
from repro.concepts import builders as b
from repro.concepts.schema import Schema
from repro.concepts.syntax import Primitive
from repro.core import checker as checker_module
from repro.core.checker import SubsumptionChecker
from repro.semantics.canonical import element_for
from repro.semantics.evaluate import concept_extension
from repro.semantics.sigma import is_sigma_interpretation

from ..strategies import adversarial_schemas, concepts, schemas

#: A primitive goal fires no rule, so its completion is the facts-only one.
PROBE = Primitive("__warm_start_probe__")

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: ``x`` is the ``p``-filler of a ``y : A`` whose functional ``p`` already
#: has the filler ``a``: S4 renames the root ``x`` to ``a``.
RENAMED_ROOT = (
    Schema([b.functional("A", "p")]),
    b.exists((b.inv("p"), b.conjoin(b.concept("A"), b.exists(("p", b.singleton("a")))))),
    b.singleton("a"),
)
#: Only the goal ``∃(p:B)`` makes S5 create the ``p``-filler; S3 then types it.
S5_FILLER = (
    Schema([b.necessary("A", "p"), b.attribute_typing("p", "A", "B")]),
    b.concept("A"),
    b.exists(("p", b.concept("B"))),
)
#: ``{a} ⊓ {b}`` clashes under the UNA; the view passes every checker filter.
UNSATISFIABLE = (
    Schema([b.isa("A", "B")]),
    b.conjoin(b.singleton("a"), b.singleton("b")),
    b.concept("A"),
)

triples = st.tuples(
    st.one_of(schemas(max_axioms=4), adversarial_schemas()),
    concepts(max_depth=2),
    concepts(max_depth=2),
)


def seed_of(query, schema):
    return decide_subsumption(query, PROBE, schema, keep_trace=False).completion.pair


def checker_decision(query, view, schema):
    """The fast checker's decision, and the seeds its completions received."""
    decide = checker_module.decide_subsumption
    seeds = []

    def recording(*args, **kwargs):
        seeds.append(kwargs.get("seed"))
        return decide(*args, **kwargs)

    checker = SubsumptionChecker(schema, shared_cache=False)
    with mock.patch.object(checker_module, "decide_subsumption", recording):
        decision = checker.subsumes(query, view)
    return decision, seeds


class TestWarmEqualsCold:
    @FUZZ
    @given(triples)
    @example(RENAMED_ROOT)
    @example(S5_FILLER)
    @example(UNSATISFIABLE)
    def test_warm_decisions_equal_the_cold_decision(self, triple):
        schema, query, view = triple
        cold = decide_subsumption(query, view, schema, keep_trace=False)
        seed = seed_of(query, schema)
        facts, goals, root = set(seed.facts), set(seed.goals), seed.root_goal_subject

        warm = decide_subsumption(query, view, schema, keep_trace=False, seed=seed)
        assert warm.subsumed == cold.subsumed
        assert bool(warm.clashes) == bool(cold.clashes)
        assert (set(seed.facts), set(seed.goals), seed.root_goal_subject) == (
            facts,
            goals,
            root,
        )

        decision, _seeds = checker_decision(query, view, schema)
        assert decision == cold.subsumed

    def test_pinned_corners_take_the_warm_path(self):
        for schema, query, view in (RENAMED_ROOT, S5_FILLER, UNSATISFIABLE):
            decision, seeds = checker_decision(query, view, schema)
            # The profile's facts-only run, then one warm decision.
            assert len(seeds) == 2 and seeds[0] is None and seeds[1] is not None
            assert decision is True

    def test_renamed_root_carries_the_goal(self):
        schema, query, view = RENAMED_ROOT
        seed = seed_of(query, schema)
        assert seed.root_goal_subject == Constant("a")
        warm = decide_subsumption(query, view, schema, seed=seed)
        assert warm.root_goal_subject == Constant("a") and warm.goal_established
        assert "S4" in decide_subsumption(query, view, schema).statistics.rule_applications

    def test_s5_filler_is_created_for_the_goal(self):
        schema, query, view = S5_FILLER
        seed = seed_of(query, schema)
        assert "S5" not in decide_subsumption(query, PROBE, schema).statistics.rule_applications
        warm = decide_subsumption(query, view, schema, seed=seed)
        fired = warm.statistics.rule_applications
        assert fired.get("S5") == 1 and fired.get("S3") == 1
        assert warm.goal_established

    def test_unsatisfiable_seed_decides_by_clash(self):
        schema, query, view = UNSATISFIABLE
        warm = decide_subsumption(query, view, schema, seed=seed_of(query, schema))
        assert warm.subsumed and warm.clashes and not warm.goal_established

    def test_warm_run_skips_the_fact_side(self):
        schema, _query, view = S5_FILLER
        query = b.conjoin(b.concept("A"), b.exists(("q", b.concept("C"))))
        cold = decide_subsumption(query, view, schema)
        warm = decide_subsumption(query, view, schema, seed=seed_of(query, schema))
        assert warm.subsumed and cold.subsumed
        assert "D1" in cold.statistics.rule_applications
        assert "D1" not in warm.statistics.rule_applications
        assert warm.statistics.total_applications < cold.statistics.total_applications

    def test_seed_of_another_query_is_refused(self):
        seed = seed_of(b.concept("A"), Schema.empty())
        with pytest.raises(ValueError):
            decide_subsumption(b.concept("B"), b.concept("B"), Schema.empty(), seed=seed)

    def test_fresh_variables_of_the_fork_avoid_the_seed(self):
        seed = seed_of(b.exists("p", "q"), Schema.empty())
        fork = seed.fork()
        used = {i.name for i in seed.fact_individuals() if isinstance(i, Variable)}
        assert fork.fresh_variable().name not in used
        assert not fork.goals and fork.facts == seed.facts and fork.facts is not seed.facts


class TestWarmAgainstModels:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(concepts(max_depth=1, allow_singletons=False), schemas(max_axioms=3))
    def test_no_small_counterexample_when_warm_subsumed(self, query, schema):
        view = Primitive("B")
        decision, seeds = checker_decision(query, view, schema)
        warm = decide_subsumption(query, view, schema, seed=seed_of(query, schema))
        assert decision == warm.subsumed
        if warm.subsumed:
            outcome = find_counterexample(query, view, schema, domain_size=2, limit=40_000)
            assert outcome.subsumed_up_to_bound

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(
        concepts(max_depth=2, allow_singletons=False),
        concepts(max_depth=1, allow_singletons=False),
        schemas(max_axioms=4),
    )
    def test_warm_denials_are_witnessed_by_a_sigma_countermodel(self, query, view, schema):
        warm = decide_subsumption(query, view, schema, seed=seed_of(query, schema))
        if warm.subsumed:
            return
        countermodel = warm.countermodel()
        assert is_sigma_interpretation(countermodel, schema)
        root = element_for(warm.root_goal_subject)
        assert root in concept_extension(warm.query, countermodel)
        assert root not in concept_extension(warm.view, countermodel)
