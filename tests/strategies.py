"""Shared hypothesis strategies for the property-based tests.

The strategies generate *small* random vocabularies, ``QL`` concepts,
``SL`` schemas and finite interpretations, so that exhaustive oracles
(brute-force model search, FOL evaluation) stay fast while still exercising
every construct of the languages.

Besides the original concept/schema/interpretation generators the module
now hosts the strategies the maintenance and batch-layer suites share
(previously re-implemented per test file):

* :func:`simple_mutations` / :func:`mutations` + :func:`apply_mutation` --
  the update-stream vocabulary: random interleavings of object
  creation/deletion, membership asserts/retracts, attribute sets/removals
  and nested batch epochs against a :class:`DatabaseState`;
* :func:`mutation_vocabulary` / :func:`hierarchical_catalog` -- the shared
  schema-derived vocabulary and the deterministic classified-catalog
  builder the maintenance oracles run against;
* :data:`STATE_OBJECTS` / :func:`fuzzed_catalog` -- the object pool and
  the catalog builder the affected-set oracles fuzz over: states built on
  the concept vocabulary, so fuzzed concepts (inverted attributes,
  singletons naming stored objects, ``⊤``, nested fillers, two-sided
  agreements) bite on them;
* :func:`deep_chain_schemas` / :func:`necessity_schemas` /
  :func:`adversarial_schemas` -- the adversarial ``SL`` schemas (empty
  schema, deep ``isA`` chains, necessity/typing axioms gating the S5 rule,
  which is what inverse-synonym-style vocabularies exercise) that the
  batch-filter promotion fuzz requires.

The concept/schema generators accept an optional vocabulary so adversarial
suites can fuzz over deeper name pools than the default three-name one.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.concepts import builders as b
from repro.concepts.schema import Schema
from repro.concepts.syntax import (
    And,
    AttributeRestriction,
    ExistsPath,
    Path,
    PathAgreement,
    Primitive,
    Singleton,
    Top,
)
from repro.semantics.interpretation import Interpretation

CONCEPT_NAMES = ["A", "B", "C"]
ATTRIBUTE_NAMES = ["p", "q"]
CONSTANT_NAMES = ["a", "b"]

#: Object ids of the states the affected-set oracles fuzz: the constants
#: are stored objects too, so singleton concepts can name them.
STATE_OBJECTS = CONSTANT_NAMES + ["o2", "o3", "o4"]

#: Name pool for the deep-``isA``-chain adversarial schemas.
CHAIN_NAMES = [f"L{i}" for i in range(7)]


def primitive_concepts(names=None):
    return st.sampled_from(names or CONCEPT_NAMES).map(Primitive)


def attributes(names=None):
    names = names or ATTRIBUTE_NAMES
    return st.builds(b.attr, st.sampled_from(names)) | st.builds(
        b.inv, st.sampled_from(names)
    )


def atomic_concepts(allow_singletons: bool = True, names=None, constants=None):
    options = [primitive_concepts(names), st.just(Top())]
    if allow_singletons:
        options.append(st.sampled_from(constants or CONSTANT_NAMES).map(Singleton))
    return st.one_of(*options)


def paths(max_length: int = 2, filler=None, allow_singletons: bool = True, attrs=None):
    filler = filler if filler is not None else atomic_concepts(allow_singletons)
    step = st.builds(AttributeRestriction, attributes(attrs), filler)
    return st.lists(step, min_size=1, max_size=max_length).map(lambda steps: Path(tuple(steps)))


def concepts(
    max_depth: int = 2,
    allow_singletons: bool = True,
    names=None,
    attrs=None,
    constants=None,
):
    """Random QL concepts of bounded depth over an optional vocabulary."""
    base = atomic_concepts(allow_singletons, names=names, constants=constants)

    def extend(children):
        path_strategy = paths(
            max_length=2, filler=children, allow_singletons=allow_singletons, attrs=attrs
        )
        return st.one_of(
            st.builds(And, children, children),
            st.builds(ExistsPath, path_strategy),
            st.builds(lambda p: PathAgreement(p, Path(())), path_strategy),
            st.builds(PathAgreement, path_strategy, path_strategy),
        )

    return st.recursive(base, extend, max_leaves=max_depth + 3)


def schemas(max_axioms: int = 4, names=None, attrs=None):
    """Random small SL schemas over the shared (or a supplied) vocabulary."""
    names = st.sampled_from(names or CONCEPT_NAMES)
    attrs = st.sampled_from(attrs or ATTRIBUTE_NAMES)
    axiom = st.one_of(
        st.builds(b.isa, names, names),
        st.builds(b.typed, names, attrs, names),
        st.builds(b.necessary, names, attrs),
        st.builds(b.functional, names, attrs),
        st.builds(b.attribute_typing, attrs, names, names),
    )
    return st.lists(axiom, max_size=max_axioms).map(_build_schema)


def _build_schema(axioms) -> Schema:
    # Attribute typings may conflict; keep the first one for each attribute.
    seen_typings = set()
    filtered = []
    for axiom in axioms:
        key = getattr(axiom, "attribute", None)
        if key is not None and hasattr(axiom, "domain"):
            if key in seen_typings:
                continue
            seen_typings.add(key)
        filtered.append(axiom)
    return Schema(filtered)


# ---------------------------------------------------------------------------
# Adversarial SL schemas (batch-filter promotion fuzz)
# ---------------------------------------------------------------------------


def deep_chain_schemas(max_depth: int = 6):
    """``L0 ⊑ L1 ⊑ ... ⊑ Ld`` chains: told closure meets long hierarchies."""

    def build(depth: int) -> Schema:
        return Schema(
            [b.isa(CHAIN_NAMES[i], CHAIN_NAMES[i + 1]) for i in range(depth)]
        )

    return st.integers(min_value=2, max_value=max_depth).map(build)


def necessity_schemas(max_axioms: int = 5):
    """Schemas where every attribute carries a necessity axiom somewhere.

    Necessity axioms gate rule S5, the one rule that can materialize a
    root attribute step out of thin air -- exactly the conservative branch
    of the profile filters; inverse-synonym vocabularies (both directions
    of one attribute declared necessary/typed) are the motivating case.
    """
    names = st.sampled_from(CONCEPT_NAMES)
    attrs = st.sampled_from(ATTRIBUTE_NAMES)
    extra = st.one_of(
        st.builds(b.isa, names, names),
        st.builds(b.typed, names, attrs, names),
        st.builds(b.attribute_typing, attrs, names, names),
    )
    base = st.tuples(names, names).map(
        lambda pair: [
            b.necessary(pair[0], ATTRIBUTE_NAMES[0]),
            b.necessary(pair[1], ATTRIBUTE_NAMES[1]),
        ]
    )
    return st.builds(
        lambda axioms, rest: _build_schema(axioms + rest),
        base,
        st.lists(extra, max_size=max_axioms),
    )


def adversarial_schemas():
    """Empty schema, deep ``isA`` chains, and necessity-gated vocabularies."""
    return st.one_of(
        st.just(Schema.empty()),
        deep_chain_schemas(),
        necessity_schemas(),
    )


# ---------------------------------------------------------------------------
# Update streams over a DatabaseState (maintenance suites)
# ---------------------------------------------------------------------------


def mutation_vocabulary(schema: Schema, object_count: int = 8):
    """``(object ids, class names, attribute names)`` for an update stream."""
    classes = sorted(schema.concept_names()) or ["K0"]
    attrs = sorted(schema.attribute_names()) or ["p0"]
    objects = [f"o{i}" for i in range(object_count)]
    return objects, classes, attrs


def simple_mutations(objects, classes, attrs):
    """One non-batched mutation op against a :class:`DatabaseState`."""
    objects_st = st.sampled_from(objects)
    classes_st = st.sampled_from(classes)
    attributes_st = st.sampled_from(attrs)
    return st.one_of(
        st.tuples(st.just("add"), objects_st, st.lists(classes_st, max_size=2)),
        st.tuples(st.just("assert"), objects_st, classes_st),
        st.tuples(st.just("retract"), objects_st, classes_st),
        st.tuples(st.just("set"), objects_st, attributes_st, objects_st),
        st.tuples(st.just("unset"), objects_st, attributes_st, objects_st),
        st.tuples(st.just("remove"), objects_st),
    )


def mutations(objects, classes, attrs, max_batch: int = 6):
    """A mutation op that may be a nested ``with state.batch():`` epoch."""
    simple = simple_mutations(objects, classes, attrs)
    return st.one_of(
        simple,
        st.tuples(st.just("batch"), st.lists(simple, min_size=1, max_size=max_batch)),
    )


def apply_mutation(state, operation) -> None:
    """Apply one generated mutation op to a :class:`DatabaseState`."""
    kind = operation[0]
    if kind == "add":
        state.add_object(operation[1], *operation[2])
    elif kind == "assert":
        state.assert_membership(operation[1], operation[2])
    elif kind == "retract":
        state.retract_membership(operation[1], operation[2])
    elif kind == "set":
        state.set_attribute(operation[1], operation[2], operation[3])
    elif kind == "unset":
        state.remove_attribute(operation[1], operation[2], operation[3])
    elif kind == "remove":
        state.remove_object(operation[1])
    elif kind == "batch":
        with state.batch():
            for sub in operation[1]:
                apply_mutation(state, sub)
    else:  # pragma: no cover
        raise AssertionError(kind)


def hierarchical_catalog(schema: Schema, size: int, *, lattice: bool = True, seed: int = 0):
    """A classified :class:`ViewCatalog` over a hierarchical concept pool.

    Deterministic (not a strategy): the maintenance oracles build their
    module-scoped catalogs through this, so every suite agrees on how a
    fuzzed catalog looks.
    """
    from repro.core.checker import SubsumptionChecker
    from repro.database.views import ViewCatalog
    from repro.workloads.synthetic import generate_hierarchical_catalog

    catalog = ViewCatalog(None, checker=SubsumptionChecker(schema), lattice=lattice)
    for name, concept in generate_hierarchical_catalog(schema, size, seed=seed).items():
        catalog.register_concept(name, concept)
    return catalog


def layered_concepts(base, max_size: int = 4):
    """Concept lists whose later members specialize earlier ones.

    Draws up to ``max_size`` concepts from ``base`` and appends the
    conjunction of each neighbouring pair, so a classified catalog over the
    list has parent-child edges that hold over every interpretation -- the
    edges the maintenance walk prunes with.
    """

    def layer(bases):
        return bases + [And(left, right) for left, right in zip(bases, bases[1:])]

    return st.lists(base, min_size=1, max_size=max_size).map(layer)


def agreements(filler=None):
    """Two-sided path agreements ``∃p ≐ q`` (both paths non-empty)."""
    step_filler = filler if filler is not None else concepts(max_depth=2)
    path = paths(max_length=2, filler=step_filler)
    return st.builds(PathAgreement, path, path)


def fuzzed_catalog(schema: Schema, view_concepts, *, lattice: bool = True):
    """A classified :class:`ViewCatalog` over fuzzed view concepts.

    Deterministic given its inputs (not a strategy): views are named
    ``v0, v1, ...`` in the order given.
    """
    from repro.core.checker import SubsumptionChecker
    from repro.database.views import ViewCatalog

    catalog = ViewCatalog(None, checker=SubsumptionChecker(schema), lattice=lattice)
    for index, concept in enumerate(view_concepts):
        catalog.register_concept(f"v{index}", concept)
    return catalog


def interpretations(domain_size: int = 3):
    """Random finite interpretations over the shared vocabulary."""
    domain = tuple(f"d{i}" for i in range(domain_size))
    element = st.sampled_from(domain)
    subset = st.frozensets(element, max_size=domain_size)
    pair = st.tuples(element, element)
    relation = st.frozensets(pair, max_size=domain_size * domain_size)

    def build(concept_exts, attribute_exts, constant_elements):
        constants = dict(zip(CONSTANT_NAMES, constant_elements))
        return Interpretation(
            domain,
            dict(zip(CONCEPT_NAMES, concept_exts)),
            dict(zip(ATTRIBUTE_NAMES, attribute_exts)),
            constants,
        )

    constant_assignment = st.permutations(domain).map(lambda p: p[: len(CONSTANT_NAMES)])
    return st.builds(
        build,
        st.tuples(*[subset for _ in CONCEPT_NAMES]),
        st.tuples(*[relation for _ in ATTRIBUTE_NAMES]),
        constant_assignment,
    )
