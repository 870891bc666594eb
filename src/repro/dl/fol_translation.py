"""First-order semantics of ``DL`` declarations (Figures 2 and 4).

The semantics of the concrete language is given by mapping attribute and
class declarations to first-order formulas where class names appear as unary
and attribute names as binary predicates (Section 2.1), and query classes to
formulas with one free variable whose satisfying assignments are the answer
objects (Section 2.2).

These translations are used

* to display / document the logical reading of declarations (the E1
  benchmark prints the Figure 2 and Figure 4 formulas for the medical
  example),
* to evaluate the *non-structural* constraint parts of queries over database
  states (:mod:`repro.database.query_eval`), and
* in tests, to check that the structural abstraction of a query is an
  over-approximation of its full first-order meaning.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from ..fol.syntax import (
    AndF,
    BinaryAtom,
    Const,
    Equals,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    OrF,
    Term,
    TrueFormula,
    UnaryAtom,
    Var,
    conjunction,
)
from .abstraction import UNIVERSAL_CLASS
from .ast import (
    AndC,
    AttrAtom,
    AttributeDecl,
    ClassDecl,
    DLConstraint,
    DLSchema,
    EqualAtom,
    InAtom,
    LabeledPath,
    NotC,
    OrC,
    QuantifiedC,
    QueryClassDecl,
)

__all__ = [
    "THIS",
    "constraint_to_fol",
    "schema_to_formulas",
    "query_class_to_formula",
]

#: The free variable standing for the answer object of a query class.
THIS = Var("this")


def _fresh(prefix: str = "v") -> Iterator[Var]:
    for index in itertools.count(1):
        yield Var(f"{prefix}{index}")


def _term(name: str, environment: Dict[str, Term]) -> Term:
    """Resolve an identifier of a constraint: bound variable or constant."""
    if name in environment:
        return environment[name]
    return Const(name)


def constraint_to_fol(
    constraint: DLConstraint, environment: Optional[Dict[str, Term]] = None
) -> Formula:
    """Translate a ``DL`` constraint formula into first-order logic.

    ``environment`` maps the identifiers that are *bound* in the current
    context (``this``, derived labels, quantified variables) to terms; any
    other identifier is read as a constant (e.g. ``Aspirin`` in Figure 3).
    """
    environment = dict(environment or {"this": THIS})

    if isinstance(constraint, InAtom):
        return UnaryAtom(constraint.class_name, _term(constraint.term, environment))
    if isinstance(constraint, AttrAtom):
        return BinaryAtom(
            constraint.attribute,
            _term(constraint.subject, environment),
            _term(constraint.value, environment),
        )
    if isinstance(constraint, EqualAtom):
        return Equals(_term(constraint.left, environment), _term(constraint.right, environment))
    if isinstance(constraint, NotC):
        return Not(constraint_to_fol(constraint.operand, environment))
    if isinstance(constraint, AndC):
        return AndF(
            constraint_to_fol(constraint.left, environment),
            constraint_to_fol(constraint.right, environment),
        )
    if isinstance(constraint, OrC):
        return OrF(
            constraint_to_fol(constraint.left, environment),
            constraint_to_fol(constraint.right, environment),
        )
    if isinstance(constraint, QuantifiedC):
        variable = Var(constraint.variable)
        inner_env = dict(environment)
        inner_env[constraint.variable] = variable
        body = constraint_to_fol(constraint.body, inner_env)
        if constraint.quantifier == "forall":
            return Forall(variable, body, sort=constraint.sort)
        return Exists(variable, body, sort=constraint.sort)
    raise TypeError(f"not a DL constraint: {constraint!r}")


def _class_decl_to_formulas(decl: ClassDecl) -> List[Formula]:
    """The Figure 2 translation of a class declaration."""
    x, y = Var("x"), Var("y")
    formulas: List[Formula] = []
    membership = UnaryAtom(decl.name, x)

    for superclass in decl.superclasses:
        formulas.append(Forall(x, Implies(membership, UnaryAtom(superclass, x))))

    for spec in decl.attributes:
        if spec.range_class != UNIVERSAL_CLASS:
            formulas.append(
                Forall(
                    x,
                    Forall(
                        y,
                        Implies(
                            AndF(membership, BinaryAtom(spec.name, x, y)),
                            UnaryAtom(spec.range_class, y),
                        ),
                    ),
                )
            )
        if spec.necessary:
            formulas.append(
                Forall(x, Implies(membership, Exists(y, BinaryAtom(spec.name, x, y))))
            )
        if spec.single:
            z = Var("z")
            formulas.append(
                Forall(
                    x,
                    Implies(
                        membership,
                        Forall(
                            y,
                            Forall(
                                z,
                                Implies(
                                    AndF(
                                        BinaryAtom(spec.name, x, y),
                                        BinaryAtom(spec.name, x, z),
                                    ),
                                    Equals(y, z),
                                ),
                            ),
                        ),
                    ),
                )
            )

    if decl.constraint is not None:
        body = constraint_to_fol(decl.constraint, {"this": x})
        formulas.append(Forall(x, Implies(membership, body)))
    return formulas


def _attribute_decl_to_formulas(decl: AttributeDecl) -> List[Formula]:
    """The Figure 2 translation of an attribute declaration (typing + inverse)."""
    x, y = Var("x"), Var("y")
    formulas: List[Formula] = [
        Forall(
            x,
            Forall(
                y,
                Implies(
                    BinaryAtom(decl.name, x, y),
                    AndF(UnaryAtom(decl.domain, x), UnaryAtom(decl.range, y)),
                ),
            ),
        )
    ]
    if decl.inverse is not None:
        formulas.append(
            Forall(
                x,
                Forall(
                    y,
                    AndF(
                        Implies(BinaryAtom(decl.name, x, y), BinaryAtom(decl.inverse, y, x)),
                        Implies(BinaryAtom(decl.inverse, y, x), BinaryAtom(decl.name, x, y)),
                    ),
                ),
            )
        )
    return formulas


def schema_to_formulas(schema: DLSchema) -> List[Formula]:
    """The first-order theory of the structural and non-structural schema parts."""
    formulas: List[Formula] = []
    for decl in schema.classes.values():
        formulas.extend(_class_decl_to_formulas(decl))
    for decl in schema.attributes.values():
        formulas.extend(_attribute_decl_to_formulas(decl))
    return formulas


def _path_atoms(
    labeled: LabeledPath,
    start: Term,
    end: Var,
    synonyms: Dict[str, str],
    fresh: Iterator[Var],
) -> Tuple[List[Formula], List[Var]]:
    """Atoms for a derived path from ``start`` to the label variable ``end``."""
    atoms: List[Formula] = []
    intermediates: List[Var] = []
    current: Term = start
    steps = labeled.steps
    for index, step in enumerate(steps):
        is_last = index == len(steps) - 1
        target: Term = end if is_last else next(fresh)
        if not is_last:
            intermediates.append(target)  # type: ignore[arg-type]
        if step.attribute in synonyms:
            atoms.append(BinaryAtom(synonyms[step.attribute], target, current))
        else:
            atoms.append(BinaryAtom(step.attribute, current, target))
        if step.filler_constant is not None:
            atoms.append(Equals(target, Const(step.filler_constant)))
        elif step.filler_class is not None and step.filler_class != UNIVERSAL_CLASS:
            atoms.append(UnaryAtom(step.filler_class, target))
        current = target
    return atoms, intermediates


def query_class_to_formula(
    query: QueryClassDecl,
    schema: Optional[DLSchema] = None,
    free_variable: Var = THIS,
) -> Formula:
    """The Figure 4 translation: a formula with one free variable (``this``).

    The formula conjoins the membership predicates of the superclasses, the
    subformulas obtained from the labeled paths, the ``where`` equalities,
    and the rewritten constraint; labels and path intermediates are
    existentially quantified.
    """
    synonyms = schema.inverse_synonyms() if schema is not None else {}
    fresh = _fresh()

    label_vars: Dict[str, Var] = {}
    conjuncts: List[Formula] = [
        UnaryAtom(superclass, free_variable) for superclass in query.superclasses
    ]
    quantified: List[Var] = []
    anonymous_counter = itertools.count(1)

    for labeled in query.derived:
        if labeled.label is not None:
            end = Var(labeled.label)
            label_vars[labeled.label] = end
        else:
            end = Var(f"_anon{next(anonymous_counter)}")
        quantified.append(end)
        atoms, intermediates = _path_atoms(labeled, free_variable, end, synonyms, fresh)
        quantified.extend(intermediates)
        conjuncts.extend(atoms)

    for equality in query.where:
        conjuncts.append(Equals(Var(equality.left), Var(equality.right)))

    if query.constraint is not None:
        environment: Dict[str, Term] = {"this": free_variable}
        environment.update(label_vars)
        conjuncts.append(constraint_to_fol(query.constraint, environment))

    body = conjunction(conjuncts) if conjuncts else TrueFormula()
    for variable in reversed(quantified):
        body = Exists(variable, body)
    return body
