"""The concrete frame-like database language ``DL`` (Section 2 of the paper).

* :mod:`repro.dl.ast` -- class, attribute and query-class declarations,
* :mod:`repro.dl.lexer` / :mod:`repro.dl.parser` -- the frame syntax,
* :mod:`repro.dl.validate` -- well-formedness checks,
* :mod:`repro.dl.abstraction` -- structural abstraction into ``SL``/``QL``,
* :mod:`repro.dl.fol_translation` -- the first-order semantics (Figures 2, 4).
"""

from .abstraction import (
    UNIVERSAL_CLASS,
    path_step_to_restriction,
    query_class_to_concept,
    query_classes_to_concepts,
    schema_to_sl,
)
from .ast import (
    AndC,
    AttrAtom,
    AttributeDecl,
    AttributeSpec,
    ClassDecl,
    DLConstraint,
    DLSchema,
    EqualAtom,
    InAtom,
    LabelEquality,
    LabeledPath,
    NotC,
    OrC,
    PathStep,
    QuantifiedC,
    QueryClassDecl,
)
from .fol_translation import (
    THIS,
    constraint_to_fol,
    query_class_to_formula,
    schema_to_formulas,
)
from .lexer import LexerError, Token, tokenize
from .parser import ParseError, Parser, parse_query_class, parse_schema
from .validate import SchemaValidationError, ValidationIssue, validate_schema

__all__ = [
    # ast
    "ClassDecl",
    "AttributeDecl",
    "AttributeSpec",
    "QueryClassDecl",
    "LabeledPath",
    "LabelEquality",
    "PathStep",
    "DLSchema",
    "DLConstraint",
    "InAtom",
    "AttrAtom",
    "EqualAtom",
    "NotC",
    "AndC",
    "OrC",
    "QuantifiedC",
    # lexer / parser
    "tokenize",
    "Token",
    "LexerError",
    "Parser",
    "ParseError",
    "parse_schema",
    "parse_query_class",
    # validation
    "validate_schema",
    "ValidationIssue",
    "SchemaValidationError",
    # abstraction
    "UNIVERSAL_CLASS",
    "schema_to_sl",
    "query_class_to_concept",
    "query_classes_to_concepts",
    "path_step_to_restriction",
    # first-order semantics
    "THIS",
    "constraint_to_fol",
    "schema_to_formulas",
    "query_class_to_formula",
]
