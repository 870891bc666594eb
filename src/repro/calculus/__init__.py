"""The subsumption calculus of Section 4 of the paper.

* :mod:`repro.calculus.constraints` -- individuals, constraints, fact/goal pairs,
* :mod:`repro.calculus.rules` -- the rules D1--D7, S1--S5 (+S6), G1--G3, C1--C6,
* :mod:`repro.calculus.engine` -- the completion procedure and its statistics,
* :mod:`repro.calculus.clash` -- clash detection,
* :mod:`repro.calculus.subsume` -- the decision procedure of Theorem 4.7,
* :mod:`repro.calculus.trace` -- Figure 11 style derivation rendering.
"""

from .clash import Clash, find_clashes
from .constraints import (
    AttributeConstraint,
    Constant,
    Constraint,
    Individual,
    MembershipConstraint,
    Pair,
    PathConstraint,
    Variable,
)
from .engine import CompletionEngine, CompletionError, CompletionResult, CompletionStatistics
from .rules import RuleApplication
from .subsume import SubsumptionResult, decide_subsumption, subsumes
from .trace import format_result, format_trace, rule_histogram

__all__ = [
    "Individual",
    "Variable",
    "Constant",
    "Constraint",
    "MembershipConstraint",
    "AttributeConstraint",
    "PathConstraint",
    "Pair",
    "RuleApplication",
    "CompletionEngine",
    "CompletionError",
    "CompletionResult",
    "CompletionStatistics",
    "Clash",
    "find_clashes",
    "SubsumptionResult",
    "decide_subsumption",
    "subsumes",
    "format_result",
    "format_trace",
    "rule_histogram",
]
