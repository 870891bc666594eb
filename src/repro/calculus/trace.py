"""Rendering derivation traces (the reproduction of Figure 11).

Figure 11 of the paper shows the completion of the worked example as a
sequence of constraint-system extensions ``F_2 = F_1 ∪ {...}  (D1)``.  The
helpers here turn the :class:`~repro.calculus.rules.base.RuleApplication`
records produced by the engine into the same style of listing, which the
example scripts and the E1 benchmark print.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .rules import RuleApplication
from .subsume import SubsumptionResult

__all__ = ["format_application", "format_trace", "format_result", "rule_histogram"]


def format_application(index: int, application: RuleApplication) -> str:
    """One line in the style of Figure 11: set extension plus the rule name."""
    parts: List[str] = []
    if application.added_facts:
        facts = ", ".join(str(constraint) for constraint in application.added_facts)
        parts.append(f"F ∪= {{{facts}}}")
    if application.added_goals:
        goals = ", ".join(str(constraint) for constraint in application.added_goals)
        parts.append(f"G ∪= {{{goals}}}")
    if application.substitution is not None:
        old, new = application.substitution
        parts.append(f"[{old} := {new}]")
    body = "   ".join(parts)
    return f"{index:>3}. {body:<90} {application.rule}"


def format_trace(trace: Sequence[RuleApplication]) -> str:
    """The whole derivation, one numbered line per rule application."""
    return "\n".join(format_application(i + 1, app) for i, app in enumerate(trace))


def rule_histogram(trace: Iterable[RuleApplication]) -> Dict[str, int]:
    """How many times each rule fired in the derivation."""
    histogram: Dict[str, int] = {}
    for application in trace:
        histogram[application.rule] = histogram.get(application.rule, 0) + 1
    return dict(sorted(histogram.items()))


def format_result(result: SubsumptionResult, include_trace: bool = True) -> str:
    """A report of a subsumption test: inputs, decision, statistics and trace."""
    lines = [
        f"query  C = {result.query}",
        f"view   D = {result.view}",
        f"schema Σ = {len(result.schema)} axioms",
        "",
        f"decision: C ⊑_Σ D  is  {'TRUE' if result.subsumed else 'FALSE'}",
        f"  goal established: {result.goal_established}",
        f"  clashes: {len(result.clashes)}",
        f"  rule applications: {result.statistics.total_applications}",
        f"  individuals in completion: {result.statistics.individuals}",
    ]
    if result.clashes:
        lines.append("  clash witnesses:")
        lines.extend(f"    - {clash}" for clash in result.clashes)
    if include_trace and result.trace:
        lines.append("")
        lines.append("derivation (Figure 11 style):")
        lines.append(format_trace(result.trace))
    return "\n".join(lines)
