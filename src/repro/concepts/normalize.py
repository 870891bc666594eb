"""Normalization of ``QL`` concepts for the subsumption calculus.

Section 4 of the paper assumes that every path agreement has the form
``∃p ≐ ε``::

    "Any concept of the form ∃p ≐ q is equivalent to a concept of the form
     ∃p' ≐ ε, since paths can be inverted using inverses of attributes.
     In the sequel we assume that no concept has subconcepts of the form
     ∃p ≐ q where q ≠ ε, since this simplifies the calculus."

This module implements that rewriting together with a couple of
semantics-preserving cleanups that keep constraint systems small:

* ``∃ε`` is replaced by ``⊤`` (the empty path relates every object to itself),
* ``∃ε ≐ ε`` is replaced by ``⊤``,
* conjunctions with ``⊤`` are simplified, duplicated conjuncts are dropped.

The worked example of the paper (Section 4.1) applies exactly this rewriting
to ``C_Q`` and ``D_V``; :mod:`tests.concepts.test_normalize` checks that our
normalizer reproduces the concepts shown in Figure 11 of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import intern
from .intern import concept_id, intern_concept
from .syntax import (
    And,
    AttributeRestriction,
    Concept,
    EMPTY_PATH,
    ExistsPath,
    Path,
    PathAgreement,
    Top,
    TOP,
)
from .visitors import conjuncts

__all__ = [
    "invert_path",
    "normalize_agreement",
    "normalize_concept",
    "clear_normalize_memo",
]


def invert_path(path: Path, start_filler: Concept = TOP) -> Path:
    """Return a path denoting the *converse* relation of ``path``.

    For ``p = (R1:C1)...(Rn:Cn)`` the converse is
    ``(Rn^-1 : C_{n-1}) (R_{n-1}^-1 : C_{n-2}) ... (R1^-1 : start_filler)``:
    walking the chain backwards, each step uses the inverse attribute and is
    filtered by the filler that constrained the *previous* node of the
    original chain.  ``start_filler`` constrains the original start object
    (``⊤`` by default, i.e. no constraint).

    The restriction ``Cn`` on the original end object is *not* represented in
    the converse path; callers that need it (the agreement normalization
    below) must attach it to the meeting point themselves.
    """
    if path.is_empty:
        return EMPTY_PATH
    fillers: List[Concept] = [start_filler] + [step.concept for step in path.steps[:-1]]
    steps: Tuple[AttributeRestriction, ...] = tuple(
        AttributeRestriction(step.attribute.inverse(), filler)
        for step, filler in zip(reversed(path.steps), reversed(fillers))
    )
    return Path(steps)


def normalize_agreement(agreement: PathAgreement) -> Concept:
    """Rewrite ``∃p ≐ q`` into the equivalent normalized form.

    Cases:

    * ``q = ε``: already normalized (but the trivial ``∃ε ≐ ε`` becomes ``⊤``).
    * ``p = ε``: ``∃ε ≐ q`` requires ``q`` to loop back to its start, which is
      exactly ``∃q ≐ ε``.
    * both non-empty: the common filler ``y`` of ``p`` and ``q`` satisfies the
      last fillers of both paths, so the loop ``p'`` walks ``p`` (with the
      filler of its last step strengthened by the last filler of ``q``), then
      walks ``q`` backwards via inverse attributes, ending at the start
      object: ``∃ p[..., (Rm : Cm ⊓ Dn)] · inverse(q) ≐ ε``.

    The example of Section 3.2/4.1 is reproduced:
    ``∃(consults:Female) ≐ (suffers:⊤)(skilled_in^-1:Doctor)`` becomes
    ``∃(consults: Female ⊓ Doctor)(skilled_in:⊤)(suffers^-1:⊤) ≐ ε``.
    """
    p, q = agreement.left, agreement.right
    if q.is_empty:
        if p.is_empty:
            return TOP
        return agreement
    if p.is_empty:
        return PathAgreement(q, EMPTY_PATH)

    last_p = p.steps[-1]
    last_q = q.steps[-1]
    merged_filler = _merge_fillers(last_p.concept, last_q.concept)
    forward = Path(p.steps[:-1] + (AttributeRestriction(last_p.attribute, merged_filler),))
    backward = invert_path(Path(q.steps[:-1] + (AttributeRestriction(last_q.attribute, TOP),)))
    return PathAgreement(forward.concat(backward), EMPTY_PATH)


def _merge_fillers(left: Concept, right: Concept) -> Concept:
    """Conjoin two fillers, dropping redundant ``⊤`` conjuncts."""
    if isinstance(left, Top):
        return right
    if isinstance(right, Top):
        return left
    if left == right:
        return left
    return And(left, right)


def _normalize_path(path: Path) -> Path:
    """Normalize the fillers of every step of ``path``."""
    return Path(
        tuple(
            AttributeRestriction(step.attribute, normalize_concept(step.concept))
            for step in path
        )
    )


#: Cross-call memo: interned input id -> interned normalized concept.
#: Normalization is pure, so one process-wide table serves every caller;
#: keying on intern ids makes a hit one small-int lookup that compares no
#: structures.
_NORMALIZED: Dict[int, Concept] = {}


def normalize_concept(concept: Concept) -> Concept:
    """Return an equivalent concept in the normal form expected by the calculus.

    Guarantees on the result:

    * every :class:`~repro.concepts.syntax.PathAgreement` has ``ε`` as its
      right path,
    * no sub-concept is ``∃ε`` or ``∃ε ≐ ε`` (both are rewritten to ``⊤``),
    * conjunctions contain no ``⊤`` conjunct and no duplicated conjunct
      (unless the whole concept is equivalent to ``⊤``),
    * the result is the canonical interned instance of its structure
      (:mod:`repro.concepts.intern`), and repeated calls are memoized
      process-wide on the interned input.

    Normalization preserves the set semantics; this is checked by the
    property tests in ``tests/concepts/test_normalize.py``.
    """
    concept = intern_concept(concept)
    key = concept_id(concept)
    cached = _NORMALIZED.get(key)
    if cached is None:
        cached = intern_concept(_normalize(concept))
        _NORMALIZED[key] = cached
    return cached


def clear_normalize_memo() -> None:
    """Drop the process-wide normalization memo (used by cache-reset hooks)."""
    _NORMALIZED.clear()


# clear_intern_tables() must also drop this memo, or its values would keep
# the retired canonical instances alive.
intern.register_dependent_cache(clear_normalize_memo)


def _normalize(concept: Concept) -> Concept:
    if isinstance(concept, And):
        parts: List[Concept] = []
        seen = set()
        for part in conjuncts(concept):
            normalized = normalize_concept(part)
            for sub in conjuncts(normalized):
                if isinstance(sub, Top):
                    continue
                if sub in seen:
                    continue
                seen.add(sub)
                parts.append(sub)
        if not parts:
            return TOP
        # Sort conjuncts to obtain a canonical (order-independent) normal form;
        # intersection is commutative and associative, so this preserves the
        # semantics while making structural equality meaningful.
        parts.sort(key=str)
        result = parts[-1]
        for part in reversed(parts[:-1]):
            result = And(part, result)
        return result

    if isinstance(concept, ExistsPath):
        if concept.path.is_empty:
            return TOP
        return ExistsPath(_normalize_path(concept.path))

    if isinstance(concept, PathAgreement):
        rewritten = normalize_agreement(
            PathAgreement(_normalize_path(concept.left), _normalize_path(concept.right))
        )
        if isinstance(rewritten, PathAgreement) and rewritten.left.is_empty:
            return TOP
        return rewritten

    return concept
