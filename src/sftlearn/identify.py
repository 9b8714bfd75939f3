"""Grammar identification from a single sampled word.

Two procedures over a finite candidate class: maximum likelihood picks the
grammars whose chain gives the observed cylinder the largest log measure,
and minimum entropy picks, among candidates that admit the word at all, the
ones whose chain has the smallest entropy rate.  Both tolerate ties up to a
configurable margin and are exposed through a single outcome object that
carries every candidate's score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import Potential, chain_stack, cylinder_log_measure
from .symbolic import Grammar, ValidationError, _real, validate_word

DEFAULT_TIE_TOL = 1e-9


@dataclass(frozen=True)
class CandidateScore:
    """One candidate's log likelihood and (if it admits the word) entropy."""

    grammar: Grammar
    log_likelihood: float
    entropy: float | None
    admissible: bool


@dataclass(frozen=True, eq=False)
class IdentificationOutcome:
    """Scores plus the maximum-likelihood and minimum-entropy answer sets.

    ``ml_indices`` and ``min_entropy_indices`` point into ``scores`` (which
    follows candidate order); the set properties resolve them to grammars.
    ``none_admissible`` flags the degenerate case where no candidate admits
    the word, leaving both answer sets empty.
    """

    n: int
    scores: tuple[CandidateScore, ...]
    ml_indices: tuple[int, ...]
    min_entropy_indices: tuple[int, ...]
    none_admissible: bool
    tie_tolerance: float

    @property
    def ml_set(self) -> frozenset[Grammar]:
        return frozenset(self.scores[i].grammar for i in self.ml_indices)

    @property
    def min_entropy_set(self) -> frozenset[Grammar]:
        return frozenset(self.scores[i].grammar for i in self.min_entropy_indices)


def _scores(candidates, chains, lls) -> tuple[CandidateScore, ...]:
    return tuple(CandidateScore(g, ll, c.entropy if ll > -math.inf else None, ll > -math.inf)
                 for g, c, ll in zip(candidates, chains, lls))


def score_candidates(word, potential: Potential, candidates) -> tuple[CandidateScore, ...]:
    """Log likelihood and entropy of ``word`` under each candidate's chain.  The
    word is checked before the class is solved (:func:`chain_stack`, which
    checks the class), so bad input raises before any solve."""
    w = validate_word(word, potential.lexicon)
    candidates = tuple(candidates)
    chains = chain_stack(candidates, potential)
    return _scores(candidates, chains, [cylinder_log_measure(c, w) for c in chains])


def _answer_sets(lls, entropies, tie_tol: float):
    """Masks over the last axis of log likelihoods ``lls``: the admissible
    candidates, the maximum-likelihood set (within ``tie_tol`` of the best
    score) and the minimum-entropy set (admissible, within ``tie_tol`` of
    the least admissible entropy); both sets are empty where none admits."""
    admissible = lls > -np.inf
    best = lls.max(axis=-1, keepdims=True)
    ml = (lls >= best - tie_tol) & admissible.any(axis=-1, keepdims=True)
    ents = np.where(admissible, entropies, np.inf)
    me = admissible & (ents <= ents.min(axis=-1, keepdims=True) + tie_tol)
    return admissible, ml, me


def _outcome(n: int, scores, tie_tol: float) -> IdentificationOutcome:
    lls = np.array([s.log_likelihood for s in scores])
    ents = np.array([s.entropy if s.admissible else math.inf for s in scores])
    admissible, ml, me = _answer_sets(lls, ents, tie_tol)
    return IdentificationOutcome(n, tuple(scores), tuple(np.flatnonzero(ml).tolist()),
                                 tuple(np.flatnonzero(me).tolist()), not admissible.any(), tie_tol)


def _check_tie_tol(tie_tol: float) -> None:
    """A NaN tolerance would empty both answer sets, and an infinite one
    would put forbidden candidates in the maximum-likelihood set."""
    if _real(tie_tol, "tie tolerance tie_tol") < 0:
        raise ValidationError(f"tie tolerance tie_tol must be >= 0, got {tie_tol!r}")


def identify(word, potential: Potential, candidates,
             tie_tol: float = DEFAULT_TIE_TOL) -> IdentificationOutcome:
    """Score every candidate (:func:`score_candidates`) and form both answer sets."""
    _check_tie_tol(tie_tol)
    word = tuple(word)   # an iterator would be spent by the scoring
    scores = score_candidates(word, potential, candidates)
    return _outcome(len(word), scores, tie_tol)
