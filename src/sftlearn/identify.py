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

from .gibbs import (
    GibbsChain,
    Potential,
    _log_measures,
    _word_counts,
    chain_stack,
    cylinder_log_measure,
    sample,
)
from .symbolic import Grammar, ValidationError, _integer, validate_word

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


def _candidate_chains(potential: Potential, candidates, chains):
    """The candidates and their chains as tuples, checked against each other
    and the potential; the chains are built when ``chains`` is None."""
    candidates = tuple(candidates)
    if not candidates:
        raise ValidationError("candidate class is empty")
    for g in candidates:
        if g.lexicon != potential.lexicon:
            raise ValidationError("candidate lexicon does not match the potential")
    if chains is None:
        return candidates, chain_stack(candidates, potential)
    chains = tuple(chains)
    if len(chains) != len(candidates):
        raise ValidationError("chains and candidates differ in length")
    return candidates, chains


def _scores(candidates, chains, lls) -> tuple[CandidateScore, ...]:
    return tuple(CandidateScore(g, ll, c.entropy if ll > -math.inf else None, ll > -math.inf)
                 for g, c, ll in zip(candidates, chains, lls))


def score_candidates(word, potential: Potential, candidates,
                     chains=None) -> tuple[CandidateScore, ...]:
    """Log likelihood and entropy of ``word`` under each candidate's chain.

    ``chains`` may carry prebuilt :class:`GibbsChain` objects aligned with
    ``candidates`` (they are rebuilt from the potential otherwise); sweeps
    that score many words against a fixed class should pass them in.
    """
    candidates, chains = _candidate_chains(potential, candidates, chains)
    w = validate_word(word, potential.lexicon)
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
    if not 0 <= tie_tol < math.inf:
        raise ValidationError(f"tie tolerance tie_tol must be finite and >= 0, got {tie_tol!r}")


def identify(word, potential: Potential, candidates, tie_tol: float = DEFAULT_TIE_TOL,
             chains=None) -> IdentificationOutcome:
    """Score every candidate and form both answer sets."""
    _check_tie_tol(tie_tol)
    scores = score_candidates(word, potential, candidates, chains=chains)
    return _outcome(len(tuple(word)), scores, tie_tol)


def validate_checkpoints(checkpoints) -> list[int]:
    """Check that prefix lengths are nonempty, positive and strictly increasing."""
    cps = [_integer(c, "checkpoint") for c in checkpoints]
    if not cps:
        raise ValidationError("checkpoints must list at least one prefix length")
    if cps[0] < 1:
        raise ValidationError("checkpoints must be at least 1 (the empty prefix is not scored)")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValidationError("checkpoints must be strictly increasing")
    return cps


def identify_curve(chain: GibbsChain, potential: Potential, candidates, checkpoints,
                   seed: int, tie_tol: float = DEFAULT_TIE_TOL,
                   candidate_chains=None) -> list[IdentificationOutcome]:
    """Sample one word from ``chain`` and identify along its prefixes.

    A single path of length ``max(checkpoints)`` is drawn with ``seed`` and
    scored at each checkpoint, so the outcomes describe one trajectory of
    the learner.  Checkpoints must pass ``validate_checkpoints``, and the
    chain's symbols must belong to the potential's lexicon.  Each outcome
    equals ``identify`` on the prefix, bit for bit: the prefix enters the
    score only through its first block and its counts of range-words,
    taken cumulatively along the word.
    """
    _check_tie_tol(tie_tol)
    cps = validate_checkpoints(checkpoints)
    if chain.grammar.lexicon.theta > potential.lexicon.theta:
        raise ValidationError("chain lexicon is larger than the potential's")
    candidates, chains = _candidate_chains(potential, candidates, candidate_chains)
    n = max(cps[-1], potential.range - 1)
    word = sample(chain, max(n, chain.potential.range - 1), seed).word[:n]
    head, counts = _word_counts(potential, word, cps)
    lls = _log_measures(chains, cps, [head], counts[None])[0]
    return [_outcome(c, _scores(candidates, chains, row.tolist()), tie_tol)
            for c, row in zip(cps, lls)]
