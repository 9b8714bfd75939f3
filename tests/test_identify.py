"""Maximum-likelihood and minimum-entropy identification behavior."""

import importlib
import itertools
import math
import re

import numpy as np
import pytest

from sftlearn import (
    Grammar,
    Lexicon,
    Potential,
    ValidationError,
    cylinder_log_measure,
    enumerate_grammars,
    gibbs_chain,
    identify,
    sample,
    score_candidates,
)
from sftlearn.experiments import validate_checkpoints

from helpers import admits, all_words, transition_closure

PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture
def trio(swapped, golden, full2):
    # enumeration order over the two-symbol lexicon
    return (swapped, golden, full2)


def test_identification_of_0110_matches_hand_computation(trio, zero2):
    out = identify((0, 1, 1, 0), zero2, trio)
    swapped_score, golden_score, full_score = out.scores
    assert golden_score.log_likelihood == -math.inf
    assert not golden_score.admissible and golden_score.entropy is None
    assert full_score.log_likelihood == pytest.approx(math.log(1 / 16), abs=1e-10)
    assert swapped_score.log_likelihood == pytest.approx(
        math.log(1 / ((2 + PHI) * (2 * PHI + 1))), abs=1e-10)
    assert out.ml_indices == (0,)
    assert out.ml_set == frozenset({trio[0]})
    assert out.min_entropy_indices == (0,)
    assert out.n == 4 and not out.none_admissible


def test_single_candidate_class(golden, zero2):
    admitted = identify((0, 1, 0), zero2, (golden,))
    assert admitted.ml_indices == admitted.min_entropy_indices == (0,)
    rejected = identify((0, 1, 1), zero2, (golden,))
    assert rejected.ml_indices == ()
    assert rejected.min_entropy_indices == ()
    assert rejected.none_admissible


def test_identify_counts_a_word_given_as_an_array_and_refuses_an_iterator(trio, zero2):
    with pytest.raises(ValidationError, match="^word symbols must come in a sequence, got <"):
        identify(iter((0, 1, 0)), zero2, trio)
    out = identify(np.array([0, 1, 0]), zero2, trio)
    ref = identify((0, 1, 0), zero2, trio)
    assert out.n == ref.n == 3
    assert out.scores == ref.scores


def test_no_admissible_candidate_sets_flag_instead_of_raising(golden, swapped, zero2):
    # "11" rules out golden-mean, "00" rules out its mirror
    out = identify((1, 1, 0, 0), zero2, (golden, swapped))
    assert out.none_admissible
    assert out.ml_set == frozenset()
    assert [s.log_likelihood for s in out.scores] == [-math.inf, -math.inf]


def test_length_one_words_tie_on_entropy(trio, zero2):
    # no transition is constrained, so everything is admissible and the two
    # golden-mean variants tie exactly at entropy log(phi)
    out = identify((1,), zero2, trio)
    assert out.min_entropy_indices == (0, 1)
    assert out.ml_indices == (0,)     # the mirror makes "1" most likely
    out = identify((0,), zero2, trio)
    assert out.ml_indices == (1,)


def test_tie_tolerance_widens_the_answer_sets(trio, zero2):
    word = (0, 1, 0, 0, 1, 0)
    tight = identify(word, zero2, trio)
    loose = identify(word, zero2, trio, tie_tol=1e6)
    assert len(loose.ml_indices) == sum(s.admissible for s in tight.scores)
    assert set(tight.ml_indices) <= set(loose.ml_indices)
    assert loose.tie_tolerance == 1e6


def test_validation_errors(golden, zero2):
    with pytest.raises(ValidationError):
        identify((0, 1), zero2, ())
    with pytest.raises(ValidationError):
        identify((0, 1), zero2, (golden,), tie_tol=-1e-9)
    with pytest.raises(ValidationError):
        identify((0, 1), zero2, (golden, Grammar.from_rows([[1] * 3] * 3)))
    with pytest.raises(ValidationError):
        identify((0, 3), zero2, (golden,))


def test_the_word_is_checked_before_the_class_is_solved(monkeypatch):
    def solve(grammars, potential):
        raise AssertionError("the class was solved before the word was checked")

    monkeypatch.setattr(importlib.import_module("sftlearn.identify"), "chain_stack", solve)
    lex4 = Lexicon(4)
    with pytest.raises(ValidationError, match="^symbol 7 outside lexicon of size 4$"):
        identify((0, 7), Potential.zero(lex4), enumerate_grammars(lex4))


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

def test_constant_shift_leaves_scores_and_sets_unchanged(trio, lex2):
    base = Potential.from_table(lex2, 2, {(0, 1): 0.3, (1, 0): -0.4})
    shifted = Potential.from_table(
        lex2, 2,
        {w: base.value(w) + 0.7 for w in itertools.product((0, 1), repeat=2)})
    word = sample(gibbs_chain(trio[1], base), 60, seed=9).word
    a = identify(word, base, trio)
    b = identify(word, shifted, trio)
    assert a.ml_indices == b.ml_indices
    assert a.min_entropy_indices == b.min_entropy_indices
    # the chain itself is invariant, so individual scores agree too — up to
    # the rounding the rescaled transfer matrix introduces
    for sa, sb in zip(a.scores, b.scores):
        assert sa.log_likelihood == pytest.approx(sb.log_likelihood, abs=1e-9)
        if sa.admissible:
            assert sa.entropy == pytest.approx(sb.entropy, abs=1e-9)


def test_relabeling_equivariance():
    lex = Lexicon(3)
    grammars = (
        Grammar.from_rows([[1, 1, 0], [1, 0, 1], [1, 0, 0]]),
        Grammar.from_rows([[1, 1, 0], [1, 0, 1], [1, 1, 0]]),
        Grammar.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    )
    phi = Potential.from_table(lex, 2, {(0, 1): 0.5, (2, 0): -0.25})
    word = sample(gibbs_chain(grammars[0], phi), 50, seed=4).word

    perm = (2, 0, 1)   # relabel symbol s as perm[s]
    inv = tuple(perm.index(s) for s in range(3))

    def relabeled_grammar(g):
        return Grammar.from_rows(
            [[g.matrix[inv[a]][inv[b]] for b in range(3)] for a in range(3)])

    relabeled = tuple(relabeled_grammar(g) for g in grammars)
    phi_r = Potential.from_table(
        lex, 2, {tuple(perm[s] for s in w): v for w, v in phi.entries})
    word_r = tuple(perm[s] for s in word)

    a = identify(word, phi, grammars)
    b = identify(word_r, phi_r, relabeled)
    assert a.ml_indices == b.ml_indices
    assert a.min_entropy_indices == b.min_entropy_indices
    for sa, sb in zip(a.scores, b.scores):
        if sa.admissible:
            assert sa.log_likelihood == pytest.approx(sb.log_likelihood, abs=1e-9)
            assert sa.entropy == pytest.approx(sb.entropy, abs=1e-9)


def test_min_entropy_set_contains_the_primitive_closure(trio, full2, zero2):
    # at zero potential the closure of the word, when primitive and in the
    # class, is never beaten: any admitting grammar contains the closure and
    # entropy grows with the language
    chain = gibbs_chain(full2, zero2)
    hits = 0
    for seed in range(25):
        word = sample(chain, 30, seed=seed).word
        closure = Grammar.from_rows(transition_closure(word, full2.lexicon))
        out = identify(word, zero2, trio)
        if closure in trio:
            hits += 1
            assert closure in out.min_entropy_set
    assert hits > 0


# ---------------------------------------------------------------------------
# sampled-word asymptotics, kept at Monte Carlo scale
# ---------------------------------------------------------------------------

def test_smaller_grammars_are_excluded_along_typical_samples(trio, full2, zero2):
    # every transition the sub-grammars miss has positive frequency under the
    # full shift, so by n=2000 they should almost never remain admissible
    chain = gibbs_chain(full2, zero2)
    survived = 0
    for seed in range(200):
        word = sample(chain, 2000, seed=seed).word
        out = identify(word, zero2, trio)
        if out.scores[0].admissible or out.scores[1].admissible:
            survived += 1
    assert survived / 200 < 0.01


def test_cylinder_domination_kicks_in_at_length_four(golden, full2, zero2, lex2):
    """Exhaustively over golden-admissible words: the golden chain outweighs
    the full chain from length 4 on, with the only failures at 1 and 3."""
    chain_g = gibbs_chain(golden, zero2)
    chain_f = gibbs_chain(full2, zero2)
    failures = {}
    for n in range(1, 13):
        bad = [w for w in all_words(lex2, n)
               if admits(golden, w)
               and cylinder_log_measure(chain_g, w) <= cylinder_log_measure(chain_f, w)]
        if bad:
            failures[n] = bad
    assert set(failures) == {1, 3}
    assert failures[1] == [(1,)]
    assert failures[3] == [(1, 0, 1)]


# ---------------------------------------------------------------------------
# identification along the prefixes of one sampled word
# ---------------------------------------------------------------------------

def test_curve_checkpoints_must_increase():
    for bad, message in (((10, 10), "increasing"), ((0, 5), "at least 1"), ((), "at least one")):
        with pytest.raises(ValidationError, match=message):
            validate_checkpoints(bad)


def test_checkpoints_are_checked_not_truncated():
    for bad in ((10.9, 50.2), (10, 50.0), (True, 5), (np.float64(3.0),)):
        with pytest.raises(ValidationError, match="^checkpoint must be an integer"):
            validate_checkpoints(bad)
    assert validate_checkpoints((np.int64(10), 50)) == [10, 50]
    assert validate_checkpoints(np.array([1, 5])) == [1, 5]


def test_curve_stabilizes_on_the_truth(golden, trio, zero2):
    chain = gibbs_chain(golden, zero2)
    stabilized = 0
    for seed in range(100):
        word = sample(chain, 1000, seed=seed).word
        if all(identify(word[:c], zero2, trio).ml_set == frozenset({golden}) for c in (100, 1000)):
            stabilized += 1
    assert stabilized >= 95


def test_curve_scores_under_the_candidates_potential(golden, trio, zero2, lex2):
    # the word comes from a range-3 chain and the candidates score at range 2;
    # a word over three symbols cannot feed a two-symbol class
    phi3 = Potential.from_table(lex2, 3, {(0, 1, 0): 1.0})
    word = sample(gibbs_chain(golden, phi3), 30, seed=4).word
    chains = [gibbs_chain(g, zero2) for g in trio]
    for c in (1, 2, 30):
        out = identify(word[:c], zero2, trio)
        assert out.n == c
        assert [s.log_likelihood for s in out.scores] == \
            [cylinder_log_measure(chain, word[:c]) for chain in chains]
    full3 = Grammar.from_rows([[1, 1, 1]] * 3)
    word3 = sample(gibbs_chain(full3, Potential.zero(Lexicon(3))), 30, seed=0).word
    assert 2 in word3
    with pytest.raises(ValidationError, match="outside lexicon"):
        identify(word3, zero2, trio)


@pytest.mark.parametrize("word, bad", [
    ((0, 1.9), 1.9), ((True, 0), True), (("0", "1"), "0"), ((np.float64(0.0), 1), np.float64(0.0)),
], ids=["float", "bool", "str", "numpy-float"])
def test_scoring_rejects_non_integer_symbols_instead_of_rounding_them(trio, zero2, word, bad):
    chain = gibbs_chain(trio[0], zero2)
    message = f"^word symbol must be an integer, got {re.escape(repr(bad))}$"
    for score in (identify, score_candidates):
        with pytest.raises(ValidationError, match=message):
            score(word, zero2, trio)
    with pytest.raises(ValidationError, match=message):
        cylinder_log_measure(chain, word)
