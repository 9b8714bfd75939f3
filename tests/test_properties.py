"""Thermodynamic laws that must hold for every potential, checked with
hypothesis over the theta=3 class, and the lockstep sampler's counts.

Examples are derandomized and bounded, so the suite stays deterministic
and fast.  Potential values lie in [-2, 2], where every weight is a normal
float and pressures differ from each other by far more than rounding.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftlearn import (
    Grammar,
    Lexicon,
    Potential,
    chain_stack,
    cylinder_log_measure,
    enumerate_grammars,
    gibbs,
    gibbs_chain,
    pressure_stack,
    sample,
)

from helpers import all_words

LEX3 = Lexicon(3)
GRAMMARS = enumerate_grammars(LEX3)
CLASSES = {2: enumerate_grammars(Lexicon(2)), 3: GRAMMARS}
FULL3_RANGE4 = gibbs_chain(Grammar(LEX3, ((1, 1, 1),) * 3), Potential.from_table(
    LEX3, 4, {w: ((7 * i) % 11 - 5) / 4 for i, w in enumerate(all_words(LEX3, 4))}))
CODES = {sum(bit << k for k, bit in enumerate(np.ravel(g.matrix))): i
         for i, g in enumerate(GRAMMARS)}
# (lower, upper): upper is lower plus one edge; a primitive matrix stays
# primitive when an edge is added, so every cover lies inside the class
COVERS = np.array([(i, CODES[code | 1 << k]) for code, i in CODES.items()
                   for k in range(9) if not code >> k & 1])
TOP = pressure_stack(GRAMMARS, Potential.zero(LEX3))

VALUES = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
PROPERTY = settings(derandomize=True, max_examples=15, deadline=None, database=None)


@st.composite
def potentials(draw, ranges=(2, 3)):
    r = draw(st.sampled_from(ranges))
    words = list(all_words(LEX3, r))
    values = draw(st.lists(VALUES, min_size=len(words), max_size=len(words)))
    return Potential.from_table(LEX3, r, dict(zip(words, values)))


@PROPERTY
@given(potentials())
def test_pressure_increases_strictly_along_every_single_edge_cover(phi):
    p = pressure_stack(GRAMMARS, phi)
    assert (p[COVERS[:, 1]] > p[COVERS[:, 0]]).all()


@PROPERTY
@given(potentials(), st.lists(VALUES, min_size=9, max_size=9))
def test_cohomologous_potentials_have_equal_pressure(phi, g):
    # phi + g(w_2..w_r) - g(w_1..w_{r-1}) with g on (range-1)-blocks; zip
    # takes only as many values of g as there are blocks
    g_of = dict(zip(all_words(LEX3, phi.range - 1), g))
    words = list(all_words(LEX3, phi.range))
    shifted = Potential.from_table(LEX3, phi.range, {
        w: phi.value(w) + g_of[w[1:]] - g_of[w[:-1]] for w in words})
    assert np.abs(pressure_stack(GRAMMARS, shifted) - pressure_stack(GRAMMARS, phi)).max() <= 1e-12


@PROPERTY
@given(potentials(ranges=(3,)), st.lists(VALUES, min_size=9, max_size=9))
def test_cohomologous_potentials_have_the_same_chain(phi, g):
    # phi + g(w_1..w_{r-1}) - g(w_2..w_r) weighs each transfer entry M(u, v) by
    # exp(g(u) - g(v)), a diagonal similarity whose factors cancel in the chain
    g_of = dict(zip(all_words(LEX3, 2), g))
    shifted = Potential.from_table(LEX3, 3, {
        w: phi.value(w) + g_of[w[:-1]] - g_of[w[1:]] for w in all_words(LEX3, 3)})
    for a, b in zip(chain_stack(GRAMMARS, phi), chain_stack(GRAMMARS, shifted)):
        assert a.states == b.states
        assert np.abs(a.transition - b.transition).max() <= 1e-9
        assert np.abs(a.stationary - b.stationary).max() <= 1e-9


@PROPERTY
@given(potentials())
def test_entropy_is_at_most_the_topological_entropy(phi):
    entropies = np.array([c.entropy for c in chain_stack(GRAMMARS, phi)])
    assert (entropies <= TOP + 1e-12).all()


@PROPERTY
@given(potentials(), st.sampled_from(range(len(GRAMMARS))))
def test_chain_rows_are_stochastic_and_the_law_stationary(phi, k):
    chain = chain_stack(GRAMMARS[k:k + 1], phi)[0]
    assert np.abs(chain.transition.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(chain.stationary @ chain.transition - chain.stationary).sum() <= 1e-12
    assert math.isclose(chain.stationary.sum(), 1.0, abs_tol=1e-12)


@PROPERTY
@given(potentials(), st.sampled_from(range(len(GRAMMARS))), st.integers(0, 40),
       st.integers(0, 2**32 - 1), st.sampled_from(LEX3.symbols))
def test_extending_a_word_adds_the_log_transition_of_its_step(phi, k, extra, seed, a):
    chain = chain_stack(GRAMMARS[k:k + 1], phi)[0]
    word = sample(chain, phi.range - 1 + extra, seed).word
    longer = cylinder_log_measure(chain, word + (a,))
    if not GRAMMARS[k].matrix[word[-1]][a]:
        assert longer == -math.inf
        return
    block = phi.range - 1
    step = chain.transition[chain.states.index(word[len(word) - block:]),
                            chain.states.index((word + (a,))[len(word) + 1 - block:])]
    assert abs(longer - cylinder_log_measure(chain, word) - math.log(step)) <= 1e-12


@PROPERTY
@given(potentials((2, 3, 4)), st.integers(0, 2**32 - 1))
def test_cylinder_measures_satisfy_the_gibbs_identity(phi, seed):
    # log mu[w] = S_n phi(w) - (n - r + 1) P + log nu[first block] + log h[last block]
    # for the chain P(u, v) = M(u, v) h(v) / (lam h(u)) with nu @ h == 1, at ranges 2-4
    # (up to 27 blocks at range 4)
    t, r = LEX3.theta, phi.range
    places = t ** np.arange(r - 1, -1, -1)
    table = np.array([phi.value(v) for v in all_words(LEX3, r)])
    eps = np.finfo(float).eps
    for chain in chain_stack(GRAMMARS, phi):
        drawn = np.array(sample(chain, 400, seed).word)
        for n in (r - 1, r, 7, 60, 400):
            w = drawn[:n]
            codes = (np.lib.stride_tricks.sliding_window_view(w, r) @ places
                     if n >= r else np.zeros(0, dtype=np.int64))
            first = chain.index[w[:r - 1] @ places[1:]]
            last = chain.index[w[n - r + 1:] @ places[1:]]
            steps = np.log(chain.transition[chain.index[codes // t],
                                            chain.index[codes % t ** (r - 1)]])
            phis = table[codes]
            log_nu, log_h = math.log(chain.nu[first]), math.log(chain.h[last])
            closed = phis.sum() - (n - r + 1) * chain.pressure + log_nu + log_h
            bound = 16 * eps * (n + np.abs(phis).sum() + (n - r + 1) * abs(chain.pressure)
                                + abs(log_nu) + abs(log_h) + np.abs(steps).sum())
            assert abs(cylinder_log_measure(chain, tuple(w.tolist())) - closed) <= bound


@st.composite
def chains(draw):
    """The chain of a theta=2 or theta=3 grammar under a potential of range 2 to 4."""
    grammars = CLASSES[draw(st.sampled_from(sorted(CLASSES)))]
    lex, r = grammars[0].lexicon, draw(st.sampled_from((2, 3, 4)))
    words = list(all_words(lex, r))
    values = draw(st.lists(VALUES, min_size=len(words), max_size=len(words)))
    return gibbs_chain(draw(st.sampled_from(grammars)),
                       Potential.from_table(lex, r, dict(zip(words, values))))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@example(FULL3_RANGE4, gibbs._SEED_BATCH + 5, 0, [1, 3, 37, 300])   # two batches, d = 27
@given(chains(), st.integers(1, gibbs._SEED_BATCH + 5), st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, 300), min_size=1, max_size=6, unique=True).map(sorted))
def test_lockstep_counts_are_the_prefix_counts_of_the_words_of_sample(chain, count, base, ends):
    # the head codes the word's first block, and each checkpoint's counts are the
    # bincount of the range-words of its prefix, counted apart for every seed
    seeds = range(base, base + count)
    n = max(ends[-1], chain.potential.range - 1)
    heads, counts = map(np.concatenate, zip(*gibbs._sample_counts(chain, seeds, ends)))
    assert len(heads) == len(counts) == count
    for seed, head, rows in zip(seeds, heads.tolist(), counts):
        word = sample(chain, n, seed).word
        assert head == gibbs._word_counts(chain.potential, word)[0]
        assert rows.tolist() == [gibbs._word_counts(chain.potential, word[:end])[1].tolist()
                                 for end in ends]
