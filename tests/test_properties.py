"""Thermodynamic laws that must hold for every potential, checked with
hypothesis over the theta=3 class.

Examples are derandomized and bounded, so the suite stays deterministic
and fast.  Potential values lie in [-2, 2], where every weight is a normal
float and pressures differ from each other by far more than rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlearn import (
    Lexicon,
    Potential,
    chain_stack,
    cylinder_log_measure,
    enumerate_grammars,
    pressure_stack,
    sample,
)

from helpers import all_words

LEX3 = Lexicon(3)
GRAMMARS = enumerate_grammars(LEX3)
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
