"""Transfer matrices, Perron data, Gibbs chains, cylinders, and sampling.

Ground truth throughout comes from the 2x2 closed forms: for the matrix
[[1,1],[1,w]] the leading eigenvalue is lam(w) = ((1+w) + sqrt((w-1)^2+4))/2,
and at w = 1 resp. the golden-mean grammar this collapses to 2 resp. the
golden ratio.
"""

import bisect
import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlearn import (
    Grammar,
    Lexicon,
    PerronConvergenceError,
    Potential,
    TransferMatrix,
    ValidationError,
    build_transfer,
    chain_stack,
    cylinder_log_measure,
    entropy_via_pressure_derivative,
    enumerate_grammars,
    expected_potential,
    gibbs_chain,
    periodic_orbit_potential,
    perron,
    pressure,
    pressure_stack,
    sample,
)
from sftlearn import experiments, gibbs

from helpers import admits, all_words, comparable_pairs

PHI = (1 + math.sqrt(5)) / 2


def lam_closed(w):
    return ((1 + w) + math.sqrt((w - 1) ** 2 + 4)) / 2


def dlam_closed(w):
    return (1 + (w - 1) / math.sqrt((w - 1) ** 2 + 4)) / 2


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_zero_potential_has_empty_table(lex2, zero2):
    assert zero2.entries == ()
    assert zero2.range == 2
    assert zero2.value((0, 1)) == 0.0


def test_potential_canonicalization_drops_zeros_and_sorts(lex2):
    p = Potential.from_table(lex2, 2, {(1, 0): -0.5, (0, 1): 0.25, (1, 1): 0.0})
    assert p.entries == (((0, 1), 0.25), ((1, 0), -0.5))
    assert p.value((1, 1)) == 0.0


def test_potential_rejects_duplicates_wrong_length_and_non_finite(lex2):
    with pytest.raises(ValidationError):
        Potential(lex2, 2, (((0, 1), 1.0), ((0, 1), 2.0)))
    with pytest.raises(ValidationError):
        Potential.from_table(lex2, 2, {(0, 1, 1): 1.0})
    with pytest.raises(ValidationError):
        Potential.from_table(lex2, 2, {(0, 1): math.inf})
    with pytest.raises(ValidationError):
        Potential(lex2, 1, ())


def test_potential_table_words_are_checked_not_coerced(lex2):
    for word in ((0, 1.9), (True, 0), (np.float64(0.0), 1), 5):
        with pytest.raises(ValidationError, match=f"^table word {re.escape(repr(word))}: symbol"):
            Potential(lex2, 2, ((word, 1.0),))
    # a set's members come in hash order, so a frozenset key is no table word
    with pytest.raises(ValidationError, match=r"^table word frozenset\(\{0, 1\}\): symbols must "
                                              r"come in a sequence, got frozenset\(\{0, 1\}\)$"):
        Potential.from_table(lex2, 2, {frozenset({0, 1}): 1.0})
    with pytest.raises(ValidationError, match="outside lexicon of size 2"):
        Potential(lex2, 2, (((0, 2), 1.0),))
    p = Potential(lex2, 2, (((np.int64(0), np.uint8(1)), 1.0),))
    assert p.entries == (((0, 1), 1.0),)
    assert [type(s) for s in p.entries[0][0]] == [int, int]


def test_potential_entries_and_tables_are_checked_not_unpacked(lex2):
    for entries, message in [
        (5, "potential entries must come in a sequence, got 5"),
        ({(0, 1): 1.0}, "potential entries must come in a sequence, got {(0, 1): 1.0}"),
        ([((0, 1),)], "potential entry must be a (word, value) pair, got ((0, 1),)"),
        ([((0, 1), 1.0, 2.0)],
         "potential entry must be a (word, value) pair, got ((0, 1), 1.0, 2.0)"),
        (["01"], "potential entry must be a (word, value) pair, got '01'"),
        ([5], "potential entry must be a (word, value) pair, got 5"),
    ]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Potential(lex2, 2, entries)
    with pytest.raises(ValidationError,
                       match=r"^potential table must be a mapping, got \[\(\(0, 1\), 1\.0\)\]$"):
        Potential.from_table(lex2, 2, [((0, 1), 1.0)])
    assert Potential(lex2, 2, [[(0, 1), 1.0]]) == Potential.from_table(lex2, 2, {(0, 1): 1.0})


def test_potential_value_checks_symbols_like_construction(lex2):
    phi = Potential.from_table(lex2, 2, {(0, 1): 0.5, (1, 0): -1.0})
    for word in ((0.0, 1), (True, 0), (0, 1.9), (np.float64(1.0), 0), 5):
        with pytest.raises(ValidationError, match=f"^word {re.escape(repr(word))}: symbol"):
            phi.value(word)
    assert phi.value((np.int64(0), np.uint8(1))) == 0.5
    assert phi.value([1, 0]) == -1.0
    # an integer outside the lexicon, or a word of another length, reads 0
    for word in ((0, 2), (-1, 1), (0, 1, 0), ()):
        assert phi.value(word) == 0.0


def test_potential_range_is_checked_not_truncated(lex2):
    for bad in (2.7, 3.0, True, np.float64(3.0), "3"):
        with pytest.raises(ValidationError, match="^potential range must be an integer"):
            Potential(lex2, bad, ())
    for good in (3, np.int64(3), np.uint8(3)):
        p = Potential(lex2, good, ())
        assert p.range == 3 and type(p.range) is int


def test_sample_length_and_seed_are_checked_not_coerced(golden, zero2):
    chain = gibbs_chain(golden, zero2)
    for n, seed, name in ((10.0, 1, "sample length"), (10, True, "seed"), (10, 1.0, "seed")):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            sample(chain, n, seed)
    drawn = sample(chain, np.int64(10), np.uint8(1))
    assert drawn == sample(chain, 10, 1) and type(drawn.seed) is int


def test_potential_scaling(lex2):
    p = Potential.from_table(lex2, 2, {(0, 1): 0.4})
    assert p.scaled(2.5).value((0, 1)) == pytest.approx(1.0)
    assert p.scaled(0.0).entries == ()


# ---------------------------------------------------------------------------
# transfer matrices and Perron data
# ---------------------------------------------------------------------------

def test_transfer_at_zero_potential_is_the_incidence_matrix(golden, zero2):
    tm = build_transfer(golden, zero2)
    assert tm.states == ((0,), (1,))
    assert tm.entries.tolist() == [[1.0, 1.0], [1.0, 0.0]]


def test_transfer_weights_are_exponentials(full2, lex2):
    phi = Potential.from_table(lex2, 2, {(1, 1): 0.5, (0, 1): -1.0})
    tm = build_transfer(full2, phi)
    # weights are stored as exp(phi - shift), shifted by the midpoint of phi
    assert tm.shift == -0.25
    weights = tm.entries * math.exp(tm.shift)
    assert weights[1, 1] == pytest.approx(math.exp(0.5), rel=1e-15)
    assert weights[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert weights[0, 0] == pytest.approx(1.0, rel=1e-15)


def test_transfer_blocks_for_longer_range(golden, lex2):
    phi = Potential.from_table(lex2, 3, {(0, 1, 0): 1.0})
    tm = build_transfer(golden, phi)
    assert tm.states == ((0, 0), (0, 1), (1, 0))   # (1,1) is inadmissible
    i, j = tm.states.index((0, 1)), tm.states.index((1, 0))
    assert tm.entries[i, j] * math.exp(tm.shift) == pytest.approx(math.e, rel=1e-15)


def test_transfer_lexicon_mismatch(golden):
    with pytest.raises(ValidationError):
        build_transfer(golden, Potential.zero(Lexicon(3)))


def test_perron_golden_mean(golden, zero2):
    lam, h, nu = perron(build_transfer(golden, zero2))
    assert lam == pytest.approx(PHI, abs=1e-12)
    assert h.sum() == pytest.approx(1.0)
    assert nu @ h == pytest.approx(1.0)
    # right eigenvector of [[1,1],[1,0]] is proportional to (phi, 1)
    assert h[0] / h[1] == pytest.approx(PHI, abs=1e-10)


def test_perron_full_shift_is_exact(full2, zero2):
    lam, h, nu = perron(build_transfer(full2, zero2))
    assert lam == pytest.approx(2.0, abs=1e-13)
    assert h == pytest.approx(np.array([0.5, 0.5]))


def test_perron_certificate_rejects_a_reducible_matrix(full2, zero2):
    # The identity has a double Perron root and eigenvectors with zero
    # entries, so no positive pair can certify it.
    tm = TransferMatrix(full2, zero2, ((0,), (1,)), np.eye(2))
    with pytest.raises(PerronConvergenceError) as err:
        perron(tm)
    assert "2x2" in str(err.value)
    assert err.value.dim == 2 and not err.value.min_entry > 0


def test_transfer_rejects_underflowing_weights(full2, lex2):
    # a span of 800 fits once the weights are shifted by its midpoint ...
    phi = Potential.from_table(lex2, 2, {(1, 1): -800.0})
    assert pressure(full2, phi) == pytest.approx(math.log(PHI), abs=1e-12)
    # ... but no shift brings all of exp(-750) .. exp(750) into normal floats
    phi = Potential.from_table(lex2, 2, {(1, 1): -1500.0})
    with pytest.raises(ValidationError, match=r"span 1500.*-1500.0 at \(1, 1\).*0.0 at \(0, 0\)"):
        build_transfer(full2, phi)
    with pytest.raises(ValidationError):
        pressure(full2, phi)


def test_pressure_against_characteristic_roots(golden, full2, zero2, lex2):
    assert pressure(golden, zero2) == pytest.approx(math.log(PHI), abs=1e-9)
    assert pressure(full2, zero2) == pytest.approx(math.log(2), abs=1e-12)
    for energy in (0.75, -0.4, 1.3):
        phi = Potential.from_table(lex2, 2, {(1, 1): energy})
        assert pressure(full2, phi) == pytest.approx(
            math.log(lam_closed(math.exp(energy))), abs=1e-12)
    # phi(01) = c gives [[1, e^c], [1, 1]], whose Perron root is 1 + e^(c/2);
    # at |c| = 50 the entries span 22 orders of magnitude, and at |c| = 720
    # e^c itself overflows a float
    for c in (30.0, -30.0, 50.0, -50.0, 720.0, -720.0):
        phi = Potential.from_table(lex2, 2, {(0, 1): c})
        assert pressure(full2, phi) == pytest.approx(math.log1p(math.exp(c / 2)), abs=1e-12)


def test_solver_oracle_properties_over_the_theta3_class():
    """On every primitive theta=3 grammar under random range-2 and range-3
    potentials: P(phi + c) = P(phi) + c, P(phi + g o sigma - g) = P(phi) for
    a function g on (range-1)-blocks, and the chain is stochastic with the
    stationary law it reports."""
    lex3 = Lexicon(3)
    grammars = enumerate_grammars(lex3)
    assert len(grammars) == 139
    rng = np.random.default_rng(3)
    g_rng = np.random.default_rng(4)
    for r in (2, 2, 3):
        words = list(all_words(lex3, r))
        values = rng.uniform(-1.0, 1.0, size=len(words))
        c = float(rng.uniform(1.5, 3.0))   # keeps P(phi) + c >= 0.5, so rel is meaningful
        phi = Potential.from_table(lex3, r, dict(zip(words, values)))
        shifted = Potential.from_table(lex3, r, dict(zip(words, values + c)))
        g_of = dict(zip(all_words(lex3, r - 1), g_rng.uniform(-1.0, 1.0, size=3 ** (r - 1))))
        cohomologous = Potential.from_table(lex3, r, {
            w: v + g_of[w[1:]] - g_of[w[:-1]] for w, v in zip(words, values)})
        for g in grammars:
            chain = gibbs_chain(g, phi)
            # build_transfer subtracts the midpoint of phi, which absorbs c,
            # so the solver sees the factor e^c only in a hand-scaled matrix
            tm = build_transfer(g, phi)
            scaled = TransferMatrix(g, phi, tm.states, tm.entries * math.exp(c))
            assert math.log(perron(scaled)[0]) == pytest.approx(
                chain.pressure - tm.shift + c, rel=1e-12)
            assert pressure(g, shifted) == pytest.approx(chain.pressure + c, rel=1e-12)
            assert pressure(g, cohomologous) == pytest.approx(chain.pressure, abs=1e-12)
            assert np.abs(chain.transition.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(chain.stationary @ chain.transition - chain.stationary).sum() <= 1e-12


def test_pressure_is_convex_along_potential_rays(full2, lex2):
    phi = Potential.from_table(lex2, 2, {(1, 1): 1.0, (0, 0): -0.5})
    ts = (-1.0, -0.5, 0.0, 0.5, 1.0)
    values = [pressure(full2, phi.scaled(t)) for t in ts]
    for a, b, c in zip(values, values[1:], values[2:]):
        assert b <= (a + c) / 2 + 1e-10


# ---------------------------------------------------------------------------
# class solves
# ---------------------------------------------------------------------------

def _class_potentials(lex):
    """The zero potential and seeded random range-2, range-3 and range-4 tables."""
    rng = np.random.default_rng(11)
    out = [Potential.zero(lex)]
    for r in (2, 3, 4):
        words = list(all_words(lex, r))
        values = rng.uniform(-2.0, 2.0, len(words))
        out.append(Potential.from_table(lex, r, dict(zip(words, values))))
    return out


def _bounded_eig(monkeypatch, budget):
    """Patch ``np.linalg.eig`` and ``np.linalg.eigvals`` to fail on a stack
    of more than ``budget`` matrix entries (sum of d^2 over the matrices,
    not their transposes) unless it holds one matrix.  Returns a list that
    gets, per solved stack, its number of matrices k and whether it also
    holds their transposes: a chain solve's stack is ``(M_1..M_k,
    M_1^T..M_k^T)``, a pressure solve's ``(M_1..M_k)``."""
    sizes = []

    def bounded(real):
        def solve(a):
            n, d = a.shape[0], a.shape[-1]
            both = n % 2 == 0 and bool((a[n // 2:] == a[:n // 2].transpose(0, 2, 1)).all())
            k = n // 2 if both else n
            assert k * d * d <= max(budget, d * d)
            sizes.append((k, both))
            return real(a)
        return solve

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, bounded(getattr(np.linalg, name)))
    return sizes


@pytest.mark.parametrize("theta", [2, 3])
def test_class_solves_equal_the_single_solves_exactly(theta, monkeypatch):
    lex = Lexicon(theta)
    grammars = enumerate_grammars(lex)
    potentials = _class_potentials(lex)
    singles = [[(build_transfer(g, phi), gibbs_chain(g, phi), pressure(g, phi)) for g in grammars]
               for phi in potentials]
    groups = {(phi.range, d): n for phi in potentials
              for d, n in enumerate(np.bincount(gibbs._class_blocks(grammars, phi)[1]))
              if n}
    # a budget of 40 entries splits some block count's group of one potential
    assert any(n > 1 and n * d * d > 40 for (_, d), n in groups.items())
    # one matrix per stack, a potential's class split across stacks, the whole family at once
    for budget in (1, 40, 1 << 30):
        monkeypatch.undo()
        monkeypatch.setattr(gibbs, "_EIG_ENTRIES", budget)
        sizes = _bounded_eig(monkeypatch, budget)
        family = gibbs._pressure_family(grammars, potentials)
        if budget == 1:
            assert {k for k, _ in sizes} == {1}
        if budget == 1 << 30:   # one stack per range and block count
            assert len(sizes) == len(groups)
            # K x P matrices in all, and no transpose: pressures need no left vector
            assert sum(k for k, _ in sizes) == len(grammars) * len(potentials)
            assert not any(both for _, both in sizes)
        for phi, row, single in zip(potentials, family, singles):
            expected = [p for *_, p in single]
            assert row.tolist() == pressure_stack(grammars, phi).tolist() == expected
            for chain, g, (tm, one, _) in zip(chain_stack(grammars, phi), grammars, single):
                lam, h, nu = perron(tm)
                assert chain.grammar == g and chain.states == tm.states
                assert chain.pressure == math.log(lam) + tm.shift
                assert (chain.h == h).all() and (chain.nu == nu).all()
                assert (chain.pressure, chain.entropy, chain.lam) \
                    == (one.pressure, one.entropy, one.lam)
                assert (chain.transition == one.transition).all()
                assert (chain.stationary == one.stationary).all()


def _first_failures(grammars, phi):
    """Grammars ``a < b`` where ``b`` has fewer blocks under ``phi``, so its
    group is solved first, and the block counts of all grammars."""
    dims = [len(build_transfer(g, phi).states) for g in grammars]
    a = next(k for k in range(len(dims)) if min(dims[k + 1:]) < dims[k])
    b = next(j for j in range(a + 1, len(dims)) if dims[j] < dims[a])
    return a, b, dims


def _planted(d, value):
    """``value * diag(1, 0, ..., 0)``, ``d`` by ``d``."""
    return np.diag(np.eye(d)[0] * value)


def _uncertifiable(monkeypatch, failing, block_codes=None, sign=1.0, matrix=None):
    """Patch ``_transfer_stack`` so that each grammar ``k`` in ``failing``
    gets ``sign * (k + 1) diag(1, 0, ..., 0)``, which fails the certificate
    (no primitive grammar yields an uncertifiable matrix): its zero rows put
    the bracket's lower end at 0 for any positive ``h``.  Or it gets
    ``matrix`` if given, under every potential, or only under those whose
    blocks have ``block_codes`` codes, theta^(range - 1)."""
    real = gibbs._transfer_stack

    def broken(grown, potentials):
        k, codes = grown[0].shape
        for members, shifts, stack in real(grown, potentials):
            stack = stack.copy()
            for i, m in enumerate(members):
                if m % k in failing and block_codes in (None, codes):
                    stack[i] = (_planted(stack.shape[-1], sign * (m % k + 1)) if matrix is None
                                else matrix)
            yield members, shifts, stack

    monkeypatch.setattr(gibbs, "_transfer_stack", broken)


def test_class_solves_raise_the_first_failing_grammar_in_input_order(monkeypatch):
    lex3 = Lexicon(3)
    grammars = enumerate_grammars(lex3)
    phi = _class_potentials(lex3)[2]
    a, b, dims = _first_failures(grammars, phi)
    _uncertifiable(monkeypatch, (a, b))
    for solve in (pressure_stack, chain_stack):
        with pytest.raises(PerronConvergenceError) as err:
            solve(grammars, phi)
        assert (err.value.lam, err.value.dim) == (a + 1, dims[a])
    monkeypatch.undo()
    with pytest.raises(PerronConvergenceError) as single:
        perron(TransferMatrix(grammars[a], phi, (), _planted(dims[a], a + 1)))
    assert str(err.value) == str(single.value)


def test_pressures_are_certified_by_h_alone_and_chains_by_both_vectors(monkeypatch):
    """``[[2, 0], [1, 1]]`` has ``h = (1, 1)``, whose Collatz-Wielandt bracket is
    exactly [2, 2], but ``nu = (1, 0)``: its pressure is certified, its chain is not.
    Its transpose has ``h = (1, 0)`` and fails on every path."""
    lex2 = Lexicon(2)
    grammars = enumerate_grammars(lex2)
    phi = _class_potentials(lex2)[1]   # range 2: every grammar has d = 2
    shift = build_transfer(grammars[0], phi).shift
    assert shift
    family = [Potential.zero(lex2), phi]
    for planted, h_positive in (([[2.0, 0.0], [1.0, 1.0]], True),
                                ([[2.0, 1.0], [0.0, 1.0]], False)):
        monkeypatch.undo()
        _uncertifiable(monkeypatch, (0,), matrix=np.array(planted))
        pressures = [lambda: pressure_stack(grammars, phi)[0], lambda: pressure(grammars[0], phi),
                     lambda: gibbs._pressure_family(grammars, family)[1, 0]]
        chains = [lambda: chain_stack(grammars, phi), lambda: gibbs_chain(grammars[0], phi),
                  lambda: perron(TransferMatrix(grammars[0], phi, (), np.array(planted)))]
        if h_positive:
            assert [solve() for solve in pressures] == [math.log(2.0) + shift] * 3
        for solve in chains if h_positive else chains + pressures:
            with pytest.raises(PerronConvergenceError) as err:
                solve()
            assert (err.value.dim, err.value.lam, err.value.min_entry) == (2, 2.0, 0.0)


def _unconvergent(monkeypatch, failing):
    """Plant ``-(k + 1) diag(1, 0, ..., 0)`` for each grammar ``k`` in
    ``failing``, and patch ``np.linalg.eig`` and ``np.linalg.eigvals`` to
    raise on a stack with a negative entry, as LAPACK's ``geev`` does when
    it does not converge, naming the largest ``k + 1``."""
    _uncertifiable(monkeypatch, failing, sign=-1.0)

    def unconvergent(real):
        def solve(a):
            if (a < 0).any():
                raise np.linalg.LinAlgError(f"Eigenvalues did not converge at {-a.min():g}")
            return real(a)
        return solve

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, unconvergent(getattr(np.linalg, name)))


def test_an_eig_that_does_not_converge_is_a_numerical_failure_of_the_first_grammar(
        monkeypatch, golden, zero2):
    lex3 = Lexicon(3)
    grammars = enumerate_grammars(lex3)
    phi = _class_potentials(lex3)[2]
    a, b, dims = _first_failures(grammars, phi)
    c = next(j for j in range(a + 1, len(dims)) if dims[j] == dims[a])   # in a's stack
    _unconvergent(monkeypatch, (a, b, c))
    for solve in (pressure_stack, chain_stack):
        with pytest.raises(RuntimeError) as err:
            solve(grammars, phi)
        # the stack of a and c is solved again one matrix at a time, after b's
        assert type(err.value) is RuntimeError and str(err.value) == (
            f"eigen-solve of a {dims[a]}x{dims[a]} matrix failed: "
            f"Eigenvalues did not converge at {a + 1}")
    monkeypatch.undo()
    _unconvergent(monkeypatch, (0,))
    with pytest.raises(RuntimeError, match=r"^eigen-solve of a 2x2 matrix failed: "
                                           r"Eigenvalues did not converge at 1$"):
        pressure(golden, zero2)


@pytest.mark.parametrize("theta", [2, 3, 4])
def test_pressures_from_eigenvalues_alone_have_the_bits_of_the_chains(theta):
    """A pressure's ``geev`` computes no eigenvectors, a chain's does, and
    both give the same Perron root, bit for bit: one grammar at a time
    under every potential of ``_class_potentials``, and for the theta=4
    class at range 2 under the zero potential, one stack per block count."""
    lex = Lexicon(theta)
    grammars = enumerate_grammars(lex)
    if theta == 4:
        zero = Potential.zero(lex)
        chains = chain_stack(grammars, zero)
        assert _bits([pressure_stack(grammars, zero)]) == _bits([[c.pressure for c in chains]])
        return
    for phi in _class_potentials(lex):
        got = [pressure(g, phi) for g in grammars]
        assert _bits([got]) == _bits([[gibbs_chain(g, phi).pressure for g in grammars]])


@pytest.mark.parametrize("bound", [5.0, 10.0, 25.0])
def test_pressures_keep_every_root_that_eig_certifies(monkeypatch, bound):
    """The pressure path certifies each matrix by ``h`` from two shifted
    solves, and a matrix that fails that goes through ``eig``'s certificate,
    as every pressure did before.  On a theta=3 family at ranges 2-4, every
    matrix that ``eig`` certifies keeps the bits of its root, alone and in
    its stack, and one that fails both raises ``eig``'s message.  The shifted
    solves alone fail some matrices that ``eig`` certifies."""
    lex3 = Lexicon(3)
    grammars = enumerate_grammars(lex3)
    potentials = experiments._random_potentials(lex3, 20, (2, 3, 4), bound, 7)
    real_eig, counts = np.linalg.eig, Counter()

    def refused(a):
        raise np.linalg.LinAlgError("refused")

    for r in (2, 3, 4):
        family = [phi for phi in potentials if phi.range == r]
        for members, _, stack in gibbs._transfer_stack(gibbs._class_blocks(grammars, family[0]),
                                                       family):
            alone = list(zip(members, stack[:, None]))
            by_eig = [gibbs._certified([m], one, False, by_eig=True) for m, one in alone]
            new = [gibbs._certified([m], one, False) for m, one in alone]
            monkeypatch.setattr(np.linalg, "eig", refused)
            solves = [gibbs._certified([m], one, False)[2] is None for m, one in alone]
            monkeypatch.setattr(np.linalg, "eig", real_eig)
            for (lam, _, failure), (got, _, error), solved in zip(by_eig, new, solves):
                counts[failure is None, error is None, solved] += 1
                if failure is None:
                    assert error is None and got.tobytes() == lam.tobytes()
                if error is not None:
                    assert failure is not None and str(error[1]) == str(failure[1])
            lam, _, failure = gibbs._certified(members, stack, False)
            first = next((error for _, _, error in new if error), None)
            if first is None:
                assert lam.tobytes() == np.concatenate([got for got, _, _ in new]).tobytes()
            else:
                assert failure[0] == first[0] and str(failure[1]) == str(first[1])
    assert sum(counts.values()) == 20 * len(grammars)
    if bound == 10.0:   # eig certifies, the shifted solves alone do not
        assert counts[True, True, False] > 0


@pytest.mark.parametrize("name", ["eigvals", "solve"])
def test_a_pressure_stack_that_raises_linalg_error_is_solved_by_eig(monkeypatch, name):
    """``LinAlgError`` subclasses ``ValueError``, which the CLI reads as bad
    input, so it never escapes the pressure path: a stack whose eigenvalues or
    shifted solves raise is certified by ``eig``, with the same roots."""
    lex3 = Lexicon(3)
    grammars = enumerate_grammars(lex3)
    potentials = _class_potentials(lex3)
    want = gibbs._pressure_family(grammars, potentials)

    def raises(*args):
        raise np.linalg.LinAlgError("refused")

    monkeypatch.setattr(np.linalg, name, raises)
    assert gibbs._pressure_family(grammars, potentials).tobytes() == want.tobytes()
    assert [pressure(g, potentials[2]) for g in grammars] == want[2].tolist()


@pytest.mark.parametrize("layout", ["fine cert span", "fine span cert", "span fine cert"])
def test_a_family_raises_the_error_of_its_first_failing_potential(monkeypatch, layout):
    lex3 = Lexicon(3)
    grammars = enumerate_grammars(lex3)
    fine, cert = _class_potentials(lex3)[1:3]   # ranges 2 and 3
    # range 2 like ``fine``, so the ranges are solved in another order than the potentials
    span = Potential.from_table(lex3, 2, {(2, 2): -1500.0, (0, 1): 2.0})
    family = [{"fine": fine, "cert": cert, "span": span}[name] for name in layout.split()]
    a, b, dims = _first_failures(grammars, cert)
    with pytest.raises(ValidationError) as span_err:
        pressure_stack(grammars, span)
    with pytest.raises(PerronConvergenceError) as cert_err:
        perron(TransferMatrix(grammars[a], cert, (), _planted(dims[a], a + 1)))
    _uncertifiable(monkeypatch, (a, b), block_codes=9)   # range 3 fails at a and b
    with pytest.raises((ValidationError, PerronConvergenceError)) as err:
        gibbs._pressure_family(grammars, family)
    want = (cert_err if layout.index("cert") < layout.index("span") else span_err).value
    assert type(err.value) is type(want) and str(err.value) == str(want)


def test_within_one_potential_bad_input_comes_before_any_solve():
    """A loop over the class fails first at grammar 44's certificate.  The
    class solves check every grammar's weights before they solve, so the
    span of 1500 at ``(0, 0)``, which only later grammars admit, wins."""
    lex3 = Lexicon(3)
    grammars = enumerate_grammars(lex3)
    phi = Potential.from_table(lex3, 2, {(0, 1): 60.0, (1, 0): 28.0, (0, 0): -1500.0})
    assert grammars[44].matrix == ((0, 1, 1), (1, 0, 0), (0, 1, 0))
    assert np.isfinite(pressure_stack(grammars[:44], phi)).all()
    first_span = next(k for k, g in enumerate(grammars) if g.matrix[0][0])
    assert first_span > 44
    with pytest.raises(ValidationError) as span:
        pressure(grammars[first_span], phi)
    for solve, alone in ((pressure_stack, pressure), (chain_stack, gibbs_chain)):
        with pytest.raises(PerronConvergenceError) as cert:
            alone(grammars[44], phi)
        with pytest.raises(PerronConvergenceError) as err:
            solve(grammars[:first_span], phi)
        assert str(err.value) == str(cert.value)
        with pytest.raises(ValidationError) as err:
            solve(grammars, phi)
        assert str(err.value) == str(span.value)


def test_class_solves_reject_underflow_with_the_message_of_pressure():
    lex3 = Lexicon(3)
    grammars = enumerate_grammars(lex3)
    phi = Potential.from_table(lex3, 3, {(2, 2, 2): -1500.0, (0, 1, 0): 2.0})
    failing = [g for g in grammars if g.matrix[2][2]]
    # the first failing grammar is not the one with the fewest blocks
    blocks = [len(build_transfer(g, Potential.zero(lex3, 3)).states) for g in failing]
    assert blocks[0] > min(blocks)
    with pytest.raises(ValidationError) as single:
        pressure(failing[0], phi)
    for solve in (pressure_stack, chain_stack):
        with pytest.raises(ValidationError) as err:
            solve(grammars, phi)
        assert str(err.value) == str(single.value)


def test_class_solves_reject_an_empty_class_and_a_foreign_lexicon(golden, zero2):
    for solve in (pressure_stack, chain_stack):
        with pytest.raises(ValidationError, match="empty"):
            solve((), zero2)
        with pytest.raises(ValidationError, match="lexicons"):
            solve((golden,), Potential.zero(Lexicon(3)))


def _oracle_transfer(g, phi):
    """States, code-to-state list and weights ``exp(phi)`` of a grammar's
    transfer matrix, by testing every word with ``admits``."""
    lex, r = g.lexicon, phi.range
    states = [w for w in all_words(lex, r - 1) if admits(g, w)]
    pos = {w: i for i, w in enumerate(states)}
    weights = np.zeros((len(states), len(states)))
    for w in all_words(lex, r):
        if admits(g, w):
            weights[pos[w[:-1]], pos[w[1:]]] = math.exp(phi.value(w))
    return states, [pos.get(w, -1) for w in all_words(lex, r - 1)], weights


def _class_transfers(grammars, phi):
    """``(states, index, entries * e^shift)`` of each grammar from one class
    build."""
    blocks = gibbs._class_blocks(grammars, phi)
    index, sizes = blocks[:2]
    states = gibbs._words(np.nonzero(index >= 0)[1], phi.lexicon.theta, phi.range - 1)
    ends = np.cumsum(sizes).tolist()
    out = [None] * len(grammars)
    for members, shifts, stack in gibbs._transfer_stack(blocks, [phi]):
        for i, k in enumerate(members):
            out[k] = (states[ends[k] - len(stack[i]):ends[k]], index[k],
                      stack[i] * math.exp(shifts[i]))
    return out


def _random_potential(lex, r, seed):
    words = list(all_words(lex, r))
    values = np.random.default_rng(seed).uniform(-2.0, 2.0, len(words))
    return Potential.from_table(lex, r, dict(zip(words, values)))


@pytest.mark.parametrize("theta", [2, 3])
def test_blocks_match_a_brute_force_oracle(theta):
    lex = Lexicon(theta)
    grammars = enumerate_grammars(lex)
    for r in (2, 3, 4):
        phi = _random_potential(lex, r, r)
        for g, whole in zip(grammars, _class_transfers(grammars, phi)):
            tm = build_transfer(g, phi)
            states, index, weights = _oracle_transfer(g, phi)
            for got in (whole, (tm.states, tm.index, tm.entries * math.exp(tm.shift))):
                assert list(got[0]) == states
                assert got[1].tolist() == index
                np.testing.assert_allclose(got[2], weights, rtol=1e-12, atol=0)


def test_theta4_class_blocks_match_the_incidence_matrices():
    lex = Lexicon(4)
    grammars = enumerate_grammars(lex)
    phi = _random_potential(lex, 2, 4)
    states, index, _ = _oracle_transfer(grammars[0], phi)   # every symbol is a block
    # at range 2 a word (a, b) is admissible iff entry (a, b) of the grammar is 1
    weights = np.array([[math.exp(phi.value((a, b))) for b in range(4)] for a in range(4)])
    got = _class_transfers(grammars, phi)
    assert all(list(s) == states and i.tolist() == index for s, i, _ in got)
    expected = np.array([g.matrix for g in grammars]) * weights
    np.testing.assert_allclose(np.array([w for *_, w in got]), expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Gibbs chains
# ---------------------------------------------------------------------------

def _oracle_logs(index, transition, stationary, t, r):
    """``GibbsChain._logs`` of one chain, computed alone."""
    codes = np.arange(t**r)
    src, dst = index[codes // t], index[codes % t ** (r - 1)]
    ok = (src >= 0) & (dst >= 0)
    blocks, words = np.full(t ** (r - 1), -np.inf), np.full(t**r, -np.inf)
    with np.errstate(divide="ignore"):
        words[ok] = np.log(transition[src[ok], dst[ok]])
        blocks[index >= 0] = np.log(stationary)
    return blocks, words


def _oracle_chains(grammars, phi):
    """Every field of each grammar's chain from the eigendata of the class
    solve, by the arithmetic of one chain at a time: ``(lam, pressure,
    entropy, h, nu, stationary, transition, log_blocks, log_words)``."""
    t, r = phi.lexicon.theta, phi.range
    blocks = gibbs._class_blocks(grammars, phi)
    out = [None] * len(grammars)
    for members, shifts, stack, lams, pair in gibbs._perron_stack(
            gibbs._transfer_stack(blocks, [phi]), left=True):
        for i, k in enumerate(members):
            lam, shift = float(lams[i]), float(shifts[i])
            h = pair[i][0] / pair[i][0].sum()
            nu = pair[i][1] / (pair[i][1] @ h)
            stationary = nu * h
            stationary = stationary / stationary.sum()
            transition = stack[i] * h[None, :] / (lam * h[:, None])
            support = transition > 0
            plogp = np.zeros_like(transition)
            plogp[support] = transition[support] * np.log(transition[support])
            entropy = float(-(stationary[:, None] * plogp).sum())
            p = math.log(lam) + shift
            if shift:
                lam = math.exp(p) if p <= gibbs._LOG_MAX else math.inf
            out[k] = (lam, p, entropy, h, nu, stationary, transition,
                      *_oracle_logs(blocks[0][k], transition, stationary, t, r))
    return out


def _bits(fields):
    return [(a.shape, a.tobytes()) for a in map(np.asarray, fields)]


@pytest.mark.parametrize("theta", [2, 3, 4])
def test_class_chains_have_the_bits_of_the_per_chain_arithmetic(theta):
    """``chain_stack`` computes a block count's chains together; every field
    has the bits of the same formulas applied to one chain alone, and the
    pressures those of ``pressure_stack``, which solves no transposes."""
    lex = Lexicon(theta)
    grammars = enumerate_grammars(lex)
    potentials = _class_potentials(lex) if theta < 4 else [_random_potential(lex, 2, 4)]
    for phi in potentials:
        chains = chain_stack(grammars, phi)
        assert _bits([pressure_stack(grammars, phi)]) == _bits([[c.pressure for c in chains]])
        for chain, want in zip(chains, _oracle_chains(grammars, phi), strict=True):
            arrays = (chain.h, chain.nu, chain.stationary, chain.transition)
            got = (chain.lam, chain.pressure, chain.entropy, *arrays, *chain._logs)
            assert _bits(got) == _bits(want)
            assert not any(a.flags.writeable for a in arrays)


def test_parry_chain_of_golden_mean(golden, zero2):
    chain = gibbs_chain(golden, zero2)
    assert chain.stationary == pytest.approx(
        np.array([PHI ** 2, 1.0]) / (1 + PHI ** 2), abs=1e-12)
    assert chain.transition == pytest.approx(
        np.array([[1 / PHI, 1 / PHI ** 2], [1.0, 0.0]]), abs=1e-12)
    # the measure of maximal entropy realizes the topological entropy
    assert chain.entropy == pytest.approx(math.log(PHI), abs=1e-10)


def test_parry_chain_of_swapped_golden_mean(swapped, zero2):
    chain = gibbs_chain(swapped, zero2)
    assert chain.stationary == pytest.approx(
        np.array([1.0, PHI ** 2]) / (1 + PHI ** 2), abs=1e-12)
    assert chain.transition[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert chain.transition[1, 0] == pytest.approx(1 / PHI ** 2, abs=1e-12)
    assert chain.transition[1, 1] == pytest.approx(1 / PHI, abs=1e-12)


def test_chain_rows_are_stochastic_and_stationary(golden, full2, swapped, lex2):
    phi = Potential.from_table(lex2, 2, {(0, 1): 0.3, (1, 0): -0.7})
    for g in (golden, full2, swapped):
        chain = gibbs_chain(g, phi)
        assert chain.transition.sum(axis=1) == pytest.approx(
            np.ones(len(chain.states)), abs=1e-10)
        assert chain.stationary @ chain.transition == pytest.approx(
            chain.stationary, abs=1e-10)
        assert chain.stationary.sum() == pytest.approx(1.0)


def test_entropy_identity_pressure_minus_mean_potential(golden, full2, swapped, lex2):
    phi = Potential.from_table(lex2, 2, {(0, 0): 0.9, (1, 0): -1.1})
    for g in (golden, full2, swapped):
        chain = gibbs_chain(g, phi)
        assert chain.entropy == pytest.approx(
            chain.pressure - expected_potential(chain, phi), abs=1e-10)


def test_entropy_via_finite_difference_matches(golden, lex2):
    phi = Potential.from_table(lex2, 2, {(0, 1): 0.6, (0, 0): -0.2})
    chain = gibbs_chain(golden, phi)
    assert entropy_via_pressure_derivative(golden, phi) == pytest.approx(
        chain.entropy, abs=1e-4)


def test_entropy_closed_form_for_weighted_full_shift(full2, lex2):
    energy = 0.8
    w = math.exp(energy)
    phi = Potential.from_table(lex2, 2, {(1, 1): energy})
    chain = gibbs_chain(full2, phi)
    expected = math.log(lam_closed(w)) - energy * w * dlam_closed(w) / lam_closed(w)
    assert chain.entropy == pytest.approx(expected, abs=1e-10)


def test_expected_potential_hand_value(full2, lex2):
    energy = 0.8
    phi = Potential.from_table(lex2, 2, {(1, 1): energy})
    chain = gibbs_chain(full2, phi)
    mass_11 = chain.stationary[1] * chain.transition[1, 1]
    assert expected_potential(chain, phi) == pytest.approx(energy * mass_11, abs=1e-12)


def test_expected_potential_rejects_mismatched_potential(golden, zero2, lex2):
    chain = gibbs_chain(golden, zero2)
    with pytest.raises(ValidationError):
        expected_potential(chain, Potential.from_table(lex2, 3, {(0, 1, 0): 1.0}))


# ---------------------------------------------------------------------------
# cylinder measures
# ---------------------------------------------------------------------------

def test_cylinder_hand_computation_for_0110(golden, full2, swapped, zero2):
    word = (0, 1, 1, 0)
    assert cylinder_log_measure(gibbs_chain(golden, zero2), word) == -math.inf
    assert math.exp(cylinder_log_measure(gibbs_chain(full2, zero2), word)) \
        == pytest.approx(1 / 16, abs=1e-12)
    expected = 1 / ((2 + PHI) * (2 * PHI + 1))
    assert math.exp(cylinder_log_measure(gibbs_chain(swapped, zero2), word)) \
        == pytest.approx(expected, abs=1e-12)


def test_cylinders_sum_to_one_and_are_consistent(golden, lex2):
    phi = Potential.from_table(lex2, 2, {(0, 1): 0.4})
    chain = gibbs_chain(golden, phi)
    for n in (1, 4, 7):
        total = sum(math.exp(cylinder_log_measure(chain, w))
                    for w in all_words(lex2, n) if admits(golden, w))
        assert total == pytest.approx(1.0, abs=1e-10)
    for w in all_words(lex2, 5):
        if not admits(golden, w):
            continue
        parent = cylinder_log_measure(chain, w)
        children = [cylinder_log_measure(chain, w + (a,)) for a in lex2.symbols]
        total = sum(math.exp(c) for c in children if c > -math.inf)
        assert total == pytest.approx(math.exp(parent), rel=1e-10)


def test_cylinder_shorter_than_a_block_sums_extensions(golden, lex2):
    phi = Potential.from_table(lex2, 3, {(0, 1, 0): 0.5})
    chain = gibbs_chain(golden, phi)
    # a 1-letter cylinder under a range-3 potential: blocks are pairs
    for a in lex2.symbols:
        direct = math.exp(cylinder_log_measure(chain, (a,)))
        spelled = sum(math.exp(cylinder_log_measure(chain, (a, b)))
                      for b in lex2.symbols if admits(golden, (a, b)))
        assert direct == pytest.approx(spelled, rel=1e-12)
    assert cylinder_log_measure(chain, ()) == 0.0


def test_cylinder_two_sided_gibbs_bounds(golden, lex2):
    """mu([w]) * lam^n / exp(S_n phi(w)) stays within constants set by the
    Perron eigenvectors, uniformly in n — the defining Gibbs inequality."""
    phi = Potential.from_table(lex2, 2, {(0, 0): 0.35, (1, 0): -0.6})
    chain = gibbs_chain(golden, phi)
    lo, hi = math.inf, -math.inf
    for n in range(2, 13):
        for w in all_words(lex2, n):
            if not admits(golden, w):
                continue
            birkhoff = sum(phi.value(w[i:i + 2]) for i in range(n - 1))
            ratio = cylinder_log_measure(chain, w) + n * chain.pressure - birkhoff
            lo, hi = min(lo, ratio), max(hi, ratio)
    assert math.isfinite(lo) and math.isfinite(hi)
    # bounds from the eigenvector data, independent of n
    c_lo = math.log(min(chain.nu) * min(chain.h)) + chain.pressure
    c_hi = math.log(max(chain.nu) * max(chain.h)) + chain.pressure
    assert c_lo - 1e-9 <= lo and hi <= c_hi + 1e-9


def _sequential_log_measure(chain, word):
    """Oracle: the log stationary mass of the first block plus the
    log-transitions of the steps, added one step at a time along the word;
    a word shorter than a block sums the stationary mass of its
    extensions."""
    r, w = chain.potential.range, tuple(word)
    if not w:
        return 0.0
    if len(w) < r - 1:
        total = sum(p for s, p in zip(chain.states, chain.stationary) if s[:len(w)] == w)
        return math.log(total) if total > 0 else -math.inf
    state = {s: i for i, s in enumerate(chain.states)}
    blocks = [w[i:i + r - 1] for i in range(len(w) - r + 2)]
    if any(b not in state for b in blocks):
        return -math.inf
    total = math.log(chain.stationary[state[blocks[0]]])
    for a, b in zip(blocks, blocks[1:]):
        p = chain.transition[state[a], state[b]]
        if p == 0:
            return -math.inf
        total += math.log(p)
    return total


@pytest.mark.parametrize("theta", [2, 3])
def test_cylinder_from_block_counts_matches_the_sequential_sum(theta):
    lex = Lexicon(theta)
    rng = np.random.default_rng(21)
    grammars = enumerate_grammars(lex)
    grammars = grammars[::max(1, len(grammars) // 12)]
    checked = 0
    for r in (2, 3, 4):
        words = list(all_words(lex, r))
        phi = Potential.from_table(lex, r, dict(zip(words, rng.uniform(-2.0, 2.0, len(words)))))
        for chain in chain_stack(grammars, phi):
            tests = [sample(chain, n, seed).word for n in (r - 1, r, 9, 200) for seed in (1, 2)]
            tests += [tuple(rng.integers(0, theta, n).tolist()) for n in range(8) for _ in range(3)]
            for w in tests:
                got, want = cylinder_log_measure(chain, w), _sequential_log_measure(chain, w)
                if want == -math.inf:
                    assert got == -math.inf, w
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0), w
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("r, word, forbidden", [
    (2, (0, 1, 1, 0), True),    # a forbidden step between admissible blocks
    (2, (0, 1, 0, 0), False),
    (3, (1, 1, 0, 1), True),    # an inadmissible first block
    (3, (1, 1), True),          # n == range - 1: the first block alone
    (3, (0, 1), False),
    (4, (1, 1), True),          # n < range - 1: no admissible extension
    (4, (1,), False),
])
def test_cylinder_forbidden_cases_match_the_sequential_sum(golden, lex2, r, word, forbidden):
    chain = gibbs_chain(golden, Potential.from_table(lex2, r, {(0,) * r: 0.5}))
    got, want = cylinder_log_measure(chain, word), _sequential_log_measure(chain, word)
    assert (got == -math.inf) == (want == -math.inf) == forbidden
    if not forbidden:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


class _OneWordKernel:
    """Oracle: the earlier one-word scoring formula, kept verbatim, with the
    chain's log tables built as it built them.  A word enters only as its
    length ``n``, the code ``head`` of its first ``range-1`` symbols and
    the bincount ``counts`` of its range-word codes."""

    def __init__(self, chain):
        t, r = chain.grammar.lexicon.theta, chain.potential.range
        codes = np.arange(t**r)
        src, dst = chain.index[codes // t], chain.index[codes % t ** (r - 1)]
        ok = (src >= 0) & (dst >= 0)
        self.chain, self.log_words = chain, np.full(t**r, -np.inf)
        with np.errstate(divide="ignore"):
            self.log_words[ok] = np.log(chain.transition[src[ok], dst[ok]])
            self.log_stationary = np.log(chain.stationary)

    def __call__(self, n, head, counts):
        chain = self.chain
        t, r = chain.grammar.lexicon.theta, chain.potential.range
        if n == 0:
            return 0.0
        if n < r - 1:
            span = t ** (r - 1 - n)
            idx = chain.index[head - head % span:][:span]
            total = chain.stationary[idx[idx >= 0]].sum()
            return math.log(total) if total > 0 else -math.inf
        first = chain.index[head]
        if first < 0:
            return -math.inf
        seen = np.flatnonzero(counts)
        return float(self.log_stationary[first] + (counts[seen] * self.log_words[seen]).sum())


def _kernel_rows(words, theta, r):
    """``(ns, heads, counts)`` of words, one row each, for ``_log_measures``
    with ``ends`` of shape ``(W, 1)``."""
    heads = [sum(s * theta ** (r - 2 - i) for i, s in enumerate(w[:r - 1])) for w in words]
    counts = [np.bincount([sum(s * theta ** (r - 1 - i) for i, s in enumerate(w[j:j + r]))
                           for j in range(len(w) - r + 1)], minlength=theta**r) for w in words]
    return np.array([[len(w)] for w in words]), np.array(heads), np.array(counts)[:, None]


def _kernel_words(chain, rng, lengths=(1, 2, 3, 9, 60, 400)):
    """Sampled words (each prefix of ``range - 1`` symbols or more is
    admissible), uniform random words (mostly forbidden), and short ones."""
    t, r = chain.grammar.lexicon.theta, chain.potential.range
    words = [sample(chain, max(n, r - 1), seed).word[:n] for n in lengths for seed in (1, 2)]
    return words + [tuple(rng.integers(0, t, n).tolist()) for n in (1, 2, 3, 4, 7, 30)]


@pytest.mark.parametrize("theta", [2, 3])
def test_count_kernel_has_the_bits_of_the_one_word_formula(theta):
    lex = Lexicon(theta)
    rng = np.random.default_rng(17)
    grammars = enumerate_grammars(lex)
    pairwise = forbidden = short = 0
    for r in (2, 3, 4):
        words = list(all_words(lex, r))
        phi = Potential.from_table(lex, r, dict(zip(words, rng.uniform(-2.0, 2.0, len(words)))))
        for chain in chain_stack(grammars, phi):
            oracle = _OneWordKernel(chain)
            ns, heads, counts = _kernel_rows(_kernel_words(chain, rng), theta, r)
            got = gibbs._log_measures((chain,), ns, heads, counts)[:, 0, 0]
            want = [oracle(n, h, c) for (n,), h, (c,) in zip(ns, heads, counts)]
            assert got.tolist() == want
            pairwise += sum(w > -math.inf and (c > 0).sum() >= 8 for w, (c,) in zip(want, counts))
            forbidden += want.count(-math.inf)
            short += (ns[:, 0] <= r - 1).sum()
    assert min(pairwise, forbidden, short) >= 5


def test_count_kernel_scores_a_row_alike_alone_and_in_a_batch():
    lex = Lexicon(3)
    rng = np.random.default_rng(23)
    words = list(all_words(lex, 3))
    phi = Potential.from_table(lex, 3, dict(zip(words, rng.uniform(-1.0, 1.0, len(words)))))
    chains = chain_stack(enumerate_grammars(lex), phi)
    assert len(chains) == 139
    batch = [w for chain in chains[::6] for w in _kernel_words(chain, rng, (1, 2, 5, 40, 300))]
    batch = batch[:300]
    assert len(batch) == 300
    ns, heads, counts = _kernel_rows(batch, 3, 3)
    got = gibbs._log_measures(chains, ns, heads, counts)
    assert got.shape == (300, 1, 139)
    oracles = [_OneWordKernel(chain) for chain in chains]
    for i, ((n,), h, c) in enumerate(zip(ns, heads, counts)):
        alone = gibbs._log_measures(chains, [[n]], [h], c[None])
        assert alone[0, 0].tolist() == got[i, 0].tolist()
        assert got[i, 0].tolist() == [oracle(n, h, c[0]) for oracle in oracles]
    assert ((counts[:, 0] > 0).sum(axis=1) >= 8).sum() > 50


def test_cylinder_rejects_foreign_symbols(golden, zero2):
    chain = gibbs_chain(golden, zero2)
    with pytest.raises(ValidationError):
        cylinder_log_measure(chain, (0, 2))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic_and_admissible(golden, zero2):
    chain = gibbs_chain(golden, zero2)
    s1 = sample(chain, 500, seed=11)
    s2 = sample(chain, 500, seed=11)
    assert s1.word == s2.word
    assert len(s1.word) == 500
    assert admits(golden, s1.word)
    assert sample(chain, 500, seed=12).word != s1.word


def _reference_sample(chain, n, seed):
    """Inverse-CDF sampler kept as an oracle: a stationary ``searchsorted``
    for the first block, then per-row ``bisect_left`` clamped to the row's
    support."""
    r = chain.potential.range
    u = np.random.default_rng(seed).random(n - r + 2)
    cum0 = np.cumsum(chain.stationary)
    cur = min(int(np.searchsorted(cum0, u[0] * cum0[-1])), len(chain.states) - 1)
    word = list(chain.states[cur])
    rows = [list(np.cumsum(row)) for row in chain.transition]
    support = [(np.flatnonzero(row)[0], np.flatnonzero(row)[-1]) for row in chain.transition]
    for x in u[1:]:
        j = bisect.bisect_left(rows[cur], x * rows[cur][-1])
        cur = min(max(j, support[cur][0]), support[cur][1])
        word.append(chain.states[cur][-1])
    return tuple(word)


def test_sampler_matches_the_reference_sampler(golden, full2, lex2):
    lex3 = Lexicon(3)
    rng = np.random.default_rng(7)
    words = list(all_words(lex3, 3))
    phi3 = Potential.from_table(lex3, 3, dict(zip(words, rng.uniform(-1.0, 1.0, len(words)))))
    chains = [gibbs_chain(golden, Potential.zero(lex2)), gibbs_chain(full2, Potential.zero(lex2)),
              gibbs_chain(golden, Potential.zero(lex2, 3))]
    chains += [gibbs_chain(g, phi3) for g in enumerate_grammars(lex3)[::10]]
    assert len(chains) == 17
    for chain in chains:
        for seed in range(200):
            assert sample(chain, 60, seed).word == _reference_sample(chain, 60, seed)


def test_sampling_matches_pair_marginals(golden, zero2):
    chain = gibbs_chain(golden, zero2)
    word = sample(chain, 100_000, seed=42).word
    counts = Counter(zip(word, word[1:]))
    steps = len(word) - 1
    for a in (0, 1):
        for b in (0, 1):
            empirical = counts.get((a, b), 0) / steps
            exact = chain.stationary[a] * chain.transition[a, b]
            assert empirical == pytest.approx(exact, abs=5e-3)


def test_sampling_respects_blocks_of_longer_range(golden, lex2):
    phi = Potential.from_table(lex2, 3, {(0, 1, 0): 1.2})
    chain = gibbs_chain(golden, phi)
    word = sample(chain, 4000, seed=5).word
    assert admits(golden, word)
    # the rewarded block should be visibly enriched over its zero-potential rate
    zero_chain = gibbs_chain(golden, Potential.zero(lex2))
    base = math.exp(cylinder_log_measure(zero_chain, (0, 1, 0)))
    triples = Counter(zip(word, word[1:], word[2:]))
    assert triples[(0, 1, 0)] / (len(word) - 2) > base


def test_sampling_needs_room_for_one_block(golden, lex2):
    phi = Potential.from_table(lex2, 3, {(0, 1, 0): 1.0})
    chain = gibbs_chain(golden, phi)
    with pytest.raises(ValidationError):
        sample(chain, 1, seed=0)
    assert len(sample(chain, 2, seed=0).word) == 2


def test_least_above_is_the_least_float_whose_product_passes():
    rng = np.random.default_rng(3)
    totals = [1.0, 1.0000000000000002, 0.9999999999999999, *rng.uniform(0.5, 2.0, 50)]
    for total in totals:
        # c also drawn independently of total: only then can c / total * total exceed c
        for c in [0.0, math.nextafter(total, 0.0), total / 3, *rng.uniform(0.0, total, 20),
                  *(c for c in rng.uniform(0.0, 2.0, 40) if c < total)]:
            x = gibbs._least_above(c, total)
            assert c < x * total
            assert not c < math.nextafter(x, -math.inf) * total


def _lockstep_words(chain, n, seeds):
    """The words the lockstep sampler draws, rebuilt from the counts of
    every prefix: growing the prefix by one symbol adds exactly one
    range-word, which ends in that symbol."""
    t, r = chain.grammar.lexicon.theta, chain.potential.range
    words = []
    for heads, batch in gibbs._sample_counts(chain, seeds, range(1, n + 1)):
        for head, counts in zip(heads.tolist(), batch):
            added = np.diff(counts, axis=0)[r - 2:]
            assert (added.sum(axis=1) == 1).all()
            codes = added.argmax(axis=1)
            words.append(chain.states[chain.index[head]] + tuple((codes % t).tolist()))
    return words


def test_lockstep_sampler_draws_the_words_of_sample(golden, full2, lex2, monkeypatch):
    lex3 = Lexicon(3)
    rng = np.random.default_rng(7)
    words = list(all_words(lex3, 3))
    phi3 = Potential.from_table(lex3, 3, dict(zip(words, rng.uniform(-1.0, 1.0, len(words)))))
    chains = [gibbs_chain(golden, Potential.zero(lex2)), gibbs_chain(full2, Potential.zero(lex2)),
              gibbs_chain(golden, Potential.zero(lex2, 3))]
    chains += [gibbs_chain(g, phi3) for g in enumerate_grammars(lex3)[::10]]
    assert len(chains) == 17
    for chain in chains:
        drawn = _lockstep_words(chain, 60, range(200))
        assert drawn == [sample(chain, 60, seed).word for seed in range(200)]
    # A chain steps k symbols per chunk, k the largest (at most an eighth of the word's steps) with
    # d * max(M, 2)**k * k <= _TABLE_ENTRIES, M the symbols of its merged cuts; a batch of B
    # seeds draws its uniforms in slabs of whole chunks (see _assert_lockstep_draws_sample).
    full3 = Grammar(lex3, ((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    words4 = list(all_words(lex3, 4))
    phi4 = Potential.from_table(lex3, 4, dict(zip(words4, rng.uniform(-1.0, 1.0, len(words4)))))
    golden2, range3, d27 = chains[0], chains[5], gibbs_chain(full3, phi4)
    assert len(d27.states) == 27
    assert (golden2.transition[1] > 0).tolist() == [True, False]   # 1 steps to 0 only
    # a transition too small to move the running sum: two equal cumulative entries
    flat = gibbs_chain(full3, Potential.from_table(lex3, 2, {(0, 1): -40.0}))
    assert 0 < flat.transition[0, 1] and np.diff(np.cumsum(flat.transition[0]))[0] == 0
    tail = range(50, 50 + gibbs._SEED_BATCH + 5)
    cases = [
        (golden2, 3 * gibbs._TABLE_ENTRIES // 2, [9], 10, [1]),   # one seed, in one slab
        (golden2, 5 * gibbs._TABLE_ENTRIES, [9], 10, [3]),   # slabs of 65 530 steps
        (range3, 150, tail, 4, [1, 1]),   # one full batch of seeds and a tail
        (range3, 400, tail, 4, [2, 1]),   # the full batch in slabs of 256 steps
        (d27, 70, tail, 1, [1, 1]),
        (d27, 259, range(gibbs._SEED_BATCH + 1), 1, [1, 1]),
        (golden2, 1, range(3), 1, [1]),   # n = range - 1: the first block only
        (d27, 3, range(3), 1, [1]),
        (flat, 400, range(20), 5, [1]),
    ]
    for chain, n, seeds, k, slabs in cases:
        _assert_lockstep_draws_sample(chain, n, seeds, k, slabs)
    # with a one-entry budget every chain steps one symbol per chunk, and a batch of
    # three or more seeds draws one step per slab
    monkeypatch.setattr(gibbs, "_TABLE_ENTRIES", 1)
    for chain, seeds in ((golden2, tail), (range3, tail), (d27, range(4)), (flat, range(9))):
        n = 3 * 64 + chain.potential.range - 1
        batches = [192] * -(-len(seeds) // gibbs._SEED_BATCH)
        _assert_lockstep_draws_sample(chain, n, seeds, 1, batches)


def _assert_lockstep_draws_sample(chain, n, seeds, k, slabs):
    """The lockstep sampler draws ``sample``'s words, and each seed of a batch of B draws
    its ``steps = n - range + 1`` uniforms, and one for the first block, in ``slabs``
    ``Generator.random`` calls (one entry per batch) of ``per = k * max(1, min(ceil(steps
    / k), 2 * _TABLE_ENTRIES // (B * k)))`` steps each, or what is left, the first call
    drawing the first block too."""
    steps = n - chain.potential.range + 1
    batches = [len(seeds[lo:lo + gibbs._SEED_BATCH])
               for lo in range(0, len(seeds), gibbs._SEED_BATCH)]
    sizes = []
    for b in batches:
        per = k * max(1, min(-(-steps // k), 2 * gibbs._TABLE_ENTRIES // (b * k)))
        cuts = [0, *range(1 + per, steps + 1, per), steps + 1]   # the calls' first columns
        sizes += [np.diff(cuts).tolist()] * b
    assert [len(s) for s in sizes[::gibbs._SEED_BATCH]] == slabs
    draws, real = {}, gibbs._generators

    class Counted:
        """A seed's generator that records the size of each ``random`` call."""

        def __init__(self, rng, sizes):
            self.rng, self.sizes = rng, sizes

        def random(self, *, out):
            self.sizes.append(out.size)
            return self.rng.random(out=out)

    def counted(batch):
        return [Counted(rng, draws.setdefault(s, [])) for s, rng in zip(batch, real(batch))]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gibbs, "_generators", counted)
        drawn = _lockstep_words(chain, n, seeds)
    assert [draws[s] for s in seeds] == sizes
    assert drawn == [sample(chain, n, seed).word for seed in seeds]


def _assert_seeded_as_default_rng(seeds, rngs):
    """Each generator has the seed words and the first 50 uniforms of ``default_rng``."""
    assert len(rngs) == len(seeds)
    for seed, rng in zip(seeds, rngs):
        words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert words.dtype == np.uint64
        assert words.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert rng.random(50).tolist() == np.random.default_rng(seed).random(50).tolist()


def test_batch_seeding_reproduces_default_rng_without_calling_it(monkeypatch):
    # and seeds on either side of the word boundaries of a 128-bit seed
    seeds = [*range(3000), 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**127, 2**128 - 1]
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", None)   # below 2^128 the batch never calls it
        rngs = gibbs._generators(seeds)
    _assert_seeded_as_default_rng(seeds, rngs)
    # PCG64 asks its seed sequence for 4 uint64 words; any other request is an error,
    # so a numpy that seeds PCG64 otherwise cannot draw another stream unnoticed
    for request in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            rngs[0].bit_generator.seed_seq.generate_state(*request)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=12))
def test_batch_seeding_reproduces_default_rng_on_drawn_seeds(seeds):
    _assert_seeded_as_default_rng(seeds, gibbs._generators(seeds))


def test_batch_seeding_falls_back_to_default_rng_outside_128_bits():
    seeds = range(2**128 - 3, 2**128 + 3)
    rngs = gibbs._generators(seeds)
    assert all(type(rng.bit_generator.seed_seq) is np.random.SeedSequence for rng in rngs)
    _assert_seeded_as_default_rng(seeds, rngs)
    # a negative seed raises as in default_rng, never drawing a two's-complement stream
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(-1)
    for seeds in ([-1], range(-2, 3), [5, -(2**64)]):
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            gibbs._generators(seeds)


# The lockstep sampler's buffers: a batch's slab of uniforms and its symbols (then
# codes), 512 KB each, and its chunk keys; measured peaks 2.9 MB for 256 seeds at
# d = 27 and 2.4 MB for one seed's 65 530-step slabs at d = 2.
_SAMPLER_CEILING = 8 << 20


def _sampler_peak(chain, n, seeds):
    """The ``tracemalloc`` peak, in bytes, while draining the lockstep sampler."""
    tracemalloc.start()
    try:
        for _ in gibbs._sample_counts(chain, seeds, (n // 4, n)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lockstep_sampler_memory_does_not_grow_with_the_word(golden, lex2, monkeypatch):
    lex3 = Lexicon(3)
    words4 = list(all_words(lex3, 4))
    values = np.random.default_rng(3).uniform(-1.0, 1.0, len(words4))
    d27 = gibbs_chain(Grammar(lex3, ((1, 1, 1),) * 3),
                      Potential.from_table(lex3, 4, dict(zip(words4, values))))
    chains = (gibbs_chain(golden, Potential.zero(lex2)), d27)
    _sampler_peak(chains[0], 100, range(3))   # numpy's lazy set-up, outside the peaks

    def flat(chain, n, seeds):
        """The peak at n, after asserting that 4n adds at most 16 KB: a few KB
        come and go with interpreter caches, while a buffer growing with n
        would add at least 3 * 1 024 * 8 bytes."""
        peak = _sampler_peak(chain, n, seeds)
        assert _sampler_peak(chain, 4 * n, seeds) <= peak + (16 << 10)
        return peak

    # A full batch fills its slabs of 250 steps at d = 2 (k = 10) and 256 at d = 27
    # (k = 1), so past that no buffer grows with n.
    for chain in chains:
        assert flat(chain, 512, range(256)) <= _SAMPLER_CEILING
    # One seed fills its slab of 65 530 steps at d = 2, the largest one-seed buffers.
    assert _sampler_peak(chains[0], 1 << 16, [5]) <= _SAMPLER_CEILING
    # Under a 2^9-entry budget one seed's slab fills by the same rule at about 1 024
    # steps (1 020 at d = 2, where k = 5, and 1 024 at d = 27).
    monkeypatch.setattr(gibbs, "_TABLE_ENTRIES", 1 << 9)
    for chain in chains:
        assert flat(chain, 1024 + chain.potential.range - 2, [5]) <= _SAMPLER_CEILING


# ---------------------------------------------------------------------------
# orbit rewards
# ---------------------------------------------------------------------------

def test_orbit_potential_for_golden_full_rewards_the_fixed_point(golden, full2):
    phi = periodic_orbit_potential(golden, full2, 3.0)
    assert phi.range == 2
    assert phi.entries == (((1, 1), 3.0),)


def test_orbit_potential_vanishes_on_the_smaller_language(golden, full2, lex2, zero2):
    phi = periodic_orbit_potential(golden, full2, 2.0)
    for w in all_words(lex2, phi.range):
        if admits(golden, w):
            assert phi.value(w) == 0.0
    # hence the smaller grammar's chain is untouched by the reward
    assert build_transfer(golden, phi).entries.tolist() \
        == build_transfer(golden, zero2).entries.tolist()
    assert pressure(golden, phi) == pytest.approx(pressure(golden, zero2), abs=1e-12)


def test_orbit_potential_handles_longer_orbits():
    lower = Grammar.from_rows([[1, 1, 0], [1, 0, 1], [1, 0, 0]])
    upper = Grammar.from_rows([[1, 1, 0], [1, 0, 1], [1, 1, 0]])
    phi = periodic_orbit_potential(lower, upper, 2.5)
    # the added edge (2,1) lies on the 2-cycle 1->2->1, never on a fixed point
    assert phi.range == 3
    assert phi.entries == (((1, 2, 1), 2.5), ((2, 1, 2), 2.5))
    lex3 = Lexicon(3)
    for w in all_words(lex3, 3):
        if admits(lower, w):
            assert phi.value(w) == 0.0
    assert pressure(lower, phi) == pytest.approx(
        pressure(lower, Potential.zero(lex3)), abs=1e-12)


def test_orbit_potential_requires_strict_containment(golden, full2, swapped):
    with pytest.raises(ValidationError):
        periodic_orbit_potential(full2, golden, 1.0)
    with pytest.raises(ValidationError):
        periodic_orbit_potential(golden, swapped, 1.0)
    with pytest.raises(ValidationError):
        periodic_orbit_potential(golden, golden, 1.0)


def _reference_orbit_potential(lower, upper, reward):
    """The orbit rule as first written: the least rotation of every
    distinguishing cycle of the shortest period, then the least of those."""
    up, low, theta = upper.array, lower.array, lower.lexicon.theta
    for q in range(1, theta + 1):
        found = []
        for word in itertools.product(range(theta), repeat=q):
            if any(word == word[d:] + word[:d] for d in range(1, q)):
                continue
            pairs = list(zip(word, word[1:] + (word[0],)))
            if all(up[a, b] for a, b in pairs) and any(not low[a, b] for a, b in pairs):
                found.append(min(word[i:] + word[:i] for i in range(q)))
        if found:
            orbit = min(found)
            break
    rotations = (orbit[i:] + orbit[:i] for i in range(len(orbit)))
    return Potential.from_table(lower.lexicon, len(orbit) + 1,
                                {rot + rot[:1]: float(reward) for rot in rotations})


def test_orbit_potential_matches_the_least_rotation_rule_on_every_pair():
    checked = 0
    for theta in (2, 3):
        grammars = enumerate_grammars(Lexicon(theta))
        for i, j in comparable_pairs(grammars):
            lower, upper = grammars[i], grammars[j]
            assert periodic_orbit_potential(lower, upper, 1.5) \
                == _reference_orbit_potential(lower, upper, 1.5)
            checked += 1
    assert checked == 1394
