"""Finite-range potentials and exact Gibbs chains over primitive grammars.

A potential of range ``r`` reads ``r`` consecutive symbols.  Restricted to a
subshift of finite type it is a locally constant function, so the transfer
operator becomes a finite nonnegative matrix indexed by admissible
``(r-1)``-blocks, and the associated equilibrium (Gibbs) measure is a plain
stationary Markov chain on those blocks.  This module builds that matrix,
extracts its Perron eigendata, stochasticizes it into the chain, and
evaluates cylinder probabilities, entropy, and samples exactly — all
log-domain, with ``-inf`` standing in for forbidden words.

Blocks and words are handled as base-theta integer codes, one symbol of a
larger alphabet as in a higher-block presentation; codes of equal-length
words sort like the words.  The blocks of a whole grammar class grow
together, one symbol at a time under the stacked incidence masks
(:func:`_class_blocks`); nothing is kept between calls, so a one-grammar
call grows its blocks anew.  Transfer weights are ``exp(phi - c)`` with ``c``
the midpoint of ``phi`` over admissible words, and the pressure adds ``c``
back (``P(phi - c) = P(phi) - c``), so the values may span up to about 1416
before a weight leaves the normal floats; a zero potential has ``c = 0``.
The certificate fails far sooner when a Perron entry is too small for ``geev``: measured at
span 60 (theta=3), and in the theta=3 ``monotonicity`` scan at ``value_bound`` 5.0,
``base_seed`` 7 (README "Numerical notes", ROADMAP "Known defects").

Every pressure, entropy and cylinder likelihood goes through a dense eigen-solve of a stack
of one block count and at most ``_EIG_ENTRIES`` entries (:func:`_certified`): of ``(M_1..M_K,
M_1^T..M_K^T)`` for chains, which need ``nu`` (:func:`chain_stack`: array arithmetic per
stack, ``nu`` by ``matmul`` for its bits), and of ``(M_1..M_K)``, certified by ``h``, for the
pressures of :func:`_pressure_family`, a class under many potentials, blocks grown once per
range.  Smaller stacks and one-grammar calls have the same bits, and ``lam`` is the same on
both paths.  Dense eig costs O(d^3): about 2.4 s at d = 1024 on one core of a 2-vCPU Xeon.

A word enters a likelihood only through the code of its first block and its
counts of range-``r`` words, the sufficient statistic of a Markov chain.
One array kernel, :func:`_log_measures`, scores many words, prefixes and
chains at once; it groups them by the set of words they contain, so each
score is the same pairwise sum over the same terms as for its word alone,
bit for bit.  :func:`_sample_counts` draws the words of many seeds at once,
exactly those of :func:`sample`, and keeps only their counts at given
prefix lengths.  It steps all seeds through one lookup table per block of
uniforms, each block as wide as a fixed table-entry budget allows, and each
seed draws its uniforms once per slab of whole blocks, a batch's slab within
twice that budget (512 KB) or one block.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbolic import (
    Grammar,
    Lexicon,
    OrderRelation,
    ValidationError,
    _integer,
    _integers,
    _real,
    compare,
    validate_word,
)

CERTIFICATE_RTOL = 1e-9
DERIVATIVE_STEP = 1e-5
_TINY = np.finfo(float).tiny
_LOG_MAX = math.log(np.finfo(float).max)


class PerronConvergenceError(RuntimeError):
    """The eigen-solve failed its Perron certificate.

    ``lower`` and ``upper`` are the Collatz-Wielandt bracket over the solved eigenvectors,
    ``h`` and ``nu`` for a chain or ``h`` alone for a pressure (NaN or infinite when an entry
    is not positive), and ``min_entry`` is the smallest entry of those eigenvectors.
    """

    def __init__(self, dim: int, lam: float, lower: float, upper: float, min_entry: float):
        self.dim = dim
        self.lam = lam
        self.lower = lower
        self.upper = upper
        self.min_entry = min_entry
        super().__init__(
            f"eigen-solve of a {dim}x{dim} matrix failed its certificate: eigenvalue "
            f"{lam:.17g}, Collatz-Wielandt bracket [{lower:.17g}, {upper:.17g}], "
            f"smallest eigenvector entry {min_entry:.3e} (needs entries > 0 and a "
            f"bracket narrower than {CERTIFICATE_RTOL:g} * eigenvalue)"
        )


def _powers(theta: int, width: int) -> np.ndarray:
    """Place values of the digits of a ``width``-symbol code."""
    return theta ** np.arange(width - 1, -1, -1)


@dataclass(frozen=True)
class Potential:
    """Real-valued table on length-``range`` words; unlisted words score 0.

    The table is canonicalized on construction (sorted, duplicates rejected,
    explicit zeros dropped), so two potentials describing the same function
    compare and hash equal.  Values must be finite; ``range >= 2``.
    """

    lexicon: Lexicon
    range: int
    entries: tuple[tuple[tuple[int, ...], float], ...] = ()

    def __post_init__(self) -> None:
        r = _integer(self.range, "potential range")
        if r < 2:
            raise ValidationError(f"potential range must be >= 2, got {self.range!r}")
        object.__setattr__(self, "range", r)
        seen: dict[tuple[int, ...], float] = {}
        for word, value in self.entries:
            try:
                w, v = _integers(word, "symbol"), _real(value, "value")
            except ValidationError as exc:
                raise ValidationError(f"table word {word!r}: {exc}") from None
            if not all(0 <= s < self.lexicon.theta for s in w):
                raise ValidationError(f"table word {w} has a symbol outside lexicon "
                                      f"of size {self.lexicon.theta}")
            if len(w) != r:
                raise ValidationError(f"table word {w} has length {len(w)}, expected {r}")
            if w in seen:
                raise ValidationError(f"duplicate table entry for word {w}")
            seen[w] = v
        canon = tuple(sorted((w, v) for w, v in seen.items() if v != 0.0))
        object.__setattr__(self, "entries", canon)

    @classmethod
    def zero(cls, lexicon: Lexicon, range: int = 2) -> "Potential":
        return cls(lexicon, range, ())

    @classmethod
    def from_table(cls, lexicon: Lexicon, range: int, table) -> "Potential":
        return cls(lexicon, range, tuple(table.items()))

    @cached_property
    def _codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Codes of the table words (sorted, since the words are) and their
        values, each ended by a sentinel code ``theta^range`` of value 0."""
        t, r = self.lexicon.theta, self.range
        words = np.array([w for w, _ in self.entries], dtype=np.int64).reshape(-1, r)
        keys = np.append(words @ _powers(t, r), t**r)
        return keys, np.array([v for _, v in self.entries] + [0.0])

    def _at(self, codes):
        """Values at word codes in ``[0, theta^range)``; 0 where unlisted."""
        keys, values = self._codes
        pos = np.searchsorted(keys, codes)
        return np.where(keys[pos] == codes, values[pos], 0.0)

    def value(self, word) -> float:
        """0 off the table, at a symbol outside the lexicon or at another length."""
        w = _integers(word, f"word {word!r}: symbol")
        if len(w) != self.range or not all(0 <= s < self.lexicon.theta for s in w):
            return 0.0
        return float(self._at(np.dot(w, _powers(self.lexicon.theta, self.range))))

    def scaled(self, factor: float) -> "Potential":
        f = _real(factor, "scale factor")
        return Potential(self.lexicon, self.range, tuple((w, v * f) for w, v in self.entries))


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Weighted block-transition matrix of a potential restricted to a grammar.

    ``states`` lists the grammar-admissible ``(range-1)``-blocks in
    lexicographic order.  ``entries[i, j] = exp(phi(w) - shift)`` where
    ``w`` is the range-word formed by block ``i`` plus the last symbol of
    block ``j``, whenever block ``j`` continues block ``i``; 0 otherwise.
    Rows therefore index the current block and columns the block reached by
    appending one symbol.  (The transfer operator itself extends sequences
    on the other side; that matrix is the transpose of this one and has the
    same spectrum, so pressure and eigendata are unaffected by the choice.)
    ``index`` maps a block code to its state (-1 if inadmissible, None if built by hand).
    """

    grammar: Grammar
    potential: Potential
    states: tuple[tuple[int, ...], ...]
    entries: np.ndarray
    shift: float = 0.0
    index: np.ndarray | None = None


def _class_blocks(grammars, potential: Potential):
    """The admissible blocks of every grammar of a nonempty class at the
    potential's block width ``w = range - 1``, grown together.

    Returns ``(index, sizes, owner, words, src, dst)``: ``index[k, c]`` is
    the state of block code ``c`` under grammar ``k`` (-1 if inadmissible),
    ``sizes[k]`` its number of blocks, and the rest list every admissible
    range-word, grammar by grammar in ascending code order, as its grammar
    ``owner``, its code ``words`` and the states ``src`` and ``dst`` of its
    first and last ``w`` symbols.  The blocks grow one symbol at a time
    under the stacked masks, each code carrying its grammar's id, so they
    come out in that order."""
    if not grammars:
        raise ValidationError("grammar class is empty")
    if any(g.lexicon != potential.lexicon for g in grammars):
        raise ValidationError("grammar and potential use different lexicons")
    t, k, width = potential.lexicon.theta, len(grammars), potential.range - 1
    mask = np.array([g.matrix for g in grammars], dtype=bool)
    owner, words = np.divmod(np.arange(k * t), t)
    for _ in range(width):
        blocks, keep = words, owner
        step, last = np.nonzero(mask[keep, blocks % t])
        owner, words = keep[step], blocks[step] * t + last
    sizes = np.bincount(keep, minlength=k)
    index = np.full((k, t**width), -1, dtype=np.intp)
    index[keep, blocks] = np.arange(len(blocks)) - (np.cumsum(sizes) - sizes)[keep]
    index.setflags(write=False)
    return index, sizes, owner, words, index[owner, words // t], index[owner, words % t**width]


def _words(codes: np.ndarray, theta: int, width: int) -> list:
    """The ``width``-symbol words with the given codes, as tuples."""
    return list(map(tuple, (codes[:, None] // _powers(theta, width) % theta).tolist()))


def _weighted(blocks, potential: Potential):
    """Each grammar's shift ``c``, the midpoint of phi on its words, and the
    weights ``exp(phi - c)`` at the words of a class's :func:`_class_blocks`."""
    _, sizes, owner, words, _, _ = blocks
    starts = np.searchsorted(owner, np.arange(len(sizes)))   # every grammar has words
    phi = potential._at(words)
    low, high = np.minimum.reduceat(phi, starts), np.maximum.reduceat(phi, starts)
    shifts = low / 2 + high / 2
    # The largest shifted weight is about the reciprocal of the smallest,
    # so all of them are normal floats iff the smallest is.
    smallest = np.exp(low - shifts)
    if smallest.min() < _TINY:
        own = owner == np.argmax(smallest < _TINY)   # the first failing grammar
        codes, values = words[own], phi[own]
        lo, hi = values.min().item(), values.max().item()
        t, r = potential.lexicon.theta, potential.range
        a, b = _words(codes[[values.argmin(), values.argmax()]], t, r)
        raise ValidationError(
            f"potential values on admissible words span {hi - lo!r}, from {lo!r} at {a} to "
            f"{hi!r} at {b}; the weights exp(phi - c) with c = {lo / 2 + hi / 2!r} must be "
            "normal floats, so the span can be at most about 1416")
    return shifts, np.exp(phi - shifts[owner])


# A transfer stack holds at most this many entries (sum of d^2), or one matrix.
_EIG_ENTRIES = 1 << 17


def _transfer_stack(blocks, potentials):
    """Transfer matrices of a class of K grammars under P potentials of one
    lexicon and range, from its :func:`_class_blocks`, in ``(members,
    shifts, stack)`` groups of one block count ``d``, ascending, each within
    ``_EIG_ENTRIES``: ``stack[i]`` is grammar ``members[i] % K``'s matrix
    under potential ``members[i] // K`` (members ascend), weighted
    ``exp(phi - shifts[i])``."""
    _, sizes, owner, _, src, dst = blocks
    shifts, weights = map(np.array, zip(*(_weighted(blocks, phi) for phi in potentials)))
    keys = np.arange(shifts.size).reshape(shifts.shape)
    for d in np.flatnonzero(np.bincount(sizes)).tolist():
        members, words = np.flatnonzero(sizes == d), np.flatnonzero(sizes[owner] == d)
        local = np.searchsorted(members, owner[words])
        rows, cols, values = src[words], dst[words], weights[:, words]
        # a stack holds several potentials' whole groups, or a slice of one potential's
        step = max(1, _EIG_ENTRIES // (d * d))
        span, per = min(step, len(members)), max(1, step // len(members))
        cuts = np.searchsorted(local, np.arange(0, len(members) + span, span)).tolist()
        for j, k in itertools.product(range(0, len(keys), per), range(len(cuts) - 1)):
            (a, b), of = cuts[k:k + 2], members[k * span:(k + 1) * span]
            stack = np.zeros((len(keys[j:j + per]), len(of), d, d))
            stack[:, local[a:b] - k * span, rows[a:b], cols[a:b]] = values[j:j + per, a:b]
            stack = stack.reshape(-1, d, d)
            stack.setflags(write=False)
            yield keys[j:j + per, of].ravel().tolist(), shifts[j:j + per, of].ravel(), stack


def _perron_stack(groups, left: bool):
    """Each ``(members, shifts, stack)`` group of :func:`_transfer_stack` with ``(lam, pair)``
    appended: the Perron root of ``stack[i]`` and the absolute values of its right and, if
    ``left``, left eigenvectors in ``pair[i]``.  A group where a matrix fails is not yielded,
    and the error, raised after the last group, names the least failing member."""
    failures = []
    for members, shifts, stack in groups:
        lam, pair, failure = _certified(members, stack, left)
        if failure:
            failures.append(failure)
        else:
            yield members, shifts, stack, lam, pair
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _certified(members, stack, left: bool):
    """``(lam, pair, failure)`` of a ``(k, d, d)`` stack from one dense eigen-solve of ``(M_1..M_k,
    M_1^T..M_k^T)`` if ``left``, else of ``(M_1..M_k)``, each matrix apart by LAPACK's ``geev``
    (so ``lam`` has the bits of a stack of one), certified as :func:`perron` says by the sides
    solved: ``h > 0`` and its Collatz-Wielandt bracket alone certify ``lam``.  ``failure`` is
    None, or ``(member, error)`` for the first that fails, or whose ``geev`` does not converge."""
    k, d = stack.shape[:2]
    solved = np.concatenate((stack, stack.transpose(0, 2, 1))) if left else stack
    try:
        values, vectors = np.linalg.eig(solved)
    except np.linalg.LinAlgError as exc:   # then each matrix alone, to find the first that fails
        error = RuntimeError(f"eigen-solve of a {d}x{d} matrix failed: {exc}")
        alone = (_certified([m], one, left)[2] for m, one in zip(members, stack[:, None]) if k > 1)
        return None, None, next(filter(None, alone), (members[0], error))
    top, lam = values.real.argmax(axis=1), values.real.max(axis=1)[:k]
    vecs = np.abs(vectors[np.arange(len(solved)), :, top].real)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = ((solved @ vecs[:, :, None])[:, :, 0] / vecs).reshape(-1, k, d)
    # matrix i's bounds run over its own ratios, and those of its transpose if solved
    lower, upper = ratios.min(axis=(0, 2)), ratios.max(axis=(0, 2))
    pair = vecs.reshape(-1, k, d).swapaxes(0, 1)
    least = pair.min(axis=(1, 2))
    width = np.maximum(upper, lam) - np.minimum(lower, lam)
    ok = (least > 0) & (width <= CERTIFICATE_RTOL * lam)
    if not ok.all():
        i = int(ok.argmin())
        return None, None, (members[i], PerronConvergenceError(
            d, float(lam[i]), float(lower[i]), float(upper[i]), float(least[i])))
    return lam, pair, None


def _normalized(pair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``h`` with rows summing to 1 and ``nu`` with ``nu[i] @ h[i] == 1``
    from ``(k, 2, d)`` eigenvectors; ``matmul`` of a ``(1, d)`` and a ``(d, 1)``
    matrix has the bits of a 1-D ``@``, where ``einsum`` or a product's sum would not."""
    h = pair[:, 0] / pair[:, 0].sum(axis=1, keepdims=True)
    nu = pair[:, 1] / np.matmul(pair[:, 1, None], h[:, :, None])[:, 0]
    h.setflags(write=False)
    nu.setflags(write=False)
    return h, nu


def build_transfer(grammar: Grammar, potential: Potential) -> TransferMatrix:
    """Assemble the weighted transition matrix over admissible blocks."""
    blocks = _class_blocks((grammar,), potential)
    [(_, shifts, stack)] = _transfer_stack(blocks, [potential])
    index = blocks[0][0]
    states = _words(np.flatnonzero(index >= 0), grammar.lexicon.theta, potential.range - 1)
    return TransferMatrix(grammar, potential, tuple(states), stack[0], float(shifts[0]), index)


def perron(transfer: TransferMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Certified Perron eigenvalue with right and left eigenvectors.

    Returns ``(lam, h, nu)`` with ``h`` normalized to sum 1 and ``nu``
    scaled so that ``nu @ h == 1``.  ``lam`` is the root of ``entries``,
    so the pressure is ``log(lam) + transfer.shift``.  Raises
    :class:`PerronConvergenceError` unless both vectors are strictly
    positive and the Collatz-Wielandt bracket, widened to contain ``lam``,
    is narrower than ``CERTIFICATE_RTOL * lam``.
    """
    [(*_, lam, pair)] = _perron_stack([((0,), None, np.array([transfer.entries], float))], left=True)
    h, nu = _normalized(pair)
    return float(lam[0]), h[0], nu[0]


@dataclass(frozen=True, eq=False)
class GibbsChain:
    """Stationary Markov chain realizing the equilibrium measure exactly.

    ``index`` is the transfer matrix's, and so are ``states``, which the
    chain derives from ``index`` on first use.
    ``transition[u, v] = entries[u, v] * h[v] / (lam * h[u])`` is stochastic
    and ``stationary = nu * h`` is its invariant law; cylinder probabilities
    of admissible words are exact products along the block path.  ``lam``
    is ``exp(pressure)``, so it is ``inf`` once the pressure passes 709.78.
    """

    grammar: Grammar
    potential: Potential
    index: np.ndarray
    lam: float
    pressure: float
    h: np.ndarray
    nu: np.ndarray
    transition: np.ndarray
    stationary: np.ndarray
    entropy: float

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """The admissible ``(range-1)``-blocks, in code order."""
        return tuple(_words(np.flatnonzero(self.index >= 0), self.grammar.lexicon.theta,
                            self.potential.range - 1))

    @cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray]:
        """Log of the stationary law at every block code, and ``log P(w)`` at
        every range-word code ``w``, the log-transition from the block of
        its first ``range-1`` symbols to that of its last; ``-inf`` where a
        block is inadmissible or a transition zero."""
        t, r = self.grammar.lexicon.theta, self.potential.range
        codes = np.arange(t**r)
        src, dst = self.index[codes // t], self.index[codes % t ** (r - 1)]
        ok = (src >= 0) & (dst >= 0)
        blocks, words = np.full(t ** (r - 1), -np.inf), np.full(t**r, -np.inf)
        with np.errstate(divide="ignore"):
            words[ok] = np.log(self.transition[src[ok], dst[ok]])
            blocks[self.index >= 0] = np.log(self.stationary)   # states ascend by code
        return blocks, words


@dataclass(frozen=True)
class Sample:
    """A finite word drawn from a chain, with enough context to reproduce it."""

    word: tuple[int, ...]
    seed: int
    grammar: Grammar
    potential: Potential


def gibbs_chain(grammar: Grammar, potential: Potential) -> GibbsChain:
    """Build the exact Markov realization of the equilibrium measure."""
    return chain_stack((grammar,), potential)[0]


def chain_stack(grammars, potential: Potential) -> tuple[GibbsChain, ...]:
    """:func:`gibbs_chain` of each grammar of a class, in order, from one certified
    eigen-solve per stack of a block count, whose chains are computed as arrays
    together; each chain's arrays are read-only views of its stack's.  Input
    errors come before any solve: the first grammar whose weights underflow
    raises, and only then the first whose matrix fails the certificate."""
    grammars = tuple(grammars)
    blocks = _class_blocks(grammars, potential)
    chains = [None] * len(grammars)
    groups = _transfer_stack(blocks, [potential])
    for members, shifts, stack, lam, pair in _perron_stack(groups, left=True):
        h, nu = _normalized(pair)
        stationary = nu * h
        stationary /= stationary.sum(axis=1, keepdims=True)
        transition = stack * h[:, None, :] / (lam[:, None, None] * h[:, :, None])
        logs = np.log(transition, out=np.zeros_like(transition), where=transition > 0)
        # a C-ordered (d, d) block sums like the flat sum of one chain's terms
        entropy = -(stationary[:, :, None] * (transition * logs)).sum(axis=(1, 2))
        transition.setflags(write=False)
        stationary.setflags(write=False)
        for i, (k, root, shift, ent) in enumerate(zip(members, lam.tolist(), shifts.tolist(),
                                                      entropy.tolist())):
            p = math.log(root) + shift
            if shift:   # exp(pressure), which is inf past 709.78
                root = math.exp(p) if p <= _LOG_MAX else math.inf
            chains[k] = GibbsChain(
                grammar=grammars[k], potential=potential, index=blocks[0][k], lam=root,
                pressure=p, h=h[i], nu=nu[i], transition=transition[i],
                stationary=stationary[i], entropy=ent)
    return tuple(chains)


def pressure(grammar: Grammar, potential: Potential) -> float:
    """log of the Perron eigenvalue of the weighted block matrix."""
    return float(pressure_stack((grammar,), potential)[0])


def pressure_stack(grammars, potential: Potential) -> np.ndarray:
    """:func:`pressure` of each grammar of a class, in order, from one
    certified eigen-solve per stack of a block count."""
    return _pressure_family(grammars, (potential,))[0]


def _pressure_family(grammars, potentials) -> np.ndarray:
    """:func:`pressure_stack` under each of P potentials, as a ``(P, K)``
    array, from blocks grown once per lexicon and range.  A family that
    fails is solved again one potential at a time, to raise what a loop
    over the potentials raises; within one potential, input errors come
    before any solve, then the first grammar whose certificate fails."""
    grammars = tuple(grammars)
    out, ranges = np.empty((len(potentials), len(grammars))), {}
    for p, phi in enumerate(potentials):
        ranges.setdefault((phi.lexicon, phi.range), []).append(p)
    try:
        for ps in map(np.array, ranges.values()):
            blocks = _class_blocks(grammars, potentials[ps[0]])
            groups = _transfer_stack(blocks, [potentials[p] for p in ps])
            for members, shifts, _, lam, _ in _perron_stack(groups, left=False):
                j, k = np.divmod(members, len(grammars))
                # math.log, not np.log, which differs in the last bit: it keeps the
                # printed pressures (README's among them) as they were
                out[ps[j], k] = np.array([math.log(x) for x in lam.tolist()]) + shifts
    except (ValueError, RuntimeError):
        if len(potentials) > 1:
            for phi in potentials:
                _pressure_family(grammars, (phi,))
        raise
    return out


def cylinder_log_measure(chain: GibbsChain, word) -> float:
    """log probability of the cylinder set of ``word``; -inf if forbidden.

    Words shorter than ``range - 1`` are handled by summing the stationary
    law over all admissible blocks extending them; the empty word has
    measure 1.
    """
    w = validate_word(word, chain.grammar.lexicon)
    if not w:
        return 0.0
    head, counts = _word_counts(chain.potential, w)
    return float(_log_measures((chain,), [len(w)], [head], counts[None, None])[0, 0, 0])


# About this many terms at once: count-by-log products in scoring, subset tests in order scans.
_KERNEL_TERMS = 1 << 16


def _log_measures(chains, ends, heads, counts) -> np.ndarray:
    """:func:`cylinder_log_measure` of the prefixes of W words under K
    chains of one lexicon and range, as a ``(W, P, K)`` array, from the
    code ``heads[i]`` of word i's first ``range-1`` symbols (0-padded) and
    the range-word bincount ``counts[i, p]`` of its first ``ends[p] >= 1``
    symbols (``ends`` broadcasts to ``(W, P)``).  Every scoring path goes
    through here.  Rows are grouped by support (``counts > 0``), and a
    group's ``(rows, K, S)`` products over its S codes, ascending, are
    summed along the contiguous last axis, which numpy does row by row with
    the pairwise summation of a 1-D sum of those S terms: a score has the
    bits of its word scored alone.  Only counted words enter, so a
    forbidden one makes the score -inf, never nan."""
    t, r = chains[0].grammar.lexicon.theta, chains[0].potential.range
    w, p = counts.shape[:2]
    ns, heads = np.broadcast_to(ends, (w, p)).ravel(), np.repeat(heads, p)
    counts = counts.reshape(w * p, -1)
    out = np.empty((w * p, len(chains)))
    short = ns < r - 1
    for n, head in set(zip(ns[short].tolist(), heads[short].tolist())):
        span = t ** (r - 1 - n)   # the blocks extending the prefix are a slice of the codes
        totals = [c.stationary[i[i >= 0]].sum() for c in chains
                  for i in (c.index[head - head % span:][:span],)]
        out[short & (ns == n) & (heads == head)] = [
            math.log(x) if x > 0 else -math.inf for x in totals]
    log_first, log_words = map(np.array, zip(*(c._logs for c in chains)))
    groups = {}
    for i, support in zip(np.flatnonzero(~short).tolist(), counts[~short] > 0):
        groups.setdefault(support.tobytes(), []).append(i)
    for rows in map(np.array, groups.values()):
        seen = np.flatnonzero(counts[rows[0]])
        terms = log_words[:, seen]
        step = max(1, _KERNEL_TERMS // max(1, terms.size))
        for lo in range(0, len(rows), step):
            part = rows[lo:lo + step]
            # C order, since ``a[:, seen]`` alone comes out in F order
            products = np.multiply(counts[part][:, None, seen], terms, order="C")
            out[part] = log_first[:, heads[part]].T + products.sum(axis=-1)
    return out.reshape(w, p, -1)


def expected_potential(chain: GibbsChain, potential: Potential) -> float:
    """Mean of a potential under the chain's stationary law.

    The potential must share the chain's lexicon and range so its value
    decomposes over block transitions.
    """
    if potential.lexicon != chain.grammar.lexicon:
        raise ValidationError("potential lexicon does not match the chain")
    if potential.range != chain.potential.range:
        raise ValidationError("potential range does not match the chain")
    t = chain.grammar.lexicon.theta
    codes = np.flatnonzero(chain.index >= 0)
    # step i -> j reads the word code(i) * t + last(j), or has zero mass
    words = codes[:, None] * t + codes % t
    return float((chain.stationary[:, None] * chain.transition * potential._at(words)).sum())


def _check_length(chain: GibbsChain, n: int) -> None:
    if n < chain.potential.range - 1:
        raise ValidationError(
            f"sample length {n} shorter than the block size {chain.potential.range - 1}")


def sample(chain: GibbsChain, n: int, seed: int) -> Sample:
    """Draw an admissible word of length ``n`` from the chain.

    The initial block comes from the stationary law and each step from the
    transition matrix via inverse-CDF lookup, so a given ``seed`` always
    reproduces the same word.  Requires integers ``n >= range - 1`` and ``seed >= 0``.
    """
    n, seed = _integer(n, "sample length"), _integer(seed, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    _check_length(chain, n)
    u = np.random.default_rng(seed).random(n - chain.potential.range + 2)
    # a uniform of exactly 0 would pick a row's leading zero-probability column
    np.maximum(u, np.finfo(float).smallest_subnormal, out=u)
    cum = np.cumsum(chain.stationary)
    cur = int(np.searchsorted(cum, u[0] * cum[-1]))
    word = list(chain.states[cur])
    rows = np.cumsum(chain.transition, axis=1).tolist()
    last = (np.flatnonzero(chain.index >= 0) % chain.grammar.lexicon.theta).tolist()
    for x in u[1:].tolist():
        row = rows[cur]
        cur = bisect.bisect_left(row, x * row[-1])
        word.append(last[cur])
    return Sample(tuple(word), seed, chain.grammar, chain.potential)


# The lockstep sampler draws up to this many seeds at a time, steps them in
# blocks whose step table holds about this many entries (at least 64 columns),
# and draws their uniforms in slabs of at most twice as many (or one block),
# so its memory does not grow with seeds or length.
_SEED_BATCH = 256
_TABLE_ENTRIES = 1 << 15


def _sample_counts(chain: GibbsChain, n: int, seeds, ends):
    """What :func:`sample` draws for each of a sequence of seeds, as block
    counts: yields, per batch of seeds, ``(heads, counts)``: ``heads[b]``
    codes the first block of seed b's word and ``counts[b, k]`` is the
    bincount of the range-word codes among its first ``ends[k]`` symbols
    (``ends`` ascend, and ``n == max(ends[-1], range-1)``).  Only counts are
    kept; a seed's word is what :func:`sample` draws.  A batch of B seeds of
    a d-state chain steps in blocks of ``width = min(columns, max(64,
    _TABLE_ENTRIES // (d * B)))`` columns, each step one ``take`` in the
    block's table.  Each seed draws its uniforms from its own generator,
    continuing its stream exactly, once per slab of ``width * min(ceil(columns
    / width), max(1, 2 * _TABLE_ENTRIES // (B * width)))`` columns, whole
    blocks, so a batch's slab holds at most ``2 * _TABLE_ENTRIES`` doubles
    (512 KB), or one block; a block reads a view of its slab."""
    _check_length(chain, n)
    t, r = chain.grammar.lexicon.theta, chain.potential.range
    blocks = np.flatnonzero(chain.index >= 0)
    d, lasts = len(blocks), blocks % t
    start_cum, cum = np.cumsum(chain.stationary), np.cumsum(chain.transition, axis=1)
    # The state after s is bisect_left of x * total in cumulative row s, x = max(u, tiny): the
    # count of entries of cum[s, :-1] below that product (the last never is, as x < 1), summed
    # over runs of equal entries c, each counted iff x >= _least_above(c, total).  The runs
    # counted for every x add up to always[s]; a state with no other run has one successor.
    tiny, always, sometimes = np.finfo(float).smallest_subnormal, [], []
    for row, total in zip(cum[:, :-1].tolist(), cum[:, -1].tolist()):
        runs = [(_least_above(c, total), k) for c, k in Counter(row).items() if c < total]
        always.append(sum(k for x, k in runs if x <= tiny))
        sometimes.append([(x, k) for x, k in runs if x > tiny])
    several = [(s, runs) for s, runs in enumerate(sometimes) if runs]
    pairs = (blocks[:, None] * t + lasts).ravel()   # the range-word of step i -> j, at i * d + j
    columns = n - r + 2   # column 0 draws the first block, column j step j
    # step j ends at symbol j + r - 1, so prefix k holds steps 1 .. inside[k]; a step is
    # counted in the first prefix holding it, and a cumulative sum over k does the rest
    inside = np.maximum(np.asarray(ends) - r + 1, 0)
    for lo in range(0, len(seeds), _SEED_BATCH):
        rngs = [np.random.default_rng(s) for s in seeds[lo:lo + _SEED_BATCH]]
        b = len(rngs)
        width = min(columns, max(64, _TABLE_ENTRIES // (d * b)))
        per = width * min(-(-columns // width), max(1, 2 * _TABLE_ENTRIES // (b * width)))
        # zeros, not empty: a last block shorter than its view reads the slab's unused tail
        slab, less = np.zeros((b, per)), np.empty((b, width), dtype=bool)
        # table[s, i, j] holds the state that seed i's column j reaches from s, as
        # the position its next column reads, next * size + base[i, j]; path[j + 1]
        # holds the position after column start + j, path[0] the state before
        size, base = b * width, np.arange(b)[:, None] * width + np.arange(1, width + 1) % width
        table = np.array(always)[:, None, None] * size + base
        path, flat = np.zeros((width + 1, b), dtype=np.intp), np.empty((width, b), dtype=np.intp)
        rows, take = list(path), table.take
        counts = np.zeros((b, len(ends), t**r), dtype=np.int64)
        offsets = np.arange(b) * (len(ends) * t**r)
        for start in range(0, columns, width):
            span, skip, at = min(width, columns - start), int(start == 0), start % per
            if not at:   # each seed's next slab, or what is left of its columns
                for rng, row in zip(rngs, slab[:, :columns - start]):
                    rng.random(out=row)
            u = slab[:, at:at + width]
            for s, runs in several:
                nxt = table[s]
                nxt.fill(always[s])
                for x, k in runs:
                    nxt += np.less_equal(x, u, out=less) if k == 1 else k * (x <= u)
                nxt *= size
                nxt += base
            if skip:   # column 0 draws the first block from the stationary law
                path[0] = np.searchsorted(start_cum, np.maximum(u[:, 0], tiny) * start_cum[-1])
                head = blocks[path[0]]
            path[skip] = path[0] * size + base[:, skip - 1]
            for before, after in zip(rows[skip:span], rows[skip + 1:span + 1]):
                take(before, None, after, "clip")
            states = np.floor_divide(path[:span + 1], size, out=path[:span + 1])
            steps = np.multiply(states[skip:span], d, out=flat[skip:span])
            steps += states[skip + 1:]
            pairs.take(steps, out=steps)
            steps += offsets
            steps += np.searchsorted(inside, np.arange(start + skip, start + span))[:, None] * t**r
            counts += np.bincount(steps.ravel(), minlength=counts.size).reshape(counts.shape)
            path[0] = states[span]
        np.cumsum(counts, axis=1, out=counts)
        yield head, counts


def _least_above(c: float, total: float) -> float:
    """The least float x with ``c < x * total`` (and so every larger one, rounding being monotone),
    for ``0 <= c < total``.  No float below ``c / total`` passes, so the search starts there."""
    x = c / total
    while x * total <= c:
        x = math.nextafter(x, math.inf)
    return x


def _word_counts(potential: Potential, word) -> tuple[int, np.ndarray]:
    """``(head, counts)`` of one word in the potential's lexicon and range,
    as :func:`_sample_counts` yields them for a prefix it draws: the code of
    its first ``range-1`` symbols (0-padded) and the bincount of its
    range-word codes."""
    t, r = potential.lexicon.theta, potential.range
    w = np.array(word, dtype=np.int64)
    windows = (np.lib.stride_tricks.sliding_window_view(w, r) if len(w) >= r
               else np.zeros((0, r), dtype=np.int64))
    counts = np.bincount(windows @ _powers(t, r), minlength=t**r)   # window i is w[i:i + r]
    return int(w[:r - 1] @ _powers(t, r - 1)[:len(w)]), counts


def periodic_orbit_potential(lower: Grammar, upper: Grammar, reward: float) -> Potential:
    """Reward a shortest periodic orbit allowed by ``upper`` but not ``lower``.

    Finds the minimal period ``q`` for which some cyclic word is admissible
    under ``upper`` while using at least one transition that ``lower``
    forbids (ties broken by the lexicographically least rotation), then
    returns the range-``(q+1)`` potential assigning ``reward`` to every word
    whose first ``q`` symbols are a rotation of that orbit and whose last
    symbol closes the cycle.  The result vanishes on every word admissible
    under ``lower``.
    """
    reward = _real(reward, "reward")
    if compare(lower, upper) is not OrderRelation.LESS:
        raise ValidationError("periodic_orbit_potential needs lower strictly below upper")
    up, low = upper.array, lower.array
    theta = lower.lexicon.theta
    # Periods go up, and if a cycle u^k distinguishes the grammars then u does
    # at period |u|, so the first hit has minimal period q.  Every rotation of
    # it distinguishes too, so it is its own least rotation.
    orbit = next((w for q in range(1, theta + 1) for w in itertools.product(range(theta), repeat=q)
                  if up[w, w[1:] + w[:1]].all() and not low[w, w[1:] + w[:1]].all()), None)
    if orbit is None:
        # Every extra edge of a strongly connected graph lies on a simple
        # cycle, so a period <= theta always exists.
        raise RuntimeError("no distinguishing periodic orbit found")
    rotations = (orbit[i:] + orbit[:i] for i in range(len(orbit)))
    return Potential.from_table(lower.lexicon, len(orbit) + 1,
                                {rot + rot[:1]: reward for rot in rotations})


def entropy_via_pressure_derivative(grammar: Grammar, potential: Potential,
                                    step: float = DERIVATIVE_STEP) -> float:
    """Entropy as pressure minus its derivative along potential scaling.

    Uses the thermodynamic identity h = P(phi) - dP(beta * phi)/dbeta at
    beta = 1, with the derivative taken by central finite difference of ``step > 0``.
    """
    if not _real(step, "step") > 0:
        raise ValidationError(f"step must be > 0, got {step!r}")
    scaled = (potential, potential.scaled(1.0 + step), potential.scaled(1.0 - step))
    p0, p_plus, p_minus = _pressure_family((grammar,), scaled)[:, 0].tolist()
    return p0 - (p_plus - p_minus) / (2.0 * step)
