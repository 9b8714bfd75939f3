"""Finite-range potentials and exact Gibbs chains over primitive grammars.

A potential of range ``r`` reads ``r`` consecutive symbols.  Restricted to a
subshift of finite type it is a locally constant function, so the transfer
operator becomes a finite nonnegative matrix indexed by admissible
``(r-1)``-blocks, and the associated equilibrium (Gibbs) measure is a plain
stationary Markov chain on those blocks.  This module builds that matrix,
extracts its Perron eigendata, stochasticizes it into the chain, and
evaluates cylinder probabilities, entropy, and samples exactly — all
log-domain, with ``-inf`` standing in for forbidden words.

The Perron data come from one dense ``np.linalg.eig`` call on the stack
``(M, M^T)``: the eigenvalue with the largest real part and the absolute
values of its right and left eigenvectors.  The result is certified, not
trusted: both vectors must be strictly positive, and the Collatz-Wielandt
bracket ``min_i (Mh)_i/h_i <= lam <= max_i (Mh)_i/h_i`` (and its left-hand
twin for ``nu``), together with ``lam`` itself, must span less than
``CERTIFICATE_RTOL * lam``.  A failed certificate raises
:class:`PerronConvergenceError`.  Every pressure, entropy and cylinder
likelihood goes through this one solve.  Dense eig costs O(d^3) in the block
count ``d = theta^(range-1)``: tens of microseconds for the small matrices of
the experiments, but about 2.4 s at d = 1024 on one core of a 2-vCPU Xeon,
where the power iteration this replaced took about 0.5 s.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbolic import (
    Grammar,
    Lexicon,
    OrderRelation,
    ValidationError,
    compare,
    validate_word,
)

CERTIFICATE_RTOL = 1e-9
DERIVATIVE_STEP = 1e-5


class PerronConvergenceError(RuntimeError):
    """The eigen-solve failed its Perron certificate.

    ``lower`` and ``upper`` are the Collatz-Wielandt bracket over both
    eigenvectors (NaN or infinite when an entry is not positive), and
    ``min_entry`` is the smallest entry of either eigenvector.
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
        r = int(self.range)
        if r < 2:
            raise ValidationError(f"potential range must be >= 2, got {self.range!r}")
        object.__setattr__(self, "range", r)
        seen: dict[tuple[int, ...], float] = {}
        for word, value in self.entries:
            w = validate_word(word, self.lexicon)
            if len(w) != r:
                raise ValidationError(f"table word {w} has length {len(w)}, expected {r}")
            v = float(value)
            if not math.isfinite(v):
                raise ValidationError(f"potential value for {w} is not finite: {value!r}")
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
    def _table(self) -> dict[tuple[int, ...], float]:
        return dict(self.entries)

    def value(self, word) -> float:
        return self._table.get(tuple(word), 0.0)

    def scaled(self, factor: float) -> "Potential":
        f = float(factor)
        if not math.isfinite(f):
            raise ValidationError(f"scale factor must be finite, got {factor!r}")
        return Potential(self.lexicon, self.range, tuple((w, v * f) for w, v in self.entries))

    def sup_norm(self) -> float:
        return max((abs(v) for _, v in self.entries), default=0.0)


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Weighted block-transition matrix of a potential restricted to a grammar.

    ``states`` lists the grammar-admissible ``(range-1)``-blocks in
    lexicographic order.  ``entries[i, j] = exp(phi(w))`` where ``w`` is the
    range-word formed by block ``i`` plus the last symbol of block ``j``,
    whenever block ``j`` continues block ``i``; 0 otherwise.  Rows therefore
    index the current block and columns the block reached by appending one
    symbol.  (The transfer operator itself extends sequences on the other
    side; that matrix is the transpose of this one and has the same
    spectrum, so pressure and eigendata are unaffected by the choice.)
    """

    grammar: Grammar
    potential: Potential
    states: tuple[tuple[int, ...], ...]
    entries: np.ndarray


def _admissible_blocks(grammar: Grammar, length: int) -> tuple[tuple[int, ...], ...]:
    arr = grammar.array
    blocks: list[tuple[int, ...]] = [(s,) for s in grammar.lexicon.symbols]
    for _ in range(length - 1):
        blocks = [b + (s,) for b in blocks for s in grammar.lexicon.symbols if arr[b[-1], s]]
    return tuple(blocks)


def build_transfer(grammar: Grammar, potential: Potential) -> TransferMatrix:
    """Assemble the weighted transition matrix over admissible blocks."""
    if grammar.lexicon != potential.lexicon:
        raise ValidationError("grammar and potential use different lexicons")
    r = potential.range
    states = _admissible_blocks(grammar, r - 1)
    if not states:
        raise RuntimeError("primitive grammar produced no admissible blocks")
    index = {s: i for i, s in enumerate(states)}
    arr = grammar.array
    m = np.zeros((len(states), len(states)))
    for i, u in enumerate(states):
        for a in grammar.lexicon.symbols:
            if arr[u[-1], a]:
                value = potential.value(u + (a,))
                weight = math.exp(value)
                if weight == 0.0:
                    raise ValidationError(
                        f"weight exp({value!r}) of admissible word {u + (a,)} underflows to 0")
                m[i, index[u[1:] + (a,)]] = weight
    m.setflags(write=False)
    return TransferMatrix(grammar, potential, states, m)


def perron(transfer: TransferMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Certified Perron eigenvalue with right and left eigenvectors.

    Returns ``(lam, h, nu)`` with ``h`` normalized to sum 1 and ``nu``
    scaled so that ``nu @ h == 1``.  Raises :class:`PerronConvergenceError`
    unless both vectors are strictly positive and the Collatz-Wielandt
    bracket, widened to contain ``lam``, is narrower than
    ``CERTIFICATE_RTOL * lam``.
    """
    m = transfer.entries
    stack = np.stack((m, m.T))
    values, vectors = np.linalg.eig(stack)
    top = values.real.argmax(axis=1)
    lam = float(values[0, top[0]].real)
    pair = np.abs(vectors[[0, 1], :, top].real)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (stack @ pair[:, :, None])[:, :, 0] / pair
    lower, upper = float(ratios.min()), float(ratios.max())
    min_entry = float(pair.min())
    if not (min_entry > 0 and max(upper, lam) - min(lower, lam) <= CERTIFICATE_RTOL * lam):
        raise PerronConvergenceError(m.shape[0], lam, lower, upper, min_entry)
    h = pair[0] / pair[0].sum()
    nu = pair[1] / (pair[1] @ h)
    h.setflags(write=False)
    nu.setflags(write=False)
    return lam, h, nu


@dataclass(frozen=True, eq=False)
class GibbsChain:
    """Stationary Markov chain realizing the equilibrium measure exactly.

    States are the admissible ``(range-1)``-blocks of the transfer matrix.
    ``transition[u, v] = entries[u, v] * h[v] / (lam * h[u])`` is stochastic
    and ``stationary = nu * h`` is its invariant law; cylinder probabilities
    of admissible words are exact products along the block path.
    """

    grammar: Grammar
    potential: Potential
    states: tuple[tuple[int, ...], ...]
    lam: float
    pressure: float
    h: np.ndarray
    nu: np.ndarray
    transition: np.ndarray
    stationary: np.ndarray
    entropy: float

    # ---- cached lookups used by scoring and sampling ----

    @cached_property
    def _block_index(self) -> np.ndarray:
        """Map base-theta block codes to state indices (-1 = inadmissible)."""
        t = self.grammar.lexicon.theta
        width = self.potential.range - 1
        table = np.full(t**width, -1, dtype=np.int64)
        powers = t ** np.arange(width - 1, -1, -1)
        for i, s in enumerate(self.states):
            table[int(np.dot(s, powers))] = i
        table.setflags(write=False)
        return table

    @cached_property
    def _log_stationary(self) -> np.ndarray:
        out = np.log(self.stationary)
        out.setflags(write=False)
        return out

    @cached_property
    def _log_transition(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            out = np.log(self.transition)
        out.setflags(write=False)
        return out

    @cached_property
    def _stationary_cum(self) -> np.ndarray:
        out = np.cumsum(self.stationary)
        out.setflags(write=False)
        return out

    @cached_property
    def _row_cum(self) -> list[list[float]]:
        return [list(np.cumsum(row)) for row in self.transition]

    @cached_property
    def _row_support(self) -> list[tuple[int, int]]:
        """First and last positive-probability column per row."""
        spans = []
        for row in self.transition:
            nz = np.flatnonzero(row)
            spans.append((int(nz[0]), int(nz[-1])))
        return spans


@dataclass(frozen=True)
class Sample:
    """A finite word drawn from a chain, with enough context to reproduce it."""

    word: tuple[int, ...]
    seed: int
    grammar: Grammar
    potential: Potential


def gibbs_chain(grammar: Grammar, potential: Potential) -> GibbsChain:
    """Build the exact Markov realization of the equilibrium measure."""
    tm = build_transfer(grammar, potential)
    lam, h, nu = perron(tm)
    stationary = nu * h
    stationary = stationary / stationary.sum()
    transition = tm.entries * h[None, :] / (lam * h[:, None])
    support = transition > 0
    plogp = np.zeros_like(transition)
    plogp[support] = transition[support] * np.log(transition[support])
    entropy = float(-(stationary[:, None] * plogp).sum())
    transition.setflags(write=False)
    stationary.setflags(write=False)
    return GibbsChain(
        grammar=grammar,
        potential=potential,
        states=tm.states,
        lam=lam,
        pressure=math.log(lam),
        h=h,
        nu=nu,
        transition=transition,
        stationary=stationary,
        entropy=entropy,
    )


def pressure(grammar: Grammar, potential: Potential) -> float:
    """log of the Perron eigenvalue of the weighted block matrix."""
    return math.log(perron(build_transfer(grammar, potential))[0])


def ks_entropy(chain: GibbsChain) -> float:
    """Entropy rate -sum_u pi[u] sum_v P[u,v] log P[u,v] of the chain."""
    return chain.entropy


def cylinder_log_measure(chain: GibbsChain, word) -> float:
    """log probability of the cylinder set of ``word``; -inf if forbidden.

    Words shorter than ``range - 1`` are handled by summing the stationary
    law over all admissible blocks extending them; the empty word has
    measure 1.
    """
    w = validate_word(word, chain.grammar.lexicon)
    n = len(w)
    r = chain.potential.range
    if n == 0:
        return 0.0
    if n < r - 1:
        total = sum(p for p, s in zip(chain.stationary, chain.states) if s[:n] == w)
        return math.log(total) if total > 0 else -math.inf
    t = chain.grammar.lexicon.theta
    arr = np.asarray(w)
    powers = t ** np.arange(r - 2, -1, -1)
    codes = np.lib.stride_tricks.sliding_window_view(arr, r - 1) @ powers
    idx = chain._block_index[codes]
    if (idx < 0).any():
        return -math.inf
    total = chain._log_stationary[idx[0]]
    if len(idx) > 1:
        total = total + chain._log_transition[idx[:-1], idx[1:]].sum()
    return float(total)


def expected_potential(chain: GibbsChain, potential: Potential) -> float:
    """Mean of a potential under the chain's stationary law.

    The potential must share the chain's lexicon and range so its value
    decomposes over block transitions.
    """
    if potential.lexicon != chain.grammar.lexicon:
        raise ValidationError("potential lexicon does not match the chain")
    if potential.range != chain.potential.range:
        raise ValidationError("potential range does not match the chain")
    total = 0.0
    for i, u in enumerate(chain.states):
        row = chain.transition[i]
        for j in np.flatnonzero(row):
            total += chain.stationary[i] * row[j] * potential.value(u + (chain.states[j][-1],))
    return total


def sample(chain: GibbsChain, n: int, seed: int) -> Sample:
    """Draw an admissible word of length ``n`` from the chain.

    The initial block comes from the stationary law and each step from the
    transition matrix via inverse-CDF lookup, so a given ``seed`` always
    reproduces the same word.  Requires ``n >= range - 1``.
    """
    r = chain.potential.range
    if n < r - 1:
        raise ValidationError(f"sample length {n} shorter than the block size {r - 1}")
    steps = n - (r - 1)
    rng = np.random.default_rng(seed)
    u = rng.random(steps + 1)
    cum0 = chain._stationary_cum
    cur = int(np.searchsorted(cum0, u[0] * cum0[-1]))
    cur = min(cur, len(chain.states) - 1)
    word = list(chain.states[cur])
    rows = chain._row_cum
    support = chain._row_support
    states = chain.states
    for t in range(1, steps + 1):
        row = rows[cur]
        j = bisect.bisect_left(row, u[t] * row[-1])
        lo, hi = support[cur]
        cur = min(max(j, lo), hi)
        word.append(states[cur][-1])
    return Sample(tuple(word), seed, chain.grammar, chain.potential)


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
    if compare(lower, upper) is not OrderRelation.LESS:
        raise ValidationError("periodic_orbit_potential needs lower strictly below upper")
    up, low = upper.array, lower.array
    theta = lower.lexicon.theta
    orbit = None
    for q in range(1, theta + 1):
        found = []
        for word in _cyclic_words(theta, q):
            pairs = list(zip(word, word[1:] + (word[0],)))
            if all(up[a, b] for a, b in pairs) and any(not low[a, b] for a, b in pairs):
                found.append(min(word[i:] + word[:i] for i in range(q)))
        if found:
            orbit = min(found)
            break
    if orbit is None:
        # Every extra edge of a strongly connected graph lies on a simple
        # cycle, so a period <= theta always exists.
        raise RuntimeError("no distinguishing periodic orbit found")
    q = len(orbit)
    table = {}
    for i in range(q):
        rot = orbit[i:] + orbit[:i]
        table[rot + (rot[0],)] = float(reward)
    return Potential.from_table(lower.lexicon, q + 1, table)


def _cyclic_words(theta: int, q: int):
    """Words of length q whose minimal period is exactly q."""
    for word in itertools.product(range(theta), repeat=q):
        if all(word != word[d:] + word[:d] for d in range(1, q)):
            yield word


def entropy_via_pressure_derivative(grammar: Grammar, potential: Potential,
                                    step: float = DERIVATIVE_STEP) -> float:
    """Entropy as pressure minus its derivative along potential scaling.

    Uses the thermodynamic identity h = P(phi) - dP(beta * phi)/dbeta at
    beta = 1, with the derivative taken by central finite difference.
    """
    p0 = pressure(grammar, potential)
    p_plus = pressure(grammar, potential.scaled(1.0 + step))
    p_minus = pressure(grammar, potential.scaled(1.0 - step))
    return p0 - (p_plus - p_minus) / (2.0 * step)
