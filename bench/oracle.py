"""The benchmark's own numerics, written without the library.

These make the identify-long input word and judge the CLI's answers:
primitive grammars by Wielandt's bound on batched boolean powers, block
transfer matrices built entry by entry, the Perron root from
``np.linalg.eigvals``, and Perron vectors by inverse iteration at that root.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def primitive_grammars(theta: int) -> list[list[list[int]]]:
    """Every primitive theta x theta 0/1 matrix, ascending by the row-major
    binary value of its entries.  A 0/1 matrix is primitive iff its power
    (theta-1)^2 + 1 is entrywise positive (Wielandt)."""
    n = theta * theta
    codes = np.arange(2**n, dtype=np.int64)
    mats = ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1).reshape(-1, theta, theta)
    power = mats.copy()
    for _ in range((theta - 1) ** 2):
        power = (np.matmul(power, mats) > 0).astype(np.int64)
    return mats[power.all(axis=(1, 2))].tolist()


def comparable_pairs(grammars) -> list[tuple[int, int]]:
    """Index pairs (i, j) with grammar i entrywise below grammar j, i != j."""
    stack = np.array(grammars)
    le = (stack[:, None] <= stack[None, :]).all(axis=(2, 3))
    eq = (stack[:, None] == stack[None, :]).all(axis=(2, 3))
    return [(int(i), int(j)) for i, j in np.argwhere(le & ~eq)]


def admissible_blocks(matrix, length: int) -> list[tuple[int, ...]]:
    theta = len(matrix)
    return [s for s in itertools.product(range(theta), repeat=length)
            if all(matrix[a][b] for a, b in zip(s, s[1:]))]


def transfer_matrix(matrix, table, states) -> np.ndarray:
    """Entry (u, v) is exp(phi(u + v[-1])) when block v continues block u
    under the grammar, else 0."""
    index = {s: i for i, s in enumerate(states)}
    m = np.zeros((len(states), len(states)))
    for i, u in enumerate(states):
        for a in range(len(matrix)):
            if matrix[u[-1]][a]:
                m[i, index[u[1:] + (a,)]] = math.exp(table.get(u + (a,), 0.0))
    return m


def perron_root(m: np.ndarray) -> float:
    return float(np.linalg.eigvals(m).real.max())


def _inverse_iteration(a: np.ndarray, shift: float) -> np.ndarray:
    shifted = a - shift * np.eye(a.shape[0])
    v = np.ones(a.shape[0])
    for _ in range(3):
        v = np.linalg.solve(shifted, v)
        v = v / v.sum()
    return np.abs(v)


def gibbs_markov(matrix, table, rng_range: int):
    """The Gibbs chain of a grammar and a potential of range ``rng_range``.

    Returns ``(states, transition, stationary, lam)`` over the admissible
    ``(rng_range - 1)``-blocks in lexicographic order.
    """
    states = admissible_blocks(matrix, rng_range - 1)
    m = transfer_matrix(matrix, table, states)
    lam = perron_root(m)
    shift = lam * (1.0 + 1e-9)
    h = _inverse_iteration(m, shift)
    nu = _inverse_iteration(m.T, shift)
    transition = m * h[None, :] / (lam * h[:, None])
    transition /= transition.sum(axis=1, keepdims=True)
    stationary = nu * h / (nu @ h)
    return states, transition, stationary, lam


def chain_entropy(transition: np.ndarray, stationary: np.ndarray) -> float:
    support = transition > 0
    plogp = np.zeros_like(transition)
    plogp[support] = transition[support] * np.log(transition[support])
    return float(-(stationary[:, None] * plogp).sum())


def block_codes(word: np.ndarray, theta: int, width: int) -> np.ndarray:
    """Base-theta code of every length-``width`` window of ``word``."""
    windows = np.lib.stride_tricks.sliding_window_view(word, width)
    return windows @ (theta ** np.arange(width - 1, -1, -1))


def log_likelihood(word, theta: int, states, transition, stationary) -> float:
    """log P(word) under a block chain, from block-transition counts;
    -inf when the word leaves the chain's support."""
    width = len(states[0])
    lookup = np.full(theta**width, -1, dtype=np.int64)
    lookup[np.array(states) @ (theta ** np.arange(width - 1, -1, -1))] = np.arange(len(states))
    idx = lookup[block_codes(np.asarray(word, dtype=np.int64), theta, width)]
    if (idx < 0).any():
        return -math.inf
    s = len(states)
    counts = np.bincount(idx[:-1] * s + idx[1:], minlength=s * s).reshape(s, s)
    if (counts[transition == 0] > 0).any():
        return -math.inf
    logp = np.log(transition, where=transition > 0, out=np.zeros_like(transition))
    return float(math.log(stationary[idx[0]]) + (counts * logp).sum())


def random_tables(theta: int, count: int, ranges, bound: float, base_seed: int):
    """The monotonicity scan's random potentials, as its config specifies
    them: full tables, values uniform in [-bound, bound] drawn from
    ``np.random.default_rng(base_seed)`` in word order, ranges cycled."""
    rng = np.random.default_rng(base_seed)
    out = []
    for k in range(count):
        r = ranges[k % len(ranges)]
        words = list(itertools.product(range(theta), repeat=r))
        out.append((r, dict(zip(words, rng.uniform(-bound, bound, size=len(words)).tolist()))))
    return out


def monotonicity_scan(theta: int, n_potentials: int, ranges, bound: float, base_seed: int):
    """Per potential (zero first): its range, the strict-pair violation
    count and the minimum pressure gap; plus the pair count, grammar count
    and the minimum Perron-root gap under the zero potential."""
    grammars = primitive_grammars(theta)
    pairs = comparable_pairs(grammars)
    tables = [(2, {})] + random_tables(theta, n_potentials, ranges, bound, base_seed)
    rows = []
    lam_gap = math.inf
    for k, (r, table) in enumerate(tables):
        p = [math.log(perron_root(transfer_matrix(g, table, admissible_blocks(g, r - 1))))
             for g in grammars]
        deltas = [p[j] - p[i] for i, j in pairs]
        rows.append({"range": r, "violations": sum(d <= 0 for d in deltas),
                     "gap": min(deltas)})
        if k == 0:
            lam_gap = min(math.exp(p[j]) - math.exp(p[i]) for i, j in pairs)
    return {"rows": rows, "pairs": len(pairs), "grammars": len(grammars), "lambda_gap": lam_gap}
