"""Brute-force word oracles shared by the tests; they trust their inputs."""

import itertools

import numpy as np


def all_words(lexicon, length):
    """Every word of ``length`` symbols over ``lexicon``, lexicographically."""
    return itertools.product(lexicon.symbols, repeat=length)


def admits(grammar, word) -> bool:
    """Whether ``grammar`` allows every adjacent pair of ``word`` (always, below 2 symbols)."""
    w = np.asarray(word, dtype=np.intp)
    return bool(grammar.array[w[:-1], w[1:]].all())


def transition_closure(word, lexicon) -> np.ndarray:
    """The 0/1 matrix of the adjacent pairs that ``word`` uses."""
    w, t = np.asarray(word, dtype=np.intp), lexicon.theta
    return (np.bincount(w[:-1] * t + w[1:], minlength=t * t) > 0).astype(np.int64).reshape(t, t)


def comparable_pairs(grammars) -> list:
    """Every index pair ``(i, j)`` with grammar ``i`` strictly below grammar
    ``j``: entrywise ``<=`` and not equal, tested pair by pair."""
    return [(i, j) for i, g in enumerate(grammars) for j, h in enumerate(grammars)
            if (g.array <= h.array).all() and (g.array != h.array).any()]
