"""Shared fixtures: the three primitive two-symbol grammars and friends."""

import os
from collections import deque
from math import gcd
from pathlib import Path

import pytest

from sftlearn import Grammar, Lexicon, Potential

# pyproject's ``pythonpath`` puts ``src`` on this process's path; export it so
# that child interpreters started by the CLI tests import the same checkout.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def lex2():
    return Lexicon(2)


@pytest.fixture
def golden():
    return Grammar.from_rows([[1, 1], [1, 0]])


@pytest.fixture
def full2():
    return Grammar.from_rows([[1, 1], [1, 1]])


@pytest.fixture
def swapped():
    # golden-mean with the roles of 0 and 1 exchanged: forbids "00"
    return Grammar.from_rows([[0, 1], [1, 1]])


@pytest.fixture
def zero2(lex2):
    return Potential.zero(lex2)


def primitive_by_graph(rows) -> bool:
    """Independent primitivity oracle: strong connectivity by double BFS plus
    aperiodicity via the gcd of cycle-length differences along a BFS tree."""
    t = len(rows)

    def reachable(adj, start):
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in range(t):
                if adj[u][v] and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    transposed = [[rows[j][i] for j in range(t)] for i in range(t)]
    if len(reachable(rows, 0)) < t or len(reachable(transposed, 0)) < t:
        return False

    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in range(t):
            if rows[u][v] and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    period = 0
    for u in range(t):
        for v in range(t):
            if rows[u][v]:
                period = gcd(period, dist[u] + 1 - dist[v])
    return abs(period) == 1
