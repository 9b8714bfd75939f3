"""Lexicons, words, and primitive grammars over a finite alphabet.

A grammar is a 0/1 incidence matrix over the lexicon: entry ``(a, b)`` says
whether symbol ``b`` may follow symbol ``a``.  Every grammar is required to
be primitive (irreducible and aperiodic), so it generates a topologically
mixing subshift of finite type and carries a unique chain of maximal
entropy.  Words are plain tuples of integer symbols; ``parse_word`` and
``format_word`` convert to and from the digit-string form used on the
command line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

# Exhaustive enumeration scans 2^(theta^2) candidate matrices; theta = 4
# (65536 candidates) is the largest class that stays interactive.
ENUMERATION_CAP = 4


class ValidationError(ValueError):
    """Malformed input: bad matrix, lexicon mismatch, or invalid word."""


class ClassTooLargeError(ValidationError):
    """Exhaustive grammar enumeration requested beyond the feasible cap."""


@dataclass(frozen=True)
class Lexicon:
    """Alphabet of ``theta`` symbols, represented as the integers 0..theta-1."""

    theta: int

    def __post_init__(self) -> None:
        if not isinstance(self.theta, int) or isinstance(self.theta, bool) or self.theta < 2:
            raise ValidationError(f"lexicon needs an integer theta >= 2, got {self.theta!r}")

    @property
    def symbols(self) -> range:
        return range(self.theta)


class OrderRelation(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def validate_word(word, lexicon: Lexicon) -> tuple[int, ...]:
    """Coerce ``word`` to a tuple of symbols and check it fits the lexicon."""
    try:
        w = tuple(int(s) for s in word)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"word must be a sequence of integers, got {word!r}") from exc
    for s in w:
        if not 0 <= s < lexicon.theta:
            raise ValidationError(f"symbol {s} outside lexicon of size {lexicon.theta}")
    return w


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a digit string like ``"0110"`` into a word (one digit per symbol)."""
    if not isinstance(text, str) or not all(c.isdigit() for c in text):
        raise ValidationError(f"word text must be decimal digits, got {text!r}")
    return tuple(int(c) for c in text)


def format_word(word) -> str:
    """Render a word of integer symbols (not floats or bools) as a digit string; theta <= 10."""
    kinds = {word.dtype.type} if isinstance(word, np.ndarray) and word.size else set(map(type, word))
    if not all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
        raise ValidationError("word symbols must be integers, not floats or bools")
    w = np.asarray(word, dtype=np.int64)
    if w.size and (w.min() < 0 or w.max() > 9):
        raise ValidationError("digit rendering needs symbols in 0..9; use a JSON integer array instead")
    return (w + ord("0")).astype(np.uint8).tobytes().decode()


def _as_incidence(matrix) -> np.ndarray:
    try:
        arr = np.asarray(matrix, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"incidence matrix must be numeric, got {matrix!r}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"incidence matrix must be square, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValidationError("incidence matrix needs at least two symbols")
    if arr.min() < 0 or arr.max() > 1:
        raise ValidationError("incidence matrix entries must be 0 or 1")
    return arr


def wielandt_exponent(theta: int) -> int:
    """Smallest power guaranteed to expose primitivity: (theta - 1)^2 + 1."""
    return (theta - 1) ** 2 + 1


def _primitive(stack: np.ndarray) -> np.ndarray:
    """Primitivity of each matrix in a ``(k, theta, theta)`` 0/1 stack.

    A nonnegative matrix is primitive iff some power is entrywise positive,
    and then every power from the Wielandt exponent (theta-1)^2 + 1 upward
    is.  So squaring the boolean matrix until the exponent reaches a power
    of two at or above that bound decides it: 4 squarings at theta = 4.
    """
    p = stack.astype(bool)
    for _ in range((wielandt_exponent(stack.shape[-1]) - 1).bit_length()):
        p = p @ p
    return p.all(axis=(1, 2))


def is_primitive(matrix) -> bool:
    """Decide primitivity of a square 0/1 matrix by boolean squaring up to
    the Wielandt exponent (see ``_primitive``)."""
    return bool(_primitive(_as_incidence(matrix)[None])[0])


@dataclass(frozen=True)
class Grammar:
    """Primitive 0/1 incidence matrix over a lexicon.

    Construction validates shape, 0/1 entries, and primitivity, so any
    ``Grammar`` instance in circulation is safe to feed to the transfer
    machinery.  Instances are immutable and hashable.
    """

    lexicon: Lexicon
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        arr = _as_incidence(self.matrix)
        t = self.lexicon.theta
        if arr.shape != (t, t):
            raise ValidationError(f"matrix shape {arr.shape} does not match theta={t}")
        rows = tuple(map(tuple, arr.tolist()))
        object.__setattr__(self, "matrix", rows)
        if not _primitive(arr[None])[0]:
            raise ValidationError(f"matrix is not primitive: {list(map(list, rows))}")

    @classmethod
    def from_rows(cls, rows) -> "Grammar":
        """Grammar over the lexicon with one symbol per row of ``rows``."""
        return cls(Lexicon(len(rows)), rows)

    @cached_property
    def array(self) -> np.ndarray:
        a = np.array(self.matrix, dtype=np.int64)
        a.setflags(write=False)
        return a


def compare(g: Grammar, h: Grammar) -> OrderRelation:
    """Entrywise partial order on grammars sharing a lexicon."""
    if g.lexicon != h.lexicon:
        raise ValidationError("cannot compare grammars over different lexicons")
    a, b = g.array, h.array
    if (a == b).all():
        return OrderRelation.EQUAL
    if (a <= b).all():
        return OrderRelation.LESS
    if (a >= b).all():
        return OrderRelation.GREATER
    return OrderRelation.INCOMPARABLE


def admits(g: Grammar, word) -> bool:
    """Whether every adjacent symbol pair of ``word`` is allowed by ``g``.

    Words of length 0 or 1 are always admitted.
    """
    w = validate_word(word, g.lexicon)
    if len(w) < 2:
        return True
    arr = np.asarray(w)
    return bool(g.array[arr[:-1], arr[1:]].all())


def transition_closure(word, lexicon: Lexicon) -> np.ndarray:
    """Smallest incidence matrix admitting ``word`` (not necessarily primitive)."""
    w = validate_word(word, lexicon)
    if not w:
        raise ValidationError("transition closure of the empty word is undefined")
    m = np.zeros((lexicon.theta, lexicon.theta), dtype=np.int64)
    for a, b in zip(w, w[1:]):
        m[a, b] = 1
    return m


def enumerate_grammars(lexicon: Lexicon) -> list[Grammar]:
    """All primitive grammars over ``lexicon``, ascending by the row-major
    binary value of the matrix.

    Every candidate matrix is decoded into one ``(2^(theta^2), theta,
    theta)`` stack, and ``_primitive`` squares the whole stack at once up to
    the Wielandt exponent; the objects are then made without validating
    each matrix again.  On one core of a 2-vCPU Xeon this takes about
    0.5 ms at theta = 3 and about 0.14 s at theta = 4.  Raises
    :class:`ClassTooLargeError` above ``theta = ENUMERATION_CAP``.
    """
    t = lexicon.theta
    if t > ENUMERATION_CAP:
        raise ClassTooLargeError(
            f"grammar class too large: theta={t} means 2^{t * t} candidate matrices "
            f"(enumeration is capped at theta={ENUMERATION_CAP})"
        )
    n = t * t
    codes = np.arange(2**n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    mats = ((codes[:, None] >> shifts) & 1).reshape(-1, t, t)
    out = []
    for m in mats[_primitive(mats)].tolist():
        g = object.__new__(Grammar)   # a known primitive matrix: no __post_init__ check
        vars(g).update(lexicon=lexicon, matrix=tuple(map(tuple, m)))
        out.append(g)
    return out


def all_words(lexicon: Lexicon, length: int):
    """Iterate every word of the given length, lexicographically."""
    return itertools.product(lexicon.symbols, repeat=length)
