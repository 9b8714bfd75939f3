"""Lexicons, words, and primitive grammars over a finite alphabet.

A grammar is a 0/1 incidence matrix over the lexicon: entry ``(a, b)`` says
whether symbol ``b`` may follow symbol ``a``.  Every grammar is required to
be primitive (irreducible and aperiodic), so it generates a topologically
mixing subshift of finite type and carries a unique chain of maximal
entropy.  Words are plain tuples of integer symbols; ``parse_word`` and
``format_word`` convert to and from the digit-string form used on the
command line.

Caller input is checked here, never coerced, by one rule per kind:
:func:`_integer` for an integer, :func:`_real` for a finite real and
:func:`_integers` for a sequence of integers, words included.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


def _integer(value, what: str) -> int:
    """``value``, a Python or numpy integer (not a float or bool), as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value``, a finite Python or numpy int or float (not a bool), as a float."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            if math.isfinite(number := float(value)):
                return number
        except OverflowError:   # an integer past the float range
            pass
    raise ValidationError(f"{what} must be a finite real number, got {value!r}")


def _ordered(values) -> bool:
    """Whether ``values`` keep an order of their own: a numpy array of at least one dimension, or a
    ``collections.abc.Sequence`` that is not a string (of characters).  A mapping, a set, a view
    and an iterator are not: keys come in key or hash order, and an iterator hides its source."""
    return (isinstance(values, np.ndarray) and values.ndim > 0
            or isinstance(values, Sequence) and not isinstance(values, str))


def _integers(values, what: str) -> tuple[int, ...]:
    """``values``, Python or numpy integers (not floats or bools) in an :func:`_ordered`
    collection, as a tuple of ints.  Python ints pass on one read of their types; any other
    values go through :func:`_integer`."""
    if not _ordered(values):
        raise ValidationError(f"{what}s must come in a sequence, got {values!r}")
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    return tuple(_integer(value, what) for value in values)


@dataclass(frozen=True)
class Lexicon:
    """Alphabet of ``theta`` symbols, represented as the integers 0..theta-1."""

    theta: int

    def __post_init__(self) -> None:
        theta = _integer(self.theta, "lexicon theta")
        if theta < 2:
            raise ValidationError(f"lexicon needs an integer theta >= 2, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)

    @property
    def symbols(self) -> range:
        return range(self.theta)


class OrderRelation(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def validate_word(word, lexicon: Lexicon) -> tuple[int, ...]:
    """``word``, an :func:`_ordered` collection (a digit string goes through
    :func:`parse_word`) of Python or numpy integer symbols (not floats or bools), as a tuple of
    ints, each checked to lie in the lexicon."""
    w = _integers(word, "word symbol")
    if w and not 0 <= min(w) <= max(w) < lexicon.theta:
        s = next(s for s in w if not 0 <= s < lexicon.theta)
        raise ValidationError(f"symbol {s} outside lexicon of size {lexicon.theta}")
    return w


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a digit string like ``"0110"`` into a word (one digit per symbol)."""
    if not isinstance(text, str) or not text.isascii() or not all(c.isdigit() for c in text):
        raise ValidationError(f"word text must be decimal digits, got {text!r}")
    return tuple(int(c) for c in text)


def format_word(word) -> str:
    """Render a word of integer symbols (not floats or bools) as a digit string; theta <= 10."""
    w = np.array(_integers(word, "word symbol"), dtype=np.int64)
    if w.size and (w.min() < 0 or w.max() > 9):
        raise ValidationError("digit rendering needs symbols in 0..9; use a JSON integer array instead")
    return (w + ord("0")).astype(np.uint8).tobytes().decode()


def _as_incidence(matrix) -> np.ndarray:
    """``matrix`` as a square int64 array of at least two symbols whose
    entries are :func:`_integers` 0s and 1s."""
    entries = np.array(matrix, dtype=object)   # ragged rows make a 1-D array of rows
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValidationError(f"incidence matrix must be square, got shape {entries.shape}")
    if entries.shape[0] < 2:
        raise ValidationError("incidence matrix needs at least two symbols")
    flat = _integers(entries.ravel(), "incidence matrix entry")
    if not set(flat) <= {0, 1}:   # before int64, which an entry like 2**70 would overflow
        raise ValidationError("incidence matrix entries must be 0 or 1")
    return np.array(flat, dtype=np.int64).reshape(entries.shape)


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
