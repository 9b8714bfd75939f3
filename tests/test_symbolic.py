"""Lexicons, words, incidence matrices, and the primitive-grammar catalogue."""

import itertools
import re
import types
from collections import deque

import numpy as np
import pytest

from sftlearn import (
    ClassTooLargeError,
    ExperimentConfig,
    Grammar,
    Lexicon,
    OrderRelation,
    Potential,
    ValidationError,
    compare,
    enumerate_grammars,
    format_word,
    gibbs_chain,
    is_primitive,
    parse_word,
    sample,
    validate_word,
    wielandt_exponent,
)

from conftest import primitive_by_graph


# ---------------------------------------------------------------------------
# lexicons and words
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "2", True])
def test_lexicon_rejects_non_integral_or_small_theta(bad):
    with pytest.raises(ValidationError):
        Lexicon(bad)


def test_lexicon_stores_a_numpy_integer_theta_as_an_int():
    lex = Lexicon(np.int64(3))
    assert lex == Lexicon(3) and type(lex.theta) is int


def test_lexicon_symbols_enumerate_the_alphabet():
    assert list(Lexicon(4).symbols) == [0, 1, 2, 3]


def test_validate_word_normalizes_to_tuple(lex2):
    assert validate_word([0, 1, 1], lex2) == (0, 1, 1)
    assert validate_word((), lex2) == ()
    w = validate_word((np.int64(1), np.uint8(0)), lex2)
    assert w == (1, 0) and [type(s) for s in w] == [int, int]
    # an iterator hides whether its source keeps an order (a list's does, a set's does not),
    # so it is refused before it is read
    symbols = iter((1, 1, 0))
    with pytest.raises(ValidationError, match="^word symbols must come in a sequence, got <"):
        validate_word(symbols, lex2)
    assert next(symbols) == 1


@pytest.mark.parametrize("word, message", [
    ((0, 1.9), "word symbol must be an integer, got 1.9"),
    ((True, 0), "word symbol must be an integer, got True"),
    (("0", "1"), "word symbol must be an integer, got '0'"),
    ((np.float64(0.0), 1), f"word symbol must be an integer, got {np.float64(0.0)!r}"),
    (5, "word symbols must come in a sequence, got 5"),
    # a string's characters, a mapping's keys and a set's members are no sequence of symbols:
    # keys and members come in hash order, which would invent the word's order
    ("01", "word symbols must come in a sequence, got '01'"),
    ({1: "a", 0: "b"}, "word symbols must come in a sequence, got {1: 'a', 0: 'b'}"),
    ({1, 0}, "word symbols must come in a sequence, got {0, 1}"),
    (frozenset({1, 0}), "word symbols must come in a sequence, got frozenset({0, 1})"),
], ids=["float", "bool", "str", "numpy-float", "not-a-sequence", "string", "dict", "set",
        "frozenset"])
def test_validate_word_checks_symbols_instead_of_coercing_them(lex2, word, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        validate_word(word, lex2)


# Each maker returns a fresh value, since an iterator is spent once read.
UNORDERED = {
    "mappingproxy": lambda: types.MappingProxyType({1: "a", 0: "b"}),
    "keys": lambda: {1: "a", 0: "b"}.keys(),
    "values": lambda: {"a": 1, "b": 0}.values(),
    "items": lambda: {1: 0, 0: 1}.items(),
    "set-iterator": lambda: iter({1, 0}),
    "generator": lambda: (s for s in (1, 0)),
}
ORDERED = {
    "list": lambda: [1, 0],
    "tuple": lambda: (1, 0),
    "range": lambda: range(1, -1, -1),
    "deque": lambda: deque([1, 0]),
    "ndarray": lambda: np.array([1, 0]),
}


@pytest.mark.parametrize("make", UNORDERED.values(), ids=UNORDERED)
def test_a_mapping_a_view_or_an_iterator_is_no_word_table_word_or_config_list(lex2, make):
    # keys, members and an iterator's source come in an order the caller may not have chosen
    with pytest.raises(ValidationError, match="^word symbols must come in a sequence, got "):
        validate_word(make(), lex2)
    with pytest.raises(ValidationError, match="^table word .*: symbols must come in a sequence"):
        Potential(lex2, 2, ((make(), 1.0),))
    with pytest.raises(ValidationError,
                       match="^experiment config field 'checkpoints': expected a list, got "):
        ExperimentConfig(experiment="smb", checkpoints=make())


@pytest.mark.parametrize("make", ORDERED.values(), ids=ORDERED)
def test_a_list_tuple_range_deque_or_array_is_a_word_table_word_and_config_list(lex2, make):
    assert validate_word(make(), lex2) == (1, 0)
    assert Potential(lex2, 2, ((make(), 1.0),)).entries == (((1, 0), 1.0),)
    assert ExperimentConfig(experiment="smb", checkpoints=make()).checkpoints == (1, 0)


def test_validate_word_rejects_out_of_range_symbols(lex2):
    with pytest.raises(ValidationError, match="^symbol 2 outside lexicon of size 2$"):
        validate_word((0, 2), lex2)
    with pytest.raises(ValidationError, match="^symbol -1 outside lexicon of size 2$"):
        validate_word((0, -1), lex2)
    # the first bad symbol is named, not the least or the greatest
    with pytest.raises(ValidationError, match="^symbol 3 outside lexicon of size 2$"):
        validate_word((1, 3, -1, 7), lex2)


def test_parse_and_format_word_round_trip():
    assert parse_word("0110") == (0, 1, 1, 0)
    assert format_word((2, 0, 1)) == "201"
    assert parse_word(format_word((0, 1, 1, 0))) == (0, 1, 1, 0)


def test_parse_word_rejects_non_digits():
    with pytest.raises(ValidationError):
        parse_word("01a0")
    with pytest.raises(ValidationError):
        parse_word("-12")
    # str.isdigit also takes other scripts' digits and superscripts, which int() reads or rejects
    for text in ("0\u0663", "01\u00b2"):
        with pytest.raises(ValidationError, match=f"^word text must be decimal digits, got {text!r}$"):
            parse_word(text)


def test_format_word_rejects_symbols_beyond_digits():
    with pytest.raises(ValidationError):
        format_word((0, 11))


def test_format_word_writes_one_digit_per_symbol():
    def digits(word):   # the plain one-symbol-at-a-time rendering
        return "".join(str(int(s)) for s in word)

    lex3 = Lexicon(3)
    full3 = Grammar(lex3, ((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    words = [sample(gibbs_chain(full3, Potential.zero(lex3)), 5000, seed=4).word,
             (), (7,), tuple(range(10)), [np.int64(3), 9, 0], np.arange(10)[::-1]]
    phi = Potential.from_table(lex3, 3, {(0, 1, 2): 1.5, (2, 2, 0): -0.5, (1, 0, 1): 2.0})
    words += [w for w, _ in phi.entries]
    for word in words:
        assert format_word(word) == digits(word)
    for bad in ((0, 11), (10,), (-1,), (3, -2, 12)):
        with pytest.raises(ValidationError, match=r"^digit rendering needs symbols in 0\.\.9; "
                                                  r"use a JSON integer array instead$"):
            format_word(bad)


def test_format_word_rejects_floats_and_bools_instead_of_truncating():
    for bad in ((0, 1.9), [True, 0], (0.0,), [False], [0, np.True_], np.array([1.0, 2.0]),
                np.array([True, False]), (0, "1")):
        with pytest.raises(ValidationError, match="^word symbol must be an integer, got "):
            format_word(bad)
    for word, text in (((), ""), ([], ""), (np.array([], dtype=np.int64), ""),
                       ([2, 0, 1], "201"), ((2, 0, 1), "201"), (np.array([2, 0, 1]), "201"),
                       (np.array([2, 0, 1], dtype=np.uint8), "201")):
        assert format_word(word) == text


# ---------------------------------------------------------------------------
# primitivity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta,expected", [(2, 2), (3, 5), (4, 10)])
def test_wielandt_exponent_values(theta, expected):
    assert wielandt_exponent(theta) == expected


def test_is_primitive_hand_cases():
    assert is_primitive([[1, 1], [1, 0]])
    assert is_primitive([[1, 1], [1, 1]])
    assert not is_primitive([[0, 1], [1, 0]])   # period two
    assert not is_primitive([[1, 0], [0, 1]])   # disconnected
    assert not is_primitive([[1, 1], [0, 1]])   # not irreducible
    # the classic extremal example: a cycle plus one chord needs the full
    # Wielandt power to go positive, and must still be recognized
    assert is_primitive([[0, 1, 0], [0, 0, 1], [1, 1, 0]])


def test_wielandt_bound_is_tight_for_the_extremal_matrix():
    m = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=np.int64)
    p = np.eye(3, dtype=np.int64)
    first_positive = None
    for k in range(1, wielandt_exponent(3) + 1):
        p = (p @ m > 0).astype(np.int64)
        if p.all():
            first_positive = k
            break
    assert first_positive == wielandt_exponent(3)


def test_is_primitive_matches_graph_oracle_exhaustively():
    for theta in (2, 3):
        for bits in itertools.product((0, 1), repeat=theta * theta):
            rows = [list(bits[i * theta:(i + 1) * theta]) for i in range(theta)]
            assert is_primitive(rows) == primitive_by_graph(rows), rows


def test_is_primitive_rejects_malformed_matrices():
    with pytest.raises(ValidationError):
        is_primitive([[1, 1], [1]])
    with pytest.raises(ValidationError):
        is_primitive([[1, 2], [1, 0]])
    # checked before the int64 array, which such an entry would overflow
    with pytest.raises(ValidationError, match="^incidence matrix entries must be 0 or 1$"):
        is_primitive([[1, 2**70], [1, 0]])
    with pytest.raises(ValidationError):
        is_primitive([[1]])


@pytest.mark.parametrize("rows", [
    ((1, 1.5), (1, 0)), ((1, 1.0), (1, 0)), ((True, 1), (1, 0)), ((1, "1"), (1, 0)),
    np.array([[1, 1], [1, 0]], dtype=bool), np.array([[1, 1], [1, 0]], dtype=float),
])
def test_incidence_entries_are_checked_not_coerced(lex2, rows):
    with pytest.raises(ValidationError, match="entry must be an integer"):
        is_primitive(rows)
    with pytest.raises(ValidationError, match="entry must be an integer"):
        Grammar(lex2, rows)


# ---------------------------------------------------------------------------
# grammars
# ---------------------------------------------------------------------------

def test_grammar_constructor_enforces_primitivity(lex2):
    with pytest.raises(ValidationError) as err:
        Grammar(lex2, ((0, 1), (1, 0)))
    assert "[[0, 1], [1, 0]]" in str(err.value)


def test_grammar_normalizes_rows_and_freezes_array(golden):
    assert golden.matrix == ((1, 1), (1, 0))
    assert golden.array.dtype == np.int64
    with pytest.raises(ValueError):
        golden.array[0, 0] = 0


def test_grammar_shape_must_match_lexicon(lex2):
    with pytest.raises(ValidationError):
        Grammar(lex2, ((1, 1, 0), (1, 0, 0), (1, 0, 0)))


def test_grammar_equality_and_hash(golden):
    again = Grammar.from_rows(np.array([[1, 1], [1, 0]]))
    assert again == golden == Grammar.from_rows(np.array([[1, 1], [1, 0]], dtype=np.uint8))
    assert hash(again) == hash(golden)


def test_compare_covers_all_relations(golden, full2, swapped):
    assert compare(golden, full2) is OrderRelation.LESS
    assert compare(full2, golden) is OrderRelation.GREATER
    assert compare(golden, golden) is OrderRelation.EQUAL
    assert compare(golden, swapped) is OrderRelation.INCOMPARABLE


def test_compare_requires_shared_lexicon(golden):
    other = Grammar.from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(ValidationError):
        compare(golden, other)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_theta2_catalogue(lex2):
    matrices = [g.matrix for g in enumerate_grammars(lex2)]
    assert matrices == [
        ((0, 1), (1, 1)),
        ((1, 1), (1, 0)),
        ((1, 1), (1, 1)),
    ]


@pytest.mark.parametrize("theta, count", [(3, 139), (4, 25575)])
def test_enumerate_theta3_matches_graph_oracle(theta, count):
    got = [g.matrix for g in enumerate_grammars(Lexicon(theta))]
    expected = []
    for bits in itertools.product((0, 1), repeat=theta * theta):
        rows = tuple(tuple(bits[theta * i:theta * i + theta]) for i in range(theta))
        if primitive_by_graph([list(r) for r in rows]):
            expected.append(rows)
    assert got == expected
    assert len(got) == count


@pytest.mark.parametrize("theta, sample", [(2, None), (3, None), (4, 500)])
def test_enumerated_grammars_equal_validated_ones(theta, sample):
    lex = Lexicon(theta)
    grammars = enumerate_grammars(lex)
    if sample is not None:
        picks = np.random.default_rng(theta).choice(len(grammars), sample, replace=False)
        grammars = [grammars[i] for i in sorted(picks.tolist())]
    for g in grammars:
        built = Grammar(lex, [list(row) for row in g.matrix])   # validated from scratch
        assert g == built and hash(g) == hash(built) and repr(g) == repr(built)
        assert (g.array == built.array).all() and not g.array.flags.writeable
    assert len(set(grammars)) == len(grammars)


def test_enumeration_is_row_major_ascending(lex2):
    def key(g):
        return tuple(bit for row in g.matrix for bit in row)
    keys = [key(g) for g in enumerate_grammars(lex2)]
    assert keys == sorted(keys)


def test_enumeration_cap():
    with pytest.raises(ClassTooLargeError):
        enumerate_grammars(Lexicon(5))
