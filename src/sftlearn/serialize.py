"""JSON and CSV converters for the stable on-disk formats.

Grammars travel as ``{"theta": int, "matrix": [[0/1, ...], ...]}`` and
potentials as ``{"theta": int, "range": int, "entries": [{"word": "110",
"value": 2.5}, ...]}`` with unlisted words reading 0; over more than ten
symbols a word is an integer array, not a digit string.  Log likelihoods of
forbidden words serialize as the string ``"-inf"`` and undefined entropies
as ``null``.  ``dumps`` renders deterministically (sorted keys, fixed
layout) so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

from .gibbs import Potential, Sample
from .identify import IdentificationOutcome
from .symbolic import (Grammar, Lexicon, ValidationError, _integer, _ordered, _real, format_word,
                       parse_word)


def word_to_json(word, lexicon: Lexicon):
    """A word's JSON form: a digit string over at most ten symbols, else a list of ints."""
    return format_word(word) if lexicon.theta <= 10 else list(word)


def grammar_to_dict(g: Grammar) -> dict:
    return {"theta": g.lexicon.theta, "matrix": [list(row) for row in g.matrix]}


# A JSON value's converters; ``_read`` names the field around their messages.
_int = functools.partial(_integer, what="value")
_number = functools.partial(_real, what="value")


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _tuple_of(convert):
    """Converter of an :func:`_ordered` collection, item by item, to a tuple."""
    def converted(values):
        if not _ordered(values):
            raise TypeError(f"expected a list, got {values!r}")
        return tuple(map(convert, values))
    return converted


def _read(data: dict, kind: str, name: str, convert):
    """``convert(data[name])``; a value of the wrong type or out of range is
    bad input whose message names the field."""
    try:
        return convert(data[name])
    except (TypeError, ValueError) as exc:  # ValidationError included
        raise ValidationError(f"{kind} field {name!r}: {exc}") from exc


def grammar_from_dict(data) -> Grammar:
    if not isinstance(data, dict) or "theta" not in data or "matrix" not in data:
        raise ValidationError(f"grammar object needs 'theta' and 'matrix' fields, got {data!r}")
    return Grammar(Lexicon(_read(data, "grammar", "theta", _int)),
                   _read(data, "grammar", "matrix", _tuple_of(_tuple_of(_int))))


def potential_to_dict(p: Potential) -> dict:
    return {
        "theta": p.lexicon.theta,
        "range": p.range,
        "entries": [{"word": word_to_json(w, p.lexicon), "value": v} for w, v in p.entries],
    }


def _entry(item) -> tuple:
    """A potential entry's (word, value) pair from its JSON object."""
    if not isinstance(item, dict) or "word" not in item or "value" not in item:
        raise ValidationError(f"potential entry needs 'word' and 'value', got {item!r}")
    return (_read(item, "potential entry", "word",
                  parse_word if isinstance(item["word"], str) else _tuple_of(_int)),
            _read(item, "potential entry", "value", _number))


def potential_from_dict(data) -> Potential:
    if not isinstance(data, dict):
        raise ValidationError(f"potential object must be a JSON object, got {data!r}")
    for field in ("theta", "range"):
        if field not in data:
            raise ValidationError(f"potential object is missing the '{field}' field")
    entries = _read(data, "potential", "entries", _tuple_of(_entry)) if "entries" in data else ()
    return Potential(Lexicon(_read(data, "potential", "theta", _int)),
                     _read(data, "potential", "range", _int), entries)


def encode_floats(obj):
    """``obj`` with every non-finite float, through dicts, lists and tuples, as the
    string ``"inf"``, ``"-inf"`` or ``"nan"``, since JSON has no such numbers."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: encode_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_floats(v) for v in obj]
    return obj


def outcome_to_dict(outcome: IdentificationOutcome) -> dict:
    return {
        "n": outcome.n,
        "scores": [{"grammar": grammar_to_dict(s.grammar),
                    "log_likelihood": encode_floats(s.log_likelihood),
                    "entropy": s.entropy} for s in outcome.scores],
        "ml_set": list(outcome.ml_indices),
        "min_entropy_set": list(outcome.min_entropy_indices),
        "none_admissible": outcome.none_admissible,
    }


def sample_to_dict(s: Sample) -> dict:
    return {
        "word": word_to_json(s.word, s.grammar.lexicon),
        "length": len(s.word),
        "seed": s.seed,
        "grammar": grammar_to_dict(s.grammar),
        "potential": potential_to_dict(s.potential),
    }


def chain_summary(chain) -> dict:
    return {"pressure": chain.pressure, "entropy": chain.entropy, "lambda": encode_floats(chain.lam)}


def dumps(obj) -> str:
    """Deterministic JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_text(curve: list[dict]) -> str:
    """Render a report's curve as RFC-4180 CSV with a newline terminator: one column per key of
    its first row, in that order (every row of a curve has the same keys), ``None`` as an empty
    cell."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, list(curve[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(curve)
    return buf.getvalue()
