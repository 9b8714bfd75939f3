"""Command-line front end.

Subcommands map one-to-one onto library calls::

    sftlearn pressure   --grammar g.json [--potential p.json]
    sftlearn entropy    --grammar g.json [--potential p.json]
    sftlearn sample     --grammar g.json --length 100 [--seed 7]
    sftlearn identify   --sample 0110 [--grammar-set auto] [--potential p.json]
    sftlearn enumerate  --theta 2
    sftlearn experiment --experiment ml-convergence [--format csv]

All randomness flows through ``--seed`` (or the config's ``base_seed``), so a
repeated invocation writes byte-identical output.  Results go to standard
output or ``--output``; the only thing ever printed to standard error besides
diagnostics is a final timing line.  Exit status: 0 on success, 1 when inputs
fail validation, 2 on a numerical failure (an eigen-solve failed its
certificate, or a weight overflowed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from . import __version__
from .experiments import EXPERIMENT_IDS, ExperimentConfig, default_config, run_experiment
from .gibbs import Potential, gibbs_chain, pressure, sample
from .identify import DEFAULT_TIE_TOL, identify
from .serialize import (
    chain_summary,
    csv_text,
    dumps,
    grammar_from_dict,
    grammar_to_dict,
    outcome_to_dict,
    potential_from_dict,
    sample_to_dict,
)
from .symbolic import Grammar, Lexicon, ValidationError, _integers, enumerate_grammars, parse_word


class _Parser(argparse.ArgumentParser):
    """argparse's usage errors exit with status 2; here 2 means a numerical
    failure, so remap bad command lines to the validation status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:   # the latter: arrays nested too deep
        raise ValidationError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc


def _load(path: str, convert):
    """``convert`` of the JSON file at ``path``, its errors prefixed with the path."""
    data = _load_json(path)
    try:
        return convert(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _load_potential(path: str | None, lexicon: Lexicon) -> Potential:
    return Potential.zero(lexicon) if path is None else _load(path, potential_from_dict)


def _load_word(args) -> tuple[int, ...]:
    if args.sample_file is not None:
        data = _load_json(args.sample_file)
        word = _integers(data, f"{args.sample_file}: word symbol") if isinstance(data, list) else ()
        if not isinstance(data, list) or min(word, default=0) < 0:
            raise ValidationError(
                f"{args.sample_file}: a word file must hold a JSON array of nonnegative integers")
    else:
        word = parse_word(args.sample)
    if not word:
        raise ValidationError("the observed word must be nonempty")
    return word


def _grammar_set(data) -> tuple[Grammar, ...]:
    if not isinstance(data, list) or not data:
        raise ValidationError("grammar set must be a nonempty JSON array")
    return tuple(map(grammar_from_dict, data))


def _chain_inputs(args) -> tuple[Grammar, Potential]:
    """The ``--grammar`` and ``--potential`` of a chain subcommand."""
    g = _load(args.grammar, grammar_from_dict)
    return g, _load_potential(args.potential, g.lexicon)


def _cmd_pressure(args) -> str:
    return dumps({"pressure": pressure(*_chain_inputs(args))})


def _cmd_entropy(args) -> str:
    return dumps({"entropy": gibbs_chain(*_chain_inputs(args)).entropy})


def _cmd_sample(args) -> str:
    chain = gibbs_chain(*_chain_inputs(args))
    out = sample_to_dict(sample(chain, args.length, args.seed))
    out["chain"] = chain_summary(chain)
    return dumps(out)


def _cmd_identify(args) -> str:
    word = _load_word(args)
    if args.grammar_set == "auto":
        theta = args.theta if args.theta is not None else max(2, max(word) + 1)
        candidates = tuple(enumerate_grammars(Lexicon(theta)))
    else:
        candidates = _load(args.grammar_set, _grammar_set)
    phi = _load_potential(args.potential, candidates[0].lexicon)
    outcome = identify(word, phi, candidates, args.tie_tol)
    return dumps(outcome_to_dict(outcome))


def _cmd_enumerate(args) -> str:
    return dumps([grammar_to_dict(g) for g in enumerate_grammars(Lexicon(args.theta))])


def _cmd_experiment(args) -> str:
    if args.config is not None:
        config = ExperimentConfig.from_dict(_load_json(args.config))
    else:
        config = default_config(args.experiment)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    report = run_experiment(config)
    if args.format == "csv":
        return csv_text(report.curve)
    return dumps(report.to_dict())


@functools.cache   # parsing leaves a parser as it was, so one process builds it once
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sftlearn",
                     description="Gibbs chains over subshifts of finite type, and "
                                 "grammar identification from sampled words.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(func=func)
        p.add_argument("--output", metavar="PATH",
                       help="write the result here instead of standard output")
        return p

    for name, help_text, func in (
            ("pressure", "log of the leading transfer-operator eigenvalue", _cmd_pressure),
            ("entropy", "Kolmogorov-Sinai entropy of the Gibbs chain", _cmd_entropy),
            ("sample", "draw one word from the Gibbs chain", _cmd_sample)):
        p = add(name, help_text, func)
        p.add_argument("--grammar", required=True, metavar="PATH", help="grammar JSON file")
        p.add_argument("--potential", metavar="PATH",
                       help="potential JSON file (omitted: the zero potential)")
    # p is sample's parser
    p.add_argument("--length", required=True, type=int, help="word length to draw")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p = add("identify", "score candidate grammars against an observed word", _cmd_identify)
    word_src = p.add_mutually_exclusive_group(required=True)
    word_src.add_argument("--sample", metavar="WORD",
                          help="observed word as a digit string (lexicons up to ten symbols)")
    word_src.add_argument("--sample-file", metavar="PATH",
                          help="observed word as a JSON array of integers")
    p.add_argument("--grammar-set", default="auto", metavar="PATH|auto",
                   help="JSON array of candidate grammars, or 'auto' to enumerate "
                        "every primitive grammar over the word's lexicon (default)")
    p.add_argument("--theta", type=int,
                   help="lexicon size for --grammar-set auto (default: inferred from the word)")
    p.add_argument("--potential", metavar="PATH",
                   help="potential JSON file (omitted: the zero potential)")
    p.add_argument("--tie-tol", type=float, default=DEFAULT_TIE_TOL,
                   help=f"score-tie tolerance (default {DEFAULT_TIE_TOL})")

    p = add("enumerate", "list every primitive grammar over a lexicon", _cmd_enumerate)
    p.add_argument("--theta", required=True, type=int, help="lexicon size")

    p = add("experiment", "run a seeded Monte Carlo experiment", _cmd_experiment)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--experiment", choices=EXPERIMENT_IDS,
                       help="run this experiment with its default config")
    which.add_argument("--config", metavar="PATH", help="experiment config JSON file")
    p.add_argument("--seed", type=int, help="override the config's base_seed")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (default json)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        text = args.func(args)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:  # ValidationError, and an --output that cannot be written
        print(f"sftlearn: error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OverflowError, FloatingPointError) as exc:
        print(f"sftlearn: numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.output is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    print(f"sftlearn: {args.command} finished in {time.perf_counter() - started:.3f}s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
