"""Command-line interface.

Subcommands:
    dmt sat "<formula>" [--model-out FILE] [--trace]
    dmt valid "<formula>" [--countermodel-out FILE] [--trace]
    dmt check --model FILE ("<formula>" | "<a> |~ <b>") [--at WORLD | --global]
    dmt entails --kb FILE "<formula>" [--max-depth N] [--countermodel-out FILE]
    dmt oracle-sat "<formula>" --max-worlds N       (N at most 3)

Formulas may be given inline or as @FILE to read from a file.  Exit
codes: 0 affirmative, 1 negative, 2 usage or input error, 3 resource
exhaustion or unknown.  DMT_MAX_RULE_APPS and DMT_MAX_LABELS override
the tableau resource limits.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import engine
from .engine import Entailed, KBError, NotEntailed, load_kb
from .semantics import (
    ModelError, brute_force_satisfiable, holds_at, holds_conditional,
    globally_true, load_model, save_model, signature_for,
)
from .syntax import (
    Conditional, Not, SyntaxError_, parse_formula, parse_statement,
)
from .tableau import Closed, ResourceLimitError, decide

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    pass


def _read_arg(text, parse=parse_formula):
    """Parse an inline formula argument, or the file it names as @FILE."""
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read formula file {path}: {exc}")
    try:
        return parse(text)
    except SyntaxError_ as exc:
        raise UsageError(f"malformed formula: {exc}")


def _limits():
    limits = {}
    apps = os.environ.get("DMT_MAX_RULE_APPS")
    if apps:
        limits["max_rule_apps"] = int(apps)
    labels = os.environ.get("DMT_MAX_LABELS")
    if labels:
        limits["max_labels"] = int(labels)
    return limits


def _write_model(model, path):
    """Save model to path, when an output path was given."""
    if path is None:
        return
    try:
        save_model(model, path)
    except OSError as exc:
        raise UsageError(f"cannot write model {path}: {exc}")


def _print_trace(verdict):
    if isinstance(verdict, Closed):
        for trace in verdict.traces:
            for line in trace:
                print(line)
    else:
        for line in verdict.trace:
            print(line)


def cmd_sat(args):
    f = _read_arg(args.formula)
    verdict = decide(f, **_limits())
    if args.trace:
        _print_trace(verdict)
    if isinstance(verdict, Closed):
        print("UNSAT")
        return EXIT_NO
    _write_model(verdict.model, args.model_out)
    print("SAT")
    return EXIT_YES


def cmd_valid(args):
    f = _read_arg(args.formula)
    verdict = decide(Not(f), **_limits())
    if args.trace:
        _print_trace(verdict)
    if isinstance(verdict, Closed):
        print("VALID")
        return EXIT_YES
    _write_model(verdict.model, args.countermodel_out)
    print("INVALID")
    return EXIT_NO


def cmd_check(args):
    try:
        model = load_model(args.model)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot load model {args.model}: {exc}")
    statement = _read_arg(args.formula, parse_statement)
    if isinstance(statement, Conditional):
        if args.at is not None:
            raise UsageError("--at does not apply to conditional statements")
        if holds_conditional(model, statement):
            print("HOLDS (conditional)")
            return EXIT_YES
        print("FAILS (conditional)")
        return EXIT_NO
    f = statement.formula
    if args.at is not None:
        if args.at not in model.worlds:
            raise UsageError(f"unknown world {args.at!r}")
        if holds_at(model, args.at, f):
            print(f"HOLDS (at {args.at})")
            return EXIT_YES
        print(f"FAILS (at {args.at})")
        return EXIT_NO
    if globally_true(model, f):
        print("HOLDS (globally)")
        return EXIT_YES
    print("FAILS (globally)")
    return EXIT_NO


def cmd_entails(args):
    try:
        kb = load_kb(args.kb)
    except KBError as exc:
        # names the file and line itself
        raise UsageError(f"cannot load knowledge base: {exc}")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load knowledge base {args.kb}: {exc}")
    f = _read_arg(args.formula)
    verdict = engine.global_entails(kb, f, max_depth=args.max_depth,
                                    **_limits())
    if isinstance(verdict, Entailed):
        print(f"ENTAILED (depth {verdict.proved_at_depth})")
        return EXIT_YES
    if isinstance(verdict, NotEntailed):
        _write_model(verdict.countermodel, args.countermodel_out)
        print(f"NOT-ENTAILED (witness {verdict.witness_world})")
        return EXIT_NO
    print(f"UNKNOWN (depth exhausted at {verdict.depth_exhausted})")
    return EXIT_RESOURCE


def cmd_oracle_sat(args):
    f = _read_arg(args.formula)
    sig = signature_for([f], max_worlds=args.max_worlds)
    try:
        found = brute_force_satisfiable(f, sig)
    except ModelError as exc:
        raise UsageError(str(exc))
    if found is None:
        print(f"UNSAT (no model with at most {args.max_worlds} worlds)")
        return EXIT_NO
    model, world = found
    _write_model(model, args.model_out)
    print(f"SAT (at {world} in a {len(model.worlds)}-world model)")
    return EXIT_YES


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dmt",
        description="Decision procedures for modal logic with defeasible "
                    "modalities over preferential Kripke semantics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sat", help="decide satisfiability by tableau")
    p.add_argument("formula")
    p.add_argument("--model-out", metavar="FILE")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("valid", help="decide validity by tableau")
    p.add_argument("formula")
    p.add_argument("--countermodel-out", metavar="FILE")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_valid)

    p = sub.add_parser("check", help="model-check a formula or conditional")
    p.add_argument("formula")
    p.add_argument("--model", required=True, metavar="FILE")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--at", metavar="WORLD")
    group.add_argument("--global", dest="global_", action="store_true",
                       help="evaluate at every world (the default)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("entails", help="knowledge-base global entailment")
    p.add_argument("formula")
    p.add_argument("--kb", required=True, metavar="FILE")
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--countermodel-out", metavar="FILE")
    p.set_defaults(func=cmd_entails)

    p = sub.add_parser("oracle-sat",
                       help="bounded brute-force satisfiability check")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, required=True)
    p.add_argument("--model-out", metavar="FILE")
    p.set_defaults(func=cmd_oracle_sat)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
