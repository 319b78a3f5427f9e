"""Command-line front end.

Subcommands::

    check  LHS RHS    exit 0 if the containment holds, 1 with a witness if not
    equiv  LHS RHS    language equality, decided as two containments
    match  WORD EXPR  word problem
    derive --by X EXPR   print the derivative by a character or class
    next   EXPR       print the next-literal partition, one literal per line
    trace  LHS RHS    like check, but stream the rule trace as JSON lines

A trace, on stdout for ``trace`` or in the ``--trace-json`` file, is written
one JSON line per event while the check runs, so a check cut short by an
error leaves the events made before it.  The file opens before the check: a
path that cannot be written is an error before anything is decided.

Exit codes: 0 holds/match, 1 fails/no match, 2 errors (parse, usage, fuel,
I/O, internal), 3 oracle disagreement under ``--oracle-check``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .alphabet import (
    Algebra,
    AlgebraError,
    BitsetAlgebra,
    FiniteCofiniteAlgebra,
    IntervalAlgebra,
)
from .containment import DEFAULT_FUEL, Checker, FuelExhausted, membership
from .derivative import deriv_literal
from .nextlit import next_literals
from .syntax import (
    ExprBuilder,
    parse_class_text,
    parse_with_metrics,
    to_text,
    unescape_word,
)

EX_HOLDS = 0
EX_FAILS = 1
EX_ERROR = 2
EX_ORACLE = 3

ORACLE_LEN = 8


def make_algebra(spec: str) -> Algebra:
    if spec.startswith("bitset:"):
        return BitsetAlgebra(spec[len("bitset:") :])
    if spec == "unicode":
        return IntervalAlgebra()
    if spec == "cofinite":
        return FiniteCofiniteAlgebra()
    raise AlgebraError(
        f"unknown alphabet {spec!r} (expected bitset:<chars>, unicode, or cofinite)"
    )


def _bool_flag(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alphabet",
        default="unicode",
        metavar="SPEC",
        help="bitset:<chars>, unicode, or cofinite (default: unicode)",
    )
    common.add_argument("--raw-metrics", action="store_true",
                        help="report size/width of each expression as written")

    # the option of the commands that give a verdict
    verified = argparse.ArgumentParser(add_help=False)
    verified.add_argument("--oracle-check", action="store_true",
                          help="cross-validate the verdict against the slice oracle")

    # the options of the commands that run a Checker
    checking = argparse.ArgumentParser(add_help=False, parents=[verified])
    checking.add_argument("--fuel", type=_positive_int, default=DEFAULT_FUEL, metavar="N",
                          help="cap on visited pairs and on each emptiness search's nodes")
    checking.add_argument("--no-axioms", action="store_true",
                          help="disable the prove/disprove fast paths")
    checking.add_argument("--global-memo", type=_bool_flag, default=True, metavar="BOOL",
                          help="keep all visited pairs for cycle detection (default: true)")
    checking.add_argument("--trace-json", metavar="PATH",
                          help="write one JSON object per rule application to PATH")

    parser = argparse.ArgumentParser(
        prog="symre",
        description="containment and equivalence of extended regular expressions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common, checking], help="decide containment")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p = sub.add_parser("equiv", parents=[common, checking], help="decide equivalence")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p = sub.add_parser("match", parents=[common, verified], help="decide word membership")
    p.add_argument("word")
    p.add_argument("expr")
    p = sub.add_parser("derive", parents=[common], help="print a derivative")
    p.add_argument("--by", required=True, metavar="CLASS",
                   help="a character or a [...] class")
    p.add_argument("expr")
    p = sub.add_parser("next", parents=[common], help="print the next literals")
    p.add_argument("expr")
    p = sub.add_parser("trace", parents=[common, checking],
                       help="check and stream the rule trace to stdout")
    p.add_argument("lhs")
    p.add_argument("rhs")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (FuelExhausted, ValueError, OSError) as exc:  # parse and algebra errors too
        print(f"error: {exc}", file=sys.stderr)
        return EX_ERROR
    except Exception as exc:  # a crash must never read as a verdict
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_ERROR


def _run(args: argparse.Namespace) -> int:
    algebra = make_algebra(args.alphabet)
    builder = ExprBuilder(algebra)

    def parse_expr(text: str, role: str):
        expr, size, width = parse_with_metrics(text, builder)
        if args.raw_metrics:
            print(f"raw-metrics {role}: size={size} width={width}")
        return expr

    if args.command == "derive":
        expr = parse_expr(args.expr, "expr")
        by = parse_class_text(args.by, algebra)
        print(to_text(deriv_literal(builder, by, expr)))
        return EX_HOLDS

    if args.command == "next":
        expr = parse_expr(args.expr, "expr")
        for literal in next_literals(builder, expr):
            print(algebra.format_set(literal))
        return EX_HOLDS

    # The commands below cross-check their answers, so the oracle's
    # prerequisites fail before anything is decided or printed.
    oracle = _make_oracle(builder) if args.oracle_check else None

    if args.command == "match":
        word = unescape_word(args.word)
        expr = parse_expr(args.expr, "expr")
        matched = membership(builder, word, expr)
        if oracle is not None and not _oracle_confirms(oracle, "match", word, expr, matched):
            print("oracle disagreement: membership verdict not confirmed", file=sys.stderr)
            return EX_ORACLE
        print("MATCH" if matched else "NO-MATCH")
        return EX_HOLDS if matched else EX_FAILS

    # check / equiv / trace
    lhs = parse_expr(args.lhs, "lhs")
    rhs = parse_expr(args.rhs, "rhs")
    # Opened before the check, so a path that cannot be written fails at once.
    streams = [sys.stdout] if args.command == "trace" else []
    if args.trace_json is not None:
        streams.append(open(args.trace_json, "w", encoding="utf-8"))
    try:
        checker = Checker(
            builder,
            use_axioms=not args.no_axioms,
            global_memo=args.global_memo,
            fuel=args.fuel,
            trace=_json_lines(streams) if streams else None,
        )
        verdict = (checker.equivalent if args.command == "equiv" else checker.check)(lhs, rhs)
    finally:
        if args.trace_json is not None:
            streams[-1].close()

    line = "HOLDS" if verdict.holds else f"FAILS witness={algebra.format_word(verdict.witness)}"
    print(line, file=sys.stderr if args.command == "trace" else sys.stdout)

    if oracle is not None and not _oracle_confirms(oracle, args.command, lhs, rhs, verdict):
        print("oracle disagreement: verdict not confirmed by the slice oracle", file=sys.stderr)
        return EX_ORACLE
    return EX_HOLDS if verdict.holds else EX_FAILS


def _json_lines(streams: list):
    """A trace sink that writes each event as one JSON line to every stream."""
    import json

    def write(event: dict) -> None:
        line = json.dumps(event) + "\n"
        for stream in streams:
            stream.write(line)

    return write


def _make_oracle(builder: ExprBuilder):
    """The slice oracle over ``builder``; the oracle module loads only here."""
    from .oracle import SliceOracle

    try:
        return SliceOracle(builder, ORACLE_LEN)
    except ValueError as exc:
        raise AlgebraError(f"--oracle-check: {exc}") from exc


def _oracle_confirms(oracle, command: str, lhs, rhs, answer) -> bool:
    """Whether the slice oracle confirms an answer.  For ``match``, ``lhs``
    is the word, ``rhs`` the expression and ``answer`` whether they matched;
    otherwise ``answer`` is the verdict on ``lhs`` and ``rhs``.  A word
    longer than the slice is not checked against it."""
    if command == "match":
        return len(lhs) > ORACLE_LEN or (lhs in oracle.slice(rhs)) == answer
    if answer.holds:
        return oracle.equal(lhs, rhs) if command == "equiv" else oracle.subset(lhs, rhs)
    b, w = oracle.builder, answer.witness
    if command == "equiv":
        return membership(b, w, lhs) != membership(b, w, rhs)
    return membership(b, w, lhs) and not membership(b, w, rhs) and (
        len(w) > ORACLE_LEN or (w in oracle.slice(lhs) and w not in oracle.slice(rhs))
    )


if __name__ == "__main__":
    sys.exit(main())
