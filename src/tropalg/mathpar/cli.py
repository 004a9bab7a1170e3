"""Command-line front end.

Three ways to feed it a script: `mathpar run file`, `mathpar eval "code"`,
or a bare `mathpar` that reads stdin to end of file. The argument after
`run` or `eval` (or after `run --` / `eval --`) is always the path or the
code, even when it starts with `-`; flags may come before the mode or
after the path or code. A file and stdin are both read as UTF-8 whatever
the locale, each byte that is not UTF-8 kept as a lone surrogate. Results
stream to stdout one line per printed statement. Script errors go to
stderr with a line:column prefix and exit status 1; unreadable files exit
2. Any other failure, such as a solver's self-check, is a fault of the
program: it is reported on one line as an internal error and exits 3.
"""

from __future__ import annotations

import argparse
import sys

from ..semiring import count_ops
from .errors import MathparError
from .interp import RenderOptions, Session, evaluate
from .parser import parse

__all__ = ["run_cli", "main"]

_MODES = ("run", "eval")


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mathpar",
        usage="mathpar [run PATH | eval CODE] [options]",
        description="Run calculator scripts over tropical and classical algebras.",
    )
    p.add_argument(
        "mode",
        nargs="?",
        choices=_MODES,
        help="`run PATH` runs a script file, `eval CODE` evaluates inline code; "
        "omit to read stdin",
    )
    p.add_argument(
        "--format",
        choices=["plain", "latex"],
        default="plain",
        help="matrix output style",
    )
    p.add_argument(
        "--show-objective",
        action="store_true",
        help="print the objective value after a linear-programming result",
    )
    p.add_argument(
        "--trace-ops",
        action="store_true",
        help="report semiring operation counts on stderr",
    )
    return p


def _take_target(argv):
    """Split the argument that follows the mode out of argv.

    argparse reads a string starting with `-`, such as the code `-1;`, as
    an option, so the target never reaches it. Returns the other arguments
    and the target, None when there is none.
    """
    for i, word in enumerate(argv):
        if word == "--":
            break
        if word in _MODES:
            j = i + 2 if argv[i + 1 : i + 2] == ["--"] else i + 1
            if j < len(argv):
                return argv[: i + 1] + argv[j + 1 :], argv[j]
            break
    return argv, None


def run_cli(argv=None) -> int:
    argv, target = _take_target(sys.argv[1:] if argv is None else list(argv))
    args = build_arg_parser().parse_args(argv)
    if args.mode == "run":
        if target is None:
            print("error: run needs a script path", file=sys.stderr)
            return 2
        try:
            with open(target, encoding="utf-8", errors="surrogateescape") as fh:
                source = fh.read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    elif args.mode == "eval":
        if target is None:
            print("error: eval needs code to run", file=sys.stderr)
            return 2
        source = target
    else:
        source = sys.stdin.buffer.read().decode("utf-8", "surrogateescape")

    options = RenderOptions(fmt=args.format, show_objective=args.show_objective)
    session = Session()

    def emit(line: str):
        print(line, flush=True)

    try:
        with count_ops() as counts:
            stmts = parse(source)
            evaluate(stmts, session, options, emit)
    except MathparError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    if args.trace_ops:
        print(
            f"semiring ops: adds={counts.adds} muls={counts.muls}", file=sys.stderr
        )
    return 0


def main():
    raise SystemExit(run_cli())
