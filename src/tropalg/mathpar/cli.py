"""Command line of mathpar: run calculator scripts over tropical and classical algebras.

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

Flags, spelled in full: `--format plain|latex` (or `--format=latex`) sets
the matrix style, `--show-objective` prints the objective value after a
linear-programming result, `--trace-ops` prints semiring operation counts
on stderr and `-h`/`--help` prints this text. Any other command line exits 2.
"""

from __future__ import annotations

import sys

from ..semiring import count_ops
from .errors import MathparError
from .interp import RenderOptions, Session, evaluate
from .parser import parse

__all__ = ["run_cli", "main"]

_USAGE = "usage: mathpar [run PATH | eval CODE] [options]"


def _choose(name, value, choices):
    if value not in choices:
        raise ValueError(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def _read_args(argv):
    """The mode, target, format and set of flags of argv, read in one pass.

    The mode is "help" for `-h`/`--help`. The first word that does not fit
    raises ValueError with the usage error.
    """
    mode = target = None
    fmt, flags = "plain", set()
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return "help", None, fmt, flags
        elif word == "--format" or word.startswith("--format="):
            value = word[9:] if "=" in word else next(words, None)
            if value is None:
                raise ValueError("argument --format: expected one argument")
            fmt = _choose("--format", value, ("plain", "latex"))
        elif word in ("--show-objective", "--trace-ops"):
            flags.add(word)
        elif mode is None and not word.startswith("-"):
            mode = _choose("mode", word, ("run", "eval"))
            target = next(words, None)
            if target == "--":
                target = next(words, None)
        else:
            raise ValueError(f"unrecognized arguments: {word}")
    return mode, target, fmt, flags


def run_cli(argv=None) -> int:
    try:
        mode, target, fmt, flags = _read_args(sys.argv[1:] if argv is None else argv)
    except ValueError as e:
        print(f"{_USAGE}\nmathpar: error: {e}", file=sys.stderr)
        return 2
    if mode == "help":
        print(_USAGE, __doc__, sep="\n\n", end="")
        return 0
    if mode == "run":
        if target is None:
            print("error: run needs a script path", file=sys.stderr)
            return 2
        try:
            with open(target, encoding="utf-8", errors="surrogateescape") as fh:
                source = fh.read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    elif mode == "eval":
        if target is None:
            print("error: eval needs code to run", file=sys.stderr)
            return 2
        source = target
    else:
        source = sys.stdin.buffer.read().decode("utf-8", "surrogateescape")

    options = RenderOptions(fmt=fmt, show_objective="--show-objective" in flags)
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
    if "--trace-ops" in flags:
        print(
            f"semiring ops: adds={counts.adds} muls={counts.muls}", file=sys.stderr
        )
    return 0


def main():
    raise SystemExit(run_cli())
