"""Evaluator for parsed calculator scripts.

A Session starts in the classical rational space Q and changes algebra on
each SPACE statement. Values remember the space they were created under;
mixing spaces is an error rather than a silent coercion. Expression
statements always print. An assignment prints exactly when its right-hand
side is a command call, so `x = \\SimplexMax(A, b, c);` shows the answer
while plain data bindings like `A = [[1, 2], [3, 0]];` stay quiet.

Operators use the library's scalar and matrix operations in every space:
negation is trop_neg, and `a - b` is a * (-b) tropically; a classical
scalar difference is settled like every classical sum, so a float
overflow is an error there too. A matrix is negated, multiplied by a
scalar and printed on its raw rows, by trmatrix's _negated, _times and
_values, with no ExtScalar per entry. Library errors
and the evaluator's own checks raise a plain TropalgError, which becomes
a script error in one place, the single try of _Evaluator.eval,
positioned at the node being evaluated or at the operator of a chain.
Only the typed UnknownCommand and ArityError, and errors that belong to
another node (an argument, a matrix entry, a term of \\solve), are raised
already positioned.

Each command is one row of the table _COMMANDS: the space it needs, a
reader for each argument at each arity it takes, and the call that
answers it. One dispatch in eval checks a call's name, its arity and its
space, in that order, then evaluates the arguments left to right, each
checked by its reader, which positions its error at the argument, and
runs the call; an error of the call as a whole is positioned at the call.
The entries of a matrix or list literal are read alike, by _ENTRY,
save those of a NumberRow, which are read from their text to the plain
numbers the matrix stores, ints, Fractions or floats, and to the
infinite element: a row of ints by one map(int, ...), any other entry by
_number, the one reader of a literal's text and kind, which a scalar
literal goes through too. An entry that raises is positioned at the node
NumberRow.nodes builds for it, as the general route would position it.
Commands answer with library values: a shortest path is the vertex list,
\\solveLAITropic's answer its tuple of bounds, and a simplex optimum the
library's Optimal, its point converted to a column and its objective to a
scalar of the space at the command, so over R64 a value that overflows a
float is an error there, as in every R64 operator.

Printed forms: scalars as integers, reduced fractions or trimmed floats,
of any length, floats in positional form, so every finite scalar reads
back; the two infinities as -\\infty and \\infty; a one-column
matrix, a simplex optimum included, as a flat list [4, 3]; every other
matrix, and the bounds as [lower, upper] rows, as nested rows
[[0, 1], [2, 0]]; solution intervals with ( ) for open and [ ] for closed
ends and \\emptyset when empty. The latex format differs only for
matrices, which become pmatrix blocks.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .. import lp as _lp
from .._record import MutableRecord, Record
from ..errors import ClosureUndefined, IllegalElement, TropalgError
from ..graph import WeightedGraph, find_shortest_path, search_least_distances
from ..semiring import (
    ALGEBRAS_BY_NAME,
    NEG_INF,
    POS_INF,
    ExtScalar,
    Q_CLASSICAL,
    _F64,
    _Q,
    _Z,
    _finite_result,
    _number_text,
    trop_add,
    trop_closure_scalar,
    trop_mul,
    trop_neg,
)
from ..solvers import (
    bellman_homogeneous,
    bellman_inequality,
    bellman_solve,
    solve_lae_tropic,
    solve_lai_tropic,
)
from ..trmatrix import TropMatrix, _negated, _times, _values, closure_block, mat_mul, mat_oplus
from .errors import ArityError, EvalError, MathparError, UnknownCommand, UnknownSpace
from .parser import (
    Assign,
    BinOp,
    Call,
    EmptyLit,
    Ineq,
    InfinityLit,
    ListLit,
    MatrixLit,
    NumberRow,
    ScalarLit,
    SpaceDecl,
    UnaryNeg,
    Var,
)

__all__ = [
    "Session",
    "RenderOptions",
    "Binding",
    "UndefinedClosure",
    "EmptyMatrix",
    "evaluate",
    "render",
]


class UndefinedClosure(Record):
    """Scalar closure that diverges; prints as the missing infinity."""

    __slots__ = ("sign",)


class EmptyMatrix(Record):
    """The empty literal () or [], used for absent constraint groups."""

    __slots__ = ()


class Binding(Record):
    __slots__ = ("value", "space")


class Session(MutableRecord):
    __slots__ = ("space_name", "algebra", "poly_var", "bindings", "output")
    _defaults = {"space_name": "Q", "algebra": Q_CLASSICAL, "poly_var": None}
    _factories = {"bindings": dict, "output": list}


class RenderOptions(Record):
    __slots__ = ("fmt", "show_objective")
    _defaults = {"fmt": "plain", "show_objective": False}


def evaluate(stmts, session: Session, options: RenderOptions | None = None, emit=None):
    """Run statements against the session; returns the lines printed here."""
    options = options or RenderOptions()
    ev = _Evaluator(session)
    lines: list[str] = []

    def out(line: str):
        session.output.append(line)
        lines.append(line)
        if emit is not None:
            emit(line)

    for stmt in stmts:
        if isinstance(stmt, SpaceDecl):
            ev.set_space(stmt)
            continue
        value = ev.eval(stmt.expr)
        if isinstance(stmt, Assign):
            session.bindings[stmt.name] = Binding(value, session.space_name)
            if not isinstance(stmt.expr, Call):
                continue
        out(render(value, options))
        if options.show_objective and isinstance(value, _lp.Optimal):
            out("objective: " + _render_scalar(value.objective))
    return lines


class _Evaluator:
    def __init__(self, session: Session):
        self.session = session

    # ---- spaces ----

    def set_space(self, stmt: SpaceDecl):
        name = stmt.name
        if name == "Q" and len(stmt.vars) == 1:
            self.session.space_name = f"Q[{stmt.vars[0]}]"
            self.session.algebra = Q_CLASSICAL
            self.session.poly_var = stmt.vars[0]
            return
        if name not in ALGEBRAS_BY_NAME:
            raise UnknownSpace(f"unknown space {name}", stmt.line, stmt.col)
        if stmt.vars:
            message = (
                f"space Q takes at most one variable, {len(stmt.vars)} given"
                if name == "Q"
                else f"space {name} does not take variables"
            )
            raise EvalError(message, stmt.line, stmt.col)
        self.session.space_name = name
        self.session.algebra = ALGEBRAS_BY_NAME[name]
        self.session.poly_var = None

    # ---- expressions ----

    def eval(self, node):
        at = node
        try:
            if isinstance(node, ScalarLit):
                return self.scalar_literal(node)
            if isinstance(node, InfinityLit):
                return self.infinity(node.sign)
            if isinstance(node, Var):
                binding = self.binding(node)
                if binding is None:
                    raise TropalgError(f"undefined variable {node.name!r}")
                return binding.value
            if isinstance(node, EmptyLit):
                return EmptyMatrix()
            if isinstance(node, MatrixLit):
                return TropMatrix.from_rows(map(self.entries, node.rows), self.session.algebra)
            if isinstance(node, ListLit):
                return TropMatrix.column(self.entries(node.items), self.session.algebra)
            if isinstance(node, (UnaryNeg, BinOp)):
                leaf, ops = _unwind(node)
                value = self.eval(leaf)
                for at in ops:
                    if isinstance(at, UnaryNeg):
                        value = self.negate(value)
                    else:
                        value = self.binop(at.op, value, self.eval(at.right))
                return value
            if isinstance(node, Call):
                cmd, n = node.command, len(node.args)
                if cmd not in _COMMANDS:
                    raise UnknownCommand(f"unknown command \\{cmd}", node.line, node.col)
                space, readers, call = _COMMANDS[cmd]
                if n not in readers:
                    counts = " or ".join(map(str, readers))
                    raise ArityError(
                        f"\\{cmd} takes {counts} argument(s), got {n}", node.line, node.col
                    )
                if space and not _SPACES[space](self.session.algebra):
                    raise TropalgError(
                        f"\\{cmd} needs {space}, the current space is {self.session.space_name}"
                    )
                args = []
                for read, arg in zip(readers[n], node.args):
                    args.append(arg if read is None else read(self.eval(arg), arg))
                return call(self, *args)
            if isinstance(node, Ineq):
                raise TropalgError("inequalities are only meaningful inside \\solve")
        except MathparError:
            raise
        except TropalgError as e:
            raise EvalError(str(e), at.line, at.col) from e
        raise TypeError(f"not an expression node: {node!r}")

    def scalar_literal(self, node: ScalarLit) -> ExtScalar:
        return ExtScalar.of(_number(node.value, node.kind, self.session.algebra.domain))

    def entries(self, row) -> list:
        """The entries of a matrix row or a list literal: a NumberRow's
        numbers, or each expression's scalar, checked by _ENTRY. A loop, not
        a comprehension, keeps a level of nesting to two frames."""
        if type(row) is NumberRow:
            return self.numbers(row)
        values = []
        for e in row:
            values.append(_ENTRY(self.eval(e), e))
        return values

    def numbers(self, row: NumberRow) -> list:
        """The entries of a NumberRow as the plain numbers of the domain and
        the infinite element. A row with no decimal point, slash or
        infinity holds ints only, read by one map(int, ...)."""
        domain = self.session.algebra.domain
        text = row.text
        if "." not in text and "/" not in text and "f" not in text and "\u221e" not in text:
            try:
                values = list(map(int, row.entries))
                return list(map(float, values)) if domain is _F64 else values
            except (ValueError, OverflowError):
                pass  # an int too long for int() or for a float: read each below
        values = []
        try:
            for t in row.entries:
                if t[-1] == "f":
                    values.append(self.infinity(-1 if t[0] == "-" else 1))
                else:
                    kind = "rat" if "/" in t else "dec" if "." in t else "int"
                    values.append(_number(t, kind, domain))
        except TropalgError as e:
            node = row.nodes()[len(values)]
            raise EvalError(str(e), node.line, node.col) from e
        return values

    def infinity(self, sign: int) -> ExtScalar:
        alg = self.session.algebra
        if not alg.is_tropical:
            raise TropalgError(f"space {self.session.space_name} has no infinite elements")
        return alg.require_legal(POS_INF if sign > 0 else NEG_INF)

    def binding(self, node: Var) -> Binding | None:
        """The binding of a variable, None when it has none; a binding made
        under another space is an error."""
        binding = self.session.bindings.get(node.name)
        if binding is not None and binding.space != self.session.space_name:
            raise EvalError(
                f"variable {node.name!r} belongs to space {binding.space}, "
                f"the current space is {self.session.space_name}",
                node.line,
                node.col,
            )
        return binding

    def negate(self, value):
        if isinstance(value, ExtScalar):
            return trop_neg(value)
        if isinstance(value, TropMatrix):
            return _negated(value)
        raise TropalgError("cannot negate this value")

    def binop(self, op: str, left, right):
        alg = self.session.algebra
        scalar_l = isinstance(left, ExtScalar)
        scalar_r = isinstance(right, ExtScalar)
        matrix_l = isinstance(left, TropMatrix)
        matrix_r = isinstance(right, TropMatrix)
        if op == "+":
            if scalar_l and scalar_r:
                return trop_add(left, right, alg)
            if matrix_l and matrix_r:
                return mat_oplus(left, right)
        elif op == "*":
            if scalar_l and scalar_r:
                return trop_mul(left, right, alg)
            if matrix_l and matrix_r:
                return mat_mul(left, right)
            if scalar_l and matrix_r:
                return _times(left, right)
            if matrix_l and scalar_r:
                return _times(right, left)
        elif op == "-":
            if scalar_l and scalar_r:
                if alg.is_tropical:
                    return trop_mul(left, trop_neg(right), alg)
                return _finite_result(left.finite - right.finite, alg)
            if matrix_l and matrix_r:
                if alg.is_tropical:
                    raise TropalgError("matrix subtraction is not defined in a tropical space")
                return mat_oplus(left, self.negate(right))
        raise TropalgError(f"operator {op!r} does not apply to these operands")

    # ---- commands ----

    def closure(self, value):
        if isinstance(value, TropMatrix):
            return closure_block(value)
        alg = self.session.algebra
        try:
            return trop_closure_scalar(value, alg)
        except ClosureUndefined:
            return UndefinedClosure(alg.sign)

    def simplex(self, sense: str, args):
        """A linear program from k constraint matrices, their k right-hand
        sides and the objective; the groups are <=, = and >= in turn."""
        k = len(args) // 2
        groups = []
        for a, b in zip(args[:k], args[k : 2 * k]):
            if isinstance(a, EmptyMatrix) or isinstance(b, EmptyMatrix):
                if type(a) is not type(b):
                    raise TropalgError(
                        "a constraint matrix and its right-hand side must be empty together"
                    )
                groups.append(((), ()))
            else:
                groups.append((_rational_rows(a), _rational_column(b)))
        le, eq, ge = groups + [((), ())] * (3 - k)
        c = _rational_column(args[-1])
        outcome = _lp.simplex_solve(_lp.LpProblem(c, *le, *eq, *ge, sense=sense))
        if not isinstance(outcome, _lp.Optimal):
            return outcome
        x = [self.space_scalar(q) for q in outcome.x]
        return _lp.Optimal(
            TropMatrix.column(x, self.session.algebra), self.space_scalar(outcome.objective)
        )

    def space_scalar(self, q: Fraction) -> ExtScalar:
        """An exact simplex value as a scalar of the current classical space."""
        if self.session.algebra.domain is _F64:
            try:
                q = float(q)
            except OverflowError:
                raise IllegalElement("float overflow produced an illegal infinity") from None
        return ExtScalar.of(q)

    # ---- univariate inequalities ----

    def solve(self, arg):
        if isinstance(arg, ListLit):
            items = arg.items
            if type(items) is NumberRow:
                items = items.nodes()
        elif isinstance(arg, Ineq):
            items = (arg,)
        else:
            raise TropalgError("\\solve takes a list of inequalities")
        ineqs = []
        unknown = None
        for item in items:
            if not isinstance(item, Ineq):
                raise EvalError("\\solve takes a list of inequalities", item.line, item.col)
            # left - right, with the minus at the relation, so a mix of
            # unknowns across the two sides is reported there.
            diff = BinOp("-", item.left, item.right, line=item.line, col=item.col)
            a, b, v = self.linear_form(diff)
            unknown = self.merge_unknowns(unknown, v, item)
            ineqs.append((a, b, item.op))
        return _lp.solve_univariate_linear(ineqs)

    def merge_unknowns(self, a, b, node):
        if a is not None and b is not None and a != b:
            raise EvalError(
                f"inequalities mix the unknowns {a!r} and {b!r}", node.line, node.col
            )
        return a or b

    def linear_form(self, node):
        """Reduce an expression to (a, b, var) meaning a*var + b.

        a and b stay the ints and Fractions of the space Q; the solver
        converts each once.
        """
        if isinstance(node, ScalarLit):
            return 0, _number(node.value, node.kind, _Q), None
        if isinstance(node, Var):
            binding = self.binding(node)
            if binding is not None:
                value = binding.value
                if isinstance(value, ExtScalar) and value.is_finite:
                    return 0, value.finite, None
                raise EvalError(
                    f"variable {node.name!r} is not a finite scalar",
                    node.line,
                    node.col,
                )
            if self.session.poly_var is None or node.name == self.session.poly_var:
                return 1, 0, node.name
            raise EvalError(f"undefined variable {node.name!r}", node.line, node.col)
        if isinstance(node, (UnaryNeg, BinOp)):
            leaf, ops = _unwind(node)
            a, b, v = self.linear_form(leaf)
            for op in ops:
                if isinstance(op, UnaryNeg):
                    a, b = -a, -b
                    continue
                ra, rb, rv = self.linear_form(op.right)
                v = self.merge_unknowns(v, rv, op)
                if op.op == "+":
                    a, b = a + ra, b + rb
                elif op.op == "-":
                    a, b = a - ra, b - rb
                elif a != 0 and ra != 0:
                    raise EvalError(
                        "\\solve handles linear inequalities only; this one has "
                        "degree 2",
                        op.line,
                        op.col,
                    )
                else:
                    a, b = a * rb + ra * b, b * rb
            return a, b, v
        raise EvalError(
            "inequalities may contain numbers, the unknown, +, - and * only",
            node.line,
            node.col,
        )


def _rational_rows(m: TropMatrix):
    return tuple(tuple(map(Fraction, row)) for row in _values(m))


def _rational_column(m: TropMatrix):
    if m.cols != 1:
        raise TropalgError(f"expected a column vector, got a {m.rows}x{m.cols} matrix")
    return tuple(row[0] for row in _rational_rows(m))


# ---- the command table ----


def _reader(types, message):
    """A reader that passes an argument's value of the given types and
    rejects any other with the message, positioned at the argument."""

    def read(value, node):
        if isinstance(value, types):
            return value
        raise EvalError(message, node.line, node.col)

    return read


def _vertex(what):
    """A reader that passes an integral scalar as an int."""

    def read(value, node):
        if isinstance(value, ExtScalar) and value.is_finite:
            v = value.finite
            if isinstance(v, int):
                return v
            if isinstance(v, float) and v.is_integer():
                return int(v)
        raise EvalError(f"{what} must be an integer", node.line, node.col)

    return read


_ENTRY = _reader(ExtScalar, "matrix entries must be scalars")
_COEFFICIENTS = _reader(TropMatrix, "the coefficient matrix must be a matrix")
_RHS = _reader(TropMatrix, "the right-hand side must be a matrix")
_ADJACENCY = _reader(TropMatrix, "the adjacency matrix must be a matrix")
_GROUP = _reader(
    (TropMatrix, EmptyMatrix), "constraint arguments must be matrices or the empty literal"
)
_SYSTEM = {2: (_COEFFICIENTS, _RHS)}
_BELLMAN = {1: (_COEFFICIENTS,), 2: (_COEFFICIENTS, _RHS)}
_SIMPLEX = {
    k: (_GROUP,) * (k - 1) + (_reader(TropMatrix, "the objective must be a vector"),)
    for k in (3, 5, 7)
}

_SPACES = {
    "a tropical space": lambda alg: alg.is_tropical,
    "a classical space": lambda alg: not alg.is_tropical,
    "the space Q or Q[x]": lambda alg: alg is Q_CLASSICAL,
}

# A row's space is None for any space. A reader takes an argument's value
# and node and returns what the call is given; None passes the node as it
# is. A call names library functions in its body, not in the row, so that
# a rebinding of this module's names (bench/tracer.py makes one) reaches it.
_COMMANDS = {
    "closure": (
        "a tropical space",
        {1: (_reader((ExtScalar, TropMatrix), "\\closure needs a scalar or a matrix"),)},
        _Evaluator.closure,
    ),
    "solveLAETropic": ("a tropical space", _SYSTEM, lambda ev, a, b: solve_lae_tropic(a, b)),
    "solveLAITropic": ("a tropical space", _SYSTEM, lambda ev, a, b: solve_lai_tropic(a, b)[1]),
    "BellmanEquation": (
        "a tropical space",
        _BELLMAN,
        lambda ev, a, b=None: bellman_homogeneous(a) if b is None else bellman_solve(a, b),
    ),
    "BellmanInequality": ("a tropical space", _BELLMAN, lambda ev, *ab: bellman_inequality(*ab)),
    "findTheShortestPath": (
        None,
        {3: (_ADJACENCY, _vertex("the start vertex"), _vertex("the end vertex"))},
        lambda ev, a, start, goal: find_shortest_path(WeightedGraph(a), start, goal),
    ),
    "searchLeastDistances": (
        None,
        {1: (_ADJACENCY,)},
        lambda ev, a: search_least_distances(WeightedGraph(a)),
    ),
    "SimplexMax": ("a classical space", _SIMPLEX, lambda ev, *args: ev.simplex("max", args)),
    "SimplexMin": ("a classical space", _SIMPLEX, lambda ev, *args: ev.simplex("min", args)),
    "solve": ("the space Q or Q[x]", {1: (None,)}, _Evaluator.solve),
}


def _number(text: str, kind: str, domain) -> int | Fraction | float:
    """The plain number of a literal's text, of kind "int", "rat" or "dec",
    in a number domain: an int, a Fraction over Q, a float over F64. A
    literal the domain does not hold raises a TropalgError.

    The value is exact, of any length: int() refuses text of more digits
    than sys.get_int_max_str_digits() allows, a process-wide limit left
    alone here, and Decimal reads any length, as it writes any length in
    semiring._number_text. Over F64 the exact value is rounded once:
    float() rounds a decimal's text as float() rounds its Fraction, save
    that it keeps the sign of a zero, which the exact value drops, and
    gives an infinity past the largest float, so those two take the exact
    route.
    """
    if kind == "int":
        try:
            value = int(text)
        except ValueError:
            value = int(Decimal(text))
    elif domain is _Z:
        raise TropalgError(f"{text} is not an element of an integer space")
    elif kind == "dec" and domain is _F64:
        value = float(text)
        if value and value - value == 0:
            return value
        value = Fraction(Decimal(text))
    else:
        num, _, den = text.partition("/")
        value = Fraction(int(Decimal(num)), int(Decimal(den))) if den else Fraction(Decimal(num))
    if domain is _F64:
        try:
            return float(value)
        except OverflowError:
            raise TropalgError(f"{text} is not in the number domain {_F64.value}") from None
    return value


def _unwind(node):
    """Split an operator chain into its leftmost operand and the operators
    above it, innermost first.

    `a + b - c` and `- - x` parse to left-leaning trees as deep as the chain
    is long; folding over this list evaluates them in a loop instead of one
    recursive call per operator.
    """
    ops = []
    while isinstance(node, (BinOp, UnaryNeg)):
        ops.append(node)
        node = node.left if isinstance(node, BinOp) else node.operand
    ops.reverse()
    return node, ops


# ---- rendering ----


def _render_scalar(e: ExtScalar) -> str:
    if e.inf_sign < 0:
        return "-\\infty"
    if e.inf_sign > 0:
        return "\\infty"
    return _render_number(e.finite)


def _render_number(v) -> str:
    if isinstance(v, float):
        if v.is_integer():
            return _number_text(int(v))
        # repr's shortest round-trip digits, written out positionally when
        # repr gives an exponent (below 1e-4), since literals have none.
        text = repr(v)
        return format(Decimal(text), "f") if "e" in text else text
    return _number_text(v)


def render(value, options: RenderOptions | None = None) -> str:
    options = options or RenderOptions()
    if isinstance(value, ExtScalar):
        return _render_scalar(value)
    if isinstance(value, UndefinedClosure):
        return "\\infty" if value.sign > 0 else "-\\infty"
    if isinstance(value, TropMatrix):
        zero = _render_scalar(value.alg.zero())
        cells = [[zero if x is None else _render_number(x) for x in r] for r in _values(value)]
        return _render_matrix(cells, value.cols == 1, options)
    if isinstance(value, tuple):  # solve_lai_tropic's bounds
        cells = [[_render_scalar(b.lower), _render_scalar(b.upper)] for b in value]
        return _render_matrix(cells, False, options)
    if isinstance(value, list):  # a shortest path
        return "[" + ", ".join(map(str, value)) + "]"
    if isinstance(value, _lp.Optimal):
        return render(value.x, options)
    if isinstance(value, (_lp.Infeasible, _lp.Unbounded)):
        return type(value).__name__
    if isinstance(value, _lp.Interval):
        return _render_interval(value)
    if isinstance(value, EmptyMatrix):
        return "[]"
    raise TypeError(f"no rendering for {value!r}")


def _render_matrix(cells, flat: bool, options: RenderOptions) -> str:
    if options.fmt == "latex":
        body = " \\\\ ".join(" & ".join(row) for row in cells)
        return "\\begin{pmatrix} " + body + " \\end{pmatrix}"
    if flat:
        return "[" + ", ".join(row[0] for row in cells) + "]"
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in cells) + "]"


def _render_interval(v: _lp.Interval) -> str:
    if v.is_empty:
        return "\\emptyset"
    lo = "-\\infty" if v.lo is None else _render_number(v.lo)
    hi = "\\infty" if v.hi is None else _render_number(v.hi)
    open_b = "[" if v.lo_closed else "("
    close_b = "]" if v.hi_closed else ")"
    return f"{open_b}{lo}, {hi}{close_b}"
