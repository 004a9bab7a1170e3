"""Evaluator for parsed calculator scripts.

A Session starts in the classical rational space Q and changes algebra on
each SPACE statement. Values remember the space they were created under;
mixing spaces is an error rather than a silent coercion. Expression
statements always print. An assignment prints exactly when its right-hand
side is a command call, so `x = \\SimplexMax(A, b, c);` shows the answer
while plain data bindings like `A = [[1, 2], [3, 0]];` stay quiet.

Operators use the library's scalar and matrix operations in every space:
negation is trop_neg, entry by entry for a matrix, and `a - b` is
a * (-b) tropically; a classical scalar difference is settled like every
classical sum, so a float overflow is an error there too. Library errors
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
The entries of a matrix or list literal are read alike, by _ENTRY.
Commands answer with library values: a shortest path is the vertex list,
\\solveLAITropic's answer its tuple of bounds, and a simplex optimum the
library's Optimal, its point converted to a column and its objective to a
scalar of the space at the command, so over R64 a value that overflows a
float is an error there, as in every R64 operator.

Printed forms: scalars as integers, reduced fractions or trimmed floats,
of any length; the two infinities as -\\infty and \\infty; a one-column
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
from ..trmatrix import TropMatrix, closure_block, mat_mul, mat_oplus
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
            raise EvalError(
                f"space {name} does not take variables", stmt.line, stmt.col
            )
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
                return self.infinity_literal(node)
            if isinstance(node, Var):
                binding = self.binding(node)
                if binding is None:
                    raise TropalgError(f"undefined variable {node.name!r}")
                return binding.value
            if isinstance(node, EmptyLit):
                return EmptyMatrix()
            if isinstance(node, MatrixLit):
                rows = [[_ENTRY(self.eval(e), e) for e in row] for row in node.rows]
                return TropMatrix.from_rows(rows, self.session.algebra)
            if isinstance(node, ListLit):
                values = [_ENTRY(self.eval(e), e) for e in node.items]
                return TropMatrix.column(values, self.session.algebra)
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
        domain = self.session.algebra.domain
        if domain is _Z and node.kind != "int":
            raise TropalgError(f"{node.value} is not an element of an integer space")
        value = _exact(node.value)
        if domain is _F64:
            try:
                value = float(Fraction(value))
            except OverflowError as e:
                raise TropalgError(str(e)) from e
        return ExtScalar.of(value)

    def infinity_literal(self, node: InfinityLit) -> ExtScalar:
        alg = self.session.algebra
        if not alg.is_tropical:
            raise TropalgError(f"space {self.session.space_name} has no infinite elements")
        return alg.require_legal(POS_INF if node.sign > 0 else NEG_INF)

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
            entries = tuple(trop_neg(e) for e in value.entries)
            return TropMatrix(value.rows, value.cols, entries, value.alg)
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
                return self.scale(left, right)
            if matrix_l and scalar_r:
                return self.scale(right, left)
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

    def scale(self, scalar: ExtScalar, matrix: TropMatrix) -> TropMatrix:
        alg = self.session.algebra
        entries = tuple(trop_mul(scalar, e, alg) for e in matrix.entries)
        return TropMatrix(matrix.rows, matrix.cols, entries, alg)

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
        """Reduce an expression to (a, b, var) meaning a*var + b."""
        zero = Fraction(0)
        if isinstance(node, ScalarLit):
            return zero, Fraction(_exact(node.value)), None
        if isinstance(node, Var):
            binding = self.binding(node)
            if binding is not None:
                value = binding.value
                if isinstance(value, ExtScalar) and value.is_finite:
                    return zero, Fraction(value.finite), None
                raise EvalError(
                    f"variable {node.name!r} is not a finite scalar",
                    node.line,
                    node.col,
                )
            if self.session.poly_var is None or node.name == self.session.poly_var:
                return Fraction(1), zero, node.name
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
    return tuple(tuple(Fraction(e.finite) for e in row) for row in m.to_lists())


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


def _exact(text: str) -> int | Fraction:
    """The exact value of a number literal's text, of any length.

    int() and Fraction() refuse text of more digits than
    sys.get_int_max_str_digits() allows, a process-wide limit left alone
    here; Decimal reads any length, as it writes any length in
    semiring._number_text.
    """
    num, _, den = text.partition("/")
    if den:
        return Fraction(int(Decimal(num)), int(Decimal(den)))
    if "." in num:
        return Fraction(Decimal(num))
    return int(Decimal(num))


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
    v = e.finite
    return _number_text(int(v) if isinstance(v, float) and v.is_integer() else v)


def render(value, options: RenderOptions | None = None) -> str:
    options = options or RenderOptions()
    if isinstance(value, ExtScalar):
        return _render_scalar(value)
    if isinstance(value, UndefinedClosure):
        return "\\infty" if value.sign > 0 else "-\\infty"
    if isinstance(value, TropMatrix):
        return _render_matrix(value.to_lists(), value.cols == 1, options)
    if isinstance(value, tuple):  # solve_lai_tropic's bounds
        return _render_matrix([(b.lower, b.upper) for b in value], False, options)
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


def _render_matrix(rows, flat: bool, options: RenderOptions) -> str:
    cells = [[_render_scalar(e) for e in row] for row in rows]
    if options.fmt == "latex":
        body = " \\\\ ".join(" & ".join(row) for row in cells)
        return "\\begin{pmatrix} " + body + " \\end{pmatrix}"
    if flat:
        return "[" + ", ".join(row[0] for row in cells) + "]"
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in cells) + "]"


def _render_interval(v: _lp.Interval) -> str:
    if v.is_empty:
        return "\\emptyset"
    lo = "-\\infty" if v.lo is None else _render_scalar(ExtScalar.of(v.lo))
    hi = "\\infty" if v.hi is None else _render_scalar(ExtScalar.of(v.hi))
    open_b = "[" if v.lo_closed else "("
    close_b = "]" if v.hi_closed else ")"
    return f"{open_b}{lo}, {hi}{close_b}"
