"""An outside-in span tracer for the tropalg package, installed from the benchmark.

install() rebinds each public function of the package's modules, in
every tropalg module that holds a reference to it (from-imports copy the
binding, so tropalg.solvers.mat_mul and tropalg.mathpar.interp.closure_block
are rebound as well as tropalg.trmatrix.mat_mul), and wraps the
constructors of TropMatrix and WeightedGraph. uninstall() puts every
binding back. Nothing under src/ is edited.

Each span opens its own count_ops() counter. Only the innermost counter
receives tallies, so on exit a span adds its totals into its parent by
hand; the program's own count_ops() calls (run_cli opens one) become
spans too, which keeps their totals what they are without tracing.

The scalar operations of tropalg.semiring are not wrapped: they run
millions of times per request, and spans around them would measure the
tracer. That layer is observed through the count_ops tallies instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "tropalg.semiring",
    "tropalg.trmatrix",
    "tropalg.solvers",
    "tropalg.graph",
    "tropalg.lp",
    "tropalg.mathpar.lexer",
    "tropalg.mathpar.parser",
    "tropalg.mathpar.interp",
    "tropalg.mathpar.cli",
)
SCALAR_OPS = {"trop_add", "trop_mul", "trop_neg", "trop_closure_scalar", "semiring_le"}


class Stats:
    """Totals over every span of one name."""

    __slots__ = ("calls", "incl_s", "self_s", "adds", "muls", "self_adds", "self_muls")

    def __init__(self):
        self.calls = 0
        self.incl_s = self.self_s = 0.0
        self.adds = self.muls = self.self_adds = self.self_muls = 0


class Span:
    __slots__ = ("name", "t0", "child_s", "cm", "counts", "child_adds", "child_muls")

    def __init__(self, name, cm, counts):
        self.name = name
        self.cm = cm
        self.counts = counts
        self.child_s = 0.0
        self.child_adds = self.child_muls = 0


def _layer(module_name: str) -> str:
    return module_name[len("tropalg."):]


class Tracer:
    def __init__(self):
        import tropalg.semiring

        self._count_ops = tropalg.semiring.count_ops
        self.stack: list[Span] = []
        self.stats: dict[str, Stats] = defaultdict(Stats)
        self.extra: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # ---- spans ----

    def enter(self, name: str) -> Span:
        cm = self._count_ops()
        span = Span(name, cm, cm.__enter__())
        self.stack.append(span)
        span.t0 = perf_counter()
        return span

    def exit(self, span: Span) -> None:
        dur = perf_counter() - span.t0
        span.cm.__exit__(None, None, None)
        if self.stack.pop() is not span:
            raise RuntimeError("spans closed out of order")
        c = span.counts
        st = self.stats[span.name]
        st.calls += 1
        st.incl_s += dur
        st.self_s += dur - span.child_s
        st.adds += c.adds
        st.muls += c.muls
        st.self_adds += c.adds - span.child_adds
        st.self_muls += c.muls - span.child_muls
        if self.stack:
            parent = self.stack[-1]
            parent.child_s += dur
            parent.child_adds += c.adds
            parent.child_muls += c.muls
            parent.counts.adds += c.adds
            parent.counts.muls += c.muls

    @contextmanager
    def span(self, name: str):
        s = self.enter(name)
        try:
            yield s
        finally:
            self.exit(s)

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self.stack)

    # ---- wrapping ----

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.enter(name)
            result = ok = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer.exit(span)
                if after is not None:
                    after(span, args, result, ok)

        return traced

    def _rebind(self, original, replacement):
        """Point every tropalg module attribute bound to original at replacement."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("tropalg"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _hooks(self):
        from tropalg.lp import SimplexStats

        x = self.extra

        def closure_done(span, args, result, ok):
            if ok:
                n = args[0].rows
                x["closure.useful_muls"] += n ** 3 - n
                x["closure.muls"] += span.counts.muls
            if self.inside("graph.find_shortest_path"):
                x["closure.in_query"] += 1

        def construct_done(span, args, result, ok):
            if ok:
                x["construct.entries"] += args[0].rows * args[0].cols

        def tokenize_done(span, args, result, ok):
            if ok:
                x["lexer.tokens"] += len(result)

        def evaluate_done(span, args, result, ok):
            x["interp.statements"] += len(args[0])

        def with_stats(traced_simplex):
            @functools.wraps(traced_simplex)
            def simplex_solve(problem, stats=None):
                own = SimplexStats() if stats is None else stats
                before = own.pivots
                try:
                    return traced_simplex(problem, own)
                finally:
                    x["lp.pivots"] += own.pivots - before

            return simplex_solve

        return {
            "trmatrix.closure_block": closure_done,
            "trmatrix.construct": construct_done,
            "mathpar.lexer.tokenize": tokenize_done,
            "mathpar.interp.evaluate": evaluate_done,
        }, {"lp.simplex_solve": with_stats}

    def install(self) -> None:
        import tropalg  # noqa: F401  (loads every layer)
        import tropalg.mathpar.cli  # noqa: F401
        from tropalg.graph import WeightedGraph
        from tropalg.trmatrix import TropMatrix

        after, outer = self._hooks()
        for mod_name in LAYERS:
            mod = sys.modules[mod_name]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fname in SCALAR_OPS:
                    continue
                name = f"{_layer(mod_name)}.{fname}"
                if fname == "count_ops":
                    replacement = self._traced_count_ops()
                else:
                    replacement = self._wrap(name, fn, after.get(name))
                    if name in outer:
                        replacement = outer[name](replacement)
                self._rebind(fn, replacement)
        for cls, name in ((TropMatrix, "trmatrix.construct"), (WeightedGraph, "graph.WeightedGraph")):
            init = cls.__init__
            self._undo.append((cls, "__init__", init))
            cls.__init__ = self._wrap(name, init, after.get(name))

    def _traced_count_ops(self):
        tracer = self

        @contextmanager
        def count_ops():
            with tracer.span("semiring.count_ops") as s:
                yield s.counts

        return count_ops

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
