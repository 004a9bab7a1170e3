"""Shortest paths on weighted digraphs.

A graph is an n x n min-plus adjacency matrix whose diagonal is exactly 0
and whose finite entries are nonnegative edge weights; +infinity marks a
missing edge. Under those invariants every cycle has nonnegative weight,
so the closure always exists and equals the matrix of all-pairs least
distances, which search_least_distances returns. A single path needs only
the goal's column of it: find_shortest_path computes that column by
Dijkstra's method on the reversed graph, in O(n^2) on raw numbers, each
step scanning only the vertices not yet settled.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import AlgebraMismatch, IndexOutOfRange, InvalidGraph, NoPath
from .semiring import Algebra, SemiringKind, _number_text, _tally
from .trmatrix import TropMatrix, closure_block

__all__ = ["WeightedGraph", "search_least_distances", "find_shortest_path"]


class WeightedGraph(Record):
    """A digraph given by its min-plus adjacency matrix."""

    __slots__ = ("adjacency",)

    def __init__(self, adjacency: TropMatrix):
        super().__init__(adjacency)
        a = self.adjacency
        if a.alg.kind is not SemiringKind.MIN_PLUS:
            raise AlgebraMismatch("graphs are weighted over a min-plus algebra")
        if not a.is_square:
            raise InvalidGraph("the adjacency matrix must be square")
        for j, row in enumerate(a._raw):
            for k, w in enumerate(row):
                if j == k:
                    if w != 0:
                        raise InvalidGraph(f"diagonal entry at {j} is {a.get(j, k)}, not 0")
                elif w is not None and w < 0:
                    raise InvalidGraph(f"negative edge weight {a.get(j, k)} at ({j}, {k})")

    @property
    def order(self) -> int:
        return self.adjacency.rows


def search_least_distances(g: WeightedGraph) -> TropMatrix:
    """All-pairs least path weights: the closure of the adjacency matrix."""
    return closure_block(g.adjacency)


def _distances_to(rows: list, goal: int, alg: Algebra) -> list:
    """Raw least distances from every vertex to goal, None where there is no path.

    Dijkstra's method on the reversed graph, in the dense O(n^2) form, with
    inf for "no path" while it runs: it settles the nearest unsettled
    vertex, picked by min over the unsettled set, stops when that one is
    at inf, and relaxes the finite edges from the unsettled vertices into
    it. Weights are nonnegative, so a settled distance is final and a
    relaxation never improves a settled vertex; each distance is therefore
    the least w(u, v) + d(v) over the edges out of u, summed exactly as the
    tight test sums it, also over R64, where a sum that overflows to inf
    is no path. Ints compare with inf exactly, however large. Every finite
    off-diagonal edge into a settled vertex is tallied as one relaxation,
    one addition and one multiplication, whether its source is settled or
    not, so the count is the number of such edges into vertices that
    reach the goal, whatever order they are settled in.
    """
    n, inf = len(rows), math.inf
    into = list(zip(*rows))
    dist = [inf] * n
    dist[goal] = alg.one().finite
    unsettled = set(range(n))
    relaxed = 0
    while unsettled:
        u = min(unsettled, key=dist.__getitem__)
        du = dist[u]
        if du == inf:
            break
        unsettled.remove(u)
        col = into[u]
        relaxed += n - col.count(None) - (col[u] is not None)
        for v in unsettled:
            w = col[v]
            if w is not None and (d := w + du) < dist[v]:
                dist[v] = d
    _tally(relaxed, relaxed)
    return [None if d == inf else d for d in dist]


def find_shortest_path(g: WeightedGraph, start: int, goal: int) -> list[int]:
    """A minimum-weight vertex sequence from start to goal.

    The distances to the goal come from _distances_to, one column of the
    closure, exact over Z and Q (computed on the matrix's stored integer
    rows, over its denominator), and the walk reads the same raw rows. An edge
    (u, v) is tight when w(u, v) + dist(v, goal) = dist(u, goal); the
    simple paths made of tight edges are exactly the simple shortest
    paths, and over R64, where the distances are the float sums the tight
    test repeats, some edge out of every vertex with a finite distance is
    tight. The walk steps, each time, to the smallest tight successor from
    which a search over tight edges reaches the goal without touching the
    path, so the witness is the lexicographically smallest simple
    shortest path. It never backtracks and makes O(n^3) tight tests at
    most, each tallied as one multiplication. Vertices are 0-based.
    """
    n = g.order
    for idx in (start, goal):
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < n:
            shown = _number_text(idx) if isinstance(idx, int) else repr(idx)
            raise IndexOutOfRange(f"vertex {shown} is outside 0..{n - 1}")
    if start == goal:
        return [start]
    rows = g.adjacency._raw
    to_goal = _distances_to(rows, goal, g.adjacency.alg)
    if to_goal[start] is None:
        raise NoPath(f"no path from {start} to {goal}")

    def tight(u: int, v: int) -> bool:
        w, d = rows[u][v], to_goal[v]
        if w is None:
            return False
        _tally(0, 1)
        return d is not None and w + d == to_goal[u]

    # The path's vertices, and every vertex found unable to reach the goal
    # around the path; the path only grows, so such a vertex stays unable.
    barred = {start}

    def leads_to_goal(v: int, level) -> bool:
        """Whether tight edges lead from v to the goal around the barred vertices.

        Tight edges never move away from the goal and no barred vertex is
        nearer to it than `level`, so reaching the goal or any vertex
        nearer than `level` settles the question.
        """
        seen, stack = {v}, [v]
        while stack:
            x = stack.pop()
            if x == goal or to_goal[x] != level:
                return True
            for y in range(n):
                if y not in seen and y not in barred and tight(x, y):
                    seen.add(y)
                    stack.append(y)
        barred.update(seen)
        return False

    path = [start]
    while path[-1] != goal:
        u = path[-1]
        for v in range(n):
            if v not in barred and tight(u, v) and leads_to_goal(v, to_goal[u]):
                break
        else:
            raise AssertionError("a tight path must exist when the distance is finite")
        path.append(v)
        barred.add(v)
    return path
