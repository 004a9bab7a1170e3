"""Shortest paths on weighted digraphs.

A graph is an n x n min-plus adjacency matrix whose diagonal is exactly 0
and whose finite entries are nonnegative edge weights; +infinity marks a
missing edge. Under those invariants every cycle has nonnegative weight,
so the closure always exists and equals the matrix of all-pairs least
distances, which search_least_distances returns. A single path needs only
the goal's column of it, A^x times the goal's unit column: no weight is
better than the unit, so find_shortest_path computes that column by
trmatrix's label-setting kernel, the one bellman_solve runs on such a
matrix. That is Dijkstra's method on the reversed graph, in O(n^2) on
raw numbers, each step scanning only the vertices not yet settled. The
distances are exact over every domain; over R64 one past the largest
float is no path, as search_least_distances rounds it to +infinity.
"""

from __future__ import annotations

from ._record import Record
from .errors import AlgebraMismatch, IndexOutOfRange, InvalidGraph, NoPath
from .semiring import SemiringKind, _number_text, _tally
from .trmatrix import TropMatrix, _label_setting, _result, closure_block

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
        # The stored rows are max-plus rows of the negated weights, so a
        # negative weight is a stored value above 0, the unit.
        for j, row in enumerate(a._raw):
            for k, w in enumerate(row):
                if j == k:
                    if w != 0:
                        raise InvalidGraph(f"diagonal entry at {j} is {a.get(j, k)}, not 0")
                elif w is not None and w > 0:
                    raise InvalidGraph(f"negative edge weight {a.get(j, k)} at ({j}, {k})")

    @property
    def order(self) -> int:
        return self.adjacency.rows


def search_least_distances(g: WeightedGraph) -> TropMatrix:
    """All-pairs least path weights: the closure of the adjacency matrix."""
    return closure_block(g.adjacency)


def find_shortest_path(g: WeightedGraph, start: int, goal: int) -> list[int]:
    """A minimum-weight vertex sequence from start to goal.

    The distances to the goal, one column of the closure, come from the
    label-setting kernel on the goal's unit column, exact over every
    domain (computed on the matrix's stored integer rows, over its
    denominator), and the walk reads the same raw rows. There is no path
    where the distance, rounded as search_least_distances rounds it, is
    the infinite element: over R64 an exact distance past the largest
    float is. An edge (u, v) is tight when w(u, v) + dist(v, goal) =
    dist(u, goal); the simple paths made of tight edges are exactly the
    simple shortest paths, and some edge out of every vertex with a finite
    distance is tight. The walk steps, each time, to the smallest tight
    successor from which a search over tight edges reaches the goal
    without touching the path, so the witness is the lexicographically
    smallest simple shortest path. It never backtracks and makes O(n^3)
    tight tests at most, each tallied as one multiplication. Vertices are
    0-based.
    """
    n = g.order
    for idx in (start, goal):
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < n:
            shown = _number_text(idx) if isinstance(idx, int) else repr(idx)
            raise IndexOutOfRange(f"vertex {shown} is outside 0..{n - 1}")
    if start == goal:
        return [start]
    adj = g.adjacency
    rows, alg = adj._raw, adj.alg
    unit = [None] * n
    unit[goal] = 0
    to_goal, = _label_setting(rows, [unit])
    # The distance as search_least_distances reads it, rounded over R64.
    if _result([[to_goal[start]]], alg, adj._den)._raw[0][0] is None:
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
