"""Shortest paths on weighted digraphs via the min-plus closure.

A graph is an n x n min-plus adjacency matrix whose diagonal is exactly 0
and whose finite entries are nonnegative edge weights; +infinity marks a
missing edge. Under those invariants every cycle has nonnegative weight,
so the closure always exists and equals the matrix of all-pairs least
distances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraMismatch, IndexOutOfRange, InvalidGraph, NoPath
from .semiring import SemiringKind, trop_mul
from .trmatrix import TropMatrix, closure_block

__all__ = ["WeightedGraph", "search_least_distances", "find_shortest_path"]


@dataclass(frozen=True, slots=True)
class WeightedGraph:
    """A digraph given by its min-plus adjacency matrix."""

    adjacency: TropMatrix

    def __post_init__(self):
        a = self.adjacency
        if a.alg.kind is not SemiringKind.MIN_PLUS:
            raise AlgebraMismatch("graphs are weighted over a min-plus algebra")
        if not a.is_square:
            raise InvalidGraph("the adjacency matrix must be square")
        one = a.alg.one()
        zero_val = one.finite
        for j in range(a.rows):
            for k in range(a.cols):
                e = a.get(j, k)
                if j == k:
                    if e != one:
                        raise InvalidGraph(f"diagonal entry at {j} is {e}, not 0")
                elif e.is_finite and e.finite < zero_val:
                    raise InvalidGraph(f"negative edge weight {e} at ({j}, {k})")

    @property
    def order(self) -> int:
        return self.adjacency.rows


def search_least_distances(g: WeightedGraph) -> TropMatrix:
    """All-pairs least path weights: the closure of the adjacency matrix."""
    return closure_block(g.adjacency)


def find_shortest_path(g: WeightedGraph, start: int, goal: int) -> list[int]:
    """A minimum-weight vertex sequence from start to goal.

    An edge (u, v) is tight when w(u, v) + dist(v, goal) = dist(u, goal);
    the simple paths made of tight edges are exactly the simple shortest
    paths. The walk steps, each time, to the smallest tight successor from
    which a search over tight edges reaches the goal without touching the
    path, so the witness is the lexicographically smallest simple shortest
    path. It never backtracks and makes O(n^3) tight tests at most.
    Vertices are 0-based.
    """
    n = g.order
    for idx in (start, goal):
        if not isinstance(idx, int) or isinstance(idx, bool) or not 0 <= idx < n:
            raise IndexOutOfRange(f"vertex {idx!r} is outside 0..{n - 1}")
    if start == goal:
        return [start]
    dist = search_least_distances(g)
    if dist.get(start, goal).inf_sign:
        raise NoPath(f"no path from {start} to {goal}")
    adj = g.adjacency
    to_goal = [dist.get(v, goal) for v in range(n)]

    def tight(u: int, v: int) -> bool:
        w = adj.get(u, v)
        return not w.inf_sign and trop_mul(w, to_goal[v], adj.alg) == to_goal[u]

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
