"""Plain-number references the benchmark checks the library's answers against.

Matrices are lists of rows of ints, Fractions and the float infinities;
nothing here imports tropalg. Each function recomputes an answer by a
route different from the library's: Floyd-Warshall instead of the block
closure, the residuation formula entry by entry, Dijkstra instead of the
closure for distances.
"""

from __future__ import annotations

import heapq
import math

INF = math.inf


class NoClosure(Exception):
    """The reference found an improving cycle, so no closure exists."""


def zero(maxplus: bool) -> float:
    """The absorbing element: -inf for max-plus, +inf for min-plus."""
    return -INF if maxplus else INF


def better(maxplus: bool):
    return (lambda x, y: x > y) if maxplus else (lambda x, y: x < y)


def closure(a, maxplus: bool):
    """The Kleene closure by Floyd-Warshall; raises NoClosure on an improving cycle."""
    n = len(a)
    wins = better(maxplus)
    z = zero(maxplus)
    d = [list(row) for row in a]
    for i in range(n):
        if wins(0, d[i][i]):
            d[i][i] = 0
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == z:
                continue
            di = d[i]
            for j in range(n):
                v = dik + dk[j]
                if wins(v, di[j]):
                    di[j] = v
    if any(wins(d[i][i], 0) for i in range(n)):
        raise NoClosure
    return d


def matmul(a, b, maxplus: bool):
    pick = max if maxplus else min
    z = zero(maxplus)
    cols = list(zip(*b))
    return [[pick((x + y for x, y in zip(row, col)), default=z) for col in cols] for row in a]


def principal(a, b, maxplus: bool):
    """The residuation bound of A x <= b as a column: the tightest cap per coordinate."""
    z = zero(maxplus)
    pick = min if maxplus else max
    x = []
    for k in range(len(a[0])):
        caps = [b[j][0] - a[j][k] for j in range(len(a)) if a[j][k] != z]
        x.append([pick(caps) if caps else z])
    return x


def lai(a, b, maxplus: bool):
    """Principal solution of A x <= b and its per-coordinate intervals."""
    x = principal(a, b, maxplus)
    if maxplus:
        bounds = [(-INF, v[0], False, True) for v in x]
    else:
        bounds = [(v[0], INF, True, False) for v in x]
    return x, bounds


def dijkstra(w, source: int):
    """Least distances from source over nonnegative weights; INF when unreachable."""
    n = len(w)
    dist = [INF] * n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in range(n):
            wuv = w[u][v]
            if v != u and wuv != INF and d + wuv < dist[v]:
                dist[v] = d + wuv
                heapq.heappush(heap, (dist[v], v))
    return dist


def path_ok(w, path, start: int, goal: int, dist) -> bool:
    """A simple path from start to goal over existing edges whose weight is dist."""
    if not path or path[0] != start or path[-1] != goal or len(set(path)) != len(path):
        return False
    total = 0
    for u, v in zip(path, path[1:]):
        if w[u][v] == INF:
            return False
        total += w[u][v]
    return total == dist
