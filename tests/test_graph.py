import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from tropalg import (
    AlgebraMismatch,
    ExtScalar,
    IndexOutOfRange,
    InvalidGraph,
    NoPath,
    POS_INF,
    Q_MIN_PLUS,
    R64_MIN_PLUS,
    TropMatrix,
    WeightedGraph,
    Z_MAX_PLUS,
    Z_MIN_PLUS,
    closure_block,
    count_ops,
    find_shortest_path,
    search_least_distances,
)
from tropalg.trmatrix import _label_setting

from oracles import (
    INF,
    floyd_warshall,
    minplus_matrix_to_grid,
    ref_find_shortest_path_closure,
    round_float,
    shortest_path_dfs,
)


def s(v):
    return ExtScalar.of(v)


def adj(rows, alg=Z_MIN_PLUS):
    cells = [[POS_INF if v is None else s(v) for v in row] for row in rows]
    return TropMatrix.from_rows(cells, alg)


def graph(rows, alg=Z_MIN_PLUS):
    return WeightedGraph(adj(rows, alg))


PATH3 = [[0, 1, None], [1, 0, 1], [None, 1, 0]]


def rand_graph(rng, n, density=0.5, hi=9):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(0)
            elif rng.random() < density:
                row.append(rng.randint(0, hi))
            else:
                row.append(None)
        rows.append(row)
    return rows


# ---- validation ----


def test_adjacency_must_be_minplus():
    m = TropMatrix.from_rows([[s(0)]], Z_MAX_PLUS)
    with pytest.raises(AlgebraMismatch):
        WeightedGraph(m)


def test_adjacency_must_be_square():
    m = TropMatrix.from_rows([[s(0), s(1)]], Z_MIN_PLUS)
    with pytest.raises(InvalidGraph):
        WeightedGraph(m)


def test_diagonal_must_be_zero():
    with pytest.raises(InvalidGraph):
        graph([[0, 1], [1, 5]])


def test_negative_weights_are_rejected():
    with pytest.raises(InvalidGraph):
        graph([[0, -1], [1, 0]])


def test_vertex_indices_are_checked():
    g = graph(PATH3)
    with pytest.raises(IndexOutOfRange):
        find_shortest_path(g, 0, 3)
    with pytest.raises(IndexOutOfRange):
        find_shortest_path(g, -1, 0)


# ---- distances ----


def test_distances_on_the_three_vertex_path():
    g = graph(PATH3)
    d = search_least_distances(g)
    assert minplus_matrix_to_grid(d) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_no_edges_means_no_distances():
    g = graph([[0, None], [None, 0]])
    d = minplus_matrix_to_grid(search_least_distances(g))
    assert d == [[0, INF], [INF, 0]]


def test_distances_match_the_relaxation_oracle():
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(1, 8)
        rows = rand_graph(rng, n, density=rng.random())
        d = minplus_matrix_to_grid(search_least_distances(graph(rows)))
        grid = [[INF if v is None else v for v in row] for row in rows]
        assert d == floyd_warshall(grid)


def test_distances_satisfy_the_triangle_inequality():
    rng = random.Random(31)
    rows = rand_graph(rng, 7, density=0.4)
    d = minplus_matrix_to_grid(search_least_distances(graph(rows)))
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i][j] <= d[i][k] + d[k][j]


# ---- path reconstruction ----


def test_path_on_the_three_vertex_line():
    g = graph(PATH3)
    assert find_shortest_path(g, 2, 1) == [2, 1]
    assert find_shortest_path(g, 0, 2) == [0, 1, 2]


def test_trivial_path_is_the_single_vertex():
    g = graph(PATH3)
    assert find_shortest_path(g, 1, 1) == [1]


def test_unreachable_goal_raises():
    g = graph([[0, None], [None, 0]])
    with pytest.raises(NoPath):
        find_shortest_path(g, 0, 1)


def test_path_weights_telescope_to_the_distance():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(2, 9)
        rows = rand_graph(rng, n, density=0.5)
        g = graph(rows)
        d = minplus_matrix_to_grid(search_least_distances(g))
        for start in range(n):
            for goal in range(n):
                if d[start][goal] == INF:
                    continue
                path = find_shortest_path(g, start, goal)
                assert path[0] == start and path[-1] == goal
                assert len(set(path)) == len(path)
                total = sum(
                    rows[u][v] for u, v in zip(path, path[1:])
                )
                assert total == d[start][goal]


def test_ties_resolve_to_the_smallest_vertex_sequence():
    # Two equal-cost routes from 0 to 3: through 1 and through 2.
    g = graph(
        [
            [0, 1, 1, None],
            [None, 0, None, 1],
            [None, None, 0, 1],
            [None, None, None, 0],
        ]
    )
    assert find_shortest_path(g, 0, 3) == [0, 1, 3]


def test_zero_weight_plateaus_do_not_strand_the_walk():
    # From 0 the cheapest start is the 0-weight edge into 1, whose own
    # 0-weight continuations lead to 2 (a dead loop back to 0) and 3.
    # Only 3 reaches the goal, so the search must back out of 2.
    g = graph(
        [
            [0, 0, None, None, None],
            [None, 0, 0, 0, None],
            [0, None, 0, None, None],
            [None, None, None, 0, 5],
            [None, None, None, None, 0],
        ]
    )
    assert find_shortest_path(g, 0, 4) == [0, 1, 3, 4]


def test_zero_weight_cycle_through_the_start_is_avoided():
    g = graph(
        [
            [0, 0, None],
            [0, 0, 5],
            [None, None, 0],
        ]
    )
    assert find_shortest_path(g, 0, 2) == [0, 1, 2]


def test_walk_matches_the_backtracking_search_on_random_graphs():
    # Weights of 0 or 1 make many ties and zero-weight plateaus, where the
    # walk must pick the same lexicographically smallest path.
    rng = random.Random(34)
    for _ in range(150):
        n = rng.randint(2, 7)
        g = graph(rand_graph(rng, n, density=rng.choice([0.3, 0.6]), hi=rng.choice([1, 3])))
        d = minplus_matrix_to_grid(search_least_distances(g))
        for start in range(n):
            for goal in range(n):
                if start != goal and d[start][goal] != INF:
                    assert find_shortest_path(g, start, goal) == shortest_path_dfs(g, start, goal)


def test_zero_weight_clique_with_one_exit_is_walked_in_polynomial_time():
    # Backtracking tries every simple path through the clique before the
    # exit from vertex 1; at k = 12 that took minutes.
    k = 12
    rows = [[0 if j < k else None for j in range(k + 1)] for _ in range(k)]
    rows[1][k] = 1
    rows.append([None] * k + [0])
    g = graph(rows)
    t0 = time.perf_counter()
    assert find_shortest_path(g, 0, k) == [0, 1, k]
    assert time.perf_counter() - t0 < 2.0


# ---- one column of distances ----


def plateau_graph(rng, k):
    """A zero-weight k-clique whose only exit leaves vertex 0, then a chain."""
    n = k + rng.randint(2, 4)
    rows = [[0 if i == j or (i < k and j < k) else None for j in range(n)] for i in range(n)]
    rows[0][k] = rng.randint(1, 9)
    for v in range(k, n - 1):
        rows[v][v + 1] = rng.randint(1, 9)
        for u in range(v + 2, n):
            if rng.random() < 0.3:
                rows[v][u] = rng.randint(0, 9)
    return rows


def exact_graphs(seed, count):
    """Random ZMinPlus and QMinPlus graphs: sparse and dense ones, plateaus,
    vertices that cannot reach others, and goals without in-edges."""
    rng = random.Random(seed)
    for i in range(count):
        alg = (Z_MIN_PLUS, Q_MIN_PLUS)[i % 2]
        if i % 5 == 4:
            rows = plateau_graph(rng, rng.randint(2, 6))
        else:
            n = rng.randint(1, 9)
            rows = rand_graph(rng, n, density=rng.choice([0.1, 0.3, 0.6]), hi=rng.choice([1, 3, 9]))
            if i % 7 == 3:
                for row in rows:
                    row[n - 1] = None
                rows[n - 1][n - 1] = 0
        if alg is Q_MIN_PLUS:
            rows = [[v if v is None else Fraction(v, rng.choice([1, 2, 3, 7])) for v in row]
                    for row in rows]
        yield graph(rows, alg), rows


def graphs_with_missing_edges(seed, count):
    """ZMinPlus, QMinPlus and R64MinPlus graphs of 1 to 12 vertices, sparse
    or dense, each with a vertex that has no edge in or out, a vertex that
    has no edge in, and a block of vertices with no edge out of it into
    the rest, which therefore cannot reach it. R64 weights are
    quarter-integers, whose float sums are exact in any order."""
    rng = random.Random(seed)
    for i in range(count):
        alg = (Z_MIN_PLUS, Q_MIN_PLUS, R64_MIN_PLUS)[i % 3]
        n = rng.randint(1, 12)
        rows = rand_graph(rng, n, density=rng.choice([0.05, 0.15, 0.3, 0.6]), hi=rng.choice([1, 9]))
        isolated, sourced = rng.randrange(n), rng.randrange(n)
        late = set(rng.sample(range(n), rng.randint(0, n)))
        for u in range(n):
            for v in range(n):
                if u != v and (isolated in (u, v) or v == sourced or u in late and v not in late):
                    rows[u][v] = None
        if alg is Q_MIN_PLUS:
            rows = [[w if w is None else Fraction(w, rng.choice([1, 2, 3, 7])) for w in row]
                    for row in rows]
        elif alg is R64_MIN_PLUS:
            rows = [[w if w is None else w / 4 for w in row] for row in rows]
        yield graph(rows, alg), rows


def _distances_to(rows, goal):
    """The goal's column of the closure, exact on the stored rows and over
    their denominator, by the label-setting kernel run on the goal's unit
    column, the int 0, as find_shortest_path runs it. A min-plus matrix
    stores its values negated, so the column holds the negated distances."""
    unit = [0 if v == goal else None for v in range(len(rows))]
    return _label_setting(rows, [unit])[0]


def relaxations(rows, goal):
    """Finite off-diagonal edges into the vertices that reach the goal."""
    grid = [[INF if v is None else v for v in row] for row in rows]
    reach = [d[goal] != INF for d in floyd_warshall(grid)]
    n = len(rows)
    return sum(1 for v in range(n) for u in range(n)
               if v != u and reach[u] and rows[v][u] is not None)


def test_goal_column_is_the_closure_column():
    # Dijkstra scans only the unsettled vertices and stops at the first
    # one with no path, but still counts every finite edge into a vertex
    # that reaches the goal.
    unreachable = 0
    for g, rows in chain(exact_graphs(40, 200), graphs_with_missing_edges(43, 300)):
        a = g.adjacency
        closure = closure_block(a).to_lists()
        for goal in range(g.order):
            with count_ops() as c:
                column = _distances_to(a._raw, goal)
            # The stored rows are negated, over the adjacency matrix's denominator.
            assert [x if x is None else Fraction(-x, a._den) for x in column] == [
                None if r[goal].inf_sign else r[goal].finite for r in closure]
            assert c.adds == c.muls == relaxations(rows, goal)
            unreachable += column.count(None)
    assert unreachable > 1000


def test_walk_matches_the_closure_walk_on_exact_graphs():
    def outcome(f, g, start, goal):
        try:
            return f(g, start, goal)
        except NoPath as e:
            return str(e)

    for g, _ in exact_graphs(41, 200):
        for start in range(g.order):
            for goal in range(g.order):
                want = outcome(ref_find_shortest_path_closure, g, start, goal)
                assert outcome(find_shortest_path, g, start, goal) == want


def test_path_query_costs_one_column_and_its_tight_tests():
    # Vertex 4 cannot reach the goal 2, so the edge 2 -> 4 is never
    # relaxed; the edges into 2, 1 and 0 are: 1 -> 2, 0 -> 2, 0 -> 1 and
    # 3 -> 0, one add and one mul each. The walk 3, 0, 1, 2 then tests
    # one finite edge at each step, one mul each.
    g = graph(
        [
            [0, 3, 5, None, None],
            [None, 0, 1, None, None],
            [None, None, 0, None, 1],
            [1, None, None, 0, None],
            [None, None, None, None, 0],
        ]
    )
    with count_ops() as c:
        assert find_shortest_path(g, 3, 2) == [3, 0, 1, 2]
    assert (c.adds, c.muls) == (4, 4 + 3)


def test_float_paths_fold_to_their_distance():
    # The distances are exact, so a path's weight, summed exactly, is its
    # start's distance over the stored denominator.
    rng = random.Random(42)
    for _ in range(400):
        n = rng.randint(3, 9)
        rows = [[0.0 if i == j else rng.randint(0, 9) / 10 if rng.random() < 0.6 else None
                 for j in range(n)] for i in range(n)]
        g = graph(rows, R64_MIN_PLUS)
        for goal in range(n):
            column = _distances_to(g.adjacency._raw, goal)
            for start in range(n):
                if column[start] is None:
                    with pytest.raises(NoPath):
                        find_shortest_path(g, start, goal)
                    continue
                path = find_shortest_path(g, start, goal)
                assert path[0] == start and path[-1] == goal and len(set(path)) == len(path)
                total = sum(Fraction(rows[u][v]) for u, v in zip(path, path[1:]))
                assert total == Fraction(-column[start], g.adjacency._den)


def test_float_sum_that_overflows_is_no_path():
    big = 1.5e308
    rows = [[0.0, big, None, 1.0], [None, 0.0, big, None], [None, None, 0.0, None],
            [None, None, 3.0, 0.0]]
    g = graph(rows, R64_MIN_PLUS)
    assert find_shortest_path(g, 0, 2) == [0, 3, 2]
    assert find_shortest_path(g, 1, 2) == [1, 2]
    rows[0][3] = None
    g = graph(rows, R64_MIN_PLUS)
    with pytest.raises(NoPath):
        find_shortest_path(g, 0, 2)
    # Exact, the distance from 0 is 3e308, stored negated, which rounds
    # past the largest float to the infinite element.
    assert _distances_to(g.adjacency._raw, 2) == [-2 * int(big), -int(big), 0, -3]
    assert search_least_distances(g).get(0, 2) == POS_INF


def _wide_graph(rng, n):
    """An R64MinPlus graph on n vertices whose weights mix 0, 5e-324,
    small values and the 1e308 scale, so that path sums pass the largest
    float and lose low bits when rounded."""
    pool = (0.0, 5e-324, 0.1, 1.5, 1e300, 4e307, 1e308, 1.5e308, sys.float_info.max)
    density = rng.choice((0.2, 0.5, 0.9))
    return graph([[0.0 if i == j else rng.choice(pool) if rng.random() < density else None
                   for j in range(n)] for i in range(n)], R64_MIN_PLUS)


def test_paths_and_distances_agree_on_weights_up_to_the_largest_float():
    # find_shortest_path raises NoPath exactly where search_least_distances
    # reads the infinite element, a distance past the largest float
    # included, and otherwise walks a path whose exact weight rounds to the
    # distance it reads.
    rng = random.Random("wide graphs")
    seen = Counter()
    for _ in range(120):
        g = _wide_graph(rng, rng.randint(1, 8))
        dist = search_least_distances(g)
        for start in range(g.order):
            for goal in range(g.order):
                d = dist.get(start, goal)
                if d.inf_sign:
                    with pytest.raises(NoPath):
                        find_shortest_path(g, start, goal)
                    unreached = _distances_to(g.adjacency._raw, goal)[start] is None
                    seen["unreached" if unreached else "past the largest float"] += 1
                    continue
                path = find_shortest_path(g, start, goal)
                assert path[0] == start and path[-1] == goal and len(set(path)) == len(path)
                rows = g.adjacency.to_lists()
                total = sum(Fraction(rows[u][v].finite) for u, v in zip(path, path[1:]))
                assert round_float(total, R64_MIN_PLUS) == d, (start, goal)
                seen["rounded" if Fraction(d.finite) != total else "path"] += 1
    assert seen["past the largest float"] >= 50 and seen["unreached"] >= 200, seen
    assert seen["rounded"] >= 200 and seen["path"] >= 500, seen
