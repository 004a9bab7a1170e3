import random
import time

import pytest

from tropalg import (
    AlgebraMismatch,
    ExtScalar,
    IndexOutOfRange,
    InvalidGraph,
    NoPath,
    POS_INF,
    TropMatrix,
    WeightedGraph,
    Z_MAX_PLUS,
    Z_MIN_PLUS,
    find_shortest_path,
    search_least_distances,
)

from oracles import INF, floyd_warshall, minplus_matrix_to_grid, shortest_path_dfs


def s(v):
    return ExtScalar.of(v)


def adj(rows):
    cells = [[POS_INF if v is None else s(v) for v in row] for row in rows]
    return TropMatrix.from_rows(cells, Z_MIN_PLUS)


def graph(rows):
    return WeightedGraph(adj(rows))


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
