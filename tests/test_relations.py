"""Metamorphic relations: a known change to the input moves the answer in a
known way. They need no oracle, so they reach sizes the per-entry
references are too slow for."""

import random

import pytest

from tropalg import TropMatrix, bellman_homogeneous, closure_block

from oracles import SISTER, rand_closure_friendly


@pytest.mark.parametrize("n", [1, 2, 9, 33, 64])
@pytest.mark.parametrize("alg", list(SISTER), ids=lambda a: a.name)
def test_a_unit_loop_keeps_its_column_of_the_closure(alg, n):
    # A A* <= A* entrywise, and a loop of weight unit at k, appended to
    # every walk into k, lifts column k of A A* back to A*'s: so column k
    # of A* solves A x = x, over every domain, R64 included.
    rng = random.Random(f"unit loop {alg.name} {n}")
    for _ in range(6):
        rows = rand_closure_friendly(rng, alg, n).to_lists()
        loops = rng.sample(range(n), min(n, 3))
        for k in loops:
            rows[k][k] = alg.one()
        a = TropMatrix.from_rows(rows, alg)
        closed = closure_block(a).to_lists()
        kept = list(zip(*bellman_homogeneous(a).to_lists()))
        for k in loops:
            assert tuple(r[k] for r in closed) in kept, (k, rows)
