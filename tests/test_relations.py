"""Metamorphic relations: a known change to the input moves the answer in a
known way. They need no oracle, so they reach sizes the per-entry
references are too slow for."""

import random

import pytest

from tropalg import Z_MAX_PLUS, Z_MIN_PLUS, Domain, TropMatrix, bellman_homogeneous, closure_block

from oracles import SISTER, rand_closure_friendly


def _closure_friendly(rng, alg, n):
    """The rows of a rand_closure_friendly matrix over alg; over R64, drawn
    over Z and read as tenths, which floats hold only rounded."""
    if alg.domain is not Domain.F64:
        return rand_closure_friendly(rng, alg, n).to_lists()
    drawn = rand_closure_friendly(rng, Z_MAX_PLUS if alg.sign > 0 else Z_MIN_PLUS, n)
    return [[alg.zero() if e.inf_sign else e.finite / 10 for e in r] for r in drawn.to_lists()]


@pytest.mark.parametrize("n", [1, 2, 9, 33, 64])
@pytest.mark.parametrize("alg", list(SISTER), ids=lambda a: a.name)
def test_a_unit_loop_keeps_its_column_of_the_closure(alg, n):
    # A A* <= A* entrywise, and a loop of weight unit at k, appended to
    # every walk into k, lifts column k of A A* back to A*'s: so column k
    # of A* solves A x = x, over every domain, R64 included.
    rng = random.Random(f"unit loop {alg.name} {n}")
    for _ in range(6):
        rows = _closure_friendly(rng, alg, n)
        loops = rng.sample(range(n), min(n, 3))
        for k in loops:
            rows[k][k] = alg.one()
        a = TropMatrix.from_rows(rows, alg)
        closed = closure_block(a).to_lists()
        kept = list(zip(*bellman_homogeneous(a).to_lists()))
        for k in loops:
            assert tuple(r[k] for r in closed) in kept, (k, rows)
