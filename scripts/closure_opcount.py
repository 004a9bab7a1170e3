"""Measure how many semiring multiplications a block closure performs.

The recursion splits the matrix into four blocks at h = n // 2 and
assembles the closure from six block products, 3 h (n - h) n
multiplications, plus the closures of an h x h and an (n - h) x (n - h)
block. Solving that recurrence gives exactly n^3 - n multiplications at
every size, and this script confirms the formula on live counts.
The often-quoted 5/6 n^3 figure would need a five-product assembly,
which returns wrong closures on easy instances; the sixth product is
what correctness costs, and it pushes the ratio count/n^3 to 1.

Usage, from the root of a checkout:
    PYTHONPATH=src python3 scripts/closure_opcount.py [--sizes 8,16,32,64] [--seed 7]
"""

import argparse
import random

from tropalg import Z_MAX_PLUS, closure_block, count_ops
from tropalg.trmatrix import TropMatrix
from tropalg.semiring import ExtScalar


def random_closing_matrix(rng: random.Random, n: int) -> TropMatrix:
    """Max-plus matrix with nonpositive entries, so the closure exists."""
    rows = [
        [
            Z_MAX_PLUS.zero() if rng.random() < 0.1 else ExtScalar.of(rng.randint(-9, 0))
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    return TropMatrix.from_rows(rows, Z_MAX_PLUS)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--sizes",
        default="8,16,32,64",
        help="comma-separated matrix sizes to measure",
    )
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    rng = random.Random(args.seed)

    header = f"{'n':>5} {'muls':>10} {'n^3-n':>10} {'muls/n^3':>9} {'5/6n^3+8n^2':>12}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        m = random_closing_matrix(rng, n)
        with count_ops() as c:
            closure_block(m)
        bound = 5 / 6 * n**3 + 8 * n**2
        print(
            f"{n:>5} {c.muls:>10} {n**3 - n:>10} {c.muls / n**3:>9.4f} {bound:>12.0f}"
        )


if __name__ == "__main__":
    main()
