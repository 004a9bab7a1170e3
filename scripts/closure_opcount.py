"""Measure how many semiring multiplications a closure performs, and its wall time.

The closure is Gauss-Jordan elimination: each of its n pivots costs
n (n - 1) multiplications, so the count is C(n) = n^2 (n - 1), and this
script confirms it on live counts, in the column C(n). Each row also
gives the closure's wall time in milliseconds, so that work avoided and
work done faster can be told apart. The ratio count/n^3 tends to 1 as n
grows. The often-quoted 5/6 n^3 figure would need a block recursion
that joins the closures of two halves by five products, which returns
wrong closures on easy instances; a correct join takes six, n^3 - n
multiplications in all.

Usage, from the root of a checkout:
    PYTHONPATH=src python3 scripts/closure_opcount.py [--sizes 8,16,32,64] [--seed 7]
"""

import argparse
import random
import time

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


def predicted(n: int) -> int:
    """C(n), the multiplication count of the elimination above."""
    return n * n * (n - 1)


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

    header = (f"{'n':>5} {'muls':>10} {'ms':>9} {'C(n)':>10} {'muls/n^3':>9}"
              f" {'5/6n^3+8n^2':>12}")
    print(header)
    print("-" * len(header))
    for n in sizes:
        m = random_closing_matrix(rng, n)
        with count_ops() as c:
            start = time.perf_counter()
            closure_block(m)
            ms = (time.perf_counter() - start) * 1e3
        bound = 5 / 6 * n**3 + 8 * n**2
        print(
            f"{n:>5} {c.muls:>10} {ms:>9.3f} {predicted(n):>10} {c.muls / n**3:>9.4f}"
            f" {bound:>12.0f}"
        )


if __name__ == "__main__":
    main()
