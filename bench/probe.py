"""Fresh-process timings for the benchmark; run.py launches this, one probe per process.

    python3 bench/probe.py setup WORKLOAD SEED WORK_DIR
        Calibrates, then times importing tropalg (and the CLI for
        script-mix) before anything else is imported, so that the import
        pays for every standard module tropalg loads. Then, with the clock
        stopped, draws the first SETUP_BLOCKS blocks of the workload's
        inputs, and times building the library objects from them. Prints
        the sum of the two times in seconds, at the reference speed of
        calibrate.py.

    python3 bench/probe.py import
        Times importing tropalg.mathpar.cli. Prints seconds.

This module imports only sys, os and calibrate (which imports only time)
before it starts a clock; test_bench.py checks that.
"""

import os
import sys
from time import perf_counter

from calibrate import calibration_ms, speed_scale

SETUP_BLOCKS = 2


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    if argv[0] == "import":
        t0 = perf_counter()
        import tropalg.mathpar.cli  # noqa: F401

        print(perf_counter() - t0)
        return
    _, name, seed, work_dir = argv
    scale = speed_scale([calibration_ms() for _ in range(7)])
    t0 = perf_counter()
    import tropalg  # noqa: F401

    if name == "script-mix":
        import tropalg.mathpar.cli  # noqa: F401
    import_s = perf_counter() - t0

    from pathlib import Path

    import workloads

    w = workloads.make(name, Path(work_dir))
    gen = w.blocks(int(seed))
    blocks = [next(gen) for _ in range(SETUP_BLOCKS)]
    t0 = perf_counter()
    for block in blocks:
        w.build(block)
    build_s = perf_counter() - t0
    print((import_s + build_s) * scale)


if __name__ == "__main__":
    main(sys.argv[1:])
