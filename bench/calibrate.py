"""The reference-speed calibration shared by run.py and probe.py.

On a shared machine the speed a process gets drifts by half or more over
tens of seconds. calibration_ms() times a fixed piece of pure-Python work
that never touches tropalg, and the benchmark scales every time it
reports to the reference speed at which that work takes CAL_REF_MS.
Changing this module changes every number the benchmark reports.

Kept to the standard library's time module, so that a fresh process can
calibrate before it times its imports without importing anything else.
"""

from time import perf_counter

CAL_REF_MS = 0.6
# A bare `python -c pass` launch at the reference speed. Process start-up
# follows the kernel below poorly, so cold launches are scaled by a bare
# launch made just before each of them instead.
BARE_REF_MS = 55.0
_MATRIX = [[(3 * i + 5 * j) % 10 - 9 for j in range(16)] for i in range(16)]


def calibration_ms() -> float:
    """Time a 16 x 16 max-plus product of plain ints, in ms."""
    cols = list(zip(*_MATRIX))
    t0 = perf_counter()
    [[max(x + y for x, y in zip(row, col)) for col in cols] for row in _MATRIX]
    return (perf_counter() - t0) * 1e3


def speed_scale(samples) -> float:
    """The factor that turns times measured alongside these samples into reference times."""
    s = sorted(samples)
    mid = len(s) // 2
    median = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
    return CAL_REF_MS / median
