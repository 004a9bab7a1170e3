"""Summarise or compare benchmark result files written by sweep.py.

    python3 bench/compare.py base.jsonl            # spread of each metric against its bound
    python3 bench/compare.py base.jsonl new.jsonl  # base against new, with a verdict per row

For every workload and end-to-end metric the report gives the median and
the quartiles of the runs (statistics.quantiles, n=4) and the spread,
the distance between the quartiles as a share of the median. Comparing
two files adds the ratio new/base and a verdict:

    worse       the new median is worse by more than the metric's bound
    better      the new median is better by more than the base's own spread
    same        neither
    unresolved  a spread exceeds the bound, unless every new run beats (or
                loses to) every base run

Per-layer rows (runs made with --trace 1) are listed without a verdict.
So are the `unscaled.*` rows: the medians of meta.unscaled, the timings
before scaling to the reference speed. A change that slows the whole
interpreter slows the calibration kernel too, and scaling cancels it in
the gated rows; it shows only in these. Files whose runs differ in run
length (meta.seconds) are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(path):
    """({(workload, metric): [values]}, {run lengths}) over the runs in a JSON-lines file.

    The metrics include meta.unscaled, as `unscaled.<name>`.
    """
    runs, seconds = defaultdict(list), set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        seconds.add(rec["meta"]["seconds"])
        for name, m in rec["result"]["metrics"].items():
            runs[rec["workload"], name].append(m["value"])
        for name, value in rec["meta"].get("unscaled", {}).items():
            runs[rec["workload"], f"unscaled.{name}"].append(value)
    return runs, seconds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, new, bound, lower_is_better):
    b, n = statistics.median(base), statistics.median(new)
    worse = (n - b) / b if lower_is_better else (b - n) / b
    if max(spread(base), spread(new)) > bound:
        beats = (lambda x, y: x < y) if lower_is_better else (lambda x, y: x > y)
        if all(beats(x, y) for x in new for y in base):
            return "better"
        if all(beats(y, x) for x in new for y in base):
            return "worse"
        return "unresolved"
    if worse > bound:
        return "worse"
    if -worse > spread(base):
        return "better"
    return "same"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    files, seconds = zip(*(load(p) for p in argv))
    if len(set().union(*seconds)) > 1:
        sys.exit(f"refused: the runs differ in run length (meta.seconds {sorted(set().union(*seconds))})")
    keys = sorted(files[0], key=lambda k: (k[0], k[1] not in e2e, k[1]))
    if len(files) == 1:
        print(f"{'workload':14s} {'metric':38s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  runs")
        for key in keys:
            values = files[0][key]
            q1, med, q3 = quartiles(values)
            bound = e2e[key[1]]["bound"] if key[1] in e2e else None
            note = "" if bound is None else ("ok" if spread(values) < bound / 3 else
                                             "within bound" if spread(values) <= bound else "TOO WIDE")
            print(f"{key[0]:14s} {key[1]:38s} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread(values):7.3f} "
                  f"{'' if bound is None else bound:>6}  {len(values)} {note}")
        return
    base, new = files
    print(f"{'workload':14s} {'metric':24s} {'base q1/median/q3':>30s} {'new q1/median/q3':>30s} {'new/base':>8s}  verdict")
    for key in keys:
        unscaled = key[1].startswith("unscaled.")
        if not (key[1] in e2e or unscaled) or key not in new:
            continue
        b, n = base[key], new[key]
        fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
        ratio = statistics.median(n) / statistics.median(b)
        if unscaled:
            result = "(not gated)"
        else:
            m = e2e[key[1]]
            result = verdict(b, n, m["bound"], m["better"] == "lower")
        print(f"{key[0]:14s} {key[1]:24s} {fmt(b):>30s} {fmt(n):>30s} {ratio:8.3f}  {result}")


if __name__ == "__main__":
    main()
