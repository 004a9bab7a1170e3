"""Run the benchmark over several seeds and collect the results in a JSON-lines file.

    python3 bench/sweep.py --out base.jsonl --seeds 1-10
    python3 bench/sweep.py --out base.jsonl --seeds 1-5 --workloads script-mix --trace 1

Each run is a separate `bench/run.py` process with the run length
`run_seconds` from BENCHMARK.json, so that files from different sweeps
compare like with like; seeds run in order, workload by workload. Each output line holds the workload, the seed, the run's meta
line and its result line. The file is then summarised as by compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    spec = compare.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default="1-10", help="an inclusive range such as 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    with args.out.open("a", encoding="utf-8") as fh:
        for workload in args.workloads.split(","):
            for seed in seeds(args.seeds):
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                    capture_output=True, text=True, check=False, timeout=900,
                )
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
                meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "meta": meta, "result": json.loads(lines[-1])}
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                print(f"{workload} seed {seed}: correct={record['result']['correct']}", flush=True)
    compare.main([str(args.out)])


if __name__ == "__main__":
    main()
