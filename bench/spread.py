"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --first 1 --count 10            # every workload
    python3 bench/spread.py --first 1 --count 1 --trace 1   # per-layer figures

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
each run's result, then per metric the median and the distance between the
first and third quartile as a share of the median (the spread the bounds in
BENCHMARK.json are set from).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first, args.first + args.count):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and not result["failed"]
            print(name, seed, "correct" if result["correct"] else "INCORRECT",
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                value = m["value"]
                print(f"  {metric} = {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
        for metric, v in values.items():
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                print(f"{name} {metric}: median {med:.4g}, IQR/median {(q3 - q1) / med:.3f}, "
                      f"min {min(v):.4g}, max {max(v):.4g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
