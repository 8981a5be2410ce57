"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Set-up (importing the package, then building the inputs three times) is
timed first, then one warm-up round runs and is checked against the
reference values, then rounds repeat until S seconds have passed.  Every
round is checked.  The last line of standard output is one JSON object.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
round time), ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` untraced
and traced rounds alternate; the metrics are the per-layer ones from the
traced rounds and ``trace.overhead_s``, and the first traced round's spans
are written to ``bench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the library is single-threaded, and idle BLAS threads only
# add scheduling noise on a small machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
#: Round times are rescaled to the pace at which ``pace()`` takes this long
#: (its 10th percentile over 200 calls on a 2-core 2.1 GHz Xeon VM).
PACE_NOMINAL_S = 0.045


class Ops:
    """Runs library calls as counted operations; a call that raises is a
    failed operation and its output is None."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the benchmark's operation boundary: count and go on
            self.failed += 1
            traceback.print_exc()
            return None


def same(a, b) -> bool:
    """Bitwise equality of nested round outputs."""
    import numpy as np

    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


_PACE_BUFFERS: list = []


def pace() -> float:
    """Time of a fixed kernel that does not touch the library: a Python
    integer loop, Gaussian CDFs over 20k points and 2 MB array copies, the
    three kinds of work the library's rounds mix.  Its time tracks the
    machine's momentary speed, which on a small shared VM swings by tens of
    percent over tens of seconds as neighbours load the cores and caches."""
    import numpy as np
    from scipy.special import ndtr

    if not _PACE_BUFFERS:
        _PACE_BUFFERS.extend([np.linspace(-4.0, 4.0, 20_000), np.ones(1 << 18), np.empty(1 << 18)])
    x, src, dst = _PACE_BUFFERS
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    for _ in range(50):
        ndtr(x)
    for _ in range(80):
        np.copyto(dst, src)
    return time.perf_counter() - start


def timed_round(wl, ops) -> tuple[dict, float]:
    gc.collect()
    start = time.perf_counter()
    out = wl.run(ops)
    return out, time.perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfhjb" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    start = time.perf_counter()
    import workloads  # imports numpy, scipy and every mfhjb module it calls

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed)
        build_s.append(time.perf_counter() - start)

    ops = Ops()
    first, _ = timed_round(wl, ops)  # warm-up: caches fill, lazy set-up runs
    expect = wl.reference()
    problems = wl.check(first, expect)

    tracer = None
    if args.trace:
        from tracing import Tracer, round_metrics

        tracer = Tracer()
    plain_s, traced_s, layer_rounds = [], [], []
    paces = [pace() for _ in range(2)]
    begin = time.perf_counter()
    least = 2 if tracer else 1  # a traced run needs one round of each kind
    while len(plain_s) + len(traced_s) < least or time.perf_counter() - begin < args.seconds:
        traced = tracer is not None and len(plain_s) > len(traced_s)
        if traced:
            tracer.install()
            tracer.reset_counters()
            first_span = len(tracer.spans)
            root = tracer.open("round")
            try:
                out, dt = timed_round(wl, ops)
            finally:
                tracer.close(root)
                tracer.uninstall()
            traced_s.append(dt)
            layer_rounds.append(round_metrics(tracer, first_span))
            if first_span:  # rounds repeat the same calls; keep the first one's spans
                del tracer.spans[first_span:]
        else:
            out, dt = timed_round(wl, ops)
            plain_s.append(dt)
        paces += [pace() for _ in range(2)]
        problems += wl.check(out, expect)
        if not same(out, first):
            problems.append("determinism: a round's outputs differ from the first round's")

    # the machine's speed drifts by tens of percent over a run's length; the
    # run's median pace rescales its timings to the nominal pace
    scale = PACE_NOMINAL_S / statistics.median(paces)
    if tracer is None:
        metrics = {
            "wall_s": metric(statistics.median(plain_s) * scale, "s"),
            "setup_s": metric((import_s + statistics.median(build_s)) * scale, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics, varied = layer_summary(layer_rounds)
        problems += [f"trace: exact count {name} differs between rounds" for name in varied]
        overhead = statistics.median(traced_s) - statistics.median(plain_s)
        metrics["trace.overhead_s"] = metric(overhead, "s")
        write_spans(tracer, args.workload, args.seed)

    for line in problems:
        print("CHECK FAILED", line, file=sys.stderr)
    rounds = len(plain_s) + len(traced_s) + 1
    print(f"{args.workload} seed {args.seed}: {rounds} rounds; untraced round times (s) "
          + " ".join(f"{t:.3f}" for t in plain_s)
          + f"; median pace {statistics.median(paces):.4f} s (nominal {PACE_NOMINAL_S} s)")
    print(json.dumps({
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


def layer_summary(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Medians of self times and varying counters; exact counts from the
    first traced round, with the names of any that changed between rounds."""
    from tracing import LAYER_METRICS, VARYING

    out, varied = {}, []
    for name in rounds[0]:
        unit = LAYER_METRICS[name][0]
        values = [r[name] for r in rounds]
        if name.endswith(".self_s") or name in VARYING:
            value = statistics.median(values)
        elif unit in ("1", "MB"):
            value = max(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                varied.append(name)
        out[name] = metric(value, unit)
    return out, varied


def write_spans(tracer, workload: str, seed: int) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-{seed}.csv", "w") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for k, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{k},{name},{start:.9f},{end:.9f},{parent}\n")


if __name__ == "__main__":
    sys.exit(main())
