"""Show that every benchmark check rejects a deliberately wrong output.

    python3 bench/selftest.py [--seed N]

Runs one round of each workload, confirms its checks pass, then corrupts one
output at a time (a perturbed dmu_gauge, a shifted value, a wrong selection,
...) and confirms the matching check fails.  Exits 1 if any corruption goes
unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import sys

import run  # sets the BLAS thread count before numpy is imported


def _gauge(out, wl, expect):
    def pin(o):
        o["pin"]["factor"] = 1.0

    def dmu(o):
        o["dmu"][wl.REF_PARTICLES[0], 0] += 1e-4

    def dxdmu(o):
        o["dxdmu"][0, 0, 1] += 1e-6

    def dmu_t(o):
        o["dmu_t"][-1, 1] += 1e-6

    def dxdmu_t(o):
        o["dxdmu_t"][0, 1, 1] += 1e-6

    def sw2(o):
        o["sw2"] += 1e-6

    return {"pin": pin, "dmu:": dmu, "dxdmu:": dxdmu, "dmu_t": dmu_t, "dxdmu_t": dxdmu_t, "sw2": sw2}


def _candidates(out, wl, expect):
    import numpy as np

    k = next(iter(expect["rho"]))  # a set the reference re-verifies

    def certificate(o):
        o["results"][0]["certificate"]["item3_ok"] = False

    def reverify(o):
        r = o["results"][k]
        r["tilde"] = int(np.argmin(wl.sets[k].g_values))  # the worst candidate

    return {"certificate": certificate, "reverify": reverify}


def _mc(out, wl, expect):
    import numpy as np

    def value(o):
        o["value"]["value"] += 1.0

    def action(o):
        o["value"]["action"] = -o["value"]["action"]

    def permutation(o):
        o["permuted"] = float(np.nextafter(o["permuted"], np.inf))

    def dpp(o):
        o["dpp"][1]["gap"] = 10.0 * o["dpp"][1]["stderr"]

    return {"value: |": value, "value: best": action, "permutation": permutation, "dpp": dpp}


def _mollified(out, wl, expect):
    import numpy as np

    def value(o):
        o["values"][1]["value"] += wl.lq.K / wl.M + 1.0

    def drift(o):
        o["drift"] = np.nextafter(o["drift"], np.inf)

    return {"value": value, "drift": drift}


CORRUPTIONS = {
    "gauge_dense": _gauge,
    "candidate_sets": _candidates,
    "mc_paths": _mc,
    "mollified_value": _mollified,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads

    missed = 0
    for name, corruptions in CORRUPTIONS.items():
        wl = workloads.WORKLOADS[name](args.seed)
        ops = run.Ops()
        out = wl.run(ops)
        expect = wl.reference()
        clean = wl.check(out, expect)
        if ops.failed or clean:
            print(f"{name}: the unmodified round does not pass: {clean}")
            missed += 1
        for prefix, corrupt in corruptions(out, wl, expect).items():
            bad = copy.deepcopy(out)
            corrupt(bad)
            found = [line for line in wl.check(bad, expect) if line.startswith(prefix)]
            caught = bool(found) and not run.same(bad, out)
            print(f"{name}: corrupted {prefix!r:16} {'caught' if caught else 'MISSED'}"
                  + (f" ({found[0]})" if found else ""))
            missed += not caught
    print("selftest", "failed" if missed else "passed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
