"""The benchmark's four workloads.

Each workload builds its inputs from the seed (set-up), runs one round of
library calls through ``ops`` (each call is one operation), and checks a
round's outputs against values from ``reference`` or against properties the
method must have.  A round repeats the same calls on the same inputs, so
every round's outputs must also equal the first round's bit for bit.

Monte Carlo noise keys are fixed, as in acceptance criteria c12 and c13,
while the seed draws the initial clouds: the 3-sigma checks then have one
outcome for every seed instead of failing on a share of noise seeds.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from mfhjb import control, measures, mollify, scenarios, sliced_gauge, variational
from mfhjb.dynamics import SimConfig

LQ_P = np.array([1.0, -0.5])
GAUSSIAN_HALF = {"kind": "gaussian", "std": 0.5}


def _lq():
    # built with its validation probes, which are part of set-up
    return scenarios.scenario("lq_drift", {"d": 2, "p": LQ_P.tolist()})


class GaugeDense:
    """Sliced gauge on dense (directions x levels x points) quantile tables."""

    SIGMA = 0.5
    DIRECTIONS = 32
    DENSE_N = 14  # particles of the pair whose derivatives are taken everywhere
    NODES = 64  # Gauss-Hermite nodes of those derivatives
    SW2_N = 128
    SW2_LEVELS = 64
    REF_PARTICLES = (0, 1)  # where dmu_gauge is recomputed by the reference
    EXACT_TOL = 1e-9  # closed forms and the reference agree to ~1e-13

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        pe = measures.ParticleEnsemble
        self.quad = sliced_gauge.SphereQuadrature.equispaced_circle(self.DIRECTIONS)
        # the c02 pinning pair, at a smaller size
        self.mu_pin = pe(rng.standard_normal((6, 2)))
        self.nu_pin = pe(1.2 * rng.standard_normal((5, 2)) + 0.3)
        self.mu = pe(rng.standard_normal((self.DENSE_N, 2)))
        self.nu = pe(1.2 * rng.standard_normal((self.DENSE_N, 2)) + 0.3)
        self.c = rng.uniform(0.2, 0.6, 2) * rng.choice([-1.0, 1.0], 2)
        self.mu_t = pe(rng.standard_normal((8, 2)))
        self.nu_t = measures.translate(self.mu_t, self.c)
        self.mu_s = pe(rng.standard_normal((self.SW2_N, 2)))
        self.nu_s = measures.translate(self.mu_s, self.c)

    def run(self, ops) -> dict:
        sg, s, q, k = sliced_gauge, self.SIGMA, self.quad, self.NODES
        return {
            "pin": ops(sg.pin_gauge_square_factor, self.mu_pin, self.nu_pin, s, q, 1e-4, 256, 256),
            "dmu": ops(sg.dmu_gauge, self.mu, self.nu, s, q, self.mu.points, k),
            "dxdmu": ops(sg.dxdmu_gauge, self.mu, self.nu, s, q, self.mu.points, k),
            "dmu_t": ops(sg.dmu_gauge, self.mu_t, self.nu_t, s, q, self.mu_t.points, k),
            "dxdmu_t": ops(sg.dxdmu_gauge, self.mu_t, self.nu_t, s, q, self.mu_t.points, k),
            "sw2": ops(sg.sw2, self.mu_s, self.nu_s, s, q, self.SW2_LEVELS),
        }

    def reference(self) -> dict:
        dirs, w = ref.circle_directions(self.DIRECTIONS)
        dmu = {
            i: ref.dmu_gauge_at(self.mu.points, self.nu.points, self.SIGMA, dirs, w,
                                self.mu.points[i], self.NODES)
            for i in self.REF_PARTICLES
        }
        return {"dmu": dmu, "sw2": ref.translation_sw2(self.c), "dmu_t": ref.translation_dmu(self.c)}

    def check(self, out: dict, expect: dict) -> list[str]:
        bad = []
        if out["pin"] is not None and out["pin"]["factor"] != 0.5:
            bad.append(f"pin: factor {out['pin']['factor']} is not 1/2")
        if out["dxdmu"] is not None:
            h = out["dxdmu"]
            if np.abs(h - h.transpose(0, 2, 1)).max() > 1e-12 * max(1.0, np.abs(h).max()):
                bad.append("dxdmu: not symmetric")
        if out["dmu"] is not None:
            for i, r in expect["dmu"].items():
                err = float(np.abs(out["dmu"][i] - r).max())
                if err > self.EXACT_TOL:
                    bad.append(f"dmu: particle {i} differs from the reference by {err:.2e}")
        if out["dmu_t"] is not None:
            err = float(np.abs(out["dmu_t"] - expect["dmu_t"]).max())
            if err > self.EXACT_TOL:
                bad.append(f"dmu_t: differs from -c/d by {err:.2e}")
        if out["dxdmu_t"] is not None:
            err = float(np.abs(out["dxdmu_t"]).max())
            if err > self.EXACT_TOL:
                bad.append(f"dxdmu_t: translated pair gives {err:.2e}, not 0")
        if out["sw2"] is not None:
            err = abs(out["sw2"] - expect["sw2"])
            if err > self.EXACT_TOL:
                bad.append(f"sw2: differs from |c|/sqrt(d) by {err:.2e}")
        return bad


class CandidateSets:
    """The smooth variational principle over c05-style random candidate sets:
    one set of each size 2..50 (in seeded order), 2-5 particles each, d = 1."""

    M_POINTS = 48
    SIZES = range(2, 51)
    REVERIFY_SIZES = (5, 15, 25, 35, 45)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.quad = sliced_gauge.SphereQuadrature.two_point_1d()
        self.sets = []
        for k, size in enumerate(rng.permutation(np.array(self.SIZES))):
            times = rng.uniform(0.0, 1.0, size)
            clouds = tuple(
                measures.ParticleEnsemble(rng.standard_normal((2 + j % 4, 1))) for j in range(size)
            )
            g = rng.uniform(0.0, 1.0, size)
            self.sets.append(variational.CandidateSet(
                times, clouds, g, lam=(0.1, 0.5, 1.0)[k % 3],
                delta=float(rng.uniform(0.1, 0.6)), start=int(np.argmax(g)),
            ))

    def run(self, ops) -> dict:
        out = []
        for cands in self.sets:
            r = ops(variational.borwein_preiss, cands, self.quad, m_points=self.M_POINTS)
            out.append(None if r is None else {
                "tilde": r.tilde_index,
                "anchors": r.anchor_indices,
                "k_max": r.anchors.k_max,
                "certificate": r.certificate,
            })
        return {"results": out}

    def reference(self) -> dict:
        rho = {}
        for k, cands in enumerate(self.sets):
            if cands.size in self.REVERIFY_SIZES:
                clouds = [e.points for e in cands.ensembles]
                rho[k] = ref.rho_matrix_1d(cands.times, clouds, 1.0 / cands.delta, self.M_POINTS)
        return {"rho": rho}

    def check(self, out: dict, expect: dict) -> list[str]:
        bad = []
        for k, r in enumerate(out["results"]):
            if r is None:
                continue
            cert = r["certificate"]
            if not (cert["complete"] and cert["item1_ok"] and cert["item2_ok"] and cert["item3_ok"]):
                bad.append(f"certificate: set {k} is incomplete or fails an item")
            if k in expect["rho"]:
                cands = self.sets[k]
                tilde = r["tilde"]
                padded = list(r["anchors"]) + [tilde] * (r["k_max"] + 1 - len(r["anchors"]))
                phi = expect["rho"][k][:, padded] @ 0.5 ** np.arange(len(padded))
                score = cands.g_values - cands.delta**2 * phi
                if np.delete(score, tilde).max() >= score[tilde]:
                    bad.append(f"reverify: set {k} selection is not the strict maximiser")
        return bad


class McPaths:
    """Monte Carlo on lq_drift: the c12 closed-form value (large n, few long
    simulations), joint permutation invariance of cost_j, and the c13 DPP
    residual (small n, many short nested simulations)."""

    N, STEPS, PATHS = 2048, 50, 8
    N_DPP, DPP_STEPS, DPP_OUTER, DPP_INNER = 192, 24, 8, 4
    VALUE_NOISE_SEED, DPP_NOISE_SEED = 1212, 1313

    def __init__(self, seed: int):
        self.lq = _lq()
        self.init = measures.sample_iid(GAUSSIAN_HALF, self.N, 2, seed=seed)
        self.perm = np.random.default_rng(seed).permutation(self.N)
        self.init_perm = measures.ParticleEnsemble(self.init.points[self.perm])
        self.init_dpp = measures.sample_iid(GAUSSIAN_HALF, self.N_DPP, 2, seed=seed + 1)
        self.cfg = SimConfig(n=self.N, steps=self.STEPS, t0=0.0, t1=1.0, seed=self.VALUE_NOISE_SEED)
        self.sign_policy = control.StepControl.constant(0.0, np.sign(LQ_P))
        self.searches = (control.SearchSpec(), control.SearchSpec(actions=(np.array([0.6, -0.2]),)))

    def run(self, ops) -> dict:
        v = ops(control.value_estimate, self.lq, self.init, self.cfg, control.SearchSpec(), self.PATHS)
        perm = ops(control.cost_j, self.lq, self.init_perm, self.sign_policy, self.cfg,
                   paths=self.PATHS, noise_ids=self.perm)
        dpp = [
            ops(control.dpp_residual, self.lq, self.init_dpp, 0.0, 0.5, 1.0, search,
                n_steps=self.DPP_STEPS, paths_outer=self.DPP_OUTER,
                paths_inner=self.DPP_INNER, seed=self.DPP_NOISE_SEED)
            for search in self.searches
        ]
        return {
            "value": None if v is None else {
                "value": v["value"], "stderr": v["stderr"], "action": v["best_policy"].actions[0],
            },
            "permuted": None if perm is None else perm["mean"],
            "dpp": [None if d is None else {"gap": d["gap"], "stderr": d["stderr"]} for d in dpp],
        }

    def reference(self) -> dict:
        return {"value": ref.lq_value(self.init.points.mean(axis=0), LQ_P, 0.0, 1.0)}

    def check(self, out: dict, expect: dict) -> list[str]:
        bad = []
        v = out["value"]
        if v is not None:
            tol = 3.0 * v["stderr"] + 0.05 * np.abs(LQ_P).sum()
            if not abs(v["value"] - expect["value"]) <= tol:
                bad.append(f"value: |{v['value']:.4f} - {expect['value']:.4f}| > {tol:.4f}")
            if not np.array_equal(v["action"], np.sign(LQ_P)):
                bad.append(f"value: best action {v['action']} is not sign(p)")
            if out["permuted"] is not None and out["permuted"] != v["value"]:
                bad.append("permutation: cost_j changed under a joint permutation")
        for k, d in enumerate(out["dpp"]):
            if d is not None and not abs(d["gap"]) <= 3.0 * d["stderr"]:
                bad.append(f"dpp: search {k} gap {d['gap']:.4f} > 3 x {d['stderr']:.4f}")
        return bad


class MollifiedValue:
    """value_fd_approx on mollified lq_drift coefficients, inside the linear
    region, at eps = 0 and eps > 0."""

    N, M, OFFSETS, STEPS, PATHS, RESAMPLES = 48, 8, 32, 16, 4, 2
    EPS = (0.0, 0.3)
    NOISE_SEED = 1010

    def __init__(self, seed: int):
        self.seed = seed  # value_fd_approx draws clouds and offsets from it
        self.lq = _lq()
        self.cfg = SimConfig(n=self.N, steps=self.STEPS, t0=0.0, t1=1.0, seed=self.NOISE_SEED)
        rng = np.random.default_rng(seed)
        spec = mollify.MollifierSpec(m=self.M, offsets=self.OFFSETS, seed=seed + 7)
        self.mol = mollify.MollifiedCoefficients(self.lq, spec, self.N, horizon=1.0)
        self.x = 0.5 * rng.standard_normal((self.N, 2))
        self.a = np.broadcast_to(rng.uniform(-1.0, 1.0, 2), (self.N, 2))

    def run(self, ops) -> dict:
        values = [
            ops(control.value_fd_approx, self.lq, GAUSSIAN_HALF, 0.0, eps, self.N, self.M,
                self.cfg, control.SearchSpec(), paths=self.PATHS, resamples=self.RESAMPLES,
                offsets=self.OFFSETS, seed=self.seed)
            for eps in self.EPS
        ]
        return {
            "values": [None if v is None else {"value": v["value"], "stderr": v["stderr"]} for v in values],
            "drift": ops(self.mol.drift, 0.3, self.x, None, self.a),
        }

    def reference(self) -> dict:
        means = [ref.gaussian_cloud_mean(self.seed + 1000 * r, self.N, 2, 0.5)
                 for r in range(self.RESAMPLES)]
        closed = float(np.mean([ref.lq_value(m, LQ_P, 0.0, 1.0) for m in means]))
        return {"value": closed, "bias": self.lq.K / self.M}

    def check(self, out: dict, expect: dict) -> list[str]:
        bad = []
        for eps, v in zip(self.EPS, out["values"]):
            if v is None:
                continue
            tol = 3.0 * v["stderr"] + 0.05 * np.abs(LQ_P).sum() + expect["bias"]
            if not abs(v["value"] - expect["value"]) <= tol:
                bad.append(f"value: eps {eps} gives {v['value']:.4f}, closed form {expect['value']:.4f} +- {tol:.4f}")
        if out["drift"] is not None and not np.array_equal(out["drift"], self.a):
            bad.append("drift: mollified lq drift is not exactly the action")
        return bad


WORKLOADS = {
    "gauge_dense": GaugeDense,
    "candidate_sets": CandidateSets,
    "mc_paths": McPaths,
    "mollified_value": MollifiedValue,
}
