"""Acceptance gate: one test per go/no-go criterion, each at its stated
tolerance, printing a single PASS line (run with -s to see them inline)."""

import itertools
import math
import time

import numpy as np
from conftest import LINEAR, MEAN_SQUARE, SECOND_MOMENT

from mfhjb.control import (
    ActionSpace,
    CoefficientSet,
    SearchSpec,
    StepControl,
    dpp_residual,
    hjb_residual,
    value_estimate,
)
from mfhjb.dynamics import SimConfig, ito_expectation_check, moment_checks
from mfhjb.measures import ParticleEnsemble, sample_iid, translate
from mfhjb.mollify import MollifierSpec, mollified, mollify_rate_sweep
from mfhjb.scenarios import _lq_minus, lq_test_function, lq_true_value, scenario
from mfhjb.sliced_gauge import (
    GAUGE_SQUARE_FACTOR,
    GaugeAnchors,
    SphereQuadrature,
    dmu_gauge,
    dxdmu_gauge,
    gauge_g,
    h_gauge,
    phi_delta_derivative_bounds,
    pin_gauge_square_factor,
)
from mfhjb.transport1d import w1_empirical_gaussian, w2_discrete
from mfhjb.variational import CandidateSet, borwein_preiss


def _verdict(num: int, label: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_c01_transport_oracle_exact():
    start = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        b = rng.standard_normal(n) + rng.uniform(-1, 1)
        perms = np.array(list(itertools.permutations(b)))
        costs = ((a[None, :] - perms) ** 2).sum(axis=1)
        best = perms[int(np.argmin(costs))]
        exact_min = math.fsum((x - y) ** 2 for x, y in zip(a, best))
        sorted_cost = math.fsum(
            (x - y) ** 2 for x, y in zip(np.sort(a), np.sort(b))
        )
        assert sorted_cost == exact_min
        assert w2_discrete(a, b) == math.sqrt(exact_min / n)
        checked += 1
    _verdict(1, "1d transport oracle", checked == 100, time.time() - start, 5.0,
             f"{checked}/100 sorted couplings equal the n! brute-force minimum exactly")


def _pinning_setup():
    rng = np.random.default_rng(202)
    mu = ParticleEnsemble(rng.standard_normal((16, 2)))
    nu = ParticleEnsemble(rng.standard_normal((12, 2)) * 1.2 + 0.3)
    quad = SphereQuadrature.equispaced_circle(128)
    return mu, nu, quad


def test_c02_gradient_pinning():
    start = time.time()
    mu, nu, quad = _pinning_setup()
    res = pin_gauge_square_factor(mu, nu, 0.5, quad, h=1e-4, m_points=256)
    err = res["errors"][res["factor"]]
    ok = res["factor"] == GAUGE_SQUARE_FACTOR and err <= 1e-3
    _verdict(2, "gradient pinning", ok, time.time() - start, 30.0,
             f"pinned factor {res['factor']} (recorded {GAUGE_SQUARE_FACTOR}), fd rel err {err:.2e} <= 1e-3")


def test_c03_mixed_derivative():
    start = time.time()
    mu, nu, quad = _pinning_setup()
    h = 1e-4
    worst = 0.0
    for x in (np.array([0.3, -0.2]), np.array([0.0, 0.0]), mu.points[3]):
        analytic = dxdmu_gauge(mu, nu, 0.5, quad, x)
        fd = np.zeros((2, 2))
        for l in range(2):
            e = np.zeros(2)
            e[l] = h
            fd[:, l] = (
                dmu_gauge(mu, nu, 0.5, quad, x + e) - dmu_gauge(mu, nu, 0.5, quad, x - e)
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - analytic) / np.linalg.norm(analytic))
    _verdict(3, "mixed derivative", worst <= 1e-3, time.time() - start, 60.0,
             f"max fd rel err {worst:.2e} <= 1e-3 over 3 probes")


def test_c04_h_identity():
    start = time.time()
    quad = SphereQuadrature.equispaced_circle(128)
    gap = float(np.abs(h_gauge(2, quad) - 0.5 * np.eye(2)).max())
    rng = np.random.default_rng(404)
    mu = ParticleEnsemble(rng.standard_normal((6, 2)))
    nu = ParticleEnsemble(rng.standard_normal((5, 2)) + 0.4)
    h = 1e-3
    worst = 0.0
    hmat = h_gauge(2, quad)
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        fp = gauge_g(translate(mu, e), nu, 0.5, quad, 128)
        f0 = gauge_g(mu, nu, 0.5, quad, 128)
        fm = gauge_g(translate(mu, -e), nu, 0.5, quad, 128)
        second = (fp - 2 * f0 + fm) / h**2
        worst = max(worst, abs(second - hmat[l, l]) / abs(hmat[l, l]))
    ok = gap <= 1e-14 and worst <= 1e-2
    _verdict(4, "translation Hessian identity", ok, time.time() - start, 30.0,
             f"|H - I/2| = {gap:.1e} <= 1e-14, second-difference rel err {worst:.2e} <= 1e-2")


def test_c05_variational_certificates():
    start = time.time()
    quad = SphereQuadrature.two_point_1d()
    passed = moved = 0
    total = 200
    lam_choices = (0.1, 0.5, 1.0)
    for k in range(total):
        rng = np.random.default_rng(5000 + k)
        size = int(rng.integers(2, 51))
        times = rng.uniform(0, 1, size)
        ensembles = tuple(
            ParticleEnsemble(rng.standard_normal((int(rng.integers(2, 6)), 1)))
            for _ in range(size)
        )
        g_values = rng.uniform(0, 1, size)
        lam = lam_choices[k % 3]
        # the lowest-scoring admissible start (G >= sup G - lambda), first on ties
        cands = CandidateSet(
            times, ensembles, g_values,
            lam=lam, delta=float(rng.uniform(0.1, 0.6)),
            start=int(np.where(g_values >= g_values.max() - lam, g_values, np.inf).argmin()),
        )
        res = borwein_preiss(cands, quad, m_points=48)
        cert = res.certificate
        if cert["complete"] and cert["item1_ok"] and cert["item2_ok"] and cert["item3_ok"]:
            passed += 1
        moved += res.tilde_index != cands.start
    _verdict(5, "variational certificates", passed == total and moved > 0, time.time() - start, 60.0,
             f"{passed}/{total} randomized candidate sets verified exhaustively, "
             f"{moved} left their start")


def test_c06_phi_delta_derivative_bounds():
    start = time.time()
    rng = np.random.default_rng(606)
    quad = SphereQuadrature.equispaced_circle(24)
    all_ok = True
    for _ in range(20):
        n_anchor = int(rng.integers(1, 5))
        anchor_list = []
        for _ in range(n_anchor):
            nk = int(rng.integers(2, 7))
            pts = rng.standard_normal((nk, 2)) * rng.uniform(0.3, 1.5) + rng.standard_normal(2)
            anchor_list.append((float(rng.uniform(0, 1)), ParticleEnsemble(pts)))
        anchors = GaugeAnchors(tuple(anchor_list), float(rng.uniform(0.2, 1.0)), quad, m_points=64)
        mu = ParticleEnsemble(rng.standard_normal((4, 2)))
        rec = phi_delta_derivative_bounds(
            anchors, float(rng.uniform(0, 1)), mu, horizon=1.0, noise_nodes=96,
        )
        all_ok = all_ok and rec["all_ok"]
    _verdict(6, "gauge series derivative bounds", all_ok, time.time() - start, 60.0,
             "all four bounds hold on 20 random anchor configurations with the calibrated constant")


def _ito_fixture():
    d = 2
    space = ActionSpace(-np.ones(d), np.ones(d))
    eye = np.eye(d)
    zero_mat = np.zeros((d, d))

    def make(b_const=None, sig=None, sig0=None):
        bc = np.zeros(d) if b_const is None else np.asarray(b_const, dtype=float)
        s = zero_mat if sig is None else sig
        s0 = zero_mat if sig0 is None else sig0
        return CoefficientSet(
            drift=lambda t, x, cloud, a: np.broadcast_to(bc, x.shape).astype(float),
            diffusion=lambda t, x, a: s, common_diffusion=lambda t: s0,
            running_cost=lambda t, x, cloud, a: np.zeros(x.shape[:-1]),
            terminal_cost=lambda x, cloud: np.zeros(x.shape[:-1]),
            K=2.0, beta=1.0, action_space=space, d=d,
        )

    cases = [
        ("linear/drift", make(b_const=[0.5, 0.3]), LINEAR),
        ("second-moment/idio", make(sig=eye), SECOND_MOMENT),
        ("mean-square/common", make(sig0=eye), MEAN_SQUARE),
    ]
    return cases


def test_c07_ito_expectation():
    start = time.time()
    cases = _ito_fixture()
    init = sample_iid({"kind": "point_mass", "center": [0.0, 0.0]}, 10_000, 2, seed=0)
    cfg = SimConfig(n=10_000, steps=100, t0=0.0, t1=1.0, seed=707)
    policy = StepControl.constant(0.0, np.zeros(2))
    details = []
    ok = True
    for name, coeffs, tf in cases:
        rec = ito_expectation_check(coeffs, init, tf, cfg, policy, paths=64)
        tol = 3.0 * rec["stderr"] + 2.0 * cfg.dt
        ok = ok and abs(rec["gap"]) <= tol
        details.append(f"{name}: |gap| {abs(rec['gap']):.2e} <= {tol:.2e}")
    _verdict(7, "chain-rule expectation check", ok, time.time() - start, 120.0, "; ".join(details))


def test_c08_moment_bounds():
    start = time.time()
    d = 2
    space = ActionSpace(-np.ones(d), np.ones(d))
    coeffs = CoefficientSet(
        drift=lambda t, x, cloud, a: np.zeros_like(x),
        diffusion=lambda t, x, a: np.eye(d),
        common_diffusion=lambda t: np.zeros((d, d)),
        running_cost=lambda t, x, cloud, a: np.zeros(x.shape[:-1]),
        terminal_cost=lambda x, cloud: np.zeros(x.shape[:-1]),
        K=2.0, beta=1.0, action_space=space, d=d,
    )
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 4096, d, seed=1)
    policy = StepControl.constant(0.0, np.zeros(d))
    growth, lip, holder = [], [], []
    for h in (0.1, 0.05, 0.025):
        cfg = SimConfig(n=4096, steps=40, t0=0.0, t1=h, seed=808)
        rec = moment_checks(coeffs, init, policy, cfg, shift=np.array([0.2, 0.0]),
                            h_fractions=(1.0,))
        growth.append(rec["c_growth"])
        lip.append(rec["c_lip"])
        holder.extend(rec["c_holder"].values())
    stable = max(holder) / min(holder) < 2.0
    bounded = max(holder) <= 4.0 * d * 1.5
    finite = all(np.isfinite(v) for v in growth + lip + holder)
    ok = stable and bounded and finite
    _verdict(8, "moment bounds", ok, time.time() - start, 60.0,
             f"sup-displacement/h in [{min(holder):.2f}, {max(holder):.2f}] "
             f"(single constant <= {4.0 * d * 1.5:.0f}), growth/lipschitz finite and stable")


def test_c09_mollifier_suite():
    start = time.time()
    rng = np.random.default_rng(909)
    ms = (2, 4, 8, 16, 32)

    bt = scenario("bounded_trig", {"d": 1})
    spec = MollifierSpec(m=4, offsets=2048, seed=9)
    bound_ok = True
    for _ in range(10):
        xbar = rng.standard_normal((4, 1)) * 2.0
        t = float(rng.uniform(0, 1))
        vb = mollified("drift", bt, spec, t, xbar, np.zeros(1))[0][0]
        vg = mollified("terminal_cost", bt, spec, 0.0, xbar)[0][0]
        bound_ok = bound_ok and np.linalg.norm(vb) <= bt.K + 1e-12 and abs(vg) <= bt.K + 1e-12

    time_sc = scenario("bounded_trig", {"d": 1, "time_amp": 1.0, "space_amp": 0.0})
    probes_t = [(t, rng.standard_normal((4, 1)) * 0.5, np.zeros(1)) for t in (0.45, 0.5, 0.55)]
    tab_t = mollify_rate_sweep(time_sc, ms, probes_t, {"offsets": 2048, "seed": 10})
    slope_t = float(np.polyfit(np.log(ms), np.log([tab_t["b"][m] for m in ms]), 1)[0])

    space_sc = scenario("bounded_trig", {"d": 1, "time_amp": 0.0, "space_amp": 1.0})
    probes_s = [(0.2, np.array([[1.0], [0.5], [-1.0], [0.3]]), np.zeros(1))]
    tab_s = mollify_rate_sweep(space_sc, ms, probes_s, {"offsets": 2048, "seed": 11})
    slope_s = float(np.polyfit(np.log(ms), np.log([tab_s["g"][m] for m in ms]), 1)[0])

    lip_ok = True
    spec_l = MollifierSpec(m=4, offsets=2048, seed=12)
    for _ in range(100):
        xbar = rng.standard_normal((4, 1))
        dx = rng.standard_normal((4, 1)) * 0.3
        g1, e1 = (v[0] for v in mollified("terminal_cost", bt, spec_l, 0.0, xbar))
        g2, e2 = (v[0] for v in mollified("terminal_cost", bt, spec_l, 0.0, xbar + dx))
        allowance = bt.K * (np.linalg.norm(dx[0]) + np.mean(np.linalg.norm(dx, axis=1)))
        lip_ok = lip_ok and abs(g1 - g2) <= allowance + 3 * (e1 + e2) + 1e-12

    ok = bound_ok and (-0.7 <= slope_t <= -0.3) and (-1.25 <= slope_s <= -0.75) and lip_ok
    _verdict(9, "mollifier suite", ok, time.time() - start, 120.0,
             f"bound exact, time slope {slope_t:.3f} in -0.5+-0.2, "
             f"space slope {slope_s:.3f} in -1+-0.25, lipschitz transfer 100/100")


def test_c10_eps_linearity():
    start = time.time()
    from mfhjb.cli import _eps_sweep_data

    eps_list, vals = _eps_sweep_data({}, seed=5)
    v0 = vals[0.0]
    x = np.array(eps_list[1:])
    y = np.array([abs(vals[e] - v0) for e in eps_list[1:]])
    beta = float((x @ y) / (x @ x))
    r2 = float(1 - np.sum((y - beta * x) ** 2) / np.sum((y - y.mean()) ** 2))
    _verdict(10, "eps-perturbation linearity", r2 >= 0.9, time.time() - start, 300.0,
             f"|v_eps - v_0| line through origin R^2 = {r2:.4f} >= 0.9 over eps in {x.tolist()}")


def test_c11_empirical_measure_rate():
    start = time.time()
    rng = np.random.default_rng(111)
    ns = [32, 64, 128, 256, 512, 1024, 2048, 4096]
    means = []
    for n in ns:
        reps = 60 if n <= 1024 else 30
        means.append(float(np.mean([w1_empirical_gaussian(rng.standard_normal(n)) for _ in range(reps)])))
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    _verdict(11, "empirical-measure rate", -0.62 <= slope <= -0.38, time.time() - start, 120.0,
             f"d=1 gaussian W1 slope {slope:.3f} in [-0.62, -0.38]")


def test_c12_lq_closed_form():
    start = time.time()
    p = [1.0, -0.5]
    lq = scenario("lq_drift", {"d": 2, "p": p})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 2048, 2, seed=2)
    cfg = SimConfig(n=2048, steps=50, t0=0.0, t1=1.0, seed=1212)
    rec = value_estimate(lq, init, cfg, SearchSpec(), paths=64)
    true = lq_true_value(init.mean(), p, 0.0, 1.0)
    tol = 3.0 * rec["stderr"] + 0.05 * float(np.abs(p).sum())
    vertex_ok = np.array_equal(rec["best_policy"].actions[0], np.sign(p))
    ok = abs(rec["value"] - true) <= tol and vertex_ok
    _verdict(12, "closed-form linear-drift value", ok, time.time() - start, 180.0,
             f"|value - closed form| = {abs(rec['value'] - true):.4f} <= {tol:.4f}, "
             f"optimizer returned the sign vertex")


def test_c13_dpp_residual():
    start = time.time()
    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 192, 2, seed=3)
    kw = dict(t=0.0, s_mid=0.5, t1=1.0, n_steps=24, paths_outer=24, paths_inner=16, seed=1313)
    rec_lq = dpp_residual(lq, init, search=SearchSpec(), **kw)
    rec_single = dpp_residual(lq, init, search=SearchSpec(actions=(np.array([0.6, -0.2]),)), **kw)
    ok = (
        abs(rec_lq["gap"]) <= 3 * rec_lq["stderr"]
        and abs(rec_single["gap"]) <= 3 * rec_single["stderr"]
    )
    _verdict(13, "dynamic programming residual", ok, time.time() - start, 300.0,
             f"lq |gap| {abs(rec_lq['gap']):.4f} <= {3 * rec_lq['stderr']:.4f}; "
             f"single-action |gap| {abs(rec_single['gap']):.4f} <= {3 * rec_single['stderr']:.4f}")


def test_c14_hjb_residual():
    start = time.time()
    p = np.array([1.0, -0.5])
    lq = scenario("lq_drift", {"d": 2, "p": p.tolist()})
    tf = lq_test_function(p, 1.0)
    bumped = _lq_minus(p, 1.0, 0.5, 0.0)
    rng = np.random.default_rng(141)
    worst = 0.0
    detected = 0
    for _ in range(20):
        t = float(rng.uniform(0, 0.9))
        mu = ParticleEnsemble(rng.standard_normal((8, 2)) * 0.5)
        worst = max(worst, abs(hjb_residual(lq, tf, t, mu)))
        if hjb_residual(lq, bumped, t, mu) < -1e-6:
            detected += 1
    ok = worst <= 1e-12 and detected == 20
    _verdict(14, "HJB residual", ok, time.time() - start, 60.0,
             f"closed-form residual worst {worst:.1e} <= 1e-12; negative control detected {detected}/20")
