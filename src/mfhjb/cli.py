"""Batch experiment runner.

Each subcommand runs one verification suite with a JSON config, writes
machine-readable results to the output directory, and exits 0 only if every
asserted tolerance passed.  Malformed configs exit 1; tolerance failures exit
3.  Result files are byte-identical across reruns with the same config and
seed; wall-clock metadata is isolated in a separate meta.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from mfhjb.control import SearchSpec, dpp_residual, hjb_residual, value_estimate, value_fd_approx
from mfhjb.dynamics import SimConfig, dump_trajectories, moment_checks
from mfhjb.measures import ParticleEnsemble, sample_iid, translate
from mfhjb.mollify import mollify_rate_sweep
from mfhjb.scenarios import lq_test_function, lq_true_value, scenario
from mfhjb.sliced_gauge import (
    SphereQuadrature,
    gauge_g,
    h_gauge,
    pin_gauge_square_factor,
    sw2,
)
from mfhjb.transport1d import w1_empirical_gaussian
from mfhjb.variational import CandidateSet, borwein_preiss

SCHEMA_VERSION = 1

SUBCOMMANDS = [
    "metric",
    "gradient-check",
    "h-check",
    "variational",
    "simulate",
    "mollify-rates",
    "value",
    "eps-sweep",
    "n-sweep",
    "dpp-check",
    "hjb-residual",
    "rates",
]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:16]


def _record(operation: str, config: dict, value, stderr=None, seed=None, **extra) -> dict:
    rec = {
        "operation": operation,
        "inputs_hash": _hash({"operation": operation, "config": config}),
        "value": value,
        "stderr": stderr,
        "seed": seed,
    }
    rec.update(extra)
    return rec


def _quad_for(d: int, count: int, seed: int) -> SphereQuadrature:
    return SphereQuadrature.for_dimension(d, count, seed)


def _fit_loglog(ns, errs):
    return float(np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(errs, float)), 1)[0])


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (records, pass_flag, series)
# ---------------------------------------------------------------------------


def _run_metric(cfg, seed):
    n, d = cfg.get("n", 16), cfg.get("d", 2)
    sigma = cfg.get("sigma", 0.5)
    quad = _quad_for(d, cfg.get("quad", 64), seed)
    mu = sample_iid({"kind": "gaussian", "std": 1.0}, n, d, seed)
    shift = np.asarray(cfg.get("shift", [0.6] * d), dtype=float)
    nu = translate(mu, shift)
    self_dist = sw2(mu, mu, sigma, quad)
    cross = sw2(mu, nu, sigma, quad)
    expect = float(np.linalg.norm(shift)) / np.sqrt(d)
    sym_gap = abs(cross - sw2(nu, mu, sigma, quad))
    ok = self_dist <= 1e-10 and abs(cross - expect) <= 1e-4 and sym_gap <= 1e-10
    recs = [
        _record("sw2_self", cfg, self_dist, seed=seed, tolerance=1e-10),
        _record("sw2_translation", cfg, cross, seed=seed, expected=expect),
        _record("sw2_symmetry_gap", cfg, sym_gap, seed=seed, tolerance=1e-10),
    ]
    return recs, ok, {}


def _run_gradient_check(cfg, seed):
    n, d = cfg.get("n", 8), cfg.get("d", 2)
    sigma, h = cfg.get("sigma", 0.5), cfg.get("h", 1e-4)
    quad = _quad_for(d, cfg.get("quad", 32), seed)
    rng = np.random.default_rng(seed)
    mu = ParticleEnsemble(rng.standard_normal((n, d)))
    nu = ParticleEnsemble(rng.standard_normal((max(n - 2, 2), d)) * 1.2 + 0.3)
    m_points = cfg.get("m_points", 128)
    pin = pin_gauge_square_factor(mu, nu, sigma, quad, h=h, m_points=m_points)
    err = pin["errors"][pin["factor"]]
    ok = pin["factor"] == 0.5 and err <= 1e-3
    recs = [
        _record("gauge_factor_pin", cfg, pin["factor"], seed=seed, errors={str(k): v for k, v in pin["errors"].items()}),
        _record("gradient_fd_rel_error", cfg, err, seed=seed, tolerance=1e-3),
    ]
    return recs, ok, {}


def _run_h_check(cfg, seed):
    d = cfg.get("d", 2)
    quad = _quad_for(d, cfg.get("quad", 64), seed)
    hmat = h_gauge(d, quad)
    exact_gap = float(np.abs(hmat - np.eye(d) / d).max())
    rng = np.random.default_rng(seed)
    mu = ParticleEnsemble(rng.standard_normal((5, d)))
    nu = ParticleEnsemble(rng.standard_normal((4, d)) + 0.4)
    h = 1e-3
    rel_errs = []
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        fp = gauge_g(translate(mu, e), nu, 0.5, quad, 128)
        f0 = gauge_g(mu, nu, 0.5, quad, 128)
        fm = gauge_g(translate(mu, -e), nu, 0.5, quad, 128)
        second = (fp - 2 * f0 + fm) / h**2
        rel_errs.append(abs(second - hmat[l, l]) / abs(hmat[l, l]))
    fd_err = max(rel_errs)
    tol_exact = 1e-14 if d <= 2 else 4.0 / np.sqrt(quad.count)
    ok = exact_gap <= tol_exact and fd_err <= 1e-2
    recs = [
        _record("h_matrix_gap", cfg, exact_gap, seed=seed, tolerance=tol_exact),
        _record("h_second_difference_rel_err", cfg, fd_err, seed=seed, tolerance=1e-2),
    ]
    return recs, ok, {}


def _run_variational(cfg, seed):
    sets = cfg.get("sets", 50)
    d = cfg.get("d", 1)
    quad = _quad_for(d, cfg.get("quad", 16), seed)
    rng = np.random.default_rng(seed)
    passed = 0
    for k in range(sets):
        size = int(rng.integers(2, cfg.get("max_size", 30)))
        times = rng.uniform(0, 1, size)
        ensembles = tuple(
            ParticleEnsemble(rng.standard_normal((int(rng.integers(2, 6)), d))) for _ in range(size)
        )
        g_values = rng.uniform(0, 1, size)
        cands = CandidateSet(
            times, ensembles, g_values, lam=cfg.get("lam", 0.5), delta=cfg.get("delta", 0.3),
            start=int(np.argmax(g_values)),
        )
        res = borwein_preiss(cands, quad, m_points=cfg.get("m_points", 48))
        cert = res.certificate
        if cert["item1_ok"] and cert["item2_ok"] and cert["item3_ok"] and cert["complete"]:
            passed += 1
    ok = passed == sets
    recs = [_record("variational_certificates", cfg, passed, seed=seed, total=sets)]
    return recs, ok, {}


def _run_simulate(cfg, seed, out_dir):
    coeffs = scenario(cfg.get("scenario", "lq_drift"), cfg.get("params"))
    n = cfg.get("n", 256)
    init = sample_iid(cfg.get("init", {"kind": "gaussian", "std": 0.5}), n, coeffs.d, seed)
    sim = SimConfig(
        n=n, steps=cfg.get("steps", 50), t0=cfg.get("t0", 0.0), t1=cfg.get("t1", 1.0),
        seed=seed, epsilon=cfg.get("epsilon", 0.0),
    )
    from mfhjb.control import StepControl

    action = np.asarray(cfg.get("action", [0.0] * coeffs.action_space.dim), dtype=float)
    policy = StepControl.constant(sim.t0, action)
    checks = moment_checks(coeffs, init, policy, sim, shift=np.full(coeffs.d, 0.1))
    bundle = checks.pop("bundle")
    if out_dir:
        dump_trajectories(bundle, os.path.join(out_dir, "trajectory.csv"))
    holder = {f"{h:.6g}": v for h, v in checks["c_holder"].items()}
    ok = np.isfinite(checks["c_growth"]) and all(np.isfinite(v) for v in checks["c_holder"].values())
    recs = [
        _record("moment_growth_constant", cfg, checks["c_growth"], seed=seed),
        _record("moment_lipschitz_constant", cfg, checks["c_lip"], seed=seed),
        _record("moment_holder_constants", cfg, holder, seed=seed),
    ]
    return recs, bool(ok), {}


def _run_mollify_rates(cfg, seed):
    ms = tuple(cfg.get("ms", [2, 4, 8, 16, 32]))
    rng = np.random.default_rng(seed)
    offsets = cfg.get("offsets", 2048)

    time_sc = scenario("bounded_trig", {"d": 1, "time_amp": 1.0, "space_amp": 0.0})
    probes_t = [(float(t), rng.standard_normal((4, 1)) * 0.5, np.zeros(1)) for t in (0.45, 0.5, 0.55)]
    tab_t = mollify_rate_sweep(time_sc, ms, probes_t, {"offsets": offsets, "seed": seed})
    slope_t = _fit_loglog(ms, [tab_t["b"][m] for m in ms])

    space_sc = scenario("bounded_trig", {"d": 1, "time_amp": 0.0, "space_amp": 1.0})
    probes_s = [(0.2, np.array([[1.0], [0.5], [-1.0], [0.3]]), np.zeros(1))]
    tab_s = mollify_rate_sweep(space_sc, ms, probes_s, {"offsets": offsets, "seed": seed + 1})
    slope_s = _fit_loglog(ms, [tab_s["g"][m] for m in ms])

    ok = (-0.7 <= slope_t <= -0.3) and (-1.25 <= slope_s <= -0.75)
    recs = [
        _record("time_term_slope", cfg, slope_t, seed=seed, window=[-0.7, -0.3]),
        _record("space_term_slope", cfg, slope_s, seed=seed, window=[-1.25, -0.75]),
    ]
    series = {
        "mollify_rates.csv": [("m", "time_err", "space_err")]
        + [(m, tab_t["b"][m], tab_s["g"][m]) for m in ms]
    }
    return recs, ok, series


def _run_value(cfg, seed):
    p = cfg.get("p", [1.0, -0.5])
    coeffs = scenario("lq_drift", {"d": len(p), "p": p, **cfg.get("params", {})})
    n = cfg.get("n", 512)
    init = sample_iid({"kind": "gaussian", "std": 0.5}, n, coeffs.d, seed)
    sim = SimConfig(n=n, steps=cfg.get("steps", 25), t0=0.0, t1=cfg.get("t1", 1.0), seed=seed)
    rec = value_estimate(coeffs, init, sim, SearchSpec(), paths=cfg.get("paths", 32))
    true = lq_true_value(init.mean(), p, 0.0, sim.t1)
    tol = 3.0 * rec["stderr"] + 0.05 * float(np.abs(np.asarray(p)).sum())
    best_vertex = np.sign(np.asarray(p, dtype=float))
    returned = rec["best_policy"].actions[0]
    ok = abs(rec["value"] - true) <= tol and np.array_equal(np.sign(returned), best_vertex)
    recs = [
        _record("lq_value", cfg, rec["value"], stderr=rec["stderr"], seed=seed, expected=true, tolerance=tol),
        _record("lq_best_policy", cfg, rec["best_policy"].describe(), seed=seed),
    ]
    return recs, ok, {}


def _eps_sweep_data(cfg, seed):
    # weak base diffusion and the terminal cloud sitting at the onset of a
    # narrow clip band, so the extra eps-noise flattens the attainable
    # terminal cost at a rate linear in eps
    p_scale = cfg.get("p_scale", 0.4)
    coeffs = scenario(
        "lq_drift",
        {"d": 2, "p": [p_scale, 0.0], "radius": 3.0, "clip_inner": 0.87,
         "sigma": 0.05, "sigma0": 0.05},
    )
    mu_spec = {"kind": "gaussian", "mean": [1.3, 0.0], "std": 0.1}
    n = cfg.get("n", 192)
    sim = SimConfig(n=n, steps=cfg.get("steps", 26), t0=0.0, t1=1.3, seed=seed)
    search = SearchSpec(
        actions=(np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([-1.0, 0.0]))
    )
    eps_list = [0.0] + list(cfg.get("eps", [0.05, 0.1, 0.2, 0.4]))
    vals = {}
    for eps in eps_list:
        rec = value_fd_approx(
            coeffs, mu_spec, 0.0, eps, n=n, m=cfg.get("m", 32), cfg=sim,
            search=search, paths=cfg.get("paths", 32),
            resamples=cfg.get("resamples", 2), offsets=cfg.get("offsets", 32), seed=seed,
        )
        vals[eps] = rec["value"]
    return eps_list, vals


def _run_eps_sweep(cfg, seed):
    eps_list, vals = _eps_sweep_data(cfg, seed)
    v0 = vals[0.0]
    x = np.array(eps_list[1:])
    y = np.array([abs(vals[e] - v0) for e in eps_list[1:]])
    beta = float((x @ y) / (x @ x))
    r2 = float(1 - np.sum((y - beta * x) ** 2) / np.sum((y - y.mean()) ** 2))
    slope, intercept = np.polyfit(x, y, 1)
    ok = r2 >= 0.9
    recs = [
        _record("eps_line_r2", cfg, r2, seed=seed, tolerance=0.9),
        _record("eps_line_slope", cfg, float(slope), seed=seed, intercept=float(intercept)),
    ]
    series = {
        "eps_sweep.csv": [("eps", "value", "abs_diff")]
        + [(e, vals[e], abs(vals[e] - v0)) for e in eps_list]
    }
    return recs, ok, series


def _run_n_sweep(cfg, seed):
    # terminal cost concave in the cloud mean: plugging an n-point cloud
    # biases the value by the mean's O(1/n) fluctuation variance
    params = cfg.get(
        "params",
        {"d": 1, "pull": 1.0, "sigma": 0.7, "sigma0": 0.05, "p": 1.0,
         "mf_weight": 1.0, "mf_center": 1.3},
    )
    coeffs = scenario("mean_reversion_mf", params)
    mu_spec = {"kind": "gaussian", "mean": [0.3], "std": 1.2}
    ns = cfg.get("ns", [8, 16, 32, 64])
    ref_n = cfg.get("ref_n", 256)
    m = cfg.get("m", 32)
    paths = cfg.get("paths", 64)
    sim = SimConfig(n=ref_n, steps=cfg.get("steps", 16), t0=0.0, t1=1.0, seed=seed)
    search = SearchSpec()

    def vhat(n):
        return value_fd_approx(
            coeffs, mu_spec, 0.0, 0.0, n=n, m=m, cfg=sim, search=search,
            paths=paths, resamples=cfg.get("resamples", 3),
            offsets=cfg.get("offsets", 32), seed=seed,
        )["value"]

    ref = vhat(ref_n)
    errs = [abs(vhat(n) - ref) for n in ns]
    slope = _fit_loglog(ns, np.maximum(errs, 1e-12))
    ok = errs[-1] <= errs[0] and slope < 0.0
    recs = [_record("n_sweep_errors", cfg, errs, seed=seed, ns=ns, reference=ref, slope=slope)]
    series = {"n_sweep.csv": [("n", "abs_err")] + list(zip(ns, errs))}
    return recs, ok, series


def _run_dpp_check(cfg, seed):
    coeffs = scenario("lq_drift", {"d": 2, "p": cfg.get("p", [1.0, -0.5])})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, cfg.get("n", 192), 2, seed)
    kw = dict(
        t=0.0, s_mid=cfg.get("s_mid", 0.5), t1=cfg.get("t1", 1.0),
        n_steps=cfg.get("steps", 24), paths_outer=cfg.get("paths_outer", 24),
        paths_inner=cfg.get("paths_inner", 16), seed=seed,
    )
    rec_lq = dpp_residual(coeffs, init, search=SearchSpec(), **kw)
    rec_single = dpp_residual(coeffs, init, search=SearchSpec(actions=(np.array([0.6, -0.2]),)), **kw)
    ok = abs(rec_lq["gap"]) <= 3 * rec_lq["stderr"] and abs(rec_single["gap"]) <= 3 * rec_single["stderr"]
    recs = [
        _record("dpp_gap_lq", cfg, rec_lq["gap"], stderr=rec_lq["stderr"], seed=seed),
        _record("dpp_gap_single_action", cfg, rec_single["gap"], stderr=rec_single["stderr"], seed=seed),
    ]
    return recs, ok, {}


def _run_hjb_residual(cfg, seed):
    p = np.asarray(cfg.get("p", [1.0, -0.5]), dtype=float)
    coeffs = scenario("lq_drift", {"d": p.size, "p": p.tolist()})
    t1 = cfg.get("t1", 1.0)
    tf = lq_test_function(p, t1)
    rng = np.random.default_rng(seed)
    probes = cfg.get("probes", 20)
    worst = 0.0
    detected = 0
    for k in range(probes):
        t = float(rng.uniform(0, t1 * 0.9))
        mu = ParticleEnsemble(rng.standard_normal((8, p.size)) * 0.5)
        r = hjb_residual(coeffs, tf, t, mu)
        worst = max(worst, abs(r))
        # negative control: a time bump with negative slope at the probe
        from mfhjb.control import TestFunction

        slope = 0.5
        bumped = TestFunction(
            value=lambda tt, ens: tf.value(tt, ens) - slope * tt,
            dt=lambda tt, ens: tf.dt(tt, ens) - slope,
            dmu=tf.dmu, dxdmu=tf.dxdmu, h_op=tf.h_op,
        )
        if hjb_residual(coeffs, bumped, t, mu) < -1e-6:
            detected += 1
    ok = worst <= 1e-12 and detected == probes
    recs = [
        _record("hjb_residual_worst", cfg, worst, seed=seed, tolerance=1e-12),
        _record("hjb_negative_control_detected", cfg, detected, seed=seed, total=probes),
    ]
    return recs, ok, {}


def _run_rates(cfg, seed):
    ns = cfg.get("ns", [32, 64, 128, 256, 512, 1024, 2048, 4096])
    reps = cfg.get("reps", 60)
    rng = np.random.default_rng(seed)
    means = []
    for n in ns:
        vals = [w1_empirical_gaussian(rng.standard_normal(n)) for _ in range(reps)]
        means.append(float(np.mean(vals)))
    slope = _fit_loglog(ns, means)
    ok = -0.62 <= slope <= -0.38
    recs = [_record("w1_rate_slope", cfg, slope, seed=seed, window=[-0.62, -0.38])]
    series = {"rates.csv": [("n", "mean_w1")] + list(zip(ns, means))}
    return recs, ok, series


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mfhjb", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="overrides config seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1

    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    started = time.time()
    try:
        if args.subcommand == "metric":
            recs, ok, series = _run_metric(cfg, seed)
        elif args.subcommand == "gradient-check":
            recs, ok, series = _run_gradient_check(cfg, seed)
        elif args.subcommand == "h-check":
            recs, ok, series = _run_h_check(cfg, seed)
        elif args.subcommand == "variational":
            recs, ok, series = _run_variational(cfg, seed)
        elif args.subcommand == "simulate":
            recs, ok, series = _run_simulate(cfg, seed, out_dir)
        elif args.subcommand == "mollify-rates":
            recs, ok, series = _run_mollify_rates(cfg, seed)
        elif args.subcommand == "value":
            recs, ok, series = _run_value(cfg, seed)
        elif args.subcommand == "eps-sweep":
            recs, ok, series = _run_eps_sweep(cfg, seed)
        elif args.subcommand == "n-sweep":
            recs, ok, series = _run_n_sweep(cfg, seed)
        elif args.subcommand == "dpp-check":
            recs, ok, series = _run_dpp_check(cfg, seed)
        elif args.subcommand == "hjb-residual":
            recs, ok, series = _run_hjb_residual(cfg, seed)
        else:
            recs, ok, series = _run_rates(cfg, seed)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.subcommand,
        "config_hash": _hash(cfg),
        "seed": seed,
        "records": recs,
        "pass": bool(ok),
    }
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({"elapsed_seconds": time.time() - started, "timestamp": time.time()}, fh)
    for fname, rows in series.items():
        with open(os.path.join(out_dir, fname), "w") as fh:
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")

    print(("PASS" if ok else "FAIL") + f" {args.subcommand} -> {os.path.join(out_dir, 'results.json')}")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
