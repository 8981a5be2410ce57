"""Batch experiment runner.

Each subcommand runs one verification suite with a JSON config, writes
machine-readable results to the output directory, and exits 0 only if every
asserted tolerance passed.  Malformed configs exit 1, and so does a config key
the subcommand does not take, before any work; bad arguments exit 2, and so
does an --out directory that cannot be created or written; tolerance failures
exit 3; numerical failures (a non-finite simulated state) exit 4.
Result files are byte-identical across reruns with the same config and seed;
wall-clock metadata is isolated in a separate meta.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from mfhjb.control import SearchSpec, StepControl, dpp_residual, hjb_residual, value_estimate, value_fd_approx
from mfhjb.dynamics import SimConfig, _check_counts, moment_checks
from mfhjb.measures import _COMPONENT_KINDS, _KINDS, ParticleEnsemble, sample_iid, translate
from mfhjb.mollify import mollify_rate_sweep
from mfhjb.scenarios import _BUILDERS, _lq_minus, lq_test_function, lq_true_value, scenario
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


def _like(value, default) -> bool:
    """Whether a JSON value has the type of a default: a float takes an int
    or a float, a list a list whose entries are like the default's first, and
    any other default its own type, so no bool passes for a number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_like(entry, default[0]) for entry in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def _config(cfg, **defaults) -> SimpleNamespace:
    """The values of the keys a runner takes: each key of cfg, else its default.

    A default of ``...`` is one the runner derives from other values, which
    no JSON value is, so an explicit null stays null.  Any other key but
    ``seed``, a typo say, raises before any work, and so does a value that is
    not ``_like`` its default (``...`` and ``None`` defaults take any value).
    """
    unknown = sorted(set(cfg) - set(defaults) - {"seed"})
    if unknown:
        raise ValueError(f"bad config: unknown key(s) {', '.join(map(repr, unknown))}")
    given = {key: value for key, value in cfg.items() if key != "seed"}
    for key, value in given.items():
        default = defaults[key]
        if default is not ... and default is not None and not _like(value, default):
            raise ValueError(f"bad config: {key} must be like its default {json.dumps(default)}, got {json.dumps(value)}")
    return SimpleNamespace(**{**defaults, **given})


def _keyword_defaults(func) -> dict:
    # the defaults of func's trailing keyword parameters, by name
    names = func.__code__.co_varnames[: func.__code__.co_argcount]
    defaults = func.__defaults__ or ()
    return dict(zip(names[len(names) - len(defaults):], defaults))


def _nested_like(key, spec, defaults) -> None:
    """Check each value of the object ``spec``, given as config key ``key``,
    against the default of the keyword it names by the ``_like`` rule, where
    a float default also takes a list of numbers, since vector parameters
    broadcast.  Names without a default, and a spec that is not an object,
    are left to the callee's own checks."""
    if not isinstance(spec, dict):
        return
    for name, value in spec.items():
        if name not in defaults:
            continue
        default = defaults[name]
        if not (_like(value, default) or isinstance(default, float) and _like(value, [default])):
            raise ValueError(f"bad config: {key}.{name} must be like its default {json.dumps(default)}, "
                             f"got {json.dumps(value)}")


def _check_params(name, params) -> None:
    # a named scenario's params against its builder's keyword defaults
    if name in _BUILDERS:
        _nested_like("params", params, _keyword_defaults(_BUILDERS[name]))


def _check_sample_spec(key, spec) -> None:
    # a sample spec against its kind's keyword defaults, and each mixture
    # component against its own kind's and the component weight's
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind in _KINDS:
        _nested_like(key, spec, _keyword_defaults(_KINDS[kind]))
    if kind == "mixture" and isinstance(spec.get("components"), list):
        for i, comp in enumerate(spec["components"]):
            if isinstance(comp, dict) and comp.get("kind") in _COMPONENT_KINDS:
                defaults = {**_keyword_defaults(_COMPONENT_KINDS[comp["kind"]]), "weight": 1.0}
                _nested_like(f"{key}.components[{i}]", comp, defaults)


def _fit_sizes(key, sizes):
    # the sample sizes of a log-log fit: at least two distinct, each >= 1
    _check_counts(**{f"{key}[{i}]": size for i, size in enumerate(sizes)})
    if len(set(sizes)) < 2:
        raise ValueError(f"{key} needs at least two distinct sizes for a log-log fit, got {sizes!r}")
    return sizes


def _fit_loglog(ns, errs):
    return float(np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(errs, float)), 1)[0])


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (records, pass_flag, series)
# ---------------------------------------------------------------------------


def _run_metric(cfg, seed):
    c = _config(cfg, n=16, d=2, sigma=0.5, quad=64, shift=...)
    n, d, sigma = c.n, c.d, c.sigma
    if c.shift is not ... and not (_like(c.shift, [0.0]) and len(c.shift) == d):
        raise ValueError(f"bad config: shift must be a list of {d} numbers, got {json.dumps(c.shift)}")
    quad = SphereQuadrature.for_dimension(d, c.quad, seed)
    mu = sample_iid({"kind": "gaussian", "std": 1.0}, n, d, seed)
    shift = np.asarray([0.6] * d if c.shift is ... else c.shift, dtype=float)
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
    c = _config(cfg, n=8, d=2, sigma=0.5, h=1e-4, quad=32, m_points=128)
    n, d = c.n, c.d
    quad = SphereQuadrature.for_dimension(d, c.quad, seed)
    rng = np.random.default_rng(seed)
    mu = ParticleEnsemble(rng.standard_normal((n, d)))
    nu = ParticleEnsemble(rng.standard_normal((max(n - 2, 2), d)) * 1.2 + 0.3)
    pin = pin_gauge_square_factor(mu, nu, c.sigma, quad, h=c.h, m_points=c.m_points)
    err = pin["errors"][pin["factor"]]
    ok = pin["factor"] == 0.5 and err <= 1e-3
    recs = [
        _record("gauge_factor_pin", cfg, pin["factor"], seed=seed, errors={str(k): v for k, v in pin["errors"].items()}),
        _record("gradient_fd_rel_error", cfg, err, seed=seed, tolerance=1e-3),
    ]
    return recs, ok, {}


def _run_h_check(cfg, seed):
    c = _config(cfg, d=2, quad=64)
    d = c.d
    quad = SphereQuadrature.for_dimension(d, c.quad, seed)
    hmat = h_gauge(d, quad)
    exact_gap = float(np.abs(hmat - np.eye(d) / d).max())
    rng = np.random.default_rng(seed)
    mu = ParticleEnsemble(rng.standard_normal((5, d)))
    nu = ParticleEnsemble(rng.standard_normal((4, d)) + 0.4)
    h = 1e-3
    f0 = gauge_g(mu, nu, 0.5, quad, 128)
    rel_errs = []
    for l, e in enumerate(h * np.eye(d)):
        fp = gauge_g(translate(mu, e), nu, 0.5, quad, 128)
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
    c = _config(cfg, sets=50, d=1, quad=16, max_size=30, lam=0.5, delta=0.3, m_points=48)
    sets, d, lam = c.sets, c.d, c.lam
    _check_counts(sets=sets)
    quad = SphereQuadrature.for_dimension(d, c.quad, seed)
    rng = np.random.default_rng(seed)
    passed = 0
    for k in range(sets):
        size = int(rng.integers(2, c.max_size))
        times = rng.uniform(0, 1, size)
        ensembles = tuple(
            ParticleEnsemble(rng.standard_normal((int(rng.integers(2, 6)), d))) for _ in range(size)
        )
        g_values = rng.uniform(0, 1, size)
        cands = CandidateSet(times, ensembles, g_values, lam=lam, delta=c.delta)
        res = borwein_preiss(cands, quad, m_points=c.m_points)
        cert = res.certificate
        if cert["item1_ok"] and cert["item2_ok"] and cert["item3_ok"] and cert["complete"]:
            passed += 1
    ok = passed == sets
    recs = [_record("variational_certificates", cfg, passed, seed=seed, total=sets)]
    return recs, ok, {}


def _run_simulate(cfg, seed):
    c = _config(
        cfg, scenario="lq_drift", params=None, n=256, init={"kind": "gaussian", "std": 0.5},
        steps=50, t0=0.0, t1=1.0, epsilon=0.0, action=...,
    )
    _check_params(c.scenario, c.params)
    _check_sample_spec("init", c.init)
    if c.action is not ... and not _like(c.action, [0.0]):
        raise ValueError(f"bad config: action must be a list of numbers, got {json.dumps(c.action)}")
    coeffs = scenario(c.scenario, c.params)
    init = sample_iid(c.init, c.n, coeffs.d, seed)
    sim = SimConfig(n=c.n, steps=c.steps, t0=c.t0, t1=c.t1, seed=seed, epsilon=c.epsilon)
    action = np.asarray([0.0] * coeffs.action_space.dim if c.action is ... else c.action, dtype=float)
    policy = StepControl.constant(sim.t0, action)
    checks = moment_checks(coeffs, init, policy, sim, shift=np.full(coeffs.d, 0.1))
    traj = checks.pop("trajectories")
    holder = {f"{h:.6g}": v for h, v in checks["c_holder"].items()}
    ok = np.isfinite(checks["c_growth"]) and all(np.isfinite(v) for v in checks["c_holder"].values())
    recs = [
        _record("moment_growth_constant", cfg, checks["c_growth"], seed=seed),
        _record("moment_lipschitz_constant", cfg, checks["c_lip"], seed=seed),
        _record("moment_holder_constants", cfg, holder, seed=seed),
    ]
    header = ("step", "particle") + tuple(f"x{j}" for j in range(traj.shape[2]))
    rows = [(k, i, *x) for k, step in enumerate(traj.tolist()) for i, x in enumerate(step)]
    return recs, bool(ok), {"trajectory.csv": [header] + rows}


def _run_mollify_rates(cfg, seed):
    c = _config(cfg, ms=[2, 4, 8, 16, 32], offsets=2048)
    ms, offsets = tuple(_fit_sizes("ms", c.ms)), c.offsets
    rng = np.random.default_rng(seed)

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
    c = _config(cfg, p=[1.0, -0.5], params={}, n=512, steps=25, t1=1.0, paths=32)
    _check_params("lq_drift", c.params)
    p = c.p
    coeffs = scenario("lq_drift", {"d": len(p), "p": p, **c.params})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, c.n, coeffs.d, seed)
    sim = SimConfig(n=c.n, steps=c.steps, t0=0.0, t1=c.t1, seed=seed)
    rec = value_estimate(coeffs, init, sim, SearchSpec(), paths=c.paths)
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
    c = _config(
        cfg, p_scale=0.4, n=192, steps=26, eps=[0.05, 0.1, 0.2, 0.4], m=32, paths=32, resamples=2, offsets=32,
    )
    # eps = 0 is the line's anchor; a slope through it needs two more distinct points
    if not all(eps > 0 for eps in c.eps) or len(set(c.eps)) < 2:
        raise ValueError(f"eps needs at least two distinct values, each > 0, for a line fit, got {c.eps!r}")
    coeffs = scenario(
        "lq_drift",
        {"d": 2, "p": [c.p_scale, 0.0], "radius": 3.0, "clip_inner": 0.87,
         "sigma": 0.05, "sigma0": 0.05},
    )
    mu_spec = {"kind": "gaussian", "mean": [1.3, 0.0], "std": 0.1}
    sim = SimConfig(n=c.n, steps=c.steps, t0=0.0, t1=1.3, seed=seed)
    search = SearchSpec(
        actions=(np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([-1.0, 0.0]))
    )
    eps_list = [0.0] + list(c.eps)
    vals = {}
    for eps in eps_list:
        rec = value_fd_approx(
            coeffs, mu_spec, 0.0, eps, n=c.n, m=c.m, cfg=sim, search=search, paths=c.paths,
            resamples=c.resamples, offsets=c.offsets, seed=seed,
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
    c = _config(
        cfg, ns=[8, 16, 32, 64],
        params={"d": 1, "pull": 1.0, "sigma": 0.7, "sigma0": 0.05, "p": 1.0,
                "mf_weight": 1.0, "mf_center": 1.3},
        ref_n=256, m=32, paths=64, resamples=3, offsets=32, steps=16,
    )
    ns = _fit_sizes("ns", c.ns)
    _check_params("mean_reversion_mf", c.params)
    coeffs = scenario("mean_reversion_mf", c.params)
    mu_spec = {"kind": "gaussian", "mean": [0.3], "std": 1.2}
    sim = SimConfig(n=c.ref_n, steps=c.steps, t0=0.0, t1=1.0, seed=seed)
    search = SearchSpec()

    def vhat(n):
        return value_fd_approx(
            coeffs, mu_spec, 0.0, 0.0, n=n, m=c.m, cfg=sim, search=search,
            paths=c.paths, resamples=c.resamples, offsets=c.offsets, seed=seed,
        )["value"]

    ref = vhat(c.ref_n)
    errs = [abs(vhat(n) - ref) for n in ns]
    slope = _fit_loglog(ns, np.maximum(errs, 1e-12))
    ok = errs[-1] <= errs[0] and slope < 0.0
    recs = [_record("n_sweep_errors", cfg, errs, seed=seed, ns=ns, reference=ref, slope=slope)]
    series = {"n_sweep.csv": [("n", "abs_err")] + list(zip(ns, errs))}
    return recs, ok, series


def _run_dpp_check(cfg, seed):
    c = _config(cfg, p=[1.0, -0.5], n=192, s_mid=0.5, t1=1.0, steps=24, paths_outer=24, paths_inner=16)
    coeffs = scenario("lq_drift", {"d": 2, "p": c.p})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, c.n, 2, seed)
    kw = dict(
        t=0.0, s_mid=c.s_mid, t1=c.t1, n_steps=c.steps, paths_outer=c.paths_outer,
        paths_inner=c.paths_inner, seed=seed,
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
    c = _config(cfg, p=[1.0, -0.5], t1=1.0, probes=20)
    p, t1, probes = np.asarray(c.p, dtype=float), c.t1, c.probes
    _check_counts(probes=probes)
    coeffs = scenario("lq_drift", {"d": p.size, "p": p.tolist()})
    tf = lq_test_function(p, t1)
    rng = np.random.default_rng(seed)
    # negative control: u - 0.5 t, whose residual is -0.5 at every probe
    bumped = _lq_minus(p, t1, 0.5, 0.0)
    worst = 0.0
    detected = 0
    for k in range(probes):
        t = float(rng.uniform(0, t1 * 0.9))
        mu = ParticleEnsemble(rng.standard_normal((8, p.size)) * 0.5)
        r = hjb_residual(coeffs, tf, t, mu)
        worst = max(worst, abs(r))
        if hjb_residual(coeffs, bumped, t, mu) < -1e-6:
            detected += 1
    ok = worst <= 1e-12 and detected == probes
    recs = [
        _record("hjb_residual_worst", cfg, worst, seed=seed, tolerance=1e-12),
        _record("hjb_negative_control_detected", cfg, detected, seed=seed, total=probes),
    ]
    return recs, ok, {}


def _run_rates(cfg, seed):
    c = _config(cfg, ns=[32, 64, 128, 256, 512, 1024, 2048, 4096], reps=60)
    ns, reps = _fit_sizes("ns", c.ns), c.reps
    _check_counts(reps=reps)
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


_RUNNERS = {
    "metric": _run_metric,
    "gradient-check": _run_gradient_check,
    "h-check": _run_h_check,
    "variational": _run_variational,
    "simulate": _run_simulate,
    "mollify-rates": _run_mollify_rates,
    "value": _run_value,
    "eps-sweep": _run_eps_sweep,
    "n-sweep": _run_n_sweep,
    "dpp-check": _run_dpp_check,
    "hjb-residual": _run_hjb_residual,
    "rates": _run_rates,
}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh, parse_constant=_reject_constant)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mfhjb", description=__doc__)
    parser.add_argument("subcommand", choices=list(_RUNNERS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="overrides config seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be a JSON integer, got {json.dumps(seed)}")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2

    started = time.time()
    try:
        recs, ok, series = _RUNNERS[args.subcommand](cfg, seed)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 4

    result = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.subcommand,
        "config_hash": _hash(cfg),
        "seed": seed,
        "records": recs,
        "pass": bool(ok),
    }
    try:
        with open(os.path.join(out_dir, "results.json"), "w") as fh:
            json.dump(result, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(os.path.join(out_dir, "meta.json"), "w") as fh:
            json.dump({"elapsed_seconds": time.time() - started, "timestamp": time.time()}, fh)
        for fname, rows in series.items():
            with open(os.path.join(out_dir, fname), "w") as fh:
                for row in rows:
                    fh.write(",".join(str(v) for v in row) + "\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2

    print(("PASS" if ok else "FAIL") + f" {args.subcommand} -> {os.path.join(out_dir, 'results.json')}")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
