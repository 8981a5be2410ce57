"""Cost functionals, value estimation by policy search, and residual checks
for the dynamic programming principle and the limiting HJB equation.

The admissible controls are step controls: piecewise constant in time, each
piece either a fixed action or a spatial-grid feedback table.  Value
estimation maximizes the Monte Carlo cost over a finite policy class with
common random numbers across candidates, so it lower-bounds the true value by
construction and attains it when the optimum lies in the class (as in the
linear-drift scenario, where the optimal control is a vertex of the action
box).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from mfhjb.dynamics import SimConfig, simulate
from mfhjb.measures import ParticleEnsemble, sample_iid

__all__ = [
    "ActionSpace",
    "FeedbackTable",
    "StepControl",
    "TestFunction",
    "CoefficientSet",
    "SearchSpec",
    "cost_j",
    "value_estimate",
    "value_fd_approx",
    "dpp_residual",
    "hjb_residual",
    "viscosity_check",
    "h_via_second_derivative",
]

@dataclass(frozen=True)
class ActionSpace:
    """Either a box [lo, hi]^q or a finite list of actions."""

    kind: str  # "box" | "finite"
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    points: tuple = ()

    def __post_init__(self):
        if self.kind == "box":
            lo = np.asarray(self.lo, dtype=float).ravel()
            hi = np.asarray(self.hi, dtype=float).ravel()
            if lo.shape != hi.shape or np.any(lo >= hi):
                raise ValueError("box needs lo < hi componentwise")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.kind == "finite":
            pts = tuple(np.asarray(p, dtype=float).ravel() for p in self.points)
            if not pts:
                raise ValueError("finite action space needs at least one point")
            object.__setattr__(self, "points", pts)
        else:
            raise ValueError(f"unknown action space kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.lo.shape[0] if self.kind == "box" else self.points[0].shape[0]

    def contains(self, a: np.ndarray) -> bool:
        a = np.asarray(a, dtype=float).ravel()
        if self.kind == "box":
            return bool(np.all(a >= self.lo - 1e-12) and np.all(a <= self.hi + 1e-12))
        return any(np.array_equal(a, p) for p in self.points)

    def vertices(self) -> list:
        if self.kind == "finite":
            return [np.array(p) for p in self.points]
        corners = itertools.product(*[(l, h) for l, h in zip(self.lo, self.hi)])
        return [np.array(c) for c in corners]

    def grid(self, res: int) -> list:
        if self.kind == "finite":
            return [np.array(p) for p in self.points]
        axes = [np.linspace(l, h, res) for l, h in zip(self.lo, self.hi)]
        return [np.array(c) for c in itertools.product(*axes)]


@dataclass(frozen=True)
class FeedbackTable:
    """Grid feedback a(x): the action of the cell containing x.

    Cells partition the box [lo, hi]^d uniformly with the given shape; points
    outside are clipped to the boundary cells.
    """

    lo: np.ndarray
    hi: np.ndarray
    table: np.ndarray  # shape (*cells, q)

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).ravel()
        hi = np.asarray(self.hi, dtype=float).ravel()
        table = np.asarray(self.table, dtype=float)
        if table.ndim != lo.shape[0] + 1:
            raise ValueError("table needs one grid axis per state dimension plus the action axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "table", table)

    def actions_for(self, x: np.ndarray) -> np.ndarray:
        shape = self.table.shape[:-1]
        frac = (x - self.lo) / (self.hi - self.lo)
        idx = []
        for j, cells in enumerate(shape):
            k = np.clip((frac[:, j] * cells).astype(int), 0, cells - 1)
            idx.append(k)
        return self.table[tuple(idx)]


@dataclass(frozen=True)
class StepControl:
    """Piecewise-constant-in-time control: breakpoints and per-piece actions.

    ``breakpoints[0]`` is the start of the horizon; piece i applies on
    [breakpoints[i], breakpoints[i+1]) and the last piece runs to the end.
    Each action is a fixed vector or a FeedbackTable.
    """

    breakpoints: np.ndarray
    actions: tuple

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).ravel()
        if bp.size != len(self.actions):
            raise ValueError("need one action per breakpoint")
        if bp.size == 0 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be non-empty and strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "actions", tuple(self.actions))

    @staticmethod
    def constant(t0: float, a) -> "StepControl":
        return StepControl(np.array([t0]), (np.asarray(a, dtype=float).ravel(),))

    def actions_at(self, t: float, x: np.ndarray) -> np.ndarray:
        idx = int(np.searchsorted(self.breakpoints, t + 1e-12, side="right") - 1)
        idx = max(idx, 0)
        act = self.actions[idx]
        if isinstance(act, FeedbackTable):
            return act.actions_for(np.atleast_2d(x))
        a = np.asarray(act, dtype=float).ravel()
        return np.broadcast_to(a, (np.atleast_2d(x).shape[0], a.shape[0]))

    def describe(self) -> str:
        parts = []
        for t, a in zip(self.breakpoints, self.actions):
            if isinstance(a, FeedbackTable):
                parts.append(f"t>={t:.3g}: feedback{a.table.shape[:-1]}")
            else:
                parts.append(f"t>={t:.3g}: {np.round(np.asarray(a, dtype=float), 6).tolist()}")
        return "; ".join(parts)


@dataclass(frozen=True)
class TestFunction:
    """A test function u(t, mu) with its derivative evaluators.

    value(t, ens) -> float; dt(t, ens) -> float; dmu(t, ens) -> (n, d);
    dxdmu(t, ens) -> (n, d, d); h_op(t, ens) -> (d, d).  ``d2mu`` is an
    optional full second measure derivative (n, n, d, d) used only by the
    cross-check h_via_second_derivative.
    """

    __test__ = False  # not a pytest case, despite the domain name

    value: callable
    dt: callable
    dmu: callable
    dxdmu: callable
    h_op: callable
    d2mu: callable | None = None
    growth: float = 1.0


def h_via_second_derivative(tf: TestFunction, t: float, ens: ParticleEnsemble) -> np.ndarray:
    """H u from the mixed and full second measure derivatives.

    On an ensemble, H u = mean_i dxdmu(x_i) + mean_{i,j} d2mu(x_i, x_j);
    available only when the caller supplies d2mu.
    """
    if tf.d2mu is None:
        raise ValueError("test function does not supply d2mu")
    mixed = tf.dxdmu(t, ens).mean(axis=0)
    full = tf.d2mu(t, ens).mean(axis=(0, 1))
    return mixed + full


@dataclass(frozen=True)
class CoefficientSet:
    """Scenario coefficients (b, sigma, sigma0, f, g) with advertised bounds.

    Vectorized evaluator signatures (n particles, state dimension d, action
    dimension q):

        b(t, x (n,d), mu: ParticleEnsemble, a (n,q)) -> (n, d)
        sigma(t, x (n,d), a (n,q)) -> (d, d) or (n, d, d)
        sigma0(t) -> (d, d)
        f(t, x (n,d), mu, a (n,q)) -> (n,)
        g(x (n,d), mu) -> (n,)

    K bounds all five in absolute value; beta is the time Holder exponent.
    """

    b: callable
    sigma: callable
    sigma0: callable
    f: callable
    g: callable
    K: float
    beta: float
    action_space: ActionSpace
    d: int
    name: str = ""
    params: dict = field(default_factory=dict)

    def drift(self, t, x, ens, a):
        return np.asarray(self.b(t, x, ens, a), dtype=float)

    def diffusion(self, t, x, a):
        return np.asarray(self.sigma(t, x, a), dtype=float)

    def common_diffusion(self, t):
        return np.asarray(self.sigma0(t), dtype=float)

    def running_cost(self, t, x, ens, a):
        return np.asarray(self.f(t, x, ens, a), dtype=float)

    def terminal_cost(self, x, ens):
        return np.asarray(self.g(x, ens), dtype=float)

    def validate(self, horizon: float = 1.0, n_probes: int = 200, seed: int = 0) -> dict:
        """Spot-check the advertised bound K and Lipschitz constants.

        Bounds are tested on random probes; Lipschitz continuity is tested on
        translated measure pairs, where the W2 distance is exactly the shift
        length.  Raises on violation.
        """
        rng = np.random.default_rng(seed)
        sup = {"b": 0.0, "sigma": 0.0, "sigma0": 0.0, "f": 0.0, "g": 0.0}
        lip = 0.0
        acts = self.action_space.vertices()
        for _ in range(n_probes):
            t = float(rng.uniform(0, horizon))
            x = rng.standard_normal((4, self.d)) * rng.uniform(0.5, 3.0)
            ens = ParticleEnsemble(rng.standard_normal((5, self.d)))
            a = acts[rng.integers(len(acts))]
            av = np.broadcast_to(a, (4, a.shape[0]))
            bv = np.linalg.norm(self.drift(t, x, ens, av), axis=1).max()
            sv = np.linalg.norm(np.atleast_3d(self.diffusion(t, x, av)))
            s0 = np.linalg.norm(self.common_diffusion(t))
            fv = np.abs(self.running_cost(t, x, ens, av)).max()
            gv = np.abs(self.terminal_cost(x, ens)).max()
            sup["b"] = max(sup["b"], float(bv))
            sup["sigma"] = max(sup["sigma"], float(np.abs(self.diffusion(t, x, av)).max() * self.d))
            sup["sigma0"] = max(sup["sigma0"], float(s0))
            sup["f"] = max(sup["f"], float(fv))
            sup["g"] = max(sup["g"], float(gv))
            # Lipschitz in x and in the measure along translations
            dx = rng.standard_normal(self.d) * 0.1
            shift = rng.standard_normal(self.d) * 0.1
            ens2 = ParticleEnsemble(ens.points + shift)
            b1 = self.drift(t, x, ens, av)
            b2 = self.drift(t, x + dx, ens2, av)
            denom = np.linalg.norm(dx) + np.linalg.norm(shift)
            lip = max(lip, float(np.linalg.norm(b2 - b1, axis=1).max() / denom))
        tol = 1.0 + 1e-9
        for key, val in sup.items():
            if val > self.K * tol:
                raise ValueError(f"bound violation: sup |{key}| = {val:.4g} > K = {self.K}")
        if lip > self.K * tol:
            raise ValueError(f"Lipschitz violation: {lip:.4g} > K = {self.K}")
        return {"sup": sup, "lipschitz": lip}


def cost_j(
    coeffs: CoefficientSet,
    init: ParticleEnsemble,
    policy: StepControl,
    cfg: SimConfig,
    paths: int = 32,
    path_offset: int = 0,
    noise_ids: np.ndarray | None = None,
) -> dict:
    """Monte Carlo cost: left-Riemann running cost plus terminal cost,
    averaged over particles (exactly, via fsum) and over common-noise paths.

    The particle reduction uses exact summation, so the estimate is invariant
    under joint permutations of initial points and noise identities.
    """

    def one_path(p: int) -> float:
        bundle = simulate(coeffs, init, policy, cfg, path_index=path_offset + p, noise_ids=noise_ids)
        running = np.zeros(init.n)
        for k in range(cfg.steps):
            t = float(bundle.times[k])
            x = bundle.trajectories[k]
            ens = ParticleEnsemble(x)
            running += coeffs.running_cost(t, x, ens, bundle.controls_used[k]) * cfg.dt
        terminal = coeffs.terminal_cost(bundle.trajectories[-1], bundle.terminal)
        return math.fsum(running + terminal) / init.n

    # one path's bundle is freed before the next is simulated
    per_path = np.empty(paths)
    for p in range(paths):
        per_path[p] = one_path(p)
    mean = math.fsum(per_path) / paths
    stderr = float(per_path.std(ddof=1) / math.sqrt(paths)) if paths > 1 else float("inf")
    return {"mean": float(mean), "stderr": stderr, "per_path": per_path}


@dataclass(frozen=True)
class SearchSpec:
    """Finite policy class for value estimation.

    actions: explicit list of action vectors, or None for the vertices of the
    action box.  n_intervals pieces split the horizon evenly; "exhaustive"
    enumerates every per-piece assignment, "feedback_ascent" runs coordinate
    ascent over a spatial feedback table (one piece).
    """

    actions: tuple | None = None
    n_intervals: int = 1
    kind: str = "exhaustive"
    feedback_shape: tuple = (2,)
    feedback_lo: np.ndarray | None = None
    feedback_hi: np.ndarray | None = None
    sweeps: int = 2

    def action_list(self, space: ActionSpace) -> list:
        if self.actions is not None:
            return [np.asarray(a, dtype=float).ravel() for a in self.actions]
        return space.vertices()


def _exhaustive_policies(spec: SearchSpec, space: ActionSpace, t0: float, t1: float):
    acts = spec.action_list(space)
    cuts = t0 + (t1 - t0) * np.arange(spec.n_intervals) / spec.n_intervals
    for combo in itertools.product(acts, repeat=spec.n_intervals):
        yield StepControl(cuts, tuple(combo))


def value_estimate(
    coeffs: CoefficientSet,
    init: ParticleEnsemble,
    cfg: SimConfig,
    search: SearchSpec,
    paths: int = 32,
    path_offset: int = 0,
) -> dict:
    """Maximize the Monte Carlo cost over the policy class.

    All candidates are evaluated on the same noise (common random numbers),
    so policy comparisons are exact whenever the pathwise cost difference is
    noise-free (e.g. action-independent diffusion).  Returns the best value,
    the maximizing policy, and the full evaluation trace.
    """
    if search.kind == "feedback_ascent":
        return _feedback_ascent(coeffs, init, cfg, search, paths, path_offset)
    trace = []
    best = None
    for policy in _exhaustive_policies(search, coeffs.action_space, cfg.t0, cfg.t1):
        rec = cost_j(coeffs, init, policy, cfg, paths, path_offset)
        trace.append({"policy": policy.describe(), "mean": rec["mean"], "stderr": rec["stderr"]})
        if best is None or rec["mean"] > best[0]:
            best = (rec["mean"], policy, rec["stderr"])
    if best is None:
        raise ValueError("empty policy class")
    return {"value": best[0], "best_policy": best[1], "stderr": best[2], "trace": trace}


def _feedback_ascent(coeffs, init, cfg, search, paths, path_offset) -> dict:
    acts = search.action_list(coeffs.action_space)
    lo = np.asarray(search.feedback_lo, dtype=float)
    hi = np.asarray(search.feedback_hi, dtype=float)
    q = acts[0].shape[0]
    shape = tuple(search.feedback_shape)
    table = np.tile(np.mean(acts, axis=0), shape + (1,))
    trace = []

    def evaluate(tab):
        policy = StepControl(np.array([cfg.t0]), (FeedbackTable(lo, hi, tab),))
        return cost_j(coeffs, init, policy, cfg, paths, path_offset)["mean"], policy

    current, policy = evaluate(table)
    for _ in range(search.sweeps):
        improved = False
        for cell in itertools.product(*[range(c) for c in shape]):
            for a in acts:
                trial = table.copy()
                trial[cell] = a
                val, pol = evaluate(trial)
                trace.append({"policy": pol.describe(), "mean": val, "stderr": float("nan")})
                if val > current:
                    current, policy, table = val, pol, trial
                    improved = True
        if not improved:
            break
    return {"value": current, "best_policy": policy, "stderr": float("nan"), "trace": trace}


def value_fd_approx(
    coeffs: CoefficientSet,
    mu_spec: dict,
    t: float,
    eps: float,
    n: int,
    m: int,
    cfg: SimConfig,
    search: SearchSpec,
    paths: int = 32,
    resamples: int = 3,
    offsets: int = 64,
    seed: int = 0,
) -> dict:
    """Finite-dimensional value approximation with mollified coefficients.

    Runs value_estimate on the n-particle system driven by the smoothing-
    index-m mollified coefficients and an eps-perturbing idiosyncratic
    Brownian motion, with initial points drawn i.i.d. from mu_spec; the
    product-measure integration over the initial law is estimated by
    averaging over resampled initial clouds.
    """
    from mfhjb.mollify import MollifiedCoefficients, MollifierSpec

    spec = MollifierSpec(m=m, offsets=offsets, seed=seed + 7)
    vals = []
    for r in range(resamples):
        init = sample_iid(mu_spec, n, coeffs.d, seed=seed + 1000 * r)
        mol = MollifiedCoefficients(coeffs, spec, n, horizon=cfg.t1)
        run_cfg = cfg.replace(n=n, epsilon=eps, seed=cfg.seed + r)
        rec = value_estimate(mol, init, run_cfg, search, paths)
        vals.append(rec["value"])
    mean = float(np.mean(vals))
    spread = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return {"value": mean, "stderr": spread, "per_resample": vals}


def dpp_residual(
    coeffs: CoefficientSet,
    init: ParticleEnsemble,
    t: float,
    s_mid: float,
    t1: float,
    search: SearchSpec,
    n_steps: int = 24,
    paths_outer: int = 24,
    paths_inner: int = 16,
    seed: int = 0,
) -> dict:
    """One-step dynamic programming residual.

    lhs estimates the value on [t, t1]; rhs maximizes, over first-leg
    policies, the running cost on [t, s_mid] plus the value re-estimated from
    the realized conditional cloud at s_mid (a fresh estimate per common-noise
    path, since the continuation value is a function of the W^0-conditional
    law).  The gap lhs - rhs should vanish within Monte Carlo error.
    """
    if not (t < s_mid < t1):
        raise ValueError("need t < s_mid < t1")
    n = init.n
    steps_total = n_steps
    steps_leg = max(1, int(round(steps_total * (s_mid - t) / (t1 - t))))
    steps_tail = max(1, steps_total - steps_leg)

    cfg_full = SimConfig(n=n, steps=steps_total, t0=t, t1=t1, seed=seed)
    lhs_rec = value_estimate(coeffs, init, cfg_full, search, paths=paths_outer)

    cfg_leg = SimConfig(n=n, steps=steps_leg, t0=t, t1=s_mid, seed=seed + 17)
    best_rhs = None
    for leg_policy in _exhaustive_policies(search, coeffs.action_space, t, s_mid):
        totals = np.empty(paths_outer)
        for p in range(paths_outer):
            bundle = simulate(coeffs, init, leg_policy, cfg_leg, path_index=p)
            running = np.zeros(n)
            for k in range(cfg_leg.steps):
                tk = float(bundle.times[k])
                x = bundle.trajectories[k]
                running += coeffs.running_cost(
                    tk, x, ParticleEnsemble(x), bundle.controls_used[k]
                ) * cfg_leg.dt
            leg_cost = math.fsum(running) / n
            cfg_tail = SimConfig(
                n=n, steps=steps_tail, t0=s_mid, t1=t1, seed=seed + 31 * (p + 1)
            )
            cont = value_estimate(coeffs, bundle.terminal, cfg_tail, search, paths=paths_inner)
            totals[p] = leg_cost + cont["value"]
        mean = float(totals.mean())
        if best_rhs is None or mean > best_rhs[0]:
            best_rhs = (mean, totals, leg_policy)
    rhs, totals, best_leg = best_rhs
    rhs_stderr = float(totals.std(ddof=1) / math.sqrt(paths_outer))
    stderr = math.sqrt(lhs_rec["stderr"] ** 2 + rhs_stderr**2)
    return {
        "lhs": lhs_rec["value"],
        "rhs": rhs,
        "gap": lhs_rec["value"] - rhs,
        "stderr": stderr,
        "best_leg_policy": best_leg.describe(),
    }


def hjb_residual(
    coeffs: CoefficientSet,
    testfn: TestFunction,
    t: float,
    mu: ParticleEnsemble,
    action_grid: list | None = None,
) -> float:
    """Pointwise residual of the limiting equation at (t, mu):

        dt u + (1/n) sum_i max_a { f + b . dmu u(x_i)
                                   + (1/2) tr(sigma sigma^T dxdmu u(x_i)) }
             + (1/2) tr(sigma0 sigma0^T H u).

    The inner maximum is exact enumeration over the supplied action grid
    (defaults to the vertices of the action box, which is exact for
    Hamiltonians affine in the action).
    """
    actions = action_grid if action_grid is not None else coeffs.action_space.vertices()
    if not actions:
        raise ValueError("empty action grid")
    x = mu.points
    n = mu.n
    dmu = testfn.dmu(t, mu)
    dxdmu = testfn.dxdmu(t, mu)
    ham = np.full(n, -np.inf)
    for a in actions:
        av = np.broadcast_to(np.asarray(a, dtype=float).ravel(), (n, np.size(a)))
        fv = coeffs.running_cost(t, x, mu, av)
        bv = coeffs.drift(t, x, mu, av)
        sig = np.asarray(coeffs.diffusion(t, x, av), dtype=float)
        if sig.ndim == 2:
            ssT = sig @ sig.T
            tr = np.einsum("nij,ji->n", dxdmu, ssT)
        else:
            tr = np.einsum("nij,nkj,nik->n", sig, sig, dxdmu)
        ham = np.maximum(ham, fv + np.sum(bv * dmu, axis=1) + 0.5 * tr)
    sig0 = coeffs.common_diffusion(t)
    h_term = 0.5 * float(np.trace(testfn.h_op(t, mu) @ sig0 @ sig0.T))
    return float(testfn.dt(t, mu) + math.fsum(ham) / n + h_term)


def viscosity_check(
    coeffs: CoefficientSet,
    candidate: TestFunction,
    probes: list,
    quad,
    action_grid: list | None = None,
    gauge_scales: tuple = (0.0, 0.5, 1.0),
    tol: float = 1e-9,
) -> dict:
    """Sign checks of the sub/supersolution inequalities at probe points.

    At each probe (t0, mu0) the candidate is touched by gauge perturbations
    u +- c * rho(., (t0, mu0)): the perturbation and its first derivatives
    vanish at the probe while its translation Hessian contributes c * H_gauge,
    so the composite residual is residual(u) +- c/2 tr(sigma0 sigma0^T H_gauge).
    Touching from above (maximum of u - test fn) must keep the residual >= 0
    (subsolution direction); from below, <= 0 (supersolution direction).
    """
    from mfhjb.sliced_gauge import h_gauge

    hg = h_gauge(coeffs.d, quad)
    report = []
    for t0, mu0 in probes:
        base = hjb_residual(coeffs, candidate, t0, mu0, action_grid)
        sig0 = coeffs.common_diffusion(t0)
        bump = 0.5 * float(np.trace(hg @ sig0 @ sig0.T))
        sub_ok = all(base + c * bump >= -tol for c in gauge_scales)
        super_ok = all(base - c * bump <= tol for c in gauge_scales)
        report.append(
            {"t": t0, "residual": base, "sub_ok": bool(sub_ok), "super_ok": bool(super_ok)}
        )
    return {
        "probes": report,
        "sub_all": all(r["sub_ok"] for r in report),
        "super_all": all(r["super_ok"] for r in report),
    }
