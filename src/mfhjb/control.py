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

from mfhjb.dynamics import SimConfig, _generator, _half_trace, simulate
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

    Like the coefficients, every field takes plain arrays: ``cloud`` has shape
    (..., n, d) and holds the particles of the empirical measure, and ``t`` is
    a float or an array of shape ``cloud.shape[:-2]``:

        value(t, cloud) -> batch shape (a scalar may broadcast)      u
        dt(t, cloud) -> batch shape (a scalar may broadcast)         dt u
        dmu(t, cloud) -> (..., n, d)                                 dmu u(x_i)
        dxdmu(t, cloud) -> (..., n, d, d)                            dxdmu u(x_i)
        h_op(t, cloud) -> (d, d) or (..., d, d)                      H u

    ``d2mu(t, cloud) -> (n, n, d, d)`` is an optional full second measure
    derivative used only by the cross-check h_via_second_derivative.
    """

    __test__ = False  # not a pytest case, despite the domain name

    value: callable
    dt: callable
    dmu: callable
    dxdmu: callable
    h_op: callable
    d2mu: callable | None = None


def h_via_second_derivative(tf: TestFunction, t: float, ens: ParticleEnsemble) -> np.ndarray:
    """H u from the mixed and full second measure derivatives.

    On an ensemble, H u = mean_i dxdmu(x_i) + mean_{i,j} d2mu(x_i, x_j);
    available only when the caller supplies d2mu.
    """
    if tf.d2mu is None:
        raise ValueError("test function does not supply d2mu")
    mixed = tf.dxdmu(t, ens.points).mean(axis=0)
    full = tf.d2mu(t, ens.points).mean(axis=(0, 1))
    return mixed + full


@dataclass(frozen=True)
class CoefficientSet:
    """Scenario coefficients with advertised bounds.

    The fields are the paper's b, sigma, sigma0, f and g.  Each takes plain
    arrays and broadcasts over any leading batch axes (``...``): ``x`` and
    ``cloud`` have shape (..., n, d), where ``cloud`` holds the particles of
    the empirical measure, ``a`` has shape (..., n, q), and ``t`` is a float
    or an array of shape ``x.shape[:-2]``:

        drift(t, x, cloud, a) -> (..., n, d)                      b
        diffusion(t, x, a) -> (d, d) or (..., n, d, d)            sigma
        common_diffusion(t) -> (d, d) or t.shape + (d, d)         sigma0
        running_cost(t, x, cloud, a) -> (..., n)                  f
        terminal_cost(x, cloud) -> (..., n)                       g

    K bounds all five in absolute value; beta is the time Holder exponent.
    """

    drift: callable
    diffusion: callable
    common_diffusion: callable
    running_cost: callable
    terminal_cost: callable
    K: float
    beta: float
    action_space: ActionSpace
    d: int
    name: str = ""
    params: dict = field(default_factory=dict)

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
            cloud = rng.standard_normal((5, self.d))
            a = acts[rng.integers(len(acts))]
            av = np.broadcast_to(a, (4, a.shape[0]))
            b1 = self.drift(t, x, cloud, av)
            bv = np.linalg.norm(b1, axis=1).max()
            s0 = np.linalg.norm(self.common_diffusion(t))
            fv = np.abs(self.running_cost(t, x, cloud, av)).max()
            gv = np.abs(self.terminal_cost(x, cloud)).max()
            sup["b"] = max(sup["b"], float(bv))
            sup["sigma"] = max(sup["sigma"], float(np.abs(self.diffusion(t, x, av)).max() * self.d))
            sup["sigma0"] = max(sup["sigma0"], float(s0))
            sup["f"] = max(sup["f"], float(fv))
            sup["g"] = max(sup["g"], float(gv))
            # Lipschitz in x and in the measure along translations
            dx = rng.standard_normal(self.d) * 0.1
            shift = rng.standard_normal(self.d) * 0.1
            b2 = self.drift(t, x + dx, cloud + shift, av)
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
    """Monte Carlo cost: the left-Riemann running cost ``simulate`` integrates
    plus the terminal cost, averaged over particles (exactly, via fsum) and
    over common-noise paths.

    The particle reduction uses exact summation, so the estimate is invariant
    under joint permutations of initial points and noise identities.  This is
    the one-candidate case of the batched pass ``value_estimate`` makes.
    """
    per_path = _cost_paths(coeffs, init, (policy,), cfg, paths, path_offset, noise_ids)
    return _cost_summary(per_path[0])


def _cost_paths(coeffs, init, policies: tuple, cfg, paths, path_offset, noise_ids) -> np.ndarray:
    """Per-path costs, shape (A, paths), of A policies simulated together:
    one (A, n, d) pass per path on that path's single noise draw."""
    per_path = np.empty((len(policies), paths))
    for p in range(paths):
        running, x = simulate(coeffs, init, policies, cfg, path_offset + p, noise_ids)
        for i, row in enumerate(running + coeffs.terminal_cost(x, x)):
            per_path[i, p] = math.fsum(row) / init.n
    return per_path


def _cost_summary(per_path: np.ndarray) -> dict:
    mean = math.fsum(per_path) / per_path.shape[0]
    return {"mean": float(mean), "stderr": _stderr(per_path), "per_path": per_path}


def _stderr(samples: np.ndarray) -> float:
    # one sample gives no spread estimate
    k = samples.shape[0]
    return float(samples.std(ddof=1) / math.sqrt(k)) if k > 1 else float("inf")


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
    noise-free (e.g. action-independent diffusion).  The exhaustive search
    draws that noise once: each path simulates every candidate in one
    batched pass, and each candidate's cost is bit-identical to ``cost_j``'s.
    Returns the best value (the first of equal maxima), the maximizing
    policy, and the full evaluation trace in enumeration order.
    """
    if search.kind == "feedback_ascent":
        return _feedback_ascent(coeffs, init, cfg, search, paths, path_offset)
    policies = tuple(_exhaustive_policies(search, coeffs.action_space, cfg.t0, cfg.t1))
    if not policies:
        raise ValueError("empty policy class")
    per_path = _cost_paths(coeffs, init, policies, cfg, paths, path_offset, None)
    trace = []
    best = None
    for policy, row in zip(policies, per_path):
        rec = _cost_summary(row)
        trace.append({"policy": policy.describe(), "mean": rec["mean"], "stderr": rec["stderr"]})
        if best is None or rec["mean"] > best[0]:
            best = (rec["mean"], policy, rec["stderr"])
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
    law).  The gap lhs - rhs should vanish within Monte Carlo error; with a
    single outer path its standard error is inf, as in ``cost_j``.  Each
    outer path simulates every first-leg policy in one batched pass.
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
    legs = tuple(_exhaustive_policies(search, coeffs.action_space, t, s_mid))
    totals = np.empty((len(legs), paths_outer))
    for p in range(paths_outer):
        # every leg policy in one pass on this path's noise; each leg's tail
        # starts from its own cloud, so the tails run one by one
        running, clouds = simulate(coeffs, init, legs, cfg_leg, p)
        cfg_tail = SimConfig(n=n, steps=steps_tail, t0=s_mid, t1=t1, seed=seed + 31 * (p + 1))
        for i, (leg_running, cloud) in enumerate(zip(running, clouds)):
            cont = value_estimate(coeffs, ParticleEnsemble(cloud), cfg_tail, search, paths=paths_inner)
            totals[i, p] = math.fsum(leg_running) / n + cont["value"]
    best_rhs = None
    for leg_policy, leg_totals in zip(legs, totals):
        mean = float(leg_totals.mean())
        if best_rhs is None or mean > best_rhs[0]:
            best_rhs = (mean, leg_totals, leg_policy)
    rhs, leg_totals, best_leg = best_rhs
    stderr = math.sqrt(lhs_rec["stderr"] ** 2 + _stderr(leg_totals) ** 2)
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
    n, d = mu.n, mu.d
    acts = np.stack([np.asarray(a, dtype=float).ravel() for a in actions])  # (A, q)
    x = np.broadcast_to(mu.points, (len(acts), n, d))
    av = np.broadcast_to(acts[:, None, :], (len(acts), n, acts.shape[1]))
    per_particle, common = _generator(
        coeffs.drift(t, x, x, av),
        np.asarray(coeffs.diffusion(t, x, av), dtype=float),
        np.asarray(coeffs.common_diffusion(t), dtype=float),
        testfn.dmu(t, mu.points),
        testfn.dxdmu(t, mu.points),
        testfn.h_op(t, mu.points),
    )
    ham = (coeffs.running_cost(t, x, x, av) + per_particle).max(axis=0)
    return float(testfn.dt(t, mu.points) + math.fsum(ham) / n + common)


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
        bump = float(_half_trace(np.asarray(coeffs.common_diffusion(t0), dtype=float), hg))
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
