"""Cost functionals, value estimation by policy search, and residual checks
for the dynamic programming principle and the limiting HJB equation.

The admissible controls are step controls: piecewise constant in time, one
fixed action per piece.  Value estimation maximizes the Monte Carlo cost
over a finite policy class with common random numbers across the policies,
so it lower-bounds the true value by construction and attains it when the
optimum lies in the class (as in the linear-drift scenario, where the
optimal control is a vertex of the action box).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from mfhjb.budget import chunks
from mfhjb.dynamics import SimConfig, _check_counts, _generator, _stderr, simulate
from mfhjb.measures import ParticleEnsemble, sample_iid
from mfhjb.mollify import MollifiedCoefficients, MollifierSpec

__all__ = [
    "ActionSpace",
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
    "Feature",
    "COORDINATES",
    "cylindrical",
]


@dataclass(frozen=True)
class ActionSpace:
    """The box [lo, hi] of actions; a finite action list is a SearchSpec's."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).ravel()
        hi = np.asarray(self.hi, dtype=float).ravel()
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box needs lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def vertices(self) -> list:
        corners = itertools.product(*[(l, h) for l, h in zip(self.lo, self.hi)])
        return [np.array(c) for c in corners]


@dataclass(frozen=True)
class StepControl:
    """Piecewise-constant-in-time control: breakpoints and one fixed action
    per piece.

    ``breakpoints[0]`` is the start of the horizon; piece i applies on
    [breakpoints[i], breakpoints[i+1]) and the last piece runs to the end.
    Each action is kept as a read-only copy raveled to a float vector.
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
        actions = tuple(np.array(a, dtype=float).ravel() for a in self.actions)
        for a in actions:
            a.setflags(write=False)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "_starts", tuple(bp.tolist()))

    @staticmethod
    def constant(t0: float, a) -> "StepControl":
        return StepControl(np.array([t0]), (a,))

    def piece(self, t: float) -> int:
        """The index of the piece in force at time t; the first before the start."""
        return max(bisect.bisect_right(self._starts, t + 1e-12) - 1, 0)

    def describe(self) -> str:
        parts = [f"t>={t:.3g}: {np.round(a, 6).tolist()}" for t, a in zip(self.breakpoints, self.actions)]
        return "; ".join(parts)


@dataclass(frozen=True)
class TestFunction:
    """A test function u(t, mu) with its derivative evaluators; every
    closed-form one is built by ``cylindrical``.

    Like the coefficients, every field takes plain arrays: ``cloud`` has shape
    (..., n, d) and holds the particles of the empirical measure, and ``t`` is
    a float or an array of shape ``cloud.shape[:-2]``:

        value(t, cloud) -> batch shape (a scalar may broadcast)      u
        dt(t, cloud) -> batch shape (a scalar may broadcast)         dt u
        dmu(t, cloud) -> (..., n, d)                                 dmu u(x_i)
        dxdmu(t, cloud) -> (..., n, d, d)                            dxdmu u(x_i)
        d2mu(t, cloud) -> (..., n, n, d, d)                          d2mu u(x_i, x_j)
        h_op(t, cloud) -> (d, d) or (..., d, d)                      H u

    H u = mean_i dxdmu u(x_i) + mean_{i,j} d2mu u(x_i, x_j).  The arrays
    may be read-only broadcast views.
    """

    __test__ = False  # not a pytest case, despite the domain name

    value: callable
    dt: callable
    dmu: callable
    dxdmu: callable
    d2mu: callable
    h_op: callable


@dataclass(frozen=True)
class Feature:
    """A family of d features, one scalar function applied to each
    coordinate: g_a(x) = phi(x_a), so grad g_a(x) = dphi(x_a) e_a and
    hess g_a(x) = d2phi(x_a) e_a e_a^T.  Each maps an array elementwise; a
    derivative that does not depend on x is a number, which is read without
    evaluating anything at the particles."""

    phi: callable
    dphi: callable | float
    d2phi: callable | float


COORDINATES = Feature(lambda x: x, 1.0, 0.0)


def _particle_mean(values, d: int):
    # (..., n, d) -> (..., d) as contiguous last-axis sums, so a cloud inside
    # a batch gets the bits it gets alone; a number is its own mean in each
    # of the d coordinates
    if np.ndim(values) == 0:
        return np.full(d, values)
    return np.ascontiguousarray(np.swapaxes(values, -1, -2)).sum(axis=-1) / values.shape[-2]


def cylindrical(features, F, F_t, F_m, F_mm) -> TestFunction:
    """The cylindrical test function u(t, mu) = F(t, <g_1, mu>, ..., <g_K, mu>).

    ``features`` is a sequence of ``Feature`` families; coordinate a of family
    f is moment k = f d + a, so the moments m have shape (..., K) with
    K = len(features) d.  F, its t-derivative F_t, its gradient F_m (..., K)
    and its Hessian F_mm (..., K, K) in the moments are each called as
    part(t, m), or given as a constant when they depend on neither.  Every
    derivative is derived once (Carmona & Delarue 2018, vol. I, ch. 5):

        dmu u(x)     = sum_k dF/dm_k grad g_k(x)
        dxdmu u(x)   = sum_k dF/dm_k hess g_k(x)
        d2mu u(x, y) = sum_{k,l} d2F/dm_k dm_l grad g_k(x) grad g_l(y)^T
        H u          = sum_k dF/dm_k mean_i hess g_k(x_i)
                       + sum_{k,l} d2F/dm_k dm_l mean_i grad g_k(x_i) mean_j grad g_l(x_j)^T,

    so H comes from feature means, never from the (n, n, d, d) array.  A
    field computes the moments only when a part of F it reads is callable,
    and H skips the feature means that only constant zero blocks of F_mm
    would read.  Particle means are last-axis sums and every other operation
    is elementwise, so each cloud of a batch gets the bits it gets alone.
    """
    features = tuple(features)
    if not features:
        raise ValueError("a cylindrical test function needs at least one feature family")
    nf = len(features)
    curved = [f for f, feat in enumerate(features) if callable(feat.d2phi) or feat.d2phi != 0.0]

    def at(part, t, cloud):
        # a part of F at t and the moments of cloud; a constant part reads none
        if not callable(part):
            return part
        return part(t, np.concatenate([_particle_mean(f.phi(cloud), cloud.shape[-1]) for f in features], axis=-1))

    def by_family(part, t, cloud, axes):
        # F_m or F_mm with each of its last ``axes`` moment axes split into (family, coordinate)
        c = np.asarray(at(part, t, cloud), dtype=float)
        return c.reshape(c.shape[: c.ndim - axes] + (nf, cloud.shape[-1]) * axes)

    def of(derivative, cloud):
        return derivative(cloud) if callable(derivative) else derivative

    def mean_of(derivative, cloud):
        return _particle_mean(of(derivative, cloud), cloud.shape[-1])

    def scaled(c, derivative, cloud):
        # sum_a c_a derivative(x_a) e_a at each particle, (..., n, d), or
        # (..., 1, d) for a constant derivative; the product with diag(c) is
        # exact, and fast where numpy broadcasts over a short last axis slowly
        if callable(derivative):
            return derivative(cloud) @ (c[..., None] * np.eye(c.shape[-1]))
        return c[..., None, :] * derivative

    def dmu(t, cloud):
        c = by_family(F_m, t, cloud, 1)
        terms = [scaled(c[..., f, :], feat.dphi, cloud) for f, feat in enumerate(features)]
        return np.broadcast_to(sum(terms[1:], terms[0]), cloud.shape)

    def dxdmu(t, cloud):
        diag = 0.0
        if curved:
            c = by_family(F_m, t, cloud, 1)
            diag = sum(scaled(c[..., f, :], features[f].d2phi, cloud) for f in curved)
        d = cloud.shape[-1]
        return np.broadcast_to(np.asarray(diag)[..., None] * np.eye(d), cloud.shape + (d,))

    def d2mu(t, cloud):
        n, d = cloud.shape[-2:]
        blocks = by_family(F_mm, t, cloud, 2)[..., None, None, :, :, :, :]
        grads = [np.broadcast_to(of(feat.dphi, cloud), cloud.shape) for feat in features]
        full = sum(
            blocks[..., f, :, g, :] * grads[f][..., :, None, :, None] * grads[g][..., None, :, None, :]
            for f, g in itertools.product(range(nf), repeat=2)
        )
        return np.broadcast_to(full, cloud.shape[:-2] + (n, n, d, d))

    def h_op(t, cloud):
        diag = 0.0
        if curved:
            c = by_family(F_m, t, cloud, 1)
            diag = sum(c[..., f, :] * mean_of(features[f].d2phi, cloud) for f in curved)
        h = np.asarray(diag)[..., None] * np.eye(cloud.shape[-1])
        blocks = by_family(F_mm, t, cloud, 2)
        pairs = [
            (f, g) for f, g in itertools.product(range(nf), repeat=2)
            if callable(F_mm) or blocks[..., f, :, g, :].any()
        ]
        means = {f: mean_of(features[f].dphi, cloud) for pair in pairs for f in pair}
        for f, g in pairs:
            h = h + blocks[..., f, :, g, :] * means[f][..., :, None] * means[g][..., None, :]
        return h

    return TestFunction(
        value=lambda t, cloud: at(F, t, cloud),
        dt=lambda t, cloud: at(F_t, t, cloud),
        dmu=dmu,
        dxdmu=dxdmu,
        d2mu=d2mu,
        h_op=h_op,
    )


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

    def validate(self, seed: int = 0) -> dict:
        """Spot-check the advertised bound K and Lipschitz constants.

        Bounds are tested on 200 random probes at times in [0, 1] and actions
        at the box vertices; Lipschitz continuity is tested on translated
        measure pairs, where the W2 distance is exactly the shift length.
        Raises on violation.
        """
        rng = np.random.default_rng(seed)
        acts = self.action_space.vertices()
        probes = []
        for _ in range(200):  # drawn one probe at a time, evaluated as one batch
            t = rng.uniform(0, 1.0)
            x = rng.standard_normal((4, self.d)) * rng.uniform(0.5, 3.0)
            cloud = rng.standard_normal((5, self.d))
            a = acts[rng.integers(len(acts))]
            dx = rng.standard_normal(self.d) * 0.1
            shift = rng.standard_normal(self.d) * 0.1
            probes.append((t, x, cloud, np.broadcast_to(a, (4, a.shape[0])), dx, shift))
        t, x, cloud, av, dx, shift = map(np.stack, zip(*probes))
        b1 = self.drift(t, x, cloud, av)
        s0 = np.reshape(self.common_diffusion(t), (-1, self.d, self.d))  # shared, or one per probe
        sup = {
            "b": float(np.linalg.norm(b1, axis=-1).max()),
            "sigma": float(np.abs(self.diffusion(t, x, av)).max() * self.d),
            "sigma0": max(float(np.linalg.norm(m)) for m in s0),
            "f": float(np.abs(self.running_cost(t, x, cloud, av)).max()),
            "g": float(np.abs(self.terminal_cost(x, cloud)).max()),
        }
        # Lipschitz in x and in the measure along translations
        b2 = self.drift(t, x + dx[:, None], cloud + shift[:, None], av)
        denom = np.linalg.norm(dx, axis=-1) + np.linalg.norm(shift, axis=-1)
        lip = float((np.linalg.norm(b2 - b1, axis=-1).max(axis=-1) / denom).max())
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
    noise_ids: np.ndarray | None = None,
) -> dict:
    """Monte Carlo cost: the left-Riemann running cost ``simulate`` integrates
    plus the terminal cost, averaged over particles (exactly, via fsum) and
    over common-noise paths.

    The particle reduction uses exact summation, so the estimate is invariant
    under joint permutations of initial points and noise identities.  This is
    the one-candidate case of the batched pass ``value_estimate`` makes.
    """
    _check_counts(paths=paths)
    per_path = _cost_paths(coeffs, init, (policy,), cfg, paths, noise_ids)[0, 0]
    return {"mean": _mean(per_path), "stderr": _stderr(per_path), "per_path": per_path}


def _passes(coeffs, init, policies: tuple, cfg, paths, noise_ids=None, starts=None):
    """``simulate`` over paths 0 .. paths - 1, one pass per "monte_carlo"
    chunk of paths: yields each chunk's path range, running costs
    (P, L, A, n) and terminal states."""
    clouds = init.points[None] if starts is None else starts
    for sl in chunks(paths, clouds.size * len(policies), "monte_carlo"):
        chunk = range(sl.start, sl.stop)
        yield (chunk, *simulate(coeffs, init, policies, cfg, chunk, noise_ids, starts=clouds))


def _cost_paths(coeffs, init, policies: tuple, cfg, paths, noise_ids, starts=None) -> np.ndarray:
    """Per-path costs, shape (L, A, paths), of A policies from L start clouds
    (one, init's, when ``starts`` is None): one pass per chunk of paths, each
    path on its own noise, each row's particle mean summed exactly."""
    per_path = np.empty((1 if starts is None else len(starts), len(policies), paths))
    for chunk, running, x in _passes(coeffs, init, policies, cfg, paths, noise_ids, starts):
        costs = running + coeffs.terminal_cost(x, x)
        for idx in np.ndindex(costs.shape[:-1]):
            per_path[idx[1:] + (chunk[idx[0]],)] = math.fsum(costs[idx].tolist()) / init.n
    return per_path


def _mean(per_path: np.ndarray) -> float:
    return math.fsum(per_path) / per_path.shape[0]


@dataclass(frozen=True)
class SearchSpec:
    """Finite policy class for value estimation: n_intervals pieces split the
    horizon evenly, and every assignment of an action to each piece is a
    policy.

    actions: explicit list of action vectors, or None for the vertices of the
    action box.
    """

    actions: tuple | None = None
    n_intervals: int = 1

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
) -> dict:
    """Maximize the Monte Carlo cost over the policy class.

    All policies are evaluated on the same noise (common random numbers),
    so policy comparisons are exact whenever the pathwise cost difference is
    noise-free (e.g. action-independent diffusion).  The search draws that
    noise once: each chunk of paths simulates every candidate in one
    batched pass, and each candidate's cost is bit-identical to
    ``cost_j``'s.
    Returns the best value (the first of equal maxima), the maximizing
    policy, and the full evaluation trace in enumeration order.
    """
    _check_counts(paths=paths)
    policies = tuple(_exhaustive_policies(search, coeffs.action_space, cfg.t0, cfg.t1))
    if not policies:
        raise ValueError("empty policy class")
    per_path = _cost_paths(coeffs, init, policies, cfg, paths, None)[0]
    trace = [
        {"policy": policy.describe(), "mean": _mean(row), "stderr": _stderr(row)}
        for policy, row in zip(policies, per_path)
    ]
    best = max(range(len(trace)), key=lambda i: trace[i]["mean"])  # the first of equal maxima
    return {
        "value": trace[best]["mean"],
        "best_policy": policies[best],
        "stderr": trace[best]["stderr"],
        "trace": trace,
    }


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
    averaging over resampled initial clouds.  The runs start at cfg.t0, so
    a t other than cfg.t0 raises ValueError.
    """
    if t != cfg.t0:
        raise ValueError(f"value_fd_approx starts at cfg.t0 = {cfg.t0}, got t = {t}")
    _check_counts(paths=paths, resamples=resamples)
    # the offsets depend only on the spec and n, so one coefficient set serves every resample
    mol = MollifiedCoefficients(coeffs, MollifierSpec(m=m, offsets=offsets, seed=seed + 7), n, horizon=cfg.t1)
    vals = []
    for r in range(resamples):
        init = sample_iid(mu_spec, n, coeffs.d, seed=seed + 1000 * r)
        run_cfg = replace(cfg, n=n, epsilon=eps, seed=cfg.seed + r)
        rec = value_estimate(mol, init, run_cfg, search, paths)
        vals.append(rec["value"])
    return {"value": float(np.mean(vals)), "stderr": _stderr(np.asarray(vals)), "per_resample": vals}


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
    single outer path its standard error is inf, as in ``cost_j``.

    The n_steps grid splits into a leg of round(n_steps (s_mid - t) / (t1 -
    t)) steps, kept in [1, n_steps - 1], and a tail of the rest.  The lhs
    search and the legs run in chunked passes over the outer paths; per
    outer path the tails of every leg cloud, tail policy and inner path
    share passes, bit-identical to estimating each cloud on its own.
    """
    if not (t < s_mid < t1):
        raise ValueError("need t < s_mid < t1")
    if n_steps < 2:
        raise ValueError("need n_steps >= 2: the leg and the tail take a step each")
    _check_counts(paths_outer=paths_outer, paths_inner=paths_inner)
    n = init.n
    steps_leg = min(max(1, int(round(n_steps * (s_mid - t) / (t1 - t)))), n_steps - 1)

    cfg_full = SimConfig(n=n, steps=n_steps, t0=t, t1=t1, seed=seed)
    lhs_rec = value_estimate(coeffs, init, cfg_full, search, paths=paths_outer)

    cfg_leg = SimConfig(n=n, steps=steps_leg, t0=t, t1=s_mid, seed=seed + 17)
    legs = tuple(_exhaustive_policies(search, coeffs.action_space, t, s_mid))
    tails = tuple(_exhaustive_policies(search, coeffs.action_space, s_mid, t1))
    totals = np.empty((len(legs), paths_outer))
    for chunk, running, clouds in _passes(coeffs, init, legs, cfg_leg, paths_outer):
        for p, leg_running, leg_clouds in zip(chunk, running[:, 0], clouds[:, 0]):
            cfg_tail = SimConfig(n=n, steps=n_steps - steps_leg, t0=s_mid, t1=t1, seed=seed + 31 * (p + 1))
            per_path = _cost_paths(coeffs, init, tails, cfg_tail, paths_inner, None, leg_clouds)
            cont = [max(_mean(row) for row in rows) for rows in per_path]
            for i, (r, c) in enumerate(zip(leg_running, cont)):
                totals[i, p] = math.fsum(r.tolist()) / n + c
    means = [float(leg_totals.mean()) for leg_totals in totals]
    best = max(range(len(legs)), key=means.__getitem__)
    return {
        "lhs": lhs_rec["value"],
        "rhs": means[best],
        "gap": lhs_rec["value"] - means[best],
        "stderr": math.sqrt(lhs_rec["stderr"] ** 2 + _stderr(totals[best]) ** 2),
        "best_leg_policy": legs[best].describe(),
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


def viscosity_check(coeffs: CoefficientSet, candidate: TestFunction, probes: list) -> dict:
    """Sign checks of the sub/supersolution inequalities at probe points.

    At each probe (t0, mu0) the residual of the candidate, maximized over the
    vertices of the action box, must be >= -tol where it touches from above
    (maximum of u - test fn, the subsolution direction) and <= tol where it
    touches from below (supersolution), with tol = 1e-9.
    """
    tol = 1e-9
    report = []
    for t0, mu0 in probes:
        residual = hjb_residual(coeffs, candidate, t0, mu0)
        report.append(
            {"t": t0, "residual": residual, "sub_ok": residual >= -tol, "super_ok": residual <= tol}
        )
    return {
        "probes": report,
        "sub_all": all(r["sub_ok"] for r in report),
        "super_all": all(r["super_ok"] for r in report),
    }
