"""Euler-Maruyama simulation of controlled interacting particles with common
noise.

Each particle follows

    X_{k+1}^i = X_k^i + b(t_k, X_k^i, mu_k, a_k^i) dt
              + sigma(t_k, X_k^i, a_k^i) dW_k^i
              + sigma0(t_k) dW_k^0
              + eps dB_k^i,

where mu_k is the empirical measure of all n particles at step k: within one
realization of the shared path W^0 the cloud itself represents the
conditional law of the state given W^0.

Noise is drawn from counter-based (Philox) streams keyed by
(seed, channel, path, step).  Within a step's block, row i belongs to noise
identity i, so pairing two simulations on the same identities produces a
pathwise coupling, and permuting initial points together with their noise
identities permutes trajectories without changing any of them.  The common
channel is keyed by the main seed only, so runs that differ in their
idiosyncratic seed still share the identical W^0 path bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mfhjb.measures import ParticleEnsemble, translate

__all__ = [
    "SimConfig",
    "PathBundle",
    "noise_block",
    "simulate",
    "moment_checks",
    "ito_expectation_check",
]

_COMMON, _IDIO, _PERTURB = 0, 1, 2


@dataclass(frozen=True)
class SimConfig:
    """Grid, horizon, perturbation size and seeds for one particle system.

    ``noise_seed`` keys the idiosyncratic and perturbation channels and
    defaults to ``seed``; the common channel is always keyed by ``seed``.
    """

    n: int
    steps: int
    t0: float
    t1: float
    seed: int
    epsilon: float = 0.0
    noise_seed: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.steps < 1:
            raise ValueError("need n >= 1 and steps >= 1")
        if not (self.t0 < self.t1):
            raise ValueError("need t0 < t1")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.steps

    @property
    def idio_seed(self) -> int:
        return self.seed if self.noise_seed is None else self.noise_seed

    def replace(self, **kw) -> "SimConfig":
        from dataclasses import replace

        return replace(self, **kw)


@dataclass(frozen=True)
class PathBundle:
    """One realization: the shared increments, all trajectories, controls,
    and each particle's left-Riemann running cost sum_k f(t_k, X_k, mu_k, a_k) dt."""

    times: np.ndarray  # (steps + 1,)
    common_increments: np.ndarray  # (steps, d)
    trajectories: np.ndarray  # (steps + 1, n, d)
    controls_used: np.ndarray  # (steps, n, q)
    running: np.ndarray  # (n,)

    @property
    def terminal(self) -> ParticleEnsemble:
        return ParticleEnsemble(self.trajectories[-1])


class _NoiseStream:
    """The Philox stream of one (seed, channel), built once and re-keyed to
    the counter [0, 0, path, step] for each block.  Setting the state costs a
    fraction of building a generator, which also seeds a throwaway
    SeedSequence from the operating system's entropy."""

    def __init__(self, seed: int, channel: int):
        key = np.array([seed % 2**64, channel], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # a fresh generator's state: empty buffer (buffer_pos 4), no cached
        # 32-bit half (has_uint32 0), so only the counter changes per block
        self._state = self._gen.bit_generator.state
        self._counter = self._state["state"]["counter"]

    def block(self, path: int, step: int, rows: int, d: int) -> np.ndarray:
        self._counter[2:] = path, step
        self._gen.bit_generator.state = self._state
        return self._gen.standard_normal((rows, d))


def noise_block(seed: int, channel: int, path: int, step: int, rows: int, d: int) -> np.ndarray:
    """Standard normal block for one (channel, path, step); row i is the draw
    for noise identity i.  Fully determined by the key, independent of how
    many rows are requested (leading rows coincide across calls)."""
    return _NoiseStream(seed, channel).block(path, step, rows, d)


def _diffuse(sig: np.ndarray, dw: np.ndarray) -> np.ndarray:
    # sig (d, d) shared: applied to the (n, d) increments once, broadcast over
    # the batch; or (..., n, d, d) per particle
    if sig.ndim == 2:
        return dw @ sig.T
    return np.einsum("...ij,...j->...i", sig, dw)


def _half_trace(sig: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(1/2) tr(sig sig^T m) over the broadcast batch axes of sig (..., d, d)
    and m (..., d, d); either may be a single (d, d) matrix."""
    ssT = sig @ np.swapaxes(sig, -1, -2)
    return 0.5 * np.einsum("...ij,...ji->...", m, ssT)


def _generator(drift, sig, sig0, dmu, dxdmu, h):
    """The chain rule's generator without dt u, from evaluated arrays.

    Returns the per-particle term b . dmu u + (1/2) tr(sigma sigma^T dxdmu u),
    shape (..., n), and the common-noise term (1/2) tr(sigma0 sigma0^T H u), of
    the batch shape.  ``drift`` and ``dmu`` are (..., n, d); ``sig`` is (d, d)
    or (..., n, d, d); ``dxdmu`` is (..., n, d, d); ``sig0`` and ``h`` are
    (d, d) or (..., d, d).
    """
    per_particle = np.sum(dmu * drift, axis=-1) + _half_trace(sig, dxdmu)
    return per_particle, _half_trace(sig0, h)


def simulate(
    coeffs,
    init: ParticleEnsemble,
    policy,
    cfg: SimConfig,
    path_index: int = 0,
    noise_ids: np.ndarray | None = None,
) -> PathBundle | tuple[np.ndarray, np.ndarray]:
    """Run the Euler-Maruyama scheme for one common-noise realization.

    ``coeffs`` is a control.CoefficientSet, called with the current state as
    its own cloud; ``policy.actions_at(t, X)`` supplies the per-particle
    actions.  The running cost is integrated along the way.  Any non-finite
    state aborts with the step index.

    One policy returns its whole path as a PathBundle.  A tuple of A policies
    is advanced as one (A, n, d) state on one noise draw per step, shared by
    every candidate (common random numbers); it returns only the running
    costs (A, n) and the terminal states (A, n, d), with no history.  Either
    way a candidate's numbers are bit-identical to simulating it alone,
    because the coefficients treat batch rows independently.
    """
    if isinstance(policy, tuple):
        return _euler(coeffs, init, policy, cfg, path_index, noise_ids, record=False)
    return _euler(coeffs, init, (policy,), cfg, path_index, noise_ids, record=True)


def _actions(policy, t: float, x: np.ndarray) -> np.ndarray:
    # one action row may stand for all n particles
    a = np.atleast_2d(policy.actions_at(t, x))
    return np.broadcast_to(a, (x.shape[0], a.shape[-1]))


def _euler(coeffs, init, policies, cfg, path_index, noise_ids, record):
    """The one Euler-Maruyama loop behind ``simulate``: the policies' states
    advance together as (A, n, d), and ``record`` keeps the A = 1 path."""
    n, d = init.n, init.d
    dt = cfg.dt
    sq = math.sqrt(dt)
    ids = np.arange(n) if noise_ids is None else np.asarray(noise_ids, dtype=int)
    if ids.shape != (n,):
        raise ValueError("noise_ids must have one entry per particle")
    rows = int(ids.max()) + 1
    common_noise = _NoiseStream(cfg.seed, _COMMON)
    idio_noise = _NoiseStream(cfg.idio_seed, _IDIO)
    perturb_noise = _NoiseStream(cfg.idio_seed, _PERTURB) if cfg.epsilon > 0.0 else None

    times = cfg.t0 + dt * np.arange(cfg.steps + 1)
    if record:
        traj = np.empty((cfg.steps + 1, n, d))
        traj[0] = init.points
        common = np.empty((cfg.steps, d))
        controls = None
    running = np.zeros((len(policies), n))

    x = np.repeat(init.points[None], len(policies), axis=0)
    for k in range(cfg.steps):
        t = float(times[k])
        a = np.stack([_actions(pol, t, xi) for pol, xi in zip(policies, x)], dtype=float)
        running += coeffs.running_cost(t, x, x, a) * dt

        dw0 = sq * common_noise.block(path_index, k, 1, d)[0]
        dw = sq * idio_noise.block(path_index, k, rows, d)[ids]

        x = (
            x
            + coeffs.drift(t, x, x, a) * dt
            + _diffuse(np.asarray(coeffs.diffusion(t, x, a), dtype=float), dw)
            + dw0 @ np.asarray(coeffs.common_diffusion(t), dtype=float).T
        )
        if perturb_noise is not None:
            db = sq * perturb_noise.block(path_index, k, rows, d)[ids]
            x = x + cfg.epsilon * db
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite state at step {k + 1} (t = {t + dt:.6g})")
        if record:
            if controls is None:
                controls = np.empty((cfg.steps, n, a.shape[-1]))
            controls[k] = a[0]
            common[k] = dw0
            traj[k + 1] = x[0]

    if record:
        return PathBundle(times, common, traj, controls, running[0])
    return running, x


def moment_checks(
    coeffs,
    init: ParticleEnsemble,
    policy,
    cfg: SimConfig,
    p: float = 2.0,
    shift: np.ndarray | None = None,
    h_fractions: tuple = (0.25, 0.5, 1.0),
) -> dict:
    """Empirical constants for the three a priori moment estimates.

    c_growth  bounds E[sup |X|^p]^(1/p) / (1 + E|xi|^p)^(1/p);
    c_lip     bounds E[sup |X - X'|^p]^(1/p) / (E|xi - xi'|^p)^(1/p) for a
              paired run started from a shifted cloud on the same noise;
    c_holder  bounds E[sup_{[t0, t0+h]} |X - xi|^2] / h over sub-horizons.
    """
    bundle = simulate(coeffs, init, policy, cfg)
    sup_abs = np.abs(np.linalg.norm(bundle.trajectories, axis=2)).max(axis=0)  # (n,)
    e_sup = float(np.mean(sup_abs**p))
    e_init = float(np.mean(np.linalg.norm(init.points, axis=1) ** p))
    c_growth = (e_sup / (1.0 + e_init)) ** (1.0 / p)

    c_lip = None
    if shift is not None:
        shift = np.asarray(shift, dtype=float)
        other = simulate(coeffs, translate(init, shift), policy, cfg)
        diffs = np.linalg.norm(bundle.trajectories - other.trajectories, axis=2).max(axis=0)
        c_lip = float(np.mean(diffs**p) ** (1.0 / p) / np.linalg.norm(shift))

    c_holder = {}
    disp = np.linalg.norm(bundle.trajectories - init.points[None], axis=2)  # (steps+1, n)
    for frac in h_fractions:
        k_h = max(1, int(round(frac * cfg.steps)))
        h = k_h * cfg.dt
        e_disp = float(np.mean(disp[: k_h + 1].max(axis=0) ** 2))
        c_holder[h] = e_disp / h

    return {"c_growth": c_growth, "c_lip": c_lip, "c_holder": c_holder, "bundle": bundle}


def ito_expectation_check(
    coeffs,
    init: ParticleEnsemble,
    testfn,
    cfg: SimConfig,
    policy,
    paths: int = 64,
) -> dict:
    """Expectation-level check of the measure-flow chain rule.

    Per common-noise path, lhs_p = phi(t1, mu_{t1}) - phi(t0, mu_0) and rhs_p
    accumulates the drift terms

        dphi/dt + E^1[dmu phi . b] + (1/2) E^1 tr[dxdmu phi sigma sigma^T]
                + (1/2) tr[H phi sigma0 sigma0^T]

    over the time grid; the martingale part has zero mean and is omitted.
    The gap is the path average of lhs_p - rhs_p with its standard error.
    """
    diffs = np.empty(paths)
    lhs_vals = np.empty(paths)
    rhs_vals = np.empty(paths)
    for pidx in range(paths):
        bundle = simulate(coeffs, init, policy, cfg, path_index=pidx)
        traj = bundle.trajectories
        lhs = testfn.value(cfg.t1, traj[-1]) - testfn.value(cfg.t0, traj[0])
        t, x, a = bundle.times[:-1], traj[:-1], bundle.controls_used
        per_particle, common = _generator(
            coeffs.drift(t, x, x, a),
            np.asarray(coeffs.diffusion(t, x, a), dtype=float),
            np.asarray(coeffs.common_diffusion(t), dtype=float),
            testfn.dmu(t, x),
            testfn.dxdmu(t, x),
            testfn.h_op(t, x),
        )
        steps = cfg.dt * (testfn.dt(t, x) + per_particle.mean(axis=-1) + common)
        rhs = float(np.cumsum(steps)[-1])  # left to right, in step order
        lhs_vals[pidx] = lhs
        rhs_vals[pidx] = rhs
        diffs[pidx] = lhs - rhs
    gap = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(paths)) if paths > 1 else float("inf")
    return {
        "lhs": float(lhs_vals.mean()),
        "rhs": float(rhs_vals.mean()),
        "gap": gap,
        "stderr": stderr,
    }
