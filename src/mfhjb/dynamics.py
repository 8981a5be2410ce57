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

The scheme is written once, as a generator over the steps that keeps
nothing itself.  It advances P paths of L start clouds under A policies as
one (P, L, A, n, d) state.  Its consumers fold it: ``simulate`` integrates
the running cost, ``moment_checks`` records the paths of a cloud and its
shifted copy, and ``ito_expectation_check`` adds the chain rule's drift
terms step by step from the coefficients the scheme applied.

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
from itertools import islice

import numpy as np

from mfhjb.measures import ParticleEnsemble, translate

__all__ = [
    "SimConfig",
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


class _NoiseStream:
    """The Philox stream of one (seed, channel), built once and re-keyed to
    the counter [0, 0, path, step] for each path's block.  Setting the state
    costs a fraction of building a generator, which also seeds a throwaway
    SeedSequence from the operating system's entropy."""

    def __init__(self, seed: int, channel: int):
        key = np.array([seed % 2**64, channel], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # a fresh generator's state: empty buffer (buffer_pos 4), no cached
        # 32-bit half (has_uint32 0), so only the counter changes per block
        self._state = self._gen.bit_generator.state
        self._counter = self._state["state"]["counter"]

    def blocks(self, paths, step: int, rows: int, d: int) -> np.ndarray:
        # each path's (rows, d) block at this step, drawn in place: (P, rows, d)
        out = np.empty((len(paths), rows, d))
        for block, path in zip(out, paths):
            self._counter[2:] = path, step
            self._gen.bit_generator.state = self._state
            self._gen.standard_normal(out=block)
        return out


def noise_block(seed: int, channel: int, path: int, step: int, rows: int, d: int) -> np.ndarray:
    """Standard normal block for one (channel, path, step); row i is the draw
    for noise identity i.  Fully determined by the key, independent of how
    many rows are requested (leading rows coincide across calls)."""
    return _NoiseStream(seed, channel).blocks((path,), step, rows, d)[0]


def _noise_rows(noise_ids, n: int) -> np.ndarray:
    """The noise identities of n particles: distinct non-negative integers,
    one per particle; particle i reads row noise_ids[i] of each block."""
    ids = np.asarray(noise_ids)
    if ids.shape != (n,):
        raise ValueError("noise_ids must have one entry per particle")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"noise_ids must be integers, got dtype {ids.dtype}")
    if ids.min() < 0:
        raise ValueError(f"noise_ids must be >= 0, got {int(ids.min())}")
    if np.unique(ids).size != n:
        raise ValueError("noise_ids must be distinct: two particles would share one noise identity")
    return ids


def _diffuse(sig: np.ndarray, dw: np.ndarray) -> np.ndarray:
    # sig (d, d) shared: applied to each path's (n, d) increments once,
    # broadcast over the batch; or (..., n, d, d) per particle
    if sig.ndim == 2:
        return dw @ sig.T
    return np.einsum("...ij,...j->...i", sig, dw)


def _half_trace(sig: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(1/2) tr(sig sig^T m) over the broadcast batch axes of sig (..., d, d)
    and m (..., d, d); either may be a single (d, d) matrix."""
    ssT = sig @ np.swapaxes(sig, -1, -2)
    return 0.5 * np.einsum("...ij,...ji->...", m, ssT)


def _check_counts(**counts) -> None:
    # Monte Carlo counts (paths, resamples, sample sizes) below 1 have no estimate to give
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count!r}")


def _stderr(samples: np.ndarray) -> float:
    # standard error of the mean over axis 0; one sample gives no spread estimate
    k = samples.shape[0]
    return float(samples.std(ddof=1) / math.sqrt(k)) if k > 1 else float("inf")


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
    policies: tuple,
    cfg: SimConfig,
    paths,
    noise_ids: np.ndarray | None = None,
    starts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the Euler-Maruyama scheme on common-noise realizations and
    integrate the left-Riemann running cost along them.

    ``coeffs`` is a control.CoefficientSet, called with the current state as
    its own cloud; each of the A ``policies``, control.StepControl objects,
    names its piece in force through ``piece(t)`` and holds that piece's (q,)
    action in ``actions``, and all are advanced as one state on one noise
    draw per step (common random numbers).  Each of the P ``paths``
    runs on its own noise; ``starts``, L start clouds (L, n, d) of init's
    size, replace init's points (L = 1 without them).  Returns the running
    costs (P, L, A, n) and terminal states (P, L, A, n, d).  Each row is
    bit-identical to its candidate simulated alone, because the coefficients
    treat batch rows independently.  Any non-finite state aborts with the
    step and path indices.
    """
    clouds = init.points[None] if starts is None else np.asarray(starts, dtype=float)
    if clouds.shape[1:] != init.points.shape:
        raise ValueError(f"start clouds {clouds.shape} do not stack clouds of shape {init.points.shape}")
    scheme = _euler(coeffs, clouds, policies, cfg, paths, noise_ids)
    running = np.zeros((len(paths), len(clouds), len(policies), init.n))
    for t, x, a, *_ in islice(scheme, cfg.steps):
        running += coeffs.running_cost(t, x, x, a) * cfg.dt
    return running, next(scheme)


def _euler(coeffs, starts, policies, cfg, paths, noise_ids):
    """The one Euler-Maruyama scheme: the P ``paths`` of the L start clouds
    ``starts`` (L, n, d) under A policies advance as one (P, L, A, n, d)
    state, each path on its own block per (channel, path, step), stacked
    along the path axis.  Yields (t_k, X_k, a_k, b_k, sigma_k, sigma0_k,
    dW0_k) for each step k before taking it, then the terminal state: a_k is
    (P, L, A, n, q), policy i's piece action ``actions[piece(t_k)]`` at
    every path, cloud and particle, the drift b_k (P, L, A, n, d), sigma_k
    (d, d) or (..., n, d, d), sigma0_k (d, d) and dW0_k (P, d).  The step is
    taken with exactly the yielded arrays.  Each state is a fresh C-ordered
    array, and a_k is the previous step's array while every policy stays in
    the same piece; nothing yielded is written afterwards, and consumers
    must not write it either.  A ``cfg.n`` other than the start clouds' n,
    and actions whose length is not the action space's dimension or that
    lie outside its box, raise ValueError.
    """
    n, d = starts.shape[-2:]
    if cfg.n != n:
        raise ValueError(f"cfg.n = {cfg.n}, but the start clouds hold {n} particles")
    space = coeffs.action_space
    dt = cfg.dt
    sq = math.sqrt(dt)
    ids, rows = None, n  # without noise_ids the blocks are used as drawn
    if noise_ids is not None:
        ids = _noise_rows(noise_ids, n)
        rows = int(ids.max()) + 1

    def increments(stream, k):
        # each path's block at step k scaled in place, then particle i's row
        # ids[i]: (P, 1, 1, n, d), broadcast over the clouds and policies
        block = stream.blocks(paths, k, rows, d)
        block *= sq
        return (block if ids is None else block.take(ids, axis=1))[:, None, None]

    common_noise = _NoiseStream(cfg.seed, _COMMON)
    idio_noise = _NoiseStream(cfg.idio_seed, _IDIO)
    perturb_noise = _NoiseStream(cfg.idio_seed, _PERTURB) if cfg.epsilon > 0.0 else None

    x = np.empty((len(paths), starts.shape[0], len(policies), n, d))
    x[...] = starts[:, None]
    pieces = None
    for k in range(cfg.steps):
        t = cfg.t0 + dt * k
        # a policy's action is fixed on each piece, so the actions are written
        # into a fresh C-ordered buffer only when some policy enters another
        # piece, each piece action checked before it is broadcast
        now = tuple(pol.piece(t) for pol in policies)
        if now != pieces:
            a = np.empty(x.shape[:-1] + (space.dim,))
            for i, (pol, piece) in enumerate(zip(policies, now)):
                act = pol.actions[piece]
                if act.size != space.dim:
                    raise ValueError(f"actions have {act.size} components, but the action space has {space.dim}")
                if not ((space.lo <= act) & (act <= space.hi)).all():
                    raise ValueError(f"action {act.tolist()} lies outside the action box "
                                     f"[{space.lo.tolist()}, {space.hi.tolist()}]")
                a[:, :, i] = act
            pieces = now
        b = coeffs.drift(t, x, x, a)
        sig = np.asarray(coeffs.diffusion(t, x, a), dtype=float)
        sig0 = np.asarray(coeffs.common_diffusion(t), dtype=float)
        dw0 = sq * common_noise.blocks(paths, k, 1, d)[:, 0]
        yield t, x, a, b, sig, sig0, dw0

        # the next state in a fresh C-ordered buffer, since yielded states are
        # kept and coefficients reduce over the state in its memory order;
        # b dt + x + sigma dW + sigma0 dW0 (+ eps dB), added in this order
        step = np.multiply(b, dt, out=np.empty(x.shape))
        step += x
        step += _diffuse(sig, increments(idio_noise, k))
        # one (1, d) common row per path, as a lone path's (d,) increment is
        # multiplied, tiled along the particles
        step += np.repeat(dw0[:, None] @ sig0.T, n, axis=-2)[:, None, None]
        if perturb_noise is not None:
            step += cfg.epsilon * increments(perturb_noise, k)
        x = step
        if not np.isfinite(x).all():
            bad = paths[int(np.argmin(np.isfinite(x).reshape(len(paths), -1).all(axis=1)))]
            raise FloatingPointError(f"non-finite state at step {k + 1} (t = {t + dt:.6g}) on path {bad}")
    yield x


def moment_checks(
    coeffs,
    init: ParticleEnsemble,
    policy,
    cfg: SimConfig,
    shift: np.ndarray | None = None,
    h_fractions: tuple = (0.25, 0.5, 1.0),
) -> dict:
    """Empirical constants for the three a priori moment estimates, at the
    moment order p = 2.

    c_growth  bounds E[sup |X|^2]^(1/2) / (1 + E|xi|^2)^(1/2);
    c_lip     bounds E[sup |X - X'|^2]^(1/2) / (E|xi - xi'|^2)^(1/2) for a
              paired run started from a shifted cloud on the same noise;
    c_holder  bounds E[sup_{[t0, t0+h]} |X - xi|^2] / h over sub-horizons.

    The cloud and its shifted copy are the two start clouds of one pass, on
    path 0; ``trajectories`` (steps + 1, n, d) is the unshifted cloud's path.
    """
    clouds = init.points[None]
    if shift is not None:
        shift = np.asarray(shift, dtype=float)
        if np.linalg.norm(shift) == 0.0:
            raise ValueError("shift must be nonzero: c_lip divides by its norm")
        clouds = np.stack([init.points, translate(init, shift).points])
    scheme = _euler(coeffs, clouds, (policy,), cfg, (0,), None)
    states = [x[0, :, 0] for _, x, *_ in islice(scheme, cfg.steps)]
    traj, *shifted = np.stack(states + [next(scheme)[0, :, 0]], axis=1)  # each (steps + 1, n, d)

    sup_abs = np.linalg.norm(traj, axis=2).max(axis=0)  # (n,)
    e_sup = float(np.mean(sup_abs**2.0))
    e_init = float(np.mean(np.linalg.norm(init.points, axis=1) ** 2.0))
    c_growth = (e_sup / (1.0 + e_init)) ** 0.5

    c_lip = None
    if shift is not None:
        diffs = np.linalg.norm(traj - shifted[0], axis=2).max(axis=0)
        c_lip = float(np.mean(diffs**2.0) ** 0.5 / np.linalg.norm(shift))

    c_holder = {}
    disp = np.linalg.norm(traj - init.points[None], axis=2)  # (steps+1, n)
    for frac in h_fractions:
        k_h = max(1, int(round(frac * cfg.steps)))
        h = k_h * cfg.dt
        e_disp = float(np.mean(disp[: k_h + 1].max(axis=0) ** 2))
        c_holder[h] = e_disp / h

    return {"c_growth": c_growth, "c_lip": c_lip, "c_holder": c_holder, "trajectories": traj}


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

    as each step of the scheme is taken, so no path is kept; the martingale
    part has zero mean and is omitted.  The gap is the path average of
    lhs_p - rhs_p with its standard error.
    """
    _check_counts(paths=paths)
    u0 = testfn.value(cfg.t0, init.points)
    lhs_vals = np.empty(paths)
    rhs_vals = np.empty(paths)
    for pidx in range(paths):
        scheme = _euler(coeffs, init.points[None], (policy,), cfg, (pidx,), None)
        rhs = -0.0  # the exact additive identity: the sum runs in step order, like np.cumsum
        for t, x, _, b, sig, sig0, _ in islice(scheme, cfg.steps):
            # the lone path, cloud and policy; a shared (d, d) sigma stays as it is
            x = x[0, 0, 0]
            per_particle, common = _generator(
                b[0, 0, 0],
                sig if sig.ndim == 2 else sig.reshape(sig.shape[-3:]),
                sig0,
                testfn.dmu(t, x),
                testfn.dxdmu(t, x),
                testfn.h_op(t, x),
            )
            rhs += cfg.dt * (testfn.dt(t, x) + per_particle.mean(axis=-1) + common)
        lhs_vals[pidx] = testfn.value(cfg.t1, next(scheme)[0, 0, 0]) - u0
        rhs_vals[pidx] = rhs
    diffs = lhs_vals - rhs_vals
    return {
        "lhs": float(lhs_vals.mean()),
        "rhs": float(rhs_vals.mean()),
        "gap": float(diffs.mean()),
        "stderr": _stderr(diffs),
    }
