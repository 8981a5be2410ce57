"""Built-in coefficient sets.

Every scenario is globally bounded and Lipschitz with an advertised constant
K (verified at construction by probe sweeps), and time dependence is Holder
with the advertised exponent.  ``lq_drift`` keeps a closed-form value on
clouds confined to the inner region of its smooth clip, which is what the
dynamic-programming and HJB residual tests exercise.
"""

from __future__ import annotations

import numpy as np

from mfhjb.control import COORDINATES, ActionSpace, CoefficientSet, cylindrical

__all__ = ["scenario", "smooth_clip_profile", "lq_test_function", "lq_true_value"]


def _smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def smooth_clip_profile(r: np.ndarray, inner: float) -> np.ndarray:
    """Radial profile chi(r): 1 on [0, inner], 0 on [1, inf), smooth between."""
    if not (0.0 < inner < 1.0):
        raise ValueError("inner fraction must lie in (0, 1)")
    return 1.0 - _smooth_step((np.asarray(r, dtype=float) - inner) / (1.0 - inner))


def _profile_lipschitz_factor(inner: float) -> float:
    # max over r of chi(r) + r |chi'(r)|, by a dense radial grid
    r = np.linspace(0.0, 1.2, 4001)
    chi = smooth_clip_profile(r, inner)
    dchi = np.gradient(chi, r)
    return float(np.max(chi + np.abs(r * dchi)))


def _lq_drift(d=2, p=1.0, sigma=0.3, sigma0=0.3, radius=8.0, clip_inner=0.5) -> CoefficientSet:
    d = int(d)
    p = np.broadcast_to(np.asarray(p, dtype=float), (d,)).copy()
    sig, sig0, radius, inner = float(sigma), float(sigma0), float(radius), float(clip_inner)
    space = ActionSpace(-np.ones(d), np.ones(d))

    sig_mat = sig * np.eye(d)
    sig0_mat = sig0 * np.eye(d)

    def terminal_cost(x, cloud):
        r = np.linalg.norm(x, axis=-1) / radius
        return (x @ p) * smooth_clip_profile(r, inner)

    lip_g = float(np.linalg.norm(p)) * _profile_lipschitz_factor(inner)
    bound_g = float(np.linalg.norm(p)) * radius
    K = max(np.sqrt(d), sig * np.sqrt(d), sig0 * np.sqrt(d), bound_g, lip_g)

    return CoefficientSet(
        drift=lambda t, x, cloud, a: np.broadcast_to(a, x.shape).astype(float, order="C"),
        diffusion=lambda t, x, a: sig_mat,
        common_diffusion=lambda t: sig0_mat,
        running_cost=lambda t, x, cloud, a: np.zeros(x.shape[:-1]),
        terminal_cost=terminal_cost,
        K=K,
        beta=1.0,
        action_space=space,
        d=d,
    )


def _zero(d=2) -> CoefficientSet:
    d = int(d)
    space = ActionSpace(-np.ones(d), np.ones(d))
    zmat = np.zeros((d, d))
    return CoefficientSet(
        drift=lambda t, x, cloud, a: np.zeros_like(x),
        diffusion=lambda t, x, a: zmat,
        common_diffusion=lambda t: zmat,
        running_cost=lambda t, x, cloud, a: np.zeros(x.shape[:-1]),
        terminal_cost=lambda x, cloud: np.zeros(x.shape[:-1]),
        K=np.sqrt(d),  # covers the identity drift bound |b| = 0 <= K trivially
        beta=1.0,
        action_space=space,
        d=d,
    )


def _mean_reversion_mf(
    d=1, sigma=0.4, sigma0=0.4, pull=1.0, mf_weight=1.0, p=1.0, mf_center=0.0
) -> CoefficientSet:
    d = int(d)
    sig, sig0, pull = float(sigma), float(sigma0), float(pull)
    mf_weight, mf_center = float(mf_weight), float(mf_center)
    p = np.broadcast_to(np.asarray(p, dtype=float), (d,)).copy()
    space = ActionSpace(-np.ones(d), np.ones(d))
    sig_mat = sig * np.eye(d)
    sig0_mat = sig0 * np.eye(d)
    u0 = np.ones(d) / np.sqrt(d)

    def drift(t, x, cloud, a):
        return pull * np.tanh(cloud.mean(axis=-2, keepdims=True) - x) + np.broadcast_to(a, x.shape)

    def running_cost(t, x, cloud, a):
        aa = np.broadcast_to(a, x.shape)
        return -np.tanh(np.sum(aa**2, axis=-1))

    def terminal_cost(x, cloud):
        # concave in the cloud mean, so finite-n mean fluctuations depress
        # the expected terminal cost by an O(1/n) bias
        # elementwise products and last-axis sums, not matmul, and np.square,
        # not **: BLAS contractions and a numpy scalar's power may round a
        # row differently from the same row inside a batch
        agg = np.square(np.tanh(np.sum(cloud.mean(axis=-2) * u0, axis=-1) - mf_center))
        return np.tanh(np.sum(x * p, axis=-1)) - mf_weight * agg[..., None]

    K = max(
        (pull + 1.0) * np.sqrt(d) + 1.0,
        sig * np.sqrt(d),
        sig0 * np.sqrt(d),
        2.0,
        float(np.linalg.norm(p)) + 2.0 * mf_weight + 1.0,
    )
    return CoefficientSet(
        drift=drift,
        diffusion=lambda t, x, a: sig_mat,
        common_diffusion=lambda t: sig0_mat,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        K=K,
        beta=1.0,
        action_space=space,
        d=d,
    )


def _bounded_trig(d=1, horizon=1.0, time_amp=1.0, space_amp=1.0, sigma=0.2) -> CoefficientSet:
    """Holder-1/2 time dependence (through sqrt |t - T/2|) with clamped
    Lipschitz space dependence; used by the mollification rate tests."""
    d = int(d)
    horizon, time_amp, space_amp, sig = float(horizon), float(time_amp), float(space_amp), float(sigma)
    space = ActionSpace(-np.ones(d), np.ones(d))
    u0 = np.ones(d) / np.sqrt(d)
    sig_mat = sig * np.eye(d)

    def clamp(s):
        return np.clip(s, -1.0, 1.0)

    def time_part(t):
        # t is a float or has one entry per batch of x: shape (..., 1)
        return time_amp * np.sqrt(np.abs(np.asarray(t)[..., None] - horizon / 2.0))

    def drift(t, x, cloud, a):
        return time_part(t)[..., None] * u0 + space_amp * clamp(x)

    def running_cost(t, x, cloud, a):
        return time_part(t) * np.ones(x.shape[:-1])

    def terminal_cost(x, cloud):
        return space_amp * clamp(x @ u0)

    K = max(
        time_amp * np.sqrt(horizon) + space_amp * np.sqrt(d),
        time_amp + space_amp,
        sig * np.sqrt(d),
        1.0,
    )
    return CoefficientSet(
        drift=drift,
        diffusion=lambda t, x, a: sig_mat,
        common_diffusion=lambda t: np.zeros((d, d)),
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        K=K,
        beta=0.5,
        action_space=space,
        d=d,
    )


_BUILDERS = {
    "lq_drift": _lq_drift,
    "zero": _zero,
    "mean_reversion_mf": _mean_reversion_mf,
    "bounded_trig": _bounded_trig,
}


def scenario(name: str, params: dict | None = None, validate: bool = True) -> CoefficientSet:
    """Construct a named scenario from its keyword parameters; a parameter
    the scenario does not take raises ``TypeError``, and the bound probes
    fail loudly if they reject the result."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(_BUILDERS)}")
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"params must be an object of named parameters, got {params!r}")
    coeffs = _BUILDERS[name](**(params or {}))
    if validate:
        coeffs.validate()
    return coeffs


def lq_test_function(p: np.ndarray, t1: float):
    """Closed-form value of the linear-drift scenario as a test function:
    u(t, mu) = integral <p, x> dmu + (t1 - t) * ||p||_1 (valid while the
    cloud stays in the linear region of the clip)."""
    return _lq_minus(p, t1, 0.0, 0.0)


def _lq_minus(p, t1: float, slope: float, constant: float):
    """lq_test_function's u - slope t - constant, which the HJB residual's
    negative controls use: F(t, m) = p . m + (t1 - t) ||p||_1 - slope t -
    constant on the coordinate features."""
    p = np.asarray(p, dtype=float)
    pnorm1 = float(np.abs(p).sum())
    return cylindrical(
        (COORDINATES,),
        lambda t, m: np.sum(m * p, axis=-1) + (t1 - t) * pnorm1 - slope * t - constant,
        -pnorm1 - slope,
        p,
        np.zeros((p.size, p.size)),
    )


def lq_true_value(init_mean: np.ndarray, p: np.ndarray, t0: float, t1: float) -> float:
    """integral <p, x> dmu_0 + (t1 - t0) ||p||_1."""
    p = np.asarray(p, dtype=float)
    return float(np.asarray(init_mean) @ p + (t1 - t0) * np.abs(p).sum())
