"""Mollified coefficient approximations for the n-particle system.

The drift, running cost, and terminal cost are smoothed by compactly
supported bump kernels in time and in every particle coordinate:

    b_m^i(t, xbar, a) = E[ b( clamp(t - u/m), x^i - z^i/m,
                             emp(xbar - z/m), a ) ],

with u drawn from the unit-mass time kernel on [-1, 1], z = (z^1, ..., z^n)
drawn coordinatewise from the space kernel on [-1, 1]^d, and clamp(s) =
min(max(s, 0), T).  The terminal cost omits the time variable.  The joint
offset integral has dimension dn + 1, so it is estimated by a fixed seeded
quasi-random offset set (one set per spec: the estimate is a deterministic
function) instead of a full tensor grid; ``mollified`` also reports its
standard error.

Smoothing preserves the uniform bound K, contracts Lipschitz constants
(|g_m^i(xbar) - g_m^i(xbar')| <= K [|dx^i| + mean_j |dx^j|]), and converges
at the kernel's first-moment rate 1/m in space and m^{-beta} in time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from mfhjb.budget import chunks
from mfhjb.quadrature import quasi_uniform

__all__ = [
    "MollifierSpec",
    "bump_kernel_tables",
    "mollified",
    "mollify_rate_sweep",
    "MollifiedCoefficients",
]

_KERNEL_NODES = 4097  # grid size of the bump kernel's quantile table


@lru_cache(maxsize=1)
def bump_kernel_tables() -> tuple:
    """Quantile table of the normalized bump exp(-1/(1-u^2)) on [-1, 1].

    Returns (u_grid, cdf_grid).  The kernel integrates to one under its own
    grid quadrature by construction; the residual normalization defect on
    the grid is below 1e-10.
    """
    u = np.linspace(-1.0, 1.0, _KERNEL_NODES)
    with np.errstate(divide="ignore", over="ignore"):
        dens = np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u**2, 1e-300)), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(u))])
    cdf /= cdf[-1]
    u.setflags(write=False)
    cdf.setflags(write=False)
    return u, cdf


def _bump_quantile(p: np.ndarray) -> np.ndarray:
    u, cdf = bump_kernel_tables()
    return np.interp(p, cdf, u)


@dataclass(frozen=True)
class MollifierSpec:
    """Smoothing index m and the quasi-random offset count used for the
    joint integral."""

    m: int
    offsets: int = 4096
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("smoothing index m must be >= 1")
        if self.offsets < 2:
            raise ValueError("need at least 2 offsets")


@lru_cache(maxsize=1)
def _draw_offsets(spec: MollifierSpec, n: int, d: int) -> tuple:
    """Seeded offsets: times (Q,) from the time kernel, space (Q, n, d) from
    the product space kernel (before the 1/m scaling).  Calls with the same
    (spec, n, d) share one read-only draw; only the latest draw is kept, as
    one can be large (134 MB at 4096 offsets and n = 2048, d = 2)."""
    pts = quasi_uniform(spec.offsets, 1 + n * d, spec.seed)
    t_off = _bump_quantile(pts[:, 0])
    z_off = _bump_quantile(pts[:, 1:]).reshape(spec.offsets, n, d)
    t_off.setflags(write=False)
    z_off.setflags(write=False)
    return t_off, z_off


def _mollified_all(
    kind: str,
    coeffs,
    spec: MollifierSpec,
    t: float,
    xbar: np.ndarray,
    a,
    horizon: float,
    t_off: np.ndarray,
    z_off: np.ndarray,
    with_stderr: bool = True,
):
    """Mean over offsets of the smoothed coefficient ``kind`` (a
    CoefficientSet field name), for every particle index at once, with its
    standard error: (mean, stderr), or the mean alone without ``with_stderr``.

    ``xbar`` is a state (..., n, d) with any leading batch axes.  All Q
    offsets go through one call of the base coefficient: the offset axis
    leads, so ``z_off`` acts as (Q, 1..., n, d) and ``t_off`` as (Q, 1...),
    and each offset's shifted state is also its own cloud.  The Q shifted
    copies are taken in "mollifier" chunks of the first batch axis.  A batch
    row's result is bit-identical to that row evaluated alone.
    """
    rank = np.ndim(xbar)
    rows = xbar.shape[0] if rank > 2 else 1
    slices = chunks(rows, z_off.shape[0] * (np.size(xbar) // rows), "mollifier")

    def stats(t, xbar, a):
        return _offset_stats(_offset_values(kind, coeffs, spec, t, xbar, a, horizon, t_off, z_off), with_stderr)

    if len(slices) == 1:
        return stats(t, xbar, a)

    def chunk(v, sl, v_rank):
        # rows sl of an argument that carries xbar's first batch axis
        return v[sl] if np.ndim(v) == v_rank and np.shape(v)[0] == rows else v

    parts = [stats(chunk(t, sl, rank - 2), xbar[sl], chunk(a, sl, rank)) for sl in slices]
    return tuple(np.concatenate(part) for part in zip(*parts)) if with_stderr else np.concatenate(parts)


def _offset_values(kind, coeffs, spec, t, xbar, a, horizon, t_off, z_off) -> np.ndarray:
    lead = (z_off.shape[0],) + (1,) * (np.ndim(xbar) - 2)
    xs = xbar - z_off.reshape(lead + z_off.shape[1:]) / spec.m
    if kind == "terminal_cost":
        return coeffs.terminal_cost(xs, xs)
    ts = np.minimum(np.maximum(t - t_off.reshape(lead) / spec.m, 0.0), horizon)
    return getattr(coeffs, kind)(ts, xs, xs, a)


def _offset_stats(vals, with_stderr: bool):
    vals = np.asarray(vals, dtype=float)
    q = vals.shape[0]
    # the first offset anchors the sums against cancellation
    shifted = vals - vals[0]
    # numpy adds the rows of an outer axis in order, but sums pairwise along
    # the axis it walks innermost, the one of smallest stride, and a row's
    # sum would then depend on the batch around it; only a result with the
    # offset axis there (np.broadcast_to(...).astype(float) without
    # order="C" makes one) is copied to C order first
    others = [s for s, k in zip(shifted.strides[1:], shifted.shape[1:]) if k > 1]
    if others and shifted.strides[0] <= min(others):
        shifted = np.ascontiguousarray(shifted)
    centered = _sum_in_order(shifted) / q
    mean = vals[0] + centered
    if not with_stderr:
        return mean
    var = np.maximum(_sum_in_order(shifted**2) / q - centered**2, 0.0)
    return mean, np.sqrt(var / q)


def _sum_in_order(v: np.ndarray):
    # numpy sums a single remaining column pairwise too; a running sum adds
    # it in order
    return v.sum(axis=0) if v[0].size > 1 else np.add.accumulate(v, axis=0)[-1]


def mollified(kind: str, coeffs, spec: MollifierSpec, t: float, xbar, a=None):
    """The smoothed coefficient ``kind`` ("drift", "running_cost" or
    "terminal_cost", which ignores t and a) of every particle of the (n, d)
    state xbar, with the standard error of the offset estimate: (mean,
    stderr), each (n, d) for the drift and (n,) for a cost.  The action a is
    one (q,) action shared by every particle or an (n, q) array of one
    action per particle.  Shifted times are clamped to the horizon [0, 1]."""
    xbar = np.asarray(xbar, dtype=float)
    n, d = xbar.shape
    a = None if a is None else _particle_actions(a, n)
    return _mollified_all(kind, coeffs, spec, t, xbar, a, 1.0, *_draw_offsets(spec, n, d))


def _particle_actions(a, n: int) -> np.ndarray:
    """The (n, q) actions of n particles from one shared (q,) action or an
    (n, q) array."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return np.broadcast_to(a, (n, a.size))
    if a.ndim != 2 or a.shape[0] != n:
        raise ValueError(f"action shape {a.shape} is neither (q,) nor ({n}, q)")
    return a


def _rate_bounds(coeffs, spec, t, t_off, z_off) -> np.ndarray:
    """The a priori error bound K (time term + space term) of every particle,
    (n,), evaluated with the kernel's own offset draw on the horizon [0, 1];
    each particle's row is made contiguous, so that its mean sums as it
    would alone."""
    t_eff = np.minimum(np.maximum(t - t_off / spec.m, 0.0), 1.0)
    time_term = float(np.mean(np.abs(t - t_eff) ** coeffs.beta))
    znorm = np.linalg.norm(z_off, axis=2) / spec.m  # (Q, n)
    space_terms = (np.ascontiguousarray(znorm.T) + znorm.mean(axis=1)).mean(axis=1)
    return coeffs.K * (time_term + space_terms)


def mollify_rate_sweep(
    coeffs,
    ms: tuple,
    probes: list,
    spec_kwargs: dict | None = None,
) -> dict:
    """Sup error over probes of each mollified coefficient versus m.

    Probes are (t, xbar, a) triples; xbar is an (n, d) state matrix and a
    an action as ``mollified`` takes it.  The smoothed coefficients are
    those of ``MollifiedCoefficients``, on the horizon [0, 1].  Returns
    per-coefficient {m: sup_error} tables together with the per-m a priori
    bounds, for rate fitting by the caller.
    """
    spec_kwargs = spec_kwargs or {}
    table = {"b": {}, "f": {}, "g": {}, "bound": {}}
    for m in ms:
        spec = MollifierSpec(m=m, **spec_kwargs)
        sup = {"b": 0.0, "f": 0.0, "g": 0.0}
        bound_sup = 0.0
        for t, xbar, a in probes:
            xbar = np.asarray(xbar, dtype=float)
            n = xbar.shape[0]
            av = _particle_actions(a, n)
            smooth = MollifiedCoefficients(coeffs, spec, n)
            err_b = smooth.drift(t, xbar, xbar, av) - coeffs.drift(t, xbar, xbar, av)
            err_f = smooth.running_cost(t, xbar, xbar, av) - coeffs.running_cost(t, xbar, xbar, av)
            err_g = smooth.terminal_cost(xbar, xbar) - coeffs.terminal_cost(xbar, xbar)
            sup["b"] = max(sup["b"], float(np.linalg.norm(err_b, axis=1).max()))
            sup["f"] = max(sup["f"], float(np.abs(err_f).max()))
            sup["g"] = max(sup["g"], float(np.abs(err_g).max()))
            bounds = _rate_bounds(coeffs, spec, t, *_draw_offsets(spec, n, coeffs.d))  # smooth's draw, cached
            bound_sup = max(bound_sup, float(bounds.max()))
        for key in ("b", "f", "g"):
            table[key][m] = sup[key]
        table["bound"][m] = bound_sup
    return table


def MollifiedCoefficients(coeffs, spec: MollifierSpec, n: int, horizon: float = 1.0):
    """The CoefficientSet that drives the n-particle system with smoothed b,
    f and g; sigma and sigma0 pass through unsmoothed.

    The smoothed coefficients take states of shape (..., n, d) and rebuild
    the cloud per offset from each state, so the cloud they are given is
    ignored.  The offset sample is drawn once here: the smoothed
    coefficients are fixed deterministic functions.
    """
    t_off, z_off = _draw_offsets(spec, n, coeffs.d)

    def smoothed(kind, t, x, a):
        if x.shape[-2:] != (n, coeffs.d):
            raise ValueError(f"state shape {x.shape} does not end in ({n}, {coeffs.d})")
        return _mollified_all(kind, coeffs, spec, t, x, a, horizon, t_off, z_off, with_stderr=False)

    return replace(
        coeffs,
        drift=lambda t, x, cloud, a: smoothed("drift", t, x, a),
        running_cost=lambda t, x, cloud, a: smoothed("running_cost", t, x, a),
        terminal_cost=lambda x, cloud: smoothed("terminal_cost", 0.0, x, None),
    )
