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
function) with a recorded standard error instead of a full tensor grid.

Smoothing preserves the uniform bound K, contracts Lipschitz constants
(|g_m^i(xbar) - g_m^i(xbar')| <= K [|dx^i| + mean_j |dx^j|]), and converges
at the kernel's first-moment rate 1/m in space and m^{-beta} in time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from mfhjb.quadrature import quasi_uniform

__all__ = [
    "MollifierSpec",
    "bump_kernel_tables",
    "mollified_b",
    "mollified_f",
    "mollified_g",
    "mollify_rate_bound",
    "mollify_rate_sweep",
    "MollifiedCoefficients",
]

_KERNEL_NODES = 4097  # grid size of the bump kernel's quantile table


@lru_cache(maxsize=8)
def bump_kernel_tables(nodes: int = _KERNEL_NODES) -> tuple:
    """Quantile table of the normalized bump exp(-1/(1-u^2)) on [-1, 1].

    Returns (u_grid, cdf_grid, first_abs_moment).  The kernel integrates to
    one under its own grid quadrature by construction; the residual
    normalization defect on the grid is below 1e-10.
    """
    u = np.linspace(-1.0, 1.0, nodes)
    with np.errstate(divide="ignore", over="ignore"):
        dens = np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u**2, 1e-300)), 0.0)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(u))])
    total = cdf[-1]
    dens /= total
    cdf /= total
    first_moment = float(np.trapezoid(np.abs(u) * dens, u))
    u.setflags(write=False)
    cdf.setflags(write=False)
    return u, cdf, first_moment


def _bump_quantile(p: np.ndarray) -> np.ndarray:
    u, cdf, _ = bump_kernel_tables()
    return np.interp(p, cdf, u)


@dataclass(frozen=True)
class MollifierSpec:
    """Smoothing index m and the quasi-random offset count used for the
    joint integral."""

    m: int
    offsets: int = 4096
    seed: int = 0
    stderr_cap: float = np.inf

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("smoothing index m must be >= 1")
        if self.offsets < 2:
            raise ValueError("need at least 2 offsets")


def _draw_offsets(spec: MollifierSpec, n: int, d: int) -> tuple:
    """Seeded offsets: times (Q,) from the time kernel, space (Q, n, d) from
    the product space kernel (before the 1/m scaling)."""
    pts = quasi_uniform(spec.offsets, 1 + n * d, spec.seed)
    t_off = _bump_quantile(pts[:, 0])
    z_off = _bump_quantile(pts[:, 1:]).reshape(spec.offsets, n, d)
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
) -> tuple:
    """Mean and standard error over offsets of the smoothed coefficient
    ``kind`` (a CoefficientSet field name), for every particle index at once.

    ``xbar`` is a state (..., n, d) with any leading batch axes.  All Q
    offsets go through one call of the base coefficient: the offset axis
    leads, so ``z_off`` acts as (Q, 1..., n, d) and ``t_off`` as (Q, 1...),
    and each offset's shifted state is also its own cloud.  A batch row's
    result is bit-identical to that row evaluated alone.
    """
    q = z_off.shape[0]
    lead = (q,) + (1,) * (np.ndim(xbar) - 2)
    xs = xbar - z_off.reshape(lead + z_off.shape[1:]) / spec.m
    if kind == "terminal_cost":
        vals = coeffs.terminal_cost(xs, xs)
    else:
        ts = np.minimum(np.maximum(t - t_off.reshape(lead) / spec.m, 0.0), horizon)
        vals = getattr(coeffs, kind)(ts, xs, xs, a)
    # numpy adds the offsets in order only when the offset axis is outermost
    # (C order; np.broadcast_to(...).astype puts it innermost) and at least
    # two columns remain, hence one reduction for both sums; otherwise it
    # sums pairwise, and a row's value would depend on the batch around it
    vals = np.ascontiguousarray(vals, dtype=float)
    # the first offset anchors the sums against cancellation
    shifted = vals - vals[0]
    sums = np.stack([shifted, shifted**2], axis=1).sum(axis=0) / q
    centered = sums[0]
    mean = vals[0] + centered
    var = np.maximum(sums[1] - centered**2, 0.0)
    stderr = np.sqrt(var / q)
    return mean, stderr


def _single_index(kind, coeffs, spec, i, t, xbar, a, horizon):
    xbar = np.asarray(xbar, dtype=float)
    n, d = xbar.shape
    if not (0 <= i < n):
        raise IndexError(f"particle index {i} out of range for n = {n}")
    if isinstance(a, np.ndarray) or isinstance(a, (list, tuple)):
        a = np.broadcast_to(np.asarray(a, dtype=float).ravel(), (n, np.size(a)))
    t_off, z_off = _draw_offsets(spec, n, d)
    mean, stderr = _mollified_all(kind, coeffs, spec, t, xbar, a, horizon, t_off, z_off)
    err = float(np.max(np.atleast_1d(stderr)[i]))
    flagged = err > spec.stderr_cap
    return mean[i], err, flagged


def mollified_b(coeffs, spec: MollifierSpec, i: int, t: float, xbar, a, horizon: float = 1.0):
    """Smoothed drift for particle i: (value (d,), stderr, flagged)."""
    return _single_index("drift", coeffs, spec, i, t, xbar, a, horizon)


def mollified_f(coeffs, spec: MollifierSpec, i: int, t: float, xbar, a, horizon: float = 1.0):
    """Smoothed running cost for particle i: (value, stderr, flagged)."""
    return _single_index("running_cost", coeffs, spec, i, t, xbar, a, horizon)


def mollified_g(coeffs, spec: MollifierSpec, i: int, xbar, horizon: float = 1.0):
    """Smoothed terminal cost for particle i: (value, stderr, flagged)."""
    return _single_index("terminal_cost", coeffs, spec, i, 0.0, xbar, None, horizon)


def mollify_rate_bound(
    coeffs, spec: MollifierSpec, i: int, t: float, xbar, horizon: float = 1.0, beta: float | None = None
) -> float:
    """The a priori error bound K (time term + space term) for particle i,
    evaluated with the kernel's own offset sample."""
    xbar = np.asarray(xbar, dtype=float)
    n, d = xbar.shape
    beta = coeffs.beta if beta is None else beta
    t_off, z_off = _draw_offsets(spec, n, d)
    m = spec.m
    t_eff = np.minimum(np.maximum(t - t_off / m, 0.0), horizon)
    time_term = float(np.mean(np.abs(t - t_eff) ** beta))
    znorm = np.linalg.norm(z_off, axis=2) / m  # (Q, n)
    space_term = float(np.mean(znorm[:, i] + znorm.mean(axis=1)))
    return coeffs.K * (time_term + space_term)


def mollify_rate_sweep(
    coeffs,
    ms: tuple,
    probes: list,
    spec_kwargs: dict | None = None,
    horizon: float = 1.0,
) -> dict:
    """Sup error over probes of each mollified coefficient versus m.

    Probes are (t, xbar, a) triples; xbar is an (n, d) state matrix.  Returns
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
            av = np.broadcast_to(np.asarray(a, dtype=float).ravel(), (n, np.size(a)))
            exact_b = coeffs.drift(t, xbar, xbar, av)
            exact_f = coeffs.running_cost(t, xbar, xbar, av)
            exact_g = coeffs.terminal_cost(xbar, xbar)
            t_off, z_off = _draw_offsets(spec, n, xbar.shape[1])
            args = (spec, t, xbar, av, horizon, t_off, z_off)
            got_b, _ = _mollified_all("drift", coeffs, *args)
            got_f, _ = _mollified_all("running_cost", coeffs, *args)
            got_g, _ = _mollified_all("terminal_cost", coeffs, *args)
            sup["b"] = max(sup["b"], float(np.linalg.norm(got_b - exact_b, axis=1).max()))
            sup["f"] = max(sup["f"], float(np.abs(got_f - exact_f).max()))
            sup["g"] = max(sup["g"], float(np.abs(got_g - exact_g).max()))
            for i in range(n):
                bound_sup = max(bound_sup, mollify_rate_bound(coeffs, spec, i, t, xbar, horizon))
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
        return _mollified_all(kind, coeffs, spec, t, x, a, horizon, t_off, z_off)[0]

    return replace(
        coeffs,
        drift=lambda t, x, cloud, a: smoothed("drift", t, x, a),
        running_cost=lambda t, x, cloud, a: smoothed("running_cost", t, x, a),
        terminal_cost=lambda x, cloud: smoothed("terminal_cost", 0.0, x, None),
    )
