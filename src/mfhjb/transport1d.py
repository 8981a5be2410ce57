"""One-dimensional Gaussian-smoothed transport.

A projected ensemble convolved with a centered Gaussian of standard deviation
sigma has the strictly increasing, smooth CDF

    F(z) = (1/n) sum_i Phi((z - v_i) / sigma),

so the monotone (optimal) map from one smoothed projection to another is the
classical quantile composition  T(z) = F_target^{-1}(F_source(z)).  Squared
Wasserstein-2 distances are evaluated by quantile stratification, which for
the monotone coupling is a uniform-weight midpoint rule in probability space:

    W2^2 = integral |z - T(z)|^2 dF_source(z)
         = integral_0^1 |F_source^{-1}(p) - F_target^{-1}(p)|^2 dp.

Quantiles come from one safeguarded Newton solve against the raw CDF (see
``_mixture_quantile`` for its residual contract).  Probability levels are
clamped to [P_MIN, 1 - P_MIN] before the solve: the inverse map grows like
exp(z^2 / (4 sigma^2)) in the tails, and the clamp keeps quantile
evaluations bounded at an error far below quadrature noise.  The public
``SmoothedProjection.cdf`` returns values clamped the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "P_MIN",
    "SmoothedProjection",
    "TransportMap1D",
    "w2_smoothed",
    "w2_discrete",
    "w1_empirical_gaussian",
]

P_MIN = 1e-14


def _aligned_arg(values: np.ndarray, sigma: float, z: np.ndarray) -> np.ndarray:
    # values (n,) pairs with z of any shape; values (A, n) pairs row-wise with
    # z of shape (A, ...), evaluating row a against values[a].
    if values.ndim == 1:
        return (z[..., None] - values) / sigma
    extra = z.ndim - (values.ndim - 1)
    v = values.reshape(values.shape[:-1] + (1,) * extra + (values.shape[-1],))
    return (z[..., None] - v) / sigma


def _mixture_cdf(values: np.ndarray, sigma: float, z: np.ndarray) -> np.ndarray:
    """Raw (unclamped) CDF of the Gaussian-smoothed point cloud, vectorized over z."""
    arg = _aligned_arg(values, sigma, z)
    return ndtr(arg, out=arg).mean(axis=-1)


def _mixture_pdf(values: np.ndarray, sigma: float, z: np.ndarray) -> np.ndarray:
    arg = _aligned_arg(values, sigma, z)
    arg *= arg
    arg *= -0.5
    return np.exp(arg, out=arg).mean(axis=-1) / (sigma * np.sqrt(2.0 * np.pi))


def _mixture_quantile(values: np.ndarray, sigma: float, p: np.ndarray) -> np.ndarray:
    """Solve F(z) = p for the raw mixture CDF F by safeguarded Newton.

    p is first clamped to [P_MIN, 1 - P_MIN].  With q = Phi^{-1}(p), every
    term Phi((z - v_i) / sigma) is <= p at z = min v + sigma q and >= p at
    z = max v + sigma q, so that pair brackets the root.  Each entry starts
    from the moment-matched seed mean v + sqrt(var v + sigma^2) q, clipped
    into its bracket.  Every CDF evaluation moves one bracket end to z, and
    a Newton step that does not land strictly inside the bracket is replaced
    by its midpoint.  Only entries still running are evaluated.

    Contract: an entry stops at the first z with

        |F(z) - p| <= F'(z) ulp(z) + eps p,

    the change one ulp of z makes in F plus one rounding of F, or once no
    double lies strictly inside its bracket.  Either way the returned z is
    within a few ulps of a sign change of the computed F(z) - p.
    """
    p = np.clip(np.asarray(p, dtype=float), P_MIN, 1.0 - P_MIN)
    shape = p.shape
    p = p.ravel()
    q = ndtri(p)
    table = np.atleast_2d(values)  # one row for (n,) values, else row a pairs with p[a]
    row = np.repeat(np.arange(table.shape[0]), p.size // table.shape[0])
    spread = np.sqrt(table.var(axis=-1) + sigma**2)
    lo = table.min(axis=-1)[row] + sigma * q
    hi = table.max(axis=-1)[row] + sigma * q
    z = np.clip(table.mean(axis=-1)[row] + spread[row] * q, lo, hi)
    out = np.empty_like(p)
    todo = np.arange(p.size)
    while todo.size:
        v = values if values.ndim == 1 else table[row]
        f = _mixture_cdf(v, sigma, z) - p
        dens = _mixture_pdf(v, sigma, z)
        lo = np.where(f < 0.0, z, lo)
        hi = np.where(f > 0.0, z, hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z_next = z - f / dens
        z_next = np.where((lo < z_next) & (z_next < hi), z_next, 0.5 * (lo + hi))
        # NaN residuals compare False, so they stop too
        tol = dens * np.spacing(np.abs(z)) + np.finfo(float).eps * p
        going = (np.abs(f) > tol) & (lo < z_next) & (z_next < hi)
        out[todo[~going]] = z[~going]
        todo, row, p, lo, hi, z = todo[going], row[going], p[going], lo[going], hi[going], z_next[going]
    return out.reshape(shape)


def _transport(src_values, src_sigma, tgt_values, tgt_sigma, z):
    """Monotone map F_tgt^{-1}(F_src(z)); value arrays pair with z as in
    ``_mixture_cdf``, and the quantile solve clamps the CDF values."""
    return _mixture_quantile(tgt_values, tgt_sigma, _mixture_cdf(src_values, src_sigma, z))


@dataclass(frozen=True)
class SmoothedProjection:
    """A 1-d point cloud convolved with N(0, sigma^2); sigma must be > 0."""

    values: np.ndarray
    sigma: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size < 1 or not np.isfinite(vals).all():
            raise ValueError("values must be a non-empty finite 1-d array")
        if not (self.sigma > 0.0):
            raise ValueError("sigma must be strictly positive")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "sigma", float(self.sigma))

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        if not np.isfinite(z).all():
            raise ValueError("cdf argument must be finite")
        return np.clip(_mixture_cdf(self.values, self.sigma, z), P_MIN, 1.0 - P_MIN)

    def pdf(self, z):
        z = np.asarray(z, dtype=float)
        return _mixture_pdf(self.values, self.sigma, z)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError("quantile argument must lie in (0, 1)")
        return _mixture_quantile(self.values, self.sigma, p)


@dataclass(frozen=True)
class TransportMap1D:
    """Monotone transport map z -> F_target^{-1}(F_source(z))."""

    source: SmoothedProjection
    target: SmoothedProjection

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        if not np.isfinite(z).all():
            raise ValueError("transport argument must be finite")
        src, tgt = self.source, self.target
        return _transport(src.values, src.sigma, tgt.values, tgt.sigma, z)


def w2_smoothed(src: SmoothedProjection, tgt: SmoothedProjection, quad_points: int = 512) -> float:
    """Wasserstein-2 distance between two smoothed projections.

    Midpoint rule over M stratified quantiles: at z_j = F_src^{-1}((j-1/2)/M)
    the transported point T(z_j) is exactly the target quantile at the same
    probability level, so both sides reduce to one quantile sweep each.
    """
    if quad_points < 8:
        raise ValueError("quad_points must be >= 8")
    p = (np.arange(quad_points) + 0.5) / quad_points
    qs = src.quantile(p)
    qt = tgt.quantile(p)
    return float(np.sqrt(np.mean((qs - qt) ** 2)))


def w2_discrete(a, b) -> float:
    """Exact W2 between two equal-size discrete uniform clouds on R.

    The optimal coupling in one dimension pairs sorted order statistics.
    Uses exact (fsum) accumulation so the value is independent of input order.
    """
    import math

    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)) / n)


def w1_empirical_gaussian(values, mean: float = 0.0, std: float = 1.0) -> float:
    """Exact W1 between an empirical measure on R and N(mean, std^2).

    W1 equals the area between the empirical and Gaussian CDFs.  On each
    interval between consecutive order statistics the empirical CDF is the
    constant c = i/n, and with G(z) = z Phi(z) + phi(z) the antiderivative of
    Phi, each piece of integral |c - Phi| has a closed form (split at the
    crossing point Phi^{-1}(c) when it falls inside the interval).
    """
    x = np.sort(np.asarray(values, dtype=float).ravel())
    n = x.size
    z = (x - mean) / std

    def anti(t):
        # integral of Phi from -inf up to t, i.e. t*Phi(t) + phi(t)
        return t * ndtr(t) + np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)

    total = float(anti(z[0]))  # left tail: integral of |0 - Phi| = integral of Phi
    # right tail: integral of (1 - Phi) from z_n to +inf equals phi(z) - z(1-Phi(z))
    zn = z[-1]
    total += float(np.exp(-0.5 * zn * zn) / np.sqrt(2.0 * np.pi) - zn * (1.0 - ndtr(zn)))
    if n > 1:
        c = np.arange(1, n) / n
        a, b = z[:-1], z[1:]
        cross = np.clip(ndtri(c), a, b)  # crossing point of Phi with level c, clamped
        # integral over [a, b] of |c - Phi| = (c - Phi piece below cross) + (piece above)
        below = c * (cross - a) - (anti(cross) - anti(a))
        above = (anti(b) - anti(cross)) - c * (b - cross)
        total += float(np.sum(below + above))
    return float(std * total)
