"""Reference computations for the benchmark checks.

Nothing here calls mfhjb's numerics.  Quantiles of a Gaussian-smoothed point
cloud are root-solved with scipy's brentq, Gaussian expectations use numpy's
Hermite rule scaled here, and the linear-drift value is its closed form.  The
only convention shared with the library is the documented CDF clamp.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

#: CDF values are clamped to [P_CLAMP, 1 - P_CLAMP] (the library's documented
#: convention), so far-tail transport is evaluated at the clamp level.
P_CLAMP = 1e-14


def smoothed_cdf(values: np.ndarray, sigma: float, z: float) -> float:
    f = float(np.mean(ndtr((z - values) / sigma)))
    return min(max(f, P_CLAMP), 1.0 - P_CLAMP)


def smoothed_quantile(values: np.ndarray, sigma: float, p: float) -> float:
    """Root of F(z) = p for F(z) = mean_i Phi((z - v_i) / sigma)."""
    p = min(max(p, P_CLAMP), 1.0 - P_CLAMP)
    q = float(ndtri(p))
    # every term is below (above) p at lo (hi), so the bracket holds the root
    lo = float(values.min()) + sigma * q - 1.0
    hi = float(values.max()) + sigma * q + 1.0
    return brentq(
        lambda z: float(np.mean(ndtr((z - values) / sigma))) - p,
        lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=400,
    )


def normal_gauss_hermite(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with sum_i w_i f(z_i) ~ E f(Z), Z ~ N(0, 1)."""
    x, w = np.polynomial.hermite.hermgauss(k)
    return math.sqrt(2.0) * x, w / math.sqrt(math.pi)


def circle_directions(count: int) -> tuple[np.ndarray, np.ndarray]:
    ang = 2.0 * math.pi * np.arange(count) / count
    return np.stack([np.cos(ang), np.sin(ang)], axis=1), np.full(count, 1.0 / count)


def dmu_gauge_at(mu_pts, nu_pts, sigma, dirs, weights, x, nodes) -> np.ndarray:
    """sum_j w_j theta_j (theta_j.x - E[T_j(theta_j.x + sigma Z)]) with
    T_j = F_nu^{-1} o F_mu along direction theta_j."""
    z, zw = normal_gauss_hermite(nodes)
    out = np.zeros(dirs.shape[1])
    for theta, w in zip(dirs, weights):
        vm, vn, g = mu_pts @ theta, nu_pts @ theta, float(x @ theta)
        t = [smoothed_quantile(vn, sigma, smoothed_cdf(vm, sigma, g + sigma * zk)) for zk in z]
        out += w * theta * (g - float(np.dot(zw, t)))
    return out


def translation_sw2(c: np.ndarray) -> float:
    """sw2(mu, mu + c) = |c| / sqrt(d) under a direction rule with
    sum_j w_j theta_j theta_j^T = I / d."""
    return float(np.linalg.norm(c) / math.sqrt(c.shape[0]))


def translation_dmu(c: np.ndarray) -> np.ndarray:
    """The first measure derivative against mu + c is -c / d at every x."""
    return -c / c.shape[0]


def quantile_table_1d(points: np.ndarray, sigma: float, m_points: int) -> np.ndarray:
    """Midpoint-level quantiles along the two directions of R, shape (2, m)."""
    p = (np.arange(m_points) + 0.5) / m_points
    return np.array([[smoothed_quantile(s * points, sigma, pk) for pk in p] for s in (1.0, -1.0)])


def rho_matrix_1d(times: np.ndarray, clouds, sigma: float, m_points: int) -> np.ndarray:
    """rho = |t - s|^2 + (1/2) sw2^2 for all candidate pairs on R, with the
    two-point direction rule {+1, -1} and the midpoint rule in probability."""
    tables = np.stack([quantile_table_1d(np.ravel(c), sigma, m_points) for c in clouds])
    sq = ((tables[:, None] - tables[None, :]) ** 2).mean(axis=3).mean(axis=2)
    return (times[:, None] - times[None, :]) ** 2 + 0.5 * sq


def gaussian_cloud_mean(seed: int, n: int, d: int, std: float) -> np.ndarray:
    """Mean of n i.i.d. N(0, std^2 I) points drawn row-wise from numpy's
    default generator seeded with ``seed``."""
    return (std * np.random.default_rng(seed).standard_normal((n, d))).mean(axis=0)


def lq_value(init_mean: np.ndarray, p: np.ndarray, t0: float, t1: float) -> float:
    """<p, mean mu_0> + (t1 - t0) ||p||_1, the linear-drift value while the
    cloud stays inside the linear region of the terminal clip."""
    return float(np.dot(init_mean, p) + (t1 - t0) * np.abs(p).sum())
