"""Smoothed sliced-Wasserstein metric, its measure derivatives, and the gauge
series used by the smooth variational principle.

The sliced distance between two ensembles is the root-mean of 1-d Wasserstein
distances between their directional projections, each projection convolved
with N(0, sigma^2):

    sw2(mu, nu)^2 = sum_j w_j W2(mu_theta_j^sigma, nu_theta_j^sigma)^2,

with the direction measure normalized to a probability measure on S^{d-1}
(so sum_j w_j theta_j theta_j^T = I/d and the translation-Hessian constant is
kappa_d = 1/d).  The gauge functional is

    gauge_g = s * sw2^2,   s = GAUGE_SQUARE_FACTOR,

where s is pinned by a finite-difference oracle (``pin_gauge_square_factor``)
rather than assumed: the closed-form first derivative implemented in
``dmu_gauge``,

    D(x) = sum_j w_j theta_j { theta_j.x - E[T_j(theta_j.x + N_sigma)] },

is the exact lifted gradient of s * sw2^2 only for s = 1/2.  Its x-derivative,
implemented in ``dxdmu_gauge``, is

    sum_j w_j theta_j theta_j^T { 1 - E[T_j'(theta_j.x + N_sigma)] },

where T_j' = f_mu / (f_nu o T_j) is the ratio of the smoothed projection
densities.  All derivative operators here (dmu_gauge, dxdmu_gauge, h_gauge)
differentiate gauge_g, and the gauge-type function rho and the series
phi_delta are built from gauge_g so that their derivative stacks are
term-wise the operators above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from mfhjb.budget import CAPS, chunks
from mfhjb.measures import ParticleEnsemble, translate
from mfhjb.quadrature import gauss_hermite_normal, quasi_normal
from mfhjb.transport1d import _SEED_GRID, _mixture_cdf, _mixture_pdf, _mixture_quantile, w2_discrete

__all__ = [
    "GAUGE_SQUARE_FACTOR",
    "SphereQuadrature",
    "GaugeAnchors",
    "sw2",
    "gauge_g",
    "rho",
    "rho_matrix",
    "dmu_gauge",
    "dxdmu_gauge",
    "h_gauge",
    "phi_delta",
    "phi_delta_derivatives",
    "phi_delta_derivative_bounds",
    "lifted_gauge_fd_gradient",
    "pin_gauge_square_factor",
    "calibrate_c_d",
    "C_D_CALIBRATED",
]

#: Scalar factor s in gauge_g = s * sw2^2, pinned by the finite-difference
#: oracle in pin_gauge_square_factor (and re-verified by the acceptance suite).
GAUGE_SQUARE_FACTOR = 0.5


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights, summing to one, for averaging over directions on
    S^{d-1}.  Every sliced quantity is even in theta, so the d <= 2
    constructors return lines: in d = 1 the node [1] with weight 1, and for an
    even count of d = 2 directions (the CLI's quad key) count/2 nodes at angles
    2 pi k/count with weights 2/count; both integrate theta theta^T exactly.
    Odd counts, user-supplied rules and d >= 3 (seeded quasi-random
    directions, accuracy ~ 4/sqrt(#nodes)) are not folded.
    """

    nodes: np.ndarray  # (m, d)
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 1 or nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes must be (m, d) and weights (m,)")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        norms = np.linalg.norm(nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("nodes must be unit vectors")
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    @property
    def count(self) -> int:
        return self.nodes.shape[0]

    @staticmethod
    def two_point_1d() -> "SphereQuadrature":
        return SphereQuadrature(np.ones((1, 1)), np.ones(1))

    @staticmethod
    def equispaced_circle(count: int = 128) -> "SphereQuadrature":
        if count < 3:
            raise ValueError("need at least 3 angles for exact second moments")
        lines = count // 2 if count % 2 == 0 else count
        ang = 2.0 * np.pi * np.arange(lines) / count
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return SphereQuadrature(nodes, np.full(lines, 1.0 / lines))

    @staticmethod
    def quasi_uniform_sphere(d: int, count: int = 1024, seed: int = 0) -> "SphereQuadrature":
        z = quasi_normal(count, d, seed)
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return SphereQuadrature(z / norms, np.full(count, 1.0 / count))

    @staticmethod
    def for_dimension(d: int, count: int | None = None, seed: int = 0) -> "SphereQuadrature":
        if d == 1:
            return SphereQuadrature.two_point_1d()
        if d == 2:
            return SphereQuadrature.equispaced_circle(count or 128)
        return SphereQuadrature.quasi_uniform_sphere(d, count or 1024, seed)


def _check_dims(quad: SphereQuadrature, *clouds: ParticleEnsemble):
    if any(ens.d != quad.d for ens in clouds):
        raise ValueError(f"dimension mismatch: ensembles {[e.d for e in clouds]}, quadrature {quad.d}")


def _stratified_quantiles(rows: np.ndarray, sigma: float, m_points: int) -> np.ndarray:
    """Quantiles of each row of smoothed (rows, n) values at the midpoint
    probability levels, shape (rows, m_points), from one _mixture_quantile solve."""
    if m_points < 1:
        raise ValueError(f"m_points must be >= 1, got {m_points}")
    p = (np.arange(m_points) + 0.5) / m_points
    return _mixture_quantile(rows, sigma, np.broadcast_to(p, (rows.shape[0], m_points)))


def _row_quantiles(rows: np.ndarray, sigma: float, m_points: int) -> np.ndarray:
    """_stratified_quantiles of (rows, n) values in "gauge" chunks of rows, each
    row charged like a table's: (levels + the seed grid points) x max(n,
    entry_state).  Rows may end in +inf, absent atoms; each chunk is cut to
    its widest row's finite values.  A row's solve reads only that row's
    finite values, so neither chunks nor cuts change a bit."""
    cost = (m_points + _SEED_GRID) * max(rows.shape[1], CAPS["entry_state"])
    tables = []
    for sl in chunks(rows.shape[0], cost, "gauge"):
        block = rows[sl]
        block = np.ascontiguousarray(block[:, : np.isfinite(block).sum(axis=1).max()])
        tables.append(_stratified_quantiles(block, sigma, m_points))
    return np.concatenate(tables)


def _padded_rows(clouds, quad: SphereQuadrature) -> np.ndarray:
    """The projected (directions, n) rows of each cloud, stacked and padded with
    +inf, an absent atom to the quantile solve, to the widest cloud's n."""
    rows = np.full((len(clouds), quad.count, max(ens.n for ens in clouds)), np.inf)
    for block, ens in zip(rows, clouds):
        block[:, : ens.n] = (ens.points @ quad.nodes.T).T
    return rows.reshape(-1, rows.shape[-1])


def _quantile_tables(clouds, sigma: float, quad: SphereQuadrature, m_points: int) -> np.ndarray:
    """Stacked quantile tables of a sequence of clouds, shape (len(clouds),
    directions, m_points), one per distinct cloud object.  The distinct clouds,
    sorted by particle count, are the +inf-padded rows of one _row_quantiles
    solve, so a chunk may cut a cloud's rows and holds only as many atoms as
    its widest cloud.  An entry's solve reads only its own row, and its atom
    sums do not see trailing +inf atoms, so neither padding nor chunks change
    a bit."""
    _check_dims(quad, *clouds)
    distinct = sorted({id(ens): ens for ens in clouds}.values(), key=lambda ens: ens.n)
    tables = _row_quantiles(_padded_rows(distinct, quad), sigma, m_points)
    solved = dict(zip(map(id, distinct), tables.reshape(len(distinct), quad.count, m_points)))
    return np.stack([solved[id(ens)] for ens in clouds])


def _sliced_gap(qa: np.ndarray, qb: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (La, Lb) matrix sum_j w_j mean_p (qa - qb)^2 between two stacks of
    (directions, levels) quantile tables.  Only elementwise products and
    last-axis sums, so a pair's value does not depend on the stacks it is in,
    and rows of qa are taken in "gauge" chunks of differences."""
    gaps = []
    for sl in chunks(qa.shape[0], qb.size, "gauge"):
        sq = (qa[sl, None] - qb[None, :]) ** 2  # (rows, Lb, A, M), squared in place
        gaps.append((sq.mean(axis=-1) * weights).sum(axis=-1))
    return np.concatenate(gaps)


def rho_matrix(times_a, clouds_a, times_b, clouds_b, sigma: float, quad: SphereQuadrature,
               m_points: int = 256) -> np.ndarray:
    """The (La, Lb) matrix of rho((t_a, mu_a), (t_b, mu_b)) = (t_a - t_b)^2 +
    GAUGE_SQUARE_FACTOR * sliced gap, from one quantile table per distinct
    cloud object on either side; each entry is the same bits as ``rho``."""
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"gauge functional requires 0 < sigma < inf, got {sigma}")
    la = len(clouds_a)
    q = _quantile_tables(tuple(clouds_a) + tuple(clouds_b), sigma, quad, m_points)
    dt = np.subtract.outer(np.asarray(times_a, dtype=float), np.asarray(times_b, dtype=float))
    return dt * dt + GAUGE_SQUARE_FACTOR * _sliced_gap(q[:la], q[la:], quad.weights)


def sw2(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    m_points: int = 256,
) -> float:
    """Smoothed sliced Wasserstein distance between two ensembles, the root of
    sum_j w_j W2^2 along all quadrature directions (no-1/2 convention).

    For sigma > 0 each directional W2^2 is the probability-space midpoint rule
    over m_points stratified quantiles; for sigma = 0 the exact discrete 1-d
    coupling is used (requires equal particle counts).
    """
    _check_dims(quad, mu, nu)
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sw2 requires 0 <= sigma < inf, got {sigma}")
    if sigma == 0.0:
        if mu.n != nu.n:
            raise ValueError("sigma = 0 requires equal particle counts")
        total = 0.0
        for w, th in zip(quad.weights, quad.nodes):
            total += w * w2_discrete(mu.points @ th, nu.points @ th) ** 2
    else:
        q = _quantile_tables((mu, nu), sigma, quad, m_points)
        total = _sliced_gap(q[:1], q[1:], quad.weights)[0, 0]
    return float(np.sqrt(max(total, 0.0)))


def gauge_g(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    m_points: int = 256,
) -> float:
    """The gauge functional s * sw2^2 whose derivatives are in closed form:
    rho at equal times."""
    return rho(0.0, mu, 0.0, nu, sigma, quad, m_points)


def rho(
    s: float,
    mu: ParticleEnsemble,
    t: float,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    m_points: int = 256,
) -> float:
    """Gauge-type function |t - s|^2 + gauge_g(mu, nu) on time-measure pairs.

    Nonnegative, zero exactly on the diagonal, and small values force both
    |t - s| and the sliced distance to be small (for eta <= eps^2/4, each of
    |t - s| and sqrt(gauge_g) is at most eps/2).
    """
    return float(rho_matrix([s], (mu,), [t], (nu,), sigma, quad, m_points)[0, 0])


def _gauge_derivatives(mu, nu, sigma, quad, x, noise_nodes, mixed=True):
    """dmu_gauge and, if mixed, dxdmu_gauge at x of shape (d,) or (k, d), from
    one transport solve.  With g = theta_j.x and Z ~ N(0, 1) on noise_nodes
    Gauss-Hermite nodes, dmu_gauge reads E[T_j(g + sigma Z)] and dxdmu_gauge
    E[T_j'(g + sigma Z)], where T_j is the smoothed transport from mu's
    projection on theta_j to nu's and T_j' = f_mu / (f_nu o T_j); dmu_gauge
    alone makes no density pass.

    Points are taken in "gauge" chunks, each charged like a table's entries;
    elementwise products and last-axis sums keep each point's arithmetic the
    same whatever chunk it falls in.
    """
    _check_dims(quad, mu, nu)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"gauge derivatives require 0 < sigma < inf, got {sigma}")
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(xs).all():
        raise ValueError("x must be finite")
    vm = (mu.points @ quad.nodes.T).T.copy()  # (A, n_mu)
    vn = (nu.points @ quad.nodes.T).T.copy()  # (A, n_nu)
    g = (xs[:, None, :] * quad.nodes).sum(axis=-1).T.copy()  # (A, k)
    z_nodes, z_w = gauss_hermite_normal(noise_nodes)
    mean_t, mean_slope = np.empty_like(g), np.empty_like(g)
    width = quad.count * noise_nodes * max(mu.n, nu.n, CAPS["entry_state"])
    for sl in chunks(g.shape[1], width, "gauge"):
        args = g[:, sl, None] + sigma * z_nodes  # (A, chunk, K)
        if mixed:  # mu's density from the CDF's pass
            cdf, dens = _mixture_cdf(vm, sigma, args, density=True)
        else:
            cdf = _mixture_cdf(vm, sigma, args)
        t = _mixture_quantile(vn, sigma, cdf)  # T_j(args) = F_nu^{-1}(F_mu(args))
        mean_t[:, sl] = (t * z_w).sum(axis=-1)
        if mixed:
            slope = dens / _mixture_pdf(vn, sigma, t)
            mean_slope[:, sl] = (slope * z_w).sum(axis=-1)
    resid = quad.weights[:, None] * (g - mean_t)  # (A, k)
    dmu = (resid.T[:, None, :] * quad.nodes.T).sum(axis=-1)  # (k, d)
    if not mixed:
        return dmu[0] if np.ndim(x) == 1 else dmu
    coeff = quad.weights[:, None] * (1.0 - mean_slope)  # (A, k)
    outer = quad.nodes[:, :, None] * quad.nodes[:, None, :]  # (A, d, d)
    dxdmu = (coeff.T[:, None, None, :] * outer.transpose(1, 2, 0)).sum(axis=-1)
    return (dmu[0], dxdmu[0]) if np.ndim(x) == 1 else (dmu, dxdmu)


def dmu_gauge(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    x: np.ndarray,
    noise_nodes: int = 256,
) -> np.ndarray:
    """First-order measure derivative of gauge_g(., nu) evaluated at x.

    D(x) = sum_j w_j theta_j { theta_j.x - E[T_j(theta_j.x + N_sigma)] },
    the 1-d noise expectation taken by Gauss-Hermite quadrature with
    noise_nodes nodes.  Accepts x of shape (d,) or (k, d).
    """
    return _gauge_derivatives(mu, nu, sigma, quad, x, noise_nodes, mixed=False)


def dxdmu_gauge(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    x: np.ndarray,
    noise_nodes: int = 256,
) -> np.ndarray:
    """Mixed derivative d/dx of dmu_gauge, a symmetric d x d matrix.

    sum_j w_j theta_j theta_j^T (1 - E[T_j'(theta_j.x + N_sigma)]) on
    dmu_gauge's nodes and transport values: the exact x-derivative of
    dmu_gauge's own quadrature.  Where the P_MIN clamp holds T_j flat,
    T_j' = f_mu / (f_nu o T_j) is not the clamped map's slope.  At a particle
    x of mu those nodes carry Gauss-Hermite weight about 2 n P_MIN, below
    1e-12 for n <= 50; the share grows as x leaves mu's support.  Accepts x
    of shape (d,) or (k, d), returning (d, d) or (k, d, d).
    """
    return _gauge_derivatives(mu, nu, sigma, quad, x, noise_nodes)[1]


def h_gauge(d: int, quad: SphereQuadrature) -> np.ndarray:
    """Translation Hessian of gauge_g: the constant matrix sum_j w_j theta theta^T.

    Independent of the two measures and of sigma; equals (1/d) I for exact
    direction quadrature.
    """
    if quad.d != d:
        raise ValueError(f"quadrature dimension {quad.d} != {d}")
    return np.einsum("j,ji,jk->ik", quad.weights, quad.nodes, quad.nodes)


@dataclass(frozen=True)
class GaugeAnchors:
    """Anchor sequence (t_k, mu_k) with geometric weights 2^{-k}, on the
    direction rule ``quad`` at ``m_points`` quantile levels per table.

    ``delta`` sets the smoothing of the underlying gauge terms through
    sigma = 1/delta.  At most k_max + 1 = 41 anchors contribute; the dropped
    tail is below 2^{-k_max} times the largest term.
    """

    anchors: tuple
    delta: float
    quad: SphereQuadrature
    m_points: int = 256
    k_max: ClassVar[int] = 40

    def __post_init__(self):
        if len(self.anchors) == 0:
            raise ValueError("need at least one anchor")
        if not (self.delta > 0.0):
            raise ValueError("delta must be > 0")
        if self.m_points < 1:
            raise ValueError(f"m_points must be >= 1, got {self.m_points}")
        object.__setattr__(self, "anchors", tuple(self.anchors))
        _check_dims(self.quad, *(muk for _, muk in self.anchors))

    @property
    def sigma(self) -> float:
        return 1.0 / self.delta

    def active(self):
        return self.anchors[: self.k_max + 1]

    def weights(self) -> np.ndarray:
        return 0.5 ** np.arange(len(self.active()))

    def series(self, rho_active: np.ndarray) -> np.ndarray:
        """phi = sum_k 2^{-k} rho(., (t_k, mu_k)) from rho against the active
        anchors along the last axis: one weighted last-axis sum, shared by
        phi_delta and the variational certificate."""
        return (rho_active * self.weights()).sum(axis=-1)


def phi_delta(anchors: GaugeAnchors, t: float, mu: ParticleEnsemble) -> float:
    """Series sum_k 2^{-k} rho((t, mu), (t_k, mu_k)) at sigma = 1/delta, on
    the anchors' direction rule and levels."""
    times, clouds = zip(*anchors.active())
    row = rho_matrix([t], (mu,), times, clouds, anchors.sigma, anchors.quad, anchors.m_points)
    return float(anchors.series(row)[0])


def phi_delta_derivatives(
    anchors: GaugeAnchors,
    t: float,
    mu: ParticleEnsemble,
    noise_nodes: int = 256,
) -> dict:
    """Term-wise derivatives of phi_delta at (t, mu).

    Returns dt (scalar), dmu (n, d) and dxdmu (n, d, d) evaluated at the
    particles of mu (one transport solve per distinct anchor cloud: the gauge
    derivatives do not depend on the anchor times), and the matrix h.
    """
    weights = anchors.weights()
    times, clouds = zip(*anchors.active())
    dt = float((weights * 2.0 * (t - np.asarray(times, dtype=float))).sum())
    # the variational construction pads its anchors by repeating the last one
    groups: dict[int, list] = {}
    for w, muk in zip(weights, clouds):
        groups.setdefault(id(muk), [0.0, muk])[0] += w
    dmu = np.zeros_like(mu.points)
    dxdmu = np.zeros((mu.n, mu.d, mu.d))
    for w, muk in groups.values():
        dmu_k, dxdmu_k = _gauge_derivatives(mu, muk, anchors.sigma, anchors.quad, mu.points, noise_nodes)
        dmu += w * dmu_k
        dxdmu += w * dxdmu_k
    h = float(weights.sum()) * h_gauge(mu.d, anchors.quad)
    return {"dt": dt, "dmu": dmu, "dxdmu": dxdmu, "h": h}


#: Dimension-dependent constants for the four phi_delta derivative bounds,
#: calibrated once per dimension from the translation oracle (see
#: calibrate_c_d, seed 0, factor-2 safety) and rounded up at the last digit.
C_D_CALIBRATED = {1: 3.8, 2: 2.7, 3: 2.2}


def _implied_lambda(anchors: GaugeAnchors) -> float:
    """Smallest budget lambda making the anchors consistent with the
    variational construction relative to anchor 0: rho(anchor_0, anchor_k)
    <= lambda / (2^k delta^2)."""
    t0, mu0 = anchors.anchors[0]
    times, clouds = zip(*anchors.active())
    r = rho_matrix([t0], (mu0,), times, clouds, anchors.sigma, anchors.quad, anchors.m_points)[0]
    return float(np.max(2.0 ** np.arange(r.size) * anchors.delta**2 * r))


def phi_delta_derivative_bounds(
    anchors: GaugeAnchors,
    t: float,
    mu: ParticleEnsemble,
    horizon: float,
    c_d: float | None = None,
    noise_nodes: int = 256,
) -> dict:
    """Evaluate |dt phi|, int |dmu phi|^2 dmu, int |dxdmu phi|^2 dmu, |H phi|
    and check them against their a priori bounds.

    Bounds checked (delta = anchors.delta, mu_0 = first anchor measure,
    M2 = second moment):

        |dt phi|          <= 4 * horizon
        int |dmu phi|^2   <= C_d ((1 + lam)/delta^2 + M2(mu) + M2(mu_0))
        int |dxdmu phi|^2 <= C_d delta^2 ((1 + lam)/delta^2 + M2(mu_0))
        |H phi|           <= C_d

    lam is the smallest budget consistent with the anchor sequence
    (``_implied_lambda``).  C_d defaults to the calibrated per-dimension
    constant.
    """
    d = mu.d
    if c_d is None:
        c_d = C_D_CALIBRATED.get(d)
        if c_d is None:
            raise ValueError(f"no calibrated constant for d = {d}; pass c_d or run calibrate_c_d")
    lam = _implied_lambda(anchors)
    der = phi_delta_derivatives(anchors, t, mu, noise_nodes)
    delta = anchors.delta
    m2_mu, m2_mu0 = mu.second_moment(), anchors.anchors[0][1].second_moment()

    dt_abs = abs(der["dt"])
    dmu_l2 = float(np.mean(np.sum(der["dmu"] ** 2, axis=1)))
    dxdmu_l2 = float(np.mean(np.sum(der["dxdmu"] ** 2, axis=(1, 2))))
    h_norm = float(np.linalg.norm(der["h"], "fro"))

    bounds = {
        "dt_abs": (dt_abs, 4.0 * horizon),
        "dmu_l2": (dmu_l2, c_d * ((1.0 + lam) / delta**2 + m2_mu + m2_mu0)),
        "dxdmu_l2": (dxdmu_l2, c_d * delta**2 * ((1.0 + lam) / delta**2 + m2_mu0)),
        "h_norm": (h_norm, c_d),
    }
    out = {"lam": lam, "c_d": c_d}
    for name, (value, bound) in bounds.items():
        out[name] = value
        out[name + "_bound"] = bound
        out[name + "_ok"] = bool(value <= bound)
    out["all_ok"] = all(out[k + "_ok"] for k in ("dt_abs", "dmu_l2", "dxdmu_l2", "h_norm"))
    return out


def lifted_gauge_fd_gradient(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    h: float = 1e-4,
    m_points: int = 256,
) -> np.ndarray:
    """Central-difference gradient of the lifted functional sw2^2, (n, d).

    Lifting the functional to particle coordinates, F(X) = sw2^2(emp(X), nu)
    = sum_j w_j G_j(X theta_j), where G_j is the 1-d squared gap of line j on
    the midpoint-level tables.  The measure derivative at particle i is n times
    the coordinate gradient, so s n dF/dx_il estimates the derivative of
    s * sw2^2 at x_i, and dmu_gauge(x_i)_l at s = GAUGE_SQUARE_FACTOR.

    X -> X theta_j is linear, so the chain rule through the projection is
    exact and only G_j is differenced: on each line j, atom i's projection is
    moved by +h and by -h, giving the central gap difference D_ji, and
    dF/dx_il = sum_j w_j theta_jl D_ji / (2h).  Each particle is one table
    solve of its 2 x lines perturbed rows (in "gauge" chunks of rows), and
    nu's table is solved once.  The W2^2 part is finite-differenced on the
    same table rule, so the oracle stays independent of dmu_gauge.

    In d = 1 (theta = [1]) a coordinate step is a step on the line, and the
    result is bit-identical to perturbing each coordinate of the cloud.  In
    d = 2 and 3 it agrees with that coordinate-wise difference to about 1e-9
    relative on random 6-vs-5 pairs at 128 levels: the step on line j is h,
    not h theta_jl.
    """
    n, lines = mu.n, quad.count
    _check_dims(quad, mu, nu)
    qn = _row_quantiles((nu.points @ quad.nodes.T).T.copy(), sigma, m_points)  # (A, M)
    vm = (mu.points @ quad.nodes.T).T  # (A, n)
    diff = np.empty((lines, n))
    for i in range(n):
        rows = np.concatenate([vm, vm])
        rows[:lines, i] += h
        rows[lines:, i] -= h
        q = _row_quantiles(rows, sigma, m_points)
        diff[:, i] = ((q[:lines] - qn) ** 2).mean(axis=-1) - ((q[lines:] - qn) ** 2).mean(axis=-1)
    terms = quad.weights[:, None, None] * quad.nodes[:, None, :] * diff[:, :, None]  # (A, n, d)
    return n * terms.sum(axis=0) / (2.0 * h)


def pin_gauge_square_factor(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    h: float = 1e-4,
    m_points: int = 256,
    noise_nodes: int = 256,
) -> dict:
    """Decide the scalar factor s in gauge_g = s * sw2^2 by oracle.

    Compares the finite-difference gradient of the lifted functional
    s * sw2^2 against the closed-form dmu_gauge for s = 1/2 and s = 1 and
    returns the factor with the smaller relative error.
    """
    analytic = dmu_gauge(mu, nu, sigma, quad, mu.points, noise_nodes)
    scale = float(np.linalg.norm(analytic))
    # the lifted functional is linear in s, so one unit-factor sweep suffices
    fd_unit = lifted_gauge_fd_gradient(mu, nu, sigma, quad, h, m_points)
    results = {}
    for s in (0.5, 1.0):
        results[s] = float(np.linalg.norm(s * fd_unit - analytic)) / max(scale, 1e-300)
    best = min(results, key=results.get)
    return {"factor": best, "errors": results}


def calibrate_c_d(d: int) -> float:
    """Calibrate the dimension constant C_d from the translation oracle.

    Uses 6 random anchor families mu_k = translate(mu, c_k), drawn at seed
    0, for which the derivative quantities have closed forms (each anchor
    contributes -c_k/d to the measure derivative, zero mixed derivative, and
    kappa_d I to H), on ``SphereQuadrature.for_dimension`` with 32
    directions in d = 2 and 96 otherwise at seed 0, and records the largest
    ratio of observed quantity to bound argument, times a safety factor of 2.
    """
    quad = SphereQuadrature.for_dimension(d, 32 if d == 2 else 96, 0)
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(6):
        n = int(rng.integers(3, 7))
        base = ParticleEnsemble(rng.standard_normal((n, d)))
        delta = float(rng.uniform(0.2, 1.0))
        k_anchors = int(rng.integers(2, 5))
        anchor_list = [(float(rng.uniform(0, 1)), base)]
        for _k in range(1, k_anchors):
            c = rng.standard_normal(d) * 0.5
            anchor_list.append((float(rng.uniform(0, 1)), translate(base, c)))
        anchors = GaugeAnchors(tuple(anchor_list), delta, quad, m_points=96)
        rec = phi_delta_derivative_bounds(anchors, 0.5, base, horizon=1.0, c_d=np.inf)
        lam = rec["lam"]
        m2 = base.second_moment()
        args = {
            "dmu_l2": (1.0 + lam) / delta**2 + 2.0 * m2,
            "dxdmu_l2": delta**2 * ((1.0 + lam) / delta**2 + m2),
            "h_norm": 1.0,
        }
        for name, denom in args.items():
            ratios.append(rec[name] / denom)
    return 2.0 * float(np.max(ratios))
