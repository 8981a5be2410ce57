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

is the exact lifted gradient of s * sw2^2 only for s = 1/2.  All derivative
operators here (dmu_gauge, dxdmu_gauge, h_gauge) differentiate gauge_g, and
the gauge-type function rho and the series phi_delta are built from gauge_g so
that their derivative stacks are term-wise the operators above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfhjb.measures import ParticleEnsemble, translate
from mfhjb.quadrature import gauss_hermite_normal, quasi_normal
# _mixture_cdf stays importable here: the benchmark's traced probes wrap it by name
from mfhjb.transport1d import _mixture_cdf, _mixture_quantile, _transport, w2_discrete  # noqa: F401

__all__ = [
    "GAUGE_SQUARE_FACTOR",
    "SphereQuadrature",
    "GaugeAnchors",
    "sw2",
    "gauge_g",
    "rho",
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

#: Upper bound on directions x points x noise nodes x particles in one chunk
#: of the derivative evaluations, so their temporaries stay near 8 MB each.
_CHUNK_ATOMS = 2**20


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights for averaging over directions on S^{d-1}.

    Weights sum to one.  For d = 1 the rule {+1, -1} with weights 1/2 is
    exact; for d = 2 equispaced angles integrate theta theta^T exactly once
    at least 3 nodes are used; for d >= 3 seeded quasi-random directions give
    Monte Carlo accuracy ~ 4/sqrt(#nodes).
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

    def second_moment_matrix(self) -> np.ndarray:
        """sum_j w_j theta_j theta_j^T, ideally (1/d) I."""
        return np.einsum("j,ji,jk->ik", self.weights, self.nodes, self.nodes)

    @staticmethod
    def two_point_1d() -> "SphereQuadrature":
        return SphereQuadrature(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))

    @staticmethod
    def equispaced_circle(count: int = 128) -> "SphereQuadrature":
        if count < 3:
            raise ValueError("need at least 3 angles for exact second moments")
        ang = 2.0 * np.pi * np.arange(count) / count
        nodes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return SphereQuadrature(nodes, np.full(count, 1.0 / count))

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


def _check_pair(mu: ParticleEnsemble, nu: ParticleEnsemble, quad: SphereQuadrature):
    if mu.d != nu.d or mu.d != quad.d:
        raise ValueError(f"dimension mismatch: mu {mu.d}, nu {nu.d}, quadrature {quad.d}")


def _stratified_quantiles(
    ens: ParticleEnsemble, sigma: float, quad: SphereQuadrature, m_points: int
) -> np.ndarray:
    """Per-direction quantiles of the smoothed projections at the midpoint
    probability levels, shape (directions, m_points)."""
    v = (ens.points @ quad.nodes.T).T.copy()
    p = (np.arange(m_points) + 0.5) / m_points
    pb = np.broadcast_to(p, (quad.count, m_points))
    return _mixture_quantile(v, sigma, pb)


def _sw2_squared(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    m_points: int = 256,
    _nu_quantiles: np.ndarray | None = None,
) -> float:
    """sum_j w_j W2^2 along all quadrature directions (no-1/2 convention).

    For sigma > 0 each directional W2^2 is the probability-space midpoint rule
    over m_points stratified quantiles; for sigma = 0 the exact discrete 1-d
    coupling is used (requires equal particle counts).  A precomputed quantile
    table for nu may be supplied when nu is held fixed across many calls.
    """
    _check_pair(mu, nu, quad)
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        if mu.n != nu.n:
            raise ValueError("sigma = 0 requires equal particle counts")
        total = 0.0
        for w, th in zip(quad.weights, quad.nodes):
            total += w * w2_discrete(mu.points @ th, nu.points @ th) ** 2
        return total
    qm = _stratified_quantiles(mu, sigma, quad, m_points)
    qn = _nu_quantiles if _nu_quantiles is not None else _stratified_quantiles(nu, sigma, quad, m_points)
    per_dir = np.mean((qm - qn) ** 2, axis=1)
    return float(quad.weights @ per_dir)


def sw2(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    m_points: int = 256,
) -> float:
    """Smoothed sliced Wasserstein distance between two ensembles."""
    return float(np.sqrt(max(_sw2_squared(mu, nu, sigma, quad, m_points), 0.0)))


def gauge_g(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    m_points: int = 256,
) -> float:
    """The gauge functional s * sw2^2 whose derivatives are in closed form."""
    if sigma <= 0.0:
        raise ValueError("gauge functional requires sigma > 0")
    return GAUGE_SQUARE_FACTOR * _sw2_squared(mu, nu, sigma, quad, m_points)


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
    return (t - s) ** 2 + gauge_g(mu, nu, sigma, quad, m_points)


def _noise_average(
    mu: ParticleEnsemble, nu: ParticleEnsemble, sigma: float, quad: SphereQuadrature,
    x: np.ndarray, n_nodes: int, moment: int,
):
    """Directional projections g = theta_j.x, shape (A, k), and the
    Gauss-Hermite averages E[Z^moment T_j(g + sigma Z)], Z ~ N(0, 1), with
    n_nodes nodes, where T_j is the smoothed transport from mu's projection
    on theta_j to nu's.  x is (d,) or (k, d).

    Points are taken in chunks so that one CDF or quantile pass holds at most
    _CHUNK_ATOMS numbers per temporary (or one point's A * K * n, if more);
    every point's arithmetic is the same whatever chunk it falls in.
    """
    _check_pair(mu, nu, quad)
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(xs).all():
        raise ValueError("x must be finite")
    vm = (mu.points @ quad.nodes.T).T.copy()  # (A, n_mu)
    vn = (nu.points @ quad.nodes.T).T.copy()  # (A, n_nu)
    # elementwise products and last-axis sums keep each point's result
    # independent of how many points are evaluated together
    g = (xs[:, None, :] * quad.nodes).sum(axis=-1).T.copy()  # (A, k)
    z_nodes, z_w = gauss_hermite_normal(n_nodes)
    w = z_w * z_nodes**moment
    chunk = max(1, _CHUNK_ATOMS // (quad.count * n_nodes * max(mu.n, nu.n)))
    avg = np.empty_like(g)
    for s in range(0, g.shape[1], chunk):
        args = g[:, s : s + chunk, None] + sigma * z_nodes  # (A, chunk, K)
        avg[:, s : s + chunk] = (_transport(vm, sigma, vn, sigma, args) * w).sum(axis=-1)
    return g, avg


def dmu_gauge(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    x: np.ndarray,
    mc_noise: int = 256,
) -> np.ndarray:
    """First-order measure derivative of gauge_g(., nu) evaluated at x.

    D(x) = sum_j w_j theta_j { theta_j.x - E[T_j(theta_j.x + N_sigma)] },
    the 1-d noise expectation taken by Gauss-Hermite quadrature with mc_noise
    nodes (the default is set so that finite-difference consistency tests
    against dxdmu_gauge pass at 1e-3).  Accepts x of shape (d,) or (k, d).
    """
    g, expect = _noise_average(mu, nu, sigma, quad, x, mc_noise, 0)
    resid = quad.weights[:, None] * (g - expect)  # (A, k)
    out = (resid.T[:, None, :] * quad.nodes.T).sum(axis=-1)  # (k, d)
    return out[0] if np.ndim(x) == 1 else out


def dxdmu_gauge(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    x: np.ndarray,
    quad_y: int = 256,
) -> np.ndarray:
    """Mixed derivative d/dx of dmu_gauge, a symmetric d x d matrix.

    Closed form: sum_j w_j theta theta^T + sum_j w_j theta theta^T *
    E[(Z/sigma^2) T_j(theta.x - Z)] with Z ~ N(0, sigma^2); the expectation is
    Gauss-Hermite with quad_y nodes centered at theta.x.  The node set is
    symmetric, so it equals -E[(Z/sigma^2) T_j(theta.x + Z)], which takes the
    same transport arguments as dmu_gauge.  Accepts x of shape (d,) or (k, d),
    returning (d, d) or (k, d, d).
    """
    _, first = _noise_average(mu, nu, sigma, quad, x, quad_y, 1)
    coeff = quad.weights[:, None] * (1.0 - first / sigma)  # (A, k)
    outer = quad.nodes[:, :, None] * quad.nodes[:, None, :]  # (A, d, d)
    out = (coeff.T[:, None, None, :] * outer.transpose(1, 2, 0)).sum(axis=-1)
    return out[0] if np.ndim(x) == 1 else out


def h_gauge(d: int, quad: SphereQuadrature) -> np.ndarray:
    """Translation Hessian of gauge_g: the constant matrix sum_j w_j theta theta^T.

    Independent of the two measures and of sigma; equals (1/d) I for exact
    direction quadrature.
    """
    if quad.d != d:
        raise ValueError(f"quadrature dimension {quad.d} != {d}")
    return quad.second_moment_matrix()


@dataclass(frozen=True)
class GaugeAnchors:
    """Anchor sequence (t_k, mu_k) with geometric weights 2^{-k}.

    ``delta`` sets the smoothing of the underlying gauge terms through
    sigma = 1/delta.  At most k_max + 1 anchors contribute; the dropped tail
    is below 2^{-k_max} times the largest term.
    """

    anchors: tuple
    delta: float
    k_max: int = 40

    def __post_init__(self):
        if len(self.anchors) == 0:
            raise ValueError("need at least one anchor")
        if not (self.delta > 0.0):
            raise ValueError("delta must be > 0")
        object.__setattr__(self, "anchors", tuple(self.anchors))

    @property
    def sigma(self) -> float:
        return 1.0 / self.delta

    def active(self):
        return self.anchors[: self.k_max + 1]

    def weights(self) -> np.ndarray:
        return 0.5 ** np.arange(len(self.active()))

    def truncation_tail_bound(self, rho_sup: float) -> float:
        """2^{-k_max} * sup over rho values, bounding the dropped geometric tail."""
        if len(self.anchors) <= self.k_max + 1:
            return 0.0
        return 2.0 ** (-self.k_max) * rho_sup


def _grouped_anchor_weights(anchors: GaugeAnchors):
    """Collapse repeated anchor objects, summing their geometric weights.

    The variational construction pads its anchor list by repeating the final
    point; grouping by object identity avoids recomputing identical terms.
    """
    groups: dict[int, list] = {}
    for w, (tk, muk) in zip(anchors.weights(), anchors.active()):
        key = (tk, id(muk))
        if key in groups:
            groups[key][0] += w
        else:
            groups[key] = [w, tk, muk]
    return [(w, tk, muk) for w, tk, muk in groups.values()]


def phi_delta(
    anchors: GaugeAnchors,
    t: float,
    mu: ParticleEnsemble,
    quad: SphereQuadrature,
    m_points: int = 256,
) -> float:
    """Series sum_k 2^{-k} rho((t, mu), (t_k, mu_k)) at sigma = 1/delta."""
    total = 0.0
    for w, tk, muk in _grouped_anchor_weights(anchors):
        total += w * rho(t, mu, tk, muk, anchors.sigma, quad, m_points)
    return total


def phi_delta_derivatives(
    anchors: GaugeAnchors,
    t: float,
    mu: ParticleEnsemble,
    quad: SphereQuadrature,
    mc_noise: int = 256,
    quad_y: int = 256,
) -> dict:
    """Term-wise derivatives of phi_delta at (t, mu).

    Returns dt (scalar), dmu (n, d) and dxdmu (n, d, d) evaluated at the
    particles of mu, and the constant matrix h.
    """
    dt = 0.0
    dmu = np.zeros_like(mu.points)
    dxdmu = np.zeros((mu.n, mu.d, mu.d))
    for w, tk, muk in _grouped_anchor_weights(anchors):
        dt += w * 2.0 * (t - tk)
        dmu += w * dmu_gauge(mu, muk, anchors.sigma, quad, mu.points, mc_noise)
        dxdmu += w * dxdmu_gauge(mu, muk, anchors.sigma, quad, mu.points, quad_y)
    h = float(anchors.weights().sum()) * h_gauge(mu.d, quad)
    return {"dt": dt, "dmu": dmu, "dxdmu": dxdmu, "h": h}


#: Dimension-dependent constants for the four phi_delta derivative bounds,
#: calibrated once per dimension from the translation oracle (see
#: calibrate_c_d, seed 0, factor-2 safety) and rounded up at the last digit.
C_D_CALIBRATED = {1: 3.8, 2: 2.7, 3: 2.2}


def _implied_lambda(anchors: GaugeAnchors, quad: SphereQuadrature, m_points: int) -> float:
    """Smallest budget lambda making the anchors consistent with the
    variational construction relative to anchor 0: rho(anchor_0, anchor_k)
    <= lambda / (2^k delta^2)."""
    t0, mu0 = anchors.anchors[0]
    lam = 0.0
    for k, (tk, muk) in enumerate(anchors.active()):
        r = rho(t0, mu0, tk, muk, anchors.sigma, quad, m_points)
        lam = max(lam, 2.0**k * anchors.delta**2 * r)
    return lam


def phi_delta_derivative_bounds(
    anchors: GaugeAnchors,
    t: float,
    mu: ParticleEnsemble,
    quad: SphereQuadrature,
    horizon: float,
    lam: float | None = None,
    c_d: float | None = None,
    mc_noise: int = 256,
    quad_y: int = 256,
    m_points: int = 256,
) -> dict:
    """Evaluate |dt phi|, int |dmu phi|^2 dmu, int |dxdmu phi|^2 dmu, |H phi|
    and check them against their a priori bounds.

    Bounds checked (delta = anchors.delta, mu_0 = first anchor measure,
    M2 = second moment):

        |dt phi|          <= 4 * horizon
        int |dmu phi|^2   <= C_d ((1 + lam)/delta^2 + M2(mu) + M2(mu_0))
        int |dxdmu phi|^2 <= C_d delta^2 ((1 + lam)/delta^2 + M2(mu_0))
        |H phi|           <= C_d

    If lam is not supplied, the smallest budget consistent with the anchor
    sequence is used.  C_d defaults to the calibrated per-dimension constant.
    """
    d = mu.d
    if c_d is None:
        c_d = C_D_CALIBRATED.get(d)
        if c_d is None:
            raise ValueError(f"no calibrated constant for d = {d}; pass c_d or run calibrate_c_d")
    if lam is None:
        lam = _implied_lambda(anchors, quad, m_points)
    der = phi_delta_derivatives(anchors, t, mu, quad, mc_noise, quad_y)
    delta = anchors.delta
    t0, mu0 = anchors.anchors[0]
    m2_mu = mu.second_moment()
    m2_mu0 = mu0.second_moment()

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
    factor: float | None = None,
) -> np.ndarray:
    """Central-difference gradient of the lifted gauge functional.

    Lifting the functional to particle coordinates, X -> s * sw2^2(emp(X), nu),
    the measure derivative at particle i is n times the coordinate gradient,
    so n (F(X + h e_il) - F(X - h e_il)) / (2h) estimates dmu_gauge(x_i)_l.
    """
    s = GAUGE_SQUARE_FACTOR if factor is None else factor
    n, d = mu.n, mu.d
    # nu is fixed across the sweep, so its table is solved once
    qn = _stratified_quantiles(nu, sigma, quad, m_points)

    def gauge_from(points):
        qm = _stratified_quantiles(ParticleEnsemble(points), sigma, quad, m_points)
        return s * float(quad.weights @ np.mean((qm - qn) ** 2, axis=1))

    grad = np.zeros((n, d))
    for i in range(n):
        for l in range(d):
            pts_p = mu.points.copy()
            pts_m = mu.points.copy()
            pts_p[i, l] += h
            pts_m[i, l] -= h
            grad[i, l] = n * (gauge_from(pts_p) - gauge_from(pts_m)) / (2.0 * h)
    return grad


def pin_gauge_square_factor(
    mu: ParticleEnsemble,
    nu: ParticleEnsemble,
    sigma: float,
    quad: SphereQuadrature,
    h: float = 1e-4,
    m_points: int = 256,
    mc_noise: int = 256,
    candidates: tuple = (0.5, 1.0),
) -> dict:
    """Decide the scalar factor s in gauge_g = s * sw2^2 by oracle.

    Compares the finite-difference gradient of the lifted functional
    s * sw2^2 against the closed-form dmu_gauge for each candidate s and
    returns the candidate with the smaller relative error.
    """
    analytic = dmu_gauge(mu, nu, sigma, quad, mu.points, mc_noise)
    scale = float(np.linalg.norm(analytic))
    # the lifted functional is linear in s, so one unit-factor sweep suffices
    fd_unit = lifted_gauge_fd_gradient(mu, nu, sigma, quad, h, m_points, factor=1.0)
    results = {}
    for s in candidates:
        results[s] = float(np.linalg.norm(s * fd_unit - analytic)) / max(scale, 1e-300)
    best = min(results, key=results.get)
    return {"factor": best, "errors": results}


def calibrate_c_d(
    d: int,
    quad: SphereQuadrature | None = None,
    seed: int = 0,
    n_configs: int = 6,
    safety: float = 2.0,
) -> float:
    """Calibrate the dimension constant C_d from the translation oracle.

    Uses anchor families mu_k = translate(mu, c_k), for which the derivative
    quantities have closed forms (each anchor contributes -c_k/d to the
    measure derivative, zero mixed derivative, and kappa_d I to H), and
    records the largest ratio of observed quantity to bound argument, times a
    safety factor.
    """
    if quad is None:
        quad = SphereQuadrature.for_dimension(d, 32 if d == 2 else 96, seed)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_configs):
        n = int(rng.integers(3, 7))
        base = ParticleEnsemble(rng.standard_normal((n, d)))
        delta = float(rng.uniform(0.2, 1.0))
        k_anchors = int(rng.integers(2, 5))
        anchor_list = [(float(rng.uniform(0, 1)), base)]
        for _k in range(1, k_anchors):
            c = rng.standard_normal(d) * 0.5
            anchor_list.append((float(rng.uniform(0, 1)), translate(base, c)))
        anchors = GaugeAnchors(tuple(anchor_list), delta)
        rec = phi_delta_derivative_bounds(
            anchors, 0.5, base, quad, horizon=1.0, c_d=np.inf, m_points=96
        )
        lam = rec["lam"]
        m2 = base.second_moment()
        args = {
            "dmu_l2": (1.0 + lam) / delta**2 + 2.0 * m2,
            "dxdmu_l2": delta**2 * ((1.0 + lam) / delta**2 + m2),
            "h_norm": 1.0,
        }
        for name, denom in args.items():
            ratios.append(rec[name] / denom)
    return safety * float(np.max(ratios))
