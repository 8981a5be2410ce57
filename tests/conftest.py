from dataclasses import dataclass
from itertools import islice

import numpy as np
import pytest

from mfhjb import dynamics, sliced_gauge, transport1d
from mfhjb.budget import CAPS
from mfhjb.control import COORDINATES, Feature, cylindrical


@dataclass(frozen=True)
class RecordedPath:
    """One policy's whole path on one common-noise path."""

    times: np.ndarray  # (steps + 1,)
    trajectories: np.ndarray  # (steps + 1, n, d)
    controls_used: np.ndarray  # (steps, n, q)
    common_increments: np.ndarray  # (steps, d)


def record_path(coeffs, init, policy, cfg, path=0, noise_ids=None) -> RecordedPath:
    """The reference recorder: fold the one Euler scheme for one policy from
    init's cloud on one path and keep every step's state, actions and common
    increment."""
    scheme = dynamics._euler(coeffs, init.points[None], (policy,), cfg, (path,), noise_ids)
    traj, controls, common = [], [], []
    for _, x, a, *_, dw0 in islice(scheme, cfg.steps):
        traj.append(x[0, 0, 0])
        controls.append(a[0, 0, 0])
        common.append(dw0[0])
    traj.append(next(scheme)[0, 0, 0])
    times = cfg.t0 + cfg.dt * np.arange(cfg.steps + 1)
    return RecordedPath(times, np.stack(traj), np.stack(controls), np.stack(common))


SQUARES = Feature(np.square, lambda x: 2.0 * x, 2.0)
SINES = Feature(np.sin, np.cos, lambda x: -np.sin(x))
P_LINEAR = np.array([0.7, -0.4])

# the chain-rule fixtures, d = 2: <p, mean>, the mean of |x|^2 and |mean|^2
LINEAR = cylindrical((COORDINATES,), lambda t, m: np.sum(m * P_LINEAR, axis=-1), 0.0, P_LINEAR, np.zeros((2, 2)))
SECOND_MOMENT = cylindrical((SQUARES,), lambda t, m: np.sum(m, axis=-1), 0.0, np.ones(2), np.zeros((2, 2)))
MEAN_SQUARE = cylindrical((COORDINATES,), lambda t, m: np.sum(m * m, axis=-1), 0.0, lambda t, m: 2.0 * m, 2.0 * np.eye(2))


# every derivative moves with t and the particles:
# u(t, mu) = (1 + t) E^mu[sin x_1 + sin x_2] + |E^mu x|^2
STATE_DEPENDENT = cylindrical(
    (SINES, COORDINATES),
    lambda t, m: (1.0 + t) * np.sum(m[..., :2], axis=-1) + np.sum(m[..., 2:] * m[..., 2:], axis=-1),
    lambda t, m: np.sum(m[..., :2], axis=-1),
    lambda t, m: np.concatenate([np.broadcast_to(1.0 + np.asarray(t)[..., None], (*m.shape[:-1], 2)), 2.0 * m[..., 2:]], -1),
    np.diag([0.0, 0.0, 2.0, 2.0]),
)


def lifted_errors(tf, t, cloud):
    """tf's fields against central differences (step 3e-4) of ``value`` on
    the lift U(x_1, ..., x_n) = u(t, mu^n), each as max |got - want| /
    max(1, max |want|): "dmu" n grad U against dmu(x_i), "second" n^2 hess U
    against d2mu(x_i, x_j) + delta_ij n dxdmu(x_i), "dt" against dt, and
    "h_op" H u against mean_i dxdmu(x_i) + mean_{i,j} d2mu(x_i, x_j)."""
    n, d = cloud.shape
    size, h = n * d, 3e-4
    steps = h * np.eye(size).reshape(size, n, d)

    def lift(clouds):
        return np.broadcast_to(tf.value(t, clouds), clouds.shape[:-2])

    grad = (lift(cloud + steps) - lift(cloud - steps)) / (2 * h)
    plus, minus = steps[:, None] + steps[None], steps[:, None] - steps[None]
    hess = (lift(cloud + plus) - lift(cloud + minus) - lift(cloud - minus) + lift(cloud - plus)) / (4 * h * h)
    dxdmu, d2mu = tf.dxdmu(t, cloud), tf.d2mu(t, cloud)
    second = d2mu + n * np.eye(n)[:, :, None, None] * dxdmu[:, None]
    fd_dt = (tf.value(t + h, cloud) - tf.value(t - h, cloud)) / (2 * h)

    def rel(got, want):
        return float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))

    return {
        "dmu": rel(n * grad, tf.dmu(t, cloud).reshape(size)),
        "second": rel(n * n * hess, second.transpose(0, 2, 1, 3).reshape(size, size)),
        "dt": rel(fd_dt, tf.dt(t, cloud)),
        "h_op": rel(tf.h_op(t, cloud), dxdmu.mean(axis=0) + d2mu.mean(axis=(0, 1))),
    }


class TableSolves:
    """The row blocks handed to sliced_gauge._stratified_quantiles, one per call,
    with their level counts."""

    def __init__(self, monkeypatch):
        self.blocks, self.levels = [], []
        solve = sliced_gauge._stratified_quantiles

        def counted(rows, sigma, m_points):
            self.blocks.append(rows.copy())
            self.levels.append(m_points)
            return solve(rows, sigma, m_points)

        monkeypatch.setattr(sliced_gauge, "_stratified_quantiles", counted)

    def assert_one_block_per_chunk(self, clouds, quad):
        """For the blocks of one table request: each distinct cloud object's
        projected rows solved exactly once; each block's rows padded with +inf
        only after their finite values and only up to the block's widest cloud;
        blocks in particle-count order; and the scalar chunk rule, every cloud
        charged at the request's widest, max(n, entry_state), for its levels
        and the solve's seed grid points: each block within the "gauge" cap
        unless it holds one cloud, and each block but the last full, one more
        cloud would push it past the cap."""
        distinct = {id(c): c for c in clouds}.values()
        finite = []
        for block in self.blocks:
            counts = np.isfinite(block).sum(axis=1)
            assert all(np.isfinite(row[:k]).all() and np.all(row[k:] == np.inf) for row, k in zip(block, counts))
            assert block.shape[1] == counts.max()
            finite.append([row[:k] for row, k in zip(block, counts)])
        got = sorted(row.tobytes() for rows in finite for row in rows)
        want = sorted(row.tobytes() for c in distinct for row in (c.points @ quad.nodes.T).T)
        assert got == want
        width = max(self.blocks[-1].shape[1], CAPS["entry_state"]) * (self.levels[-1] + transport1d._SEED_GRID)
        for block in self.blocks:
            assert block.shape[0] == quad.count or block.shape[0] * width <= CAPS["gauge"]
        for block, nxt in zip(self.blocks, finite[1:]):
            assert block.shape[1] <= len(nxt[0])
            assert (block.shape[0] + quad.count) * width > CAPS["gauge"]


@pytest.fixture
def table_solves(monkeypatch):
    return TableSolves(monkeypatch)


class CdfPasses:
    """Passes of transport1d._mixture_cdf and the atoms (points x particles) they
    evaluate; a pass that also returns the density counts once."""

    def __init__(self, monkeypatch):
        self.passes = self.atoms = 0
        cdf = transport1d._mixture_cdf

        def counted(values, sigma, z, **kwargs):
            self.passes += 1
            self.atoms += np.size(z) * np.shape(values)[-1]
            return cdf(values, sigma, z, **kwargs)

        monkeypatch.setattr(transport1d, "_mixture_cdf", counted)

    def reset(self):
        self.passes = self.atoms = 0


@pytest.fixture
def cdf_passes(monkeypatch):
    return CdfPasses(monkeypatch)
