"""The path axis of the Euler scheme against the per-path loop it replaced.

Every Monte Carlo pass advances a chunk of paths x start clouds x policies
as one state.  The reference below re-implements the scheme it replaced:
one path at a time, its A policies as one (A, n, d) state, and each DPP
tail estimated cloud by cloud.  Each case runs with the chunk cap
lowered so that the paths span several chunks, and must agree bit for bit.
"""

import math
from itertools import islice

import numpy as np
import pytest

from mfhjb.budget import CAPS
from mfhjb.control import (
    ActionSpace,
    CoefficientSet,
    SearchSpec,
    StepControl,
    _exhaustive_policies,
    cost_j,
    dpp_residual,
    value_estimate,
)
from mfhjb.dynamics import SimConfig, _euler, _stderr, noise_block, simulate
from mfhjb.measures import ParticleEnsemble, sample_iid
from mfhjb.mollify import MollifiedCoefficients, MollifierSpec
from mfhjb.scenarios import scenario

D = 2
SPACE = ActionSpace(-np.ones(D), np.ones(D))


def _parent_pass(coeffs, init, policies, cfg, path, noise_ids=None):
    """One path of the earlier scheme: running costs (A, n), terminal (A, n, d)."""
    n, d = init.n, init.d
    dt, sq = cfg.dt, math.sqrt(cfg.dt)
    ids = slice(None) if noise_ids is None else np.asarray(noise_ids, dtype=int)
    rows = n if noise_ids is None else int(ids.max()) + 1
    x = np.repeat(init.points[None], len(policies), axis=0)
    running = np.zeros((len(policies), n))
    for k in range(cfg.steps):
        t = cfg.t0 + dt * k
        acts = [pol.actions[pol.piece(t)] for pol in policies]
        a = np.stack([np.broadcast_to(act, (n,) + act.shape) for act in acts])
        running += coeffs.running_cost(t, x, x, a) * dt
        dw0 = sq * noise_block(cfg.seed, 0, path, k, 1, d)[0]
        dw = sq * noise_block(cfg.idio_seed, 1, path, k, rows, d)[ids]
        sig = np.asarray(coeffs.diffusion(t, x, a), dtype=float)
        diffuse = dw @ sig.T if sig.ndim == 2 else np.einsum("...ij,...j->...i", sig, dw)
        x = (
            x
            + coeffs.drift(t, x, x, a) * dt
            + diffuse
            + dw0 @ np.asarray(coeffs.common_diffusion(t), dtype=float).T
        )
        if cfg.epsilon > 0.0:
            x = x + cfg.epsilon * (sq * noise_block(cfg.idio_seed, 2, path, k, rows, d)[ids])
    return running, x


def _parent_cost_paths(coeffs, init, policies, cfg, paths, noise_ids=None):
    per_path = np.empty((len(policies), paths))
    for p in range(paths):
        running, x = _parent_pass(coeffs, init, policies, cfg, p, noise_ids)
        for i, row in enumerate(running + coeffs.terminal_cost(x, x)):
            per_path[i, p] = math.fsum(row) / init.n
    return per_path


def _parent_search(coeffs, init, cfg, search, paths):
    """The earlier exhaustive value_estimate: (value, stderr, trace)."""
    policies = list(_exhaustive_policies(search, coeffs.action_space, cfg.t0, cfg.t1))
    trace = [
        (pol.describe(), math.fsum(row) / paths, _stderr(row))
        for pol, row in zip(policies, _parent_cost_paths(coeffs, init, tuple(policies), cfg, paths))
    ]
    best = max(trace, key=lambda e: e[1])  # the first of equal maxima
    return best[1], best[2], trace


def _parent_dpp(coeffs, init, t, s_mid, t1, search, n_steps, paths_outer, paths_inner, seed):
    n = init.n
    steps_leg = max(1, int(round(n_steps * (s_mid - t) / (t1 - t))))
    lhs, lhs_err, _ = _parent_search(
        coeffs, init, SimConfig(n=n, steps=n_steps, t0=t, t1=t1, seed=seed), search, paths_outer
    )
    cfg_leg = SimConfig(n=n, steps=steps_leg, t0=t, t1=s_mid, seed=seed + 17)
    legs = tuple(_exhaustive_policies(search, coeffs.action_space, t, s_mid))
    totals = np.empty((len(legs), paths_outer))
    for p in range(paths_outer):
        running, clouds = _parent_pass(coeffs, init, legs, cfg_leg, p)
        cfg_tail = SimConfig(n=n, steps=max(1, n_steps - steps_leg), t0=s_mid, t1=t1, seed=seed + 31 * (p + 1))
        for i, (leg_running, cloud) in enumerate(zip(running, clouds)):
            cont = _parent_search(coeffs, ParticleEnsemble(cloud), cfg_tail, search, paths_inner)[0]
            totals[i, p] = math.fsum(leg_running) / n + cont
    means = [float(row.mean()) for row in totals]
    best = int(np.argmax(means))
    stderr = math.sqrt(lhs_err**2 + _stderr(totals[best]) ** 2)
    return {"lhs": lhs, "rhs": means[best], "gap": lhs - means[best], "stderr": stderr,
            "best_leg_policy": legs[best].describe()}


def _state_dependent():
    # per-particle diffusion (the einsum branch), a cloud-mean drift, an
    # action- and state-dependent running cost and a cloud-dependent
    # terminal cost
    mix = np.array([[1.0, 0.0], [0.5, 1.0]])
    return CoefficientSet(
        drift=lambda t, x, cloud, a: a - 1.3 * (x - cloud.mean(axis=-2, keepdims=True)),
        diffusion=lambda t, x, a: (0.5 + 0.2 * np.tanh(x))[..., None] * np.eye(D),
        common_diffusion=lambda t: (0.3 + 0.1 * t) * mix,
        running_cost=lambda t, x, cloud, a: a[..., 0] * x[..., 1] - np.sum(x**2, axis=-1),
        terminal_cost=lambda x, cloud: np.tanh(np.sum(x * cloud.mean(axis=-2, keepdims=True), axis=-1)),
        K=3.0,
        beta=1.0,
        action_space=SPACE,
        d=D,
    )


def _paths_per_chunk(monkeypatch, per_path_state: int, paths_per_chunk: int):
    monkeypatch.setitem(CAPS, "monte_carlo", per_path_state * paths_per_chunk)


@pytest.mark.parametrize("per_chunk", [2, 3])
def test_exhaustive_search_matches_per_path_loop(monkeypatch, per_chunk):
    mr = scenario("mean_reversion_mf", {"d": 2, "mf_center": 0.5})
    init = sample_iid({"kind": "gaussian", "std": 0.8}, 24, 2, seed=70)
    cfg = SimConfig(n=24, steps=6, t0=0.0, t1=1.0, seed=71)
    search = SearchSpec(n_intervals=2)  # 16 policies
    _paths_per_chunk(monkeypatch, 16 * 24 * 2, per_chunk)
    rec = value_estimate(mr, init, cfg, search, paths=5)
    value, stderr, trace = _parent_search(mr, init, cfg, search, 5)
    assert [(e["policy"], e["mean"], e["stderr"]) for e in rec["trace"]] == trace
    assert (rec["value"], rec["stderr"]) == (value, stderr)


@pytest.mark.parametrize("epsilon", [0.0, 0.2], ids=["eps0", "eps"])
def test_cost_j_permuted_ids_matches_per_path_loop(monkeypatch, epsilon):
    # per-particle diffusion, the perturbation channel and a permutation of
    # the noise identities; each path's rows are gathered before stacking
    coeffs = _state_dependent()
    init = sample_iid({"kind": "gaussian", "std": 0.7}, 16, D, seed=74)
    cfg = SimConfig(n=16, steps=7, t0=0.0, t1=0.7, seed=75, epsilon=epsilon, noise_seed=76)
    ids = np.random.default_rng(77).permutation(16)
    policy = StepControl(np.array([0.0, 0.3]), (np.array([1.0, -1.0]), np.array([-0.5, 0.5])))
    _paths_per_chunk(monkeypatch, 16 * D, 2)
    rec = cost_j(coeffs, init, policy, cfg, paths=5, noise_ids=ids)
    expect = _parent_cost_paths(coeffs, init, (policy,), cfg, 5, ids)[0]
    np.testing.assert_array_equal(rec["per_path"], expect)
    assert rec["mean"] == math.fsum(expect) / 5


def test_eps_search_matches_per_path_loop(monkeypatch):
    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 20, 2, seed=78)
    cfg = SimConfig(n=20, steps=5, t0=0.0, t1=1.0, seed=79, epsilon=0.3)
    _paths_per_chunk(monkeypatch, 4 * 20 * 2, 2)
    rec = value_estimate(lq, init, cfg, SearchSpec(), paths=5)
    value, stderr, trace = _parent_search(lq, init, cfg, SearchSpec(), 5)
    assert [(e["policy"], e["mean"], e["stderr"]) for e in rec["trace"]] == trace
    assert (rec["value"], rec["stderr"]) == (value, stderr)


def test_mollified_search_matches_per_path_loop(monkeypatch):
    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    mol = MollifiedCoefficients(lq, MollifierSpec(m=8, offsets=16, seed=80), 12, horizon=1.0)
    init = sample_iid({"kind": "gaussian", "std": 0.4}, 12, 2, seed=81)
    cfg = SimConfig(n=12, steps=4, t0=0.0, t1=1.0, seed=82, epsilon=0.2)
    _paths_per_chunk(monkeypatch, 4 * 12 * 2, 2)
    rec = value_estimate(mol, init, cfg, SearchSpec(), paths=5)
    value, stderr, trace = _parent_search(mol, init, cfg, SearchSpec(), 5)
    assert [(e["policy"], e["mean"], e["stderr"]) for e in rec["trace"]] == trace
    assert (rec["value"], rec["stderr"]) == (value, stderr)


@pytest.mark.parametrize("cap", [2**14, 1024, 256, 1], ids=["default", "tails-2", "legs-2", "one-path"])
@pytest.mark.parametrize("actions", [None, (np.array([0.6, -0.2]),)], ids=["lq", "single"])
def test_dpp_matches_per_cloud_loop(monkeypatch, cap, actions):
    # c13's two searches at a small size; at 1024 the tails (4 clouds x 4
    # policies x 16 x 2 per path) take 2 inner paths per pass, at 256 the
    # legs take 2 outer paths per pass and the tails one
    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 16, 2, seed=83)
    search = SearchSpec(actions=actions)
    monkeypatch.setitem(CAPS, "monte_carlo", cap)
    kw = dict(n_steps=6, paths_outer=3, paths_inner=5, seed=84)
    rec = dpp_residual(lq, init, 0.0, 0.5, 1.0, search, **kw)
    assert rec == _parent_dpp(lq, init, 0.0, 0.5, 1.0, search, **kw)


def test_path_batch_rows_match_single_paths():
    # simulate on a path range and start clouds: row (p, l) of the outputs is
    # that path from that cloud alone
    coeffs = _state_dependent()
    rng = np.random.default_rng(85)
    clouds = rng.standard_normal((3, 10, D))
    init = ParticleEnsemble(clouds[0])
    cfg = SimConfig(n=10, steps=5, t0=0.0, t1=0.5, seed=86, epsilon=0.1)
    policies = (StepControl.constant(0.0, [0.5, -0.5]), StepControl.constant(0.0, [-1.0, 0.2]))
    running, x = simulate(coeffs, init, policies, cfg, range(2, 6), starts=clouds)
    assert running.shape == (4, 3, 2, 10) and x.shape == (4, 3, 2, 10, D)
    for p in range(4):
        for l in range(3):
            alone = simulate(coeffs, ParticleEnsemble(clouds[l]), policies, cfg, (2 + p,))
            np.testing.assert_array_equal(running[p, l], alone[0][0, 0])
            np.testing.assert_array_equal(x[p, l], alone[1][0, 0])
    with pytest.raises(ValueError, match="start clouds"):
        simulate(coeffs, init, policies, cfg, (0,), starts=clouds[:, :5])


def test_scheme_states_are_fresh_and_actions_restack_at_breakpoints():
    # two three-piece policies: the actions are restacked at step 0 and at
    # each later breakpoint of either policy, and reused otherwise
    coeffs = _state_dependent()
    init = sample_iid({"kind": "gaussian", "std": 0.7}, 12, D, seed=88)
    cfg = SimConfig(n=12, steps=10, t0=0.0, t1=1.0, seed=89, epsilon=0.1)
    policies = (
        StepControl(np.array([0.0, 0.5, 0.7]), (np.array([1.0, -1.0]), np.array([0.2, 0.4]), np.array([-0.6, 0.3]))),
        StepControl(np.array([0.0, 0.2, 0.4]), (np.array([0.5, 0.5]), np.array([0.8, -0.4]), np.array([-1.0, 1.0]))),
    )
    scheme = _euler(coeffs, init.points[None], policies, cfg, range(3), None)
    yielded, copies = [], []
    for t, x, a, b, *_, dw0 in islice(scheme, cfg.steps):
        yielded.append((x, a, b, dw0))
        copies.append(tuple(v.copy() for v in (x, a, b, dw0)))
    terminal = next(scheme)
    states = [x for x, *_ in yielded] + [terminal]
    for k, x in enumerate(states):
        assert x.flags.c_contiguous and x.shape == (3, 1, 2, 12, D)
        assert not any(np.shares_memory(x, earlier) for earlier in states[:k])
    for arrays, kept in zip(yielded, copies):  # nothing changed after its yield
        for v, c in zip(arrays, kept):
            np.testing.assert_array_equal(v, c)
    actions = [a for _, a, *_ in yielded]
    restacked = [k for k, a in enumerate(actions) if k == 0 or a is not actions[k - 1]]
    assert restacked == [0, 2, 4, 5, 7]

    running, x = simulate(coeffs, init, policies, cfg, range(3))
    for p in range(3):
        want_running, want_x = _parent_pass(coeffs, init, policies, cfg, p)
        np.testing.assert_array_equal(running[p, 0], want_running)
        np.testing.assert_array_equal(x[p, 0], want_x)
        np.testing.assert_array_equal(terminal[p, 0], want_x)


def _blow_up_coeffs(threshold):
    # the state follows the common noise alone; once a particle's first
    # coordinate passes the threshold the drift is infinite
    return CoefficientSet(
        drift=lambda t, x, cloud, a: np.where(x[..., :1] > threshold, np.inf, 0.0) * np.ones(D),
        diffusion=lambda t, x, a: np.zeros((D, D)),
        common_diffusion=lambda t: np.eye(D),
        running_cost=lambda t, x, cloud, a: np.zeros(x.shape[:-1]),
        terminal_cost=lambda x, cloud: np.zeros(x.shape[:-1]),
        K=1.0,
        beta=1.0,
        action_space=SPACE,
        d=D,
    )


@pytest.mark.parametrize("per_chunk", [1, 2, 8])
def test_blow_up_names_step_and_path(monkeypatch, per_chunk):
    steps, paths, threshold = 10, 8, 0.9
    cfg = SimConfig(n=3, steps=steps, t0=0.0, t1=1.0, seed=87)
    sq = math.sqrt(cfg.dt)
    # x_k = x_0 + sum_{j < k} dW0_j with x_0 = 0; the drift read at step k
    # makes x_{k+1} infinite, so the scheme reports step k + 1
    first = {}
    for p in range(paths):
        level = np.cumsum([sq * noise_block(cfg.seed, 0, p, k, 1, D)[0, 0] for k in range(steps)])
        crossed = np.flatnonzero(level[: steps - 1] > threshold)
        if crossed.size:
            first[p] = int(crossed[0]) + 2
    assert 0 < len(first) < paths  # some paths blow up and some do not
    chunks = [range(lo, min(lo + per_chunk, paths)) for lo in range(0, paths, per_chunk)]
    chunk = next(c for c in chunks if any(p in first for p in c))
    step = min(first[p] for p in chunk if p in first)
    path = min(p for p in chunk if first.get(p) == step)
    _paths_per_chunk(monkeypatch, 3 * D, per_chunk)
    init = ParticleEnsemble(np.zeros((3, D)))
    with pytest.raises(FloatingPointError, match=rf"at step {step} .* on path {path}$"):
        cost_j(_blow_up_coeffs(threshold), init, StepControl.constant(0.0, np.zeros(D)), cfg, paths=paths)
