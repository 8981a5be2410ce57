import tracemalloc

import numpy as np
import pytest
from conftest import record_path

from mfhjb.control import (
    ActionSpace,
    CoefficientSet,
    FeedbackTable,
    StepControl,
    TestFunction,
    cost_j,
    hjb_residual,
)
from mfhjb.dynamics import (
    SimConfig,
    _generator,
    _NoiseStream,
    _stderr,
    ito_expectation_check,
    moment_checks,
    noise_block,
    simulate,
)
from mfhjb.measures import ParticleEnsemble, sample_iid, translate
from mfhjb.scenarios import scenario

D = 2
SPACE = ActionSpace("box", lo=-np.ones(D), hi=np.ones(D))
EYE = np.eye(D)
ZERO = np.zeros((D, D))


def const_coeffs(b_const=None, sig=None, sig0=None, f=None, g=None):
    bc = np.zeros(D) if b_const is None else np.asarray(b_const, dtype=float)
    s = ZERO if sig is None else sig
    s0 = ZERO if sig0 is None else sig0
    return CoefficientSet(
        drift=lambda t, x, cloud, a: np.broadcast_to(bc, x.shape).astype(float),
        diffusion=lambda t, x, a: s,
        common_diffusion=lambda t: s0,
        running_cost=f or (lambda t, x, cloud, a: np.zeros(x.shape[:-1])),
        terminal_cost=g or (lambda x, cloud: np.zeros(x.shape[:-1])),
        K=3.0,
        beta=1.0,
        action_space=SPACE,
        d=D,
    )


ZERO_POLICY = StepControl.constant(0.0, np.zeros(D))


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0, steps=10, t0=0, t1=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=1, steps=10, t0=1, t1=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n=1, steps=10, t0=0, t1=1, seed=0, epsilon=-0.1)


def test_initial_condition_preserved():
    init = sample_iid({"kind": "gaussian"}, 16, D, seed=0)
    cfg = SimConfig(n=16, steps=5, t0=0.0, t1=0.5, seed=1)
    bundle = record_path(const_coeffs(), init, ZERO_POLICY, cfg)
    np.testing.assert_array_equal(bundle.trajectories[0], init.points)
    assert np.isfinite(bundle.trajectories).all()


def test_common_shift_preserves_spread():
    # only the shared channel drives the system: every particle gets the same
    # increments, so the per-path empirical variance is constant in time
    init = sample_iid({"kind": "gaussian"}, 64, D, seed=2)
    cfg = SimConfig(n=64, steps=20, t0=0.0, t1=1.0, seed=3)
    bundle = record_path(const_coeffs(sig0=EYE), init, ZERO_POLICY, cfg)
    var0 = bundle.trajectories[0].var(axis=0)
    for k in range(1, 21):
        np.testing.assert_allclose(bundle.trajectories[k].var(axis=0), var0, atol=1e-12)


def test_idiosyncratic_second_moment():
    init = sample_iid({"kind": "point_mass", "center": [0.0, 0.0]}, 10_000, D, seed=0)
    cfg = SimConfig(n=10_000, steps=40, t0=0.0, t1=1.0, seed=4)
    x = simulate(const_coeffs(sig=EYE), init, (ZERO_POLICY,), cfg, (0,))[1][0, 0, 0]
    m2 = np.mean(np.sum(x**2, axis=1))
    assert abs(m2 - D) / D < 0.05


def test_epsilon_only_variance():
    eps = 0.3
    init = sample_iid({"kind": "point_mass", "center": [0.0, 0.0]}, 8000, D, seed=0)
    cfg = SimConfig(n=8000, steps=20, t0=0.0, t1=0.5, seed=5, epsilon=eps)
    x = simulate(const_coeffs(), init, (ZERO_POLICY,), cfg, (0,))[1][0, 0, 0]
    m2 = np.mean(np.sum(x**2, axis=1))
    expect = eps**2 * 0.5 * D
    assert abs(m2 - expect) / expect < 0.1


def test_determinism_bit_identical():
    init = sample_iid({"kind": "gaussian"}, 32, D, seed=1)
    cfg = SimConfig(n=32, steps=10, t0=0.0, t1=1.0, seed=6, epsilon=0.1)
    lq_like = const_coeffs(b_const=[0.2, -0.1], sig=0.5 * EYE, sig0=0.3 * EYE)
    b1 = record_path(lq_like, init, ZERO_POLICY, cfg)
    b2 = record_path(lq_like, init, ZERO_POLICY, cfg)
    assert (b1.trajectories == b2.trajectories).all()
    assert (b1.common_increments == b2.common_increments).all()


def test_common_noise_shared_across_idio_seeds():
    init = sample_iid({"kind": "gaussian"}, 16, D, seed=1)
    coeffs = const_coeffs(sig=0.5 * EYE, sig0=0.3 * EYE)
    cfg_a = SimConfig(n=16, steps=10, t0=0.0, t1=1.0, seed=7)
    cfg_b = cfg_a.replace(noise_seed=12345)
    ba = record_path(coeffs, init, ZERO_POLICY, cfg_a)
    bb = record_path(coeffs, init, ZERO_POLICY, cfg_b)
    assert (ba.common_increments == bb.common_increments).all()
    assert not (ba.trajectories[-1] == bb.trajectories[-1]).all()


def test_noise_block_row_stability():
    # leading rows agree regardless of how many rows are drawn
    big = noise_block(9, 1, 0, 3, 64, D)
    small = noise_block(9, 1, 0, 3, 8, D)
    np.testing.assert_array_equal(big[:8], small)


@pytest.mark.parametrize("seed", [0, 1212, 2**63 + 5])
def test_noise_block_matches_a_philox_built_per_key(seed):
    # the re-keyed stream, fresh or reused after other blocks, and each path
    # of a multi-path draw, reproduce a generator built for the (seed,
    # channel, path, step) key
    keys = [(path, step, rows) for path, step in ((0, 0), (3, 17), (2, 5)) for rows in (1, 5, 2048)]
    for channel in range(3):
        stream = _NoiseStream(seed, channel)
        for path, step, rows in keys:
            bitgen = np.random.Philox(
                counter=np.array([0, 0, path, step], dtype=np.uint64),
                key=np.array([seed % 2**64, channel], dtype=np.uint64),
            )
            expect = np.random.Generator(bitgen).standard_normal((rows, D))
            np.testing.assert_array_equal(noise_block(seed, channel, path, step, rows, D), expect)
            np.testing.assert_array_equal(stream.blocks((path, 7, path), step, rows, D)[::2], [expect, expect])


def test_nan_failure_reports_step():
    exploding = CoefficientSet(
        drift=lambda t, x, cloud, a: x * 1e200,
        diffusion=lambda t, x, a: ZERO,
        common_diffusion=lambda t: ZERO,
        running_cost=lambda t, x, cloud, a: np.zeros(x.shape[:-1]),
        terminal_cost=lambda x, cloud: np.zeros(x.shape[:-1]),
        K=1.0,
        beta=1.0,
        action_space=SPACE,
        d=D,
    )
    init = ParticleEnsemble(np.ones((4, D)))
    cfg = SimConfig(n=4, steps=5, t0=0.0, t1=1.0, seed=8)
    with pytest.raises(FloatingPointError, match="step"):
        with pytest.warns(RuntimeWarning, match="overflow"):
            simulate(exploding, init, (ZERO_POLICY,), cfg, (0,))


def test_moment_checks_zero_coefficients():
    init = sample_iid({"kind": "gaussian"}, 32, D, seed=3)
    cfg = SimConfig(n=32, steps=10, t0=0.0, t1=1.0, seed=9)
    rec = moment_checks(const_coeffs(), init, ZERO_POLICY, cfg, shift=np.array([0.1, 0.0]))
    # no motion: sup |X - xi| = 0 and the paired difference equals the shift
    assert all(v == 0.0 for v in rec["c_holder"].values())
    assert rec["c_lip"] == pytest.approx(1.0, rel=1e-12)


def test_moment_checks_diffusion_holder_constant():
    init = sample_iid({"kind": "point_mass", "center": [0.0, 0.0]}, 4096, D, seed=0)
    coeffs = const_coeffs(sig=EYE)
    consts = []
    for steps, frac in ((40, 1.0), (40, 0.5), (40, 0.25)):
        cfg = SimConfig(n=4096, steps=steps, t0=0.0, t1=0.1 / frac * frac, seed=10)
        rec = moment_checks(coeffs, init, ZERO_POLICY, cfg, h_fractions=(frac,))
        consts.extend(rec["c_holder"].values())
    # E sup_{[0,h]} |X|^2 / h stays bounded by a single Doob-type constant
    assert max(consts) <= 4.0 * D * 1.5
    assert max(consts) / min(consts) < 2.0


def test_moment_checks_lipschitz_exact_for_state_independent():
    init = sample_iid({"kind": "gaussian"}, 64, D, seed=4)
    coeffs = const_coeffs(b_const=[0.3, 0.1], sig=0.4 * EYE)
    cfg = SimConfig(n=64, steps=12, t0=0.0, t1=1.0, seed=11)
    rec = moment_checks(coeffs, init, ZERO_POLICY, cfg, shift=np.array([0.25, -0.1]))
    assert rec["c_lip"] == pytest.approx(1.0, rel=1e-12)


def test_moment_checks_zero_shift_raises():
    init = sample_iid({"kind": "gaussian"}, 8, D, seed=3)
    cfg = SimConfig(n=8, steps=4, t0=0.0, t1=1.0, seed=9)
    with pytest.raises(ValueError, match="shift must be nonzero"):
        moment_checks(const_coeffs(sig=EYE), init, ZERO_POLICY, cfg, shift=np.zeros(D))


def _moments_of_two_runs(coeffs, init, policy, cfg, shift, h_fractions, p=2.0):
    # the moment constants from the cloud's and the shifted cloud's paths,
    # each recorded in its own run
    traj = record_path(coeffs, init, policy, cfg).trajectories
    other = record_path(coeffs, translate(init, shift), policy, cfg).trajectories
    e_sup = float(np.mean(np.linalg.norm(traj, axis=2).max(axis=0) ** p))
    e_init = float(np.mean(np.linalg.norm(init.points, axis=1) ** p))
    diffs = np.linalg.norm(traj - other, axis=2).max(axis=0)
    disp = np.linalg.norm(traj - init.points[None], axis=2)
    c_holder = {}
    for frac in h_fractions:
        k_h = max(1, int(round(frac * cfg.steps)))
        c_holder[k_h * cfg.dt] = float(np.mean(disp[: k_h + 1].max(axis=0) ** 2)) / (k_h * cfg.dt)
    return {
        "c_growth": (e_sup / (1.0 + e_init)) ** (1.0 / p),
        "c_lip": float(np.mean(diffs**p) ** (1.0 / p) / np.linalg.norm(shift)),
        "c_holder": c_holder,
        "trajectories": traj,
    }


def _c08_pair():
    # c08's coefficients, cloud and first horizon: unit idiosyncratic noise only
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 4096, D, seed=1)
    cfg = SimConfig(n=4096, steps=40, t0=0.0, t1=0.1, seed=808)
    return const_coeffs(sig=EYE), init, ZERO_POLICY, cfg, np.array([0.2, 0.0]), (1.0,)


def _mean_reversion_pair():
    # a drift that reads the cloud's mean, under common noise
    init = sample_iid({"kind": "gaussian", "std": 0.8}, 48, D, seed=41)
    cfg = SimConfig(n=48, steps=10, t0=0.0, t1=1.0, seed=42, epsilon=0.05)
    policy = StepControl(np.array([0.0, 0.4]), (np.array([0.5, -0.5]), np.array([-0.2, 0.7])))
    return scenario("mean_reversion_mf", {"d": D}), init, policy, cfg, np.array([0.3, -0.1]), (0.5, 1.0)


def _state_dependent_pair():
    # per-particle sigma(x), time-dependent sigma0(t), a cloud-reading drift
    coeffs, _ = _state_dependent_case()
    init = sample_iid({"kind": "gaussian", "std": 0.7}, 32, D, seed=43)
    cfg = SimConfig(n=32, steps=12, t0=0.1, t1=0.7, seed=44)
    policy = StepControl(np.array([0.1, 0.4]), (np.array([0.5, -0.5]), np.array([-1.0, 0.2])))
    return coeffs, init, policy, cfg, np.array([-0.25, 0.15]), (0.25, 0.5, 1.0)


@pytest.mark.parametrize(
    "case", [_c08_pair, _mean_reversion_pair, _state_dependent_pair], ids=["c08", "mean-reversion", "state-dependent"]
)
def test_moment_pair_pass_matches_two_runs(case):
    # the cloud and its shifted copy as two start clouds of one pass give
    # the bits of two separate runs
    coeffs, init, policy, cfg, shift, h_fractions = case()
    rec = moment_checks(coeffs, init, policy, cfg, shift=shift, h_fractions=h_fractions)
    expect = _moments_of_two_runs(coeffs, init, policy, cfg, shift, h_fractions)
    assert rec.keys() == expect.keys()
    for key in ("c_growth", "c_lip", "c_holder"):
        assert rec[key] == expect[key], key
    assert rec["trajectories"].tobytes() == expect["trajectories"].tobytes()


def test_cost_permutation_invariance_with_noise_ids():
    # joint permutation of initial points and noise identities leaves the
    # particle-averaged cost bit-identical (law invariance, made exact)
    rng = np.random.default_rng(5)
    init = sample_iid({"kind": "gaussian"}, 24, D, seed=6)
    coeffs = const_coeffs(b_const=[0.2, 0.0], sig=0.5 * EYE, sig0=0.2 * EYE,
                          g=lambda x, ens: np.tanh(x @ np.array([1.0, -0.5])))
    cfg = SimConfig(n=24, steps=8, t0=0.0, t1=1.0, seed=12)
    base = cost_j(coeffs, init, ZERO_POLICY, cfg, paths=4)
    perm = rng.permutation(24)
    init_p = ParticleEnsemble(init.points[perm])
    permuted = cost_j(coeffs, init_p, ZERO_POLICY, cfg, paths=4, noise_ids=perm)
    assert base["mean"] == permuted["mean"]


@pytest.mark.parametrize(
    "ids, match",
    [([0, 1, 2, 3.9], "integers"), ([0, 1, 2, -1], ">= 0"), ([0, 1, 2, 2], "distinct")],
    ids=["non-integer", "negative", "repeated"],
)
def test_bad_noise_ids_raise(ids, match):
    # each would otherwise run: 3.9 truncated to identity 3, -1 read as the
    # last row, and a repeated id coupling two particles' noise
    init = sample_iid({"kind": "gaussian"}, 4, D, seed=6)
    cfg = SimConfig(n=4, steps=2, t0=0.0, t1=1.0, seed=12)
    with pytest.raises(ValueError, match=match):
        cost_j(const_coeffs(sig=EYE), init, ZERO_POLICY, cfg, paths=2, noise_ids=np.array(ids))


def test_ito_linear_functional():
    pvec = np.array([0.7, -0.4])
    cvec = np.array([0.5, 0.3])
    tf = TestFunction(
        value=lambda t, cloud: float(np.mean(cloud @ pvec)),
        dt=lambda t, cloud: 0.0,
        dmu=lambda t, cloud: np.broadcast_to(pvec, cloud.shape).astype(float),
        dxdmu=lambda t, cloud: np.zeros((cloud.shape[-2], D, D)),
        h_op=lambda t, cloud: ZERO,
    )
    init = sample_iid({"kind": "gaussian", "std": 0.3}, 256, D, seed=7)
    cfg = SimConfig(n=256, steps=20, t0=0.0, t1=1.0, seed=13)
    rec = ito_expectation_check(const_coeffs(b_const=cvec), init, tf, cfg, ZERO_POLICY, paths=8)
    assert rec["gap"] == pytest.approx(0.0, abs=1e-12)
    assert rec["lhs"] == pytest.approx(float(pvec @ cvec), rel=1e-10)


def test_ito_second_moment():
    tf = TestFunction(
        value=lambda t, cloud: float(np.mean(np.sum(cloud**2, axis=1))),
        dt=lambda t, cloud: 0.0,
        dmu=lambda t, cloud: 2.0 * cloud,
        dxdmu=lambda t, cloud: np.broadcast_to(2.0 * EYE, (cloud.shape[-2], D, D)),
        h_op=lambda t, cloud: 2.0 * EYE,
    )
    init = sample_iid({"kind": "point_mass", "center": [0.0, 0.0]}, 2048, D, seed=0)
    cfg = SimConfig(n=2048, steps=25, t0=0.0, t1=1.0, seed=14)
    rec = ito_expectation_check(const_coeffs(sig=EYE), init, tf, cfg, ZERO_POLICY, paths=16)
    assert abs(rec["gap"]) <= 3 * rec["stderr"] + 2 * cfg.dt
    assert rec["rhs"] == pytest.approx(float(D), rel=1e-10)


def test_ito_squared_mean_common_noise():
    tf = TestFunction(
        value=lambda t, cloud: float(np.sum(cloud.mean(axis=-2) ** 2)),
        dt=lambda t, cloud: 0.0,
        dmu=lambda t, cloud: np.broadcast_to(2.0 * cloud.mean(axis=-2, keepdims=True), cloud.shape).astype(float),
        dxdmu=lambda t, cloud: np.zeros((cloud.shape[-2], D, D)),
        h_op=lambda t, cloud: 2.0 * EYE,
    )
    init = sample_iid({"kind": "point_mass", "center": [0.0, 0.0]}, 512, D, seed=0)
    cfg = SimConfig(n=512, steps=25, t0=0.0, t1=1.0, seed=15)
    rec = ito_expectation_check(const_coeffs(sig0=EYE), init, tf, cfg, ZERO_POLICY, paths=96)
    assert abs(rec["gap"]) <= 3 * rec["stderr"] + 2 * cfg.dt
    assert rec["rhs"] == pytest.approx(float(D), rel=1e-10)


def _state_dependent_case():
    # diagonal sigma(x) of shape (..., n, d, d), time-dependent sigma0(t) of
    # shape t.shape + (d, d), and a test function whose every derivative
    # moves with t and the particles:
    # u(t, mu) = (1 + t) E^mu[sin x_1 + sin x_2] + |E^mu x|^2
    mix = np.array([[1.0, 0.0], [0.5, 1.0]])

    def drift(t, x, cloud, a):
        return a - (1.0 + np.asarray(t)[..., None, None]) * (x - cloud.mean(axis=-2, keepdims=True))

    coeffs = CoefficientSet(
        drift=drift,
        diffusion=lambda t, x, a: (0.5 + 0.2 * np.tanh(x))[..., None] * EYE,
        common_diffusion=lambda t: np.multiply.outer(0.3 + 0.1 * np.asarray(t), mix),
        running_cost=lambda t, x, cloud, a: a[..., 0] * x[..., 1] - np.sum(x**2, axis=-1),
        terminal_cost=lambda x, cloud: np.zeros(x.shape[:-1]),
        K=3.0,
        beta=1.0,
        action_space=SPACE,
        d=D,
    )

    def scale(t):
        return 1.0 + np.asarray(t)[..., None, None]

    tf = TestFunction(
        value=lambda t, cloud: (1.0 + t) * np.sin(cloud).sum(axis=-1).mean(axis=-1)
        + np.sum(cloud.mean(axis=-2) ** 2, axis=-1),
        dt=lambda t, cloud: np.sin(cloud).sum(axis=-1).mean(axis=-1),
        dmu=lambda t, cloud: scale(t) * np.cos(cloud) + 2.0 * cloud.mean(axis=-2, keepdims=True),
        dxdmu=lambda t, cloud: -(scale(t) * np.sin(cloud))[..., None] * EYE,
        h_op=lambda t, cloud: -scale(t) * np.sin(cloud).mean(axis=-2)[..., None] * EYE + 2.0 * EYE,
    )
    return coeffs, tf


def _step_terms(coeffs, tf, t, x, a):
    # one particle and one action at a time, as the generator reads on paper
    dmu, dxdmu = tf.dmu(t, x), tf.dxdmu(t, x)
    b, sig = coeffs.drift(t, x, x, a), coeffs.diffusion(t, x, a)
    per_particle = np.array(
        [b[i] @ dmu[i] + 0.5 * np.trace(sig[i] @ sig[i].T @ dxdmu[i]) for i in range(x.shape[0])]
    )
    sig0 = coeffs.common_diffusion(t)
    return per_particle, 0.5 * np.trace(sig0 @ sig0.T @ tf.h_op(t, x))


def test_state_dependent_diffusion_hjb_residual_matches_action_loop():
    coeffs, tf = _state_dependent_case()
    rng = np.random.default_rng(22)
    x = rng.standard_normal((12, D))
    for grid in (None, SPACE.grid(3)):
        actions = SPACE.vertices() if grid is None else grid
        for t in (0.0, 0.35, 0.8):
            ham = np.full(12, -np.inf)
            for a in actions:
                av = np.broadcast_to(a, (12, D))
                per_particle, common = _step_terms(coeffs, tf, t, x, av)
                ham = np.maximum(ham, coeffs.running_cost(t, x, x, av) + per_particle)
            expect = tf.dt(t, x) + ham.mean() + common
            got = hjb_residual(coeffs, tf, t, ParticleEnsemble(x), grid)
            assert abs(got - expect) <= 1e-12


def test_state_dependent_diffusion_ito_matches_step_loop():
    coeffs, tf = _state_dependent_case()
    init = sample_iid({"kind": "gaussian", "std": 0.7}, 32, D, seed=23)
    cfg = SimConfig(n=32, steps=12, t0=0.1, t1=0.7, seed=24)
    policy = StepControl(np.array([0.1, 0.4]), (np.array([0.5, -0.5]), np.array([-1.0, 0.2])))
    paths = 3
    lhs, rhs = np.zeros(paths), np.zeros(paths)
    for p in range(paths):
        bundle = record_path(coeffs, init, policy, cfg, path=p)
        traj = bundle.trajectories
        lhs[p] = tf.value(cfg.t1, traj[-1]) - tf.value(cfg.t0, traj[0])
        for k in range(cfg.steps):
            t, x, a = float(bundle.times[k]), traj[k], bundle.controls_used[k]
            per_particle, common = _step_terms(coeffs, tf, t, x, a)
            rhs[p] += cfg.dt * (tf.dt(t, x) + per_particle.mean() + common)
            # the Euler step with a per-particle diffusion matrix
            dw = np.sqrt(cfg.dt) * noise_block(cfg.seed, 1, p, k, 32, D)
            sig, sig0 = coeffs.diffusion(t, x, a), coeffs.common_diffusion(t)
            step = np.array([sig[i] @ dw[i] for i in range(32)])
            expect = x + coeffs.drift(t, x, x, a) * cfg.dt + step + sig0 @ bundle.common_increments[k]
            np.testing.assert_allclose(traj[k + 1], expect, rtol=0.0, atol=1e-12)
    rec = ito_expectation_check(coeffs, init, tf, cfg, policy, paths=paths)
    assert abs(rec["lhs"] - lhs.mean()) <= 1e-12
    assert abs(rec["rhs"] - rhs.mean()) <= 1e-12
    assert abs(rec["gap"] - (lhs - rhs).mean()) <= 1e-12


def test_simulate_running_matches_step_loop():
    def f(t, x, cloud, a):
        # depends on time, state, cloud and action
        mean = cloud.mean(axis=(-2, -1))[..., None]
        return np.sin(x @ np.array([1.0, 2.0])) * (1.0 + t) + mean * a[..., 0]

    coeffs = const_coeffs(b_const=[0.2, -0.1], sig=0.5 * EYE, sig0=0.3 * EYE, f=f)
    init = sample_iid({"kind": "gaussian"}, 12, D, seed=9)
    cfg = SimConfig(n=12, steps=9, t0=0.1, t1=1.0, seed=17)
    policy = StepControl(np.array([0.1, 0.5]), (np.array([0.3, 0.0]), np.array([-0.7, 0.2])))
    bundle = record_path(coeffs, init, policy, cfg)
    running = np.zeros(12)
    for k in range(cfg.steps):
        x = bundle.trajectories[k]
        running += f(float(bundle.times[k]), x, x, bundle.controls_used[k]) * cfg.dt
    got, terminal = simulate(coeffs, init, (policy,), cfg, (0,))
    assert got.shape == (1, 1, 1, 12) and terminal.shape == (1, 1, 1, 12, D)
    np.testing.assert_array_equal(got[0, 0, 0], running)
    np.testing.assert_array_equal(terminal[0, 0, 0], bundle.trajectories[-1])


def test_policy_batch_matches_each_policy_alone():
    # a tuple of policies advances on one shared noise draw per step; each
    # candidate's running cost and terminal state equal its own run bit for
    # bit, here with a per-particle diffusion, eps-noise and permuted ids
    coeffs, _ = _state_dependent_case()
    init = sample_iid({"kind": "gaussian", "std": 0.7}, 16, D, seed=31)
    cfg = SimConfig(n=16, steps=7, t0=0.0, t1=0.7, seed=32, epsilon=0.1, noise_seed=33)
    table = FeedbackTable(lo=-np.ones(D), hi=np.ones(D), table=np.arange(8.0).reshape(2, 2, 2) / 8.0)
    policies = (
        ZERO_POLICY,
        StepControl(np.array([0.0, 0.3]), (np.array([1.0, -1.0]), np.array([-0.5, 0.5]))),
        StepControl(np.array([0.0]), (table,)),
    )
    ids = np.random.default_rng(34).permutation(16)
    running, terminal = simulate(coeffs, init, policies, cfg, (2,), ids)
    assert running.shape == (1, 1, 3, 16) and terminal.shape == (1, 1, 3, 16, D)
    for i, policy in enumerate(policies):
        alone = simulate(coeffs, init, (policy,), cfg, (2,), ids)
        np.testing.assert_array_equal(running[0, 0, i], alone[0][0, 0, 0])
        np.testing.assert_array_equal(terminal[0, 0, i], alone[1][0, 0, 0])


def _ito_on_recorded_paths(coeffs, init, tf, cfg, policy, paths):
    # the chain rule's sides from whole recorded paths: the generator on a
    # path's (steps, n, d) history at once, summed in step order by cumsum
    lhs, rhs = np.empty(paths), np.empty(paths)
    for p in range(paths):
        bundle = record_path(coeffs, init, policy, cfg, path=p)
        traj = bundle.trajectories
        lhs[p] = tf.value(cfg.t1, traj[-1]) - tf.value(cfg.t0, traj[0])
        t, x, a = bundle.times[:-1], traj[:-1], bundle.controls_used
        per_particle, common = _generator(
            coeffs.drift(t, x, x, a),
            np.asarray(coeffs.diffusion(t, x, a), dtype=float),
            np.asarray(coeffs.common_diffusion(t), dtype=float),
            tf.dmu(t, x),
            tf.dxdmu(t, x),
            tf.h_op(t, x),
        )
        rhs[p] = np.cumsum(cfg.dt * (tf.dt(t, x) + per_particle.mean(axis=-1) + common))[-1]
    diffs = lhs - rhs
    return {"lhs": lhs.mean(), "rhs": rhs.mean(), "gap": diffs.mean(), "stderr": _stderr(diffs)}


def _second_moment_case():
    # c07's second-moment case: idiosyncratic noise only
    tf = TestFunction(
        value=lambda t, cloud: float(np.mean(np.sum(cloud**2, axis=1))),
        dt=lambda t, cloud: 0.0,
        dmu=lambda t, cloud: 2.0 * cloud,
        dxdmu=lambda t, cloud: np.broadcast_to(2.0 * EYE, (cloud.shape[-2], D, D)),
        h_op=lambda t, cloud: 2.0 * EYE,
    )
    init = sample_iid({"kind": "point_mass", "center": [0.0, 0.0]}, 200, D, seed=0)
    cfg = SimConfig(n=200, steps=30, t0=0.0, t1=1.0, seed=707)
    return const_coeffs(sig=EYE), init, tf, cfg, ZERO_POLICY


def _state_dependent_run():
    coeffs, tf = _state_dependent_case()
    init = sample_iid({"kind": "gaussian", "std": 0.7}, 32, D, seed=23)
    cfg = SimConfig(n=32, steps=12, t0=0.1, t1=0.7, seed=24)
    policy = StepControl(np.array([0.1, 0.4]), (np.array([0.5, -0.5]), np.array([-1.0, 0.2])))
    return coeffs, init, tf, cfg, policy


@pytest.mark.parametrize("case", [_state_dependent_run, _second_moment_case], ids=["state-dependent", "c07"])
def test_ito_fold_matches_recorded_paths_bitwise(case):
    # folding the generator step by step gives the same bits as evaluating
    # it on each recorded path and taking the last cumulative sum
    coeffs, init, tf, cfg, policy = case()
    rec = ito_expectation_check(coeffs, init, tf, cfg, policy, paths=5)
    expect = _ito_on_recorded_paths(coeffs, init, tf, cfg, policy, paths=5)
    for key in ("lhs", "rhs", "gap", "stderr"):
        assert rec[key] == expect[key], key


@pytest.mark.parametrize("steps", [50, 400])
def test_ito_check_keeps_no_path_history(steps):
    # a recorded path at n = 2000 alone is (steps + 1) * 32 kB
    coeffs, tf = _state_dependent_case()
    init = sample_iid({"kind": "gaussian", "std": 0.7}, 2000, D, seed=25)
    cfg = SimConfig(n=2000, steps=steps, t0=0.0, t1=1.0, seed=26)
    policy = StepControl(np.array([0.0]), (np.array([0.5, -0.5]),))
    tracemalloc.start()
    try:
        ito_expectation_check(coeffs, init, tf, cfg, policy, paths=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
