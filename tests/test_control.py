import math

import numpy as np
import pytest

from mfhjb.control import (
    ActionSpace,
    CoefficientSet,
    FeedbackTable,
    SearchSpec,
    StepControl,
    TestFunction,
    _exhaustive_policies,
    cost_j,
    dpp_residual,
    h_via_second_derivative,
    hjb_residual,
    value_estimate,
    viscosity_check,
)
from mfhjb.dynamics import SimConfig, simulate
from mfhjb.measures import ParticleEnsemble, sample_iid
from mfhjb.scenarios import lq_test_function, lq_true_value, scenario
from mfhjb.sliced_gauge import SphereQuadrature


def test_action_space_box():
    space = ActionSpace("box", lo=[-1, -1], hi=[1, 1])
    verts = space.vertices()
    assert len(verts) == 4
    assert space.contains([0.5, -0.5])
    assert not space.contains([1.5, 0.0])
    assert len(space.grid(3)) == 9


def test_action_space_finite_and_errors():
    space = ActionSpace("finite", points=([0.0], [1.0]))
    assert len(space.vertices()) == 2
    with pytest.raises(ValueError):
        ActionSpace("box", lo=[1.0], hi=[0.0])
    with pytest.raises(ValueError):
        ActionSpace("weird")


def test_step_control_lookup():
    pol = StepControl(np.array([0.0, 0.5]), (np.array([1.0]), np.array([-1.0])))
    x = np.zeros((3, 1))
    np.testing.assert_array_equal(pol.actions_at(0.2, x), np.ones((3, 1)))
    np.testing.assert_array_equal(pol.actions_at(0.5, x), -np.ones((3, 1)))
    np.testing.assert_array_equal(pol.actions_at(0.9, x), -np.ones((3, 1)))
    with pytest.raises(ValueError):
        StepControl(np.array([0.5, 0.5]), (np.array([1.0]), np.array([1.0])))


def test_feedback_table_lookup():
    table = FeedbackTable(
        lo=np.array([-1.0]), hi=np.array([1.0]), table=np.array([[-1.0], [1.0]])
    )
    x = np.array([[-0.7], [0.3], [2.0]])
    np.testing.assert_array_equal(table.actions_for(x), [[-1.0], [1.0], [1.0]])
    pol = StepControl(np.array([0.0]), (table,))
    np.testing.assert_array_equal(pol.actions_at(0.1, x), [[-1.0], [1.0], [1.0]])


def test_cost_zero_and_constant_running():
    zero = scenario("zero")
    init = sample_iid({"kind": "gaussian"}, 16, 2, seed=0)
    cfg = SimConfig(n=16, steps=8, t0=0.0, t1=0.8, seed=1)
    pol = StepControl.constant(0.0, np.zeros(2))
    assert cost_j(zero, init, pol, cfg, paths=3)["mean"] == 0.0

    one = CoefficientSet(
        drift=zero.drift, diffusion=zero.diffusion, common_diffusion=zero.common_diffusion,
        running_cost=lambda t, x, cloud, a: np.ones(x.shape[:-1]),
        terminal_cost=zero.terminal_cost, K=2.0, beta=1.0, action_space=zero.action_space, d=2,
    )
    rec = cost_j(one, init, pol, cfg, paths=3)
    assert rec["mean"] == pytest.approx(0.8, rel=1e-12)


def test_cost_lq_linear_drift_analytic():
    p = [1.0, -0.5]
    lq = scenario("lq_drift", {"d": 2, "p": p})
    init = sample_iid({"kind": "gaussian", "std": 0.4}, 256, 2, seed=2)
    cfg = SimConfig(n=256, steps=20, t0=0.0, t1=1.0, seed=3)
    a = np.array([0.5, 0.5])
    rec = cost_j(lq, init, StepControl.constant(0.0, a), cfg, paths=24)
    expect = float(init.mean() @ np.asarray(p)) + 1.0 * float(np.asarray(p) @ a)
    assert abs(rec["mean"] - expect) <= 3 * rec["stderr"]


def test_value_estimate_degenerate_and_zero():
    zero = scenario("zero")
    init = sample_iid({"kind": "gaussian"}, 8, 2, seed=4)
    cfg = SimConfig(n=8, steps=4, t0=0.0, t1=0.4, seed=5)
    rec = value_estimate(zero, init, cfg, SearchSpec(), paths=2)
    assert rec["value"] == 0.0
    single = SearchSpec(actions=(np.array([0.3, -0.3]),))
    rec2 = value_estimate(zero, init, cfg, single, paths=2)
    direct = cost_j(zero, init, StepControl.constant(0.0, [0.3, -0.3]), cfg, paths=2)
    assert rec2["value"] == direct["mean"]


def test_value_estimate_lq_optimum_and_sup_property():
    p = [1.0, -0.5]
    lq = scenario("lq_drift", {"d": 2, "p": p})
    init = sample_iid({"kind": "gaussian", "std": 0.4}, 256, 2, seed=6)
    cfg = SimConfig(n=256, steps=20, t0=0.0, t1=1.0, seed=7)
    rec = value_estimate(lq, init, cfg, SearchSpec(), paths=24)
    true = lq_true_value(init.mean(), p, 0.0, 1.0)
    assert abs(rec["value"] - true) <= 3 * rec["stderr"] + 0.05 * 1.5
    np.testing.assert_array_equal(rec["best_policy"].actions[0], np.sign(p))
    # sup property: the reported value dominates every traced policy
    assert all(rec["value"] >= item["mean"] for item in rec["trace"])


def test_value_estimate_feedback_ascent_runs():
    lq = scenario("lq_drift", {"d": 1, "p": [1.0]})
    init = sample_iid({"kind": "gaussian", "std": 0.3}, 64, 1, seed=8)
    cfg = SimConfig(n=64, steps=10, t0=0.0, t1=1.0, seed=9)
    spec = SearchSpec(
        kind="feedback_ascent", feedback_shape=(2,),
        feedback_lo=np.array([-2.0]), feedback_hi=np.array([2.0]), sweeps=1,
    )
    rec = value_estimate(lq, init, cfg, spec, paths=4)
    # ascent should find the all-ones table (drift up maximizes <p, x>)
    best = rec["best_policy"].actions[0]
    np.testing.assert_array_equal(best.table, np.ones((2, 1)))


def test_value_fd_approx_unperturbed_matches_plain_estimate():
    # mollifying already-smooth coefficients at m = 32 is near-identity, so
    # the finite-dimensional approximation reproduces the plain estimate
    from mfhjb.control import value_fd_approx

    p = [1.0, -0.5]
    lq = scenario("lq_drift", {"d": 2, "p": p})
    mu_spec = {"kind": "gaussian", "std": 0.4}
    cfg = SimConfig(n=128, steps=16, t0=0.0, t1=1.0, seed=30)
    rec_fd = value_fd_approx(lq, mu_spec, 0.0, 0.0, n=128, m=32, cfg=cfg,
                             search=SearchSpec(), paths=16, resamples=2,
                             offsets=32, seed=31)
    init = sample_iid(mu_spec, 128, 2, seed=31)
    rec_plain = value_estimate(lq, init, cfg, SearchSpec(), paths=16)
    mollify_allowance = 2.0 * lq.K / 32.0
    tol = 3.0 * (rec_fd["stderr"] + rec_plain["stderr"]) + mollify_allowance + 0.1
    assert abs(rec_fd["value"] - rec_plain["value"]) <= tol


def test_dpp_zero_costs_gap_zero():
    zero = scenario("zero")
    init = sample_iid({"kind": "gaussian"}, 12, 2, seed=10)
    rec = dpp_residual(zero, init, 0.0, 0.5, 1.0, SearchSpec(), n_steps=8,
                       paths_outer=3, paths_inner=2, seed=11)
    assert rec["gap"] == 0.0


def test_dpp_lq_and_single_action():
    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 128, 2, seed=12)
    rec = dpp_residual(lq, init, 0.0, 0.5, 1.0, SearchSpec(), n_steps=16,
                       paths_outer=16, paths_inner=12, seed=13)
    assert abs(rec["gap"]) <= 3 * rec["stderr"]
    single = SearchSpec(actions=(np.array([0.6, -0.2]),))
    rec2 = dpp_residual(lq, init, 0.0, 0.5, 1.0, single, n_steps=16,
                        paths_outer=16, paths_inner=12, seed=14)
    assert abs(rec2["gap"]) <= 3 * rec2["stderr"]


@pytest.mark.filterwarnings("error")
def test_dpp_single_outer_path_has_infinite_stderr():
    # one outer path gives no spread estimate: inf, as cost_j reports, and
    # no degrees-of-freedom warning
    zero = scenario("zero")
    init = sample_iid({"kind": "gaussian"}, 8, 2, seed=42)
    rec = dpp_residual(zero, init, 0.0, 0.5, 1.0, SearchSpec(), n_steps=4,
                       paths_outer=1, paths_inner=2, seed=43)
    assert rec["gap"] == 0.0
    assert rec["stderr"] == math.inf


def test_value_estimate_trace_matches_cost_j():
    # the batched search scores every candidate exactly as cost_j does alone,
    # on a scenario whose terminal cost reads the cloud mean
    mr = scenario("mean_reversion_mf", {"d": 2, "mf_center": 0.5})
    init = sample_iid({"kind": "gaussian", "std": 0.8}, 24, 2, seed=40)
    cfg = SimConfig(n=24, steps=6, t0=0.0, t1=1.0, seed=41)
    search = SearchSpec(n_intervals=2)
    rec = value_estimate(mr, init, cfg, search, paths=3)
    policies = list(_exhaustive_policies(search, mr.action_space, cfg.t0, cfg.t1))
    assert len(rec["trace"]) == len(policies) == 16
    for entry, policy in zip(rec["trace"], policies):
        alone = cost_j(mr, init, policy, cfg, paths=3)
        assert entry["policy"] == policy.describe()
        assert (entry["mean"], entry["stderr"]) == (alone["mean"], alone["stderr"])
    best = max(rec["trace"], key=lambda e: e["mean"])  # the first of equal maxima
    assert rec["value"] == best["mean"]
    assert rec["best_policy"].describe() == best["policy"]


def test_dpp_validates_times():
    zero = scenario("zero")
    init = sample_iid({"kind": "gaussian"}, 4, 2, seed=0)
    with pytest.raises(ValueError):
        dpp_residual(zero, init, 0.5, 0.2, 1.0, SearchSpec())


def test_hjb_residual_lq_exact_zero():
    p = np.array([1.0, -0.5])
    lq = scenario("lq_drift", {"d": 2, "p": p.tolist()})
    tf = lq_test_function(p, 1.0)
    rng = np.random.default_rng(15)
    for _ in range(5):
        mu = ParticleEnsemble(rng.standard_normal((8, 2)) * 0.5)
        t = float(rng.uniform(0, 0.9))
        assert abs(hjb_residual(lq, tf, t, mu)) <= 1e-12


def test_hjb_residual_constant_candidate():
    zero = scenario("zero")
    const = TestFunction(
        value=lambda t, cloud: 5.0,
        dt=lambda t, cloud: 0.0,
        dmu=lambda t, cloud: np.zeros_like(cloud),
        dxdmu=lambda t, cloud: np.zeros((cloud.shape[-2], 2, 2)),
        h_op=lambda t, cloud: np.zeros((2, 2)),
    )
    mu = sample_iid({"kind": "gaussian"}, 8, 2, seed=16)
    assert hjb_residual(zero, const, 0.2, mu) == 0.0


def test_hjb_residual_invariant_under_additive_constants():
    # the residual reads only derivatives, so shifting u by a constant
    # changes nothing; this pins the sign conventions of the sub/super checks
    p = np.array([0.8, 0.6])
    lq = scenario("lq_drift", {"d": 2, "p": p.tolist()})
    tf = lq_test_function(p, 1.0)
    shifted = TestFunction(
        value=lambda t, cloud: tf.value(t, cloud) - 3.0,
        dt=tf.dt, dmu=tf.dmu, dxdmu=tf.dxdmu, h_op=tf.h_op,
    )
    mu = sample_iid({"kind": "gaussian", "std": 0.4}, 10, 2, seed=17)
    assert hjb_residual(lq, tf, 0.4, mu) == hjb_residual(lq, shifted, 0.4, mu)


def test_viscosity_check_closed_form_and_negative_control():
    p = np.array([1.0, -0.5])
    lq = scenario("lq_drift", {"d": 2, "p": p.tolist()})
    tf = lq_test_function(p, 1.0)
    quad = SphereQuadrature.equispaced_circle(32)
    rng = np.random.default_rng(18)
    probes = [
        (float(rng.uniform(0.2, 0.8)), ParticleEnsemble(rng.standard_normal((6, 2)) * 0.4))
        for _ in range(5)
    ]
    rep = viscosity_check(lq, tf, probes, quad)
    assert rep["sub_all"] and rep["super_all"]

    slope = 0.4
    bumped = TestFunction(
        value=lambda t, cloud: tf.value(t, cloud) - slope * t,
        dt=lambda t, cloud: tf.dt(t, cloud) - slope,
        dmu=tf.dmu, dxdmu=tf.dxdmu, h_op=tf.h_op,
    )
    rep2 = viscosity_check(lq, bumped, probes, quad)
    assert not rep2["sub_all"]
    assert all(r["residual"] < -1e-6 for r in rep2["probes"])


def test_h_via_second_derivative_cross_check():
    d = 2
    tf = TestFunction(
        value=lambda t, cloud: float(np.sum(cloud.mean(axis=-2) ** 2)),
        dt=lambda t, cloud: 0.0,
        dmu=lambda t, cloud: np.broadcast_to(2.0 * cloud.mean(axis=-2, keepdims=True), cloud.shape).astype(float),
        dxdmu=lambda t, cloud: np.zeros((cloud.shape[-2], d, d)),
        h_op=lambda t, cloud: 2.0 * np.eye(d),
        d2mu=lambda t, cloud: np.tile(2.0 * np.eye(d), (cloud.shape[-2], cloud.shape[-2], 1, 1)),
    )
    ens = sample_iid({"kind": "gaussian"}, 20, d, seed=19)
    np.testing.assert_allclose(h_via_second_derivative(tf, 0.0, ens), tf.h_op(0.0, ens.points), atol=1e-12)
    bare = TestFunction(
        value=tf.value, dt=tf.dt, dmu=tf.dmu, dxdmu=tf.dxdmu, h_op=tf.h_op
    )
    with pytest.raises(ValueError):
        h_via_second_derivative(bare, 0.0, ens)


def test_cost_j_matches_step_loop_mean_reversion():
    mr = scenario("mean_reversion_mf", {"d": 1, "mf_center": 0.5})
    init = sample_iid({"kind": "gaussian", "std": 0.8}, 16, 1, seed=20)
    cfg = SimConfig(n=16, steps=10, t0=0.0, t1=1.0, seed=21)
    policy = StepControl(np.array([0.0, 0.5]), (np.array([0.6]), np.array([-0.3])))
    per_path = []
    for p in range(3):
        bundle = simulate(mr, init, policy, cfg, path_index=p)
        running = np.zeros(16)
        for k in range(cfg.steps):
            x = bundle.trajectories[k]
            running += mr.running_cost(float(bundle.times[k]), x, x, bundle.controls_used[k]) * cfg.dt
        x = bundle.trajectories[-1]
        per_path.append(math.fsum(running + mr.terminal_cost(x, x)) / 16)
    rec = cost_j(mr, init, policy, cfg, paths=3)
    np.testing.assert_array_equal(rec["per_path"], per_path)
    assert rec["mean"] == math.fsum(per_path) / 3
