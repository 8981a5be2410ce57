import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import LINEAR, MEAN_SQUARE, SECOND_MOMENT, STATE_DEPENDENT, lifted_errors, record_path

from mfhjb.control import (
    COORDINATES,
    ActionSpace,
    CoefficientSet,
    SearchSpec,
    StepControl,
    _exhaustive_policies,
    cost_j,
    cylindrical,
    dpp_residual,
    hjb_residual,
    value_estimate,
    viscosity_check,
)
from mfhjb.dynamics import SimConfig, simulate
from mfhjb.measures import ParticleEnsemble, sample_iid
from mfhjb.scenarios import _lq_minus, lq_test_function, lq_true_value, scenario

TEST_FUNCTIONS = {
    "lq": lq_test_function(np.array([1.0, -0.5]), 1.0),
    "lq-minus": _lq_minus(np.array([1.0, -0.5]), 1.0, 0.4, 3.0),
    "linear": LINEAR,
    "second-moment": SECOND_MOMENT,
    "mean-square": MEAN_SQUARE,
    "state-dependent": STATE_DEPENDENT,
    "constant": cylindrical((COORDINATES,), 5.0, 0.0, np.zeros(2), np.zeros((2, 2))),
}


def test_action_space_box():
    space = ActionSpace([-1, -1], [1, 1])
    verts = space.vertices()
    assert len(verts) == 4


def test_action_space_errors():
    with pytest.raises(ValueError):
        ActionSpace([1.0], [0.0])


def test_step_control_lookup():
    first = np.array([1.0])
    pol = StepControl(np.array([0.0, 0.5]), (first, np.array([-1.0])))
    np.testing.assert_array_equal(pol.actions[pol.piece(0.2)], [1.0])
    np.testing.assert_array_equal(pol.actions[pol.piece(0.5)], [-1.0])
    np.testing.assert_array_equal(pol.actions[pol.piece(0.9)], [-1.0])
    np.testing.assert_array_equal(pol.actions[pol.piece(-1.0)], [1.0])  # before the start
    # the piece in force, the first before the start, and read-only actions
    # that are copies of the ones passed
    assert [pol.piece(t) for t in (-1.0, 0.0, 0.1, 0.5 - 1e-13, 0.5, 0.9)] == [0, 0, 0, 1, 1, 1]
    assert not any(a.flags.writeable for a in pol.actions)
    first[0] = 0.0
    assert pol.actions[0].tolist() == [1.0]
    with pytest.raises(ValueError):
        StepControl(np.array([0.5, 0.5]), (np.array([1.0]), np.array([1.0])))


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


@pytest.mark.parametrize("a", [[0.5], [0.5, 0.5, 0.5]], ids=["short", "long"])
def test_cost_j_rejects_action_of_wrong_length(a):
    # lq_drift's drift would broadcast a (1,) action over both coordinates
    lq = scenario("lq_drift", {"d": 2})
    init = sample_iid({"kind": "gaussian"}, 8, 2, seed=2)
    cfg = SimConfig(n=8, steps=4, t0=0.0, t1=1.0, seed=3)
    with pytest.raises(ValueError, match=f"actions have {len(a)} components, but the action space has 2"):
        cost_j(lq, init, StepControl.constant(0.0, a), cfg, paths=2)


def test_actions_outside_the_box_raise():
    # lq_drift's box is [-1, 1]^2: a search over [2, 0] would report a value
    # above the control problem's
    lq = scenario("lq_drift", {"d": 2})
    init = sample_iid({"kind": "gaussian"}, 8, 2, seed=2)
    cfg = SimConfig(n=8, steps=4, t0=0.0, t1=1.0, seed=3)
    outside = SearchSpec(actions=(np.array([2.0, 0.0]),))
    match = r"action \[2.0, 0.0\] lies outside the action box \[\[-1.0, -1.0\], \[1.0, 1.0\]\]"
    with pytest.raises(ValueError, match=match):
        value_estimate(lq, init, cfg, outside, paths=2)
    with pytest.raises(ValueError, match=match):
        dpp_residual(lq, init, 0.0, 0.5, 1.0, outside, n_steps=4, paths_outer=2, paths_inner=2)
    with pytest.raises(ValueError, match="outside the action box"):
        cost_j(lq, init, StepControl.constant(0.0, [0.5, np.nan]), cfg, paths=2)
    # the box's faces are admissible
    assert np.isfinite(cost_j(lq, init, StepControl.constant(0.0, [1.0, -1.0]), cfg, paths=2)["mean"])


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


def test_value_fd_approx_one_resample_has_infinite_stderr():
    from mfhjb.control import value_fd_approx

    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    cfg = SimConfig(n=16, steps=4, t0=0.0, t1=1.0, seed=60)
    rec = value_fd_approx(lq, {"kind": "gaussian", "std": 0.4}, 0.0, 0.0, n=16, m=8,
                          cfg=cfg, search=SearchSpec(), paths=2, resamples=1,
                          offsets=8, seed=61)
    assert rec["stderr"] == math.inf
    assert rec["value"] == rec["per_resample"][0]


def test_value_fd_approx_rejects_start_other_than_t0():
    # the runs start at cfg.t0, so a different t would be silently ignored
    from mfhjb.control import value_fd_approx

    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    cfg = SimConfig(n=4, steps=2, t0=0.0, t1=1.0, seed=0)
    with pytest.raises(ValueError, match="cfg.t0"):
        value_fd_approx(lq, {"kind": "gaussian"}, 0.5, 0.0, 4, 2, cfg, SearchSpec(), paths=2, resamples=1, offsets=8)


def test_value_fd_approx_resamples_match_fresh_coefficients():
    # one mollified coefficient set serves every resample: each resample's
    # value equals value_estimate on a freshly built set, bit for bit
    from mfhjb.control import value_fd_approx
    from mfhjb.mollify import MollifiedCoefficients, MollifierSpec

    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    mu_spec = {"kind": "gaussian", "std": 0.4}
    cfg = SimConfig(n=16, steps=4, t0=0.0, t1=1.0, seed=62)
    rec = value_fd_approx(lq, mu_spec, 0.0, 0.2, n=16, m=8, cfg=cfg, search=SearchSpec(),
                          paths=2, resamples=3, offsets=8, seed=63)
    for r, value in enumerate(rec["per_resample"]):
        mol = MollifiedCoefficients(lq, MollifierSpec(m=8, offsets=8, seed=70), 16, horizon=1.0)
        init = sample_iid(mu_spec, 16, 2, seed=63 + 1000 * r)
        run_cfg = replace(cfg, epsilon=0.2, seed=62 + r)
        assert value == value_estimate(mol, init, run_cfg, SearchSpec(), 2)["value"]


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
    with pytest.raises(ValueError, match="n_steps"):
        dpp_residual(zero, init, 0.0, 0.5, 1.0, SearchSpec(), n_steps=1)


def test_dpp_leg_and_tail_split_the_grid(monkeypatch):
    # the rhs integrates exactly the lhs's n_steps: a leg of at least one
    # step and a tail of the rest, wherever s_mid sits
    from mfhjb import control

    zero = scenario("zero")
    init = sample_iid({"kind": "gaussian"}, 2, 2, seed=0)
    seen = []

    def recording(coeffs, init, policy, cfg, *args, **kwargs):
        seen.append((cfg.t0, cfg.t1, cfg.steps))
        return simulate(coeffs, init, policy, cfg, *args, **kwargs)

    monkeypatch.setattr(control, "simulate", recording)
    for n_steps in range(2, 9):
        for s_mid in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99):
            seen.clear()
            dpp_residual(zero, init, 0.0, s_mid, 1.0, SearchSpec(), n_steps=n_steps,
                         paths_outer=1, paths_inner=1)
            legs = {steps for t0, t1, steps in seen if (t0, t1) == (0.0, s_mid)}
            tails = {steps for t0, t1, steps in seen if (t0, t1) == (s_mid, 1.0)}
            assert len(legs) == len(tails) == 1
            leg, tail = legs.pop(), tails.pop()
            assert leg >= 1 and tail >= 1 and leg + tail == n_steps, (n_steps, s_mid, leg, tail)


@pytest.mark.parametrize("count", [0, -1], ids=["zero", "negative"])
def test_monte_carlo_counts_below_one_raise(count):
    from mfhjb.control import value_fd_approx
    from mfhjb.dynamics import ito_expectation_check
    from mfhjb.scenarios import lq_test_function

    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    init = sample_iid({"kind": "gaussian", "std": 0.4}, 4, 2, seed=0)
    cfg = SimConfig(n=4, steps=2, t0=0.0, t1=1.0, seed=0)
    policy = StepControl.constant(0.0, np.zeros(2))
    calls = {
        "paths": [
            lambda: cost_j(lq, init, policy, cfg, paths=count),
            lambda: value_estimate(lq, init, cfg, SearchSpec(), paths=count),
            lambda: value_fd_approx(lq, {"kind": "gaussian"}, 0.0, 0.0, 4, 2, cfg, SearchSpec(),
                                    paths=count, offsets=2),
            lambda: ito_expectation_check(lq, init, lq_test_function(np.ones(2), 1.0), cfg, policy,
                                          paths=count),
        ],
        "resamples": [
            lambda: value_fd_approx(lq, {"kind": "gaussian"}, 0.0, 0.0, 4, 2, cfg, SearchSpec(),
                                    resamples=count, offsets=2),
        ],
        "paths_outer": [lambda: dpp_residual(lq, init, 0.0, 0.5, 1.0, SearchSpec(), n_steps=2,
                                             paths_outer=count)],
        "paths_inner": [lambda: dpp_residual(lq, init, 0.0, 0.5, 1.0, SearchSpec(), n_steps=2,
                                             paths_inner=count)],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {count}$"):
                fn()


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
    mu = sample_iid({"kind": "gaussian"}, 8, 2, seed=16)
    assert hjb_residual(zero, TEST_FUNCTIONS["constant"], 0.2, mu) == 0.0


def test_hjb_residual_invariant_under_additive_constants():
    # the residual reads only derivatives, so shifting u by a constant
    # changes nothing; this pins the sign conventions of the sub/super checks
    p = np.array([0.8, 0.6])
    lq = scenario("lq_drift", {"d": 2, "p": p.tolist()})
    tf = lq_test_function(p, 1.0)
    shifted = _lq_minus(p, 1.0, 0.0, 3.0)
    mu = sample_iid({"kind": "gaussian", "std": 0.4}, 10, 2, seed=17)
    assert hjb_residual(lq, tf, 0.4, mu) == hjb_residual(lq, shifted, 0.4, mu)


def test_viscosity_check_closed_form_and_negative_control():
    p = np.array([1.0, -0.5])
    lq = scenario("lq_drift", {"d": 2, "p": p.tolist()})
    tf = lq_test_function(p, 1.0)
    rng = np.random.default_rng(18)
    probes = [
        (float(rng.uniform(0.2, 0.8)), ParticleEnsemble(rng.standard_normal((6, 2)) * 0.4))
        for _ in range(5)
    ]
    rep = viscosity_check(lq, tf, probes)
    assert rep["sub_all"] and rep["super_all"]

    rep2 = viscosity_check(lq, _lq_minus(p, 1.0, 0.4, 0.0), probes)
    assert not rep2["sub_all"]
    assert all(r["residual"] < -1e-6 for r in rep2["probes"])


@pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
def test_lifted_check_passes_on_every_fixture(name):
    cloud = np.random.default_rng(19).standard_normal((4, 2)) * 0.6
    errors = lifted_errors(TEST_FUNCTIONS[name], 0.3, cloud)
    assert max(errors.values()) <= 1e-6, errors


@pytest.mark.parametrize("field, caught_by", [("h_op", "h_op"), ("d2mu", "second"), ("dxdmu", "second")])
def test_lifted_check_rejects_a_one_percent_error(field, caught_by):
    tf = STATE_DEPENDENT
    scaled = replace(tf, **{field: lambda t, cloud: 1.01 * getattr(tf, field)(t, cloud)})
    cloud = np.random.default_rng(19).standard_normal((4, 2)) * 0.6
    assert lifted_errors(scaled, 0.3, cloud)[caught_by] > 1e-3


@pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
def test_fields_give_each_cloud_of_a_batch_its_bits_alone(name):
    # 150 particles: past numpy's 128-element pairwise-summation block
    tf = TEST_FUNCTIONS[name]
    clouds = np.random.default_rng(20).standard_normal((3, 150, 2))
    times = np.array([0.1, 0.4, 0.7])
    for field in ("value", "dt", "dmu", "dxdmu", "d2mu", "h_op"):
        batch = getattr(tf, field)(times, clouds)
        for p, (t, cloud) in enumerate(zip(times, clouds)):
            alone = np.asarray(getattr(tf, field)(float(t), cloud))
            np.testing.assert_array_equal(np.broadcast_to(batch, (3,) + alone.shape)[p], alone, err_msg=field)


def test_cost_j_matches_step_loop_mean_reversion():
    mr = scenario("mean_reversion_mf", {"d": 1, "mf_center": 0.5})
    init = sample_iid({"kind": "gaussian", "std": 0.8}, 16, 1, seed=20)
    cfg = SimConfig(n=16, steps=10, t0=0.0, t1=1.0, seed=21)
    policy = StepControl(np.array([0.0, 0.5]), (np.array([0.6]), np.array([-0.3])))
    per_path = []
    for p in range(3):
        bundle = record_path(mr, init, policy, cfg, path=p)
        running = np.zeros(16)
        for k in range(cfg.steps):
            x = bundle.trajectories[k]
            running += mr.running_cost(float(bundle.times[k]), x, x, bundle.controls_used[k]) * cfg.dt
        x = bundle.trajectories[-1]
        per_path.append(math.fsum(running + mr.terminal_cost(x, x)) / 16)
    rec = cost_j(mr, init, policy, cfg, paths=3)
    np.testing.assert_array_equal(rec["per_path"], per_path)
    assert rec["mean"] == math.fsum(per_path) / 3
