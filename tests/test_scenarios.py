import numpy as np
import pytest

from mfhjb.measures import sample_iid
from mfhjb.scenarios import lq_test_function, lq_true_value, scenario, smooth_clip_profile


def test_all_scenarios_construct_and_validate():
    for name in ("lq_drift", "zero", "mean_reversion_mf", "bounded_trig"):
        coeffs = scenario(name)
        assert coeffs.name == name
        assert coeffs.K >= 0.0


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario("nope")


def test_zero_scenario_evaluators():
    z = scenario("zero")
    x = np.random.default_rng(0).standard_normal((5, 2))
    a = np.zeros((5, 2))
    assert np.all(z.drift(0.3, x, x, a) == 0.0)
    assert np.all(z.running_cost(0.3, x, x, a) == 0.0)
    assert np.all(z.terminal_cost(x, x) == 0.0)
    assert np.all(z.common_diffusion(0.3) == 0.0)


def test_smooth_clip_profile_shape():
    r = np.linspace(0, 1.5, 301)
    chi = smooth_clip_profile(r, 0.5)
    assert np.all(chi[r <= 0.5] == 1.0)
    assert np.all(chi[r >= 1.0] == 0.0)
    assert np.all(np.diff(chi) <= 1e-12)
    with pytest.raises(ValueError):
        smooth_clip_profile(r, 1.5)


def test_lq_bound_on_many_probes_inside_half_radius():
    params = {"d": 2, "p": [1.0, -0.5], "radius": 8.0}
    lq = scenario("lq_drift", params)
    rng = np.random.default_rng(1)
    x = rng.uniform(-2.8, 2.8, size=(10_000, 2))  # |x| < 4 = radius/2
    vals = lq.terminal_cost(x, x[:16])
    # inside half the radius the clip is inactive: g is exactly linear
    np.testing.assert_allclose(vals, x @ np.array([1.0, -0.5]), atol=1e-12)
    assert np.abs(vals).max() <= lq.K
    a = np.ones((10_000, 2))
    assert np.linalg.norm(lq.drift(0.2, x, x[:16], a), axis=1).max() <= lq.K


def test_lq_g_globally_bounded():
    lq = scenario("lq_drift", {"d": 2, "p": [2.0, 1.0], "radius": 4.0})
    rng = np.random.default_rng(2)
    x = rng.uniform(-50, 50, size=(5000, 2))
    assert np.abs(lq.terminal_cost(x, x[:8])).max() <= lq.K + 1e-9


def test_bounded_trig_holder_in_time():
    bt = scenario("bounded_trig", {"d": 1, "time_amp": 1.0, "space_amp": 0.5})
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 1))
    a = np.zeros((6, 1))
    worst = 0.0
    for _ in range(200):
        t1, t2 = rng.uniform(0, 1, 2)
        gap = np.abs(bt.drift(t1, x, x, a) - bt.drift(t2, x, x, a)).max()
        worst = max(worst, gap / abs(t1 - t2) ** 0.5)
    assert worst <= bt.K


def test_mean_reversion_measure_dependence():
    mr = scenario("mean_reversion_mf", {"d": 1, "mf_center": 0.5})
    x = np.zeros((4, 1))
    a = np.zeros((4, 1))
    low = np.full((4, 1), -1.0)
    high = np.full((4, 1), 1.0)
    assert np.all(mr.drift(0.1, x, low, a) < 0.0)
    assert np.all(mr.drift(0.1, x, high, a) > 0.0)
    # terminal cost moves with the cloud mean through the concave term
    assert not np.allclose(mr.terminal_cost(x, low), mr.terminal_cost(x, high))


def test_lq_test_function_consistency():
    p = np.array([0.8, -0.3])
    tf = lq_test_function(p, 1.0)
    ens = sample_iid({"kind": "gaussian"}, 32, 2, seed=4)
    expect = float(np.mean(ens.points @ p)) + 0.6 * np.abs(p).sum()
    assert tf.value(0.4, ens.points) == pytest.approx(expect, rel=1e-12)
    assert tf.dt(0.4, ens.points) == -np.abs(p).sum()
    np.testing.assert_array_equal(tf.dmu(0.4, ens.points), np.broadcast_to(p, (32, 2)))
    assert lq_true_value([1.0, 1.0], p, 0.0, 1.0) == pytest.approx(0.5 + 1.1, rel=1e-12)


def test_validate_catches_violations():
    bad = scenario("lq_drift", {"d": 2}, validate=False)
    object.__setattr__(bad, "K", 0.01)
    with pytest.raises(ValueError, match="violation"):
        bad.validate()


@pytest.mark.parametrize(
    "name, params",
    [
        ("lq_drift", {}),
        ("zero", {}),
        ("mean_reversion_mf", {"d": 1}),
        ("mean_reversion_mf", {"d": 2}),
        ("bounded_trig", {"d": 2}),
    ],
)
def test_batch_rows_match_rows_alone(name, params):
    # a row of a (4, n, d) batch never depends on the other rows, bit for bit
    coeffs = scenario(name, params)
    d = coeffs.d
    rng = np.random.default_rng(12)
    for n in (1, 5, 33):
        for _ in range(25):
            x = 2.0 * rng.standard_normal((4, n, d))
            a = rng.uniform(-1.0, 1.0, (4, n, d))
            t = rng.uniform(0.0, 1.0, 4)
            batch = (
                coeffs.drift(t, x, x, a),
                coeffs.diffusion(t, x, a),
                coeffs.common_diffusion(t),
                coeffs.running_cost(t, x, x, a),
                coeffs.terminal_cost(x, x),
            )
            for i in range(4):
                alone = (
                    coeffs.drift(t[i], x[i], x[i], a[i]),
                    coeffs.diffusion(t[i], x[i], a[i]),
                    coeffs.common_diffusion(t[i]),
                    coeffs.running_cost(t[i], x[i], x[i], a[i]),
                    coeffs.terminal_cost(x[i], x[i]),
                )
                for got, want in zip(batch, alone):
                    # a (d, d) diffusion is shared by every row
                    row = np.broadcast_to(got, (4,) + np.shape(want))[i]
                    np.testing.assert_array_equal(row, want)
