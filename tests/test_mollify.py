import numpy as np
import pytest

from mfhjb.control import ActionSpace, CoefficientSet
from mfhjb.mollify import (
    MollifiedCoefficients,
    MollifierSpec,
    _draw_offsets,
    _mollified_all,
    bump_kernel_tables,
    mollified_b,
    mollified_f,
    mollified_g,
    mollify_rate_bound,
    mollify_rate_sweep,
)
from mfhjb.scenarios import scenario


def simple_coeffs(b=None, f=None, g=None, K=10.0, beta=1.0, d=2):
    space = ActionSpace("box", lo=-np.ones(d), hi=np.ones(d))
    zmat = np.zeros((d, d))
    return CoefficientSet(
        drift=b or (lambda t, x, cloud, a: np.zeros_like(x)),
        diffusion=lambda t, x, a: zmat,
        common_diffusion=lambda t: zmat,
        running_cost=f or (lambda t, x, cloud, a: np.zeros(x.shape[:-1])),
        terminal_cost=g or (lambda x, cloud: np.zeros(x.shape[:-1])),
        K=K,
        beta=beta,
        action_space=space,
        d=d,
    )


def test_kernel_unit_mass_and_moment():
    u, cdf, moment = bump_kernel_tables()
    assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) < 1e-10
    assert 0.1 < moment < 0.5  # compactly supported on [-1, 1]


def test_spec_validation():
    with pytest.raises(ValueError):
        MollifierSpec(m=0)
    with pytest.raises(ValueError):
        MollifierSpec(m=2, offsets=1)


def test_constant_coefficient_exact():
    c = np.array([0.3, -0.7])
    coeffs = simple_coeffs(b=lambda t, x, cloud, a: np.broadcast_to(c, x.shape).astype(float))
    spec = MollifierSpec(m=3, offsets=256, seed=0)
    xbar = np.random.default_rng(0).standard_normal((5, 2))
    val, err, flagged = mollified_b(coeffs, spec, 2, 0.4, xbar, np.zeros(2))
    # kernel has unit mass; only float accumulation separates val from c
    np.testing.assert_allclose(val, c, rtol=1e-14)
    assert err < 1e-14 and not flagged


def test_linear_coefficient_symmetric_kernel():
    coeffs = simple_coeffs(b=lambda t, x, cloud, a: x.copy())
    spec = MollifierSpec(m=8, offsets=4096, seed=1)
    xbar = np.random.default_rng(1).standard_normal((4, 2))
    val, err, _ = mollified_b(coeffs, spec, 1, 0.2, xbar, np.zeros(2))
    np.testing.assert_allclose(val, xbar[1], atol=5e-5)


def test_index_out_of_range():
    coeffs = simple_coeffs()
    spec = MollifierSpec(m=2, offsets=16)
    with pytest.raises(IndexError):
        mollified_b(coeffs, spec, 9, 0.1, np.zeros((3, 2)), np.zeros(2))


def test_uniform_bound_preserved():
    bt = scenario("bounded_trig", {"d": 1})
    spec = MollifierSpec(m=4, offsets=1024, seed=2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        xbar = rng.standard_normal((4, 1)) * 2.0
        t = float(rng.uniform(0, 1))
        vb, _, _ = mollified_b(bt, spec, 0, t, xbar, np.zeros(1))
        vf, _, _ = mollified_f(bt, spec, 0, t, xbar, np.zeros(1))
        vg, _, _ = mollified_g(bt, spec, 0, xbar)
        assert np.linalg.norm(vb) <= bt.K + 1e-12
        assert abs(vf) <= bt.K + 1e-12
        assert abs(vg) <= bt.K + 1e-12


def test_rate_bound_holds():
    bt = scenario("bounded_trig", {"d": 1})
    rng = np.random.default_rng(3)
    for m in (2, 8):
        spec = MollifierSpec(m=m, offsets=2048, seed=3)
        for _ in range(5):
            xbar = rng.standard_normal((3, 1))
            t = float(rng.uniform(0, 1))
            a = np.zeros((3, 1))
            exact = bt.drift(t, xbar, xbar, a)
            got, err, _ = mollified_b(bt, spec, 0, t, xbar, np.zeros(1))
            bound = mollify_rate_bound(bt, spec, 0, t, xbar)
            assert np.linalg.norm(got - exact[0]) <= bound * 1.05 + 3 * err


def test_lipschitz_transfer():
    # |g_m(x) - g_m(x')| <= K [ |dx^i| + mean_j |dx^j| ] on random probe pairs
    bt = scenario("bounded_trig", {"d": 1})
    spec = MollifierSpec(m=4, offsets=2048, seed=4)
    rng = np.random.default_rng(4)
    for _ in range(20):
        xbar = rng.standard_normal((4, 1))
        dx = rng.standard_normal((4, 1)) * 0.3
        g1, e1, _ = mollified_g(bt, spec, 0, xbar)
        g2, e2, _ = mollified_g(bt, spec, 0, xbar + dx)
        allowance = bt.K * (
            np.linalg.norm(dx[0]) + np.mean(np.linalg.norm(dx, axis=1))
        )
        assert abs(g1 - g2) <= allowance + 3 * (e1 + e2) + 1e-12


def test_rate_sweep_constant_zero():
    coeffs = simple_coeffs()
    probes = [(0.5, np.zeros((3, 2)), np.zeros(2))]
    tab = mollify_rate_sweep(coeffs, (2, 4), probes, {"offsets": 128, "seed": 5})
    assert all(v == 0.0 for v in tab["b"].values())
    assert all(v == 0.0 for v in tab["g"].values())


def test_rate_sweep_slopes():
    rng = np.random.default_rng(6)
    ms = (2, 4, 8, 16, 32)

    time_sc = scenario("bounded_trig", {"d": 1, "time_amp": 1.0, "space_amp": 0.0})
    probes_t = [(t, rng.standard_normal((4, 1)) * 0.5, np.zeros(1)) for t in (0.45, 0.5, 0.55)]
    tab_t = mollify_rate_sweep(time_sc, ms, probes_t, {"offsets": 1024, "seed": 6})
    slope_t = np.polyfit(np.log(ms), np.log([tab_t["b"][m] for m in ms]), 1)[0]
    assert -0.7 <= slope_t <= -0.3

    space_sc = scenario("bounded_trig", {"d": 1, "time_amp": 0.0, "space_amp": 1.0})
    probes_s = [(0.2, np.array([[1.0], [0.5], [-1.0], [0.3]]), np.zeros(1))]
    tab_s = mollify_rate_sweep(space_sc, ms, probes_s, {"offsets": 1024, "seed": 7})
    slope_s = np.polyfit(np.log(ms), np.log([tab_s["g"][m] for m in ms]), 1)[0]
    assert -1.25 <= slope_s <= -0.75


def test_mollified_coefficients_interface():
    lq = scenario("lq_drift", {"d": 2, "p": [1.0, 0.0]})
    spec = MollifierSpec(m=16, offsets=64, seed=8)
    mol = MollifiedCoefficients(lq, spec, n=6, horizon=1.0)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 2)) * 0.5
    a = np.zeros((6, 2))
    # drift b = a is offset-independent, so mollification is exact
    np.testing.assert_array_equal(mol.drift(0.3, x, x, a), np.zeros((6, 2)))
    # sigma passes through unsmoothed
    np.testing.assert_array_equal(mol.diffusion(0.3, x, a), lq.diffusion(0.3, x, a))
    # g is smooth here, so smoothing is a small perturbation
    got = mol.terminal_cost(x, x)
    exact = lq.terminal_cost(x, x)
    assert np.abs(got - exact).max() < 0.05
    with pytest.raises(ValueError):
        mol.drift(0.3, x[:3], x[:3], a[:3])


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize(
    "name, params",
    [
        ("lq_drift", {"d": 2, "p": [1.0, -0.5], "radius": 2.0}),
        ("mean_reversion_mf", {"d": 1, "mf_center": 0.5}),
        ("bounded_trig", {"d": 2}),
    ],
)
def test_mollified_coefficients_batch_rows_match_rows_alone(name, params, n):
    # a batched state (4, n, d) smooths each row exactly as that row alone;
    # t within 1/m of 0 keeps bounded_trig's time clamp active
    coeffs = scenario(name, params)
    mol = MollifiedCoefficients(coeffs, MollifierSpec(m=4, offsets=64, seed=11), n)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, n, coeffs.d))
    a = rng.uniform(-1.0, 1.0, (4, n, coeffs.d))
    batch = (mol.drift(0.05, x, x, a), mol.running_cost(0.05, x, x, a), mol.terminal_cost(x, x))
    for i in range(4):
        alone = (
            mol.drift(0.05, x[i], x[i], a[i]),
            mol.running_cost(0.05, x[i], x[i], a[i]),
            mol.terminal_cost(x[i], x[i]),
        )
        for got, want in zip(batch, alone):
            np.testing.assert_array_equal(got[i], want)


def test_stderr_cap_flags():
    rng_local = np.random.default_rng(9)
    wiggly = simple_coeffs(
        b=lambda t, x, cloud, a: np.sin(50.0 * x), K=60.0, d=1
    )
    spec = MollifierSpec(m=1, offsets=64, seed=9, stderr_cap=1e-12)
    xbar = rng_local.standard_normal((3, 1))
    _, err, flagged = mollified_b(wiggly, spec, 0, 0.5, xbar, np.zeros(1))
    assert err > 1e-12 and flagged


def _offset_loop(kind, coeffs, spec, t, xbar, a, horizon, t_off, z_off):
    # one base-coefficient call per offset, anchored at the first offset
    q = z_off.shape[0]
    acc = acc_sq = anchor = None
    for k in range(q):
        xs = xbar - z_off[k] / spec.m
        tk = min(max(t - t_off[k] / spec.m, 0.0), horizon)
        if kind == "terminal_cost":
            val = coeffs.terminal_cost(xs, xs)
        else:
            val = getattr(coeffs, kind)(tk, xs, xs, a)
        if anchor is None:
            anchor, acc, acc_sq = val, np.zeros_like(val), np.zeros_like(val)
        acc += val - anchor
        acc_sq += (val - anchor) ** 2
    centered = acc / q
    var = np.maximum(acc_sq / q - centered**2, 0.0)
    return anchor + centered, np.sqrt(var / q)


@pytest.mark.parametrize("kind", ["drift", "running_cost", "terminal_cost"])
@pytest.mark.parametrize(
    "name, params, t",
    [
        ("lq_drift", {"d": 2, "p": [1.0, -0.5], "radius": 2.0}, 0.4),
        ("mean_reversion_mf", {"d": 1, "mf_center": 0.5}, 0.4),
        # t within 1/m of 0, so the time clamp is active for part of the offsets
        ("bounded_trig", {"d": 2}, 0.05),
    ],
)
def test_mollified_all_matches_offset_loop(name, params, t, kind):
    coeffs = scenario(name, params)
    spec = MollifierSpec(m=4, offsets=64, seed=10)
    rng = np.random.default_rng(10)
    n, d = 7, coeffs.d
    xbar = rng.standard_normal((n, d))
    a = np.broadcast_to(rng.uniform(-1.0, 1.0, d), (n, d))
    t_off, z_off = _draw_offsets(spec, n, d)
    assert np.any(t - t_off / spec.m < 0.0) == (name == "bounded_trig")
    got = _mollified_all(kind, coeffs, spec, t, xbar, a, 1.0, t_off, z_off)
    want = _offset_loop(kind, coeffs, spec, t, xbar, a, 1.0, t_off, z_off)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
