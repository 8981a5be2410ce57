from dataclasses import replace

import numpy as np
import pytest

from mfhjb.budget import CAPS
from mfhjb.control import ActionSpace, CoefficientSet
from mfhjb.mollify import (
    MollifiedCoefficients,
    MollifierSpec,
    _draw_offsets,
    _mollified_all,
    _rate_bounds,
    bump_kernel_tables,
    mollified,
    mollify_rate_sweep,
)
from mfhjb.scenarios import scenario


def simple_coeffs(b=None, f=None, g=None, K=10.0, beta=1.0, d=2):
    space = ActionSpace(-np.ones(d), np.ones(d))
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
    u, cdf = bump_kernel_tables()
    assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) < 1e-10


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
    val, err = mollified("drift", coeffs, spec, 0.4, xbar, np.zeros(2))
    # kernel has unit mass; only float accumulation separates val from c
    np.testing.assert_allclose(val[2], c, rtol=1e-14)
    assert err[2].max() < 1e-14


def test_mollified_shared_and_per_particle_actions():
    # lq_drift's drift is the action itself; a second drift mixes it with x
    lq = scenario("lq_drift", {"d": 2})
    mixed = simple_coeffs(b=lambda t, x, cloud, a: np.sin(x) + a * x.mean(axis=-2, keepdims=True))
    spec = MollifierSpec(m=3, offsets=64, seed=2)
    rng = np.random.default_rng(3)
    xbar = rng.standard_normal((3, 2))
    actions = rng.uniform(-1.0, 1.0, (3, 2))
    for coeffs in (lq, mixed):
        per_particle = mollified("drift", coeffs, spec, 0.4, xbar, actions)
        for i, ai in enumerate(actions):
            shared = mollified("drift", coeffs, spec, 0.4, xbar, ai)
            for got, want in zip(per_particle, shared):
                np.testing.assert_array_equal(got[i], want[i])
    np.testing.assert_array_equal(mollified("drift", lq, spec, 0.4, xbar, actions)[0], actions)
    for bad in (np.zeros((2, 2)), np.zeros((3, 2, 1)), 0.5):
        with pytest.raises(ValueError, match="action shape"):
            mollified("drift", lq, spec, 0.4, xbar, bad)


def test_linear_coefficient_symmetric_kernel():
    coeffs = simple_coeffs(b=lambda t, x, cloud, a: x.copy())
    spec = MollifierSpec(m=8, offsets=4096, seed=1)
    xbar = np.random.default_rng(1).standard_normal((4, 2))
    val = mollified("drift", coeffs, spec, 0.2, xbar, np.zeros(2))[0]
    np.testing.assert_allclose(val[1], xbar[1], atol=5e-5)


def test_uniform_bound_preserved():
    bt = scenario("bounded_trig", {"d": 1})
    spec = MollifierSpec(m=4, offsets=1024, seed=2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        xbar = rng.standard_normal((4, 1)) * 2.0
        t = float(rng.uniform(0, 1))
        vb = mollified("drift", bt, spec, t, xbar, np.zeros(1))[0][0]
        vf = mollified("running_cost", bt, spec, t, xbar, np.zeros(1))[0][0]
        vg = mollified("terminal_cost", bt, spec, 0.0, xbar)[0][0]
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
            got, err = mollified("drift", bt, spec, t, xbar, np.zeros(1))
            bound = _rate_bounds(bt, spec, t, *_draw_offsets(spec, 3, 1))[0]
            assert np.linalg.norm(got[0] - exact[0]) <= bound * 1.05 + 3 * err[0].max()


def _rate_bound_per_particle(coeffs, spec, i, t, xbar, horizon=1.0, beta=None):
    # the per-particle bound as computed before the sweep shared one draw
    n, d = xbar.shape
    beta = coeffs.beta if beta is None else beta
    t_off, z_off = _draw_offsets(spec, n, d)
    t_eff = np.minimum(np.maximum(t - t_off / spec.m, 0.0), horizon)
    time_term = float(np.mean(np.abs(t - t_eff) ** beta))
    znorm = np.linalg.norm(z_off, axis=2) / spec.m
    space_term = float(np.mean(znorm[:, i] + znorm.mean(axis=1)))
    return coeffs.K * (time_term + space_term)


@pytest.mark.parametrize("n,d", [(1, 1), (4, 1), (9, 2), (6, 3)])
def test_rate_bounds_match_per_particle_draws(n, d):
    # every particle's bound, and the sweep's sup over them, is the same bits
    # as a per-particle draw; the sweep draws offsets at most once per probe
    coeffs = scenario("bounded_trig", {"d": d})
    rng = np.random.default_rng(12)
    probes = [(t, rng.standard_normal((n, d)), np.zeros(d)) for t in (0.0, 0.01, 0.5, 0.999)]
    _draw_offsets.cache_clear()
    tab = mollify_rate_sweep(coeffs, (2, 16), probes, {"offsets": 256, "seed": 13})
    # a probe's bound reads the draw its smoothed coefficients made, and the
    # probes share (n, d): one draw per m
    assert _draw_offsets.cache_info().misses == 2
    steeper = replace(coeffs, beta=0.7)
    for m in (2, 16):
        spec = MollifierSpec(m=m, offsets=256, seed=13)
        want = [_rate_bound_per_particle(coeffs, spec, i, t, x, beta=0.7) for t, x, _ in probes for i in range(n)]
        got = [b for t, x, _ in probes for b in _rate_bounds(steeper, spec, t, *_draw_offsets(spec, n, d))]
        assert got == want
        sup = max(_rate_bound_per_particle(coeffs, spec, i, t, x) for t, x, _ in probes for i in range(n))
        assert tab["bound"][m] == sup


def test_lipschitz_transfer():
    # |g_m(x) - g_m(x')| <= K [ |dx^i| + mean_j |dx^j| ] on random probe pairs
    bt = scenario("bounded_trig", {"d": 1})
    spec = MollifierSpec(m=4, offsets=2048, seed=4)
    rng = np.random.default_rng(4)
    for _ in range(20):
        xbar = rng.standard_normal((4, 1))
        dx = rng.standard_normal((4, 1)) * 0.3
        g1, e1 = (v[0] for v in mollified("terminal_cost", bt, spec, 0.0, xbar))
        g2, e2 = (v[0] for v in mollified("terminal_cost", bt, spec, 0.0, xbar + dx))
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
    # a batched state (4, n, d) or (P, L, A, n, d) smooths each row exactly
    # as that row alone, also when the offsets are taken in chunks of rows;
    # t within 1/m of 0 keeps bounded_trig's time clamp active
    coeffs = scenario(name, params)
    mol = MollifiedCoefficients(coeffs, MollifierSpec(m=4, offsets=64, seed=11), n)
    rng = np.random.default_rng(11)
    for lead, cap in (((4,), None), ((2, 3, 4), None), ((3, 2, 2), 2 * 64 * 4 * n * coeffs.d)):
        x = rng.standard_normal(lead + (n, coeffs.d))
        a = rng.uniform(-1.0, 1.0, lead + (n, coeffs.d))
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:  # two of the three leading rows per base-coefficient call
                mp.setitem(CAPS, "mollifier", cap)
            batch = (mol.drift(0.05, x, x, a), mol.running_cost(0.05, x, x, a), mol.terminal_cost(x, x))
        for i in np.ndindex(lead):
            alone = (
                mol.drift(0.05, x[i], x[i], a[i]),
                mol.running_cost(0.05, x[i], x[i], a[i]),
                mol.terminal_cost(x[i], x[i]),
            )
            for got, want in zip(batch, alone):
                np.testing.assert_array_equal(got[i], want)


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


_SCENARIOS = [
    ("lq_drift", {"d": 2, "p": [1.0, -0.5], "radius": 2.0}, 0.4),
    ("mean_reversion_mf", {"d": 1, "mf_center": 0.5}, 0.4),
    # t within 1/m of 0, so the time clamp is active for part of the offsets
    ("bounded_trig", {"d": 2}, 0.05),
]


@pytest.mark.parametrize("kind", ["drift", "running_cost", "terminal_cost"])
@pytest.mark.parametrize("lead, n", [((), 7), ((), 1), ((3, 2), 5)], ids=["n7", "n1-one-column", "batch"])
@pytest.mark.parametrize("name, params, t", _SCENARIOS, ids=[s[0] for s in _SCENARIOS])
def test_mean_only_matches_mean_with_stderr(name, params, t, lead, n, kind):
    # the coefficient path skips the stderr but keeps the mean's bits, which
    # are the in-order offset loop's, also at n = 1 with no batch axis
    # at seed 31 a pairwise sum of the single column changes the mean's bits
    # for three of the varying (scenario, kind) pairs
    coeffs = scenario(name, params)
    spec = MollifierSpec(m=4, offsets=64, seed=31)
    rng = np.random.default_rng(31)
    d = coeffs.d
    xbar = rng.standard_normal(lead + (n, d))
    a = rng.uniform(-1.0, 1.0, lead + (n, d))
    t_off, z_off = _draw_offsets(spec, n, d)
    args = (spec, t, xbar, a, 1.0, t_off, z_off)
    mean = _mollified_all(kind, coeffs, *args, with_stderr=False)
    np.testing.assert_array_equal(mean, _mollified_all(kind, coeffs, *args)[0])
    for i in np.ndindex(lead):
        want = _offset_loop(kind, coeffs, spec, t, xbar[i], a[i], 1.0, t_off, z_off)[0]
        np.testing.assert_array_equal(mean[i], want)
    with pytest.MonkeyPatch.context() as mp:  # one row of the first batch axis per call
        mp.setitem(CAPS, "mollifier", 1)
        np.testing.assert_array_equal(_mollified_all(kind, coeffs, *args, with_stderr=False), mean)


def _offset_axis_at(axis):
    # a drift whose values sit in memory with the offset axis at position
    # ``axis`` of the order, innermost for -1: C order moved there
    def drift(t, x, cloud, a):
        vals = np.sin(3.0 * x) + np.asarray(t)[..., None, None]
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(vals, 0, axis)), axis, 0)

    return drift


@pytest.mark.parametrize("axis", [-1, 1], ids=["offset-innermost", "offset-middle"])
def test_mean_sums_offsets_in_order_whatever_the_layout(axis):
    coeffs = simple_coeffs(b=_offset_axis_at(axis), d=2)
    spec = MollifierSpec(m=2, offsets=64, seed=15)
    rng = np.random.default_rng(15)
    xbar = rng.standard_normal((3, 5, 2))
    t_off, z_off = _draw_offsets(spec, 5, 2)
    vals = coeffs.drift(np.zeros((64, 1)), np.zeros((64, 3, 5, 2)), None, None)
    assert np.argmin(vals.strides) == (0 if axis == -1 else 3)
    args = (spec, 0.3, xbar, None, 1.0, t_off, z_off)
    mean = _mollified_all("drift", coeffs, *args, with_stderr=False)
    np.testing.assert_array_equal(mean, _mollified_all("drift", coeffs, *args)[0])
    for i in range(3):
        want = _offset_loop("drift", coeffs, spec, 0.3, xbar[i], None, 1.0, t_off, z_off)[0]
        np.testing.assert_array_equal(mean[i], want)


def test_draw_offsets_shares_one_read_only_draw():
    spec = MollifierSpec(m=3, offsets=32, seed=16)
    t_off, z_off = _draw_offsets(spec, 5, 2)
    fresh = _draw_offsets.__wrapped__(spec, 5, 2)
    np.testing.assert_array_equal(t_off, fresh[0])
    np.testing.assert_array_equal(z_off, fresh[1])
    assert not t_off.flags.writeable and not z_off.flags.writeable
    assert _draw_offsets(spec, 5, 2)[1] is z_off
    other = _draw_offsets(replace(spec, seed=17), 5, 2)
    assert _draw_offsets.cache_info().maxsize == 1 and _draw_offsets.cache_info().currsize == 1
    assert _draw_offsets(spec, 5, 2)[1] is not z_off and other[1] is not z_off
