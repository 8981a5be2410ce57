import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr

from mfhjb import sliced_gauge
from mfhjb.measures import ParticleEnsemble, translate
from mfhjb.quadrature import quasi_normal
from mfhjb.budget import CAPS
from mfhjb.sliced_gauge import (
    C_D_CALIBRATED,
    GAUGE_SQUARE_FACTOR,
    GaugeAnchors,
    SphereQuadrature,
    calibrate_c_d,
    dmu_gauge,
    dxdmu_gauge,
    gauge_g,
    h_gauge,
    phi_delta,
    phi_delta_derivative_bounds,
    phi_delta_derivatives,
    pin_gauge_square_factor,
    rho,
    rho_matrix,
    sw2,
)
from mfhjb.transport1d import w2_discrete

QUAD2 = SphereQuadrature.equispaced_circle(64)
QUAD1 = SphereQuadrature.two_point_1d()


def random_pair(seed, n=6, m=5, d=2):
    rng = np.random.default_rng(seed)
    mu = ParticleEnsemble(rng.standard_normal((n, d)))
    nu = ParticleEnsemble(rng.standard_normal((m, d)) * 1.2 + 0.3)
    return mu, nu


# ---------------------------------------------------------------------------
# direction quadrature
# ---------------------------------------------------------------------------


def test_quadrature_weights_and_second_moment():
    for quad, tol in ((QUAD1, 1e-15), (QUAD2, 1e-14)):
        assert abs(quad.weights.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(
            quad.second_moment_matrix(), np.eye(quad.d) / quad.d, atol=tol
        )
    q3 = SphereQuadrature.quasi_uniform_sphere(3, 512, seed=1)
    np.testing.assert_allclose(
        q3.second_moment_matrix(), np.eye(3) / 3.0, atol=4.0 / np.sqrt(512)
    )


def test_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        SphereQuadrature(np.array([[2.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        SphereQuadrature(np.array([[1.0, 0.0]]), np.array([0.5]))
    with pytest.raises(ValueError):
        SphereQuadrature.equispaced_circle(2)


def unfolded_circle(count):
    """count equispaced directions, theta and -theta both kept, as a user rule."""
    ang = 2.0 * np.pi * np.arange(count) / count
    return SphereQuadrature(np.stack([np.cos(ang), np.sin(ang)], axis=1), np.full(count, 1.0 / count))


UNFOLDED1 = SphereQuadrature(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))


def test_even_rules_fold_to_lines():
    assert QUAD1.nodes.tolist() == [[1.0]] and QUAD1.weights.tolist() == [1.0]
    for count in (4, 6, 16, 64, 128):
        quad = SphereQuadrature.equispaced_circle(count)
        ang = 2.0 * np.pi * np.arange(count // 2) / count
        np.testing.assert_array_equal(quad.nodes, np.stack([np.cos(ang), np.sin(ang)], axis=1))
        np.testing.assert_array_equal(quad.weights, np.full(count // 2, 2.0 / count))
        np.testing.assert_allclose(quad.second_moment_matrix(), np.eye(2) / 2, rtol=0, atol=1e-15)
    # odd counts and d >= 3 are left as they were, bit for bit
    for count in (3, 5, 33, 127):
        quad, want = SphereQuadrature.equispaced_circle(count), unfolded_circle(count)
        assert quad.nodes.tobytes() == want.nodes.tobytes() and quad.weights.tobytes() == want.weights.tobytes()
    z = quasi_normal(64, 3, 1)
    q3 = SphereQuadrature.quasi_uniform_sphere(3, 64, seed=1)
    assert q3.nodes.tobytes() == (z / np.linalg.norm(z, axis=1, keepdims=True)).tobytes()
    assert q3.weights.tobytes() == np.full(64, 1.0 / 64).tobytes()
    # a user's +-theta rule is never folded
    assert UNFOLDED1.count == 2 and unfolded_circle(64).count == 64


def test_folded_rules_match_unfolded():
    # every sliced quantity is even in theta, so dropping -theta and doubling
    # theta's weight changes values only at rounding level
    def rel(a, b, floor=0.0):
        return np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), floor)

    def quantities(mu, nu, quad):
        return (
            sw2(mu, nu, 0.5, quad),
            gauge_g(mu, nu, 0.5, quad),
            rho_matrix([0.1, 0.6], (mu, nu), [0.3], (nu,), 0.5, quad),
            dmu_gauge(mu, nu, 0.5, quad, mu.points),
            dxdmu_gauge(mu, nu, 0.5, quad, mu.points),
        )

    worst = 0.0
    for d, folded, unfolded in ((1, QUAD1, UNFOLDED1), (2, SphereQuadrature.equispaced_circle(32), unfolded_circle(32))):
        assert folded.count * 2 == unfolded.count
        for seed in range(10):
            n, m = (1, 1) if seed == 0 else (1, 4) if seed == 1 else (3 + seed % 4, 2 + seed % 5)
            mu, nu = random_pair(seed, n, m, d)
            got, want = quantities(mu, nu, folded), quantities(mu, nu, unfolded)
            worst = max(worst, *(rel(a, b) for a, b in zip(got[:4], want[:4])))
            # between one-particle clouds T is a shift and dxdmu is 0 up to
            # rounding, so it is measured against its terms' scale, H = I/d
            worst = max(worst, rel(got[4], want[4], 1.0 / d))
    assert worst <= 1e-13


# ---------------------------------------------------------------------------
# sliced distance
# ---------------------------------------------------------------------------


def test_sw2_identical_is_zero():
    mu, _ = random_pair(0)
    assert sw2(mu, mu, 0.5, QUAD2) < 1e-10


def test_sw2_d1_reduces_to_smoothed_w2():
    # the midpoint rule over quantiles found by brentq on mean Phi((z - v) / sigma) - p,
    # independent of the library's quantile solve
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 1))
    b = rng.standard_normal((7, 1)) + 0.4
    mu, nu = ParticleEnsemble(a), ParticleEnsemble(b)
    sigma, m = 0.5, 256
    levels = (np.arange(m) + 0.5) / m

    def quantiles(v):
        lo, hi = v.min() - 10.0 * sigma, v.max() + 10.0 * sigma
        return np.array([brentq(lambda z: ndtr((z - v) / sigma).mean() - p, lo, hi, xtol=1e-15)
                         for p in levels])

    direct = np.sqrt(np.mean((quantiles(a.ravel()) - quantiles(b.ravel())) ** 2))
    assert sw2(mu, nu, sigma, QUAD1) == pytest.approx(direct, rel=1e-10)


def test_sw2_translation_identity():
    rng = np.random.default_rng(2)
    mu = ParticleEnsemble(rng.standard_normal((8, 2)))
    c = np.array([0.8, -0.5])
    nu = translate(mu, c)
    assert sw2(mu, nu, 0.5, QUAD2) == pytest.approx(np.linalg.norm(c) / np.sqrt(2), abs=1e-6)


def test_sw2_rejects_empty_level_count():
    mu, nu = random_pair(0)
    with pytest.raises(ValueError, match="m_points must be >= 1, got 0"):
        sw2(mu, nu, 0.5, QUAD2, m_points=0)


def test_sw2_dimension_mismatch():
    mu, _ = random_pair(3)
    nu1 = ParticleEnsemble(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sw2(mu, nu1, 0.5, QUAD2)


def test_sw2_sigma_zero_uses_discrete_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 1))
    b = rng.standard_normal((6, 1))
    mu, nu = ParticleEnsemble(a), ParticleEnsemble(b)
    assert sw2(mu, nu, 0.0, QUAD1) == pytest.approx(w2_discrete(a.ravel(), b.ravel()), rel=1e-12)
    nu_bad = ParticleEnsemble(rng.standard_normal((4, 1)))
    with pytest.raises(ValueError):
        sw2(mu, nu_bad, 0.0, QUAD1)


def test_sw2_metric_axioms():
    rng = np.random.default_rng(5)
    for seed in range(5):
        mu, nu = random_pair(10 + seed)
        assert abs(sw2(mu, nu, 0.5, QUAD2) - sw2(nu, mu, 0.5, QUAD2)) < 1e-10
    for seed in range(5):
        mu, nu = random_pair(20 + seed)
        ka = ParticleEnsemble(rng.standard_normal((4, 2)))
        d_ab = sw2(mu, nu, 0.5, QUAD2)
        d_ac = sw2(mu, ka, 0.5, QUAD2)
        d_cb = sw2(ka, nu, 0.5, QUAD2)
        assert d_ab <= d_ac + d_cb + 1e-8
    # zero iff equal as multisets
    mu, _ = random_pair(30, n=4)
    shuffled = ParticleEnsemble(mu.points[::-1])
    assert sw2(mu, shuffled, 0.5, QUAD2) < 1e-10
    distinct = ParticleEnsemble(mu.points + np.array([0.3, 0.0]))
    assert sw2(mu, distinct, 0.5, QUAD2) > 1e-3


def test_sw2_order_invariant():
    mu, nu = random_pair(6, n=7)
    rng = np.random.default_rng(0)
    perm = rng.permutation(7)
    mu_shuf = ParticleEnsemble(mu.points[perm])
    assert sw2(mu, nu, 0.5, QUAD2) == pytest.approx(sw2(mu_shuf, nu, 0.5, QUAD2), abs=1e-12)


def test_topological_equivalence_with_w2_proxy():
    rng = np.random.default_rng(7)
    mu = ParticleEnsemble(rng.standard_normal((6, 2)))
    c = np.array([1.0, 0.5])
    prev_s = np.inf
    for k in (1, 2, 4, 8):
        mu_k = translate(mu, c / k)
        s = sw2(mu_k, mu, 0.5, QUAD2)
        proxy = np.linalg.norm(c) / k  # exact W2 for a translation
        assert s < prev_s
        assert 1.0 / (10.0 * np.sqrt(2.0)) <= s / proxy <= 10.0
        prev_s = s


# ---------------------------------------------------------------------------
# gauge functional and derivatives
# ---------------------------------------------------------------------------


def test_gauge_g_is_pinned_multiple_of_sw2_squared():
    for seed in range(20):
        mu, nu = random_pair(40 + seed, n=4, m=4)
        g = gauge_g(mu, nu, 0.5, QUAD2, 128)
        s = sw2(mu, nu, 0.5, QUAD2, 128)
        assert g == pytest.approx(GAUGE_SQUARE_FACTOR * s**2, rel=1e-12)


def test_gauge_g_zero_on_diagonal_and_symmetric():
    mu, nu = random_pair(60)
    assert gauge_g(mu, mu, 0.5, QUAD2) < 1e-12
    assert gauge_g(mu, nu, 0.5, QUAD2) == pytest.approx(gauge_g(nu, mu, 0.5, QUAD2), abs=1e-8)


def test_pin_gauge_square_factor_selects_half():
    mu, nu = random_pair(61, n=5, m=4)
    res = pin_gauge_square_factor(mu, nu, 0.5, QUAD2, m_points=128)
    assert res["factor"] == GAUGE_SQUARE_FACTOR == 0.5
    assert res["errors"][0.5] < 1e-3
    assert res["errors"][1.0] > 0.5


def test_dmu_gauge_translation_formula():
    rng = np.random.default_rng(8)
    mu = ParticleEnsemble(rng.standard_normal((6, 2)))
    c = np.array([0.6, -0.3])
    nu = translate(mu, c)
    for x in (np.zeros(2), np.array([1.0, 2.0])):
        out = dmu_gauge(mu, nu, 0.5, QUAD2, x)
        np.testing.assert_allclose(out, -c / 2.0, atol=1e-5)


def test_dmu_gauge_identity_is_zero():
    mu, _ = random_pair(9)
    out = dmu_gauge(mu, mu, 0.5, QUAD2, np.array([0.4, -1.0]))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_dmu_gauge_batched_x_matches_single():
    # enough points for two chunks; a row must not depend on its batch or chunk
    mu, nu = random_pair(10)
    k = CAPS["gauge"] // (QUAD2.count * 256 * max(mu.n, nu.n)) + 3
    xs = np.random.default_rng(11).standard_normal((k, 2))
    batched = dmu_gauge(mu, nu, 0.5, QUAD2, xs)
    for i in (0, k - 4, k - 1):
        assert np.array_equal(batched[i], dmu_gauge(mu, nu, 0.5, QUAD2, xs[i]))


def test_quantile_work_on_dense_derivatives_and_sw2_table(cdf_passes):
    # the benchmark's gauge_dense sizes: dmu_gauge at all 14 particles puts
    # Gauss-Hermite nodes out to +-15 sigma, where Newton on the raw CDF moves
    # only about sigma / |z| per step; sw2's midpoint tables never reach the tail
    rng = np.random.default_rng(0)
    quad = SphereQuadrature.equispaced_circle(32)
    mu = ParticleEnsemble(rng.standard_normal((14, 2)))
    nu = ParticleEnsemble(1.2 * rng.standard_normal((14, 2)) + 0.3)
    dmu_gauge(mu, nu, 0.5, quad, mu.points, 64)
    assert cdf_passes.atoms <= 2_500_000
    # each entry starts inside one cell of its row's seed grid, so after the
    # source pass and the grid's pass most entries stop in three passes
    assert cdf_passes.passes <= 9 and cdf_passes.atoms <= 800_000
    mu_s = ParticleEnsemble(rng.standard_normal((128, 2)))
    cdf_passes.reset()
    sw2(mu_s, translate(mu_s, np.array([0.4, -0.3])), 0.5, quad, 64)
    assert cdf_passes.passes <= 7


def test_dxdmu_gauge_translation_is_zero():
    rng = np.random.default_rng(11)
    mu = ParticleEnsemble(rng.standard_normal((5, 2)))
    nu = translate(mu, np.array([0.4, 0.9]))
    m = dxdmu_gauge(mu, nu, 0.5, QUAD2, np.array([0.2, 0.1]))
    np.testing.assert_allclose(m, 0.0, atol=1e-10)


def _fd_dxdmu(mu, nu, quad, x, noise_nodes=256, h=1e-4):
    """Central differences of dmu_gauge in x; column l is d/dx_l."""
    fd = np.zeros((x.size, x.size))
    for l in range(x.size):
        e = np.zeros(x.size)
        e[l] = h
        fd[:, l] = (
            dmu_gauge(mu, nu, 0.5, quad, x + e, noise_nodes)
            - dmu_gauge(mu, nu, 0.5, quad, x - e, noise_nodes)
        ) / (2 * h)
    return fd


def test_dxdmu_gauge_symmetric_and_matches_fd():
    mu, nu = random_pair(12, n=6, m=5)
    x = np.array([0.3, -0.2])
    analytic = dxdmu_gauge(mu, nu, 0.5, QUAD2, x)
    np.testing.assert_allclose(analytic, analytic.T, atol=1e-10)
    fd = _fd_dxdmu(mu, nu, QUAD2, x)
    assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) < 1e-5


@pytest.mark.parametrize("noise_nodes", [32, 96, 256])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dxdmu_gauge_matches_fd_on_seeded_clouds(seed, noise_nodes):
    # 12 vs 12 points, nu = 1.2 N + 0.3: the slope T' = f_mu / (f_nu o T) on
    # dmu_gauge's own nodes differentiates its quadrature at every node count
    mu, nu = random_pair(seed, n=12, m=12)
    quad = SphereQuadrature.equispaced_circle(32)
    x = mu.points[0]
    analytic = dxdmu_gauge(mu, nu, 0.5, quad, x, noise_nodes)
    fd = _fd_dxdmu(mu, nu, quad, x, noise_nodes)
    assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) <= 1e-5


def test_phi_delta_derivatives_one_solve_per_anchor_group(monkeypatch):
    mu, nu = random_pair(22)
    other = translate(nu, np.array([0.5, -0.2]))
    # nu at t = 0.1 appears twice, so three anchors form two groups
    anchors = GaugeAnchors(((0.1, nu), (0.4, other), (0.1, nu)), delta=0.8)
    solve = sliced_gauge._transport
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(sliced_gauge, "_transport", counted)
    der = phi_delta_derivatives(anchors, 0.3, mu, QUAD2, noise_nodes=48)
    assert len(calls) == 2
    terms = [(1.25, nu), (0.5, other)]
    sig = anchors.sigma
    dmu = sum(w * dmu_gauge(mu, m, sig, QUAD2, mu.points, 48) for w, m in terms)
    dxdmu = sum(w * dxdmu_gauge(mu, m, sig, QUAD2, mu.points, 48) for w, m in terms)
    assert np.abs(der["dmu"] - dmu).max() <= 1e-15
    assert np.abs(der["dxdmu"] - dxdmu).max() <= 1e-15


def test_phi_delta_derivatives_one_solve_per_cloud_at_any_times(monkeypatch):
    # the gauge derivatives do not depend on the anchor times, so one cloud
    # anchored at three times costs one transport solve
    mu, nu = random_pair(23)
    anchors = GaugeAnchors(((0.1, nu), (0.4, nu), (0.7, nu)), 0.5)
    solve = sliced_gauge._transport
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(sliced_gauge, "_transport", counted)
    der = phi_delta_derivatives(anchors, 0.3, mu, QUAD2, noise_nodes=48)
    assert len(calls) == 1
    dt = sum(w * 2.0 * (0.3 - tk) for w, tk in ((1.0, 0.1), (0.5, 0.4), (0.25, 0.7)))
    assert der["dt"] == pytest.approx(dt, rel=1e-15)
    dmu = 1.75 * dmu_gauge(mu, nu, anchors.sigma, QUAD2, mu.points, 48)
    assert np.abs(der["dmu"] - dmu).max() <= 1e-15


def test_h_gauge_exact_values():
    np.testing.assert_allclose(h_gauge(2, QUAD2), 0.5 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(h_gauge(1, QUAD1), np.eye(1), atol=0)
    with pytest.raises(ValueError):
        h_gauge(3, QUAD2)


def test_h_gauge_constant_in_measures_and_sigma():
    ref = h_gauge(2, QUAD2).tobytes()
    for seed in range(10):
        # h_gauge reads only the quadrature; identical bit-for-bit
        assert h_gauge(2, QUAD2).tobytes() == ref


def test_h_gauge_matches_second_difference_of_gauge():
    mu, nu = random_pair(13, n=5, m=4)
    h = 1e-3
    analytic = h_gauge(2, QUAD2)
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        fp = gauge_g(translate(mu, e), nu, 0.5, QUAD2, 128)
        f0 = gauge_g(mu, nu, 0.5, QUAD2, 128)
        fm = gauge_g(translate(mu, -e), nu, 0.5, QUAD2, 128)
        second = (fp - 2 * f0 + fm) / h**2
        assert abs(second - analytic[l, l]) / abs(analytic[l, l]) < 1e-2


# ---------------------------------------------------------------------------
# rho and phi_delta
# ---------------------------------------------------------------------------


def test_rho_diagonal_and_time_term():
    mu, _ = random_pair(14)
    assert rho(0.3, mu, 0.3, mu, 0.5, QUAD2) < 1e-12
    assert rho(0.0, mu, 1.0, mu, 0.5, QUAD2) == pytest.approx(1.0, abs=1e-10)


def test_rho_gauge_property_small_values_control_metric():
    rng = np.random.default_rng(15)
    eps = 0.5
    eta = eps**2 / 4.0
    for _ in range(50):
        mu = ParticleEnsemble(rng.standard_normal((4, 2)) * 0.1)
        nu = ParticleEnsemble(mu.points + rng.standard_normal((4, 2)) * 0.02)
        s = float(rng.uniform(0, 1))
        t = s + float(rng.uniform(-0.2, 0.2))
        t = min(max(t, 0.0), 1.0)
        r = rho(s, mu, t, nu, 0.5, QUAD2, 64)
        if r <= eta:
            metric = abs(t - s) + np.sqrt(gauge_g(mu, nu, 0.5, QUAD2, 64))
            assert metric <= eps


def test_phi_delta_single_anchor_cases():
    mu, nu = random_pair(16)
    anchors = GaugeAnchors(((0.5, mu),), delta=0.5)
    assert phi_delta(anchors, 0.5, mu, QUAD2) < 1e-12
    val = phi_delta(anchors, 0.7, nu, QUAD2)
    expect = rho(0.7, nu, 0.5, mu, anchors.sigma, QUAD2)
    assert val == pytest.approx(expect, rel=1e-12)


def test_phi_delta_two_identical_anchors():
    mu, nu = random_pair(17)
    single = GaugeAnchors(((0.5, mu),), delta=0.5)
    double = GaugeAnchors(((0.5, mu), (0.5, mu)), delta=0.5)
    assert phi_delta(double, 0.2, nu, QUAD2) == pytest.approx(
        1.5 * phi_delta(single, 0.2, nu, QUAD2), rel=1e-12
    )


def test_phi_delta_one_table_for_mu_plus_one_per_anchor_group(table_solves):
    mu, nu = random_pair(23)
    other = translate(nu, np.array([0.5, -0.2]))
    third = translate(mu, np.array([-0.3, 0.1]))
    # nu at t = 0.1 appears twice, so four anchors form three groups
    anchors = GaugeAnchors(((0.1, nu), (0.4, other), (0.1, nu), (0.7, third)), delta=0.8)
    val = phi_delta(anchors, 0.3, mu, QUAD2, 64)
    # mu and third have 6 particles, nu and other 5: one padded block
    assert len(table_solves.blocks) == 1
    table_solves.assert_one_block_per_chunk((mu, nu, other, third), QUAD2)
    terms = [(1.25, 0.1, nu), (0.5, 0.4, other), (0.125, 0.7, third)]
    expect = sum(w * rho(0.3, mu, t, m, anchors.sigma, QUAD2, 64) for w, t, m in terms)
    assert val == pytest.approx(expect, rel=1e-14)


def test_rho_matrix_chunked_rows_match_one_chunk(monkeypatch):
    # the kernel is batch invariant, so chunking the rows changes no bit
    rng = np.random.default_rng(24)
    clouds = tuple(ParticleEnsemble(rng.standard_normal((int(rng.integers(2, 6)), 2))) for _ in range(9))
    times = rng.uniform(0.0, 1.0, 9)
    whole = rho_matrix(times, clouds, times[:7], clouds[:7], 2.0, QUAD2, 48)
    # two rows of the (rows, 7, 64, 48) temporary per chunk: five chunks
    monkeypatch.setitem(CAPS, "gauge", 2 * 7 * QUAD2.count * 48)
    chunked = rho_matrix(times, clouds, times[:7], clouds[:7], 2.0, QUAD2, 48)
    assert chunked.shape == (9, 7)
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("sigma", [1e-3, 0.7])
@pytest.mark.parametrize("chunk_atoms", [CAPS["gauge"], 2 * CAPS["entry_state"] * QUAD2.count * 32],
                         ids=["one_chunk", "small_chunks"])
def test_quantile_tables_equal_each_cloud_solved_alone(monkeypatch, table_solves, sigma, chunk_atoms):
    # a shuffled mix of particle counts, n = 1, duplicate points, separated
    # points and repeated objects; small chunks hold two clouds, padded to the wider
    rng = np.random.default_rng(31)
    pe = ParticleEnsemble
    mix = [pe(rng.standard_normal((n, 2))) for n in (1, 1, 2, 2, 3, 4, 4, 4, 5)]
    mix += [pe(np.zeros((1, 2))), pe(np.array([[0.0, 0.0], [1e6, 0.0]])),
            pe(np.array([[0.5, 0.5]] * 3 + [[-1.0, 0.2]])), pe(np.array([[0.3, -0.1]] * 2))]
    clouds = tuple(mix[i] for i in rng.permutation(len(mix) + 4) % len(mix))
    monkeypatch.setitem(CAPS, "gauge", chunk_atoms)
    tables = sliced_gauge._quantile_tables(clouds, sigma, QUAD2, 32)
    table_solves.assert_one_block_per_chunk(clouds, QUAD2)
    for ens, table in zip(clouds, tables):
        alone = sliced_gauge._stratified_quantiles((ens.points @ QUAD2.nodes.T).T.copy(), sigma, 32)
        assert np.array_equal(table, alone)


def _cloud(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return ParticleEnsemble(rng.standard_normal((n, 2)))
    if kind == "duplicates":  # at most three distinct points, each repeated
        return ParticleEnsemble(rng.standard_normal((3, 2))[rng.integers(0, 3, n)])
    # separated clusters: points within 1e-3 of (0, 0) or (1e6, 0)
    centers = np.array([[0.0, 0.0], [1e6, 0.0]])[rng.integers(0, 2, n)]
    return ParticleEnsemble(centers + 1e-3 * rng.uniform(-1.0, 1.0, (n, 2)))


CLOUD_SPECS = st.tuples(st.sampled_from(["normal", "duplicates", "clusters"]),
                        st.sampled_from([1, 2, 3, 8, 9, 17, 130]), st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(specs=st.lists(CLOUD_SPECS, min_size=2, max_size=4), sigma=st.sampled_from([1e-6, 0.05, 1.0]))
def test_tables_in_a_mixed_block_equal_each_cloud_alone_property(specs, sigma):
    # clouds of every particle count share one padded block, yet each table is
    # the bits of its cloud's own solve, so a rho_matrix entry is the bits of
    # rho on its pair alone, at sizes where numpy's own sums would go pairwise
    quad = SphereQuadrature.equispaced_circle(3)
    clouds = [_cloud(*spec) for spec in specs]
    tables = sliced_gauge._quantile_tables(clouds, sigma, quad, 16)
    for ens, table in zip(clouds, tables):
        alone = sliced_gauge._stratified_quantiles((ens.points @ quad.nodes.T).T.copy(), sigma, 16)
        assert table.tobytes() == alone.tobytes()
    times = np.linspace(0.0, 1.0, len(clouds))
    mat = rho_matrix(times, clouds, times, clouds, sigma, quad, 16)
    for a, b in np.ndindex(mat.shape):
        assert mat[a, b] == rho(times[a], clouds[a], times[b], clouds[b], sigma, quad, 16)


def test_rho_matrix_entries_equal_rho_and_gauge_g():
    rng = np.random.default_rng(24)
    clouds = [ParticleEnsemble(rng.standard_normal((int(rng.integers(1, 7)), 2))) for _ in range(5)]
    times = rng.uniform(0.0, 1.0, 5)
    mat = rho_matrix(times[:2], clouds[:2], times, clouds, 0.7, QUAD2, 32)
    assert mat.shape == (2, 5)
    assert mat[0, 0] == 0.0 and mat[1, 1] == 0.0
    for a in range(2):
        for b in range(5):
            assert mat[a, b] == rho(times[a], clouds[a], times[b], clouds[b], 0.7, QUAD2, 32)
            # equal times leave the gauge term alone
            assert rho(0.4, clouds[a], 0.4, clouds[b], 0.7, QUAD2, 32) == gauge_g(
                clouds[a], clouds[b], 0.7, QUAD2, 32
            )
    with pytest.raises(ValueError):
        rho_matrix([0.0], clouds[:1], [0.0], clouds[:1], 0.0, QUAD2)


def test_phi_delta_truncation_tail_bound():
    mu, _ = random_pair(18)
    many = GaugeAnchors(tuple((0.1, mu) for _ in range(50)), delta=0.5, k_max=40)
    rho_sup = 1.0
    assert many.truncation_tail_bound(rho_sup) <= 1e-10
    few = GaugeAnchors(((0.1, mu),), delta=0.5)
    assert few.truncation_tail_bound(rho_sup) == 0.0


def test_phi_delta_dt_bound_always():
    rng = np.random.default_rng(19)
    mu, _ = random_pair(19)
    horizon = 1.0
    anchor_list = tuple(
        (float(rng.uniform(0, horizon)), mu) for _ in range(4)
    )
    anchors = GaugeAnchors(anchor_list, delta=0.4)
    rec = phi_delta_derivative_bounds(
        anchors, 0.9, mu, QUAD2, horizon, noise_nodes=48, m_points=64
    )
    assert rec["dt_abs_ok"]
    assert rec["dt_abs_bound"] == 4.0 * horizon


def test_phi_delta_h_is_geometric_series_of_constant_matrices():
    mu, nu = random_pair(20)
    k_long = 40
    anchors = GaugeAnchors(tuple((0.2, mu) for _ in range(k_long + 1)), delta=0.5, k_max=k_long)
    der = phi_delta_derivatives(anchors, 0.5, nu, QUAD2, noise_nodes=16)
    kappa = 0.5  # 1/d for d = 2
    expected_norm = 2.0 * kappa * np.sqrt(2.0)
    assert np.linalg.norm(der["h"], "fro") == pytest.approx(expected_norm, rel=1e-9)


def test_phi_delta_bounds_on_random_anchor_sets():
    rng = np.random.default_rng(21)
    quad = SphereQuadrature.equispaced_circle(24)
    for trial in range(20):
        n_anchor = int(rng.integers(1, 5))
        anchor_list = []
        for _ in range(n_anchor):
            nk = int(rng.integers(2, 7))
            pts = rng.standard_normal((nk, 2)) * rng.uniform(0.3, 1.5) + rng.standard_normal(2)
            anchor_list.append((float(rng.uniform(0, 1)), ParticleEnsemble(pts)))
        anchors = GaugeAnchors(tuple(anchor_list), float(rng.uniform(0.2, 1.0)))
        mu = ParticleEnsemble(rng.standard_normal((4, 2)))
        rec = phi_delta_derivative_bounds(
            anchors, float(rng.uniform(0, 1)), mu, quad, horizon=1.0,
            noise_nodes=96, m_points=64,
        )
        assert rec["all_ok"], rec


def test_recorded_cd_covers_fresh_calibration():
    for d in (1, 2):
        fresh = calibrate_c_d(d, seed=0)
        assert fresh <= C_D_CALIBRATED[d] * 1.02
