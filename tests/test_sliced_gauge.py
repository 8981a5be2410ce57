import numpy as np
import pytest

from mfhjb.measures import ParticleEnsemble, translate
from mfhjb.sliced_gauge import (
    _CHUNK_ATOMS,
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
    pin_gauge_square_factor,
    rho,
    sw2,
)
from mfhjb.transport1d import SmoothedProjection, w2_discrete, w2_smoothed

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


# ---------------------------------------------------------------------------
# sliced distance
# ---------------------------------------------------------------------------


def test_sw2_identical_is_zero():
    mu, _ = random_pair(0)
    assert sw2(mu, mu, 0.5, QUAD2) < 1e-10


def test_sw2_d1_reduces_to_smoothed_w2():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 1))
    b = rng.standard_normal((7, 1)) + 0.4
    mu, nu = ParticleEnsemble(a), ParticleEnsemble(b)
    direct = w2_smoothed(
        SmoothedProjection(a.ravel(), 0.5), SmoothedProjection(b.ravel(), 0.5), 256
    )
    assert sw2(mu, nu, 0.5, QUAD1) == pytest.approx(direct, rel=1e-10)


def test_sw2_translation_identity():
    rng = np.random.default_rng(2)
    mu = ParticleEnsemble(rng.standard_normal((8, 2)))
    c = np.array([0.8, -0.5])
    nu = translate(mu, c)
    assert sw2(mu, nu, 0.5, QUAD2) == pytest.approx(np.linalg.norm(c) / np.sqrt(2), abs=1e-6)


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
    k = _CHUNK_ATOMS // (QUAD2.count * 256 * max(mu.n, nu.n)) + 3
    xs = np.random.default_rng(11).standard_normal((k, 2))
    batched = dmu_gauge(mu, nu, 0.5, QUAD2, xs)
    for i in (0, k - 4, k - 1):
        assert np.array_equal(batched[i], dmu_gauge(mu, nu, 0.5, QUAD2, xs[i]))


def test_dxdmu_gauge_translation_is_zero():
    rng = np.random.default_rng(11)
    mu = ParticleEnsemble(rng.standard_normal((5, 2)))
    nu = translate(mu, np.array([0.4, 0.9]))
    m = dxdmu_gauge(mu, nu, 0.5, QUAD2, np.array([0.2, 0.1]))
    np.testing.assert_allclose(m, 0.0, atol=1e-10)


def test_dxdmu_gauge_symmetric_and_matches_fd():
    mu, nu = random_pair(12, n=6, m=5)
    x = np.array([0.3, -0.2])
    analytic = dxdmu_gauge(mu, nu, 0.5, QUAD2, x)
    np.testing.assert_allclose(analytic, analytic.T, atol=1e-10)
    h = 1e-4
    fd = np.zeros((2, 2))
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        fd[:, l] = (
            dmu_gauge(mu, nu, 0.5, QUAD2, x + e) - dmu_gauge(mu, nu, 0.5, QUAD2, x - e)
        ) / (2 * h)
    assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) < 1e-3


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
        anchors, 0.9, mu, QUAD2, horizon, mc_noise=48, quad_y=48, m_points=64
    )
    assert rec["dt_abs_ok"]
    assert rec["dt_abs_bound"] == 4.0 * horizon


def test_phi_delta_h_is_geometric_series_of_constant_matrices():
    mu, nu = random_pair(20)
    k_long = 40
    anchors = GaugeAnchors(tuple((0.2, mu) for _ in range(k_long + 1)), delta=0.5, k_max=k_long)
    from mfhjb.sliced_gauge import phi_delta_derivatives

    der = phi_delta_derivatives(anchors, 0.5, nu, QUAD2, mc_noise=16, quad_y=16)
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
            mc_noise=96, quad_y=96, m_points=64,
        )
        assert rec["all_ok"], rec


def test_recorded_cd_covers_fresh_calibration():
    for d in (1, 2):
        fresh = calibrate_c_d(d, seed=0)
        assert fresh <= C_D_CALIBRATED[d] * 1.02
