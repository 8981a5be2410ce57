import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from mfhjb.transport1d import (
    P_MIN,
    SmoothedProjection,
    TransportMap1D,
    _mixture_cdf,
    _mixture_quantile,
    w1_empirical_gaussian,
    w2_discrete,
    w2_smoothed,
)


def test_cdf_symmetry_single_value():
    sp = SmoothedProjection(np.array([0.0]), sigma=1.0)
    assert sp.cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_standard_normal_value():
    sp = SmoothedProjection(np.array([0.0]), sigma=1.0)
    assert sp.cdf(1.96) == pytest.approx(ndtr(1.96), rel=1e-13)
    assert sp.cdf(1.96) == pytest.approx(0.9750021048517795, rel=1e-12)


def test_cdf_translation_invariance():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(6)
    z = rng.standard_normal(10)
    c = 3.7
    a = SmoothedProjection(vals, 0.8).cdf(z)
    b = SmoothedProjection(vals + c, 0.8).cdf(z + c)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_cdf_strictly_increasing_on_grid():
    # strictness holds wherever the clamp to [P_MIN, 1 - P_MIN] is inactive,
    # i.e. within about 7.9 sigma of the particle range
    sp = SmoothedProjection(np.array([-1.0, 0.3, 2.0]), sigma=0.5)
    z = np.linspace(-3.5, 4.5, 400)
    f = sp.cdf(z)
    assert np.all(np.diff(f) > 0)


def test_cdf_rejects_nonfinite():
    sp = SmoothedProjection(np.array([0.0]), sigma=1.0)
    with pytest.raises(ValueError):
        sp.cdf(np.nan)


def test_sigma_positive_required():
    with pytest.raises(ValueError):
        SmoothedProjection(np.array([0.0]), sigma=0.0)


def test_quantile_median_single_value():
    sp = SmoothedProjection(np.array([0.0]), sigma=1.0)
    assert sp.quantile(0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p, level", [(1e-15, P_MIN), (1.0 - 1e-15, 1.0 - P_MIN)], ids=["lower", "upper"])
def test_quantile_clamp_single_value(p, level):
    # a level beyond the clamp solves at the clamp level itself
    sp = SmoothedProjection(np.array([0.0]), sigma=1.0)
    assert sp.quantile(p) == pytest.approx(ndtri(level), abs=1e-9)


def test_quantile_symmetric_mixture():
    sp = SmoothedProjection(np.array([-1.0, 1.0]), sigma=0.5)
    assert sp.quantile(0.5) == pytest.approx(0.0, abs=1e-11)


def test_quantile_cdf_round_trip():
    sp = SmoothedProjection(np.array([0.4, -0.2, 1.1]), sigma=0.7)
    z = np.linspace(-3 * 0.7, 3 * 0.7, 25)
    back = sp.quantile(sp.cdf(z))
    np.testing.assert_allclose(back, z, atol=1e-9)


MIDPOINTS_512 = (np.arange(512) + 0.5) / 512
CLAMP_LEVELS = np.array([1e-300, 1e-15, P_MIN, 0.5, 1.0 - P_MIN, 1.0 - 1e-16])


@pytest.mark.parametrize(
    "values, sigma, p",
    [
        (np.array([0.0, 1e6]), 1e-3, MIDPOINTS_512),
        (np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.5]), 1e-6, MIDPOINTS_512),
        (np.array([0.3]), 0.7, MIDPOINTS_512),
        (np.array([-1.0, 0.2, 0.2, 3.0]), 0.5, CLAMP_LEVELS),
        (np.array([4.0]), 2.0, CLAMP_LEVELS),
        (
            np.random.default_rng(9).standard_normal((3, 4)) * [[1.0], [50.0], [1e-3]],
            0.05,
            np.random.default_rng(10).uniform(0.0, 1.0, (3, 2, 7)),
        ),
    ],
    ids=["separated", "tiny_sigma_duplicates", "single_point", "clamps", "single_point_clamps", "aligned_rows"],
)
def test_quantile_residual_contract(values, sigma, p):
    # each returned z is within a few ulps of a sign change of the raw F - p,
    # up to the rounding of F (a mean of positive terms)
    z = _mixture_quantile(values, sigma, p)
    assert z.shape == p.shape and np.isfinite(z).all()
    target = np.clip(p, P_MIN, 1.0 - P_MIN)
    step = 4.0 * np.spacing(np.abs(z))
    slack = 4.0 * np.finfo(float).eps * target
    assert np.all(_mixture_cdf(values, sigma, z - step) <= target + slack)
    assert np.all(_mixture_cdf(values, sigma, z + step) >= target - slack)


def test_quantile_rejects_bad_p():
    sp = SmoothedProjection(np.array([0.0]), sigma=1.0)
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            sp.quantile(p)


def test_transport_identity():
    sp = SmoothedProjection(np.array([0.1, -0.5, 2.0]), sigma=0.6)
    T = TransportMap1D(sp, sp)
    z = np.linspace(-2, 3, 17)
    np.testing.assert_allclose(T(z), z, atol=1e-9)


def test_transport_translation_equivariance():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(5)
    c = 1.3
    src = SmoothedProjection(vals, 0.5)
    tgt = SmoothedProjection(vals + c, 0.5)
    z = np.linspace(-2, 2, 21)
    np.testing.assert_allclose(TransportMap1D(src, tgt)(z), z + c, atol=1e-8)


def test_transport_gaussian_scaling():
    # single particles at 0: smoothed laws are centered Gaussians, and the
    # monotone map between centered Gaussians is multiplication by the
    # standard-deviation ratio
    s1, s2 = 0.5, 1.25
    src = SmoothedProjection(np.array([0.0]), sigma=s1)
    tgt = SmoothedProjection(np.array([0.0]), sigma=s2)
    z = np.linspace(-1.5, 1.5, 13)
    np.testing.assert_allclose(TransportMap1D(src, tgt)(z), z * s2 / s1, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("z", [-3.9, -4.0])
def test_transport_lower_clamp(z):
    # the source CDF at z is below P_MIN, so z maps to the target's clamp quantile
    src = SmoothedProjection(np.array([0.0]), sigma=0.5)
    tgt = SmoothedProjection(np.array([0.0]), sigma=1.0)
    assert TransportMap1D(src, tgt)(z) == pytest.approx(ndtri(P_MIN), abs=1e-9)


def test_transport_strictly_increasing():
    rng = np.random.default_rng(2)
    src = SmoothedProjection(rng.standard_normal(4), 0.4)
    tgt = SmoothedProjection(rng.standard_normal(6) * 2.0 + 0.3, 0.4)
    z = np.linspace(-2.5, 2.5, 200)
    out = TransportMap1D(src, tgt)(z)
    assert np.all(np.diff(out) > 0)


def test_pushforward_property():
    rng = np.random.default_rng(3)
    src = SmoothedProjection(rng.standard_normal(5), 0.5)
    tgt = SmoothedProjection(rng.standard_normal(7) + 1.0, 0.5)
    M = 256
    p = (np.arange(M) + 0.5) / M
    z = src.quantile(p)
    transported = TransportMap1D(src, tgt)(z)
    np.testing.assert_allclose(np.sort(transported), tgt.quantile(p), atol=1e-8)


def test_w2_smoothed_identical_is_zero():
    sp = SmoothedProjection(np.array([0.0, 1.0]), sigma=0.5)
    assert w2_smoothed(sp, sp, 128) == pytest.approx(0.0, abs=1e-12)


def test_w2_smoothed_translation():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(6)
    c = 0.9
    src = SmoothedProjection(vals, 0.5)
    tgt = SmoothedProjection(vals + c, 0.5)
    assert w2_smoothed(src, tgt, 256) == pytest.approx(c, abs=1e-6)


def test_w2_smoothed_rejects_small_quadrature():
    sp = SmoothedProjection(np.array([0.0]), sigma=1.0)
    with pytest.raises(ValueError):
        w2_smoothed(sp, sp, 4)


def test_w2_discrete_simple_cases():
    assert w2_discrete([0.0], [1.0]) == pytest.approx(1.0)
    assert w2_discrete([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)
    assert w2_discrete([0.0, 1.0], [0.0, 3.0]) == pytest.approx(np.sqrt(2.0))


def test_w2_discrete_length_mismatch():
    with pytest.raises(ValueError):
        w2_discrete([0.0], [1.0, 2.0])


def test_w2_discrete_matches_brute_force_small():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        best = min(
            math.fsum((x - y) ** 2 for x, y in zip(a, perm)) for perm in itertools.permutations(b)
        )
        assert w2_discrete(a, b) == pytest.approx(math.sqrt(best / n), rel=1e-14)


def test_w2_smoothed_converges_to_discrete_as_sigma_shrinks():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(6)
    b = rng.standard_normal(6) + 0.7
    oracle = w2_discrete(a, b)
    gaps = []
    for sigma in (0.5, 0.25, 0.125, 0.0625):
        w = w2_smoothed(SmoothedProjection(a, sigma), SmoothedProjection(b, sigma), 1024)
        gaps.append(abs(w - oracle))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.05 * oracle


def test_w1_empirical_gaussian_against_quadrature():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(40)
    exact = w1_empirical_gaussian(x)
    # brute-force quadrature of |F_n - Phi|
    grid = np.linspace(-8, 8, 200_001)
    fn = np.searchsorted(np.sort(x), grid, side="right") / x.size
    approx = np.trapezoid(np.abs(fn - ndtr(grid)), grid)
    assert exact == pytest.approx(approx, abs=5e-5)


def test_w1_empirical_gaussian_scales_with_std():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(30)
    base = w1_empirical_gaussian(x, 0.0, 1.0)
    scaled = w1_empirical_gaussian(2.5 * x, 0.0, 2.5)
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)
