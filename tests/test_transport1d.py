import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from mfhjb.measures import ParticleEnsemble
from mfhjb.sliced_gauge import SphereQuadrature, sw2
from mfhjb.transport1d import (
    P_MIN,
    _atom_sum,
    _mixture_cdf,
    _mixture_pdf,
    _mixture_quantile,
    w1_empirical_gaussian,
    w2_discrete,
)

QUAD1 = SphereQuadrature.two_point_1d()


def test_cdf_symmetry_single_value():
    assert _mixture_cdf(np.array([0.0]), 1.0, np.asarray(0.0)) == pytest.approx(0.5, abs=1e-15)


def test_cdf_standard_normal_value():
    f = _mixture_cdf(np.array([0.0]), 1.0, np.asarray(1.96))
    assert f == pytest.approx(ndtr(1.96), rel=1e-13)
    assert f == pytest.approx(0.9750021048517795, rel=1e-12)


def test_cdf_translation_invariance():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(6)
    z = rng.standard_normal(10)
    c = 3.7
    a = _mixture_cdf(vals, 0.8, z)
    b = _mixture_cdf(vals + c, 0.8, z + c)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_cdf_strictly_increasing_on_grid():
    # strictness holds wherever rounding does not flatten F; the grid stays
    # within 5 sigma of the particle range, well inside [P_MIN, 1 - P_MIN]
    z = np.linspace(-3.5, 4.5, 400)
    f = _mixture_cdf(np.array([-1.0, 0.3, 2.0]), 0.5, z)
    assert np.all(np.diff(f) > 0)


def test_quantile_median_single_value():
    assert _mixture_quantile(np.array([0.0]), 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p, level", [(1e-15, P_MIN), (1.0 - 1e-15, 1.0 - P_MIN)], ids=["lower", "upper"])
def test_quantile_clamp_single_value(p, level):
    # a level beyond the clamp solves at the clamp level itself
    assert _mixture_quantile(np.array([0.0]), 1.0, p) == pytest.approx(ndtri(level), abs=1e-9)


def test_quantile_symmetric_mixture():
    assert _mixture_quantile(np.array([-1.0, 1.0]), 0.5, 0.5) == pytest.approx(0.0, abs=1e-11)


def test_quantile_cdf_round_trip():
    values, sigma = np.array([0.4, -0.2, 1.1]), 0.7
    z = np.linspace(-3 * 0.7, 3 * 0.7, 25)
    back = _mixture_quantile(values, sigma, _mixture_cdf(values, sigma, z))
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
    _assert_quantile_contract(values, sigma, p)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8).map(np.array),
    sigma=st.floats(1e-6, 1e2),
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(np.array),
)
# F sees z only through z - v: this root is 19 ulps of z but 0.6 ulp of v away
@example(values=np.array([0.75]), sigma=0.1875, p=np.array([2.0**-14]))
def test_quantile_residual_contract_property(values, sigma, p):
    _assert_quantile_contract(values, sigma, p)


def _assert_quantile_contract(values, sigma, p):
    # each returned z is within a few ulps of max(|z|, max |v|) of a sign
    # change of the raw F - p, up to the rounding of F (a mean of positive
    # terms); F sees z only through z - v, so ulps of z alone are too fine
    z = _mixture_quantile(values, sigma, p)
    assert z.shape == p.shape and np.isfinite(z).all()
    target = np.clip(p, P_MIN, 1.0 - P_MIN)
    v_abs = np.abs(values).max(axis=-1)
    v_abs = v_abs.reshape(v_abs.shape + (1,) * (p.ndim - v_abs.ndim))  # row a pairs with p[a]
    step = 4.0 * np.spacing(np.maximum(np.abs(z), v_abs))
    slack = 4.0 * np.finfo(float).eps * target
    assert np.all(_mixture_cdf(values, sigma, z - step) <= target + slack)
    assert np.all(_mixture_cdf(values, sigma, z + step) >= target - slack)
    # above the median the same holds for the survival function at 1 - p,
    # which keeps the relative precision F loses near 1
    upper = target > 0.5
    level = 1.0 - target
    slack = 4.0 * np.finfo(float).eps * level
    assert np.all((_survival(values, sigma, z - step) >= level - slack)[upper])
    assert np.all((_survival(values, sigma, z + step) <= level + slack)[upper])


def _survival(values, sigma, z):
    # mean Phi((v - z) / sigma), evaluated as the CDF of -v at -z: negation is exact
    return _mixture_cdf(-values, sigma, -z)


# log-uniform tail levels in [1e-16, 1e-2], half of them mirrored to 1 - p
TAIL_LEVELS = st.tuples(st.floats(-16.0, -2.0), st.booleans()).map(
    lambda eb: 1.0 - 10.0 ** eb[0] if eb[1] else 10.0 ** eb[0]
)
# clusters of points within 1e-3 of up to three centers, separated by up to 2e6
CLUSTERS = st.tuples(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3),
    st.lists(st.floats(-1e-3, 1e-3), min_size=1, max_size=3),
).map(lambda cj: np.add.outer(cj[0], cj[1]).ravel())


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    values=st.one_of(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8).map(np.array), CLUSTERS),
    sigma=st.one_of(st.floats(1e-6, 1e2), st.floats(1e-6, 1e-3)),
    p=st.lists(TAIL_LEVELS, min_size=1, max_size=8).map(np.array),
)
def test_quantile_tail_contract_property(values, sigma, p):
    _assert_quantile_contract(values, sigma, p)


@pytest.mark.parametrize("p", [1.0 - 1e-14, 1.0 - 1e-10, 1.0 - 1e-6])
def test_quantile_upper_tail_matches_survival_root(p):
    # F rounds in steps of eps / 2 near 1, so a solve on F alone fixes this z
    # only to about 1e-3 sigma; the survival function 1 - F does not round so
    values, sigma = np.array([0.0, 0.1]), 1.0
    root = brentq(
        lambda z: ndtr((values - z) / sigma).mean() - (1.0 - p),
        0.0, 20.0, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
    )
    z = _mixture_quantile(values, sigma, p)
    assert abs(z - root) <= 4.0 * np.spacing(root)


# both clamp levels several times over, between ordinary levels
CLAMP_MIX = np.array(
    [0.0, 1e-300, P_MIN, 0.2, 1e-15, 1.0 - P_MIN, 1.0, 0.7, P_MIN, 1.0 - 1e-16, 0.5, 1.0 - P_MIN, 1e-15]
)


@pytest.mark.parametrize("layout", ["1d", "rows"])
@pytest.mark.parametrize(
    "values, sigma",
    [(np.array([0.3]), 0.7), (np.array([0.5, 0.5, 0.5, -1.0]), 0.2), (np.array([0.0, 1e6]), 1e-3)],
    ids=["single_point", "duplicates", "separated"],
)
def test_quantile_clamp_levels_match_each_entry_alone(values, sigma, layout):
    # entries of one row at one clamp level are solved once; each must still
    # carry exactly the bits of its own solve
    if layout == "1d":
        table, p = values, CLAMP_MIX
    else:
        table = np.stack([values, 2.0 - 3.0 * values])
        p = np.stack([CLAMP_MIX, CLAMP_MIX[::-1]])
    z = _mixture_quantile(table, sigma, p)
    for idx in np.ndindex(p.shape):
        alone = _mixture_quantile(table if table.ndim == 1 else table[idx[0]], sigma, np.array([p[idx]]))
        assert z[idx].tobytes() == alone.tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 1), (2, 7)], ids=str)
def test_atom_sum_ignores_trailing_zeros_and_matches_numpy_below_8(shape):
    # any block shape, including one column, which numpy would reduce pairwise
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 7, 8, 9, 17, 130):
        terms = rng.uniform(0.0, 1.0, (n,) + shape)
        want = _atom_sum(terms.copy())
        for width in (n + 1, n + 7, 2 * n + 9, 300):
            padded = np.concatenate((terms, np.zeros((width - n,) + shape)))
            assert np.asarray(_atom_sum(padded)).tobytes() == np.asarray(want).tobytes()
        if n < 8:  # numpy's last-axis sum adds fewer than 8 terms in order
            assert np.asarray(want).tobytes() == np.moveaxis(terms, 0, -1).sum(axis=-1).tobytes()


@pytest.mark.parametrize("n", [1, 3, 9, 130])
def test_padded_rows_evaluate_as_the_row_alone(n):
    # +inf atoms add exactly 0 to F and f and are not counted, in the (n,) and
    # the row-wise (A, n) layouts
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n)
    z = rng.uniform(-4.0, 4.0, (2, 6))
    for width in (n + 1, n + 8):
        padded = np.concatenate((values, np.full(width - n, np.inf)))
        for fn in (_mixture_cdf, _mixture_pdf):
            assert fn(padded, 0.4, z).tobytes() == fn(values, 0.4, z).tobytes()
            rows = np.stack((padded, np.concatenate((values[::-1], padded[n:]))))
            want = np.stack((fn(values, 0.4, z[0]), fn(values[::-1], 0.4, z[1])))
            assert fn(rows, 0.4, z).tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    values=st.one_of(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20).map(np.array), CLUSTERS),
    pad=st.integers(1, 12),
    sigma=st.one_of(st.floats(1e-6, 1e2), st.just(1e-6)),
    p=st.lists(st.one_of(st.floats(0.0, 1.0), TAIL_LEVELS), min_size=1, max_size=8).map(np.array),
)
def test_quantile_of_padded_row_is_the_row_alone(values, pad, sigma, p):
    # a row padded with +inf atoms, beside a narrower row, solves as it does alone
    padded = np.concatenate((values, np.full(pad, np.inf)))
    rows = np.stack((padded, np.concatenate((values[:1], np.full(values.size + pad - 1, np.inf)))))
    z = _mixture_quantile(rows, sigma, np.stack((p, p)))
    assert z[0].tobytes() == _mixture_quantile(values, sigma, p).tobytes()
    assert z[1].tobytes() == _mixture_quantile(values[:1], sigma, p).tobytes()


def test_transport_identity():
    values = np.array([0.1, -0.5, 2.0])
    z = np.linspace(-2, 3, 17)
    np.testing.assert_allclose(_mixture_quantile(values, 0.6, _mixture_cdf(values, 0.6, z)), z, atol=1e-9)


def test_transport_translation_equivariance():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(5)
    c = 1.3
    z = np.linspace(-2, 2, 21)
    np.testing.assert_allclose(_mixture_quantile(vals + c, 0.5, _mixture_cdf(vals, 0.5, z)), z + c, atol=1e-8)


def test_transport_gaussian_scaling():
    # single particles at 0: smoothed laws are centered Gaussians, and the
    # monotone map between centered Gaussians is multiplication by the
    # standard-deviation ratio
    s1, s2 = 0.5, 1.25
    point = np.array([0.0])
    z = np.linspace(-1.5, 1.5, 13)
    np.testing.assert_allclose(_mixture_quantile(point, s2, _mixture_cdf(point, s1, z)), z * s2 / s1, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("z", [-3.9, -4.0])
def test_transport_lower_clamp(z):
    # the source CDF at z is below P_MIN, so z maps to the target's clamp quantile
    point = np.array([0.0])
    transported = _mixture_quantile(point, 1.0, _mixture_cdf(point, 0.5, np.asarray(z)))
    assert transported == pytest.approx(ndtri(P_MIN), abs=1e-9)


def test_transport_strictly_increasing():
    rng = np.random.default_rng(2)
    src = rng.standard_normal(4)
    tgt = rng.standard_normal(6) * 2.0 + 0.3
    z = np.linspace(-2.5, 2.5, 200)
    out = _mixture_quantile(tgt, 0.4, _mixture_cdf(src, 0.4, z))
    assert np.all(np.diff(out) > 0)


def test_pushforward_property():
    rng = np.random.default_rng(3)
    src = rng.standard_normal(5)
    tgt = rng.standard_normal(7) + 1.0
    M = 256
    p = (np.arange(M) + 0.5) / M
    z = _mixture_quantile(src, 0.5, p)
    transported = _mixture_quantile(tgt, 0.5, _mixture_cdf(src, 0.5, z))
    np.testing.assert_allclose(np.sort(transported), _mixture_quantile(tgt, 0.5, p), atol=1e-8)


def _line_cloud(values):
    # a 1-d cloud: sw2 on the one line of weight 1 is the smoothed 1-d W2
    return ParticleEnsemble(np.reshape(values, (-1, 1)))


def test_sw2_1d_identical_is_zero():
    mu = _line_cloud([0.0, 1.0])
    assert sw2(mu, mu, 0.5, QUAD1, m_points=128) == pytest.approx(0.0, abs=1e-12)


def test_sw2_1d_translation():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(6)
    c = 0.9
    w = sw2(_line_cloud(vals), _line_cloud(vals + c), 0.5, QUAD1, m_points=256)
    assert w == pytest.approx(c, abs=1e-6)


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


def test_sw2_1d_converges_to_discrete_as_sigma_shrinks():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(6)
    b = rng.standard_normal(6) + 0.7
    oracle = w2_discrete(a, b)
    gaps = []
    for sigma in (0.5, 0.25, 0.125, 0.0625):
        w = sw2(_line_cloud(a), _line_cloud(b), sigma, QUAD1, m_points=1024)
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


def test_w1_empirical_gaussian_rejects_empty_sample():
    with pytest.raises(ValueError, match="at least one value"):
        w1_empirical_gaussian(np.array([]))
