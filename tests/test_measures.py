import numpy as np
import pytest

from mfhjb.measures import ParticleEnsemble, sample_iid, translate


def test_second_moment_values():
    assert ParticleEnsemble(np.zeros((1, 1))).second_moment() == 0.0
    assert ParticleEnsemble(np.array([[3.0, 4.0]])).second_moment() == 25.0
    assert ParticleEnsemble(np.array([[1.0, 0.0], [0.0, 1.0]])).second_moment() == 1.0


def test_translate_identity_and_inverse():
    rng = np.random.default_rng(2)
    ens = ParticleEnsemble(rng.standard_normal((5, 3)))
    same = translate(ens, np.zeros(3))
    np.testing.assert_array_equal(same.points, ens.points)
    w = rng.standard_normal(3)
    back = translate(translate(ens, w), -w)
    np.testing.assert_allclose(back.points, ens.points, atol=1e-12)


def test_translate_point_mass_second_moment():
    ens = ParticleEnsemble(np.zeros((1, 3)))
    w = np.array([1.0, 2.0, 2.0])
    assert translate(ens, w).second_moment() == pytest.approx(9.0, rel=1e-15)


def test_translate_preserves_pairwise_differences_exactly():
    # integer-valued points and shift stay exact in floating point
    pts = np.array([[0.0, 1.0], [2.0, -3.0], [5.0, 4.0]])
    ens = ParticleEnsemble(pts)
    out = translate(ens, np.array([7.0, -2.0]))
    diff_before = pts[:, None, :] - pts[None, :, :]
    diff_after = out.points[:, None, :] - out.points[None, :, :]
    np.testing.assert_array_equal(diff_before, diff_after)


def test_second_moment_translate_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ens = ParticleEnsemble(rng.standard_normal((8, 2)))
        w = rng.standard_normal(2)
        lhs = translate(ens, w).second_moment()
        rhs = ens.second_moment() + 2.0 * w @ ens.mean() + w @ w
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_invalid_ensembles_rejected():
    with pytest.raises(ValueError):
        ParticleEnsemble(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        ParticleEnsemble(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros((0, 2)))


def test_ensemble_immutable():
    ens = ParticleEnsemble(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ens.points[0, 0] = 1.0


def test_sample_point_mass():
    ens = sample_iid({"kind": "point_mass", "center": [1.5, -2.0]}, 10, 2, seed=0)
    np.testing.assert_array_equal(ens.points, np.tile([1.5, -2.0], (10, 1)))


def test_sample_gaussian_clt_bound():
    n = 10_000
    ens = sample_iid({"kind": "gaussian", "mean": 0.0, "std": 1.0}, n, 3, seed=42)
    assert np.all(np.abs(ens.points.mean(axis=0)) < 4.0 / np.sqrt(n))


def test_sample_deterministic():
    a = sample_iid({"kind": "uniform_box", "lo": -1, "hi": 1}, 50, 2, seed=7)
    b = sample_iid({"kind": "uniform_box", "lo": -1, "hi": 1}, 50, 2, seed=7)
    np.testing.assert_array_equal(a.points, b.points)


def test_sample_mixture_and_unknown_kind():
    spec = {
        "kind": "mixture",
        "components": [
            {"kind": "point_mass", "center": [0.0], "weight": 0.5},
            {"kind": "point_mass", "center": [10.0], "weight": 0.5},
        ],
    }
    ens = sample_iid(spec, 200, 1, seed=1)
    vals = set(np.unique(ens.points))
    assert vals == {0.0, 10.0}
    with pytest.raises(ValueError):
        sample_iid({"kind": "nope"}, 2, 1, seed=0)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "gaussian", "sd": 3.0},
        {"kind": "gaussian", "cov": 2.0},
        {"kind": "point_mass", "centre": 1.0},
        {"kind": "uniform_box", "low": 0.0},
        {"kind": "mixture", "components": [{"kind": "point_mass"}], "weights": [1.0]},
        # a component of weight 0 is never picked, and is checked all the same
        {"kind": "mixture", "components": [
            {"kind": "point_mass"}, {"kind": "point_mass", "weight": 0.0, "centre": 1.0}]},
    ],
    ids=["gaussian-sd", "gaussian-cov", "point-mass-centre", "uniform-box-low", "mixture-weights",
         "mixture-unpicked-component"],
)
def test_unknown_spec_key_rejected(spec):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        sample_iid(spec, 1, 2, seed=0)


@pytest.mark.parametrize(
    "spec",
    [
        [1],
        {"kind": "mixture", "components": [1]},
        {"kind": "mixture", "components": [{"kind": "point_mass"}, "gaussian"]},
        {"kind": "mixture", "components": []},
        {"kind": "mixture", "components": {"kind": "point_mass"}},
        {"kind": "mixture", "components": [{"kind": "point_mass", "weight": -1.0}, {"kind": "gaussian"}]},
        {"kind": "mixture", "components": [{"kind": "point_mass", "weight": float("nan")}]},
        {"kind": "mixture", "components": [{"kind": "point_mass", "weight": float("inf")}]},
        {"kind": "mixture", "components": [
            {"kind": "point_mass", "weight": 0.0}, {"kind": "gaussian", "weight": 0}]},
        {"kind": "mixture", "components": [
            {"kind": "point_mass", "weight": 1e308}, {"kind": "gaussian", "weight": 1e308}]},
    ],
    ids=["spec-not-object", "component-not-object", "second-component-not-object", "no-components",
         "components-not-a-list", "negative-weight", "nan-weight", "infinite-weight", "zero-weights",
         "weight-sum-overflows"],
)
def test_malformed_spec_raises_value_error(spec):
    # a ValueError, which the CLI reports as one error line, before any draw
    with pytest.raises(ValueError):
        sample_iid(spec, 4, 2, seed=0)
