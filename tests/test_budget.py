"""The chunking rule and each chunked kernel's peak under the memory budget:
max(cap, one row) x 8 bytes x the kernel's factor from mfhjb.budget."""

import tracemalloc

import numpy as np
import pytest

from mfhjb import sliced_gauge
from mfhjb.budget import CAPS, chunks
from mfhjb.control import SearchSpec, value_estimate
from mfhjb.dynamics import SimConfig
from mfhjb.measures import ParticleEnsemble, sample_iid
from mfhjb.mollify import MollifiedCoefficients, MollifierSpec
from mfhjb.scenarios import scenario
from mfhjb.sliced_gauge import (
    GaugeAnchors,
    SphereQuadrature,
    _quantile_tables,
    dmu_gauge,
    dxdmu_gauge,
    lifted_gauge_fd_gradient,
    phi_delta_derivatives,
    rho_matrix,
    sw2,
)
from mfhjb.transport1d import _SEED_GRID

# 32 and 64 directions, folded to 16 and 32 lines
QUAD32 = SphereQuadrature.equispaced_circle(32)
QUAD64 = SphereQuadrature.equispaced_circle(64)


def spans(slices):
    return [(sl.start, sl.stop) for sl in slices]


def test_chunks_rule(monkeypatch):
    monkeypatch.setitem(CAPS, "test", 10)
    assert chunks(0, 3, "test") == []
    # as many rows as fit, and one row when a row alone is over the cap
    assert spans(chunks(7, 3, "test")) == [(0, 3), (3, 6), (6, 7)]
    assert spans(chunks(3, 11, "test")) == [(0, 1), (1, 2), (2, 3)]
    assert spans(chunks(4, 0, "test")) == [(0, 4)]


def traced_peak(fn) -> int:
    fn()  # the first call fills module caches, which are not the kernel's
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def budget(cap: str, row: int, factor: float) -> float:
    return max(CAPS[cap], row) * 8 * factor


def fewest_chunks(fn) -> int:
    """The fewest slices any of sliced_gauge's budget.chunks calls cut in one
    fn() run, so that a peak test cannot silently become a one-block test."""
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sliced_gauge, "chunks", lambda *args: counts.append(len(cut := chunks(*args))) or cut)
        fn()
    return min(counts)


def test_quantile_tables_peak():
    # 24 clouds of 8 particles; as one block they would need 55 MB
    rng = np.random.default_rng(1)
    clouds = tuple(ParticleEnsemble(rng.standard_normal((8, 2))) for _ in range(24))
    run = lambda: _quantile_tables(clouds, 0.5, QUAD64, 256)
    assert fewest_chunks(run) >= 2
    peak = traced_peak(run)
    assert peak <= budget("gauge", QUAD64.count * 256 * 8, 6)


def test_rho_matrix_peak():
    # the (100, 100, 32, 48) differences alone would take 123 MB
    rng = np.random.default_rng(2)
    clouds = [ParticleEnsemble(rng.standard_normal((int(rng.integers(2, 6)), 2))) for _ in range(200)]
    times = rng.uniform(0.0, 1.0, 200)
    run = lambda: rho_matrix(times[:100], clouds[:100], times[100:], clouds[100:], 2.0, QUAD64, 48)
    assert fewest_chunks(run) >= 2
    peak = traced_peak(run)
    assert peak <= budget("gauge", 100 * QUAD64.count * 48, 6)


@pytest.mark.parametrize("op", [dmu_gauge, dxdmu_gauge])
def test_gauge_derivatives_peak(op):
    # 24 points x 16 lines x 256 nodes x 14 particles: 11 MB per temporary at once
    rng = np.random.default_rng(3)
    mu = ParticleEnsemble(rng.standard_normal((14, 2)))
    nu = ParticleEnsemble(rng.standard_normal((14, 2)) + 0.3)
    xs = rng.standard_normal((24, 2))
    run = lambda: op(mu, nu, 0.5, QUAD32, xs)
    assert fewest_chunks(run) >= 2
    peak = traced_peak(run)
    assert peak <= budget("gauge", QUAD32.count * 256 * 14, 4)


def test_phi_delta_derivatives_peak():
    rng = np.random.default_rng(4)
    mu = ParticleEnsemble(rng.standard_normal((24, 2)))
    anchors = GaugeAnchors(
        ((0.1, ParticleEnsemble(rng.standard_normal((14, 2)))), (0.4, ParticleEnsemble(rng.standard_normal((10, 2))))),
        0.5,
        QUAD32,
    )
    run = lambda: phi_delta_derivatives(anchors, 0.3, mu)
    assert fewest_chunks(run) >= 2
    peak = traced_peak(run)
    assert peak <= budget("gauge", QUAD32.count * 256 * 24, 4)


def test_lifted_fd_gradient_peak():
    # 1024 lines of 4 particles: each particle's 2048 perturbed rows as one
    # block would take 113 MB
    quad = SphereQuadrature.quasi_uniform_sphere(3, 1024)
    rng = np.random.default_rng(9)
    mu = ParticleEnsemble(rng.standard_normal((4, 3)))
    nu = ParticleEnsemble(rng.standard_normal((4, 3)) + 0.3)
    run = lambda: lifted_gauge_fd_gradient(mu, nu, 0.5, quad)
    assert fewest_chunks(run) >= 2
    peak = traced_peak(run)
    assert peak <= budget("gauge", (256 + _SEED_GRID) * max(4, CAPS["entry_state"]), 6)


def test_sw2_one_cloud_over_the_cap_peak():
    # 1024 lines of 4 particles: each cloud's rows alone are over the cap, and
    # with a block per cloud sw2 would peak at 54 MB
    quad = SphereQuadrature.quasi_uniform_sphere(3, 1024)
    rng = np.random.default_rng(10)
    mu = ParticleEnsemble(rng.standard_normal((4, 3)))
    nu = ParticleEnsemble(rng.standard_normal((4, 3)) + 0.3)
    # sw2's one sliced gap is a single row, so the chunk count is the tables'
    assert fewest_chunks(lambda: _quantile_tables((mu, nu), 0.5, quad, 256)) >= 2
    peak = traced_peak(lambda: sw2(mu, nu, 0.5, quad))
    assert peak <= budget("gauge", (256 + _SEED_GRID) * max(4, CAPS["entry_state"]), 6)


def test_monte_carlo_pass_peak():
    # c12's shape: one path of 4 policies x 2048 particles x 2 is the cap
    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    init = sample_iid({"kind": "gaussian", "std": 0.5}, 2048, 2, seed=5)
    cfg = SimConfig(n=2048, steps=10, t0=0.0, t1=1.0, seed=6)
    peak = traced_peak(lambda: value_estimate(lq, init, cfg, SearchSpec(), paths=3))
    assert peak <= budget("monte_carlo", 4 * 2048 * 2, 10)


def test_mollified_coefficient_peak():
    # 64 offsets of a (16, 4, 48, 2) state: 3 MB per temporary at once
    lq = scenario("lq_drift", {"d": 2, "p": [1.0, -0.5]})
    mol = MollifiedCoefficients(lq, MollifierSpec(m=4, offsets=64, seed=7), 48)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((16, 4, 48, 2))
    a = rng.uniform(-1.0, 1.0, x.shape)
    peak = traced_peak(lambda: mol.drift(0.3, x, x, a))
    assert peak <= budget("mollifier", 64 * 4 * 48 * 2, 8)
