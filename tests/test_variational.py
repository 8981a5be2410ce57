import tracemalloc

import numpy as np
import pytest

from mfhjb.measures import ParticleEnsemble
from mfhjb.sliced_gauge import SphereQuadrature, phi_delta, phi_delta_derivative_bounds, rho
from mfhjb.variational import CandidateSet, _pairwise_rho, borwein_preiss

QUAD1 = SphereQuadrature.two_point_1d()
QUAD2 = SphereQuadrature.equispaced_circle(16)


def random_candidates(rng, size, d=1, g_values=None):
    times = rng.uniform(0.0, 1.0, size)
    ensembles = tuple(
        ParticleEnsemble(rng.standard_normal((int(rng.integers(2, 6)), d))) for _ in range(size)
    )
    if g_values is None:
        g_values = rng.uniform(0.0, 1.0, size)
    return times, ensembles, np.asarray(g_values, dtype=float)


def make_candidates(rng, size, d=1, lam=0.5, delta=0.3, g_values=None, start=None):
    times, ensembles, g_values = random_candidates(rng, size, d, g_values)
    if start is None:
        start = int(np.argmax(g_values))
    return CandidateSet(times, ensembles, g_values, lam=lam, delta=delta, start=start)


def test_three_candidates_returns_argmax():
    rng = np.random.default_rng(0)
    cands = make_candidates(rng, 3, g_values=[1.0, 0.9, 0.0], lam=0.2, delta=0.1, start=0)
    res = borwein_preiss(cands, QUAD1)
    assert res.tilde_index == 0
    assert res.certificate["complete"]
    assert res.certificate["item1_ok"]
    assert res.certificate["item2_ok"]
    assert res.certificate["item3_ok"]


def test_single_candidate_equality_in_item2():
    rng = np.random.default_rng(1)
    cands = make_candidates(rng, 1, g_values=[0.7], lam=0.3, delta=0.2, start=0)
    res = borwein_preiss(cands, QUAD1)
    assert res.tilde_index == 0
    assert res.certificate["phi_tilde"] == 0.0
    assert res.certificate["item2_margin"] == 0.0
    assert res.certificate["item3_ok"]  # vacuous


def test_constant_g_returns_start_point():
    rng = np.random.default_rng(2)
    cands = make_candidates(rng, 2, g_values=[0.5, 0.5], lam=0.4, delta=0.25, start=0)
    res = borwein_preiss(cands, QUAD1)
    # the accumulated penalty is zero only at the start point, so strict
    # maximality forces returning it after one iteration
    assert res.tilde_index == 0
    assert len(res.anchor_indices) == 1
    assert res.certificate["item3_ok"]


def test_start_hypothesis_enforced():
    # an explicit inadmissible start raises when the set is built
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="near-maximality hypothesis"):
        make_candidates(rng, 3, g_values=[1.0, 0.0, 0.0], lam=0.2, start=1)


def test_default_start_is_lowest_scoring_admissible():
    # candidate 0 is not admissible (0.1 < 1.0 - 0.5); of the admissible
    # 0.9, 0.6, 1.0 and 0.6 the lowest is 0.6, first at index 2
    rng = np.random.default_rng(11)
    times, clouds, g = random_candidates(rng, 5, g_values=[0.1, 0.9, 0.6, 1.0, 0.6])
    cands = CandidateSet(times, clouds, g, lam=0.5, delta=0.3)
    assert cands.start == 2
    res = borwein_preiss(cands, QUAD1)
    cert = res.certificate
    assert cert["complete"] and cert["item1_ok"] and cert["item2_ok"] and cert["item3_ok"]
    assert res.anchor_indices[0] == 2
    # 12 random 2-d candidates whose candidate 0 is not admissible either
    times, clouds, g = random_candidates(np.random.default_rng(4), 12, d=2)
    assert g[0] < g.max() - 0.5
    cands = CandidateSet(times, clouds, g, lam=0.5, delta=0.3)
    admissible = g >= g.max() - 0.5
    assert admissible[cands.start] and g[cands.start] == g[admissible].min()
    res = borwein_preiss(cands, QUAD2)
    cert = res.certificate
    assert cert["complete"] and cert["item1_ok"] and cert["item2_ok"] and cert["item3_ok"]
    tilde = res.tilde_index
    assert phi_delta(res.anchors, float(times[tilde]), clouds[tilde]) == cert["phi_tilde"]


def test_certificate_phi_matches_module_phi():
    # phi_delta and the certificate share one rho kernel and one series sum,
    # and the anchors carry the selection's direction rule and levels, so
    # phi_delta at the selected point is phi_tilde bit for bit
    rng = np.random.default_rng(4)
    cands = make_candidates(rng, 6, lam=0.5, delta=0.4)
    res = borwein_preiss(cands, QUAD1, m_points=64)
    t_tilde = cands.times[res.tilde_index]
    mu_tilde = cands.ensembles[res.tilde_index]
    direct = phi_delta(res.anchors, float(t_tilde), mu_tilde)
    assert res.certificate["phi_tilde"] == direct
    # d = 2, where the parent's two implementations differed in the last bit
    # on seeds 27, 149 and 154
    for seed in (0, 1, 2, 27, 149, 154):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 30))
        times = rng.uniform(0.0, 1.0, size)
        clouds = tuple(ParticleEnsemble(rng.standard_normal((int(rng.integers(2, 6)), 2))) for _ in range(size))
        g = rng.uniform(0.0, 1.0, size)
        start = int(rng.integers(size))
        cands = CandidateSet(times, clouds, g, lam=g.max() - g[start] + 0.05,
                             delta=float(rng.uniform(0.1, 0.6)), start=start)
        res = borwein_preiss(cands, QUAD2, m_points=48)
        tilde = res.tilde_index
        direct = phi_delta(res.anchors, float(times[tilde]), clouds[tilde])
        assert direct == res.certificate["phi_tilde"], seed


def test_rho_equals_pairwise_rho_bitwise():
    # the pairwise matrix is batch invariant: each entry is rho on its pair alone
    rng = np.random.default_rng(7)
    for _ in range(30):
        times = rng.uniform(0.0, 1.0, 6)
        clouds = tuple(ParticleEnsemble(rng.standard_normal((int(rng.integers(2, 6)), 2))) for _ in range(6))
        cands = CandidateSet(times, clouds, np.zeros(6), lam=1.0, delta=0.3)
        mat = _pairwise_rho(cands, QUAD2, 48)
        assert np.all(np.diag(mat) == 0.0)
        for a in range(6):
            for b in range(6):
                assert rho(times[a], clouds[a], times[b], clouds[b], 1.0 / 0.3, QUAD2, 48) == mat[a, b]


def test_pairwise_rho_memory_is_chunked():
    # the (L, L, directions, levels) differences of 100 candidates would take
    # 250 MB at once
    rng = np.random.default_rng(10)
    cands = make_candidates(rng, 100, d=2)
    quad = SphereQuadrature.equispaced_circle(64)
    tracemalloc.start()
    try:
        _pairwise_rho(cands, quad, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_pairwise_rho_one_table_per_distinct_cloud(table_solves):
    rng = np.random.default_rng(8)
    cands = make_candidates(rng, 5)
    shared = cands.ensembles[0]
    cands = CandidateSet(cands.times, (shared,) + cands.ensembles[1:4] + (shared,),
                         cands.g_values, cands.lam, cands.delta, cands.start)
    _pairwise_rho(cands, QUAD1, 48)
    # four distinct clouds of three particle counts: one padded block
    assert len(table_solves.blocks) == 1
    table_solves.assert_one_block_per_chunk(cands.ensembles, QUAD1)


def test_implied_lambda_one_table_per_distinct_anchor(table_solves):
    # a constant score makes the start point the only anchor, padded to k_max + 1
    rng = np.random.default_rng(9)
    cands = make_candidates(rng, 4, g_values=[0.5] * 4, lam=0.4, delta=0.25, start=0)
    res = borwein_preiss(cands, QUAD1, m_points=48)
    assert len(res.anchors.anchors) == 41 and len(res.anchor_indices) == 1
    table_solves.blocks.clear()  # count only the implied budget's tables
    rec = phi_delta_derivative_bounds(res.anchors, 0.5, cands.ensembles[1], horizon=1.0, noise_nodes=16)
    assert len(table_solves.blocks) == 1
    table_solves.assert_one_block_per_chunk([muk for _, muk in res.anchors.anchors], QUAD1)
    assert rec["lam"] == 0.0


def test_s_trace_non_increasing():
    rng = np.random.default_rng(5)
    for seed in range(10):
        cands = make_candidates(np.random.default_rng(seed), int(rng.integers(2, 12)))
        res = borwein_preiss(cands, QUAD1)
        trace = np.array(res.s_trace)
        assert np.all(np.diff(trace) <= 1e-12)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
def test_randomized_certificates_all_pass(lam):
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        size = int(rng.integers(2, 51))
        cands = make_candidates(rng, size, lam=lam, delta=float(rng.uniform(0.1, 0.6)))
        res = borwein_preiss(cands, QUAD1, m_points=48)
        cert = res.certificate
        assert cert["complete"]
        assert cert["item1_ok"] and cert["item2_ok"] and cert["item3_ok"], (seed, cert)


def test_randomized_certificates_d2():
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        size = int(rng.integers(2, 15))
        cands = make_candidates(rng, size, d=2, lam=0.5, delta=0.3)
        res = borwein_preiss(cands, QUAD2, m_points=48)
        cert = res.certificate
        assert cert["item1_ok"] and cert["item2_ok"] and cert["item3_ok"], (seed, cert)


def test_candidate_set_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        CandidateSet(np.array([0.0]), (), np.array([0.0]), lam=1.0, delta=0.1)
    with pytest.raises(ValueError, match="nonzero lengths"):
        CandidateSet(np.array([]), (), np.array([]), lam=1.0, delta=0.1)
    with pytest.raises(ValueError):
        make_candidates(rng, 3, lam=-1.0)
    with pytest.raises(ValueError):
        make_candidates(rng, 3, g_values=[np.inf, 0, 0])
