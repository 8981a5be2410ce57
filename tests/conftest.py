import numpy as np
import pytest

from mfhjb import sliced_gauge, transport1d


class TableSolves:
    """The row blocks handed to sliced_gauge._stratified_quantiles, one per call."""

    def __init__(self, monkeypatch):
        self.blocks = []
        solve = sliced_gauge._stratified_quantiles

        def counted(rows, *args):
            self.blocks.append(rows.copy())
            return solve(rows, *args)

        monkeypatch.setattr(sliced_gauge, "_stratified_quantiles", counted)

    def assert_one_block_per_particle_count(self, clouds, quad):
        """One call per particle count of the distinct cloud objects, and each
        distinct cloud's projected rows solved exactly once."""
        distinct = {id(c): c for c in clouds}.values()
        assert sorted(b.shape[1] for b in self.blocks) == sorted({c.n for c in distinct})
        got = sorted(row.tobytes() for b in self.blocks for row in b)
        want = sorted(row.tobytes() for c in distinct for row in (c.points @ quad.nodes.T).T)
        assert got == want


@pytest.fixture
def table_solves(monkeypatch):
    return TableSolves(monkeypatch)


class CdfPasses:
    """Passes of transport1d._mixture_cdf and the atoms (points x particles) they evaluate."""

    def __init__(self, monkeypatch):
        self.passes = self.atoms = 0
        cdf = transport1d._mixture_cdf

        def counted(values, sigma, z):
            self.passes += 1
            self.atoms += np.size(z) * np.shape(values)[-1]
            return cdf(values, sigma, z)

        monkeypatch.setattr(transport1d, "_mixture_cdf", counted)

    def reset(self):
        self.passes = self.atoms = 0


@pytest.fixture
def cdf_passes(monkeypatch):
    return CdfPasses(monkeypatch)
