import pytest

from mfhjb import sliced_gauge


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
