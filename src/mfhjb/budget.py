"""One memory budget for the chunked kernels: ``chunks`` cuts a batch axis into
slices of at least one row whose rows cost at most a cap of ``CAPS``, in
float64 numbers.  The kernels are batch invariant, so chunking never changes a
bit.  A kernel's tracemalloc peak stays under max(cap, one row) x 8 bytes x its
factor: 6 for quantile tables and rho_matrix, 4 for dmu_gauge, dxdmu_gauge and
phi_delta_derivatives, 10 for a Monte Carlo pass, 8 for a mollified coefficient.
"""

#: Numbers one chunk may hold, each with its reason.
CAPS = {
    # quantile blocks, sliced gaps and gauge derivatives: temporaries near 8 MB each
    "gauge": 2**20,
    # the quantile solve's state per entry besides its atoms: a row is charged at least this wide
    "entry_state": 8,
    # paths x clouds x policies x n x d: larger passes ran no faster and raised peak memory
    "monte_carlo": 2**14,
    # offsets x batch x n x d, a cache choice: past about 2**17 each offset costs several times more
    "mollifier": 2**16,
}


def chunks(count: int, cost: int, cap: str) -> list:
    """Consecutive slices of range(count), each of at least one row, whose rows
    cost at most CAPS[cap] numbers at ``cost`` numbers per row."""
    step = max(1, CAPS[cap] // max(cost, 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]
