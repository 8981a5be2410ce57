"""One-dimensional Gaussian-smoothed transport.

A projected ensemble convolved with a centered Gaussian of standard deviation
sigma has the strictly increasing, smooth CDF

    F(z) = (1/n) sum_i Phi((z - v_i) / sigma),

so the monotone (optimal) map from one smoothed projection to another is the
classical quantile composition  T(z) = F_target^{-1}(F_source(z)).  The
squared Wasserstein-2 distance between two smoothed projections is, for the
monotone coupling, an integral over probability levels, which
``sliced_gauge.sw2`` (in d = 1, one line of weight 1) evaluates by a
uniform-weight midpoint rule over stratified quantiles:

    W2^2 = integral |z - T(z)|^2 dF_source(z)
         = integral_0^1 |F_source^{-1}(p) - F_target^{-1}(p)|^2 dp.

Quantiles come from one safeguarded Newton solve, against the CDF below the
median and against the survival function 1 - F above it, with steps taken
in the Gaussian-quantile frame Phi^{-1}(F) deep in either tail (see
``_mixture_quantile`` for its residual contract).  Each entry starts inside
one cell of a fixed 17-point grid on which its row's F and F' were evaluated
once, from the cubic Hermite interpolant of z against Phi^{-1}(F) there, and
each Newton pass evaluates F and F' from one (z - v) / sigma buffer.
Probability levels are clamped to [P_MIN, 1 - P_MIN] before the solve: the
inverse map grows like exp(z^2 / (4 sigma^2)) in the tails, and the clamp
keeps quantile evaluations bounded at an error far below quadrature noise.

The evaluators treat a +inf value as an absent atom (it adds exactly 0 to F
and to its density and is not counted), and sum over atoms in a fixed order
that trailing zero terms do not change, so a row padded with +inf solves to
the bits of the same cloud alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "P_MIN",
    "w2_discrete",
    "w1_empirical_gaussian",
]

P_MIN = 1e-14


def _aligned_arg(values: np.ndarray, sigma: float, z: np.ndarray) -> np.ndarray:
    # values (n,) pairs with z of any shape; values (A, n) pairs row-wise with
    # z of shape (A, ...), evaluating row a against values[a].  The result is
    # one (n,) + z.shape buffer, atoms leading, that _atom_sum sums in place.
    v = values.T.reshape(values.shape[::-1] + (1,) * (z.ndim - values.ndim + 1))
    arg = np.subtract(z, v, out=np.empty(v.shape[:1] + z.shape))
    arg /= sigma
    return arg


def _atom_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading atom axis, in place: each run of 8 atoms is added
    in order, starting from 0 as numpy's last-axis sum does below 8 terms, and
    the run sums pairwise at power-of-two strides.  So zero terms after a row's
    last atom change no bit, and the rounding grows like log n, not n."""
    runs = terms[::8]
    runs += 0.0
    for j in range(1, min(8, len(terms))):
        later = terms[j::8]
        runs[: len(later)] += later
    m = len(runs)
    while m > 1:
        h = 1 << (m - 1).bit_length() - 1
        runs[: m - h] += runs[h:m]
        m = h
    return runs[0]


def _finite_count(values: np.ndarray, ndim: int):
    """Each row's count of finite values, shaped to divide a sum over atoms of
    ndim dimensions, or n itself when no row ends in a +inf pad."""
    if not np.isinf(values[..., -1]).any():
        return values.shape[-1]
    count = np.isfinite(values).sum(axis=-1)
    return count.reshape(count.shape + (1,) * (ndim - count.ndim))


def _mixture_cdf(values: np.ndarray, sigma: float, z: np.ndarray, density: bool = False, count=None):
    """Raw (unclamped) CDF of the Gaussian-smoothed point cloud, vectorized over z.

    With density=True, returns (F, F') from one (z - v) / sigma buffer.  A +inf
    value is an absent atom: it adds a zero term and is not counted.  count,
    the finite atoms per row shaped to divide a result (``_finite_count``), may
    be passed by a caller that evaluates the same rows again."""
    arg = _aligned_arg(values, sigma, z)
    if count is None:
        count = _finite_count(values, arg.ndim - 1)
    if not density:
        return _atom_sum(ndtr(arg, out=arg)) / count
    return _atom_sum(ndtr(arg)) / count, _density(arg, count, sigma)


def _mixture_pdf(values: np.ndarray, sigma: float, z: np.ndarray) -> np.ndarray:
    arg = _aligned_arg(values, sigma, z)
    return _density(arg, _finite_count(values, arg.ndim - 1), sigma)


def _density(arg: np.ndarray, count, sigma: float) -> np.ndarray:
    """The mixture density from an _aligned_arg buffer, which it overwrites."""
    arg *= arg
    arg *= -0.5
    return _atom_sum(np.exp(arg, out=arg)) / count / (sigma * np.sqrt(2.0 * np.pi))


_EPS = np.finfo(float).eps
_TAIL = 1e-3  # levels below this take Gaussian-frame steps while |F - p| > _TAIL p
_SEED_CELLS = 16  # grid cells per signed row, a power of two for the bisection: K = 17 points
_SEED_GRID = 2 * (_SEED_CELLS + 1)  # grid points per row of values, both signs
_SEED_T = np.arange(_SEED_CELLS + 1) / _SEED_CELLS
_Q_MIN = ndtri(1.0 - (1.0 - P_MIN))  # the mirrored upper clamp, just below P_MIN


def _seed(signed, count, lows, highs, sigma, srow, level):
    """Bracket (lo, hi) and seed z of each entry from its signed row's F and
    F' on a fixed grid.

    Each row's grid holds K points evenly over [min v + sigma Phi^{-1}(P'),
    max v], P' = 1 - (1 - P_MIN) the smallest level a solve meets: every
    term of F is <= P' at the first point and >= 1/2 at the last, so the
    grid brackets every level in [P', 1/2].  A bisection finds the cell
    whose computed F lies below p' at its left end (the first point needs
    no test) and at or above p' at its right end; the seed is the cubic
    Hermite interpolant of z against w = Phi^{-1}(F) on that cell, with
    dz/dw = phi(w) / F', at w = Phi^{-1}(p'), clipped to the cell, or the
    cell's midpoint where F is flat or F' underflows."""
    bottom = lows + sigma * _Q_MIN
    grid = bottom[:, None] + (highs - bottom)[:, None] * _SEED_T
    grid[:, -1] = highs
    cdf, dens = _mixture_cdf(signed.T, sigma, grid, density=True, count=count)
    at = srow * (_SEED_CELLS + 1)  # each entry's first grid point, then its cell's left end
    step = _SEED_CELLS // 2
    while step:
        np.add(at, step, out=at, where=cdf.ravel().take(at + step) < level)
        step //= 2
    lo, hi = grid.ravel().take(at), grid.ravel().take(at + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = ndtri(cdf)
        slope = np.exp(-0.5 * w * w) / (np.sqrt(2.0 * np.pi) * dens)  # dz/dw
        width = w[:, 1:] - w[:, :-1]
        secant = (grid[:, 1:] - grid[:, :-1]) / width
        m0, m1 = slope[:, :-1], slope[:, 1:]
        c2 = (3.0 * secant - 2.0 * m0 - m1) / width
        c3 = (m0 + m1 - 2.0 * secant) / (width * width)
        # per cell, in s = Phi^{-1}(p') - w_left: z = ((c3 s + c2) s + m0) s + z_left
        coef = np.stack((w[:, :-1], c3, c2, m0, grid[:, :-1]))
        flat = ~(np.isfinite(c2) & np.isfinite(c3))  # F flat or F' underflowed: the midpoint
        coef[:4, flat] = 0.0
        coef[4, flat] = 0.5 * (grid[:, :-1] + grid[:, 1:])[flat]
        c = coef.reshape(5, -1).take(at - srow, axis=1)  # cell r * cells + a of grid point r * K + a
        s = ndtri(level) - c[0]
        z = c[1] * s
        z += c[2]
        z *= s
        z += c[3]
        z *= s
        z += c[4]
    return lo, hi, np.fmin(np.fmax(z, lo), hi)


def _mixture_quantile(values: np.ndarray, sigma: float, p: np.ndarray) -> np.ndarray:
    """Solve F(z) = p for the mixture CDF F by safeguarded Newton.

    p is first clamped to [P_MIN, 1 - P_MIN].  An entry with p > 1/2 solves
    the mirrored problem, values -v at level 1 - p (exact for p >= 1/2), and
    returns the negated root: the upper tail is solved against the survival
    function 1 - F, so every solve runs at a level p' <= 1/2.  F and F' of
    each signed row (v or -v) are evaluated in one pass on a grid of 17
    points evenly over [min v + sigma Phi^{-1}(P'), max v], with
    P' = 1 - (1 - P_MIN) <= p', which brackets every level p': an entry's
    bracket is the grid cell where the computed F crosses p', and its seed
    the cubic Hermite interpolant of z against Phi^{-1}(F) on that cell (see
    ``_seed``).  Each Newton pass is one evaluation of F and F' together
    and moves one bracket end to z.  With q = Phi^{-1}(p'), while p' < 1e-3
    and |F(z) - p'| > 1e-3 p', the step is Newton's on Phi^{-1}(F(z)) - q,
    which is linear in z for one point, so deep-tail entries do not crawl
    at sigma / |q| per step; otherwise it is Newton's on F(z) - p'.  A step that does not land strictly inside the
    bracket is replaced by its midpoint.  Only entries still running are
    evaluated, and entries of one row at the same clamp level are solved
    once.  The seed reads only the entry's row, sigma and level.

    A row may end in +inf values, absent atoms: F, F', the grid and the
    bracket see only the row's finite values, and the entry gets the bits it
    would get from those values alone.

    Contract: an entry stops at the first z with

        |F(z) - p'| <= F'(z) ulp(z) + eps p',

    the change one ulp of z makes in F plus one rounding of F, or once no
    double lies strictly inside its bracket.  Either way the returned z is
    within a few ulps of max(|z|, max |v|) of a sign change of the computed
    F(z) - p (of 1 - F(z) - (1 - p) above the median): F sees z only through
    z - v_i, so near a root much smaller than the values, ulps of z alone do
    not move F.  Both tails are solved to that relative accuracy.
    """
    p = np.clip(np.asarray(p, dtype=float), P_MIN, 1.0 - P_MIN)
    shape = p.shape
    p = p.ravel()
    table = np.atleast_2d(values)  # one row for (n,) values, else row a pairs with p[a]
    rows = table.shape[0]
    upper = p > 0.5
    # bracket ends of the finite atoms only; +inf pads are not counted
    present = np.isfinite(table)
    low, high = table.min(axis=-1), np.where(present, table, -np.inf).max(axis=-1)
    # column rows + a holds -v of row a, pads kept at +inf; srow is the column an
    # entry solves against, gathered atoms-leading for the CDF passes
    signed = np.concatenate((table, np.where(present, -table, table))).T.copy()
    count = _finite_count(signed.T, 2)  # n, or each signed row's count of finite values
    lows, highs = np.concatenate((low, -high)), np.concatenate((high, -low))
    srow = np.arange(p.size) // (p.size // rows) + rows * upper
    level = np.where(upper, 1.0 - p, p)
    copied = (p == P_MIN) | (p == 1.0 - P_MIN)
    source = None
    if copied.any():  # entries of one row at one clamp level are solved once
        at = np.flatnonzero(copied)
        solver = np.empty(2 * rows, dtype=np.intp)
        solver[srow[at]] = at  # any one entry per key: they all solve the same problem
        source = solver[srow[at]]
        copied[source] = False
    todo = np.flatnonzero(~copied)
    srow, level = srow[todo], level[todo]
    has_tail = (level < _TAIL).any()
    lo, hi, z = _seed(signed, count, lows, highs, sigma, srow, level)
    v = None
    while todo.size:  # a finished entry's root overwrites its clipped level in p
        if v is None:  # the running entries' atoms and counts, gathered when the set shrinks
            v = np.take(signed, srow, axis=1).T
            finite = count if np.ndim(count) == 0 else count[srow, 0]
        cdf, dens = _mixture_cdf(v, sigma, z, density=True, count=finite)
        f = cdf - level
        lo = np.where(f < 0.0, z, lo)
        hi = np.where(f > 0.0, z, hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z_next = z - f / dens
            if has_tail:  # Newton on Phi^{-1}(F) - Phi^{-1}(p'); F >= p' / n inside the bracket
                far = np.flatnonzero((level < _TAIL) & (np.abs(f) > _TAIL * level))
                w = ndtri(cdf[far])
                slope = dens[far] * np.sqrt(2.0 * np.pi) * np.exp(0.5 * w * w)  # d Phi^{-1}(F) / dz
                z_next[far] = z[far] - (w - ndtri(level[far])) / slope
        z_next = np.where((lo < z_next) & (z_next < hi), z_next, 0.5 * (lo + hi))
        # NaN residuals compare False, so they stop too
        tol = dens * np.spacing(np.abs(z)) + _EPS * level
        going = (np.abs(f) > tol) & (lo < z_next) & (z_next < hi)
        if going.all():
            z = z_next
            continue
        p[todo[~going]] = z[~going]
        todo, srow, level = todo[going], srow[going], level[going]
        has_tail = has_tail and (level < _TAIL).any()
        lo, hi, z = lo[going], hi[going], z_next[going]
        v = None
    if source is not None:
        p[at] = p[source]
    return np.where(upper, -p, p).reshape(shape)


def w2_discrete(a, b) -> float:
    """Exact W2 between two equal-size discrete uniform clouds on R.

    The optimal coupling in one dimension pairs sorted order statistics.
    Uses exact (fsum) accumulation so the value is independent of input order.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)) / n)


def w1_empirical_gaussian(values, mean: float = 0.0, std: float = 1.0) -> float:
    """Exact W1 between an empirical measure on R and N(mean, std^2).

    W1 equals the area between the empirical and Gaussian CDFs.  On each
    interval between consecutive order statistics the empirical CDF is the
    constant c = i/n, and with G(z) = z Phi(z) + phi(z) the antiderivative of
    Phi, each piece of integral |c - Phi| has a closed form (split at the
    crossing point Phi^{-1}(c) when it falls inside the interval).
    """
    x = np.sort(np.asarray(values, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("W1 needs at least one value")
    z = (x - mean) / std

    def anti(t):
        # integral of Phi from -inf up to t, i.e. t*Phi(t) + phi(t)
        return t * ndtr(t) + np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)

    total = float(anti(z[0]))  # left tail: integral of |0 - Phi| = integral of Phi
    # right tail: integral of (1 - Phi) from z_n to +inf equals phi(z) - z(1-Phi(z))
    zn = z[-1]
    total += float(np.exp(-0.5 * zn * zn) / np.sqrt(2.0 * np.pi) - zn * (1.0 - ndtr(zn)))
    if n > 1:
        c = np.arange(1, n) / n
        a, b = z[:-1], z[1:]
        cross = np.clip(ndtri(c), a, b)  # crossing point of Phi with level c, clamped
        # integral over [a, b] of |c - Phi| = (c - Phi piece below cross) + (piece above)
        below = c * (cross - a) - (anti(cross) - anti(a))
        above = (anti(b) - anti(cross)) - c * (b - cross)
        total += float(np.sum(below + above))
    return float(std * total)
