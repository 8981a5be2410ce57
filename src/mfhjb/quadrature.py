"""Quadrature helpers: Gauss-Hermite rules for Gaussian integrals and seeded
quasi-random sequences for direction sampling and kernel offsets."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["gauss_hermite_normal", "quasi_uniform", "quasi_normal"]


@lru_cache(maxsize=32)
def gauss_hermite_normal(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights so that E[f(Z)] ~ sum_i w_i f(x_i) for Z ~ N(0, 1).

    numpy's hermgauss weight computation overflows somewhere above 300 nodes,
    so the count is capped to keep failures loud.
    """
    if not (1 <= k <= 320):
        raise ValueError("node count must be between 1 and 320")
    x, w = np.polynomial.hermite.hermgauss(k)
    nodes = np.sqrt(2.0) * x
    weights = w / np.sqrt(np.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def quasi_uniform(count: int, dim: int, seed: int) -> np.ndarray:
    """Scrambled Sobol points in (0, 1)^dim, clipped away from the boundary."""
    from scipy.stats import qmc  # about half a second to import, so only when a rule is drawn

    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    pts = eng.random(count)
    return np.clip(pts, 1e-12, 1.0 - 1e-12)


def quasi_normal(count: int, dim: int, seed: int) -> np.ndarray:
    """Standard normal quasi-random points (inverse-CDF of a Sobol stream)."""
    from scipy.special import ndtri

    return ndtri(quasi_uniform(count, dim, seed))
