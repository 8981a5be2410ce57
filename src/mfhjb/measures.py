"""Empirical probability measures on R^d as equal-weight particle clouds.

A measure with finite second moment is represented by n points with implicit
weights 1/n.  Conditional laws arising from a shared noise path are handled
the same way: the cloud of all particles within one realization *is* the
conditional law.  All operations are pure; ensembles are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ParticleEnsemble", "translate", "sample_iid"]


@dataclass(frozen=True)
class ParticleEnsemble:
    """n points in R^d with equal weights 1/n.

    The backing array is made read-only so ensembles can be shared freely.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array (n, d), got shape {pts.shape}")
        n, d = pts.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if not np.isfinite(pts).all():
            raise ValueError("ensemble points must be finite (no NaN/Inf)")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def second_moment(self) -> float:
        return float(np.mean(np.sum(self.points**2, axis=1)))


def translate(ens: ParticleEnsemble, w) -> ParticleEnsemble:
    """Pushforward under x -> x + w (the same shift applied to every particle)."""
    w = np.asarray(w, dtype=float).ravel()
    if w.shape[0] != ens.d:
        raise ValueError(f"shift dimension {w.shape[0]} != ensemble dimension {ens.d}")
    return ParticleEnsemble(ens.points + w)


def _sample_component(spec: dict, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    kind = spec.get("kind")
    if kind == "point_mass":
        c = np.broadcast_to(np.asarray(spec.get("center", 0.0), dtype=float), (d,))
        return np.tile(c, (n, 1))
    if kind == "uniform_box":
        lo = np.broadcast_to(np.asarray(spec.get("lo", -1.0), dtype=float), (d,))
        hi = np.broadcast_to(np.asarray(spec.get("hi", 1.0), dtype=float), (d,))
        return rng.uniform(lo, hi, size=(n, d))
    if kind == "gaussian":
        mean = np.broadcast_to(np.asarray(spec.get("mean", 0.0), dtype=float), (d,))
        if "cov" in spec:
            cov = np.asarray(spec["cov"], dtype=float)
            if cov.ndim == 0:
                cov = float(cov) * np.eye(d)
            return rng.multivariate_normal(mean, cov, size=n)
        std = float(spec.get("std", 1.0))
        return mean + std * rng.standard_normal((n, d))
    raise ValueError(f"unknown distribution kind {kind!r}")


def sample_iid(spec: dict, n: int, d: int, seed: int) -> ParticleEnsemble:
    """Draw n i.i.d. points from a named distribution spec, deterministically.

    Supported kinds: ``point_mass``, ``uniform_box``, ``gaussian`` and
    ``mixture`` (components carry a ``weight`` and any non-mixture spec).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    if spec.get("kind") == "mixture":
        comps = spec["components"]
        weights = np.array([c.get("weight", 1.0) for c in comps], dtype=float)
        weights = weights / weights.sum()
        labels = rng.choice(len(comps), size=n, p=weights)
        pts = np.empty((n, d))
        for j, comp in enumerate(comps):
            mask = labels == j
            if mask.any():
                pts[mask] = _sample_component(comp, int(mask.sum()), d, rng)
        return ParticleEnsemble(pts)
    return ParticleEnsemble(_sample_component(spec, n, d, rng))
