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


def _point_mass(n: int, d: int, rng: np.random.Generator, center=0.0) -> np.ndarray:
    return np.tile(np.broadcast_to(np.asarray(center, dtype=float), (d,)), (n, 1))


def _uniform_box(n: int, d: int, rng: np.random.Generator, lo=-1.0, hi=1.0) -> np.ndarray:
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (d,))
    return rng.uniform(lo, hi, size=(n, d))


def _gaussian(n: int, d: int, rng: np.random.Generator, mean=0.0, std=1.0) -> np.ndarray:
    return np.broadcast_to(np.asarray(mean, dtype=float), (d,)) + float(std) * rng.standard_normal((n, d))


def _mixture(n: int, d: int, rng: np.random.Generator, components) -> np.ndarray:
    weights = np.array([comp.get("weight", 1.0) for comp in components], dtype=float)
    labels = rng.choice(len(components), size=n, p=weights / weights.sum())
    pts = np.empty((n, d))
    for j, comp in enumerate(components):
        # an unpicked component draws no points, which leaves rng as it was
        mask = labels == j
        keys = {key: value for key, value in comp.items() if key != "weight"}
        pts[mask] = _draw(keys, int(mask.sum()), d, rng, _COMPONENT_KINDS)
    return pts


_COMPONENT_KINDS = {"point_mass": _point_mass, "uniform_box": _uniform_box, "gaussian": _gaussian}
_KINDS = {**_COMPONENT_KINDS, "mixture": _mixture}


def _draw(spec: dict, n: int, d: int, rng: np.random.Generator, kinds: dict) -> np.ndarray:
    keys = dict(spec)
    kind = keys.pop("kind", None)
    if kind not in kinds:
        raise ValueError(f"unknown distribution kind {kind!r}")
    return kinds[kind](n, d, rng, **keys)


def sample_iid(spec: dict, n: int, d: int, seed: int) -> ParticleEnsemble:
    """Draw n i.i.d. points from a named distribution spec, deterministically.

    A spec names its ``kind`` and that kind's keys, each optional:

    - ``point_mass``: ``center`` (0.0);
    - ``uniform_box``: ``lo`` (-1.0) and ``hi`` (1.0);
    - ``gaussian``: ``mean`` (0.0) and ``std`` (1.0), independent coordinates;
    - ``mixture``: ``components``, a list of non-mixture specs, each with an
      optional ``weight`` (1.0).

    A center, bound or mean is a scalar or a length-d list.  Any other key
    raises ``TypeError``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return ParticleEnsemble(_draw(spec, n, d, np.random.default_rng(seed), _KINDS))
