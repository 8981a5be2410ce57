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
    if not isinstance(components, (list, tuple)) or not components:
        raise ValueError(f"a mixture needs a non-empty list of components, got {components!r}")
    specs = [_keys(comp) for comp in components]
    weights = np.array([spec.pop("weight", 1.0) for spec in specs], dtype=float)
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not (np.isfinite(weights) & (weights >= 0.0)).all() or not 0.0 < total < np.inf:
        raise ValueError(f"mixture weights must be finite and non-negative with a positive sum, "
                         f"got {weights.tolist()}")
    labels = rng.choice(len(components), size=n, p=weights / total)
    pts = np.empty((n, d))
    for j, spec in enumerate(specs):
        # an unpicked component draws no points, which leaves rng as it was
        mask = labels == j
        pts[mask] = _draw(spec, int(mask.sum()), d, rng, _COMPONENT_KINDS)
    return pts


_COMPONENT_KINDS = {"point_mass": _point_mass, "uniform_box": _uniform_box, "gaussian": _gaussian}
_KINDS = {**_COMPONENT_KINDS, "mixture": _mixture}


def _keys(spec) -> dict:
    """A copy of a sample spec's keys; a spec that is not an object raises."""
    if not isinstance(spec, dict):
        raise ValueError(f"a sample spec must be an object, got {spec!r}")
    return dict(spec)


def _draw(spec: dict, n: int, d: int, rng: np.random.Generator, kinds: dict) -> np.ndarray:
    keys = _keys(spec)
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
    - ``mixture``: ``components``, a non-empty list of non-mixture specs,
      each with an optional ``weight`` (1.0); the weights must be finite and
      non-negative with a positive sum.

    A center, bound or mean is a scalar or a length-d list.  Any other key
    raises ``TypeError``; a spec that is not a dict, an unknown kind and bad
    mixture components or weights raise ``ValueError``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return ParticleEnsemble(_draw(spec, n, d, np.random.default_rng(seed), _KINDS))
