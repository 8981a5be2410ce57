"""Particle-level numerics for mean-field control with common noise.

The library works throughout with empirical measures (equal-weight particle
clouds in R^d) and provides:

- smoothed one-dimensional transport maps and Wasserstein-2 distances,
- the sliced Wasserstein metric with Gaussian regularization, its first-order
  measure derivative, mixed derivative, and translation-Hessian operator,
- a constructive smooth variational principle over finite candidate sets,
- Euler-Maruyama simulation of controlled interacting particle systems with
  common noise, cost functionals and value estimation by policy search,
- mollified coefficient approximations with verified convergence rates,
- residual checks for the dynamic programming principle and the associated
  HJB equation on closed-form scenarios.
"""

from mfhjb.measures import ParticleEnsemble, sample_iid, translate
from mfhjb.transport1d import SmoothedProjection, TransportMap1D, w2_discrete, w2_smoothed

__all__ = [
    "ParticleEnsemble",
    "sample_iid",
    "translate",
    "SmoothedProjection",
    "TransportMap1D",
    "w2_discrete",
    "w2_smoothed",
]

__version__ = "0.1.0"
