"""Constructive smooth variational principle over finite candidate sets.

Given an upper-bounded score G on finitely many time-measure pairs and a
start point within lambda of the supremum, iteratively select

    a_{k+1} = argmax of S_k,   S_k = G - delta^2 sum_{j<=k} 2^{-j} rho(., a_j),

terminating when the selection repeats.  On a finite set with exact argmax
selection (ties broken in favor of the previous anchor, then lowest index)
the iteration provably stabilizes after the first re-selection, and the
returned point (t~, mu~) carries an exhaustively verified certificate:

  (1) rho((t~, mu~), (t_k, mu_k)) <= lambda / (2^k delta^2) for every anchor,
  (2) G(t_0, mu_0) <= G(t~, mu~) - delta^2 phi_delta(t~, mu~),
  (3) G - delta^2 phi_delta attains a strict maximum at (t~, mu~).

The anchor list is padded with repeats of the final point to k_max + 1
anchors, and phi_delta is that finite sum; no tail bound is recorded.  The
dropped tail, 2^{-k_max} rho(., (t~, mu~)), is 0 at (t~, mu~) and >= 0
elsewhere, so items (2) and (3) hold for the untruncated series too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfhjb.sliced_gauge import GaugeAnchors, SphereQuadrature, rho_matrix

__all__ = ["CandidateSet", "BPResult", "borwein_preiss"]


@dataclass(frozen=True)
class CandidateSet:
    """Candidate points (t_i, mu_i) with score values, budget, and smoothing.

    The start index must satisfy max G - lambda <= G[start], which is checked
    here (to 1e-12 relative); it defaults to the lowest-scoring candidate
    that does, the first on ties.
    """

    times: np.ndarray
    ensembles: tuple
    g_values: np.ndarray
    lam: float
    delta: float
    start: int | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        g = np.asarray(self.g_values, dtype=float)
        if times.ndim != 1 or times.size == 0 or g.shape != times.shape or len(self.ensembles) != times.size:
            raise ValueError("times, ensembles, and g_values must have matching nonzero lengths")
        if not np.isfinite(g).all():
            raise ValueError("score values must be finite")
        if not (self.lam > 0.0 and self.delta > 0.0):
            raise ValueError("lambda and delta must be positive")
        if self.start is None:
            object.__setattr__(self, "start", int(np.where(g >= g.max() - self.lam, g, np.inf).argmin()))
        if not (0 <= self.start < times.size):
            raise ValueError("start index out of range")
        gap = float(g.max() - self.lam - g[self.start])
        if gap > 1e-12 * max(1.0, abs(float(g.max()))):
            raise ValueError(
                f"start point violates the near-maximality hypothesis: "
                f"sup G - lambda exceeds G(start) by {gap:.3e}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "g_values", g)
        object.__setattr__(self, "ensembles", tuple(self.ensembles))

    @property
    def size(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class BPResult:
    tilde_index: int
    anchor_indices: tuple
    anchors: GaugeAnchors
    certificate: dict
    s_trace: tuple


def _pairwise_rho(cands: CandidateSet, quad: SphereQuadrature, m_points: int) -> np.ndarray:
    """All pairwise rho values, from one quantile table per distinct candidate
    cloud; each entry is the same bits as ``sliced_gauge.rho`` on its pair."""
    times, clouds = cands.times, cands.ensembles
    return rho_matrix(times, clouds, times, clouds, 1.0 / cands.delta, quad, m_points)


def borwein_preiss(cands: CandidateSet, quad: SphereQuadrature, m_points: int = 64) -> BPResult:
    """Run the constructive selection and verify its certificate exhaustively.

    If the iteration does not stabilize within 64 iterations (impossible for
    exact argmax selection, kept as a guard), the certificate is returned
    with complete = False.  The anchors, padded to GaugeAnchors.k_max + 1 =
    41, carry quad and m_points, so phi_delta at tilde is phi_tilde.
    """
    dd = cands.delta**2
    rho_mat = _pairwise_rho(cands, quad, m_points)

    anchor_indices = [cands.start]
    s_vals = cands.g_values - dd * rho_mat[:, cands.start]
    s_trace = []
    prev = cands.start
    complete = False
    for k in range(1, 65):
        best = float(s_vals.max())
        # exact argmax; prefer the previous anchor on exact ties (required for
        # strictness of certificate item (3)), else lowest index
        if s_vals[prev] == best:
            sel = prev
        else:
            sel = int(np.argmax(s_vals))
        s_trace.append(s_vals[sel])
        if sel == prev:
            complete = True
            break
        anchor_indices.append(sel)
        s_vals = s_vals - dd * 0.5**k * rho_mat[:, sel]
        prev = sel
    tilde = prev

    # close the geometric series by repeating the final point up to k_max
    padded = list(anchor_indices) + [tilde] * (GaugeAnchors.k_max + 1 - len(anchor_indices))
    anchor_list = tuple((float(cands.times[i]), cands.ensembles[i]) for i in padded)
    anchors = GaugeAnchors(anchor_list, cands.delta, quad, m_points)

    certificate = _verify_certificate(cands, rho_mat, tilde, padded, anchors)
    certificate["complete"] = complete

    return BPResult(
        tilde_index=tilde,
        anchor_indices=tuple(anchor_indices),
        anchors=anchors,
        certificate=certificate,
        s_trace=tuple(s_trace),
    )


def _verify_certificate(
    cands: CandidateSet,
    rho_mat: np.ndarray,
    tilde: int,
    padded: list,
    anchors: GaugeAnchors,
) -> dict:
    dd = cands.delta**2

    # item (1): every anchor lies within the geometric rho budget of tilde
    margins = cands.lam / (2.0 ** np.arange(len(padded)) * dd) - rho_mat[tilde, padded]
    budget_margin = float(margins.min())
    item1 = bool(budget_margin >= 0.0)

    # phi_delta over the candidate set, from the same pairwise table and the
    # same series sum as sliced_gauge.phi_delta
    phi_all = anchors.series(rho_mat[:, padded])

    # item (2): improvement over the start point net of the perturbation
    lhs2 = cands.g_values[cands.start]
    rhs2 = cands.g_values[tilde] - dd * phi_all[tilde]
    item2_margin = float(rhs2 - lhs2)
    item2 = item2_margin >= -1e-12 * max(1.0, abs(float(rhs2)))

    # item (3): strict maximality of G - delta^2 phi_delta at tilde
    perturbed = cands.g_values - dd * phi_all
    others = np.delete(perturbed, tilde)
    item3_margin = float(perturbed[tilde] - others.max()) if others.size else np.inf

    return {
        "item1_ok": item1,
        "item1_margin": budget_margin,
        "item2_ok": bool(item2),
        "item2_margin": item2_margin,
        "item3_ok": item3_margin > 0.0,
        "item3_margin": item3_margin,
        "phi_tilde": float(phi_all[tilde]),
    }
