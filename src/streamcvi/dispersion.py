"""Exact one-step updates of the fuzzy within-cluster dispersion.

For each cluster the accumulator triple (C, G, M) makes the running
dispersion exactly recomputable after the center moves, without re-reading
history:

    C' = C + A + M*B + 2*Q               (no forgetting, lam == 1)
    C' = lam*C + 2*lam*Q + lam*M*B + A   (exponential forgetting)

with the per-step intermediates

    Q = (v_old - v_new) . G
    B = ||v_old - v_new||^2
    A = u^2 * ||x - v_new||^2

All k clusters of one forgetting factor advance together: C and M are (k,)
arrays and G is (k, p).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Accumulators:
    """(C, G, M) of every cluster under one forgetting factor; lam=1 means none.

    Treated as an immutable value: every update returns new arrays.
    """

    C: np.ndarray  # (k,) dispersion
    G: np.ndarray  # (k, p) membership-weighted offsets from the center
    M: np.ndarray  # (k,) accumulated squared membership
    lam: float = 1.0

    @property
    def k(self) -> int:
        return self.C.shape[0]

    def float_count(self) -> int:
        return self.C.size + self.G.size + self.M.size


def new_accumulators(k: int, p: int, lam: float = 1.0, M0: float = 0.0) -> Accumulators:
    """Empty accumulators for k clusters, each starting with membership mass M0."""
    if not (0.0 < lam <= 1.0):
        raise ValueError(f"forgetting factor must be in (0, 1], got {lam}")
    if M0 < 0.0:
        raise ValueError("accumulated squared membership must be nonnegative")
    return Accumulators(C=np.zeros(k), G=np.zeros((k, p)), M=np.full(k, float(M0)), lam=lam)


def grow(acc: Accumulators, k: int) -> Accumulators:
    """Append empty accumulators for clusters created since the last step."""
    extra = k - acc.k
    if extra <= 0:
        return acc
    return Accumulators(
        C=np.concatenate([acc.C, np.zeros(extra)]),
        G=np.concatenate([acc.G, np.zeros((extra, acc.G.shape[1]))]),
        M=np.concatenate([acc.M, np.zeros(extra)]),
        lam=acc.lam,
    )


def _clamp_C(C: np.ndarray) -> np.ndarray:
    if (C < 0.0).any():
        log.warning("dispersion accumulator clamped to 0 (raw value %.3e)", float(C.min()))
        return np.maximum(C, 0.0)
    return C


def update_dispersion(acc: Accumulators, V_old, V_new, u, x) -> Accumulators:
    """Advance every cluster's (C, G, M) by one sample.

    ``V_old``/``V_new`` are the (k, p) centers before and after the clustering
    step, ``u`` the (k,) memberships of ``x`` in [0, 1]. The caller validates
    that ``x`` is a finite (p,) float vector.
    """
    if V_old.shape != acc.G.shape or V_new.shape != acc.G.shape or u.shape != acc.C.shape:
        raise ValueError(
            f"step shapes (centers {V_old.shape}/{V_new.shape}, memberships {u.shape}) "
            f"disagree with accumulators of shape {acc.G.shape}"
        )
    if x.shape != acc.G.shape[1:]:
        raise ValueError(f"expected dimension {acc.G.shape[1]}, got shape {x.shape}")
    if not (u.min() >= 0.0 and u.max() <= 1.0):
        raise ValueError(f"memberships must be finite and in [0, 1], got {u}")
    lam = acc.lam
    dV = V_old - V_new
    R = x - V_new
    u2 = u * u
    Q = np.einsum("ij,ij->i", dV, acc.G)
    B = np.einsum("ij,ij->i", dV, dV)
    A = u2 * np.einsum("ij,ij->i", R, R)
    lam_M = lam * acc.M
    if lam == 1.0:
        C = acc.C + A + acc.M * B + 2.0 * Q
    else:
        C = lam * acc.C + 2.0 * lam * Q + lam_M * B + A
    G = lam * acc.G + lam_M[:, None] * dV + u2[:, None] * R
    return Accumulators(C=_clamp_C(C), G=G, M=lam_M + u2, lam=lam)
