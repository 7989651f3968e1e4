"""Macqueen's basic sequential k-means: nearest prototype, running-mean update."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MembershipVector, PrototypeSet


@dataclass(frozen=True)
class SkMeansState:
    V: np.ndarray        # (k, p) prototypes
    counts: np.ndarray   # (k,) points absorbed per cluster, init included

    @property
    def k(self) -> int:
        return self.V.shape[0]

    @property
    def p(self) -> int:
        return self.V.shape[1]

    def float_count(self) -> int:
        return self.V.size + self.counts.size


def skmeans_init(first_k_points) -> SkMeansState:
    """Seed the k prototypes with the first k stream points, which were
    checked when pushed."""
    V = np.array(first_k_points, dtype=float)  # mixed dimensions raise here
    if V.ndim != 2 or V.shape[0] == 0:
        raise ValueError(f"initialization needs k >= 1 points of dimension p, got shape {V.shape}")
    return SkMeansState(V=V, counts=np.ones(V.shape[0], dtype=np.int64))


def skmeans_step(state: SkMeansState, x_new):
    """Assign x to the nearest prototype (ties: lowest index) and update it.

    Returns (state', u_crisp, V_old, V_new); V_new feeds the incremental
    index update. States are immutable values, so the snapshots share their
    arrays with the old and new state.
    """
    x = np.asarray(x_new, dtype=float)
    if x.shape != (state.p,):
        raise ValueError(f"expected a ({state.p},) vector, got shape {x.shape}")
    d = state.V - x
    d2 = np.vecdot(d, d)
    # The largest distance is finite only if all k are (max propagates nan),
    # so this also rejects a non-finite x. An overflowed distance would
    # otherwise tie at inf and send the point to cluster 0.
    if not math.isfinite(float(np.maximum.reduce(d2))):
        raise ValueError("squared distances to the prototypes are not finite")
    m = int(d2.argmin())  # argmin takes the first minimum: lowest index wins
    counts = state.counts.copy()
    counts[m] += 1
    V = state.V.copy()
    V[m] = V[m] + (x - V[m]) / counts[m]
    u = np.zeros(state.k)
    u[m] = 1.0
    new_state = SkMeansState(V=V, counts=counts)
    return new_state, MembershipVector(u), PrototypeSet(state.V), PrototypeSet(V)
