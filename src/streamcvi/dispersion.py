"""Exact one-step updates of the fuzzy within-cluster dispersion.

For each cluster the state (D, mu, M) holds the lam-weighted mass M of its
squared memberships, the weighted mean mu of its points and their weighted
scatter D about mu. A sample x with membership u enters by a weighted
Welford step, which needs no centers:

    w   = u^2
    M'  = lam*M + w
    r   = w / M'                 (0 when M' = 0, which needs w = 0)
    mu' = mu + r*(x - mu)
    D'  = lam*D + lam*M*r*||x - mu||^2

The dispersion about any center v is then read out exactly as

    C = D + M*||mu - v||^2,

a sum of two non-negative terms, so C >= 0 by construction.

lam = 1 means no forgetting. The arrays hold a row of every cluster for each
forgetting factor in use: D and M are (s, k), mu is (s, k, p), and lam holds
the s factors. One update advances all s*k rows. Each contraction is one
call of the gufunc np.vecdot. An update never writes into its inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

def per_row(values):
    """One value per accumulator row, shaped to scale (s, k) arrays: a 0-d
    array (numpy's cheapest operand: a Python float costs a conversion on
    every call) when there is one row, else an (s, 1) column."""
    a = np.array(values, dtype=float)
    a = a.reshape(()) if a.size == 1 else a.reshape(-1, 1)
    a.flags.writeable = False  # shared by every step of a run
    return a


# The smallest positive float, as a floor on a mass M that divides a quantity
# which is 0 wherever M is (w where M' = 0, and C where a cluster's M = 0):
# a / max(M, floor) is a / M for every M > 0, and 0 / floor = 0.
MASS_FLOOR = per_row([np.finfo(float).smallest_subnormal])


_lam_factor = lru_cache(maxsize=16)(per_row)


def update_dispersion(D, mu, M, lam: tuple[float, ...], u, x):
    """Advance every cluster's (D, mu, M), under every forgetting factor in
    ``lam``, by one sample; returns the new (D, mu, M).

    ``u`` holds the (k,) memberships of ``x``. The caller validates that
    ``u`` lies in [0, 1], and that ``x`` is a finite (p,) float vector.
    """
    if u.shape != mu.shape[1:2]:
        raise ValueError(f"memberships of shape {u.shape} for accumulators of shape {mu.shape}")
    if x.shape != mu.shape[2:]:
        raise ValueError(f"expected dimension {mu.shape[2]}, got shape {x.shape}")
    lam = _lam_factor(lam)
    w = u * u
    lam_M = lam * M
    M = lam_M + w
    r = w / np.maximum(M, MASS_FLOOR)
    d = x - mu
    return lam * D + lam_M * r * np.vecdot(d, d), mu + r[:, :, None] * d, M


def dispersion_about(D, mu, M, V):
    """Each row's dispersion about the (k, p) centers ``V``:
    C = D + M*||mu - V||^2, an (s, k) array."""
    gap = mu - V
    return D + M * np.vecdot(gap, gap)
