"""Exact one-step updates of the fuzzy within-cluster dispersion.

For each cluster the accumulator triple (C, G, M) makes the running
dispersion exactly recomputable after the center moves, without re-reading
history:

    C' = lam*C + 2*lam*Q + lam*M*B + A
    G' = lam*G + lam*M*(v_old - v_new) + u^2*(x - v_new)
    M' = lam*M + u^2

with the per-step intermediates

    Q = (v_old - v_new) . G
    B = ||v_old - v_new||^2
    A = u^2 * ||x - v_new||^2

lam = 1 means no forgetting. The arrays hold a row of every cluster for each
forgetting factor in use: C and M are (s, k), G is (s, k, p), and lam holds
the s factors. One update advances all s*k rows. B, A and the center moves
are computed once, as (k,) and (k, p) arrays that broadcast over the s rows.
Each contraction is one call of the gufunc np.vecdot. An update never writes
into its inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def per_row(values, ndim: int = 2):
    """One value per accumulator row, shaped to scale arrays of ``ndim``
    dimensions whose first axis is the row: a Python float (numpy's cheapest
    operand) when there is one row, else an (s, 1, ...) column."""
    if len(values) == 1:
        return float(values[0])
    column = np.array(values, dtype=float).reshape((-1,) + (1,) * (ndim - 1))
    column.flags.writeable = False  # shared by every step of a run
    return column


@lru_cache(maxsize=16)
def _factors(lam: tuple[float, ...]):
    """lam and 2*lam to scale (s, k) arrays, and lam to scale (s, k, p) ones."""
    return per_row(lam), per_row([2.0 * f for f in lam]), per_row(lam, 3)


def _clamp_C(C: np.ndarray, lam: tuple[float, ...]) -> tuple[np.ndarray, tuple[float, ...]]:
    """Rounding can leave a dispersion slightly negative: set it to 0 and
    return the factor of every row that needed it."""
    if not np.minimum.reduce(C, axis=None) < 0.0:
        return C, ()
    rows = (C < 0.0).any(axis=1).tolist()
    return np.maximum(C, 0.0), tuple(f for f, hit in zip(lam, rows) if hit)


def update_dispersion(C, G, M, lam: tuple[float, ...], V_old, V_new, u, x):
    """Advance every cluster's (C, G, M), under every forgetting factor in
    ``lam``, by one sample; returns the new (C, G, M) and the factor of every
    row whose dispersion was clamped to 0 (see ``_clamp_C``).

    ``V_old``/``V_new`` are the (k, p) centers before and after the clustering
    step, ``u`` the (k,) memberships of ``x`` in [0, 1]. The caller validates
    that ``x`` is a finite (p,) float vector.
    """
    shape = G.shape[1:]
    if V_old.shape != shape or V_new.shape != shape or u.shape != shape[:1]:
        raise ValueError(
            f"step shapes (centers {V_old.shape}/{V_new.shape}, memberships {u.shape}) "
            f"disagree with accumulators of shape {G.shape}"
        )
    if x.shape != shape[1:]:
        raise ValueError(f"expected dimension {shape[1]}, got shape {x.shape}")
    # ufunc reductions skip the Python frame behind ndarray.min/max/any.
    if not (np.minimum.reduce(u) >= 0.0 and np.maximum.reduce(u) <= 1.0):
        raise ValueError(f"memberships must be finite and in [0, 1], got {u}")
    lam_C, two_lam, lam_G = _factors(lam)
    dV = V_old - V_new
    R = x - V_new
    u2 = u * u
    Q = np.vecdot(G, dV)
    B = np.vecdot(dV, dV)
    A = u2 * np.vecdot(R, R)
    lam_M = lam_C * M
    C, clamped = _clamp_C(lam_C * C + two_lam * Q + lam_M * B + A, lam)
    G = lam_G * G + lam_M[:, :, None] * dV + u2[:, None] * R
    return C, G, lam_M + u2, clamped
