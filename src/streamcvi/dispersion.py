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

lam = 1 means no forgetting. One Accumulators value holds a row of every
cluster for each forgetting factor in use: C and M are (s, k) arrays, G is
(s, k, p), and lam holds the s factors. One update advances all s*k rows and
computes B, A and the center moves once for all of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Accumulators:
    """(C, G, M) of every cluster, one row per forgetting factor in ``lam``.

    Treated as an immutable value: every update returns new arrays.
    ``clamped`` names the factor of every row whose dispersion the update
    that produced this value clamped to 0 (see ``_clamp_C``).
    """

    C: np.ndarray  # (s, k) dispersion
    G: np.ndarray  # (s, k, p) membership-weighted offsets from the center
    M: np.ndarray  # (s, k) accumulated squared membership
    lam: tuple[float, ...] = (1.0,)
    clamped: tuple[float, ...] = ()

    @property
    def k(self) -> int:
        return self.C.shape[1]

    def float_count(self) -> int:
        return self.C.size + self.G.size + self.M.size


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


def new_accumulators(k: int, p: int, lam=(1.0,), M0: float = 0.0) -> Accumulators:
    """Empty accumulators for k clusters under each factor in ``lam``, every
    cluster starting with membership mass M0."""
    lam = tuple(float(f) for f in lam)
    if not lam:
        raise ValueError("need at least one forgetting factor")
    for f in lam:
        if not (0.0 < f <= 1.0):
            raise ValueError(f"forgetting factor must be in (0, 1], got {f}")
    if M0 < 0.0:
        raise ValueError("accumulated squared membership must be nonnegative")
    s = len(lam)
    return Accumulators(C=np.zeros((s, k)), G=np.zeros((s, k, p)),
                        M=np.full((s, k), float(M0)), lam=lam)


def grow(acc: Accumulators, k: int) -> Accumulators:
    """Append empty accumulators for clusters created since the last step."""
    extra = k - acc.k
    if extra <= 0:
        return acc
    s, _, p = acc.G.shape
    return Accumulators(
        C=np.concatenate([acc.C, np.zeros((s, extra))], axis=1),
        G=np.concatenate([acc.G, np.zeros((s, extra, p))], axis=1),
        M=np.concatenate([acc.M, np.zeros((s, extra))], axis=1),
        lam=acc.lam,
    )


def _clamp_C(C: np.ndarray, lam: tuple[float, ...]) -> tuple[np.ndarray, tuple[float, ...]]:
    """Rounding can leave a dispersion slightly negative: set it to 0 and
    return the factor of every row that needed it."""
    lowest = np.minimum.reduce(C, axis=None)
    if not lowest < 0.0:
        return C, ()
    log.warning("dispersion accumulator clamped to 0 (raw value %.3e)", float(lowest))
    rows = (C < 0.0).any(axis=1).tolist()
    return np.maximum(C, 0.0), tuple(f for f, hit in zip(lam, rows) if hit)


def update_dispersion(acc: Accumulators, V_old, V_new, u, x) -> Accumulators:
    """Advance every cluster's (C, G, M), under every forgetting factor, by
    one sample.

    ``V_old``/``V_new`` are the (k, p) centers before and after the clustering
    step, ``u`` the (k,) memberships of ``x`` in [0, 1]. The caller validates
    that ``x`` is a finite (p,) float vector.
    """
    shape = acc.G.shape[1:]
    if V_old.shape != shape or V_new.shape != shape or u.shape != shape[:1]:
        raise ValueError(
            f"step shapes (centers {V_old.shape}/{V_new.shape}, memberships {u.shape}) "
            f"disagree with accumulators of shape {acc.G.shape}"
        )
    if x.shape != shape[1:]:
        raise ValueError(f"expected dimension {shape[1]}, got shape {x.shape}")
    # ufunc reductions skip the Python frame behind ndarray.min/max/any.
    if not (np.minimum.reduce(u) >= 0.0 and np.maximum.reduce(u) <= 1.0):
        raise ValueError(f"memberships must be finite and in [0, 1], got {u}")
    lam, two_lam, lam_G = _factors(acc.lam)
    # The step's terms get a leading axis of length 1: computed once, they
    # broadcast over the s rows, and a single row needs no broadcasting.
    V_new = V_new[None]
    u = u[None]
    dV = V_old[None] - V_new
    R = x - V_new
    u2 = u * u
    Q = np.einsum("skp,skp->sk", acc.G, dV)
    B = np.einsum("skp,skp->sk", dV, dV)
    A = u2 * np.einsum("skp,skp->sk", R, R)
    lam_M = lam * acc.M
    C, clamped = _clamp_C(lam * acc.C + two_lam * Q + lam_M * B + A, acc.lam)
    G = lam_G * acc.G + lam_M[:, :, None] * dV + u2[:, :, None] * R
    return Accumulators(C=C, G=G, M=lam_M + u2, lam=acc.lam, clamped=clamped)
