"""Incremental Xie-Beni and Davies-Bouldin indices, with and without forgetting.

Four variants are maintained over a stream of (V_new, u, x) steps produced by
an online clusterer:

    xb        : c * J / h, c = 1/n   J = sum_i C_i, h = min squared center gap
    xb_lambda : c * J_lam / h, c = 1 - lam
    db        : mean_i max_{j!=i} (L_i + L_j) / ||v_i - v_j||^2, L_i = C_i / M_i
    db_lambda : same with L_i = C_lam_i / max(1, M_lam_i)

Every variant is a read-out of per-cluster accumulators (D, mu, M): the
lam-weighted mass M of a cluster's squared memberships, the weighted mean mu
of its points and their weighted scatter D about mu. A sample x with
membership u enters by a weighted Welford step, which needs no centers:

    w   = u^2
    M'  = lam*M + w
    r   = w / M'                 (0 when M' = 0, which needs w = 0)
    mu' = mu + r*(x - mu)
    D'  = lam*D + lam*M*r*||x - mu||^2

The dispersion about any center v is then read out exactly as

    C = D + M*||mu - v||^2,

a sum of two non-negative terms, so C >= 0 by construction. lam = 1 means no
forgetting. The separation terms read the (k, k) squared gaps between the
current centers.

xb and db read the lam=1 row, xb_lambda and db_lambda the lam row. An
IndexSet holds the (D, mu, M) arrays with a row for each forgetting factor
its families need, so at most two: D and M are (s, k), mu is (s, k, p). One
update_dispersion call advances all s*k rows, each contraction one call of
the gufunc np.vecdot, and never writes into its inputs; a step then reads
every DB variant in one pass.

Both indices are min-optimal. An undefined value (coincident centers, a
single cluster for DB, or a non-finite read-out) is None, never raised: the
state still advances. A step reports what happened as (kind, detail) events:
one ``index_undefined`` per family read as None.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

INDEX_FAMILIES = ("xb", "xb_lambda", "db", "db_lambda")


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

    ``StreamEngine.push`` guarantees, and nothing here checks, that ``u``
    holds k memberships in [0, 1] and ``x`` is a finite (p,) float vector.
    """
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


def pairwise_sq_distances(C: np.ndarray) -> np.ndarray:
    """(k, k) squared Euclidean distances between the rows of a (k, p) array."""
    diff = C[:, None, :] - C
    return np.vecdot(diff, diff)


def check_families(families, lam: float) -> tuple[str, ...]:
    """``families`` as a tuple; rejects an empty or unknown family, and lam
    outside (0, 1) when a forgetting variant is enabled."""
    families = tuple(families)
    if not families:
        raise ValueError("at least one index family must be enabled")
    for fam in families:
        if fam not in INDEX_FAMILIES:
            raise ValueError(f"unknown index family {fam!r}")
    if any(fam.endswith("_lambda") for fam in families) and not (0.0 < lam < 1.0):
        raise ValueError("forgetting variants need lam in (0, 1)")
    return families


class IndexSet(NamedTuple):
    """State of every enabled index family: one immutable value per stream point.

    ``D``, ``mu`` and ``M`` hold one row per forgetting factor in ``lam``:
    lam=1 (xb, db) first, then lam (xb_lambda, db_lambda), each only if a
    family reads it. ``rows`` holds the row each family reads, and
    ``db_floor`` the per-row floor on M in DB's L = C / max(floor, M), or
    None when no db family is enabled. A step returns new arrays and never
    writes into these. ``h`` is the XB separation of the last step: the
    minimum squared center gap, or while k == 1 the running max of
    ||v_1 - x||^2.
    """

    families: tuple[str, ...]
    lam: tuple[float, ...]
    rows: tuple[int, ...]
    db_floor: np.ndarray | None
    D: np.ndarray   # (s, k) scatter about mu
    mu: np.ndarray  # (s, k, p) membership-weighted mean of the points
    M: np.ndarray   # (s, k) accumulated squared membership
    h: float
    n: int

    @classmethod
    def start(cls, families, V0, lam: float = 1.0, n0: int = 0) -> "IndexSet":
        """Fresh state after ``n0`` warm-up points: each of the clusters at
        the (k, p) initial centers ``V0`` starts with the warm-up count as
        its membership mass, placed at its center."""
        families = check_families(families, lam)
        if n0 < 0:
            raise ValueError(f"warm-up count must be nonnegative, got {n0}")
        factors = [float(lam) if fam.endswith("_lambda") else 1.0 for fam in families]
        lams = tuple(sorted(set(factors), reverse=True))
        db_floor = (per_row([1.0 if f < 1.0 else MASS_FLOOR for f in lams])
                    if any(fam.startswith("db") for fam in families) else None)
        mu = np.array([V0] * len(lams), dtype=float)
        s, k = mu.shape[:2]
        return cls(families, lams, tuple(map(lams.index, factors)), db_floor,
                   np.zeros((s, k)), mu, np.full((s, k), float(n0)), 0.0, n0)

    def float_count(self) -> int:
        return self.D.size + self.mu.size + self.M.size + 2  # + h, n

    def step(self, V_new: np.ndarray, u: np.ndarray,
             x: np.ndarray) -> tuple["IndexSet", dict[str, float | None], list]:
        """Advance by one clustering step from the (k, p) centers after it,
        the memberships and the (p,) point; returns the new state, each
        family's value (None where undefined) and the step's (kind, detail)
        events: ``("index_undefined", family)`` for each None, in ``families``
        order. Each row of ``V_new`` past the k clusters the state holds is
        a cluster born this step, which starts empty (M = 0, D = 0) with its
        mean at its center. Unchecked, as ``StreamEngine.push`` guarantees:
        ``u`` holds k memberships in [0, 1], and ``V_new`` at least k finite
        rows of ``x``'s dimension."""
        D, mu, M = update_dispersion(self.D, self.mu, self.M, self.lam, u, x)
        k = V_new.shape[0]
        born = k - M.shape[1]
        if born > 0:
            D, M = (np.pad(a, ((0, 0), (0, born))) for a in (D, M))
            mu = np.concatenate([mu, [V_new[-born:]] * len(mu)], axis=1)
        C = dispersion_about(D, mu, M, V_new)
        n = self.n + 1
        db = None
        if k >= 2:
            gaps = pairwise_sq_distances(V_new)
            gaps.flat[::k + 1] = np.inf
            h = float(np.minimum.reduce(gaps, axis=None))
            if h > 0.0 and self.db_floor is not None:
                L = C / np.maximum(self.db_floor, M)
                # The diagonal reads (L_i + L_i) / inf = 0, never above the
                # row's off-diagonal ratios (all >= 0), so it needs no mask.
                worst = np.maximum.reduce((L[:, :, None] + L[:, None, :]) / gaps, axis=2)
                db = [total / k for total in np.add.reduce(worst, axis=1).tolist()]
        else:
            d = V_new[0] - x
            h = max(self.h, float(d @ d))
        J = list(map(sum, C.tolist()))
        values = {}
        for fam, row in zip(self.families, self.rows):
            if fam.startswith("xb"):
                f = self.lam[row]
                # c <= 1 keeps c*J/h finite wherever the value is; a divisor
                # n*h could overflow to inf first and read a defined 0
                value = (1.0 - f if f < 1.0 else 1.0 / n) * J[row] / h if h > 0.0 else math.nan
            else:
                value = math.nan if db is None else db[row]
            # Overflow in the accumulators reads out as inf or nan: undefined.
            values[fam] = value if math.isfinite(value) else None
        events = [("index_undefined", fam) for fam, value in values.items() if value is None]
        return (IndexSet(self.families, self.lam, self.rows, self.db_floor, D, mu, M, h, n),
                values, events)
