"""Incremental Xie-Beni and Davies-Bouldin indices, with and without forgetting.

Four variants are maintained over a stream of (V_new, u, x) steps produced by
an online clusterer:

    xb        : J / (n * h)          J = sum_i C_i, h = min squared center gap
    xb_lambda : (1 - lam) * J_lam / h
    db        : mean_i max_{j!=i} (L_i + L_j) / ||v_i - v_j||^2, L_i = C_i / M_i
    db_lambda : same with L_i = C_lam_i / max(1, M_lam_i)

Every variant is a read-out of per-cluster accumulators (D, mu, M): the
dispersion about the current centers is C = D + M*||mu - v||^2 (see
dispersion.py). xb and db read the lam=1 row, xb_lambda and db_lambda the lam
row. An IndexSet holds the (D, mu, M) arrays with a row for each forgetting
factor its families need, so at most two, advances them with
dispersion.update_dispersion and reads every DB variant in one pass.

Both indices are min-optimal. An undefined value (coincident centers, a
single cluster for DB, or a non-finite read-out) is None, never raised: the
state still advances. A step reports what happened as (kind, detail) events:
one ``index_undefined`` per family read as None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import pairwise_sq_distances
from .dispersion import dispersion_about, per_row, update_dispersion

INDEX_FAMILIES = ("xb", "xb_lambda", "db", "db_lambda")

# Without forgetting, DB reads L = C / M, and L = 0 for a cluster with no
# membership mass yet (M = 0, hence C = 0). Flooring M at the smallest
# positive float gives both: C / M for every M > 0, and 0 / floor = 0.
_EMPTY_CLUSTER_FLOOR = float(np.finfo(float).smallest_subnormal)


@lru_cache(maxsize=128)
def _inf_diagonal(k: int) -> np.ndarray:
    """Adding it to a (k, k) distance matrix puts inf on the diagonal."""
    D = np.diag(np.full(k, np.inf))
    D.flags.writeable = False  # shared by every caller
    return D


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


@dataclass(frozen=True)
class _Readout:
    """Read-out rules fixed at start, per accumulator row (one per factor)."""

    rows: tuple[int, ...]           # the row each enabled family reads
    xb_scale: tuple[float, ...]     # 1 - lam, or 1 without forgetting
    xb_per_point: tuple[bool, ...]  # XB divides by n: no forgetting
    xb: bool                        # some xb family is enabled
    db_floor: np.ndarray | None     # per-row floor on M in L = C / max(floor, M);
                                    # None when no db family is enabled


class IndexSet(NamedTuple):
    """State of every enabled index family: one immutable value per stream point.

    ``D``, ``mu`` and ``M`` hold one row per forgetting factor in ``lam``:
    lam=1 (xb, db) first, then lam (xb_lambda, db_lambda), each only if a
    family reads it. A step returns new arrays and never writes into these.
    ``h`` is the XB separation of the last step: the minimum squared center
    gap, or while k == 1 the running max of ||v_1 - x||^2.
    """

    families: tuple[str, ...]
    lam: tuple[float, ...]
    D: np.ndarray   # (s, k) scatter about mu
    mu: np.ndarray  # (s, k, p) membership-weighted mean of the points
    M: np.ndarray   # (s, k) accumulated squared membership
    h: float
    n: int
    readout: _Readout

    @classmethod
    def start(cls, families, V0, lam: float = 1.0, n0: int = 0) -> "IndexSet":
        """Fresh state after ``n0`` warm-up points: each of the clusters at
        the (k, p) initial centers ``V0`` starts with the warm-up count as
        its membership mass, placed at its center."""
        families = check_families(families, lam)
        if n0 < 0:
            raise ValueError(f"warm-up count must be nonnegative, got {n0}")
        forgetting = any(fam.endswith("_lambda") for fam in families)
        plain = any(not fam.endswith("_lambda") for fam in families)
        lams = tuple(float(f) for f, used in ((1.0, plain), (lam, forgetting)) if used)
        readout = _Readout(
            rows=tuple(lams.index(lam if fam.endswith("_lambda") else 1.0)
                       for fam in families),
            xb_scale=tuple(1.0 - f if f < 1.0 else 1.0 for f in lams),
            xb_per_point=tuple(f == 1.0 for f in lams),
            xb=any(fam.startswith("xb") for fam in families),
            db_floor=per_row([1.0 if f < 1.0 else _EMPTY_CLUSTER_FLOOR for f in lams])
            if any(fam.startswith("db") for fam in families) else None,
        )
        mu = np.array([V0] * len(lams), dtype=float)
        s, k = mu.shape[:2]
        return cls(families, lams, np.zeros((s, k)), mu, np.full((s, k), float(n0)),
                   0.0, n0, readout)

    def float_count(self) -> int:
        return self.D.size + self.mu.size + self.M.size + 2  # + h, n

    def step(self, V_new: np.ndarray, u: np.ndarray,
             x: np.ndarray) -> tuple["IndexSet", dict[str, float | None], list]:
        """Advance by one clustering step from the (k, p) centers after it,
        the memberships and the (p,) point; returns the new state, each
        family's value (None where undefined) and the step's (kind, detail)
        events: ``("index_undefined", family)`` for each None, in ``families``
        order. ``u`` covers the clusters the state holds; each row of
        ``V_new`` past them is a cluster born this step, which starts empty
        (M = 0, D = 0) with its mean at its center. u must be in [0, 1] and
        every array finite; nothing here re-checks them."""
        D, mu, M = update_dispersion(self.D, self.mu, self.M, self.lam, u, x)
        k = V_new.shape[0]
        born = k - M.shape[1]
        if born < 0 or V_new.shape[1:] != x.shape:
            raise ValueError(f"centers of shape {V_new.shape} after {mu.shape[1]} clusters")
        if born > 0:
            D, M = (np.pad(a, ((0, 0), (0, born))) for a in (D, M))
            mu = np.concatenate([mu, [V_new[-born:]] * len(mu)], axis=1)
        C = dispersion_about(D, mu, M, V_new)
        n = self.n + 1
        ro = self.readout
        db = None
        if k >= 2:
            gaps = pairwise_sq_distances(V_new) + _inf_diagonal(k)
            h = float(np.minimum.reduce(gaps, axis=None))
            if h > 0.0 and ro.db_floor is not None:
                L = C / np.maximum(ro.db_floor, M)
                # The diagonal reads (L_i + L_i) / inf = 0, never above the
                # row's off-diagonal ratios (all >= 0), so it needs no mask.
                worst = np.maximum.reduce((L[:, :, None] + L[:, None, :]) / gaps, axis=2)
                db = [total / k for total in np.add.reduce(worst, axis=1).tolist()]
        else:
            d = V_new[0] - x
            h = max(self.h, float(d @ d))
        if ro.xb:
            J = list(map(sum, C.tolist()))
        values = {}
        for fam, row in zip(self.families, ro.rows):
            if fam.startswith("xb"):
                if h > 0.0:
                    value = ro.xb_scale[row] * J[row] / (n * h if ro.xb_per_point[row] else h)
                else:
                    value = math.nan
            else:
                value = math.nan if db is None else db[row]
            # Overflow in the accumulators reads out as inf or nan: undefined.
            values[fam] = value if math.isfinite(value) else None
        events = [("index_undefined", fam) for fam, value in values.items() if value is None]
        return IndexSet(self.families, self.lam, D, mu, M, h, n, ro), values, events
