"""Incremental Xie-Beni and Davies-Bouldin indices, with and without forgetting.

Four variants are maintained over a stream of (u, V_old, V_new, x) steps
produced by an online clusterer:

    xb        : J / (n * h)          J = sum_i C_i, h = min squared center gap
    xb_lambda : (1 - lam) * J_lam / h
    db        : mean_i max_{j!=i} (L_i + L_j) / ||v_i - v_j||^2, L_i = C_i / M_i
    db_lambda : same with L_i = C_lam_i / max(1, M_lam_i)

Every variant is a read-out of per-cluster accumulators (C, G, M): xb and db
read the lam=1 sums, xb_lambda and db_lambda the lam sums. An IndexSet keeps
one accumulator set per forgetting factor its families need, so at most two.

Both indices are min-optimal. Undefined steps (coincident centers, a single
cluster for DB, or a non-finite read-out) are flagged, never raised: the
state still advances.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MembershipVector, PrototypeSet, pairwise_sq_distances
from .dispersion import Accumulators, grow, new_accumulators, update_dispersion

log = logging.getLogger(__name__)

INDEX_FAMILIES = ("xb", "xb_lambda", "db", "db_lambda")


@lru_cache(maxsize=128)
def _offdiag(k: int) -> np.ndarray:
    return ~np.eye(k, dtype=bool)


@dataclass(frozen=True)
class IndexValue:
    value: float
    n: int
    k: int
    defined: bool = True


def _undefined(n: int, k: int) -> IndexValue:
    return IndexValue(value=math.nan, n=n, k=k, defined=False)


def _xb_value(acc: Accumulators, h: float, n: int) -> IndexValue:
    k = acc.k
    if h <= 0.0:
        log.debug("XB undefined at n=%d: zero separation", n)
        return _undefined(n, k)
    J = sum(acc.C.tolist())
    if acc.lam == 1.0:
        return IndexValue(value=J / (n * h), n=n, k=k)
    return IndexValue(value=(1.0 - acc.lam) * J / h, n=n, k=k)


def _db_value(acc: Accumulators, gaps, n: int) -> IndexValue:
    """``gaps`` is the (k, k) squared center distances with inf on the diagonal."""
    k = acc.k
    if gaps is None:
        return _undefined(n, k)
    if acc.lam == 1.0:
        # An empty cluster (no membership mass yet) contributes L = 0.
        L = np.where(acc.M == 0.0, 0.0, acc.C / np.where(acc.M == 0.0, 1.0, acc.M))
    else:
        L = acc.C / np.maximum(1.0, acc.M)
    ratios = (L[:, None] + L[None, :]) / gaps
    value = float(np.where(_offdiag(k), ratios, -np.inf).max(axis=1).mean())
    return IndexValue(value=value, n=n, k=k)


@dataclass(frozen=True)
class IndexSet:
    """State of every enabled index family: one immutable value per stream point.

    ``plain`` holds the lam=1 accumulators (xb, db), ``forgetting`` the lam
    ones (xb_lambda, db_lambda); a slot no enabled family reads is None.
    ``h`` is the XB separation of the last step: the minimum squared center
    gap, or while k == 1 the running max of ||v_1 - x||^2.
    """

    families: tuple[str, ...]
    plain: Accumulators | None
    forgetting: Accumulators | None
    h: float
    n: int

    @classmethod
    def start(cls, families, k: int, p: int, lam: float = 1.0,
              n0: int = 0, M0: float = 0.0) -> "IndexSet":
        """Fresh state after ``n0`` warm-up points, each cluster holding mass M0."""
        families = tuple(families)
        for fam in families:
            if fam not in INDEX_FAMILIES:
                raise ValueError(f"unknown index family {fam!r}")
        forgetting = any(fam.endswith("_lambda") for fam in families)
        if forgetting and not (0.0 < lam < 1.0):
            raise ValueError("forgetting variants need lam in (0, 1)")
        plain = any(not fam.endswith("_lambda") for fam in families)
        return cls(
            families=families,
            plain=new_accumulators(k, p, M0=M0) if plain else None,
            forgetting=new_accumulators(k, p, lam=lam, M0=M0) if forgetting else None,
            h=0.0,
            n=n0,
        )

    @property
    def accumulators(self) -> tuple[Accumulators, ...]:
        return tuple(a for a in (self.plain, self.forgetting) if a is not None)

    def float_count(self) -> int:
        return 2 + sum(a.float_count() for a in self.accumulators)  # + h, n

    def step(self, V_old: PrototypeSet, V_new: PrototypeSet, u: MembershipVector,
             x: np.ndarray) -> tuple["IndexSet", dict[str, IndexValue]]:
        """Advance by one clustering step; returns the new state and each
        family's value. Clusters born this step (V_new.k above the current k)
        get empty accumulators first; ``x`` must be a finite (p,) array."""
        k = V_new.k
        plain, forgetting = (
            None if a is None
            else update_dispersion(grow(a, k), V_old.centers, V_new.centers, u.u, x)
            for a in (self.plain, self.forgetting)
        )
        n = self.n + 1
        if k >= 2:
            gaps = np.where(_offdiag(k), pairwise_sq_distances(V_new.centers), np.inf)
            h = float(gaps.min())
            if h <= 0.0:
                log.debug("DB undefined at n=%d: coincident centers", n)
                gaps = None
        else:
            d = V_new[0] - x
            h = max(self.h, float(d @ d))
            gaps = None
        values = {}
        for fam in self.families:
            acc = forgetting if fam.endswith("_lambda") else plain
            val = _xb_value(acc, h, n) if fam.startswith("xb") else _db_value(acc, gaps, n)
            # Overflow in the accumulators reads out as inf or nan: undefined.
            values[fam] = val if math.isfinite(val.value) else _undefined(n, k)
        return IndexSet(self.families, plain, forgetting, h, n), values
