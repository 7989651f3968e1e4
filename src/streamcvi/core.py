"""Shared domain types: stream points, membership vectors, prototype sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _all_finite(v: np.ndarray) -> bool:
    # A non-finite entry always poisons the sum (inf - inf gives nan).
    return math.isfinite(float(v.sum()))


def as_vector(x, p: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally checking its dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if p is not None and v.shape[0] != p:
        raise ValueError(f"expected dimension {p}, got {v.shape[0]}")
    if not _all_finite(v):
        raise ValueError("vector has non-finite coordinates")
    return v


@dataclass(frozen=True)
class StreamPoint:
    """A single observation: 1-based sequence index plus feature vector."""

    n: int
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))
        if self.n < 1:
            raise ValueError("sequence index is 1-based")

    @property
    def p(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class MembershipVector:
    """Per-sample assignment over k clusters, crisp (one-hot) or fuzzy."""

    u: np.ndarray
    kind: str = "fuzzy"  # "crisp" | "fuzzy"

    def __post_init__(self):
        object.__setattr__(self, "u", as_vector(self.u))
        if self.kind not in ("crisp", "fuzzy"):
            raise ValueError(f"unknown membership kind {self.kind!r}")

    @property
    def k(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class PrototypeSet:
    """Ordered cluster centers as a (k, p) array."""

    centers: np.ndarray = field()

    def __post_init__(self):
        V = np.asarray(self.centers, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError(f"expected a (k, p) array with k >= 1, got shape {V.shape}")
        if not _all_finite(V):
            raise ValueError("centers have non-finite coordinates")
        object.__setattr__(self, "centers", V)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def p(self) -> int:
        return self.centers.shape[1]

    def __getitem__(self, i) -> np.ndarray:
        return self.centers[i]


@lru_cache(maxsize=128)
def _upper_triangle(k: int):
    return np.triu_indices(k, k=1)


def pairwise_sq_distances(C: np.ndarray) -> np.ndarray:
    """(k, k) squared Euclidean distances between the rows of a (k, p) array."""
    diff = C[:, None, :] - C[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def min_pairwise_center_distance_sq(V: PrototypeSet) -> float:
    """Minimum squared Euclidean distance over unordered pairs of centers."""
    if V.k < 2:
        raise ValueError("need at least two centers for a pairwise distance")
    return float(np.min(pairwise_sq_distances(V.centers)[_upper_triangle(V.k)]))
