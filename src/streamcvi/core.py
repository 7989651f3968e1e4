"""Shared domain types: stream points and the records a clusterer step returns."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """A step's (k,) memberships over k clusters, as a clusterer step returns them."""

    u: np.ndarray


@dataclass(frozen=True)
class PrototypeSet:
    """A step's (k, p) cluster centers, as a clusterer step returns them."""

    centers: np.ndarray


def pairwise_sq_distances(C: np.ndarray) -> np.ndarray:
    """(k, k) squared Euclidean distances between the rows of a (k, p) array."""
    diff = C[:, None, :] - C[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)

