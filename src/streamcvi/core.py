"""Shared domain types: stream points and the records a clusterer step returns."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


def is_integer(v) -> bool:
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def all_finite(v: np.ndarray) -> bool:
    """True when every entry of ``v`` is finite.

    One exact reduction over the entries: unlike a sum, it cannot overflow,
    so finite input never raises a floating-point warning.
    """
    return bool(np.logical_and.reduce(np.isfinite(v), axis=None))


def as_vector(x) -> np.ndarray:
    """Coerce to a finite, non-empty 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError(f"expected a non-empty 1-d vector, got shape {v.shape}")
    if not all_finite(v):
        raise ValueError("vector has non-finite coordinates")
    return v


@dataclass(frozen=True)
class StreamPoint:
    """A single observation's feature vector."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x))


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
    diff = C[:, None, :] - C
    return np.vecdot(diff, diff)

