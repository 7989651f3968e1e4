"""Per-point records (stream points, clusterer step results) and the boundary checks.

Every per-point record in the package is an immutable ``typing.NamedTuple``:
cheap to build, with ``._replace`` and tuple equality. None of them checks its
fields; the engine boundary (``as_vector`` in ``StreamEngine.push``) and
``read_stream`` do.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np


def is_integer(v) -> bool:
    """True for an integer, numpy's included, that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def all_finite(v: np.ndarray) -> bool:
    """True when every entry of ``v`` is finite.

    An exact test of each entry: unlike a sum, it cannot overflow, so finite
    input never raises a floating-point warning. ``isfinite`` gives one byte
    per entry, and searching those bytes for a zero (False) costs less than
    a numpy reduction on the short arrays of a step.
    """
    return b"\0" not in np.isfinite(v).tobytes()


def as_vector(x) -> np.ndarray:
    """Coerce to a finite, non-empty 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError(f"expected a non-empty 1-d vector, got shape {v.shape}")
    if not all_finite(v):
        raise ValueError("vector has non-finite coordinates")
    return v


class StreamPoint(NamedTuple):
    """A single observation's (p,) feature vector: a read-only row of the
    array ``read_stream`` built and checked finite."""

    x: np.ndarray


class MembershipVector(NamedTuple):
    """A step's (k,) memberships over k clusters, as a clusterer step returns them."""

    u: np.ndarray


class PrototypeSet(NamedTuple):
    """A step's (k, p) cluster centers, as a clusterer step returns them."""

    centers: np.ndarray

