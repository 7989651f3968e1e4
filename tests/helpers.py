"""Checks shared by several test modules."""

from __future__ import annotations

import numpy as np

MEMBERSHIP_SUM_TOL = 1e-12


def validate_membership(u: np.ndarray, crisp: bool = False) -> str | None:
    """Return None when the (k,) memberships are valid, one-hot if ``crisp``,
    else a violation message."""
    if u.shape[0] == 0:
        raise ValueError("membership vector is empty")
    if np.any(u < 0.0) or np.any(u > 1.0):
        return "entry outside [0, 1]"
    if crisp:
        ones = np.sum(u == 1.0)
        zeros = np.sum(u == 0.0)
        if ones != 1 or zeros != u.shape[0] - 1:
            return "crisp vector is not one-hot"
        return None
    if abs(float(np.sum(u)) - 1.0) > MEMBERSHIP_SUM_TOL:
        return "sum != 1"
    return None
