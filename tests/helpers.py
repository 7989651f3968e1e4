"""Checks shared by several test modules."""

from __future__ import annotations

import numpy as np

from streamcvi.core import MembershipVector

MEMBERSHIP_SUM_TOL = 1e-12


def validate_membership(u: MembershipVector) -> str | None:
    """Return None when the membership vector is valid, else a violation message."""
    if u.u.shape[0] == 0:
        raise ValueError("membership vector is empty")
    vec = u.u
    if np.any(vec < 0.0) or np.any(vec > 1.0):
        return "entry outside [0, 1]"
    if u.kind == "crisp":
        ones = np.sum(vec == 1.0)
        zeros = np.sum(vec == 0.0)
        if ones != 1 or zeros != vec.shape[0] - 1:
            return "crisp vector is not one-hot"
        return None
    if abs(float(np.sum(vec)) - 1.0) > MEMBERSHIP_SUM_TOL:
        return "sum != 1"
    return None
