"""Simplified online ellipsoidal clustering.

Each cluster is an ellipsoidal prototype (mean, whitening matrix) with a
chi-squared Mahalanobis outlier boundary. Soft memberships come from the
fuzzy k-means formula over squared Mahalanobis distances. A separate
forgetful prototype tracks the recent stream with exponential decay; when its
center stays outside every stabilized cluster's outlier boundary for a full
stabilization period, a new cluster is spawned from it.

This is deliberately a reduced algorithm: no merging, no guard-zone geometry
beyond the outlier ellipsoid. The clustering interface (step in, memberships
and center snapshots out) isolates it so a richer clusterer can be swapped in.

The chi-squared quantile of the outlier boundary is computed here with the
standard library's math module, so OEC runs, like sequential k-means runs,
load numpy and the standard library alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import MembershipVector, PrototypeSet, all_finite, is_integer


class OecConfig:
    """The paper's OEC constants: the outlier boundary's chi-squared level
    gamma_out, the stabilization period n_s and the forgetful prototype's
    decay lambda_oec. oec_init and oec_step take an instance only because
    perfbench's oracle calls them that way."""

    gamma_out = 0.999
    n_s = 20
    lambda_oec = 0.9


def _log_chi2_tail(p_dof: int, x: float) -> float:
    """log Q(p_dof/2, x), the upper regularized incomplete gamma function at
    x > 0, from its finite sum: e^-x sum_{j<a} x^j / j! for an integer a =
    p_dof/2, and erfc(sqrt x) + e^-x sum_{j<a-1/2} x^(j+1/2) / Gamma(j+3/2)
    for a half-integer a. Each term is taken in logs, an erfc that underflows
    to 0 is left out, and the terms are added by math.fsum."""
    half = (p_dof % 2) / 2
    log_x = math.log(x)
    logs = [(j + half) * log_x - x - math.lgamma(j + half + 1.0) for j in range(p_dof // 2)]
    if half and (tail := math.erfc(math.sqrt(x))) > 0.0:
        logs.append(math.log(tail))
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(math.fsum([math.exp(t - top) for t in logs]))


def chi2_inverse(p_dof: int, gamma: float) -> float:
    """Upper-half quantile, gamma in (0.5, 1), of the chi-squared distribution
    with p_dof degrees of freedom.

    With a = p_dof/2, Q(a, x) is a finite sum (see _log_chi2_tail) that falls
    as x grows. Doubling from x = a brackets the x where log Q(a, x) crosses
    log(1 - gamma), bisection on doubles narrows the bracket to two adjacent
    floats, and the upper one, doubled, is returned. At p_dof = 2, where
    log Q = -x, that is -2 log(1 - gamma) exactly.
    """
    if not is_integer(p_dof) or p_dof < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {p_dof!r}")
    if not (0.5 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0.5, 1), got {gamma}")
    log_target = math.log1p(-gamma)
    lo, hi = 0.0, p_dof / 2
    while _log_chi2_tail(p_dof, hi) > log_target:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _log_chi2_tail(p_dof, mid) > log_target:
            lo = mid
        else:
            hi = mid
    return 2.0 * hi


def mahalanobis_sq(x: np.ndarray, m: np.ndarray, R: np.ndarray) -> np.ndarray:
    """(k,) squared Mahalanobis distances of a (p,) point to k prototypes with
    (k, p) means and (k, p, p) whitening matrices R: ||R_i (x - m_i)||^2 >= 0."""
    Z = np.matvec(R, x - m)
    return np.vecdot(Z, Z)


def oec_membership(F: np.ndarray) -> np.ndarray:
    """Fuzzy k-means memberships (fuzzifier m=2) from (k,) squared Mahalanobis
    distances. A zero distance yields a one-hot vector at the lowest
    zero-distance index.
    """
    low = np.minimum.reduce(F)
    if low == 0.0:  # argmin takes the first minimum: the lowest zero index
        u = np.zeros(F.shape[0])
        u[F.argmin()] = 1.0
        return u
    # u_i = [sum_j (F_i / F_j)^2]^-1, computed via inverse squares for stability
    # after scaling F exactly by a power of two (a subnormal F squares to 0)
    F = np.ldexp(F, -math.frexp(low)[1])
    inv2 = 1.0 / (F * F)
    return inv2 / np.add.reduce(inv2)


def _regularize(cov: np.ndarray) -> tuple[np.ndarray, bool]:
    """Whitening matrix R = inv(L) of a covariance estimate's Cholesky factor
    L, so that R^T R = cov^-1, nudging the estimate back to PD when needed.

    The pivot floor and the nudge are both relative to the mean variance
    trace/p, so a rank-deficient estimate is caught at any scale. A zero
    covariance has no scale of its own and becomes 1e-6 * I. A non-finite
    estimate, or one still not PD after 40 nudges, raises ValueError.
    """
    p = cov.shape[0]
    cov = 0.5 * (cov + cov.T)
    regularized = False
    for _ in range(40):
        # also catches an estimate that overflows when symmetrized or nudged
        if not all_finite(cov):
            raise ValueError("covariance estimate is not finite")
        scale = np.trace(cov) / p
        if not scale > 0.0:
            scale = 1.0
        try:
            L = np.linalg.cholesky(cov)
            if np.min(np.diag(L)) ** 2 >= 1e-10 * scale:
                break
        except np.linalg.LinAlgError:
            pass
        cov = cov + 1e-6 * scale * np.eye(p)
        regularized = True
    else:
        raise ValueError("covariance estimate is not positive definite after 40 nudges")
    return np.linalg.inv(L), regularized


class _ForgetfulStats(NamedTuple):
    """Exponentially decayed mean/scatter tracking the most recent stream."""

    m: np.ndarray
    S: np.ndarray   # decayed scatter sum
    W: float        # decayed mass

    def updated(self, x: np.ndarray, lam: float) -> "_ForgetfulStats":
        W_new = lam * self.W + 1.0
        d = x - self.m
        m_new = self.m + d / W_new
        S_new = lam * self.S + (lam * self.W / W_new) * (d[:, None] * d)
        return _ForgetfulStats(m_new, S_new, W_new)


class OecState(NamedTuple):
    """Every cluster is one row of the arrays below.

    Treated as an immutable value: a step copies the arrays it writes, so
    states and the center snapshots taken from them may share the others.
    """

    m: np.ndarray        # (k, p) means
    R: np.ndarray        # (k, p, p) whitening matrices, R_i^T R_i = cov_i^-1
    count: np.ndarray    # (k,) points won, init included
    W: np.ndarray        # (k,) accumulated membership mass
    forget: _ForgetfulStats
    outside_streak: int = 0
    chi2_out: float = 0.0

    @property
    def k(self) -> int:
        return self.m.shape[0]

    @property
    def p(self) -> int:
        return self.m.shape[1]

    def centers(self) -> PrototypeSet:
        return PrototypeSet(self.m)

    def float_count(self) -> int:
        rows = self.m.size + self.R.size + self.count.size + self.W.size
        return rows + self.forget.m.size + self.forget.S.size + 1


def oec_init(first_points, config: OecConfig) -> OecState:
    """Build the single starting prototype from the first p+1 stream points.

    The points were checked when pushed. Their mean and covariance are taken
    relative to the first point, so a constant warm-up gives exactly that
    point and 0, not rounding noise.
    """
    X = np.array(first_points, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1] + 1:
        raise ValueError(f"initialization needs p+1 points of dimension p, got shape {X.shape}")
    p = X.shape[1]
    D = X - X[0]
    m = X[0] + D.mean(axis=0)
    cov = np.atleast_2d(np.cov(D, rowvar=False, bias=False))
    R, _ = _regularize(cov)
    return OecState(
        m=m[None, :], R=R[None],
        count=np.array([p + 1]), W=np.array([float(p + 1)]),
        forget=_ForgetfulStats(m=m.copy(), S=cov * (p + 1), W=float(p + 1)),
        chi2_out=chi2_inverse(p, config.gamma_out),
    )


def oec_step(state: OecState, x_new, config: OecConfig):
    """Process one point: memberships, prototype updates, creation test.

    Returns (state', u, V_old, V_new, events). u and V_old cover the
    clusters that existed when x arrived; a cluster created this step is the
    last row of V_new alone.
    """
    x = np.asarray(x_new, dtype=float)
    if x.shape != (state.p,):
        raise ValueError(f"expected a ({state.p},) vector, got shape {x.shape}")
    events: list[tuple[str, str]] = []

    F = mahalanobis_sq(x, state.m, state.R)
    u = oec_membership(F)
    winner = int(u.argmax())

    # The outlier boundary shields a stabilized prototype from points far
    # outside it; such points only feed the forgetful prototype.
    shielded = (state.count >= config.n_s) & (F > state.chi2_out)
    count = state.count
    if not shielded[winner]:
        count = count.copy()
        count[winner] += 1

    m, R, W = state.m, state.R, state.W
    rows = (~shielded & (u > 0.0)).nonzero()[0]
    if rows.size:
        m, R, W = m.copy(), R.copy(), W.copy()
    for i in rows:
        # Membership-weighted update of mean and covariance, cov' = (W/W') (cov
        # + (u/W') d d^T), made on R by Sherman-Morrison: a positive rank-one
        # update, so R^T R stays positive definite.
        ui, Wi = float(u[i]), float(W[i])
        W_new = Wi + ui
        d = x - m[i]
        m[i] = m[i] + (ui / W_new) * d
        w = math.sqrt(ui / W_new) * (R[i] @ d)
        r = math.sqrt(1.0 + w @ w)
        R[i] = (R[i] - (w / (r * (r + 1.0)))[:, None] * (w @ R[i])) * math.sqrt(W_new / Wi)
        W[i] = W_new

    forget = state.forget.updated(x, config.lambda_oec)

    # New-cluster test: suppressed while any cluster is still stabilizing.
    streak = 0
    # A minimum at or past its bound puts every entry there; nan reads as "not all".
    if np.minimum.reduce(count) >= config.n_s:
        outside_all = np.minimum.reduce(mahalanobis_sq(forget.m, m, R)) > state.chi2_out
        streak = state.outside_streak + 1 if outside_all else 0
        if streak >= config.n_s:
            # forget was just updated from W >= 1, so its mass W exceeds 1.
            R_b, reg = _regularize(forget.S / forget.W)
            m = np.vstack([m, forget.m])
            R = np.concatenate([R, R_b[None]])
            count = np.append(count, state.p + 1)
            W = np.append(W, float(state.p + 1))
            if reg:
                events.append(("covariance_regularized", f"cluster {len(m) - 1}"))
            events.append(("cluster_created", f"k={len(m)}"))
            streak = 0
            forget = _ForgetfulStats(x.copy(), np.zeros((state.p, state.p)), 1.0)

    new_state = OecState(m, R, count, W, forget, streak, state.chi2_out)
    return new_state, MembershipVector(u), state.centers(), new_state.centers(), events
