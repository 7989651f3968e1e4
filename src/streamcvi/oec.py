"""Simplified online ellipsoidal clustering.

Each cluster is an ellipsoidal prototype (mean, inverse covariance) with a
chi-squared Mahalanobis outlier boundary. Soft memberships come from the
fuzzy k-means formula over squared Mahalanobis distances. A separate
forgetful prototype tracks the recent stream with exponential decay; when its
center stays outside every stabilized cluster's outlier boundary for a full
stabilization period, a new cluster is spawned from it.

This is deliberately a reduced algorithm: no merging, no guard-zone geometry
beyond the outlier ellipsoid. The clustering interface (step in, memberships
and center snapshots out) isolates it so a richer clusterer can be swapped in.

scipy is needed only for the chi-squared quantile of the outlier boundary, so
it is imported when the first OEC state is built, not with this module:
sequential k-means runs load numpy and the standard library alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MembershipVector, PrototypeSet

@dataclass(frozen=True)
class OecConfig:
    gamma_out: float = 0.999
    n_s: int = 20
    lambda_oec: float = 0.9

    def __post_init__(self):
        if not (0.0 < self.gamma_out < 1.0):
            raise ValueError("need 0 < gamma_out < 1")
        if not (0.0 < self.lambda_oec < 1.0):
            raise ValueError("lambda_oec must be in (0, 1)")
        if self.n_s < 1:
            raise ValueError("stabilization period must be positive")


def chi2_inverse(p_dof: int, gamma: float) -> float:
    """Quantile of the chi-squared distribution with p_dof degrees of freedom."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if p_dof < 1:
        raise ValueError("degrees of freedom must be a positive integer")
    # scipy.stats.chi2.ppf computes this same expression. scipy.special is
    # imported here, on the first call (from oec_init), so that importing
    # streamcvi and running sequential k-means never load scipy.
    from scipy import special

    return float(2.0 * special.gammaincinv(p_dof / 2, gamma))


def mahalanobis_sq(x: np.ndarray, m: np.ndarray, S_inv: np.ndarray) -> np.ndarray:
    """(k,) squared Mahalanobis distances of a (p,) point to k prototypes with
    (k, p) means and (k, p, p) inverse covariances."""
    D = x - m
    F = np.einsum("ij,ijk,ik->i", D, S_inv, D)
    if np.minimum.reduce(F) < 0.0:
        raise RuntimeError(
            f"negative Mahalanobis distance ({F.min():.3e}): inverse covariance lost "
            "positive-definiteness"
        )
    return F


def oec_membership(F: np.ndarray) -> np.ndarray:
    """Fuzzy k-means memberships (fuzzifier m=2) from (k,) squared Mahalanobis
    distances. A zero distance yields a one-hot vector at the lowest
    zero-distance index.
    """
    zero = np.flatnonzero(F == 0.0)
    if zero.size > 0:
        u = np.zeros(F.shape[0])
        u[zero[0]] = 1.0
        return u
    # u_i = [sum_j (F_i / F_j)^2]^-1, computed via inverse squares for stability
    inv2 = 1.0 / (F * F)
    return inv2 / np.sum(inv2)


def _regularize(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Invert a covariance estimate, nudging it back to PD when needed.

    The pivot floor and the nudge are both relative to the mean variance
    trace/p, so a rank-deficient estimate is caught at any scale. A zero
    covariance has no scale of its own and becomes 1e-6 * I.
    """
    p = cov.shape[0]
    cov = 0.5 * (cov + cov.T)
    regularized = False
    for _ in range(40):
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
    S_inv = np.linalg.inv(cov)
    S_inv = 0.5 * (S_inv + S_inv.T)
    return cov, S_inv, regularized


@dataclass(frozen=True)
class _ForgetfulStats:
    """Exponentially decayed mean/scatter tracking the most recent stream."""

    m: np.ndarray
    S: np.ndarray   # decayed scatter sum
    W: float        # decayed mass

    def updated(self, x: np.ndarray, lam: float) -> "_ForgetfulStats":
        W_new = lam * self.W + 1.0
        d = x - self.m
        m_new = self.m + d / W_new
        S_new = lam * self.S + (lam * self.W / W_new) * np.outer(d, d)
        return _ForgetfulStats(m=m_new, S=S_new, W=W_new)


@dataclass(frozen=True)
class OecState:
    """Every cluster is one row of the arrays below.

    Treated as an immutable value: a step copies the arrays it writes, so
    states and the center snapshots taken from them may share the others.
    """

    m: np.ndarray        # (k, p) means
    cov: np.ndarray      # (k, p, p) maintained covariance estimates
    S_inv: np.ndarray    # (k, p, p) inverse covariances used for distances
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
        rows = self.m.size + self.cov.size + self.S_inv.size + self.count.size + self.W.size
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
    cov_reg, S_inv, _ = _regularize(cov)
    return OecState(
        m=m[None, :], cov=cov_reg[None], S_inv=S_inv[None],
        count=np.array([p + 1]), W=np.array([float(p + 1)]),
        forget=_ForgetfulStats(m=m.copy(), S=cov * (p + 1), W=float(p + 1)),
        chi2_out=chi2_inverse(p, config.gamma_out),
    )


def oec_step(state: OecState, x_new, config: OecConfig):
    """Process one point: memberships, prototype updates, creation test.

    Returns (state', u, V_old, V_new, events). When a cluster is created this
    step, u is zero-padded for it and its V_old row equals its V_new row, so
    index states see no spurious center motion for the newborn.
    """
    x = np.asarray(x_new, dtype=float)
    if x.shape != (state.p,):
        raise ValueError(f"expected a ({state.p},) vector, got shape {x.shape}")
    events: list[tuple[str, str]] = []

    F = mahalanobis_sq(x, state.m, state.S_inv)
    u = oec_membership(F)
    winner = int(np.argmax(u))

    # The outlier boundary shields a stabilized prototype from points far
    # outside it; such points only feed the forgetful prototype.
    shielded = (state.count >= config.n_s) & (F > state.chi2_out)
    count = state.count
    if not shielded[winner]:
        count = count.copy()
        count[winner] += 1

    m, cov, S_inv, W = state.m, state.cov, state.S_inv, state.W
    rows = np.flatnonzero(~shielded & (u > 0.0))
    if rows.size:
        m, cov, S_inv, W = m.copy(), cov.copy(), S_inv.copy(), W.copy()
    for i in rows:
        # Membership-weighted recursive mean/covariance update; the scatter
        # sum is implied by the stored covariance.
        ui = u[i]
        W_new = W[i] + ui
        d = x - m[i]
        m[i] = m[i] + (ui / W_new) * d
        S_new = cov[i] * W[i] + ui * (W[i] / W_new) * np.outer(d, d)
        cov[i], S_inv[i], reg = _regularize(S_new / W_new)
        W[i] = W_new
        if reg:
            events.append(("covariance_regularized", f"cluster {i}"))

    forget = state.forget.updated(x, config.lambda_oec)

    # New-cluster test: suppressed while any cluster is still stabilizing.
    streak = 0
    created = False
    if (count >= config.n_s).all():
        outside_all = (mahalanobis_sq(forget.m, m, S_inv) > state.chi2_out).all()
        streak = state.outside_streak + 1 if outside_all else 0
        if streak >= config.n_s:
            # forget was just updated from W >= 1, so its mass W exceeds 1.
            cov_b, S_inv_b, reg = _regularize(forget.S / forget.W)
            m = np.vstack([m, forget.m])
            cov = np.concatenate([cov, cov_b[None]])
            S_inv = np.concatenate([S_inv, S_inv_b[None]])
            count = np.append(count, state.p + 1)
            W = np.append(W, float(state.p + 1))
            if reg:
                events.append(("covariance_regularized", f"cluster {len(m) - 1}"))
            events.append(("cluster_created", f"k={len(m)}"))
            created = True
            streak = 0
            forget = _ForgetfulStats(m=x.copy(), S=np.zeros((state.p, state.p)), W=1.0)

    new_state = OecState(
        m=m, cov=cov, S_inv=S_inv, count=count, W=W,
        forget=forget, outside_streak=streak, chi2_out=state.chi2_out,
    )
    V_old = state.m
    if created:
        # Newborn's "old" center equals its new center; membership padded with 0.
        V_old = np.vstack([V_old, m[-1:]])
        u = np.append(u, 0.0)
    return new_state, MembershipVector(u), PrototypeSet(V_old), new_state.centers(), events
