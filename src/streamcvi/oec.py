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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from .core import MembershipVector, PrototypeSet, as_vector

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OecConfig:
    gamma_out: float = 0.999
    n_s: int = 20
    lambda_oec: float = 0.9
    harden: bool = False  # report one-hot memberships instead of fuzzy ones

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
    return float(stats.chi2.ppf(gamma, df=p_dof))


@dataclass(frozen=True)
class EllipsoidalPrototype:
    m: np.ndarray       # mean
    cov: np.ndarray     # maintained covariance estimate
    S_inv: np.ndarray   # inverse covariance used for distances
    count: int          # samples absorbed
    W: float            # accumulated membership mass
    n_s: int

    @property
    def p(self) -> int:
        return self.m.shape[0]

    @property
    def stabilized(self) -> bool:
        return self.count >= self.n_s


def mahalanobis_sq(x, proto: EllipsoidalPrototype) -> float:
    d = as_vector(x, proto.p) - proto.m
    val = float(d @ proto.S_inv @ d)
    if val < 0.0:
        raise RuntimeError(
            f"negative Mahalanobis distance ({val:.3e}): inverse covariance lost "
            "positive-definiteness"
        )
    return val


def _membership_from_distances(F: np.ndarray) -> MembershipVector:
    k = F.shape[0]
    u = np.zeros(k)
    zero = np.flatnonzero(F == 0.0)
    if zero.size > 0:
        u[zero[0]] = 1.0
        return MembershipVector(u, kind="fuzzy")
    # u_i = [sum_j (F_i / F_j)^2]^-1, computed via inverse squares for stability
    inv2 = 1.0 / (F * F)
    u = inv2 / np.sum(inv2)
    return MembershipVector(u, kind="fuzzy")


def oec_membership(x, protos) -> MembershipVector:
    """Fuzzy k-means memberships over squared Mahalanobis distances (fuzzifier m=2).

    A zero distance yields a one-hot vector at the lowest zero-distance index.
    """
    F = np.array([mahalanobis_sq(x, pr) for pr in protos])
    return _membership_from_distances(F)


def _regularize(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Invert a covariance estimate, nudging it back to PD when needed."""
    p = cov.shape[0]
    cov = 0.5 * (cov + cov.T)
    regularized = False
    for _ in range(40):
        try:
            L = np.linalg.cholesky(cov)
            if np.min(np.diag(L)) ** 2 >= 1e-10:
                break
        except np.linalg.LinAlgError:
            pass
        delta = 1e-6 * max(np.trace(cov) / p, 1e-6)
        cov = cov + delta * np.eye(p)
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

    def covariance(self) -> np.ndarray:
        if self.W <= 1.0:
            return np.eye(self.m.shape[0])
        return self.S / self.W


@dataclass(frozen=True)
class OecState:
    protos: tuple[EllipsoidalPrototype, ...]
    forget: _ForgetfulStats
    outside_streak: int = 0
    chi2_out: float = 0.0

    @property
    def k(self) -> int:
        return len(self.protos)

    @property
    def p(self) -> int:
        return self.protos[0].p

    def centers(self) -> PrototypeSet:
        return PrototypeSet(np.stack([pr.m for pr in self.protos]))


def _prototype_from_stats(m, cov, count, n_s) -> tuple[EllipsoidalPrototype, bool]:
    cov, S_inv, reg = _regularize(cov)
    proto = EllipsoidalPrototype(
        m=m, cov=cov, S_inv=S_inv, count=count, W=float(count), n_s=n_s
    )
    return proto, reg


def oec_init(first_points, config: OecConfig) -> OecState:
    """Build the single starting prototype from the first p+1 stream points."""
    X = np.stack([as_vector(x) for x in first_points])
    p = X.shape[1]
    if X.shape[0] != p + 1:
        raise ValueError(f"initialization needs exactly p+1 = {p + 1} points")
    m = X.mean(axis=0)
    cov = np.cov(X, rowvar=False, bias=False)
    cov = np.atleast_2d(cov)
    proto, _ = _prototype_from_stats(m, cov, count=p + 1, n_s=config.n_s)
    forget = _ForgetfulStats(m=m.copy(), S=cov * (p + 1), W=float(p + 1))
    return OecState(
        protos=(proto,),
        forget=forget,
        chi2_out=chi2_inverse(p, config.gamma_out),
    )


def _update_prototype(proto: EllipsoidalPrototype, x: np.ndarray, u: float):
    """Membership-weighted recursive mean/covariance update."""
    if u <= 0.0:
        return proto, False
    W_new = proto.W + u
    d = x - proto.m
    m_new = proto.m + (u / W_new) * d
    S = proto.cov * proto.W  # scatter sum, implied by the stored covariance
    S_new = S + u * (proto.W / W_new) * np.outer(d, d)
    cov_new = S_new / W_new
    cov_new, S_inv, reg = _regularize(cov_new)
    new = EllipsoidalPrototype(
        m=m_new, cov=cov_new, S_inv=S_inv, count=proto.count, W=W_new, n_s=proto.n_s
    )
    return new, reg


def oec_step(state: OecState, x_new, config: OecConfig):
    """Process one point: memberships, prototype updates, creation test.

    Returns (state', u, V_old, V_new, events). When a cluster is created this
    step, u is zero-padded for it and its V_old row equals its V_new row, so
    index states see no spurious center motion for the newborn.
    """
    x = as_vector(x_new, state.p)
    events: list[tuple[str, str]] = []

    F = np.array([mahalanobis_sq(x, pr) for pr in state.protos])
    u = _membership_from_distances(F)
    u_rep = u
    if config.harden:
        hard = np.zeros(u.k)
        hard[int(np.argmax(u.u))] = 1.0
        u_rep = MembershipVector(hard, kind="crisp")

    V_old = state.centers()

    protos = []
    winner = int(np.argmax(u.u))
    for i, proto in enumerate(state.protos):
        # The outlier boundary shields a stabilized prototype from points far
        # outside it; such points only feed the forgetful prototype.
        if proto.stabilized and F[i] > state.chi2_out:
            protos.append(proto)
            continue
        updated, reg = _update_prototype(proto, x, float(u.u[i]))
        if i == winner:
            updated = replace(updated, count=updated.count + 1)
        if reg:
            events.append(("covariance_regularized", f"cluster {i}"))
        protos.append(updated)

    forget = state.forget.updated(x, config.lambda_oec)

    # New-cluster test: suppressed while any cluster is still stabilizing.
    streak = state.outside_streak
    created = False
    if all(pr.stabilized for pr in protos):
        outside_all = all(
            mahalanobis_sq(forget.m, pr) > state.chi2_out for pr in protos
        )
        streak = streak + 1 if outside_all else 0
        if streak >= config.n_s:
            newborn, reg = _prototype_from_stats(
                forget.m.copy(), forget.covariance(), count=state.p + 1,
                n_s=config.n_s,
            )
            protos.append(newborn)
            if reg:
                events.append(("covariance_regularized", f"cluster {len(protos) - 1}"))
            events.append(("cluster_created", f"k={len(protos)}"))
            created = True
            streak = 0
            forget = _ForgetfulStats(
                m=x.copy(), S=np.zeros((state.p, state.p)), W=1.0
            )
    else:
        streak = 0

    new_state = OecState(
        protos=tuple(protos),
        forget=forget,
        outside_streak=streak,
        chi2_out=state.chi2_out,
    )
    V_new = new_state.centers()
    if created:
        # Newborn's "old" center equals its new center; membership padded with 0.
        V_old = PrototypeSet(np.vstack([V_old.centers, V_new.centers[-1:]]))
        u_rep = MembershipVector(np.append(u_rep.u, 0.0), kind=u_rep.kind)
    return new_state, u_rep, V_old, V_new, events
