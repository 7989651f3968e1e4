"""Randomized incremental-vs-batch equivalence checks.

Each trial builds a random stream (fuzzy Dirichlet memberships, centers on a
random walk), advances the same IndexSet the engine uses step by step, and at
every step recomputes each index from the stored history by direct summation
of the batch formulas. The direct summation is vectorized but never reuses any
incremental accumulator, so the two routes stay independent. Every step is
compared, undefined values included: a value only one side calls undefined
is an infinite error. batch_accumulators and index_value are the package's
only batch oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cvi import IndexSet, pairwise_sq_distances, update_dispersion

REL_TOL = 1e-8


def batch_accumulators(X, U, V, lam=1.0):
    """Direct summation of per-cluster dispersion C_i and mass M_i.

    X: (n, p) history, U: (n, k) memberships, V: (k, p) current centers.
    """
    n = X.shape[0]
    if n == 0:
        raise ValueError("history must be nonempty")
    w = lam ** (n - np.arange(1, n + 1))
    d2 = np.sum((X[:, None, :] - V[None, :, :]) ** 2, axis=2)
    U2 = U * U
    C = np.sum(w[:, None] * U2 * d2, axis=0)
    M = np.sum(w[:, None] * U2, axis=0)
    return C, M


def index_value(fam, C, M, V, n, lam=1.0, h=None):
    """Index ``fam`` read directly from per-cluster C and M (as
    batch_accumulators gives them, at lam for a forgetting variant), the
    (k, p) centers V and the point count n; None where IndexSet.step calls
    it undefined: coincident centers, k < 2 for DB, or a non-finite value.

    With k >= 2, XB's separation h is the minimum squared center gap; with
    k == 1 the caller passes it (the running max of ||v_1 - x||^2).
    """
    k = V.shape[0]
    off = ~np.eye(k, dtype=bool)
    D = pairwise_sq_distances(V)
    if k >= 2:
        h = float(np.min(D[off]))
    elif fam.startswith("db"):
        return None
    if h is None or h <= 0.0:
        return None
    forgetting = fam.endswith("_lambda")
    if fam.startswith("xb"):
        J = float(np.sum(C))
        value = (1.0 - lam) * J / h if forgetting else J / n / h
    else:
        if forgetting:
            L = C / np.maximum(1.0, M)
        else:  # a cluster with no mass yet has L = 0
            L = np.where(M > 0.0, C / np.where(M > 0.0, M, 1.0), 0.0)
        ratios = (L[:, None] + L[None, :]) / np.where(off, D, np.inf)
        value = float(np.mean(np.max(np.where(off, ratios, -np.inf), axis=1)))
    return value if math.isfinite(value) else None


def random_stream(rng, n, k, p, empty_cluster=False):
    """Random memberships and center trajectories for oracle trials.

    Returns (X, U, Vs) where Vs[t] holds the centers after step t+1 (Vs[0]
    is the starting configuration, so the step-t update moves Vs[t] -> Vs[t+1]).
    """
    X = rng.normal(0.0, 2.0, size=(n, p))
    U = rng.dirichlet(np.ones(k), size=n) if k > 1 else np.ones((n, 1))
    if empty_cluster and k > 1:
        # Redistribute the last cluster's mass so it never receives any; the
        # sums can round 1 ulp above 1, so clip them once, here, for every user.
        U[:, :-1] = np.minimum(U[:, :-1] + U[:, -1:] / (k - 1), 1.0)
        U[:, -1] = 0.0
    V0 = rng.normal(0.0, 3.0, size=(k, p))
    steps = rng.normal(0.0, 0.05, size=(n, k, p))  # center drift per step
    Vs = np.concatenate([V0[None], V0[None] + np.cumsum(steps, axis=0)])
    return X, U, Vs


@dataclass
class TrialReport:
    seed: int
    lam: float
    k: int
    p: int
    n: int
    max_rel_err: dict = field(default_factory=dict)  # family -> worst error
    worst_step: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e <= REL_TOL for e in self.max_rel_err.values())


def _rel(a: float | None, b: float | None) -> float:
    """Relative error of a against b; inf when exactly one is undefined."""
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b) / max(abs(b), 1e-300)


def run_trial(seed: int, k=None, lam=None, empty_cluster=False) -> TrialReport:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 250))
    k = k if k is not None else int(rng.integers(1, 12))
    p = int(rng.choice([2, 8]))
    lam = lam if lam is not None else float(rng.choice([1.0, 0.9, 0.5]))
    X, U, Vs = random_stream(rng, n, k, p, empty_cluster=empty_cluster)

    families = ("xb", "db") if lam == 1.0 else ("xb", "db", "xb_lambda", "db_lambda")
    indices = IndexSet.start(families, Vs[0], lam=lam)
    report = TrialReport(seed=seed, lam=lam, k=k, p=p, n=n)
    for fam in families:
        report.max_rel_err[fam] = 0.0
        report.worst_step[fam] = 0

    h = 0.0  # XB's separation while k == 1: the running max of ||v_1 - x||^2
    for t in range(1, n + 1):
        indices, values, _ = indices.step(Vs[t], U[t - 1], X[t - 1])
        d = Vs[t][0] - X[t - 1]
        h = max(h, float(d @ d))
        for fam, value in values.items():
            C, M = batch_accumulators(X[:t], U[:t], Vs[t],
                                      lam if fam.endswith("_lambda") else 1.0)
            err = _rel(value, index_value(fam, C, M, Vs[t], t, lam, h))
            if err > report.max_rel_err[fam]:
                report.max_rel_err[fam] = err
                report.worst_step[fam] = t
    return report


def lambda_one_consistency(seed: int, n=200, k=3, p=2) -> float:
    """Max |difference| in (D, mu, M) between one stacked accumulator update
    of k clusters at lam = 1 and 0.9 and 2*k independent one-row updates
    (one factor, one cluster) of the same rows. The shared update must treat
    each row on its own, across clusters and across factors, so the two
    agree exactly."""
    lam = (1.0, 0.9)
    rng = np.random.default_rng(seed)
    X, U, Vs = random_stream(rng, n, k, p)
    D, mu, M = np.zeros((2, k)), np.array([Vs[0]] * 2), np.zeros((2, k))
    rows = {(r, i): (np.zeros((1, 1)), Vs[0][None, i:i + 1], np.zeros((1, 1)))
            for r in range(2) for i in range(k)}
    worst = 0.0
    for t in range(1, n + 1):
        D, mu, M = update_dispersion(D, mu, M, lam, U[t - 1], X[t - 1])
        for r, f in enumerate(lam):
            for i in range(k):
                D1, mu1, M1 = rows[r, i] = update_dispersion(
                    *rows[r, i], (f,), U[t - 1][i:i + 1], X[t - 1]
                )
                worst = max(
                    worst,
                    abs(D[r, i] - D1[0, 0]),
                    abs(M[r, i] - M1[0, 0]),
                    float(np.max(np.abs(mu[r, i] - mu1[0, 0]))),
                )
    return worst


@dataclass
class VerificationReport:
    trials: list
    lambda_one_err: float

    @property
    def max_rel_err(self) -> dict:
        out: dict[str, float] = {}
        for tr in self.trials:
            for fam, err in tr.max_rel_err.items():
                out[fam] = max(out.get(fam, 0.0), err)
        return out

    @property
    def passed(self) -> bool:
        return all(tr.passed for tr in self.trials) and self.lambda_one_err == 0.0

    def failures(self):
        return [tr for tr in self.trials if not tr.passed]


def run_verification(n_trials: int = 100, seed: int = 0) -> VerificationReport:
    """``n_trials`` >= 1 trials, the last of which always has an empty cluster."""
    rng = np.random.default_rng(seed)
    *trial_seeds, empty_seed = rng.integers(0, 2**63 - 1, size=n_trials).tolist()
    trials = [run_trial(s) for s in trial_seeds]
    trials.append(run_trial(empty_seed, k=4, lam=1.0, empty_cluster=True))
    return VerificationReport(
        trials=trials,
        lambda_one_err=lambda_one_consistency(int(rng.integers(0, 2**63 - 1))),
    )
