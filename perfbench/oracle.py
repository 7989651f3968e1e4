"""Independent checks of a run's trace output.

``check_engine_trace`` re-drives the public clusterer (``skmeans_init/step``
or ``oec_init/step``) on the same input and keeps every membership vector and
center snapshot. At checkpoints it recomputes every enabled index by direct
summation over the whole history and compares it with the engine's trace row.
Two engine conventions are modelled explicitly:

  * "paper" warm-up seeding: each initial cluster starts with membership mass
    n0 (the warm-up count), which is exactly a phantom point of mass
    n0 * lam**t fixed at that cluster's starting center;
  * OEC births: a newborn cluster has zero membership before and at its birth
    step (the clusterer zero-pads u), so it starts from empty accumulators.

For sequential k-means the prototypes are also checked to be the exact
running means of their assigned points. ``check_golden`` compares a seed-0
run with a committed trace.

Each comparison is one check; a run is correct when no check fails.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
GOLDEN_REL_TOL = 1e-12
N_CHECKPOINTS = 256


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def parse_trace(text: str) -> dict:
    """Trace CSV -> {n: (k, {family: float or None})}; empty cell is None."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    families = header[2:6]
    rows = {}
    for row in reader:
        values = {fam: (float(cell) if cell else None)
                  for fam, cell in zip(families, row[2:6])}
        rows[int(row[0])] = (int(row[1]), values)
    return rows


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _close(a, b, tol: float) -> bool:
    """Both undefined, or both defined and within tol relative."""
    if a is None or b is None:
        return a is None and b is None
    return _rel(a, b) <= tol


@dataclass
class Redrive:
    n0: int                # warm-up points consumed before the first trace row
    V0: np.ndarray         # centers right after warm-up, (k0, p)
    U: np.ndarray          # memberships per evaluated point, zero-padded (n_eval, k_max)
    ks: np.ndarray         # cluster count after each step
    Vs: list               # centers after each step, (k_t, p)
    d1: np.ndarray         # ||v_1 - x||^2 while k == 1 (the k=1 XB separation)


def redrive(X: np.ndarray, workload) -> Redrive:
    from streamcvi.oec import OecConfig, oec_init, oec_step
    from streamcvi.skmeans import skmeans_init, skmeans_step

    p = X.shape[1]
    if workload.algorithm == "skmeans":
        n0 = workload.k
        state = skmeans_init(list(X[:n0]))
        V0 = state.V.copy()

        def step(s, x):
            return skmeans_step(s, x)
    else:
        n0 = p + 1
        cfg = OecConfig()
        state = oec_init(list(X[:n0]), cfg)
        V0 = state.centers().centers.copy()

        def step(s, x):
            return oec_step(s, x, cfg)[:4]
    us, ks, Vs, d1 = [], [], [], []
    for x in X[n0:]:
        state, u, _, V_new = step(state, x)
        V = V_new.centers
        us.append(u.u)
        ks.append(V.shape[0])
        Vs.append(V)
        d = V[0] - x
        d1.append(float(d @ d) if V.shape[0] == 1 else np.nan)
    U = np.zeros((len(us), max(ks)))
    for t, u in enumerate(us):
        U[t, :u.shape[0]] = u
    return Redrive(n0=n0, V0=V0, U=U, ks=np.array(ks), Vs=Vs, d1=np.array(d1))


def checkpoints(n_eval: int, ks: np.ndarray | None = None) -> list[int]:
    """Evenly spaced evaluated-point indices, the last one, and each cluster
    birth with the step after it."""
    cps = set(np.linspace(0, n_eval - 1, N_CHECKPOINTS).astype(int).tolist())
    if ks is not None:
        for t in np.flatnonzero(np.diff(ks)) + 1:
            cps.update(int(s) for s in (t, t + 1) if s < n_eval)
    return sorted(cps)


def direct_values(X, rd: Redrive, t: int, indices, lam: float) -> dict:
    """Every enabled index at evaluated point t by direct summation.

    Returns {family: value or None}; None marks an undefined value.
    """
    k = int(rd.ks[t])
    n = rd.n0 + t + 1
    V = rd.Vs[t]
    Xh = X[rd.n0:n]
    U2 = rd.U[:t + 1, :k] ** 2
    d2 = np.sum((Xh[:, None, :] - V[None, :, :]) ** 2, axis=2)
    k0 = rd.V0.shape[0]
    drift2 = np.sum((rd.V0 - V[:k0]) ** 2, axis=1)
    diff = V[:, None, :] - V[None, :, :]
    cd2 = np.einsum("ijk,ijk->ij", diff, diff)
    off = ~np.eye(k, dtype=bool)

    out = {}
    for fam in indices:
        lf = lam if fam.endswith("_lambda") else 1.0
        w = lf ** np.arange(t, -1, -1, dtype=float)[:, None]
        C = np.sum(w * U2 * d2, axis=0)
        M = np.sum(w * U2, axis=0)
        phantom = rd.n0 * lf ** (t + 1)
        C[:k0] += phantom * drift2
        M[:k0] += phantom
        if fam.startswith("xb"):
            h = float(np.min(cd2[off])) if k >= 2 else float(np.max(rd.d1[:t + 1]))
            if h <= 0.0:
                out[fam] = None
            elif lf == 1.0:
                out[fam] = float(np.sum(C)) / (n * h)
            else:
                out[fam] = (1.0 - lf) * float(np.sum(C)) / h
        else:
            if k < 2 or np.any(cd2[off] == 0.0):
                out[fam] = None
                continue
            if lf == 1.0:
                L = np.where(M > 0.0, C / np.where(M > 0.0, M, 1.0), 0.0)
            else:
                L = C / np.maximum(1.0, M)
            ratios = (L[:, None] + L[None, :]) / np.where(off, cd2, np.inf)
            out[fam] = float(np.mean(np.max(np.where(off, ratios, -np.inf), axis=1)))
    return out


def check_engine_trace(X: np.ndarray, workload, rows: dict) -> Tally:
    """Compare a run's trace rows with the direct-summation oracle."""
    tally = Tally()
    per_checkpoint = 1 + len(workload.indices) + (
        workload.k if workload.algorithm == "skmeans" else 0)
    planned = len(checkpoints(X.shape[0] - 1)) * per_checkpoint
    try:
        rd = redrive(X, workload)
        n_eval = rd.U.shape[0]
        tally.check(sorted(rows) == list(range(rd.n0 + 1, rd.n0 + n_eval + 1)))
        for t in checkpoints(n_eval, rd.ks):
            n = rd.n0 + t + 1
            k_row, got = rows.get(n, (None, {}))
            tally.check(k_row == int(rd.ks[t]))
            want = direct_values(X, rd, t, workload.indices, workload.lam)
            for fam in workload.indices:
                tally.check(n in rows and _close(got.get(fam), want[fam], REL_TOL))
            if workload.algorithm == "skmeans":
                # Each prototype is the mean of its seed point and every point
                # assigned to it so far (memberships are one-hot).
                Uh = rd.U[:t + 1]
                means = (X[:rd.n0] + Uh.T @ X[rd.n0:n]) / (1.0 + Uh.sum(axis=0))[:, None]
                for v, m in zip(rd.Vs[t], means):
                    tally.check(float(np.max(np.abs(v - m))) <= REL_TOL * float(np.max(np.abs(m))))
    except Exception as exc:  # the clusterer itself failed: every remaining check fails
        print(f"oracle: {type(exc).__name__}: {exc}")
        missing = max(planned - tally.attempted, 1)
        tally.attempted += missing
        tally.failed += missing
    return tally


def check_golden(rows: dict, golden_path) -> Tally:
    """Trace rows against a committed trace: same rows, k exact, each value
    within GOLDEN_REL_TOL relative, empty cells matching exactly."""
    tally = Tally()
    try:
        golden = parse_trace(golden_path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"golden: {exc}")
        tally.check(False)
        return tally
    tally.check(sorted(golden) == sorted(rows))
    for n, (k, values) in golden.items():
        k_row, got = rows.get(n, (None, {}))
        tally.check(k_row == k)
        for fam, want in values.items():
            tally.check(n in rows and _close(got.get(fam), want, GOLDEN_REL_TOL))
    return tally
