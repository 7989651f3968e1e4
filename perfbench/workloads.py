"""Benchmark workloads: seeded input streams plus the engine configuration.

Every workload is a closed loop over one pre-generated CSV: a single caller
thread pushes each point into a ``StreamEngine`` as soon as the previous push
returns. The program under test only ever sees the CSV. The CSVs are kept
short (about one to three seconds per pass) because a run replays its CSV as
many times as fit, and more repeats filter out more machine noise.

Why these three:

  skm-k11-s2      sequential k-means, k=11, all four indices: the index layer
                  (cvi + dispersion) dominates push time.
  oec-s3          the only workload that runs the ellipsoidal clusterer, with
                  mid-stream cluster births and undefined values while k=1.
  skm-k2-p8-long  sequential k-means, k=2, one index, p=8: the lightest
                  per-point work, so ingestion, trace writing, engine overhead
                  and the O(n) in-memory output lists take their largest share.

With seed 0, skm-k11-s2 and oec-s3 are exactly the committed scenarios
s2-skmeans-k11 and s3-oec, whose traces serve as goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str            # "s2", "s3" (repo generators) or "p8" (generated here)
    algorithm: str
    k: int
    indices: tuple[str, ...]
    lam: float = 0.9
    golden: str | None = None  # committed trace of the seed-0 run

    def config_kwargs(self) -> dict:
        return {"algorithm": self.algorithm, "k": self.k,
                "indices": list(self.indices), "lam": self.lam}


WORKLOADS = {
    w.name: w for w in (
        Workload("skm-k11-s2", "s2", algorithm="skmeans", k=11,
                 indices=("xb", "xb_lambda", "db", "db_lambda"),
                 golden="results/traces/s2-skmeans-k11.trace.csv"),
        Workload("oec-s3", "s3", algorithm="oec", k=2,
                 indices=("xb_lambda", "db_lambda"),
                 golden="results/traces/s3-oec.trace.csv"),
        Workload("skm-k2-p8-long", "p8", algorithm="skmeans", k=2,
                 indices=("xb_lambda",)),
    )
}

P8_POINTS = 10_000
P8_DIM = 8


def gen_p8_modes(seed: int, n: int = P8_POINTS, p: int = P8_DIM) -> np.ndarray:
    """Unit-variance Gaussian modes in p dimensions whose mean jumps to a new
    random location every 200-500 points."""
    rng = np.random.default_rng(seed)
    blocks, total = [], 0
    while total < n:
        length = int(rng.integers(200, 501))
        mean = rng.normal(0.0, 4.0, size=p)
        blocks.append(mean + rng.normal(size=(length, p)))
        total += length
    return np.concatenate(blocks)[:n]


def make_input(workload: Workload, seed: int) -> np.ndarray:
    """The workload's points as an (n, p) array."""
    if workload.dataset == "p8":
        return gen_p8_modes(seed)
    from streamcvi import datagen

    return datagen.GENERATORS[workload.dataset](seed).X()


def write_csv(X: np.ndarray, path) -> None:
    """One point per line, coordinates as shortest round-trip floats, so the
    engine reads back exactly the generated values."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        for row in X:
            fh.write(",".join(repr(float(c)) for c in row) + "\n")
