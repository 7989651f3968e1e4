"""Per-sample orchestration: clustering step, then incremental index step.

The engine owns the warm-up handling (sequential k-means consumes the first k
points as prototypes; the ellipsoidal clusterer consumes the first p+1 points
for its initial prototype), grows every index state coherently when the
clusterer creates a cluster mid-stream, and records one trace row per
evaluated point plus an event log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import all_finite, as_vector, is_integer
from .cvi import INDEX_FAMILIES, IndexSet, check_families
from .oec import OecConfig, oec_init, oec_step
from .skmeans import skmeans_init, skmeans_step
from .stream_io import EventRecord, TraceRecord


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = "skmeans"               # "skmeans" | "oec"
    k: int = 2                               # sk-means only
    oec: OecConfig = field(default_factory=OecConfig)
    indices: tuple[str, ...] = INDEX_FAMILIES
    lam: float = 0.9                         # forgetting factor of *_lambda indices

    def __post_init__(self):
        if self.algorithm not in ("skmeans", "oec"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        check_families(self.indices, self.lam)
        if not is_integer(self.k) or (self.algorithm == "skmeans" and self.k < 1):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")


class ClustererError(ValueError):
    """The clusterer failed on a point: it raised ValueError (a non-finite
    distance or covariance estimate), or returned a non-finite membership or
    center. Names the algorithm and the point's 1-based stream index ``n``."""

    def __init__(self, algorithm: str, n: int, cause: Exception):
        super().__init__(f"{algorithm} clusterer failed at n={n}: {cause}")
        self.algorithm = algorithm
        self.n = n


class StreamEngine:
    """Single-pass engine over one stream. Feed points via push()."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._buffer: list[np.ndarray] = []
        self._cluster_state = None
        self._indices: IndexSet | None = None
        self._n = 0
        self.trace: list[TraceRecord] = []
        self.events: list[EventRecord] = []

    @property
    def n(self) -> int:
        return self._n

    def _warmup_target(self, p: int) -> int:
        if self.config.algorithm == "skmeans":
            return self.config.k
        return p + 1

    def push(self, x) -> TraceRecord | None:
        """Process one point; returns its trace row, or None during warm-up."""
        x = as_vector(x)
        if self._buffer and x.shape != self._buffer[0].shape:
            raise ValueError(f"point n={self._n + 1} has dimension {x.size}, but the "
                             f"first point has dimension {self._buffer[0].size}")
        self._n += 1
        cfg = self.config
        if self._cluster_state is None:
            self._buffer.append(x)
            if len(self._buffer) < self._warmup_target(x.shape[0]):
                return None
            p = x.shape[0]
            try:
                if cfg.algorithm == "skmeans":
                    self._cluster_state = skmeans_init(self._buffer)
                    k0 = cfg.k
                else:
                    self._cluster_state = oec_init(self._buffer, cfg.oec)
                    k0 = 1
            except ValueError as exc:
                raise ClustererError(cfg.algorithm, self._n, exc) from exc
            self._indices = IndexSet.start(cfg.indices, k0, p, lam=cfg.lam, n0=self._n)
            self._buffer = []
            return None

        try:
            if cfg.algorithm == "skmeans":
                self._cluster_state, u, V_old, V_new = skmeans_step(self._cluster_state, x)
                step_events = []
            else:
                self._cluster_state, u, V_old, V_new, step_events = oec_step(
                    self._cluster_state, x, cfg.oec
                )
            u, V_old, V_new = u.u, V_old.centers, V_new.centers
            if not (all_finite(u) and all_finite(V_new)):
                raise ValueError("memberships or centers are not finite")
        except ValueError as exc:
            raise ClustererError(cfg.algorithm, self._n, exc) from exc

        for kind, detail in step_events:
            self.events.append(EventRecord(n=self._n, kind=kind, detail=detail))

        self._indices, values = self._indices.step(V_old, V_new, u, x)
        clamped = self._indices.clamped
        if clamped:
            self.events.append(EventRecord(
                n=self._n, kind="dispersion_clamped",
                detail="lam=" + ",".join(repr(f) for f in clamped),
            ))
        for fam, value in values.items():
            if value is None:
                self.events.append(
                    EventRecord(n=self._n, kind="index_undefined", detail=fam)
                )
        record = TraceRecord(n=self._n, k=V_new.shape[0], values=values)
        self.trace.append(record)
        return record

    def state_float_count(self) -> int:
        """Number of scalar slots held by clustering + index state (not output)."""
        if self._cluster_state is None:
            return sum(b.size for b in self._buffer)
        return self._cluster_state.float_count() + self._indices.float_count()


def run(points, config: RunConfig, change_events=()) -> tuple[list, list]:
    """Process a whole stream; returns (trace records, event records).

    ``points`` are vectors or an (n, p) array; ``change_events`` are
    ground-truth 1-based shift indices to log.
    """
    engine = StreamEngine(config)
    change_set = set(int(c) for c in change_events)
    for x in points:
        n_here = engine.n + 1
        if n_here in change_set:
            engine.events.append(
                EventRecord(n=n_here, kind="ground_truth_change", detail="")
            )
        engine.push(x)
    if engine._cluster_state is None:
        need = "k" if config.algorithm == "skmeans" else "p+1"
        raise ValueError(f"stream ended during warm-up (need more than {need} points)")
    return engine.trace, engine.events
