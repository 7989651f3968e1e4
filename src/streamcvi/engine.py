"""Per-sample orchestration: clustering step, then incremental index step.

The engine drives either clusterer through one table, ``_CLUSTERERS``, of
warm-up count (sequential k-means consumes the first k points as prototypes,
the ellipsoidal clusterer the first p+1 for its initial prototype), init and
step. It records one trace row per evaluated point, and logs the (kind,
detail) events of the clusterer step, then of the index step, under the
point's n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import all_finite, as_vector, is_integer
from .cvi import INDEX_FAMILIES, IndexSet, check_families
from .oec import OecConfig, oec_init, oec_step
from .skmeans import skmeans_init, skmeans_step
from .stream_io import EventRecord, TraceRecord

_OEC = OecConfig()

# algorithm -> (warm-up count(cfg, p), init(points), centers(state),
# step(state, x)); every step returns (state, u, V_old, V_new, events), and the
# engine reads u and centers(state); V_old and V_new stay for perfbench/oracle.py.
# The lambdas look the clusterer functions up in this module's globals at call
# time, so a name patched here (by a test or a tracer) is the one that runs.
_CLUSTERERS = {
    "skmeans": (lambda cfg, p: cfg.k,
                lambda points: skmeans_init(points),
                lambda state: state.V,
                lambda state, x: (*skmeans_step(state, x), ())),
    "oec": (lambda cfg, p: p + 1,
            lambda points: oec_init(points, _OEC),
            lambda state: state.m,
            lambda state, x: oec_step(state, x, _OEC)),
}


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = "skmeans"               # a key of _CLUSTERERS
    k: int = 2                               # sk-means only
    indices: tuple[str, ...] = INDEX_FAMILIES
    lam: float = 0.9                         # forgetting factor of *_lambda indices

    def __post_init__(self):
        if self.algorithm not in _CLUSTERERS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        check_families(self.indices, self.lam)
        if not is_integer(self.k) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")


class ClustererError(ValueError):
    """The clusterer failed on a point: it raised ValueError (a non-finite
    distance or covariance estimate), or returned a membership outside [0, 1],
    a non-finite center, or memberships or centers of the wrong shape. Names
    the algorithm and the point's 1-based n."""

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
        # the clusterer's table entries, bound when warm-up ends
        self._centers = self._step = None
        self.trace: list[TraceRecord] = []
        self.events: list[EventRecord] = []

    @property
    def n(self) -> int:
        return len(self._buffer) if self._indices is None else self._indices.n

    def push(self, x) -> TraceRecord | None:
        """Process one point; returns its trace row, or None during warm-up."""
        x = as_vector(x)
        cfg = self.config
        if self._step is None:
            self._warm_up(x, cfg)
            return None
        n = self._indices.n + 1
        k = self._indices.M.shape[1]
        try:
            cluster_state, u, _, _, step_events = self._step(self._cluster_state, x)
            u, V = u.u, self._centers(cluster_state)
            # the one check of a step's output; the state keeps its k clusters
            if u.shape != (k,) or V.shape[0] < k or V.shape[1:] != x.shape:
                raise ValueError(f"memberships of shape {u.shape} and centers of shape "
                                 f"{V.shape} after {k} clusters of dimension {x.size}")
            if not (all([0.0 <= v <= 1.0 for v in u.tolist()])  # nan fails
                    and all_finite(V)):
                raise ValueError("memberships are not in [0, 1] or centers are not finite")
        except ValueError as exc:
            raise ClustererError(cfg.algorithm, n, exc) from exc
        indices, values, index_events = self._indices.step(V, u, x)
        # Stored only now: a push that raises, here or in warm-up, changes nothing.
        self._cluster_state, self._indices = cluster_state, indices
        for kind, detail in (*step_events, *index_events):
            self.events.append(EventRecord(n, kind, detail))
        record = TraceRecord(n, V.shape[0], values)
        self.trace.append(record)
        return record

    def _warm_up(self, x: np.ndarray, cfg: RunConfig) -> None:
        """Buffer one warm-up point; the last one starts the clusterer and the
        index state."""
        n = len(self._buffer) + 1
        if self._buffer and x.shape != self._buffer[0].shape:
            raise ValueError(f"point n={n} has dimension {x.size}, but the "
                             f"first point has dimension {self._buffer[0].size}")
        warmup_count, init, centers, step = _CLUSTERERS[cfg.algorithm]
        buffer = self._buffer + [x]
        if len(buffer) < warmup_count(cfg, x.shape[0]):
            self._buffer = buffer
            return
        try:
            cluster_state = init(buffer)
        except ValueError as exc:
            raise ClustererError(cfg.algorithm, n, exc) from exc
        self._indices = IndexSet.start(cfg.indices, centers(cluster_state),
                                       lam=cfg.lam, n0=n)
        self._cluster_state, self._centers, self._buffer = cluster_state, centers, []
        # The lambda, not the function it calls: it looks the function up in
        # this module's globals at call time.
        self._step = step

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
        if engine.n + 1 in change_set:
            engine.events.append(EventRecord(n=engine.n + 1, kind="ground_truth_change"))
        engine.push(x)
    if engine._cluster_state is None:
        raise ValueError(f"stream ended during {config.algorithm} warm-up "
                         f"after {engine.n} points")
    return engine.trace, engine.events
