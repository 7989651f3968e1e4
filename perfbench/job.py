"""The measuring process: replays one workload CSV through the engine.

A job is the file-to-file run a user of the library makes: ``read_stream``,
one ``StreamEngine.push`` per point from a single caller thread, then
``write_trace`` and ``write_events``. Jobs repeat until the time budget is
spent. With tracing on, untraced and traced jobs alternate, so their outputs
can be compared byte for byte and their times give the tracing overhead.

Usage: python3 perfbench/job.py '<json spec>'   (run.py builds the spec)
Prints one JSON object with the raw measurements.
"""

from __future__ import annotations

import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

WARMUP_POINTS = 300


class Repeats:
    """Per-push latencies over the repeated jobs, with co-tenant noise filtered.

    Every job replays the same input, so a given push does the same work in
    every job. On a shared machine, load from other tenants slows execution
    by up to about 2x for stretches of seconds to minutes, on most pushes of
    a run. Each push's fastest repeat filters that out wherever at least one
    repeat ran unhindered, which holds for most pushes, so it gives a steady
    median and job time. For a push's tail that is too rare a condition, so
    the tail uses each push's median repeat instead.
    """

    def __init__(self):
        self.lat: list = []  # one int64 array of per-push latencies (ns) per job
        self.io_ns = None

    def add(self, job: dict) -> None:
        self.lat.append(np.array(job.pop("lat"), dtype=np.int64))
        self.io_ns = job["io_ns"] if self.io_ns is None else min(self.io_ns, job["io_ns"])

    def fastest(self) -> np.ndarray:
        return np.min(self.lat, axis=0)

    def typical(self) -> np.ndarray:
        return np.median(self.lat, axis=0)

    def job_ns(self) -> int:
        """Fastest read plus write, plus every push at its fastest repeat."""
        return int(self.io_ns + self.fastest().sum())


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from streamcvi import stream_io
    from streamcvi.engine import RunConfig, StreamEngine
    from tracing import Tracer

    cfg = spec["config"]
    config = RunConfig(algorithm=cfg["algorithm"], k=cfg["k"],
                       indices=tuple(cfg["indices"]), lam=cfg["lam"])
    schema = stream_io.StreamSchema(feature_columns=tuple(range(spec["p"])))
    out = Path(spec["out"])
    budget_ns = spec["seconds"] * 1_000_000_000

    def job(tag: str) -> dict:
        t0 = perf_counter_ns()
        points, _ = stream_io.read_stream(spec["csv"], schema)
        t1 = perf_counter_ns()
        engine = StreamEngine(config)
        push = engine.push
        mid = len(points) // 2
        rows = 0
        state_mid = None
        lat = []
        for i, pt in enumerate(points):
            a = perf_counter_ns()
            rec = push(pt.x)
            lat.append(perf_counter_ns() - a)
            if rec is not None:
                rows += 1
            if i == mid:
                state_mid = engine.state_float_count()
        t2 = perf_counter_ns()
        trace_path = out / f"{tag}.trace.csv"
        stream_io.write_trace(engine.trace, trace_path)
        stream_io.write_events(engine.events, out / f"{tag}.events.log")
        t3 = perf_counter_ns()
        return {
            "io_ns": (t1 - t0) + (t3 - t2),
            "elapsed_ns": t3 - t0,
            "lat": lat,
            "rows": rows,
            "state_floats_mid": state_mid,
            "state_floats_end": engine.state_float_count(),
            "retained_rows": len(engine.trace) + len(engine.events),
            "events": dict(Counter(e.kind for e in engine.events)),
            "trace_bytes": trace_path.stat().st_size,
        }

    # Untimed warm-up: first calls, lazily built caches, the CSV in page cache.
    points, _ = stream_io.read_stream(spec["csv"], schema)
    warm = StreamEngine(config)
    for pt in points[:WARMUP_POINTS]:
        warm.push(pt.x)
    del points, warm

    plain: list[dict] = []
    traced: list[dict] = []
    repeats, repeats_traced = Repeats(), Repeats()
    tracer = Tracer() if spec["trace"] else None
    start = perf_counter_ns()
    while True:
        plain.append(job("plain"))
        repeats.add(plain[-1])
        if tracer is not None:
            tracer.install()
            try:
                traced.append(job("traced"))
            finally:
                tracer.uninstall()
            repeats_traced.add(traced[-1])
        last = plain[-1]["elapsed_ns"] + (traced[-1]["elapsed_ns"] if traced else 0)
        if perf_counter_ns() - start + last > budget_ns:
            break

    first = plain[0]
    result = {k: first[k] for k in ("rows", "state_floats_mid", "state_floats_end",
                                    "retained_rows", "events", "trace_bytes")}
    result["job_s"] = [j["elapsed_ns"] / 1e9 for j in plain]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["fastest_job_s"] = repeats.job_ns() / 1e9
    if tracer is None:
        n = first["rows"]  # post-warm-up pushes only
        result["pushes"] = n
        result["push_p50_us"] = float(np.percentile(repeats.fastest()[-n:], 50)) / 1e3
        result["push_p99_us"] = float(np.percentile(repeats.typical()[-n:], 99)) / 1e3
    else:
        result["traced_job_s"] = [j["elapsed_ns"] / 1e9 for j in traced]
        result["overhead_frac"] = repeats_traced.job_ns() / repeats.job_ns() - 1.0
        result["calls"] = tracer.calls
        result["self_ns"] = tracer.self_ns
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
