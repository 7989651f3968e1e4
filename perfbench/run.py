#!/usr/bin/env python3
"""streamcvi benchmark: run one workload once and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload skm-k11-s2 --seed 0 --seconds 20 --trace 0

The workload's input is generated from --seed and written as a CSV. A fresh
measuring process (job.py) then replays that CSV file to file through the
engine for --seconds, in a closed loop: one caller thread pushes the next
point as soon as the previous push returns, with BLAS/OpenMP at one thread.
Afterwards the output is checked against an independent direct-summation
oracle, and on seed 0 against the committed golden traces.

--trace 0 reports the end-to-end metrics. Jobs repeat the same input, so
each push does identical work in every job; comparing a push's repeats
filters out slowdowns that other tenants of a shared machine impose for
seconds to minutes at a time (see job.py).
  pts_per_s    evaluated points / (fastest read + write, plus every push
               at its fastest repeat)
  push_p50_us  median over the post-warm-up pushes, each at its fastest repeat
  push_p99_us  99th percentile over the post-warm-up pushes, each at its
               median repeat
  setup_s      median over fresh processes: interpreter start until an engine
               exists (import streamcvi plus config)
  peak_rss_mb  peak resident memory of the measuring process
--trace 1 instead alternates untraced and traced jobs and reports per-layer
metrics: self times and call counts per evaluated point, behaviour counts per
job, state size, and the tracing overhead. The traced output must be
byte-identical to the untraced output. A layer that did not run reads 0 and
is listed as not_run; one whose functions no longer exist is listed as missing.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count output checks, so
failed / attempted is the run's failed fraction. The line before it carries
the environment, sample counts and the failed fraction.
"""

from __future__ import annotations

import os

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
JOB_TIMEOUT_S = 150

# Runs in a fresh interpreter; prints the monotonic clock once an engine exists.
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from streamcvi.engine import RunConfig, StreamEngine
StreamEngine(RunConfig(algorithm=sys.argv[2], k=int(sys.argv[3]),
                       indices=tuple(sys.argv[4].split(",")), lam=float(sys.argv[5])))
print(time.monotonic_ns())
"""


def measure_setup(workload) -> list[float]:
    args = [sys.executable, "-c", SETUP_PROBE, str(SRC), workload.algorithm,
            str(workload.k), ",".join(workload.indices), repr(workload.lam)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        proc = subprocess.run(args, capture_output=True, text=True, timeout=60, check=True)
        times.append((int(proc.stdout.strip()) - t0) / 1e9)
    return times


def run_job(spec: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "job.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"measuring process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_ENV},
        "seed": seed,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(res: dict, setup: list[float]) -> dict:
    return {
        "pts_per_s": metric(res["rows"] / res["fastest_job_s"], "1/s"),
        "push_p50_us": metric(res["push_p50_us"], "us"),
        "push_p99_us": metric(res["push_p99_us"], "us"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict:
    pts = res["rows"] * len(res["traced_job_s"])

    def us(span):
        return metric(res["self_ns"].get(span, 0) / 1e3 / pts, "us/pt")

    def calls(name):
        return metric(res["calls"].get(name, 0) / pts, "calls/pt")

    ev = res["events"]
    return {
        "dispersion.update_us": us("dispersion.update"),
        "dispersion.update_calls": calls("dispersion.update"),
        "cvi.update_self_us": us("cvi.update"),
        "cvi.pairwise_calls": calls("cvi.pairwise"),
        "core.as_vector_us": us("core.as_vector"),
        "core.as_vector_calls": calls("core.as_vector"),
        "oec.step_self_us": us("oec.step"),
        "oec.mahalanobis_calls": calls("oec.mahalanobis"),
        "oec.regularize_calls": calls("oec.regularize"),
        "oec.births": metric(ev.get("cluster_created", 0), "count"),
        "cvi.undefined": metric(ev.get("index_undefined", 0), "count"),
        "oec.cov_regularized": metric(ev.get("covariance_regularized", 0), "count"),
        "skmeans.step_us": us("skmeans.step"),
        "engine.push_self_us": us("engine.push"),
        "stream_io.read_us": us("stream_io.read"),
        "stream_io.write_us": us("stream_io.write"),
        "stream_io.trace_bytes": metric(res["trace_bytes"] / res["rows"], "B/pt"),
        "engine.state_floats_mid": metric(res["state_floats_mid"], "count"),
        "engine.state_floats_end": metric(res["state_floats_end"], "count"),
        "engine.retained_rows": metric(res["retained_rows"], "count"),
        "trace.overhead_frac": metric(res["overhead_frac"], "frac"),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "streamcvi" / "__init__.py").is_file():
        print(f"streamcvi sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    from workloads import make_input, write_csv

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        X = make_input(workload, args.seed)
        csv_path = workdir / "input.csv"
        write_csv(X, csv_path)
        setup = [] if args.trace else measure_setup(workload)
        res = run_job({
            "src": str(SRC), "csv": str(csv_path), "p": X.shape[1],
            "config": workload.config_kwargs(), "seconds": args.seconds,
            "trace": args.trace, "out": str(workdir),
        })

        rows = oracle.parse_trace((workdir / "plain.trace.csv").read_text(encoding="utf-8"))
        tally = oracle.check_engine_trace(X, workload, rows)
        if args.seed == 0 and workload.golden:
            tally.add(oracle.check_golden(rows, ROOT / workload.golden))
        if args.trace:
            for suffix in ("trace.csv", "events.log"):
                tally.check((workdir / f"plain.{suffix}").read_bytes()
                            == (workdir / f"traced.{suffix}").read_bytes())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    samples = {"points": int(X.shape[0]), "evaluated_per_job": res["rows"],
               "jobs": len(res["job_s"])}
    if args.trace:
        metrics = per_layer(res)
        samples["traced_jobs"] = len(res["traced_job_s"])
        not_run = sorted(name for name, n in res["calls"].items() if n == 0)
        info_layers = {"missing": res["missing"], "not_run": not_run}
    else:
        metrics = end_to_end(res, setup)
        samples.update(pushes=res["pushes"], setup_repeats=len(setup))
        info_layers = {"us_per_pt": 1e6 / metrics["pts_per_s"]["value"]}
    print(json.dumps({"info": {
        "workload": workload.name, "seconds": args.seconds,
        "trace": args.trace, "env": environment(args.seed), "samples": samples,
        "failed_frac": tally.failed / tally.attempted, **info_layers,
    }}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
