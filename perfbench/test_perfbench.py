"""Self-tests of the benchmark: negative controls, input determinism, output
contract. Run with: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_input, write_csv  # noqa: E402

from streamcvi import cvi, stream_io  # noqa: E402
from streamcvi.engine import RunConfig, run  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_input(name, tmp_path):
    w = WORKLOADS[name]
    paths = []
    for i, seed in enumerate((3, 3, 4)):
        X = make_input(w, seed)
        paths.append(tmp_path / f"{i}.csv")
        write_csv(X, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_csv_reads_back_exactly(tmp_path):
    X = make_input(WORKLOADS["skm-k2-p8-long"], 0)
    write_csv(X[:500], tmp_path / "in.csv")
    points, _ = stream_io.read_stream(
        tmp_path / "in.csv", stream_io.StreamSchema(feature_columns=tuple(range(8))))
    assert np.array_equal(np.stack([p.x for p in points]), X[:500])


@pytest.fixture(scope="module", params=["skm-k11-s2", "oec-s3"])
def captured(request, tmp_path_factory):
    """A short prefix of a workload, run through the engine and written out."""
    w = WORKLOADS[request.param]
    X = make_input(w, 0)[:700]
    trace, _ = run(X, RunConfig(algorithm=w.algorithm, k=w.k, indices=w.indices, lam=w.lam))
    path = tmp_path_factory.mktemp("trace") / "t.csv"
    stream_io.write_trace(trace, path)
    return w, X, oracle.parse_trace(path.read_text(encoding="utf-8"))


def _checkpoint_row(w, X, rows, defined=True):
    rd = oracle.redrive(X, w)
    for t in oracle.checkpoints(rd.U.shape[0], rd.ks):
        n = rd.n0 + t + 1
        fam = next((f for f in w.indices if (rows[n][1][f] is not None) == defined), None)
        if fam is not None:
            return n, fam
    raise AssertionError("no checkpoint row with the wanted flag")


def _with_value(rows, n, fam, value):
    k, values = rows[n]
    changed = dict(rows)
    changed[n] = (k, {**values, fam: value})
    return changed


def test_oracle_accepts_engine_trace(captured):
    w, X, rows = captured
    tally = oracle.check_engine_trace(X, w, rows)
    assert tally.attempted > 500 and tally.failed == 0


def test_oracle_counts_perturbed_value(captured):
    w, X, rows = captured
    n, fam = _checkpoint_row(w, X, rows)
    bad = _with_value(rows, n, fam, rows[n][1][fam] * (1 + 1e-6))
    assert oracle.check_engine_trace(X, w, bad).failed == 1


def test_oracle_counts_flipped_defined_flag(captured):
    w, X, rows = captured
    n, fam = _checkpoint_row(w, X, rows)
    assert oracle.check_engine_trace(X, w, _with_value(rows, n, fam, None)).failed == 1


def test_oracle_counts_flipped_undefined_flag():
    w = WORKLOADS["oec-s3"]
    X = make_input(w, 0)[:300]
    trace, _ = run(X, RunConfig(algorithm=w.algorithm, indices=w.indices, lam=w.lam))
    rows = {r.n: (r.k, dict(r.values)) for r in trace}
    assert oracle.check_engine_trace(X, w, rows).failed == 0
    n, fam = _checkpoint_row(w, X, rows, defined=False)
    assert oracle.check_engine_trace(X, w, _with_value(rows, n, fam, 1.0)).failed == 1


@pytest.mark.parametrize("name", ["skm-k11-s2", "oec-s3"])
def test_golden_check_counts_perturbation_and_flag(name):
    w = WORKLOADS[name]
    golden_path = ROOT / w.golden
    golden = oracle.parse_trace(golden_path.read_text(encoding="utf-8"))
    assert oracle.check_golden(golden, golden_path).failed == 0
    n = sorted(golden)[len(golden) // 2]
    fam = next(f for f in w.indices if golden[n][1][f] is not None)
    bad = _with_value(golden, n, fam, golden[n][1][fam] * (1 + 1e-6))
    assert oracle.check_golden(bad, golden_path).failed == 1
    assert oracle.check_golden(_with_value(golden, n, fam, None), golden_path).failed == 1


def test_tracer_restores_every_patched_name():
    before = dict(cvi.UPDATERS), cvi.update_dispersion, stream_io.read_stream
    tracer = Tracer()
    tracer.install()
    assert cvi.UPDATERS["xb"] is not before[0]["xb"]
    tracer.uninstall()
    assert (dict(cvi.UPDATERS), cvi.update_dispersion, stream_io.read_stream) == before
    assert tracer.missing == []


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    proc = _bench(ROOT, "--workload", "oec-s3", "--seed", "2", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "oec-s3", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
