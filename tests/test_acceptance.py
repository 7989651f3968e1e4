"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with the measured quantity next to its pinned threshold.

The criteria fall into three groups: exactness of the incremental indices
against independent batch recomputation (A1-A3, relative 1e-8), qualitative
behavior of the indices on drifting streams (A4-A6, property thresholds),
and engineering constraints (A7 running-mean exactness, A8 single-pass
memory/cost, A9 byte-level determinism).
"""

import math
import time

import numpy as np
import pytest

from streamcvi.cli import main as cli_main
from streamcvi.datagen import gen_s2
from streamcvi.engine import RunConfig, StreamEngine, run
from streamcvi.verify import lambda_one_consistency, run_trial

REL_TOL = 1e-8


def report(tag: str, ok: bool, detail: str = "") -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def plain_oracle_trials():
    """100 random streams at lam=1 plus one forced empty-cluster stream.

    Shared by A1 and A2: run_trial checks xb and db on the same stream.
    """
    t0 = time.perf_counter()
    trials = [run_trial(seed, lam=1.0) for seed in range(100)]
    trials.append(run_trial(1000, k=4, lam=1.0, empty_cluster=True))
    return trials, time.perf_counter() - t0


def worst(trials, family):
    errs = [tr.max_rel_err[family] for tr in trials if family in tr.max_rel_err]
    return max(errs)


def test_a1_incremental_xb_matches_batch(plain_oracle_trials):
    trials, elapsed = plain_oracle_trials
    err = worst(trials, "xb")
    report(
        "A1 incremental XB == batch XB on 101 random streams",
        err <= REL_TOL and elapsed < 60.0,
        f"max rel err {err:.2e} <= 1e-8, {elapsed:.1f}s < 60s",
    )


def test_a2_incremental_db_matches_batch(plain_oracle_trials):
    trials, _ = plain_oracle_trials
    err = worst(trials, "db")
    empty = trials[-1]
    report(
        "A2 incremental DB == batch DB (incl. empty cluster)",
        err <= REL_TOL and empty.max_rel_err["db"] <= REL_TOL,
        f"max rel err {err:.2e} <= 1e-8, empty-cluster err {empty.max_rel_err['db']:.2e}",
    )


def test_a3_forgetting_variants_match_batch():
    errs = {"xb_lambda": 0.0, "db_lambda": 0.0}
    for lam in (0.9, 0.5):
        for seed in range(10):
            tr = run_trial(seed, lam=lam)
            for fam in errs:
                errs[fam] = max(errs[fam], tr.max_rel_err[fam])
    limit_gap = max(lambda_one_consistency(s) for s in range(5))
    ok = all(e <= REL_TOL for e in errs.values()) and limit_gap <= 1e-9
    report(
        "A3 forgetting indices == batch at lam in {0.9, 0.5}; lam->1 limit",
        ok,
        f"xb_l {errs['xb_lambda']:.2e}, db_l {errs['db_lambda']:.2e} <= 1e-8; "
        f"lam=1 gap {limit_gap:.1e} <= 1e-9",
    )


def max_step_change(values, lo, hi):
    window = [v for v in values[lo:hi] if v is not None]
    return float(np.max(np.abs(np.diff(window))))


def test_a4_plain_index_saturates_forgetting_does_not():
    rng = np.random.default_rng(42)
    X = rng.multivariate_normal(
        [0.0, 0.0], [[1.0, 0.2], [0.2, 1.0]], size=2000
    )
    trace, _ = run(X, RunConfig(algorithm="skmeans", k=2,
                                indices=("xb", "xb_lambda"), lam=0.9))
    ratios = {}
    for fam in ("xb", "xb_lambda"):
        vals = [r.values[fam] for r in trace]
        early = max_step_change(vals, 100, 200)
        late = max_step_change(vals, 1898, 1998)
        ratios[fam] = early / late
    ok = ratios["xb"] >= 5.0 and ratios["xb_lambda"] < 2.0
    report(
        "A4 XB step changes shrink on a stationary stream, XB_lambda's do not",
        ok,
        f"xb early/late {ratios['xb']:.1f} >= 5, xb_lambda {ratios['xb_lambda']:.2f} < 2",
    )


@pytest.fixture(scope="module")
def s2_oec_traces():
    """XB_lambda trace of the ellipsoidal clusterer on S2, seeds 0-9."""
    out = {}
    for seed in range(10):
        stream = gen_s2(seed)
        trace, _ = run(stream.X(),
                       RunConfig(algorithm="oec", indices=("xb_lambda",)),
                       stream.change_events)
        out[seed] = (stream, trace)
    return out


def spike_hits(stream, trace):
    n0 = trace[0].n
    vals = np.array([np.nan if r.values["xb_lambda"] is None else r.values["xb_lambda"]
                     for r in trace])
    hits = 0
    for c in stream.change_events:
        i = c - n0  # trace offset of the first shifted sample
        before = vals[max(0, i - 100):i]
        after = vals[i:i + 50]
        baseline = np.nanmedian(before)
        if np.nanmax(after) > 3.0 * baseline:
            hits += 1
    return hits


def test_a5_forgetting_index_spikes_at_changes(s2_oec_traces):
    hits = [spike_hits(stream, trace) for stream, trace in s2_oec_traces.values()]
    med = float(np.median(hits))
    report(
        "A5 XB_lambda spikes >3x baseline within 50 steps of S2 changes",
        med >= 8.0,
        f"median hits over 10 seeds {med:.1f}/10 >= 8 (per-seed {hits})",
    )


def quartile_means(trace, family):
    vals = [r.values[family] for r in trace]
    n = len(vals)
    q = n // 4
    second = [v for v in vals[q:2 * q] if v is not None]
    final = [v for v in vals[3 * q:] if v is not None]
    return float(np.mean(second)), float(np.mean(final))


def test_a6_overprovisioned_kmeans_trends_up_adaptive_oec_does_not(s2_oec_traces):
    km_up = 0
    for seed in range(10):
        stream = gen_s2(seed)
        trace, _ = run(stream.X(), RunConfig(algorithm="skmeans", k=11,
                                             indices=("xb_lambda",)))
        second, final = quartile_means(trace, "xb_lambda")
        km_up += final > second
    oec_flat = 0
    for _, trace in s2_oec_traces.values():
        second, final = quartile_means(trace, "xb_lambda")
        oec_flat += final <= 2.0 * second
    ok = km_up >= 8 and oec_flat >= 8
    report(
        "A6 XB_lambda trends up under k=11 sk-means on S2, stays flat under OEC",
        ok,
        f"k-means increasing in {km_up}/10 seeds >= 8, OEC flat in {oec_flat}/10 >= 8",
    )


def test_a7_prototypes_are_exact_running_means():
    from streamcvi.skmeans import skmeans_init, skmeans_step

    worst_rel = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        X = rng.normal(0.0, 3.0, size=(10_000, 2))
        state = skmeans_init(X[:k])
        members = [[X[i]] for i in range(k)]
        for x in X[k:]:
            state, u, _, _ = skmeans_step(state, x)
            members[int(np.argmax(u.u))].append(x)
        assert int(np.sum(state.counts)) == 10_000  # counter conservation
        for i in range(k):
            mean = np.mean(members[i], axis=0)
            rel = float(np.max(np.abs(state.V[i] - mean) / np.maximum(np.abs(mean), 1e-300)))
            worst_rel = max(worst_rel, rel)
    report(
        "A7 sk-means prototype == running mean; counts conserved",
        worst_rel <= 1e-12,
        f"max rel deviation {worst_rel:.2e} <= 1e-12 over 3x10^4 points",
    )


def test_a8_single_pass_constant_state_linear_time():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100_000, 2))
    config = RunConfig(algorithm="skmeans", k=2)
    # Two passes, each timed in chunks of 5 000 points. A chunk's time is its
    # faster pass, so a slow spell of the machine in one pass drops out.
    # Constant per-sample cost means the first n points take half the time
    # of all 2n.
    chunk = 5_000
    best = [math.inf] * (len(X) // chunk)
    for _ in range(2):
        engine = StreamEngine(config)
        sizes = {}
        for c in range(len(best)):
            t0 = time.perf_counter()
            for x in X[c * chunk:(c + 1) * chunk]:
                engine.push(x)
            best[c] = min(best[c], time.perf_counter() - t0)
            if (c + 1) * chunk in (10_000, 50_000, 100_000):
                sizes[(c + 1) * chunk] = engine.state_float_count()
    ratio = sum(best) / sum(best[:len(best) // 2])
    constant = len(set(sizes.values())) == 1
    report(
        "A8 10^5-point single pass: state size constant, cost linear in n",
        constant and 1.5 <= ratio <= 2.5,
        f"state floats {sorted(set(sizes.values()))}, "
        f"time(2n)/time(n) {ratio:.2f} in [1.5, 2.5]",
    )


def test_a9_scenarios_rerun_byte_identical(tmp_path):
    import configparser

    from streamcvi.cli import DEFAULT_SCENARIO_FILE

    parser = configparser.ConfigParser()
    parser.read(DEFAULT_SCENARIO_FILE)
    mismatched = []
    for name in parser.sections():
        outs = []
        for tag in ("a", "b"):
            d = tmp_path / tag / name
            assert cli_main(["run", name, "--out", str(d)]) == 0
            outs.append((
                (d / f"{name}.trace.csv").read_bytes(),
                (d / f"{name}.events.log").read_bytes(),
            ))
        if outs[0] != outs[1]:
            mismatched.append(name)
    report(
        "A9 every scenario reruns byte-identically",
        not mismatched,
        f"{len(parser.sections())} scenarios" +
        (f", mismatched: {mismatched}" if mismatched else ""),
    )
