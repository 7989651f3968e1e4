import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcvi.cvi import INDEX_FAMILIES, IndexSet
from streamcvi.dispersion import update_dispersion
from streamcvi.engine import RunConfig, StreamEngine
from streamcvi.verify import batch_accumulators, lambda_one_consistency


def random_walk(rng, n, p, step=0.1):
    xs = rng.normal(0.0, 2.0, size=(n, p))
    us = rng.uniform(0.0, 1.0, size=n)
    vs = np.cumsum(rng.normal(0.0, step, size=(n + 1, p)), axis=0)
    return xs, us, vs


def empty(k, p, lam=(1.0,), M0=0.0):
    """(C, G, M) of k clusters with mass M0, one row per factor in ``lam``."""
    s = len(lam)
    return np.zeros((s, k)), np.zeros((s, k, p)), np.full((s, k), M0)


def step1(acc, v_old, v_new, u, x, lam=(1.0,)):
    """One-cluster update from plain vectors and a scalar membership; ``acc``
    is (C, G, M) with one row per factor in ``lam``. Returns (C, G, M, clamped)."""
    row = lambda v: np.asarray(v, dtype=float).reshape(1, -1)  # noqa: E731
    return update_dispersion(*acc, lam, row(v_old), row(v_new), np.array([float(u)]),
                             np.asarray(x, dtype=float))


def run_walk(xs, us, vs, lam):
    acc = empty(1, xs.shape[1], lam=(lam,))
    for t in range(xs.shape[0]):
        acc = step1(acc, vs[t], vs[t + 1], us[t], xs[t], lam=(lam,))[:3]
    return acc


def batch_C(xs, us, v, lam):
    C, _ = batch_accumulators(xs, us[:, None], np.asarray(v, dtype=float)[None], lam=lam)
    return float(C[0])


class TestUpdateDispersion:
    def test_first_sample(self):
        C, G, M, _ = step1(empty(1, 2), [0, 0], [0, 0], 1.0, [3, 4])
        assert C[0, 0] == 25.0
        assert np.array_equal(G[0, 0], [3.0, 4.0])
        assert M[0, 0] == 1.0

    def test_zero_membership_stationary_center_is_noop(self):
        s0 = np.array([[7.0]]), np.array([[[1.0, -2.0]]]), np.array([[3.0]])
        s1 = step1(s0, [1, 1], [1, 1], 0.0, [9, 9])
        for before, after in zip(s0, s1[:3]):
            assert np.array_equal(after, before)
        assert s1[3] == ()

    def test_matches_batch_oracle_on_drifting_stream(self):
        rng = np.random.default_rng(0)
        xs, us, vs = random_walk(rng, 200, 3)
        C, _, _ = run_walk(xs, us, vs, lam=1.0)
        assert C[0, 0] == pytest.approx(batch_C(xs, us, vs[200], 1.0), rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            step1(empty(1, 2), [0, 0, 0], [0, 0], 1.0, [1, 1])
        with pytest.raises(ValueError):
            step1(empty(1, 2), [0, 0], [0, 0], 1.0, [1, 1, 1])
        with pytest.raises(ValueError):  # one membership for two clusters
            update_dispersion(*empty(2, 2), (1.0,), np.zeros((2, 2)), np.zeros((2, 2)),
                              np.array([1.0]), np.ones(2))

    def test_non_finite_input(self):
        # A point is validated once, where it enters the engine.
        engine = StreamEngine(RunConfig(k=1))
        engine.push([0.0, 0.0])
        with pytest.raises(ValueError):
            engine.push([np.nan, 0.0])
        with pytest.raises(ValueError):
            step1(empty(1, 2), [0, 0], [0, 0], np.nan, [1, 1])
        with pytest.raises(ValueError):
            step1(empty(1, 2), [0, 0], [0, 0], 1.5, [1, 1])


class TestUpdateDispersionForgetting:
    def test_first_sample_unaffected_by_decay(self):
        C, _, M, _ = step1(empty(1, 2, lam=(0.9,)), [0, 0], [0, 0], 1.0, [3, 4], lam=(0.9,))
        assert C[0, 0] == 25.0
        assert M[0, 0] == 1.0

    def test_geometric_accumulation(self):
        s = empty(1, 2, lam=(0.9,))
        for _ in range(2):
            s = step1(s, [0, 0], [0, 0], 1.0, [3, 4], lam=(0.9,))[:3]
        C, _, M = s
        assert C[0, 0] == pytest.approx(0.9 * 25.0 + 25.0)
        assert M[0, 0] == pytest.approx(1.9)

    def test_matches_batch_oracle_on_drifting_stream(self):
        rng = np.random.default_rng(1)
        xs, us, vs = random_walk(rng, 200, 2)
        C, _, _ = run_walk(xs, us, vs, lam=0.9)
        assert C[0, 0] == pytest.approx(batch_C(xs, us, vs[200], 0.9), rel=1e-9)

    def test_lambda_one_reduction_is_exact(self):
        # One update path serves every row: a stacked (lam = 1, 0.9) update
        # of k clusters equals one-cluster, one-factor updates bit for bit.
        assert lambda_one_consistency(2, n=120, k=4, p=3) == 0.0
        assert lambda_one_consistency(4, n=60, k=2, p=50) == 0.0

    def test_stacked_rows_match_separate_factors(self):
        rng = np.random.default_rng(2)
        k, p = 3, 2
        X = rng.normal(size=(60, p))
        U = rng.dirichlet(np.ones(k), size=60)
        Vs = np.cumsum(rng.normal(0.0, 0.1, size=(61, k, p)), axis=0)
        whole = empty(k, p, lam=(1.0, 0.9), M0=2.0)
        alone = [empty(k, p, M0=2.0) for _ in (1.0, 0.9)]
        for t in range(60):
            step = Vs[t], Vs[t + 1], U[t], X[t]
            whole = update_dispersion(*whole, (1.0, 0.9), *step)[:3]
            alone = [update_dispersion(*a, (f,), *step)[:3]
                     for a, f in zip(alone, (1.0, 0.9))]
        for r, a in enumerate(alone):
            for stacked, one in zip(whole, a):
                assert np.array_equal(stacked[r], one[0])

    def test_bad_lambda_rejected(self):
        # The factor is checked once, where a run or an index state starts.
        for lam in (0.0, 1.5):
            with pytest.raises(ValueError):
                IndexSet.start(("xb_lambda",), 1, 2, lam=lam)
            with pytest.raises(ValueError):
                IndexSet.start(INDEX_FAMILIES, 1, 2, lam=lam)
            with pytest.raises(ValueError):
                RunConfig(indices=("db_lambda",), lam=lam)
        with pytest.raises(ValueError):
            IndexSet.start((), 1, 2)
        with pytest.raises(ValueError):  # a negative warm-up mass
            IndexSet.start(("xb",), 1, 2, n0=-1)


class TestClamp:
    def test_negative_row_is_clamped_and_named(self):
        # A hand-built G inconsistent with any history drives the lam = 0.9
        # row's dispersion below 0: C' = 2 * 0.9 * Q + A = -90 + 0.25.
        acc = np.zeros((2, 1)), np.array([[[0.0, 0.0]], [[100.0, 0.0]]]), np.zeros((2, 1))
        *out, clamped = step1(acc, [0, 0], [0.5, 0], 1.0, [1, 0], lam=(1.0, 0.9))
        assert clamped == (0.9,)
        assert np.array_equal(out[0], [[0.25], [0.0]])
        assert step1(out, [0.5, 0], [0.5, 0], 1.0, [1, 0], lam=(1.0, 0.9))[3] == ()


class TestBatchOracle:
    def test_single_point(self):
        assert batch_C(np.array([[3.0, 4.0]]), np.array([1.0]), (0, 0), 1.0) == 25.0

    def test_all_zero_memberships(self):
        xs = np.array([[1.0, 2.0], [5.0, 5.0]])
        assert batch_C(xs, np.zeros(2), (0, 0), 1.0) == 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            batch_C(np.zeros((0, 2)), np.zeros(0), (0, 0), 1.0)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 0.9, 0.5]))
    def test_incremental_equals_batch(self, seed, lam):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 80))
        p = int(rng.integers(1, 5))
        xs, us, vs = random_walk(rng, n, p)
        C, _, _ = run_walk(xs, us, vs, lam=lam)
        assert C[0, 0] == pytest.approx(batch_C(xs, us, vs[n], lam), rel=1e-9, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 0.8]))
    def test_stationary_center_additivity(self, seed, lam):
        rng = np.random.default_rng(seed)
        n, p = 50, 2
        xs = rng.normal(size=(n, p))
        us = rng.uniform(size=n)
        v = rng.normal(size=p)
        s = empty(1, p, lam=(lam,))
        for t in range(n):
            s = step1(s, v, v, us[t], xs[t], lam=(lam,))[:3]
        expected = sum(
            lam ** (n - j) * us[j - 1] ** 2 * float(np.sum((xs[j - 1] - v) ** 2))
            for j in range(1, n + 1)
        )
        assert s[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_C_never_negative(self):
        rng = np.random.default_rng(3)
        s = empty(1, 2)
        for t in range(500):
            v_old = rng.normal(size=2) * 10
            v_new = rng.normal(size=2) * 10
            s = step1(s, v_old, v_new, float(rng.uniform()), rng.normal(size=2))[:3]
            assert s[0][0, 0] >= 0.0
