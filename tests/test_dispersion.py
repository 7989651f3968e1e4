import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcvi.cvi import INDEX_FAMILIES, IndexSet, dispersion_about, update_dispersion
from streamcvi.engine import RunConfig, StreamEngine
from streamcvi.verify import batch_accumulators, lambda_one_consistency, random_stream


def random_walk(rng, n, p, step=0.1):
    xs = rng.normal(0.0, 2.0, size=(n, p))
    us = rng.uniform(0.0, 1.0, size=n)
    vs = np.cumsum(rng.normal(0.0, step, size=(n + 1, p)), axis=0)
    return xs, us, vs


def empty(k, p, lam=(1.0,), M0=0.0):
    """(D, mu, M) of k clusters with mass M0 at the origin, one row per factor
    in ``lam``."""
    s = len(lam)
    return np.zeros((s, k)), np.zeros((s, k, p)), np.full((s, k), M0)


def step1(acc, u, x, lam=(1.0,)):
    """One-cluster update from a scalar membership and a plain vector; ``acc``
    is (D, mu, M) with one row per factor in ``lam``."""
    return update_dispersion(*acc, lam, np.array([float(u)]), np.asarray(x, dtype=float))


def C_about(acc, v):
    """Each row's dispersion of the one cluster in ``acc`` about center ``v``."""
    return dispersion_about(*acc, np.asarray(v, dtype=float).reshape(1, -1))[:, 0]


def run_walk(xs, us, lam):
    acc = empty(1, xs.shape[1], lam=(lam,))
    for t in range(xs.shape[0]):
        acc = step1(acc, us[t], xs[t], lam=(lam,))
    return acc


def batch_C(xs, us, v, lam):
    C, _ = batch_accumulators(xs, us[:, None], np.asarray(v, dtype=float)[None], lam=lam)
    return float(C[0])


class TestUpdateDispersion:
    def test_first_sample(self):
        D, mu, M = acc = step1(empty(1, 2), 1.0, [3, 4])
        assert D[0, 0] == 0.0
        assert np.array_equal(mu[0, 0], [3.0, 4.0])
        assert M[0, 0] == 1.0
        assert C_about(acc, [0, 0])[0] == 25.0

    def test_zero_membership_stationary_center_is_noop(self):
        # the update reads no center: a zero membership changes nothing
        s0 = np.array([[7.0]]), np.array([[[1.0, -2.0]]]), np.array([[3.0]])
        s1 = step1(s0, 0.0, [9, 9])
        for before, after in zip(s0, s1):
            assert np.array_equal(after, before)

    def test_matches_batch_oracle_on_drifting_stream(self):
        # the state holds no center: one history reads out about every
        # center of the drifting walk
        rng = np.random.default_rng(0)
        xs, us, vs = random_walk(rng, 200, 3)
        acc = run_walk(xs, us, lam=1.0)
        for v in vs[::50]:
            assert C_about(acc, v)[0] == pytest.approx(batch_C(xs, us, v, 1.0), rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            step1(empty(1, 2), 1.0, [1, 1, 1])
        with pytest.raises(ValueError):  # one membership for two clusters
            update_dispersion(*empty(2, 2), (1.0,), np.array([1.0]), np.ones(2))

    def test_non_finite_input(self):
        # A point is validated once, where it enters the engine, and a
        # step's memberships once, by the engine after the clusterer step
        # (tests/test_engine.py, TestFailedPush).
        engine = StreamEngine(RunConfig(k=1))
        engine.push([0.0, 0.0])
        with pytest.raises(ValueError):
            engine.push([np.nan, 0.0])


class TestUpdateDispersionForgetting:
    def test_first_sample_unaffected_by_decay(self):
        acc = step1(empty(1, 2, lam=(0.9,)), 1.0, [3, 4], lam=(0.9,))
        assert C_about(acc, [0, 0])[0] == 25.0
        assert acc[2][0, 0] == 1.0

    def test_geometric_accumulation(self):
        s = empty(1, 2, lam=(0.9,))
        for _ in range(2):
            s = step1(s, 1.0, [3, 4], lam=(0.9,))
        assert s[0][0, 0] == 0.0 and np.array_equal(s[1][0, 0], [3.0, 4.0])
        assert C_about(s, [0, 0])[0] == pytest.approx(0.9 * 25.0 + 25.0)
        assert s[2][0, 0] == pytest.approx(1.9)

    def test_matches_batch_oracle_on_drifting_stream(self):
        rng = np.random.default_rng(1)
        xs, us, vs = random_walk(rng, 200, 2)
        acc = run_walk(xs, us, lam=0.9)
        assert C_about(acc, vs[200])[0] == pytest.approx(batch_C(xs, us, vs[200], 0.9),
                                                         rel=1e-9)

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
        whole = empty(k, p, lam=(1.0, 0.9), M0=2.0)
        alone = [empty(k, p, M0=2.0) for _ in (1.0, 0.9)]
        for t in range(60):
            whole = update_dispersion(*whole, (1.0, 0.9), U[t], X[t])
            alone = [update_dispersion(*a, (f,), U[t], X[t]) for a, f in zip(alone, (1.0, 0.9))]
        for r, a in enumerate(alone):
            for stacked, one in zip(whole, a):
                assert np.array_equal(stacked[r], one[0])

    def test_bad_lambda_rejected(self):
        # The factor is checked once, where a run or an index state starts.
        V0 = np.zeros((1, 2))
        for lam in (0.0, 1.5):
            with pytest.raises(ValueError):
                IndexSet.start(("xb_lambda",), V0, lam=lam)
            with pytest.raises(ValueError):
                IndexSet.start(INDEX_FAMILIES, V0, lam=lam)
            with pytest.raises(ValueError):
                RunConfig(indices=("db_lambda",), lam=lam)
        with pytest.raises(ValueError):
            IndexSet.start((), V0)
        with pytest.raises(ValueError):  # a negative warm-up mass
            IndexSet.start(("xb",), V0, n0=-1)


# Coordinates on a grid of eighths within +-100 are exact, and so are their
# differences, so the batch oracle's distances carry no rounding.
GRID = st.integers(-800, 800).map(lambda i: i / 8.0)
MEMBERSHIPS = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1.0))


@st.composite
def membership_streams(draw):
    """(start center, [(u, x, v), ...]) in a dimension p in {1, 2, 3}: each
    step's membership, point and the center the dispersion is read about."""
    p = draw(st.sampled_from([1, 2, 3]))
    vector = st.lists(GRID, min_size=p, max_size=p).map(np.array)
    steps = draw(st.lists(st.tuples(MEMBERSHIPS, vector, vector), min_size=1, max_size=40))
    return draw(vector), steps


class TestNonNegative:
    @settings(max_examples=150, deadline=None)
    @given(membership_streams(), st.sampled_from([1.0, 0.9, 0.5]))
    def test_dispersion_nonnegative_and_equal_to_batch(self, stream, lam):
        # both rows of an IndexSet with forgetting: lam = 1 and lam
        v0, steps = stream
        lams = (1.0, lam)
        acc = np.zeros((2, 1)), np.array([[v0]] * 2), np.zeros((2, 1))
        for t in range(1, len(steps) + 1):
            u, x, v = steps[t - 1]
            acc = update_dispersion(*acc, lams, np.array([u]), x)
            C = C_about(acc, v)
            assert np.minimum.reduce(acc[0], axis=None) >= 0.0
            assert np.minimum.reduce(C) >= 0.0
            us = np.array([s[0] for s in steps[:t]])
            xs = np.array([s[1] for s in steps[:t]])
            for row, f in enumerate(lams):
                assert C[row] == pytest.approx(batch_C(xs, us, v, f), rel=1e-9, abs=0.0)

    def test_empty_row_with_zero_membership_stays_finite(self):
        # M' = 0 divides nothing by 0: r = 0 and the row keeps its mean
        acc = np.zeros((2, 2)), np.array([[[1.0], [-3.0]]] * 2), np.zeros((2, 2))
        with np.errstate(all="raise"):
            D, mu, M = update_dispersion(*acc, (1.0, 0.9), np.zeros(2), np.array([5.0]))
            C = dispersion_about(D, mu, M, np.array([[0.0], [2.0]]))
        assert np.array_equal(D, acc[0]) and np.array_equal(mu, acc[1])
        assert np.array_equal(M, acc[2]) and np.array_equal(C, np.zeros((2, 2)))


class TestBatchOracle:
    def test_single_point(self):
        assert batch_C(np.array([[3.0, 4.0]]), np.array([1.0]), (0, 0), 1.0) == 25.0

    def test_all_zero_memberships(self):
        xs = np.array([[1.0, 2.0], [5.0, 5.0]])
        assert batch_C(xs, np.zeros(2), (0, 0), 1.0) == 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            batch_C(np.zeros((0, 2)), np.zeros(0), (0, 0), 1.0)

    def test_random_stream_memberships_within_unit_interval(self):
        # moving the empty cluster's mass onto the others rounds 1 ulp above
        # 1 at this seed unless the stream clips it
        _, U, _ = random_stream(np.random.default_rng(0), 50, 2, 2, empty_cluster=True)
        assert np.maximum.reduce(U, axis=None) <= 1.0
        assert np.minimum.reduce(U, axis=None) >= 0.0


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 0.9, 0.5]))
    def test_incremental_equals_batch(self, seed, lam):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 80))
        p = int(rng.integers(1, 5))
        xs, us, vs = random_walk(rng, n, p)
        acc = run_walk(xs, us, lam=lam)
        assert C_about(acc, vs[n])[0] == pytest.approx(batch_C(xs, us, vs[n], lam),
                                                       rel=1e-9, abs=1e-12)

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
            s = step1(s, us[t], xs[t], lam=(lam,))
        expected = sum(
            lam ** (n - j) * us[j - 1] ** 2 * float(np.sum((xs[j - 1] - v) ** 2))
            for j in range(1, n + 1)
        )
        assert C_about(s, v)[0] == pytest.approx(expected, rel=1e-12)

    def test_C_never_negative(self):
        rng = np.random.default_rng(3)
        s = empty(1, 2)
        for t in range(500):
            s = step1(s, float(rng.uniform()), rng.normal(size=2))
            assert s[0][0, 0] >= 0.0
            assert C_about(s, rng.normal(size=2) * 10)[0] >= 0.0
