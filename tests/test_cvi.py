import numpy as np
import pytest

from streamcvi.cvi import INDEX_FAMILIES, IndexSet, dispersion_about
from streamcvi.verify import batch_accumulators, index_value, random_stream, run_trial


def update(family, state, V_new, u, x):
    """One step of a single-family IndexSet; returns (state', value)."""
    state, values, _ = state.step(V_new, np.asarray(u, dtype=float),
                                  np.asarray(x, dtype=float))
    return state, values[family]


def drive(family, X, U, Vs, lam=1.0):
    """Run the incremental updater over a prebuilt stream, collecting values."""
    state = IndexSet.start((family,), Vs[0], lam=lam)
    values = []
    for t in range(1, U.shape[0] + 1):
        state, val = update(family, state, Vs[t], U[t - 1], X[t - 1])
        values.append(val)
    return state, values


def hist_arrays(hist):
    """[(x, u), ...] -> (X, U) arrays for the verify batch oracle."""
    return (np.array([x for x, _ in hist], dtype=float),
            np.array([u for _, u in hist], dtype=float))


def oracle(family, X, U, V, lam=1.0):
    """The verify oracle's value of ``family`` after the history (X, U)."""
    X, U, V = (np.asarray(a, dtype=float) for a in (X, U, V))
    C, M = batch_accumulators(X, U, V, lam if family.endswith("_lambda") else 1.0)
    return index_value(family, C, M, V, X.shape[0], lam)


class TestXbUpdate:
    def test_direct_substitution(self):
        # k=2, centers 2 apart, all dispersion into cluster 0 via 4 unit-distance hits
        V = np.array([[0.0, 0.0], [2.0, 0.0]])
        state = IndexSet.start(("xb",), V)
        for t in range(5):
            x = [1.0, 0.0] if t < 4 else [0.0, 0.0]
            u = [1.0, 0.0] if t < 4 else [0.0, 1.0]
            state, val = update("xb", state, V, u, x)
        # J = 4*1 + 1*4 = 8 ... compute expected directly instead
        hist = [([1.0, 0.0], [1.0, 0.0])] * 4 + [([0.0, 0.0], [0.0, 1.0])]
        assert val == pytest.approx(oracle("xb", *hist_arrays(hist), V), rel=1e-12)
        assert state.n == 5 and state.D.shape == (1, 2)

    def test_k1_running_max(self):
        V = np.array([[0.0, 0.0]])
        state = IndexSet.start(("xb",), V)
        u = [1.0]
        state, _ = update("xb", state, V, u, [1.0, 1.0])
        assert state.h == pytest.approx(2.0)
        state, _ = update("xb", state, V, u, [0.5, 0.0])
        assert state.h == pytest.approx(2.0)

    def test_coincident_centers_flagged_not_fatal(self):
        V = np.zeros((2, 2))
        state = IndexSet.start(("xb",), V)
        u = [0.5, 0.5]
        state, val = update("xb", state, V, u, [1.0, 1.0])
        assert val is None
        assert oracle("xb", [[1.0, 1.0]], [u], V) is None
        assert state.n == 1  # state still advanced
        V2 = np.array([[0.0, 0.0], [3.0, 0.0]])
        state, val = update("xb", state, V2, u, [1.0, 0.0])
        assert val is not None

    def test_matches_batch_at_every_step(self):
        rng = np.random.default_rng(10)
        X, U, Vs = random_stream(rng, 500, 3, 2)
        _, values = drive("xb", X, U, Vs)
        for t in (1, 7, 50, 123, 250, 499, 500):
            expected = oracle("xb", X[:t], U[:t], Vs[t])
            assert values[t - 1] == pytest.approx(expected, rel=1e-8)


class TestXbLambdaUpdate:
    def test_direct_substitution(self):
        # one first step into an empty two-cluster state: J_lam = A terms only
        V = np.array([[0.0, 0.0], [4.0, 0.0]])
        state = IndexSet.start(("xb_lambda",), V, lam=0.9)
        u = [1.0, 0.0]
        state, val = update("xb_lambda", state, V, u, [2.0, 0.0])
        # J = 1 * ||(2,0)-(0,0)||^2 = 4, h = 16 -> 0.1 * 4 / 16
        assert val == pytest.approx(0.1 * 4.0 / 16.0)

    def test_constant_stream_decays_to_zero(self):
        V = np.array([[1.0, 1.0], [5.0, 5.0]])
        state = IndexSet.start(("xb_lambda",), V, lam=0.9)
        u = [1.0, 0.0]
        state, first = update("xb_lambda", state, V, u, [2.0, 1.0])
        for _ in range(300):
            state, val = update("xb_lambda", state, V, u, [1.0, 1.0])
        assert val < 1e-10 * max(first, 1.0)

    def test_matches_batch_at_every_step(self):
        rng = np.random.default_rng(11)
        X, U, Vs = random_stream(rng, 300, 4, 2)
        _, values = drive("xb_lambda", X, U, Vs, lam=0.9)
        for t in (1, 13, 100, 299, 300):
            expected = oracle("xb_lambda", X[:t], U[:t], Vs[t], 0.9)
            assert values[t - 1] == pytest.approx(expected, rel=1e-8)


class TestDbUpdate:
    def test_symmetric_pair(self):
        # Two clusters, each with L = 1, centers 2 apart -> DB = 0.5
        V = np.array([[0.0, 0.0], [2.0, 0.0]])
        state = IndexSet.start(("db",), V)
        # one unit-distance point per cluster: C_i = 1, M_i = 1 -> L_i = 1
        state, _ = update("db", state, V, [1, 0], [0.0, 1.0])
        state, val = update("db", state, V, [0, 1], [2.0, 1.0])
        assert val == pytest.approx(0.5)

    def test_k1_undefined(self):
        V = np.zeros((1, 2))
        state = IndexSet.start(("db",), V)
        state, val = update("db", state, V, [1.0], [1.0, 0.0])
        assert val is None
        assert oracle("db", [[1.0, 0.0]], [[1.0]], V) is None
        assert state.n == 1

    def test_empty_cluster_contributes_L_zero(self):
        # cluster 2 (far away, distance 10) never receives mass
        V = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 10.0]])
        state = IndexSet.start(("db",), V)
        state, _ = update("db", state, V, [1, 0, 0], [0.0, 1.0])
        state, val = update("db", state, V, [0, 1, 0], [2.0, 1.0])
        # Hand-expanded: L = (1, 1, 0); pairwise d2: 01->4, 02->100, 12->104
        # term i=0: max(2/4, 1/100) = 0.5; i=1: max(2/4, 1/104) = 0.5
        # i=2: max(1/100, 1/104) = 0.01
        assert val == pytest.approx((0.5 + 0.5 + 0.01) / 3.0)

    def test_matches_batch_at_every_step(self):
        rng = np.random.default_rng(12)
        X, U, Vs = random_stream(rng, 500, 3, 2)
        _, values = drive("db", X, U, Vs)
        for t in (1, 9, 77, 250, 500):
            expected = oracle("db", X[:t], U[:t], Vs[t])
            assert values[t - 1] == pytest.approx(expected, rel=1e-8)


class TestDbLambdaUpdate:
    def test_denominator_clamp(self):
        # engineered states: check the clamp arithmetic through one update
        V = np.array([[0.0], [4.0]])
        state = IndexSet.start(("db_lambda",), V, lam=0.9)
        u = [0.6, 0.4]
        state, val = update("db_lambda", state, V, u, [2.0])
        C = np.array([0.36 * 4.0, 0.16 * 4.0])
        M = np.array([0.36, 0.16])
        L = C / np.maximum(1.0, M)  # clamp active for both
        expected = 0.5 * ((L[0] + L[1]) / 16.0 + (L[1] + L[0]) / 16.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_matches_batch_at_every_step(self):
        rng = np.random.default_rng(13)
        X, U, Vs = random_stream(rng, 300, 4, 3)
        _, values = drive("db_lambda", X, U, Vs, lam=0.5)
        for t in (1, 20, 150, 300):
            expected = oracle("db_lambda", X[:t], U[:t], Vs[t], 0.5)
            assert values[t - 1] == pytest.approx(expected, rel=1e-8)


class TestBatchOracles:
    def test_symmetric_two_point_xb(self):
        # cluster 0 at the mean of two symmetric points, cluster 1 far away
        V = np.array([[0.0, 0.0], [100.0, 0.0]])
        hist = [([-1.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [1.0, 0.0])]
        # numerator = u^2-weighted within-SSE = 2; h = 10000; n = 2
        assert oracle("xb", *hist_arrays(hist), V) == pytest.approx(2.0 / (2 * 10000.0))

    def test_symmetric_db_half(self):
        V = np.array([[0.0, 0.0], [2.0, 0.0]])
        hist = [([0.0, 1.0], [1.0, 0.0]), ([2.0, 1.0], [0.0, 1.0])]
        assert oracle("db", *hist_arrays(hist), V) == pytest.approx(0.5)

    def test_db_requires_two_clusters(self):
        assert oracle("db", np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1))) is None

    def test_empty_history_rejected(self):
        V = np.array([[0.0], [1.0]])
        for family in ("xb", "db"):
            with pytest.raises(ValueError):
                oracle(family, np.zeros((0, 1)), np.zeros((0, 2)), V)

    @pytest.mark.parametrize("lam", [1.0, 0.9])
    @pytest.mark.parametrize("seed", range(5))
    def test_single_cluster_trial(self, monkeypatch, seed, lam):
        # with k = 1, XB's separation is the running max of ||v_1 - x||^2 on
        # both sides and DB is undefined; a value only one side calls
        # undefined fails the trial, so these are undefined on both
        seen = []
        step = IndexSet.step

        def recording_step(self, *args):
            out = step(self, *args)
            seen.append(out[1])
            return out

        monkeypatch.setattr(IndexSet, "step", recording_step)
        trial = run_trial(seed, k=1, lam=lam)
        assert trial.passed and trial.k == 1 and len(seen) == trial.n
        for values in seen:
            assert {fam: value is None for fam, value in values.items()} == {
                fam: fam.startswith("db") for fam in trial.max_rel_err}


class TestIndexProperties:
    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        X, U, Vs = random_stream(rng, 120, 3, 2)
        s = 7.5
        for fam, lam in (("xb", 1.0), ("db", 1.0), ("xb_lambda", 0.9), ("db_lambda", 0.9)):
            _, base = drive(fam, X, U, Vs, lam=lam)
            _, scaled = drive(fam, s * X, U, s * Vs, lam=lam)
            for a, b in zip(base, scaled):
                if a is not None:
                    assert b == pytest.approx(a, rel=1e-9)

    def test_nonnegative_when_defined(self):
        rng = np.random.default_rng(15)
        X, U, Vs = random_stream(rng, 200, 4, 2)
        for fam, lam in (("xb", 1.0), ("db", 1.0), ("xb_lambda", 0.9), ("db_lambda", 0.9)):
            _, values = drive(fam, X, U, Vs, lam=lam)
            assert all(v >= 0.0 for v in values if v is not None)

    def test_n_increments_by_one(self):
        rng = np.random.default_rng(16)
        X, U, Vs = random_stream(rng, 50, 2, 2)
        state = IndexSet.start(("xb",), Vs[0])
        for t in range(1, 51):
            state, _, _ = state.step(Vs[t], U[t - 1], X[t - 1])
            assert state.n == t


class TestIndexSet:
    def test_one_accumulator_set_per_forgetting_factor(self):
        V0 = np.zeros((3, 2))
        both = IndexSet.start(INDEX_FAMILIES, V0, lam=0.9)
        assert both.lam == (1.0, 0.9)
        assert both.mu.shape == (2, 3, 2)
        assert both.float_count() == 2 + 2 * 3 * (2 + 2)
        assert IndexSet.start(("xb", "db"), V0).lam == (1.0,)
        only = IndexSet.start(("db_lambda",), V0, lam=0.5)
        assert only.lam == (0.5,) and only.D.shape == (1, 3)

    def test_bad_families_and_lambda_rejected(self):
        V0 = np.zeros((2, 2))
        with pytest.raises(ValueError):
            IndexSet.start(("xb", "silhouette"), V0)
        with pytest.raises(ValueError):
            IndexSet.start(("xb_lambda",), V0, lam=1.0)
        with pytest.raises(ValueError):
            IndexSet.start((), V0)

    def test_shared_state_matches_single_family_runs(self):
        rng = np.random.default_rng(17)
        X, U, Vs = random_stream(rng, 150, 4, 3)
        state = IndexSet.start(INDEX_FAMILIES, Vs[0], lam=0.9)
        shared = {fam: [] for fam in INDEX_FAMILIES}
        for t in range(1, 151):
            state, values, _ = state.step(Vs[t], U[t - 1], X[t - 1])
            assert list(values) == list(INDEX_FAMILIES)
            for fam, val in values.items():
                shared[fam].append(val)
        for fam in INDEX_FAMILIES:
            _, alone = drive(fam, X, U, Vs, lam=0.9)
            assert shared[fam] == alone

    def test_birth_appends_empty_cluster(self):
        V1 = np.array([[0.0, 0.0]])
        state = IndexSet.start(("xb", "db_lambda"), V1, lam=0.9, n0=3)
        state, _ = update("xb", state, V1, [1.0], [1.0, 0.0])
        V2 = np.array([[0.0, 0.0], [5.0, 0.0]])
        state, values, _ = state.step(V2, np.ones(1), np.array([0.0, 1.0]))
        assert state.lam == (1.0, 0.9) and state.D.shape == (2, 2) and state.n == 5
        assert np.array_equal(state.M, [[3.0 + 1.0 + 1.0, 0.0],
                                        [(0.9 * 3.0 + 1.0) * 0.9 + 1.0, 0.0]])
        # the phantom mass 3 at (0, 0), then (1, 0) and (0, 1): mean (0.2, 0.2)
        assert state.mu[0, 0] == pytest.approx([0.2, 0.2], rel=1e-15)
        assert dispersion_about(state.D, state.mu, state.M, V2)[0] == pytest.approx(
            [2.0, 0.0], rel=1e-15)
        assert values["xb"] == pytest.approx(2.0 / (5 * 25.0))
        assert values["db_lambda"] is not None

    def test_newborn_rows_start_empty(self):
        # every row gains an empty cluster at its center for each of the two
        # newborns; a step with zero memberships moves no mean and only
        # decays the lam row
        V1 = np.zeros((1, 2))
        state = IndexSet.start(("xb", "xb_lambda"), V1, lam=0.9, n0=5)
        state, _, _ = state.step(V1, np.ones(1), np.array([3.0, 4.0]))
        before = state
        V3 = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        state, _, _ = state.step(V3, np.zeros(1), np.zeros(2))
        assert state.lam == (1.0, 0.9)
        assert np.array_equal(state.M, [[5.0 + 1.0, 0.0, 0.0],
                                        [0.9 * (0.9 * 5.0 + 1.0), 0.0, 0.0]])
        assert np.array_equal(state.D, [[before.D[0, 0], 0.0, 0.0],
                                        [0.9 * before.D[1, 0], 0.0, 0.0]])
        assert np.array_equal(state.mu[:, 0], before.mu[:, 0])
        assert np.array_equal(state.mu[:, 1:], [V3[1:]] * 2)
        # about the still center: 25 from (3, 4), decayed once in the lam row
        assert dispersion_about(state.D, state.mu, state.M, V3) == pytest.approx(
            np.array([[25.0, 0.0, 0.0], [0.9 * 25.0, 0.0, 0.0]]), rel=1e-14)

    def test_step_events_undefined_in_family_order(self):
        # with k == 1 both DB families are undefined, and the events follow
        # the families' order; a step reports no other kind of event
        families = ("db_lambda", "xb", "db", "xb_lambda")
        state = IndexSet.start(families, np.zeros((1, 2)), lam=0.9)
        _, values, events = state.step(np.array([[0.5, 0.0]]), np.ones(1),
                                       np.array([1.0, 0.0]))
        assert [fam for fam in families if values[fam] is None] == ["db_lambda", "db"]
        assert events == [("index_undefined", "db_lambda"), ("index_undefined", "db")]
        # x on the only center: h = 0, so XB is undefined too
        _, _, events = state.step(np.zeros((1, 2)), np.zeros(1), np.zeros(2))
        assert events == [("index_undefined", fam) for fam in families]
