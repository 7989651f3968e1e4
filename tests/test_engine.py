import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamcvi.core import MembershipVector, PrototypeSet, StreamPoint
from streamcvi.cvi import INDEX_FAMILIES, IndexSet, dispersion_about, pairwise_sq_distances
from streamcvi.datagen import gen_s1, gen_s2, gen_s3
from streamcvi.engine import ClustererError, RunConfig, StreamEngine, run
from streamcvi.oec import OecConfig, oec_init, oec_step
from streamcvi.skmeans import skmeans_init, skmeans_step
from streamcvi.stream_io import EventRecord
from streamcvi.verify import batch_accumulators, index_value


def gaussian_pair(seed, n=400):
    """Stationary two-mode stream: alternating draws from two Gaussians."""
    rng = np.random.default_rng(seed)
    a = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=n // 2)
    b = rng.multivariate_normal([8.0, 8.0], np.eye(2), size=n // 2)
    X = np.empty((n, 2))
    X[0::2] = a
    X[1::2] = b
    return X


def replay(X, config):
    """Re-drive the clusterer offline, as the engine does.

    Returns (n0, V0, U, Vs): the warm-up count, the centers after warm-up,
    the memberships of every evaluated point zero-padded to the final k (a
    cluster has u = 0 before and at its birth), and the centers after each
    evaluated point.
    """
    p = X.shape[1]
    if config.algorithm == "skmeans":
        n0 = config.k
        state = skmeans_init(list(X[:n0]))
        V0 = state.V.copy()
    else:
        n0 = p + 1
        state = oec_init(list(X[:n0]), OecConfig())
        V0 = state.centers().centers
    us, Vs = [], []
    for x in X[n0:]:
        if config.algorithm == "skmeans":
            state, u, _, V_new = skmeans_step(state, x)
        else:
            state, u, _, V_new, _ = oec_step(state, x, OecConfig())
        us.append(u.u)
        Vs.append(V_new.centers)
    U = np.zeros((len(us), Vs[-1].shape[0]))
    for t, u in enumerate(us):
        U[t, :u.shape[0]] = u
    return n0, V0, U, Vs


def direct_value(fam, X, replayed, t, config):
    """Index ``fam`` after evaluated point t (1-based) by direct summation
    over the whole history, or None when undefined.

    Warm-up seeding gives each initial cluster the warm-up count as
    membership mass at its starting center: a phantom point of mass
    n0 * lam**t there. While k == 1, XB divides by the running max of
    ||v_1 - x||^2.
    """
    n0, V0, U, Vs = replayed
    V = Vs[t - 1]
    k = V.shape[0]
    lam = config.lam if fam.endswith("_lambda") else 1.0
    C, M = batch_accumulators(X[n0:n0 + t], U[:t, :k], V, lam)
    k0 = V0.shape[0]
    C[:k0] += n0 * lam ** t * np.sum((V0 - V[:k0]) ** 2, axis=1)
    M[:k0] += n0 * lam ** t
    h = None
    if k == 1:  # k has been 1 throughout
        h = max(float(np.sum((Vs[s][0] - X[n0 + s]) ** 2)) for s in range(t))
    return index_value(fam, C, M, V, n0 + t, config.lam, h)


def assert_matches_direct(trace, X, config, steps):
    replayed = replay(X, config)
    n0 = replayed[0]
    for t in steps:
        row = trace[t - 1]
        assert row.n == n0 + t and row.k == replayed[3][t - 1].shape[0]
        for fam in config.indices:
            expected = direct_value(fam, X, replayed, t, config)
            if expected is None:
                assert row.values[fam] is None, (fam, t)
            else:
                assert row.values[fam] == pytest.approx(expected, rel=1e-8), (fam, t)


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig()

    def test_bad_algorithm(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="dbscan")

    def test_bad_index_family(self):
        with pytest.raises(ValueError):
            RunConfig(indices=("xb", "silhouette"))

    def test_empty_indices(self):
        with pytest.raises(ValueError):
            RunConfig(indices=())

    def test_lambda_range_checked_only_when_needed(self):
        RunConfig(indices=("xb", "db"), lam=1.0)  # no forgetting variant -> fine
        with pytest.raises(ValueError):
            RunConfig(indices=("xb_lambda",), lam=1.0)

    @pytest.mark.parametrize("algorithm", ["skmeans", "oec"])
    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", 0, -1])
    def test_k_must_be_an_integer(self, algorithm, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            RunConfig(algorithm=algorithm, k=k)

    def test_numpy_integer_k_accepted(self):
        assert RunConfig(k=np.int64(3)).k == 3


class TestInitModes:
    def test_paper_mode_seeds_mass_with_warmup_count(self):
        # the index state right after OEC's warm-up: p + 1 = 4 points in 3-d,
        # one cluster holding the warm-up count as mass, with no scatter, at
        # the initial center in every row
        engine = StreamEngine(RunConfig(algorithm="oec"))
        for x in np.random.default_rng(8).normal(size=(4, 3)):
            engine.push(x)
        state = engine._indices
        assert state.n == 4
        assert state.lam == (1.0, 0.9)
        assert np.array_equal(state.M, [[4.0], [4.0]])
        assert np.array_equal(state.D, np.zeros((2, 1)))
        assert np.array_equal(state.mu, [engine._cluster_state.m] * 2)


class TestWarmup:
    def test_skmeans_warmup_consumes_k_points(self):
        engine = StreamEngine(RunConfig(algorithm="skmeans", k=3))
        X = gaussian_pair(1, n=10)
        results = [engine.push(x) for x in X]
        assert results[:3] == [None, None, None]
        assert all(r is not None for r in results[3:])
        assert results[3].n == 4

    def test_oec_warmup_consumes_p_plus_one_points(self):
        engine = StreamEngine(RunConfig(algorithm="oec"))
        X = gaussian_pair(2, n=10)
        results = [engine.push(x) for x in X]
        assert results[:3] == [None, None, None]  # p + 1 = 3 in two dimensions
        assert results[3] is not None and results[3].k == 1

    def test_run_rejects_stream_shorter_than_warmup(self):
        with pytest.raises(ValueError, match="warm-up"):
            run(np.zeros((2, 2)), RunConfig(algorithm="skmeans", k=5))

    @pytest.mark.parametrize("algorithm", ["skmeans", "oec"])
    def test_zero_dimensional_points_rejected_at_first_point(self, algorithm):
        # a point with no coordinates is refused where it enters, before any
        # clusterer or index arithmetic can run (and warn) on it
        engine = StreamEngine(RunConfig(algorithm=algorithm, k=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-empty 1-d") as info:
                engine.push(np.zeros(0))
        assert not isinstance(info.value, ClustererError) and engine.n == 0

    @pytest.mark.parametrize("algorithm", ["skmeans", "oec"])
    def test_warmup_point_of_another_dimension_rejected(self, algorithm):
        # the first point fixes p; a later warm-up point of another dimension
        # is refused where it enters, not inside the clusterer's init
        engine = StreamEngine(RunConfig(algorithm=algorithm, k=2))
        engine.push([0.0, 0.0])
        with pytest.raises(ValueError, match=r"n=2 has dimension 3.*dimension 2") as info:
            engine.push([1.0, 0.0, 0.0])
        assert not isinstance(info.value, ClustererError) and engine.n == 1
        for x in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
            engine.push(x)
        assert engine.trace[-1].n == 4


class TestTraceSemantics:
    def test_single_pass_matches_batch_oracle(self):
        # feed a stream through the full engine, replay the clusterer offline,
        # and recompute every family by direct summation
        X = gaussian_pair(3, n=120)
        config = RunConfig(algorithm="skmeans", k=2, indices=INDEX_FAMILIES, lam=0.9)
        trace, _ = run(X, config)
        assert_matches_direct(trace, X, config, (1, 2, 30, 117, 118))
        # the three scenario streams with their sk-means k, at every
        # ground-truth change and the step after it
        for stream, k in ((gen_s1(1422), 2), (gen_s2(0), 11), (gen_s3(0), 10)):
            X = stream.X()
            config = RunConfig(algorithm="skmeans", k=k, indices=INDEX_FAMILIES, lam=0.9)
            trace, _ = run(X, config)
            changes = {c - k + d for c in stream.change_events for d in (0, 1)}
            assert changes
            assert_matches_direct(trace, X, config, sorted(changes | {1, 2, len(trace)}))

    def test_oec_births_match_batch_oracle(self):
        # every cluster birth on s3 and on s2 (the s2-oec scenario, which
        # grows both the lam = 1 and the lam rows) and the step after it,
        # where the index state grows and the newborn starts from empty
        # accumulators
        config = RunConfig(algorithm="oec", indices=INDEX_FAMILIES, lam=0.9)
        for stream in (gen_s3(0), gen_s2(0)):
            X = stream.X()
            trace, events = run(X, config)
            n0 = X.shape[1] + 1
            births = [e.n - n0 for e in events if e.kind == "cluster_created"]
            assert len(births) >= 3
            ks = [r.k for r in trace]
            assert births == [t for t in range(2, len(ks) + 1) if ks[t - 1] > ks[t - 2]]
            steps = sorted({s for t in births for s in (t, t + 1)} | {1, births[0] - 1})
            assert_matches_direct(trace, X, config, steps)

    def test_n_column_is_global_sample_index(self):
        trace, _ = run(gaussian_pair(4, n=50), RunConfig(k=2))
        assert [r.n for r in trace] == list(range(3, 51))

    def test_non_finite_values_are_flagged_undefined(self):
        # at this scale every squared distance is finite but the index
        # accumulators and read-outs overflow; every read-out that comes out
        # inf or nan must be None and logged as an event
        X = gen_s3(0).X() * 1e151
        with np.errstate(over="ignore", invalid="ignore"):
            trace, events = run(X, RunConfig(algorithm="skmeans", k=2))
        values = [v for r in trace for v in r.values.values()]
        assert all(v is None or math.isfinite(v) for v in values)
        undefined = sum(v is None for v in values)
        assert undefined > 0
        assert undefined == sum(e.kind == "index_undefined" for e in events)

    @pytest.mark.parametrize("e", [500, 502, 504])
    @pytest.mark.parametrize("gen, k", [(gen_s3, 2), (gen_s2, 11)])
    def test_skmeans_values_are_scale_equivariant_up_to_overflow(self, gen, k, e):
        # each index is scale-free, and scaling by a power of two is exact,
        # so a value either overflows to None or repeats the small-scale
        # run's bit for bit; XB read as J / (n*h) gave 0.0 once n*h overflowed
        X = gen(0).X()
        config = RunConfig(algorithm="skmeans", k=k)
        with np.errstate(over="ignore", invalid="ignore"):
            big, _ = run(np.ldexp(X, e), config)
            small, _ = run(np.ldexp(X, -300), config)
        mismatched = [(b.n, fam) for b, s in zip(big, small, strict=True)
                      for fam, v in b.values.items() if v is not None and v != s.values[fam]]
        assert mismatched == []

    @pytest.mark.parametrize("e", [-300, -20, 300])
    def test_oec_run_is_scale_equivariant(self, e):
        # scaling by a power of two is exact and OEC's covariance floors are
        # relative to the covariance itself, so the run repeats bit for bit;
        # with absolute floors, k stayed 1 at e = -20 and the run failed at -300
        X = gen_s3(0).X()
        config = RunConfig(algorithm="oec")
        assert run(X * 2.0 ** e, config) == run(X, config)

    def test_clusterer_failure_names_n_and_algorithm(self):
        # OEC's warm-up covariance overflows on this stream, at the third
        # point; the failure must say where, not just what
        X = gen_s3(0).X() * 1e200
        engine = StreamEngine(RunConfig(algorithm="oec"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ClustererError, match=r"oec .*n=3") as info:
                for x in X:
                    engine.push(x)
        assert info.value.n == 3 and info.value.algorithm == "oec"
        assert isinstance(info.value, ValueError)

    def test_skmeans_failure_names_n_and_algorithm(self):
        # every squared distance to the prototypes overflows at the first
        # step; argmin over all-inf distances would silently pick cluster 0
        X = gen_s3(0).X() * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ClustererError, match=r"skmeans .*n=3") as info:
                run(X, RunConfig(k=2))
        assert info.value.n == 3 and info.value.algorithm == "skmeans"

    def test_overflowing_distance_named_as_the_cause(self):
        # [1e308, 1e308] is finite, so the engine accepts it; its squared
        # distance to a prototype overflows, and the error must say so
        engine = StreamEngine(RunConfig(k=2))
        engine.push([0.0, 0.0])
        engine.push([1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ClustererError, match="squared distances") as info:
                engine.push([1e308, 1e308])
        assert info.value.n == 3

    def test_non_finite_center_names_n_and_algorithm(self, monkeypatch):
        # push checks every step's output once: a nan center at n=6 must
        # fail there, not pass into the index state as an undefined value
        def nan_center_at_6(state, x):
            out = skmeans_step(state, x)
            if int(state.counts.sum()) == 5:
                out[3].centers[1, 0] = np.nan
            return out

        monkeypatch.setattr("streamcvi.engine.skmeans_step", nan_center_at_6)
        engine = StreamEngine(RunConfig(k=2))
        for x in gaussian_pair(8, n=6)[:5]:
            engine.push(x)
        with pytest.raises(ClustererError, match=r"skmeans .*n=6") as info:
            engine.push([0.0, 0.0])
        assert info.value.n == 6 and info.value.algorithm == "skmeans"

    def test_far_mean_reads_out_nonnegative_dispersion(self):
        # a hand-built index state whose lam row holds its mass far from
        # every center: the read-out stays a sum of non-negative terms, every
        # value is defined and non-negative, and no event is logged
        engine = StreamEngine(RunConfig(algorithm="skmeans", k=2))
        engine.push([0.0, 0.0])
        engine.push([10.0, 0.0])
        state = engine._indices
        assert state.lam == (1.0, 0.9)
        mu = np.zeros((2, 2, 2))
        mu[1, 0] = [100.0, 0.0]
        engine._indices = state._replace(D=np.zeros((2, 2)), mu=mu,
                                         M=np.array([[0.0, 0.0], [2.0, 0.0]]))
        for x in ([1.0, 0.0], [10.0, 0.0]):
            record = engine.push(x)
            assert all(v is not None and v >= 0.0 for v in record.values.values())
            state = engine._indices
            C = dispersion_about(state.D, state.mu, state.M, engine._cluster_state.V)
            assert np.minimum.reduce(C, axis=None) >= 0.0
        assert engine.events == []

    def test_deterministic_rerun(self):
        X = gaussian_pair(6, n=300)
        config = RunConfig(algorithm="oec")
        t1, e1 = run(X, config)
        t2, e2 = run(X, config)
        assert t1 == t2
        assert e1 == e2


STEPS = {"skmeans": skmeans_step, "oec": oec_step}
# the field of each clusterer state that holds its (k, p) centers, which the
# engine reads as the step's new centers
CENTERS = {"skmeans": "V", "oec": "m"}


def altered(algorithm, change):
    """``algorithm``'s step with its memberships u and the returned state's
    centers V replaced by ``change(u, V)``, which returns new arrays; the
    rest of the step's output is left as the step computed it."""
    step, field = STEPS[algorithm], CENTERS[algorithm]

    def wrapper(*args):
        state, u, *rest = step(*args)
        u, V = change(u.u, getattr(state, field))
        return (state._replace(**{field: V}), MembershipVector(u), *rest)
    return wrapper


def with_first(a, value):
    """A copy of ``a`` with entry 0 replaced by ``value``."""
    a = a.copy()
    a.flat[0] = value
    return a


# step outputs of the wrong shape, keyed by the case's id
MISSHAPEN = {
    "u": lambda u, V: (np.append(u, 0.0), V),           # one membership too many
    "V_new": lambda u, V: (u, V[:-1]),                  # the state drops its last center
    "V_new_dim": lambda u, V: (u, V[:, :-1]),           # centers of another dimension
    "u_short": lambda u, V: (u[:-1], V),                # one membership too few
    "fewer_centers": lambda u, V: (u, V[:u.shape[0] - 1]),  # fewer than the index state
}


class TestFailedPush:
    # (config, stream, 0-based index of the rejected point): under OEC it is
    # the point of the first birth on s3, which changes the state's size
    CASES = {
        "skmeans": (RunConfig(k=2), gaussian_pair(8, n=80), 39),
        "oec": (RunConfig(algorithm="oec"), gen_s3(0).X()[:260], 220),
    }

    def assert_rejected(self, monkeypatch, algorithm, bad, change=None, point=None, match=""):
        """Push the case's stream up to 0-based point ``bad``, then that point
        (or ``point``) through a step whose output ``change`` alters. The push
        must raise a ClustererError naming n = bad + 1 and change nothing, and
        the unaltered step must then resume to the run without point ``bad``."""
        config, X, _ = self.CASES[algorithm]
        engine = StreamEngine(config)
        for x in X[:bad]:
            engine.push(x)
        before = (engine.n, engine.state_float_count(), len(engine.trace), len(engine.events))
        if change is not None:
            monkeypatch.setattr(f"streamcvi.engine.{algorithm}_step", altered(algorithm, change))
        with pytest.raises(ClustererError, match=rf"{algorithm} .*n={bad + 1}{match}") as info:
            engine.push(X[bad] if point is None else point)
        assert info.value.n == bad + 1 and info.value.algorithm == algorithm
        after = (engine.n, engine.state_float_count(), len(engine.trace), len(engine.events))
        assert after == before
        monkeypatch.undo()
        for x in X[bad + 1:]:
            engine.push(x)
        assert (engine.trace, engine.events) == run(np.delete(X, bad, axis=0), config)

    @pytest.mark.parametrize("field, value", [("u", 1.5), ("u", -0.1), ("u", np.nan),
                                              ("V_new", np.inf)])
    @pytest.mark.parametrize("algorithm", ["skmeans", "oec"])
    def test_failed_push_changes_nothing(self, monkeypatch, algorithm, field, value):
        def change(u, V):
            return (with_first(u, value), V) if field == "u" else (u, with_first(V, value))

        self.assert_rejected(monkeypatch, algorithm, self.CASES[algorithm][2], change)

    @pytest.mark.parametrize("field", ["u", "V_new", "V_new_dim"])
    @pytest.mark.parametrize("algorithm", ["skmeans", "oec"])
    def test_misshapen_step_output_changes_nothing(self, monkeypatch, algorithm, field):
        # the point before OEC's first birth
        bad = self.CASES[algorithm][2] - 1
        self.assert_rejected(monkeypatch, algorithm, bad, MISSHAPEN[field], match=": .*shape")

    @pytest.mark.parametrize("field", ["u_short", "u", "fewer_centers"])
    @pytest.mark.parametrize("algorithm", ["skmeans", "oec"])
    def test_output_the_index_state_cannot_take_changes_nothing(self, monkeypatch,
                                                                algorithm, field):
        # under OEC, at the first birth: u must cover the k clusters the index
        # state held before it, not the newborn too, and the state keep them
        bad = self.CASES[algorithm][2]
        self.assert_rejected(monkeypatch, algorithm, bad, MISSHAPEN[field], match=": .*shape")

    @pytest.mark.parametrize("algorithm", ["skmeans", "oec"])
    def test_point_of_another_dimension_changes_nothing(self, monkeypatch, algorithm):
        # as_vector accepts it; the clusterer step's own check of x rejects it
        _, X, bad = self.CASES[algorithm]
        self.assert_rejected(monkeypatch, algorithm, bad, point=np.append(X[bad], 0.0),
                             match=": .*shape")

    def test_birth_step_one_center_short_changes_nothing(self, monkeypatch):
        # OEC's first birth on s3 is at n=221. The wrapped step drops the
        # newborn from the V_new it returns, which the engine does not read:
        # it takes the centers from the clusterer state, so the run is the
        # clean one
        config, X, bad = self.CASES["oec"]

        def short_birth(*args):
            state, u, V_old, V_new, events = oec_step(*args)
            if V_new.centers.shape[0] > V_old.centers.shape[0]:
                V_new = PrototypeSet(V_new.centers[:-1])
            return state, u, V_old, V_new, events

        monkeypatch.setattr("streamcvi.engine.oec_step", short_birth)
        trace, events = run(X, config)
        monkeypatch.undo()
        assert EventRecord(bad + 1, "cluster_created", "k=2") in events
        assert (trace, events) == run(X, config)

    def test_failed_warmup_changes_nothing(self):
        # OEC's warm-up covariance overflows at n=3 (see
        # test_clusterer_failure_names_n_and_algorithm)
        engine = StreamEngine(RunConfig(algorithm="oec"))
        X = gen_s3(0).X()[:3] * 1e200
        engine.push(X[0])
        engine.push(X[1])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ClustererError, match="n=3"):
                engine.push(X[2])
        assert engine.n == 2 and engine.state_float_count() == 4


DEGENERATE_CONFIGS = [RunConfig(k=2), RunConfig(k=3), RunConfig(k=5),
                      RunConfig(algorithm="oec")]


def assert_degenerate_flagged(X, config):
    """Run X to the end without an error. Every None read-out has exactly one
    index_undefined event, and every read-out at coincident centers is None.
    Returns the trace."""
    trace, events = run(X, config)
    flagged = Counter((e.n, e.detail) for e in events if e.kind == "index_undefined")
    assert set(flagged.values()) <= {1}
    Vs = replay(X, config)[3]
    for row, V in zip(trace, Vs, strict=True):
        undefined = {fam for fam, v in row.values.items() if v is None}
        assert undefined == {fam for fam in config.indices if (row.n, fam) in flagged}
        gaps = pairwise_sq_distances(V)[~np.eye(V.shape[0], dtype=bool)]
        if (gaps == 0.0).any():
            assert undefined == set(config.indices), row
    assert sum(flagged.values()) == sum(v is None for r in trace for v in r.values.values())
    return trace


class TestDegenerateInput:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1, 2, 3]),
           st.sampled_from(DEGENERATE_CONFIGS), st.integers(6, 50))
    @example(1.7e308, 2, RunConfig(k=2), 20)
    @example(1.7e308, 2, RunConfig(k=5), 20)
    @example(1.7e308, 2, RunConfig(algorithm="oec"), 20)
    def test_constant_stream_is_undefined_throughout(self, c, p, config, n):
        # sk-means centers all sit on c, so they coincide at every step. No
        # floating-point fault is expected either: near 1.8e308 the entries
        # of a point sum past the largest float, and checking them must not.
        with np.errstate(all="raise"):
            trace = assert_degenerate_flagged(np.full((n, p), c), config)
        if config.algorithm == "oec":
            # one cluster throughout, so DB is undefined; the warm-up mean is
            # exactly c, so XB's separation is 0 and XB is undefined too
            assert all(r.k == 1 for r in trace)
            assert all(v is None for r in trace for v in r.values.values())

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
           st.sampled_from(DEGENERATE_CONFIGS), st.lists(st.booleans(), min_size=6, max_size=50))
    # OEC's squared distance to the far point is subnormal, and squaring it
    # in the memberships gave 0 and a division by zero
    @example(1, [0.0, 1.7257852302346914e-165, 0.0, 0.0, 0.0, 0.0], RunConfig(algorithm="oec"),
             [False] * 5 + [True])
    def test_two_point_stream_flags_coincident_centers(self, p, coords, config, picks):
        a, b = np.array(coords[:p]), np.array(coords[p:2 * p])
        assert_degenerate_flagged(np.array([b if pick else a for pick in picks]), config)


class TestDynamicK:
    def drifting_stream(self, seed=0):
        from streamcvi.datagen import gen_s2

        return gen_s2(seed)

    def test_index_states_grow_with_clusterer(self):
        stream = self.drifting_stream()
        trace, events = run(stream.X(), RunConfig(algorithm="oec"),
                            stream.change_events)
        created = [e for e in events if e.kind == "cluster_created"]
        assert created, "expected at least one mid-stream cluster creation"
        final_k = trace[-1].k
        assert final_k == 1 + len(created)
        # k column is non-decreasing and every row carries index values for
        # the cluster count of that moment
        ks = [r.k for r in trace]
        assert ks == sorted(ks)

    @pytest.mark.parametrize("gen", [gen_s2, gen_s3])
    def test_index_state_holds_the_clusterer_states_k(self, gen):
        # after every push, each birth and the step after it included, the
        # index state, the clusterer state and the trace row hold one k, which
        # only grows, by one per cluster_created event
        engine = StreamEngine(RunConfig(algorithm="oec"))
        k, logged = 1, 0
        for x in gen(0).X():
            row = engine.push(x)
            if row is None:
                continue
            new_events, logged = engine.events[logged:], len(engine.events)
            k += sum(e.kind == "cluster_created" for e in new_events)
            assert engine._indices.M.shape[1] == k
            assert engine._centers(engine._cluster_state).shape[0] == k
            assert row.k == k
        assert k > 1

    def test_db_defined_once_second_cluster_exists(self):
        stream = self.drifting_stream()
        trace, _ = run(stream.X(), RunConfig(algorithm="oec", indices=("db",)))
        first_multi = next(i for i, r in enumerate(trace) if r.k >= 2)
        defined_after = [r.values["db"] is not None for r in trace[first_multi + 1:]]
        assert np.mean(defined_after) > 0.95

    def test_ground_truth_events_logged_and_sorted(self):
        stream = self.drifting_stream()
        _, events = run(stream.X(), RunConfig(algorithm="oec"),
                        stream.change_events)
        gt = [e.n for e in events if e.kind == "ground_truth_change"]
        assert gt == list(stream.change_events)
        assert [e.n for e in events] == sorted(e.n for e in events)


def snapshot(value):
    """Deep copy of every array reachable from a clusterer step's outputs."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if hasattr(value, "_asdict"):  # a NamedTuple record
        return {name: snapshot(v) for name, v in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [snapshot(v) for v in value]
    return value


def assert_same(a, b):
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b, equal_nan=True)
    elif isinstance(a, dict):
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, list):
        for x, y in zip(a, b, strict=True):
            assert_same(x, y)
    else:
        assert a == b


class TestPerPointCalls:
    """After warm-up a step makes every contraction and reduction one direct
    ufunc or gufunc call. numpy's Python-level wrappers cost microseconds a
    call at these shapes, more than the arithmetic; births may use them."""

    WRAPPERS = ("einsum", "outer", "flatnonzero", "sum", "argmax", "all", "any")

    @pytest.mark.parametrize("stream, config, min_births", [
        (gen_s3, RunConfig(algorithm="oec", indices=("xb_lambda", "db_lambda")), 1),
        (gen_s2, RunConfig(algorithm="skmeans", k=11), 0),
    ])
    def test_no_numpy_wrapper_after_warmup(self, monkeypatch, stream, config, min_births):
        X = stream(0).X()
        engine = StreamEngine(config)
        t = 0
        while engine.push(X[t]) is None:  # warm-up, then one step
            t += 1
        for name in self.WRAPPERS:
            def banned(*args, _name=name, **kwargs):
                raise AssertionError(f"numpy.{_name} called after warm-up")
            monkeypatch.setattr(np, name, banned)
        for x in X[t + 1:]:
            engine.push(x)
        assert engine.n == len(X)
        assert sum(e.kind == "cluster_created" for e in engine.events) >= min_births


class TestImmutableStates:
    @pytest.mark.parametrize("algorithm", ["skmeans", "oec"])
    def test_step_leaves_earlier_outputs_unchanged(self, algorithm):
        # states and center snapshots may share arrays, so no step may write
        # into an array an earlier step returned; s3 has OEC births
        X = gen_s3(0).X()[:600]
        if algorithm == "skmeans":
            state = skmeans_init(list(X[:3]))
            step = skmeans_step
        else:
            state = oec_init(list(X[:3]), OecConfig())
            step = lambda s, x: oec_step(s, x, OecConfig())[:4]
        prev, frozen = None, None
        for x in X[3:]:
            out = step(state, x)
            if prev is not None:
                assert_same(frozen, snapshot(prev))
            prev, frozen = out, snapshot(out)
            state = out[0]
        if algorithm == "oec":
            assert state.k >= 2

    def test_index_step_leaves_earlier_states_unchanged(self):
        # a snapshot of an index state is a reference, so no step may write
        # into an earlier state's D, mu or M: s3 under OEC has births
        engine = StreamEngine(RunConfig(algorithm="oec"))
        prev, frozen = None, None
        for x in gen_s3(0).X()[:600]:
            engine.push(x)
            if prev is not None:
                assert_same(frozen, snapshot(prev))
            if engine._indices is not None:
                prev, frozen = engine._indices, snapshot(engine._indices)
        assert prev.M.shape[1] >= 2

    def test_birth_index_step_leaves_earlier_state_unchanged(self):
        # the hand-built lam row of test_far_mean_reads_out_nonnegative_dispersion,
        # through a step that also appends a newborn cluster
        state = IndexSet.start(("xb", "xb_lambda"), np.zeros((1, 2)), lam=0.9)
        state = state._replace(mu=np.array([[[0.0, 0.0]], [[100.0, 0.0]]]),
                               M=np.array([[0.0], [2.0]]))
        frozen = snapshot(state)
        _, values, events = state.step(np.array([[0.5, 0.0], [5.0, 0.0]]), np.ones(1),
                                       np.array([1.0, 0.0]))
        assert events == [] and all(v >= 0.0 for v in values.values())
        assert_same(frozen, snapshot(state))


class TestRecords:
    def test_no_field_can_be_assigned(self):
        # every per-point record is an immutable NamedTuple
        X = gen_s3(0).X()[:40]
        sk_state, u, V_old, _ = skmeans_step(skmeans_init(list(X[:2])), X[2])
        engine = StreamEngine(RunConfig(algorithm="oec"))
        for x in X:
            engine.push(x)
        oec_state = engine._cluster_state
        records = [sk_state, u, V_old, oec_state, oec_state.forget, engine._indices,
                   StreamPoint(X[0]), engine.trace[-1], EventRecord(1, "cluster_created")]
        for record in records:
            assert isinstance(record, tuple) and record._fields
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))


class TestMemoryFootprint:
    def test_state_float_count_constant_in_stream_length(self):
        config = RunConfig(algorithm="skmeans", k=2)
        sizes = []
        for n in (200, 1000, 5000):
            engine = StreamEngine(config)
            rng = np.random.default_rng(0)
            for x in rng.normal(size=(n, 2)):
                engine.push(x)
            sizes.append(engine.state_float_count())
        assert sizes[0] == sizes[1] == sizes[2]

    def test_index_state_counted_once_per_forgetting_factor(self):
        # four families, two forgetting factors: 2 * k*(p+2) index floats + h, n
        k, p = 3, 2
        engine = StreamEngine(RunConfig(algorithm="skmeans", k=k))
        for x in gaussian_pair(7, n=20):
            engine.push(x)
        clusterer = k * p + k  # prototypes + counts
        assert engine.state_float_count() == clusterer + 2 * k * (p + 2) + 2

    def test_oec_state_floats(self):
        # per cluster: mean, whitening matrix, count, mass; plus the
        # forgetful mean, scatter and mass, and one lam set for xb_lambda
        X = gen_s3(0).X()
        engine = StreamEngine(RunConfig(algorithm="oec", indices=("xb_lambda",)))
        for x in X:
            engine.push(x)
        k, p = engine.trace[-1].k, X.shape[1]
        assert k >= 2
        clusterer = k * (p + p * p + 2) + p + p * p + 1
        assert engine.state_float_count() == clusterer + k * (p + 2) + 2
