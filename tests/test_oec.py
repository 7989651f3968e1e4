import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

import streamcvi

from streamcvi.oec import (
    OecConfig,
    OecState,
    _ForgetfulStats,
    _regularize,
    chi2_inverse,
    mahalanobis_sq,
    oec_init,
    oec_membership,
    oec_step,
)

from helpers import validate_membership


def make_state(ms, S_invs, count=30):
    """OEC state with one cluster row per (mean, inverse covariance) pair; the
    whitening matrix R = L^T of S_inv = L L^T has R^T R = S_inv."""
    m = np.array(ms, dtype=float)
    S_inv = np.array(S_invs, dtype=float)
    k, p = m.shape
    return OecState(
        m=m,
        R=np.linalg.cholesky(S_inv).transpose(0, 2, 1),
        count=np.full(k, count),
        W=np.full(k, float(count)),
        forget=_ForgetfulStats(m=m[0].copy(), S=np.zeros((p, p)), W=1.0),
        chi2_out=chi2_inverse(p, OecConfig().gamma_out),
    )


def membership(x, state):
    return oec_membership(mahalanobis_sq(np.asarray(x, dtype=float), state.m, state.R))


def run_stream(X):
    config = OecConfig()
    p = X.shape[1]
    state = oec_init(X[: p + 1], config)
    events = []
    for x in X[p + 1:]:
        state, u, V_old, V_new, ev = oec_step(state, x, config)
        events.extend(ev)
        yield state, u, V_old, V_new, events


# the quantile's checks run over this grid; scipy is the reference
CHI2_DOFS = (1, 2, 3, 8, 50, 200, 1000)
CHI2_GAMMAS = (1e-300, 1e-100, 1e-12, 0.01, 0.5, 0.9, 0.99, 0.999, 0.9999, 1 - 1e-12, 1 - 2.0**-53)
# here the quantile, about 1.6e-600, is below the smallest double
UNDERFLOW = (1, 1e-300)


def chi2_grid():
    return [(p, g) for p in CHI2_DOFS for g in CHI2_GAMMAS if (p, g) != UNDERFLOW]


class TestChi2Inverse:
    def test_two_dof_closed_form(self):
        # for 2 dof the quantile is -2 ln(1 - gamma)
        assert chi2_inverse(2, 0.99) == pytest.approx(-2.0 * np.log(0.01), abs=1e-8)
        assert chi2_inverse(2, 0.99) == pytest.approx(9.21034, abs=1e-5)
        assert chi2_inverse(2, 0.999) == pytest.approx(13.8155, abs=1e-4)

    def test_eight_dof_against_quadrature(self):
        x = chi2_inverse(8, 0.99)
        density = lambda t: t**3 * np.exp(-t / 2.0) / (2.0**4 * 6.0)
        mass, _ = integrate.quad(density, 0.0, x)
        assert mass == pytest.approx(0.99, abs=1e-8)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            chi2_inverse(2, 1.0)
        with pytest.raises(ValueError):
            chi2_inverse(2, 0.0)

    def test_dof_must_be_a_positive_integer(self):
        for p_dof in (1.5, True, 0, 2.0):
            with pytest.raises(ValueError, match="positive integer"):
                chi2_inverse(p_dof, 0.9)

    def test_matches_scipy_stats(self):
        for p_dof, gamma in chi2_grid():
            expected = float(stats.chi2.ppf(gamma, df=p_dof))
            assert chi2_inverse(p_dof, gamma) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_round_trips_through_the_incomplete_gamma_function(self):
        # the tail that was solved: Q = 1 - gamma above 0.5, P = gamma otherwise
        for p_dof, gamma in chi2_grid():
            half = chi2_inverse(p_dof, gamma) / 2.0
            if gamma > 0.5:
                assert special.gammaincc(p_dof / 2, half) == pytest.approx(1.0 - gamma, rel=1e-12, abs=0.0)
            else:
                assert special.gammainc(p_dof / 2, half) == pytest.approx(gamma, rel=1e-12, abs=0.0)

    def test_finite_positive_and_increasing_in_gamma(self):
        for p_dof in CHI2_DOFS:
            q = np.array([chi2_inverse(p_dof, g) for g in CHI2_GAMMAS if (p_dof, g) != UNDERFLOW])
            assert np.isfinite(q).all() and (q > 0.0).all()
            assert (np.diff(q) > 0.0).all()

    def test_underflowing_quantile_raises(self):
        assert stats.chi2.ppf(UNDERFLOW[1], df=UNDERFLOW[0]) == 0.0
        with pytest.raises(ValueError, match="underflows"):
            chi2_inverse(*UNDERFLOW)

    def test_no_run_loads_scipy(self, tmp_path):
        # importing scipy dominates a run's start-up time and memory, and no
        # clusterer needs it
        src = str(Path(streamcvi.__file__).resolve().parents[1])
        code = """\
import sys
import numpy as np
import streamcvi
from streamcvi.cli import main
from streamcvi.engine import RunConfig, run
loaded = lambda: any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)
seen = [loaded()]
X = np.random.default_rng(0).normal(size=(40, 2))
run(X, RunConfig(k=3))
seen.append(loaded())
assert main(['run', 's1-skmeans', '--out', sys.argv[1]]) == 0
assert main(['verify', '--trials', '2']) == 0
seen.append(loaded())
run(X, RunConfig(algorithm='oec'))
seen.append(loaded())
print(seen)
"""
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.splitlines()[-1] == "[False, False, False, False]"


class TestMahalanobis:
    def test_identity_reduces_to_euclidean(self):
        state = make_state([[0.0, 0.0], [1.0, 1.0]], [np.eye(2), np.eye(2)])
        assert np.allclose(mahalanobis_sq(np.array([3.0, 4.0]), state.m, state.R),
                           [25.0, 13.0])

    def test_hand_expanded_quadratic_form(self):
        # d = (1, 2) against [[2, 0.5], [0.5, 1]]: 2 + 2*0.5*2 + 4 = 8
        state = make_state([[0.0, 0.0], [1.0, 2.0]],
                           [[[2.0, 0.5], [0.5, 1.0]], np.eye(2)])
        assert np.array_equal(mahalanobis_sq(np.array([1.0, 2.0]), state.m, state.R),
                              [8.0, 0.0])

    def test_zero_at_mean(self):
        state = make_state([[2.0, -1.0]], [[[2.0, 0.3], [0.3, 1.0]]])
        assert mahalanobis_sq(np.array([2.0, -1.0]), state.m, state.R)[0] == 0.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        k, p = 4, 3
        R = rng.normal(size=(k, p, p))
        S_inv = np.stack([A.T @ A for A in R])
        m = rng.normal(size=(k, p))
        x = rng.normal(size=p)
        F = mahalanobis_sq(x, m, R)
        assert F.shape == (k,)
        for r in range(k):
            expected = sum(
                (x[i] - m[r, i]) * S_inv[r, i, j] * (x[j] - m[r, j])
                for i in range(p)
                for j in range(p)
            )
            assert F[r] == pytest.approx(expected, rel=1e-12)


class TestMembership:
    def test_single_cluster(self):
        u = membership([5.0, 5.0], make_state([[0.0, 0.0]], [np.eye(2)]))
        assert np.array_equal(u, [1.0])

    def test_equal_distances_split_evenly(self):
        state = make_state([[-1.0, 0.0], [1.0, 0.0]], [np.eye(2)] * 2)
        u = membership([0.0, 3.0], state)
        assert np.allclose(u, [0.5, 0.5])

    def test_hand_expanded_ratio(self):
        state = make_state([[0.0, 0.0], [0.0, 3.0]], [np.eye(2)] * 2)
        # x at distance^2 F1 = 1 from the first, F2 = 1 + 9 = 10 from the second
        u = membership([1.0, 0.0], state)
        F1, F2 = 1.0, 10.0
        expected = 1.0 / (1.0 + (F1 / F2) ** 2)
        assert u[0] == pytest.approx(expected)
        assert np.sum(u) == pytest.approx(1.0, abs=1e-12)

    def test_zero_distance_one_hot_lowest_index(self):
        state = make_state([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]], [np.eye(2)] * 3)
        u = membership([0.0, 0.0], state)
        assert np.array_equal(u, [0.0, 1.0, 0.0])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"expected a \(2,\) vector"):
            oec_step(make_state([[0.0, 0.0]], [np.eye(2)]), [0.0, 0.0, 0.0], OecConfig())


class TestShielding:
    def test_stabilized_cluster_ignores_far_point(self):
        # both rows are stabilized (count 30 >= n_s 20); x is far outside the
        # second's boundary but inside the first's, so only the first moves
        state = make_state([[0.0, 0.0], [100.0, 0.0]], [np.eye(2)] * 2)
        new, u, V_old, V_new, _ = oec_step(state, [1.0, 0.0], OecConfig())
        assert 0.0 < u.u[1] < 1e-6
        assert np.array_equal(new.count, [31, 30])
        assert new.W[0] == 30.0 + u.u[0] and new.W[1] == 30.0
        assert np.array_equal(V_new.centers[1], [100.0, 0.0])
        assert not np.array_equal(V_new.centers[0], V_old.centers[0])
        assert np.array_equal(new.R[1], state.R[1])

    def test_stabilizing_cluster_absorbs_far_point(self):
        state = make_state([[0.0, 0.0]], [np.eye(2)], count=5)
        new, _, _, V_new, _ = oec_step(state, [50.0, 0.0], OecConfig())
        assert np.array_equal(new.count, [6])
        assert V_new.centers[0][0] == pytest.approx(50.0 / 6.0)  # W = 5, u = 1

    def test_shielded_winner_is_not_counted(self):
        state = make_state([[0.0, 0.0]], [np.eye(2)])
        new, u, _, _, _ = oec_step(state, [50.0, 0.0], OecConfig())
        assert np.array_equal(u.u, [1.0])
        assert np.array_equal(new.count, [30])
        assert new.m is state.m and new.R is state.R


class TestOecStep:
    def test_init_needs_p_plus_one_points(self):
        with pytest.raises(ValueError):
            oec_init(np.zeros((2, 2)), OecConfig())

    def test_single_gaussian_rarely_splits(self):
        stays_single = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.multivariate_normal([3.0, 5.0], [[2.0, 0.5], [0.5, 1.0]], size=600)
            for state, *_ in run_stream(X):
                pass
            stays_single += state.k == 1
        assert stays_single >= 18

    def test_s2_finds_most_modes(self):
        from streamcvi.datagen import gen_s2

        counts = []
        for seed in range(20):
            stream = gen_s2(seed)
            for state, *_ in run_stream(stream.X()):
                pass
            counts.append(state.k)
        assert np.median(counts) >= 8

    def test_point_at_stabilized_mean_never_creates(self):
        rng = np.random.default_rng(1)
        X = rng.multivariate_normal([0.0, 0.0], np.eye(2), size=100)
        for state, u, V_old, V_new, events in run_stream(X):
            pass
        before = [e for e in events if e[0] == "cluster_created"]
        state, _, _, _, ev = oec_step(state, state.m[0].copy(), OecConfig())
        assert not [e for e in ev if e[0] == "cluster_created"]
        assert state.k == 1 + len(before)

    def test_memberships_always_valid(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 2)) * 3.0
        for state, u, *_ in run_stream(X):
            assert validate_membership(u.u) is None

    def test_inverse_covariance_stays_spd(self):
        rng = np.random.default_rng(3)
        X = np.vstack([
            rng.multivariate_normal([0, 0], np.eye(2), size=300),
            rng.multivariate_normal([30, 30], np.eye(2), size=300),
        ])
        for state, *_ in run_stream(X):
            for R in state.R:
                assert np.isfinite(R).all()
                np.linalg.cholesky(R.T @ R)  # raises if not PD

    def test_birth_appends_one_row_to_every_array(self):
        from streamcvi.datagen import gen_s3

        X = gen_s3(0).X()
        prev = oec_init(X[:3], OecConfig())
        births = 0
        for state, u, V_old, V_new, events in run_stream(X):
            if state.k > prev.k:
                births += 1
                k, p = state.k, state.p
                assert state.k == prev.k + 1
                assert state.m.shape == (k, p) and state.R.shape == (k, p, p)
                assert state.count.shape == state.W.shape == (k,)
                assert state.count[-1] == p + 1 and state.W[-1] == p + 1
                # u and V_old cover only the clusters that existed before
                assert np.array_equal(V_old.centers, prev.m)
                assert V_new.centers.shape == (k, p) and u.u.shape == (k - 1,)
                assert events[-1] == ("cluster_created", f"k={k}")
            prev = state
        assert births >= 3

    def test_forgetful_mean_matches_running_mean_at_lambda_one(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        lam = 1.0 - 1e-12
        stats = _ForgetfulStats(m=X[0].copy(), S=np.zeros((3, 3)), W=1.0)
        for x in X[1:]:
            stats = stats.updated(x, lam)
        assert np.allclose(stats.m, X.mean(axis=0), atol=1e-6)


def rel_err(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


class TestRegularize:
    def test_whitens_the_estimate(self):
        A = np.random.default_rng(8).normal(size=(3, 3))
        cov = A @ A.T + 0.1 * np.eye(3)
        R, regularized = _regularize(cov)
        assert not regularized
        assert rel_err(R.T @ R, np.linalg.inv(cov)) < 1e-12
        R, regularized = _regularize(np.zeros((2, 2)))
        assert regularized and np.array_equal(R, 1e3 * np.eye(2))

    def test_non_finite_estimate_rejected(self):
        # inf; entries that overflow when symmetrized; and a mean variance
        # that overflows, so the nudge does. Unchecked, each gave an infinite
        # Cholesky factor, which passes the pivot floor, and R = 0.
        for cov in (np.array([[np.inf]]), np.diag([1.7e308, 1.7e308]), np.diag([8e307] * 3)):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
                _regularize(cov)

    def test_estimate_never_made_positive_definite_rejected(self):
        # 40 nudges of 1e-6 cannot lift the eigenvalue -1
        with pytest.raises(ValueError, match="after 40 nudges"):
            _regularize(np.diag([1.0, -1.0]))


class TestWhiteningUpdate:
    def test_row_update_is_rank_one_covariance_update(self):
        # both rows are stabilizing (count 5 < n_s), so both take the point;
        # R'^T R' must be the inverse of a cov + b d d^T with a = W/W' and
        # b = u W / W'^2
        rng = np.random.default_rng(7)
        for _ in range(50):
            k, p = 2, int(rng.integers(1, 5))
            A = rng.normal(size=(k, p, p))
            cov = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(p)
            state = make_state(rng.normal(size=(k, p)), np.linalg.inv(cov), count=5)._replace(
                W=rng.uniform(p + 1.0, 500.0, size=k),
            )
            x = state.m[0] + rng.normal(size=p) * 3.0
            new, u, *_ = oec_step(state, x, OecConfig())
            for i in range(k):
                W, W_new = state.W[i], new.W[i]
                assert W_new == W + u.u[i]
                d = x - state.m[i]
                cov_new = (W / W_new) * cov[i] + (u.u[i] * W / W_new**2) * np.outer(d, d)
                assert rel_err(new.R[i].T @ new.R[i], np.linalg.inv(cov_new)) < 1e-12

    @pytest.mark.parametrize("gen", ["gen_s2", "gen_s3"])
    def test_run_follows_covariance_recursion(self, gen):
        # replay cov' = (W cov + u (W/W') d d^T) / W' beside a whole run; each
        # row starts from the covariance its R was built from
        from streamcvi import datagen

        X = getattr(datagen, gen)(0).X()
        prev = oec_init(X[:3], OecConfig())
        covs = [np.linalg.inv(prev.R[0].T @ prev.R[0])]
        worst = 0.0
        for x, (state, u, *_) in zip(X[3:], run_stream(X)):
            for i in np.flatnonzero(state.W[: prev.k] != prev.W):
                W, W_new = prev.W[i], state.W[i]
                d = x - prev.m[i]
                covs[i] = (W * covs[i] + u.u[i] * (W / W_new) * np.outer(d, d)) / W_new
            covs += [np.linalg.inv(R.T @ R) for R in state.R[prev.k:]]
            worst = max(worst, *(rel_err(np.linalg.inv(R.T @ R), c)
                                 for R, c in zip(state.R, covs)))
            prev = state
        assert state.k >= 8
        assert worst < 1e-12


class TestOecConfig:
    def test_boundary_ordering_enforced(self):
        for gamma_out in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                OecConfig(gamma_out=gamma_out)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            OecConfig(lambda_oec=1.0)

    def test_stabilization_period_must_be_a_positive_integer(self):
        for n_s in (2.5, 20.0, True, 0, "20"):
            with pytest.raises(ValueError, match="positive integer"):
                OecConfig(n_s=n_s)
        assert OecConfig(n_s=np.int64(5)).n_s == 5

    def test_paper_defaults(self):
        cfg = OecConfig()
        assert cfg.gamma_out == 0.999
        assert cfg.n_s == 20
        assert cfg.lambda_oec == 0.9
