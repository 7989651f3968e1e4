import numpy as np
import pytest
from scipy import integrate

from streamcvi.oec import (
    EllipsoidalPrototype,
    OecConfig,
    chi2_inverse,
    mahalanobis_sq,
    oec_init,
    oec_membership,
    oec_step,
)

from helpers import validate_membership


def make_proto(m, S_inv, count=30, n_s=20):
    S_inv = np.asarray(S_inv, dtype=float)
    return EllipsoidalPrototype(
        m=np.asarray(m, dtype=float),
        cov=np.linalg.inv(S_inv),
        S_inv=S_inv,
        count=count,
        W=float(count),
        n_s=n_s,
    )


def run_stream(X, config=OecConfig()):
    p = X.shape[1]
    state = oec_init(X[: p + 1], config)
    events = []
    for x in X[p + 1:]:
        state, u, V_old, V_new, ev = oec_step(state, x, config)
        events.extend(ev)
        yield state, u, V_old, V_new, events


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


class TestMahalanobis:
    def test_identity_reduces_to_euclidean(self):
        proto = make_proto([0.0, 0.0], np.eye(2))
        assert mahalanobis_sq([3.0, 4.0], proto) == pytest.approx(25.0)

    def test_zero_at_mean(self):
        proto = make_proto([2.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        assert mahalanobis_sq([2.0, -1.0], proto) == 0.0

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        S_inv = A @ A.T + 0.5 * np.eye(3)
        m = rng.normal(size=3)
        x = rng.normal(size=3)
        proto = make_proto(m, S_inv)
        expected = sum(
            (x[i] - m[i]) * S_inv[i, j] * (x[j] - m[j])
            for i in range(3)
            for j in range(3)
        )
        assert mahalanobis_sq(x, proto) == pytest.approx(expected, rel=1e-12)


class TestMembership:
    def test_single_cluster(self):
        proto = make_proto([0.0, 0.0], np.eye(2))
        u = oec_membership([5.0, 5.0], [proto])
        assert np.array_equal(u.u, [1.0])

    def test_equal_distances_split_evenly(self):
        protos = [make_proto([-1.0, 0.0], np.eye(2)), make_proto([1.0, 0.0], np.eye(2))]
        u = oec_membership([0.0, 3.0], protos)
        assert np.allclose(u.u, [0.5, 0.5])

    def test_hand_expanded_ratio(self):
        # distances 1 and 2: u_1 = [1 + (1/2)^2]^-1 = 0.8
        protos = [make_proto([0.0, 0.0], np.eye(2)), make_proto([0.0, 3.0], np.eye(2))]
        # x at distance^2 = 1 from first, 4 from second
        u = oec_membership([1.0, 0.0], protos)
        # F1=1, F2=(1)^2+(3)^2=10 -> recompute exactly
        F1, F2 = 1.0, 10.0
        expected = 1.0 / (1.0 + (F1 / F2) ** 2)
        assert u.u[0] == pytest.approx(expected)
        assert np.sum(u.u) == pytest.approx(1.0, abs=1e-12)

    def test_zero_distance_one_hot_lowest_index(self):
        protos = [
            make_proto([1.0, 1.0], np.eye(2)),
            make_proto([0.0, 0.0], np.eye(2)),
            make_proto([0.0, 0.0], np.eye(2)),
        ]
        u = oec_membership([0.0, 0.0], protos)
        assert np.array_equal(u.u, [0.0, 1.0, 0.0])


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
        state, _, _, _, ev = oec_step(state, state.protos[0].m.copy(), OecConfig())
        assert not [e for e in ev if e[0] == "cluster_created"]
        assert state.k == 1 + len(before)

    def test_memberships_always_valid(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 2)) * 3.0
        for state, u, *_ in run_stream(X):
            assert validate_membership(u) is None

    def test_inverse_covariance_stays_spd(self):
        rng = np.random.default_rng(3)
        X = np.vstack([
            rng.multivariate_normal([0, 0], np.eye(2), size=300),
            rng.multivariate_normal([30, 30], np.eye(2), size=300),
        ])
        for state, *_ in run_stream(X):
            for pr in state.protos:
                assert np.allclose(pr.S_inv, pr.S_inv.T, atol=1e-10)
                np.linalg.cholesky(pr.S_inv)  # raises if not PD

    def test_harden_reports_one_hot(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        cfg = OecConfig(harden=True)
        for state, u, *_ in run_stream(X, cfg):
            assert u.kind == "crisp"
            assert validate_membership(u) is None

    def test_forgetful_mean_matches_running_mean_at_lambda_one(self):
        from streamcvi.oec import _ForgetfulStats

        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        lam = 1.0 - 1e-12
        stats = _ForgetfulStats(m=X[0].copy(), S=np.zeros((3, 3)), W=1.0)
        for x in X[1:]:
            stats = stats.updated(x, lam)
        assert np.allclose(stats.m, X.mean(axis=0), atol=1e-6)


class TestOecConfig:
    def test_boundary_ordering_enforced(self):
        for gamma_out in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                OecConfig(gamma_out=gamma_out)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            OecConfig(lambda_oec=1.0)

    def test_paper_defaults(self):
        cfg = OecConfig()
        assert cfg.gamma_out == 0.999
        assert cfg.n_s == 20
        assert cfg.lambda_oec == 0.9
