import numpy as np
import pytest

from streamcvi.datagen import (
    DEFAULT_S1_SEED,
    S1_COEFFS_M1,
    S2_MU1,
    S2_MU2,
    S2_SIGMA2,
    S3_RADIUS,
    gen_s1,
    gen_s2,
    gen_s3,
)


def assert_streams_identical(a, b):
    assert a.n == b.n
    assert a.labels == b.labels
    assert a.change_events == b.change_events
    assert np.array_equal(a.X(), b.X())


class TestS1:
    def test_default_seed_reference_length(self):
        assert gen_s1(DEFAULT_S1_SEED).n == 1955

    def test_deterministic(self):
        assert_streams_identical(gen_s1(7), gen_s1(7))

    def test_first_outputs_start_from_zero_history(self):
        s = gen_s1(7)
        # y_1 depends only on the zero seed history: y_1 = 0
        X = s.X()
        assert X[0, 1] == 0.0
        # y_2 = 1.018 * x_1 (y history still zero)
        assert X[1, 1] == pytest.approx(S1_COEFFS_M1[0] * X[0, 0])

    def test_mode_coefficient_direct_evaluation(self):
        # M1 with y-history zero and x[n-1] = 1 gives y = 1.018
        assert S1_COEFFS_M1 @ np.array([1.0, 0.5, 0.0, 0.0]) == pytest.approx(1.018)

    def test_two_labels_and_four_events(self):
        s = gen_s1()
        assert set(s.labels) == {0, 1}
        assert len(s.change_events) == 4

    def test_events_coincide_with_label_transitions(self):
        s = gen_s1()
        transitions = [
            i + 2 for i in range(s.n - 1) if s.labels[i] != s.labels[i + 1]
        ]
        assert list(s.change_events) == transitions


class TestS2:
    def test_recipe_count(self):
        # 500 + 10 * 200 per the generation recipe
        assert gen_s2(0).n == 2500

    def test_deterministic(self):
        assert_streams_identical(gen_s2(3), gen_s2(3))

    def test_first_mode_mean(self):
        s = gen_s2(0)
        X = s.X()[:500]
        # 3 sigma / sqrt(500) per coordinate, sigma^2 up to ~4.85
        tol = 3.0 * np.sqrt(np.array([3.8418, 4.8478]) / 500.0) + 0.2  # noise margin
        assert np.all(np.abs(X.mean(axis=0) - S2_MU1) < tol)

    def test_mid_step_mean_interpolates(self):
        s = gen_s2(1)
        mid = S2_MU1 + 0.5 * (S2_MU2 - S2_MU1)
        assert np.allclose(mid, [50.0, 40.0])
        block = s.X()[500 + 4 * 200: 500 + 5 * 200]
        assert np.all(np.abs(block.mean(axis=0) - mid) < 1.5)

    def test_final_mode_covariance(self):
        s = gen_s2(0)
        block = s.X()[-200:]
        cov = np.cov(block, rowvar=False)
        assert abs(cov[0, 0] - S2_SIGMA2[0, 0]) / S2_SIGMA2[0, 0] < 0.5

    def test_events_and_labels(self):
        s = gen_s2(0)
        assert s.change_events == tuple(range(501, 2302, 200))
        assert len(set(s.labels)) == 11
        for c in s.change_events:
            assert s.labels[c - 1] != s.labels[c - 2]


class TestS3:
    def test_exact_count(self):
        assert gen_s3(0).n == 2000

    def test_deterministic(self):
        assert_streams_identical(gen_s3(9), gen_s3(9))

    def test_ten_equally_spaced_positions(self):
        s = gen_s3(0)
        X = s.X()
        angles = []
        for step in range(10):
            block = X[step * 200:(step + 1) * 200]
            # drop noise points (near the center) before estimating the angle
            outer = block[np.linalg.norm(block, axis=1) > S3_RADIUS / 2]
            mean = outer.mean(axis=0)
            angles.append(np.arctan2(mean[1], mean[0]))
        diffs = np.diff(np.unwrap(angles))
        assert np.allclose(np.degrees(diffs), 36.0, atol=2.0)

    def test_noise_counts_in_range(self):
        s = gen_s3(0)
        X = s.X()
        for step in range(10):
            block = X[step * 200:(step + 1) * 200]
            n_noise = int(np.sum(np.linalg.norm(block, axis=1) < S3_RADIUS / 2))
            assert 1 <= n_noise <= 20

    def test_events_every_200(self):
        s = gen_s3(0)
        assert s.change_events == tuple(range(201, 1802, 200))
        for c in s.change_events:
            assert s.labels[c - 1] != s.labels[c - 2]


class TestLabeledStream:
    def test_dimension_is_two(self):
        for s in (gen_s1(), gen_s2(0), gen_s3(0)):
            assert len(s.labels) == s.n
            assert s.X().shape == (s.n, 2)
