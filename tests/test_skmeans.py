import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcvi.skmeans import skmeans_init, skmeans_step

from helpers import validate_membership


class TestInit:
    def test_first_points_become_prototypes(self):
        state = skmeans_init([[0.0, 0.0], [5.0, 5.0]])
        assert np.array_equal(state.V, [[0, 0], [5, 5]])
        assert np.array_equal(state.counts, [1, 1])

    def test_duplicates_allowed(self):
        state = skmeans_init([[1.0, 1.0]] * 3)
        assert state.k == 3

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            skmeans_init([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            skmeans_init([])


class TestStep:
    def test_running_mean(self):
        state = skmeans_init([[0.0, 0.0], [10.0, 0.0]])
        state, u, V_old, V_new = skmeans_step(state, [1.0, 0.0])
        assert np.array_equal(u.u, [1.0, 0.0])
        assert np.array_equal(state.counts, [2, 1])
        assert np.allclose(state.V[0], [0.5, 0.0])
        assert np.array_equal(V_old.centers[0], [0.0, 0.0])
        assert np.array_equal(V_new.centers[0], [0.5, 0.0])

    def test_tie_goes_to_lowest_index(self):
        state = skmeans_init([[0.0, 0.0], [2.0, 0.0]])
        _, u, _, _ = skmeans_step(state, [1.0, 0.0])
        assert np.array_equal(u.u, [1.0, 0.0])

    def test_mean_oracle_after_many_assignments(self):
        state = skmeans_init([[0.0, 0.0], [100.0, 100.0]])
        rng = np.random.default_rng(0)
        assigned = [np.zeros(2)]
        for _ in range(10):
            x = rng.normal(0.0, 0.5, size=2)
            assigned.append(x)
            state, _, _, _ = skmeans_step(state, x)
        assert np.allclose(state.V[0], np.mean(assigned, axis=0), rtol=1e-12)

    def test_non_finite_rejected(self):
        state = skmeans_init([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            skmeans_step(state, [np.inf, 0.0])


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 4))
    def test_prototypes_are_exact_means(self, seed, k, p):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 3.0, size=(k + 60, p))
        state = skmeans_init(pts[:k])
        members = [[pts[i]] for i in range(k)]
        for x in pts[k:]:
            state, u, _, _ = skmeans_step(state, x)
            members[int(np.argmax(u.u))].append(x)
        for m in range(k):
            assert np.allclose(state.V[m], np.mean(members[m], axis=0), rtol=1e-12, atol=1e-12)
        assert int(np.sum(state.counts)) == k + 60

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_memberships_are_valid_one_hot(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(40, 2))
        state = skmeans_init(pts[:3])
        for x in pts[3:]:
            state, u, _, _ = skmeans_step(state, x)
            assert validate_membership(u.u, crisp=True) is None
