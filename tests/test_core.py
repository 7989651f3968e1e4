import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcvi.core import as_vector, pairwise_sq_distances

from helpers import validate_membership


def min_off_diagonal(C):
    """Minimum squared distance over pairs of distinct rows of C."""
    D = pairwise_sq_distances(np.asarray(C, dtype=float))
    return float(np.min(D[~np.eye(D.shape[0], dtype=bool)]))


class TestValidateMembership:
    def test_fuzzy_ok(self):
        assert validate_membership(np.array([0.3, 0.7])) is None

    def test_crisp_ok(self):
        assert validate_membership(np.array([1.0, 0.0, 0.0]), crisp=True) is None

    def test_fuzzy_sum_violation(self):
        msg = validate_membership(np.array([0.5, 0.6]))
        assert msg == "sum != 1"

    def test_crisp_not_one_hot(self):
        msg = validate_membership(np.array([0.5, 0.5]), crisp=True)
        assert msg == "crisp vector is not one-hot"

    def test_negative_entry(self):
        assert validate_membership(np.array([-0.1, 1.1])) == "entry outside [0, 1]"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            validate_membership(np.array([]))

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12))
    def test_normalized_random_vectors_accepted(self, raw):
        u = np.array(raw) / np.sum(raw)
        # Renormalization error can exceed the strict tolerance; fix up exactly.
        u[-1] = 1.0 - np.sum(u[:-1])
        if u[-1] < 0:
            return
        assert validate_membership(u) is None

    @given(st.integers(1, 10), st.integers(0, 9))
    def test_one_hot_accepted(self, k, i):
        u = np.zeros(k)
        u[i % k] = 1.0
        assert validate_membership(u, crisp=True) is None


class TestMinPairwiseDistance:
    """The minimum off-diagonal entry of pairwise_sq_distances is the XB
    separation h."""

    def test_three_four_five(self):
        assert min_off_diagonal([[0.0, 0.0], [3.0, 4.0]]) == 25.0

    def test_nearest_pair_wins(self):
        assert min_off_diagonal([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        C = rng.normal(size=(5, 3))
        expected = min(
            float(np.sum((C[i] - C[j]) ** 2))
            for i in range(5)
            for j in range(i + 1, 5)
        )
        assert min_off_diagonal(C) == pytest.approx(expected, rel=1e-15)

    @settings(max_examples=50)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 5))
    def test_permutation_invariant(self, seed, k, p):
        # permuting the rows permutes the matrix exactly, so its minimum holds
        rng = np.random.default_rng(seed)
        C = rng.normal(size=(k, p))
        perm = rng.permutation(k)
        D = pairwise_sq_distances(C)
        assert np.array_equal(pairwise_sq_distances(C[perm]), D[np.ix_(perm, perm)])
        assert min_off_diagonal(C) == min_off_diagonal(C[perm])

    @settings(max_examples=50)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 5))
    def test_zero_diagonal_and_symmetric(self, seed, k, p):
        C = np.random.default_rng(seed).normal(size=(k, p))
        D = pairwise_sq_distances(C)
        assert D.shape == (k, k)
        assert np.all(np.diag(D) == 0.0)
        assert np.array_equal(D, D.T)


class TestAsVector:
    @pytest.mark.parametrize("bad", [[np.inf], [1.0, np.nan], [np.inf, -np.inf]])
    def test_non_finite_rejected(self, bad):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            as_vector(bad)

    def test_finite_vector_whose_sum_overflows_accepted(self):
        # the entries' sum overflows; the test must neither reject finite
        # coordinates nor raise a floating-point fault on the way
        with np.errstate(all="raise"):
            v = as_vector([1e308, 1e308])
        assert np.array_equal(v, [1e308, 1e308])

    def test_not_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            as_vector([[1.0, 2.0]])
        with pytest.raises(ValueError, match="non-empty 1-d"):
            as_vector([])
