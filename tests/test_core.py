import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcvi.core import (
    MembershipVector,
    PrototypeSet,
    StreamPoint,
    min_pairwise_center_distance_sq,
)

from helpers import validate_membership


class TestValidateMembership:
    def test_fuzzy_ok(self):
        assert validate_membership(MembershipVector([0.3, 0.7], kind="fuzzy")) is None

    def test_crisp_ok(self):
        assert validate_membership(MembershipVector([1, 0, 0], kind="crisp")) is None

    def test_fuzzy_sum_violation(self):
        msg = validate_membership(MembershipVector([0.5, 0.6], kind="fuzzy"))
        assert msg == "sum != 1"

    def test_crisp_not_one_hot(self):
        msg = validate_membership(MembershipVector([0.5, 0.5], kind="crisp"))
        assert msg == "crisp vector is not one-hot"

    def test_negative_entry(self):
        mv = MembershipVector(np.array([-0.1, 1.1]), kind="fuzzy")
        assert validate_membership(mv) == "entry outside [0, 1]"

    def test_empty_raises(self):
        mv = MembershipVector.__new__(MembershipVector)
        object.__setattr__(mv, "u", np.array([]))
        object.__setattr__(mv, "kind", "fuzzy")
        with pytest.raises(ValueError):
            validate_membership(mv)

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12))
    def test_normalized_random_vectors_accepted(self, raw):
        u = np.array(raw) / np.sum(raw)
        # Renormalization error can exceed the strict tolerance; fix up exactly.
        u[-1] = 1.0 - np.sum(u[:-1])
        if u[-1] < 0:
            return
        assert validate_membership(MembershipVector(u, kind="fuzzy")) is None

    @given(st.integers(1, 10), st.integers(0, 9))
    def test_one_hot_accepted(self, k, i):
        u = np.zeros(k)
        u[i % k] = 1.0
        assert validate_membership(MembershipVector(u, kind="crisp")) is None


class TestMinPairwiseDistance:
    def test_three_four_five(self):
        V = PrototypeSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert min_pairwise_center_distance_sq(V) == 25.0

    def test_nearest_pair_wins(self):
        V = PrototypeSet(np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]]))
        assert min_pairwise_center_distance_sq(V) == 1.0

    def test_single_center_rejected(self):
        with pytest.raises(ValueError):
            min_pairwise_center_distance_sq(PrototypeSet(np.zeros((1, 2))))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        C = rng.normal(size=(5, 3))
        expected = min(
            float(np.sum((C[i] - C[j]) ** 2))
            for i in range(5)
            for j in range(i + 1, 5)
        )
        assert min_pairwise_center_distance_sq(PrototypeSet(C)) == pytest.approx(
            expected, rel=1e-15
        )

    @settings(max_examples=50)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 5))
    def test_permutation_invariant(self, seed, k, p):
        rng = np.random.default_rng(seed)
        C = rng.normal(size=(k, p))
        perm = rng.permutation(k)
        a = min_pairwise_center_distance_sq(PrototypeSet(C))
        b = min_pairwise_center_distance_sq(PrototypeSet(C[perm]))
        assert a == b


class TestTypes:
    def test_stream_point_one_based(self):
        with pytest.raises(ValueError):
            StreamPoint(n=0, x=[1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            StreamPoint(n=1, x=[1.0, np.nan])
        with pytest.raises(ValueError):
            PrototypeSet(np.array([[np.inf, 0.0]]))

    def test_prototype_set_shape(self):
        with pytest.raises(ValueError):
            PrototypeSet(np.zeros(3))
