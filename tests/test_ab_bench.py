"""The verdict rules of scripts/ab_bench.py on hand-made paired runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)
verdict = ab_bench.verdict

# ten parent runs: median 104.5, q3 - q1 = 4.5, so a spread of 4.3 %
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
BOUND = 0.24


def shifted(values, delta):
    return [v + delta for v in values]


@pytest.mark.parametrize("better, sign", [("higher", 1.0), ("lower", -1.0)])
class TestVerdict:
    def test_every_pair_won_by_more_than_the_spread_is_a_gain(self, better, sign):
        assert verdict(PARENT, shifted(PARENT, sign * 20.0), better, BOUND) == "gain"

    def test_nine_of_ten_pairs_suffice(self, better, sign):
        change = shifted(PARENT, sign * 20.0)
        change[0] = PARENT[0] - sign * 1.0
        assert verdict(PARENT, change, better, BOUND) == "gain"

    def test_ties_count_for_neither_side(self, better, sign):
        # eight wins and two ties
        change = shifted(PARENT, sign * 20.0)
        change[:2] = PARENT[:2]
        assert verdict(PARENT, change, better, BOUND) == "within bound"

    def test_a_gain_inside_the_spread_is_within_bound(self, better, sign):
        # every pair won, but the medians differ by 4 < q3 - q1 = 4.5
        assert verdict(PARENT, shifted(PARENT, sign * 4.0), better, BOUND) == "within bound"

    def test_worse_by_more_than_the_bound_is_regressed(self, better, sign):
        # 104.5 * 0.24 = 25.08
        assert verdict(PARENT, shifted(PARENT, -sign * 25.5), better, BOUND) == "regressed"
        assert verdict(PARENT, shifted(PARENT, -sign * 24.5), better, BOUND) == "within bound"

    def test_a_parent_spread_past_the_bound_is_unresolved(self, better, sign):
        # median 100, q3 - q1 = 40
        parent = [60.0, 70.0, 80.0, 80.0, 100.0, 100.0, 120.0, 120.0, 130.0, 140.0]
        change = shifted(parent, sign * 5.0)
        assert verdict(parent, change, better, BOUND) == "unresolved"
        # unless every change run beats every parent run
        assert verdict(parent, shifted(parent, sign * 90.0), better, BOUND) == "gain"
