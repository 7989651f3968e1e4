"""Regression against the committed outputs in results/traces/.

Every scenario in scenarios.ini is rerun. Each index value must stay within
1e-12 relative of the committed trace (refactors may change the summation
order, so the last bits can move), undefined (empty) cells must match
exactly, and the event log must be byte-identical.
"""

import configparser
from pathlib import Path

import pytest

from streamcvi.cli import DEFAULT_SCENARIO_FILE, main
from helpers import read_trace

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "results" / "traces"
REL_TOL = 1e-12


def scenario_names():
    parser = configparser.ConfigParser()
    parser.read(DEFAULT_SCENARIO_FILE)
    return parser.sections()


def test_every_scenario_has_a_golden():
    names = scenario_names()
    assert len(names) == 5
    for name in names:
        assert (GOLDEN_DIR / f"{name}.trace.csv").is_file()
        assert (GOLDEN_DIR / f"{name}.events.log").is_file()


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_matches_golden(name, tmp_path):
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"{name}.events.log").read_bytes() == \
        (GOLDEN_DIR / f"{name}.events.log").read_bytes()
    got = read_trace(tmp_path / f"{name}.trace.csv")
    want = read_trace(GOLDEN_DIR / f"{name}.trace.csv")
    assert [(r.n, r.k) for r in got] == [(r.n, r.k) for r in want]
    for g, w in zip(got, want):
        assert g.values.keys() == w.values.keys()
        for fam, expected in w.values.items():
            value = g.values[fam]
            if expected is None:
                assert value is None, (name, g.n, fam)
            else:
                assert value is not None, (name, g.n, fam)
                assert abs(value - expected) <= REL_TOL * abs(expected), (name, g.n, fam)
