import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcvi.cli import SCENARIO_KEYS, main
from streamcvi.cvi import INDEX_FAMILIES
from streamcvi.datagen import GENERATORS, gen_s3
from streamcvi.verify import run_verification

from helpers import read_events, read_trace


SCENARIO_INI = """\
[tiny-skmeans]
dataset = s3
algorithm = skmeans
k = 4
seed = 0

[tiny-oec]
dataset = s2
algorithm = oec
lambda = 0.9

[misspelt-key]
dataset = s3
algorithm = oec
lamda = 0.99

[needs-input]
input = {input_path}
features = 0,1
algorithm = skmeans
k = 2

[oec-input]
input = {input_path}
features = 0,1
algorithm = oec

[s1-default-seed]
dataset = s1
indices = xb

[bad-k]
dataset = s3
k = two

[bad-algorithm]
dataset = s3
algorithm = dbscan

[bad-dataset]
dataset = s9

[negative-seed]
dataset = s2
seed = -1

[text-seed]
dataset = s2
seed = abc

[bad-features]
input = {input_path}
features = 0,-1
algorithm = skmeans

[fractional-k]
dataset = s3
k = 1.5

[text-features]
input = {input_path}
features = a,b
"""


@pytest.fixture
def scenario_file(tmp_path):
    f = tmp_path / "scenarios.ini"
    f.write_text(SCENARIO_INI.format(input_path=tmp_path / "in.csv"))
    return f


class TestGenerate:
    def test_writes_samples_and_events(self, tmp_path, capsys):
        out = tmp_path / "s3.csv"
        assert main(["generate", "s3", "--out", str(out), "--seed", "0"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2000
        assert len(lines[0].split(",")) == 3  # x, y, label
        events = read_events(out.with_suffix(".csv.events"))
        assert [e.n for e in events] == list(range(201, 1802, 200))
        assert "2000 samples" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "s1", "--out", str(a), "--seed", "5"])
        main(["generate", "s1", "--out", str(b), "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "s2", "--out", str(a), "--seed", "1"])
        main(["generate", "s2", "--out", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()


class TestRun:
    def test_scenario_smoke(self, tmp_path, scenario_file, capsys):
        code = main([
            "run", "tiny-skmeans",
            "--scenario-file", str(scenario_file),
            "--out", str(tmp_path / "res"),
        ])
        assert code == 0
        trace = read_trace(tmp_path / "res" / "tiny-skmeans.trace.csv")
        assert len(trace) == 1996  # 2000 minus k=4 warm-up points
        assert all(r.k == 4 for r in trace)
        events = read_events(tmp_path / "res" / "tiny-skmeans.events.log")
        assert sum(e.kind == "ground_truth_change" for e in events) == 9
        assert "final k=4" in capsys.readouterr().out

    def test_unknown_scenario_lists_known(self, scenario_file):
        with pytest.raises(SystemExit, match="tiny-skmeans"):
            main(["run", "nope", "--scenario-file", str(scenario_file)])

    def test_default_section_is_shared_keys_not_a_scenario(self, tmp_path, capsys):
        f = tmp_path / "scenarios.ini"
        f.write_text("[DEFAULT]\nk = 3\n\n[s1-xb]\ndataset = s1\nindices = xb\n")
        with pytest.raises(SystemExit, match=r"unknown scenario 'DEFAULT' .*\(known: s1-xb\)"):
            main(["run", "DEFAULT", "--scenario-file", str(f)])
        assert main(["run", "s1-xb", "--scenario-file", str(f), "--out", str(tmp_path)]) == 0
        assert "final k=3" in capsys.readouterr().out

    def test_unknown_key_names_key_and_known_keys(self, tmp_path, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["run", "misspelt-key", "--scenario-file", str(scenario_file),
                  "--out", str(tmp_path / "res")])
        message = str(exc.value.code)
        assert "'lamda'" in message and "lambda" in message.split("known:")[1]
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("key", ["gamma_out", "n_s", "lambda_oec"])
    def test_oec_constant_is_an_unknown_key(self, tmp_path, key):
        # OEC's three parameters are the paper's constants, not scenario keys
        f = tmp_path / "s.ini"
        f.write_text(f"[oec]\ndataset = s2\nalgorithm = oec\n{key} = 0.5\n")
        with pytest.raises(SystemExit, match=f"unknown key '{key}'"):
            main(["run", "oec", "--scenario-file", str(f), "--out", str(tmp_path / "res")])
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("content", [
        b"[a]\ndataset = s2\ndataset = s3\n",     # a repeated key
        b"[a]\ndataset = s2\n[a]\nk = 3\n",       # a repeated section
        b"dataset = s2\n[a]\nk = 3\n",            # a line before the first section
        b"[a]\ndataset = s\xff2\n",                # not UTF-8
        None,                                     # a directory
    ], ids=["repeated-key", "repeated-section", "no-section-header", "not-utf8", "directory"])
    def test_malformed_scenario_file_names_the_file(self, tmp_path, content):
        f = tmp_path / "s.ini"
        if content is None:
            f.mkdir()
        else:
            f.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["run", "a", "--scenario-file", str(f), "--out", str(tmp_path / "res")])
        message = exc.value.code
        assert isinstance(message, str) and str(f) in message and "\n" not in message
        assert not (tmp_path / "res").exists()

    def test_percent_in_a_value_is_literal(self, tmp_path):
        data = tmp_path / "50%.csv"
        data.write_text("".join(f"{x!r},{y!r}\n" for x, y in gen_s3(0).X()[:30].tolist()))
        f = tmp_path / "s.ini"
        f.write_text(f"[a]\ninput = {data}\nindices = xb\n")
        assert main(["run", "a", "--scenario-file", str(f), "--out", str(tmp_path / "res")]) == 0

    def test_missing_scenario_file_names_path(self, tmp_path):
        missing = tmp_path / "gone.ini"
        with pytest.raises(SystemExit, match="gone.ini"):
            main(["run", "x", "--scenario-file", str(missing)])

    def test_missing_input_csv_is_soft_error(self, tmp_path, scenario_file, capsys):
        code = main([
            "run", "needs-input",
            "--scenario-file", str(scenario_file),
            "--out", str(tmp_path / "res"),
        ])
        assert code == 1
        assert "needs-input" in capsys.readouterr().err

    def test_clusterer_failure_is_soft_error(self, tmp_path, scenario_file, capsys):
        # the warm-up covariance of these points overflows
        (tmp_path / "in.csv").write_text(
            "".join(f"{x!r},{y!r}\n" for x, y in (gen_s3(0).X()[:20] * 1e200).tolist())
        )
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "run", "oec-input",
                "--scenario-file", str(scenario_file),
                "--out", str(tmp_path / "res"),
            ])
        assert code == 1
        assert "oec clusterer failed at n=3" in capsys.readouterr().err

    def test_dataset_without_seed_uses_its_default_seed(self, tmp_path, scenario_file):
        # as `generate` does: s1's default seed gives the reference 1955 points
        assert main(["run", "s1-default-seed", "--scenario-file", str(scenario_file),
                     "--out", str(tmp_path / "res")]) == 0
        trace = read_trace(tmp_path / "res" / "s1-default-seed.trace.csv")
        assert trace[-1].n == 1955

    @pytest.mark.parametrize("name", ["bad-k", "bad-algorithm", "bad-dataset"])
    def test_bad_scenario_value_is_soft_error(self, tmp_path, scenario_file, capsys, name):
        code = main(["run", name, "--scenario-file", str(scenario_file),
                     "--out", str(tmp_path / "res")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"scenario {name}: ")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("name, seed", [("negative-seed", "-1"), ("text-seed", "abc")])
    def test_bad_seed_names_key_and_value(self, tmp_path, scenario_file, capsys, name, seed):
        code = main(["run", name, "--scenario-file", str(scenario_file),
                     "--out", str(tmp_path / "res")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"scenario {name}: seed must be a nonnegative integer, got '{seed}'\n")
        assert not (tmp_path / "res").exists()

    def test_negative_feature_column_is_soft_error(self, tmp_path, scenario_file, capsys):
        # -1 would read the last column, here a label
        (tmp_path / "in.csv").write_text("".join(f"{i}.5,{i}.25,{i % 2}\n" for i in range(9)))
        code = main(["run", "bad-features", "--scenario-file", str(scenario_file),
                     "--out", str(tmp_path / "res")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "scenario bad-features: column indices must be nonnegative integers, got -1")
        assert not (tmp_path / "res").exists()


    @pytest.mark.parametrize("name, key", [("fractional-k", "k"), ("text-features", "features")])
    def test_unparsable_value_names_its_key(self, tmp_path, scenario_file, capsys, name, key):
        (tmp_path / "in.csv").write_text("1.0,2.0\n")
        code = main(["run", name, "--scenario-file", str(scenario_file),
                     "--out", str(tmp_path / "res")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"scenario {name}: {key}: ")
        assert not (tmp_path / "res").exists()


# Values that may reach the engine, valid or not. A generated dataset is a
# 2000-point run, too slow for a property (TestRun runs them), so `dataset`
# is only ever an unknown name.
FUZZ_TEXT = st.text(max_size=12)
FUZZ_VALUES = {
    "dataset": FUZZ_TEXT.filter(lambda s: s.strip() not in GENERATORS),
    "k": st.integers(1, 12).map(str),
    "algorithm": st.sampled_from(["skmeans", "oec"]),
    "indices": st.lists(st.sampled_from(INDEX_FAMILIES), min_size=1, unique=True).map(",".join),
    "lambda": st.one_of(st.floats(0.0, 1.0), st.floats()).map(repr),
    "features": st.sampled_from(["0,1", "1,0", "0", "2,0", "0,3"]),
    "seed": st.integers(0, 99).map(str),
}
REMOVED_OEC_KEYS = ("gamma_out", "n_s", "lambda_oec")


class TestScenarioProperty:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exit_code_or_named_error(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("fuzz")
        stream = tmp / "in.csv"
        stream.write_text("".join(f"{x!r},{y!r},0\n" for x, y in gen_s3(0).X()[:30].tolist()))
        values = dict(FUZZ_VALUES, input=st.just(str(stream)))
        # A junk section mixes known, removed and arbitrary keys, each with a
        # value from above or arbitrary text; the others use known keys but
        # `dataset`, each at most once, with a value from above.
        junk = data.draw(st.booleans(), label="junk")
        if junk:
            keys = st.lists(st.one_of(st.sampled_from(SCENARIO_KEYS + REMOVED_OEC_KEYS),
                                      FUZZ_TEXT), max_size=8)
        else:
            keys = st.lists(st.sampled_from([k for k in SCENARIO_KEYS if k != "dataset"]),
                            unique=True)
        lines = ["[fuzz]"]
        for key in data.draw(keys, label="keys"):
            value = values.get(key, FUZZ_TEXT)
            if junk:
                value = st.one_of(value, FUZZ_TEXT)
            lines.append(f"{key} = {data.draw(value, label=key)}")
        f = tmp / "s.ini"
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = main(["run", "fuzz", "--scenario-file", str(f), "--out", str(tmp / "res")])
        except SystemExit as exc:
            # an unknown key, scenario or malformed file; 2 is argparse's usage error
            assert exc.code == 2 or (str(f) in exc.code and "\n" not in exc.code)
        else:
            assert code == 0 or (code == 1 and err.getvalue().startswith("scenario fuzz: "))


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--trials", "3", "--seed", "0"]) == 0
        assert "PASS (3 trials)" in capsys.readouterr().out

    def test_one_trial_is_the_empty_cluster_trial(self, capsys):
        assert main(["verify", "--trials", "1"]) == 0
        assert "PASS (1 trials)" in capsys.readouterr().out
        (trial,) = run_verification(n_trials=1).trials
        assert (trial.k, trial.lam) == (4, 1.0)


class TestArguments:
    @pytest.mark.parametrize("argv, flag", [
        (["generate", "s2", "--seed", "-1", "--out", "s2.csv"], "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
        (["verify", "--trials", "-3"], "--trials"),
        (["verify", "--trials", "0"], "--trials"),
    ])
    def test_negative_seed_or_trials_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                     argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        # --trials 0 would pass without checking anything
        kind = "positive" if flag == "--trials" else "nonnegative"
        assert f"argument {flag}: must be a {kind} integer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
