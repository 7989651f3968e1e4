import numpy as np
import pytest

from streamcvi.cli import main
from streamcvi.datagen import gen_s3
from streamcvi.stream_io import read_events, read_trace


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
gama_out = 0.99

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

[bad-features]
input = {input_path}
features = 0,-1
algorithm = skmeans
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

    def test_unknown_key_names_key_and_known_keys(self, tmp_path, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["run", "misspelt-key", "--scenario-file", str(scenario_file),
                  "--out", str(tmp_path / "res")])
        message = str(exc.value.code)
        assert "'gama_out'" in message and "gamma_out" in message.split("known:")[1]
        assert not (tmp_path / "res").exists()

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


    def test_negative_feature_column_is_soft_error(self, tmp_path, scenario_file, capsys):
        # -1 would read the last column, here a label
        (tmp_path / "in.csv").write_text("".join(f"{i}.5,{i}.25,{i % 2}\n" for i in range(9)))
        code = main(["run", "bad-features", "--scenario-file", str(scenario_file),
                     "--out", str(tmp_path / "res")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "scenario bad-features: column indices must be nonnegative integers, got -1")
        assert not (tmp_path / "res").exists()


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--trials", "3", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestArguments:
    @pytest.mark.parametrize("argv, flag", [
        (["generate", "s2", "--seed", "-1", "--out", "s2.csv"], "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
        (["verify", "--trials", "-3"], "--trials"),
    ])
    def test_negative_seed_or_trials_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                     argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {flag}: must be a nonnegative integer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
