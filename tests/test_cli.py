import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from regg.cli import (EXIT_ACCEPTANCE, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE,
                      main, rerun_manifest)
from regg.errors import InvalidParametersError
from regg.graphs import from_edgelist
from regg.manifest import CONFIG_SCHEMA, ExperimentConfig, RunManifest


def run(args):
    return main(list(args))


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_unknown_flag(self, tmp_path, capsys):
        assert run(["sample", "--bogus"]) == EXIT_USAGE
        sweep = ["lawsweep", "--model", "permutation", "--n", "100", "--d", "10",
                 "--out", str(tmp_path / "law.csv")]
        assert run([*sweep, "--workers", "2"]) == EXIT_USAGE
        assert run([*sweep, "--envelope", "psi"]) == EXIT_USAGE

    def test_precondition_error_exit(self, tmp_path, capsys):
        # odd n for the matching model violates a model precondition
        out = tmp_path / "g.edges"
        code = run(["sample", "--model", "matching", "--n", "5", "--d", "2",
                    "--seed", "0", "--out", str(out)])
        assert code == EXIT_PRECONDITION
        model = ["--model", "matching", "--n", "40", "--d", "3", "--seed", "0"]
        intervals = ["eigen", "--mode", "intervals", *model,
                     "--out", str(tmp_path / "km.csv")]
        sweep = ["lawsweep", *model, "--out", str(tmp_path / "law.csv")]
        for bad in ([*intervals, "--samples", "0"],
                    [*intervals, "--bin-width", "0"],
                    [*intervals, "--bin-width", "-0.1"],
                    [*intervals, "--d", "1"],
                    [*sweep, "--samples", "0"],
                    [*sweep, "--e-step", "0"],
                    [*sweep, "--e-step", "-0.2"]):
            assert run(bad) == EXIT_PRECONDITION
            assert "error: " in capsys.readouterr().err


class TestSample:
    def test_writes_edges_and_manifest(self, tmp_path):
        out = tmp_path / "g.edges"
        code = run(["sample", "--model", "permutation", "--n", "40", "--d", "4",
                    "--seed", "11", "--out", str(out)])
        assert code == EXIT_OK
        g, header = from_edgelist(out.read_text())
        assert header["n"] == 40 and header["d"] == 4 and header["seed"] == 11
        assert int(g.adj.sum()) == 40 * 4  # total multiplicity n*d/2, both ways
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.command == "sample"
        assert str(out) in man.outputs

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REGG_SEED", "77")
        out = tmp_path / "g.edges"
        assert run(["sample", "--model", "matching", "--n", "10", "--d", "3",
                    "--out", str(out)]) == EXIT_OK
        _, header = from_edgelist(out.read_text())
        assert header["seed"] == 77

    def test_manifest_records_resolved_method(self, tmp_path):
        for d, method in ((3, "rejection"), (8, "switching-chain")):
            out = tmp_path / f"g{d}.edges"
            assert run(["sample", "--model", "uniform", "--n", "30", "--d",
                        str(d), "--seed", "1", "--out", str(out)]) == EXIT_OK
            params = RunManifest.load(str(out) + ".manifest.json").params
            assert params["method"] == method
            assert params["approximate"] is (method == "switching-chain")

    def test_forced_rejection_out_of_range_fails_fast(self, tmp_path, capsys):
        start = time.monotonic()
        code = run(["sample", "--model", "uniform", "--n", "2000", "--d", "8",
                    "--method", "rejection", "--out", str(tmp_path / "g.edges")])
        assert code == EXIT_PRECONDITION
        assert time.monotonic() - start < 1.0
        assert "tries expected" in capsys.readouterr().err

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            run(["sample", "--model", "uniform", "--n", "16", "--d", "3",
                 "--seed", "2", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestInvariance:
    def test_exact_matching(self, capsys):
        assert run(["invariance", "--model", "matching", "--n", "4", "--d", "1",
                    "--seed", "0"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact_equal"] is True
        assert payload["states"] == 3

    def test_exact_permutation_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "inv.json"
        assert run(["invariance", "--model", "permutation", "--n", "4",
                    "--d", "2", "--seed", "0", "--out", str(out)]) == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.results["pass"] is True

    def test_mc_mode(self, capsys):
        assert run(["invariance", "--model", "matching", "--n", "12", "--d", "1",
                    "--seed", "1", "--mc", "--samples", "500"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "mc"
        assert 0 <= payload["tv_distance"] <= 1


class TestLawsweep:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "law.csv"
        svg = tmp_path / "law.svg"
        code = run(["lawsweep", "--model", "permutation", "--n", "150",
                    "--d", "10", "--seed", "4", "--samples", "2",
                    "--e-min", "-1", "--e-max", "1", "--e-step", "1",
                    "--eta-min", "0.4", "--svg", str(svg), "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists() and svg.exists()
        assert svg.read_text().startswith("<svg")
        man = RunManifest.load(str(out) + ".manifest.json")
        assert "constants" in man.results
        assert man.params["eta_grid"] == [1.0, 0.5]
        assert man.params["e_grid"] == [-1.0, 0.0, 1.0]


class TestEigen:
    def test_deloc(self, tmp_path):
        out = tmp_path / "deloc.csv"
        code = run(["eigen", "--mode", "deloc", "--model", "permutation",
                    "--n", "200", "--d", "10", "--seed", "5", "--samples", "2",
                    "--out", str(out)])
        assert code == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.results["pass"] is True

    def test_que(self, tmp_path):
        out = tmp_path / "que.csv"
        code = run(["eigen", "--mode", "que", "--model", "permutation",
                    "--n", "200", "--d", "10", "--seed", "5", "--samples", "1",
                    "--interval-size", "20", "--out", str(out)])
        assert code == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.results["pass"] is True

    def test_intervals(self, tmp_path):
        out = tmp_path / "int.csv"
        code = run(["eigen", "--mode", "intervals", "--model", "matching",
                    "--n", "300", "--d", "3", "--seed", "5", "--samples", "1",
                    "--out", str(out)])
        assert code == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.results["tv_mean"] < 0.5

    def test_intervals_checks_memory_before_dense_matrix(self, tmp_path, capsys):
        # an N x N float64 matrix at N = 10^6 is 8 TB: refused up front
        tracemalloc.start()
        try:
            code = run(["eigen", "--mode", "intervals", "--model", "matching",
                        "--n", "1000000", "--d", "3", "--seed", "0",
                        "--out", str(tmp_path / "int.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_PRECONDITION
        assert "RAM" in capsys.readouterr().err
        assert peak < 1e9


class TestStability:
    def test_quick_all(self, tmp_path, capsys):
        out = tmp_path / "stab.json"
        code = run(["stability", "--points", "200", "--runs", "2000",
                    "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        names = {c["check"] for c in payload["checks"]}
        assert {"stability_sweep", "ladder_sweep", "arcsinh_tails",
                "exchangeable_vector_bound"} <= names


class TestReport:
    def test_aggregates_and_strict(self, tmp_path, capsys):
        ok = RunManifest(command="x", argv=[], params={}, results={"pass": True})
        ok.save(str(tmp_path / "a.manifest.json"))
        bad = RunManifest(command="y", argv=[], params={}, results={"pass": False})
        bad.save(str(tmp_path / "b.manifest.json"))
        assert run(["report", "--dir", str(tmp_path)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 2 and payload["pass"] is False
        assert run(["report", "--dir", str(tmp_path), "--strict"]) \
            == EXIT_ACCEPTANCE


class TestRerun:
    def test_rerun_reproduces_csv(self, tmp_path, capsys):
        out = tmp_path / "law.csv"
        argv = ["lawsweep", "--model", "matching", "--n", "80", "--d", "4",
                "--seed", "9", "--samples", "1", "--e-min", "0", "--e-max", "0",
                "--e-step", "1", "--eta-min", "0.8", "--out", str(out)]
        assert run(argv) == EXIT_OK
        redo = tmp_path / "law2.csv"
        code = rerun_manifest(str(out) + ".manifest.json",
                              {str(out): str(redo)})
        assert code == EXIT_OK
        assert out.read_bytes() == redo.read_bytes()
        man = RunManifest.load(str(redo) + ".manifest.json")
        assert man.outputs[str(redo)] == \
            RunManifest.load(str(out) + ".manifest.json").outputs[str(out)]


class TestConfig:
    def test_defaults_match_schema(self):
        cfg = ExperimentConfig()
        for section, keys in CONFIG_SCHEMA.items():
            for key, (_, default) in keys.items():
                assert cfg.get(section, key) == default

    def test_file_and_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[law_harness]\nacceptance_constant = 5.5\n")
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.get("law_harness", "acceptance_constant") == 5.5
        cfg.override("stability_concentration", "moment_constant", "8")
        assert cfg.get("stability_concentration", "moment_constant") == 8.0

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[law_harness]\nmystery = 1\n")
        with pytest.raises(InvalidParametersError):
            ExperimentConfig.from_file(str(path))
        path.write_text("[nosuch]\na = 1\n")
        with pytest.raises(InvalidParametersError):
            ExperimentConfig.from_file(str(path))
        # knobs that no command reads are not accepted either
        for text in ("[cli_runner]\nworkers = 2\n",
                     "[graph_models]\nrejection_budget = 5\n"):
            path.write_text(text)
            with pytest.raises(InvalidParametersError):
                ExperimentConfig.from_file(str(path))

    def test_config_feeds_cli(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[spectral_core]\noffdiag_pairs = 17\n")
        out = tmp_path / "law.csv"
        assert run(["lawsweep", "--model", "permutation", "--n", "350",
                    "--d", "10", "--seed", "1", "--samples", "1",
                    "--e-min", "0", "--e-max", "0", "--e-step", "1",
                    "--eta-min", "0.9", "--config", str(path),
                    "--out", str(out)]) == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.params["offdiag_pairs"] == 17


class TestManifest:
    def test_round_trip(self, tmp_path):
        man = RunManifest(command="c", argv=["c", "--x"], params={"a": 1},
                          results={"pass": True})
        path = tmp_path / "m.manifest.json"
        man.save(str(path))
        back = RunManifest.load(str(path))
        assert back.command == "c" and back.argv == ["c", "--x"]
        assert back.results == {"pass": True}
        assert back.timestamp

    def test_version_checked(self, tmp_path):
        path = tmp_path / "m.manifest.json"
        path.write_text(json.dumps({"manifest_version": 99}))
        with pytest.raises(InvalidParametersError):
            RunManifest.load(str(path))

    def test_output_hash(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("hello\n")
        man = RunManifest(command="c", argv=[], params={})
        man.add_output(str(f))
        import hashlib
        assert man.outputs[str(f)] == hashlib.sha256(b"hello\n").hexdigest()
