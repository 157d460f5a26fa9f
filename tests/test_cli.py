import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from regg import graphs, spectral
from regg import law as law_mod
from regg.cli import (EXIT_ACCEPTANCE, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE,
                      build_parser, main, rerun_manifest)
from regg.errors import InvalidParametersError
from regg.graphs import from_edgelist
from regg.law import read_table
from regg.manifest import RunManifest
from regg.rng import stream
from regg.spectral import build_H


ROOT = pathlib.Path(__file__).resolve().parents[1]


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
        # xi is always default_xi(n)
        assert run([*sweep, "--xi", "0"]) == EXIT_USAGE
        # the martingale tail and exchangeable moment checks are retired
        assert run(["stability", "--runs", "10"]) == EXIT_USAGE
        assert run(["stability", "--check", "arcsinh"]) == EXIT_USAGE
        assert run(["stability", "--check", "moments"]) == EXIT_USAGE
        # no command reads a config file
        model = ["--model", "matching", "--n", "10", "--d", "3"]
        for argv in (["sample", *model, "--out", str(tmp_path / "g.edges")],
                     ["invariance", *model],
                     [*sweep],
                     ["eigen", "--mode", "deloc", *model,
                      "--out", str(tmp_path / "deloc.csv")],
                     ["stability", "--check", "sweep", "--points", "10"],
                     ["report", "--dir", str(tmp_path)]):
            assert run([*argv, "--config", str(tmp_path / "exp.cfg")]) \
                == EXIT_USAGE
            assert "--config" in capsys.readouterr().err

    def test_negative_exponent_is_a_number(self):
        args = build_parser().parse_args(
            ["lawsweep", "--model", "matching", "--n", "10", "--d", "3",
             "--e-min", "-2.5E-3", "--e-max", "-1e9", "--eta-max", "-.5",
             "--out", "law.csv"])
        assert (args.e_min, args.e_max, args.eta_max) == (-2.5e-3, -1e9, -0.5)

    @pytest.mark.parametrize("argv, code", [
        (["sample", "--model", "matching", "--n", "10", "--d", "3",
          "--seed", "2", "--out", "g.edges"], EXIT_OK),
        ([], EXIT_USAGE),
    ])
    @pytest.mark.parametrize("module", ["regg", "regg.cli"])
    def test_python_m(self, tmp_path, module, argv, code):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        if argv:
            g, _ = from_edgelist((tmp_path / "g.edges").read_text())
            assert g.n == 10

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
        que = ["eigen", "--mode", "que", *model,
               "--out", str(tmp_path / "que.csv")]
        for bad in ([*intervals, "--samples", "0"],
                    [*intervals, "--bin-width", "0"],
                    [*intervals, "--bin-width", "-0.1"],
                    [*intervals, "--bin-width", "9"],  # round(4.4 / 9) = 0 bins
                    [*intervals, "--d", "1"],
                    [*sweep, "--samples", "0"],
                    [*sweep, "--e-step", "0"],
                    [*sweep, "--e-step", "-0.2"],
                    [*sweep, "--d", "1"],
                    [*que, "--interval-size", "-1"],
                    [*que, "--interval-size", "0"],
                    [*que, "--interval-size", "40"],
                    [*que, "--interval-size", "500"],
                    # the matching move acts on d = 1, the permutation move on d = 2
                    ["invariance", "--model", "matching", "--n", "4", "--d", "3"],
                    ["invariance", "--model", "matching", "--n", "12", "--d", "2",
                     "--mc", "--samples", "10"],
                    ["invariance", "--model", "permutation", "--n", "4", "--d", "7"],
                    ["invariance", "--model", "permutation", "--n", "4", "--d", "4",
                     "--mc", "--samples", "10"],
                    # counts below 1: an empty sweep or a NaN TV
                    ["stability", "--check", "sweep", "--points", "-5"],
                    ["stability", "--check", "sweep", "--points", "0"],
                    ["stability", "--check", "ladder", "--points", "-5"],
                    ["stability", "--check", "ladder", "--points", "0"],
                    ["invariance", "--model", "matching", "--n", "12", "--d", "1",
                     "--mc", "--samples", "0"],
                    ["invariance", "--model", "matching", "--n", "12", "--d", "1",
                     "--mc", "--samples", "-2"],
                    # D = N^2/d^3 = 0.185: the fit would drop every record
                    ["lawsweep", "--model", "uniform", "--n", "200", "--d", "60",
                     "--out", str(tmp_path / "law.csv")]):
            assert run(bad) == EXIT_PRECONDITION
            err = capsys.readouterr().err
            assert "error: " in err
        assert "uniform model's effective D = 0.1852 < 1" in err
        assert not (tmp_path / "law.csv").exists()
        # every eigen mode checks --d before it samples a graph
        for mode in ("deloc", "que", "intervals"):
            assert run(["eigen", "--mode", mode, *model, "--d", "1",
                        "--out", str(tmp_path / "x.csv")]) == EXIT_PRECONDITION
            assert capsys.readouterr().err == \
                "error: eigen needs --d >= 2, got 1\n"

    @pytest.mark.parametrize("command", [
        ["lawsweep"], ["eigen", "--mode", "deloc"], ["eigen", "--mode", "que"],
        ["eigen", "--mode", "intervals"]])
    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_nonpositive_size_exits_2(self, tmp_path, capsys, command, n):
        # lawsweep's eta and xi defaults divide by n and take log(n), and so
        # do the null values of the eigen modes' statistics
        assert run([*command, "--model", "permutation", "--n", n, "--d", "4",
                    "--out", str(tmp_path / "out.csv")]) == EXIT_PRECONDITION
        assert "need n > 0" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


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

    def test_forced_chain_needs_three_edges(self, tmp_path, capsys):
        for n in ("4", "2"):
            start = time.monotonic()
            code = run(["sample", "--model", "uniform", "--n", n, "--d", "1",
                        "--method", "switching-chain",
                        "--out", str(tmp_path / "g.edges")])
            assert code == EXIT_PRECONDITION
            assert time.monotonic() - start < 1.0
            assert "at least 3 edges" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["matching", "permutation",
                                       "configuration"])
    @pytest.mark.parametrize("method", ["rejection", "switching-chain"])
    def test_method_needs_uniform_model(self, tmp_path, capsys, model, method):
        out = tmp_path / "g.edges"
        assert run(["sample", "--model", model, "--n", "10", "--d", "2",
                    "--method", method, "--out", str(out)]) == EXIT_PRECONDITION
        assert f"applies to the uniform model only, not to {model}" in \
            capsys.readouterr().err
        assert not out.exists()
        assert run(["sample", "--model", model, "--n", "10", "--d", "2",
                    "--method", "auto", "--out", str(out)]) == EXIT_OK

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

    @pytest.mark.parametrize("model, n, d, approximate", [
        ("uniform", 200, 8, True),   # auto picks the switching chain here
        ("matching", 12, 1, False),
    ])
    def test_mc_labels_approximate_sampling(self, tmp_path, capsys, model, n,
                                            d, approximate):
        out = tmp_path / "mc.json"
        assert run(["invariance", "--model", model, "--n", str(n), "--d",
                    str(d), "--samples", "5", "--mc",
                    "--out", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["approximate"] is approximate
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.params["approximate"] is approximate

    def test_mc_manifest_records_no_pass(self, tmp_path, capsys):
        # a Monte-Carlo TV distance has no gate: its manifest holds the
        # distance and no pass, so report lists it as null, also under
        # --strict, while an exact report keeps its pass
        out = tmp_path / "mc.json"
        assert run(["invariance", "--model", "uniform", "--n", "40", "--d",
                    "3", "--samples", "5", "--seed", "1", "--mc",
                    "--out", str(out)]) == EXIT_OK
        tv = json.loads(capsys.readouterr().out)["tv_distance"]
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.results == {"tv_distance": tv}
        assert run(["invariance", "--model", "matching", "--n", "4", "--d",
                    "1", "--out", str(tmp_path / "exact.json")]) == EXIT_OK
        capsys.readouterr()
        assert run(["report", "--dir", str(tmp_path), "--strict"]) == EXIT_OK
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert {e["manifest"]: e["pass"] for e in entries} == {
            "exact.json.manifest.json": True, "mc.json.manifest.json": None}

    @pytest.mark.parametrize("model, n, d", [
        ("matching", 14, 1),     # 13!! * 13^2 = 2.3e7 inputs
        ("permutation", 9, 2),   # 7! * 9 * 8^3 = 2.3e7 inputs
        ("uniform", 8, 3),       # C(9, 2)^3 = 46656 triple choices per graph
        ("uniform", 10, 2),      # beyond n = 8
        ("uniform", 4, 1),       # one edge off the pivot: no admissible triple
        ("uniform", 6, 0),
    ])
    def test_unenumerable_size_fails_fast(self, model, n, d, capsys):
        start = time.monotonic()
        assert run(["invariance", "--model", model, "--n", str(n),
                    "--d", str(d)]) == EXIT_PRECONDITION
        assert time.monotonic() - start < 1.0
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("model, n, d, message", [
        ("uniform", 3, 2, "no admissible triple at the pivot for n=3, d=2"),
        ("uniform", 2, 1, "no admissible triple at the pivot for n=2, d=1"),
        ("uniform", 4, 0, "the simultaneous switching needs d >= 1, got 0"),
        ("uniform", -2, 1, "need n > 0 and d >= 0, got n=-2 d=1"),
        ("matching", 0, 1, "need n > 0 and d >= 0, got n=0 d=1"),
    ])
    def test_mc_degenerate_size_exits_2(self, model, n, d, message, tmp_path,
                                        capsys):
        out = tmp_path / "inv.json"
        assert run(["invariance", "--mc", "--model", model, "--n", str(n),
                    "--d", str(d), "--samples", "5", "--seed", "0",
                    "--out", str(out)]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()


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

    @pytest.mark.parametrize("n, pairs", [(100, 4950), (400, 10000)])
    def test_manifest_records_pairs_drawn(self, tmp_path, n, pairs):
        # every pair i < j up to EXHAUSTIVE_N = 300, OFFDIAG_PAIRS above
        out = tmp_path / "law.csv"
        code = run(["lawsweep", "--model", "permutation", "--n", str(n),
                    "--d", "10", "--samples", "1", "--e-step", "4.8",
                    "--eta-min", "1", "--out", str(out)])
        assert code == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.params["offdiag_pairs"] == pairs

    def test_law_csv_matches_recorded_bytes(self, tmp_path):
        # sha256 of the v1 file with its psi and flag columns dropped and
        # the v2 header, then of that file with the v3 header, its only
        # change; at N = 100 the bytes do not depend on the number of BLAS
        # threads
        out = tmp_path / "law.csv"
        code = run(["lawsweep", "--model", "permutation", "--n", "100",
                    "--d", "6", "--seed", "4", "--samples", "2",
                    "--e-min", "-1", "--e-max", "1", "--e-step", "1",
                    "--eta-min", "0.4", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[:2] == [
            "# regg-csv v3 law",
            "model,N,d,seed,trial,E,eta,max_diag_err,max_offdiag,s_minus_m,"
            "phi,f_xi_phi"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d75da0435c260aea20fee2ce98babd740eaab101932bb6670add8853fea9f3f5")

    @pytest.mark.parametrize("argv, reason", [
        # 2 * 10^12 energies: refused before the tuple is built
        (["--n", "100", "--e-min=-1e9", "--e-max", "1e9", "--e-step", "1e-3"],
         "more than 100000"),
        # 48 001 energies and 5 etas: the grid arrays of one sample take
        # 65 GB
        (["--n", "2000", "--e-step", "1e-4"], "GB of RAM"),
        # "-1e9" after a space is a number too, not an option
        (["--n", "100", "--e-min", "-1e9", "--e-max", "1e9", "--e-step", "1e-3"],
         "more than 100000"),
    ])
    def test_oversized_grid_fails_fast(self, tmp_path, capsys, monkeypatch,
                                       argv, reason):
        sampled = []
        monkeypatch.setattr(law_mod, "sample_model",
                            lambda *args, **kwargs: sampled.append(args))
        start = time.monotonic()
        assert run(["lawsweep", "--model", "permutation", "--d", "4", *argv,
                    "--out", str(tmp_path / "law.csv")]) == EXIT_PRECONDITION
        assert time.monotonic() - start < 1.0
        assert reason in capsys.readouterr().err
        assert sampled == []
        assert not (tmp_path / "law.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--eta-min", "0"),      # the halving reaches 0.0 and stays there
        ("--eta-min", "-1"),
        ("--eta-min", "nan"),
        ("--eta-max", "inf"),    # inf / 2 is inf
        ("--e-min", "nan"),
        ("--e-max", "inf"),
    ])
    def test_unbounded_grid_fails_fast(self, tmp_path, capsys, flag, value):
        start = time.monotonic()
        assert run(["lawsweep", "--model", "permutation", "--n", "100",
                    "--d", "4", flag, value,
                    "--out", str(tmp_path / "law.csv")]) == EXIT_PRECONDITION
        assert time.monotonic() - start < 1.0
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "law.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        # the default --eta-min is 64/N, above --eta-max 1 for N < 64
        (["--n", "1"],
         "the eta grid is empty: eta_min = 64.0 exceeds eta_max = 1.0"),
        (["--n", "100", "--eta-min", "2"],
         "the eta grid is empty: eta_min = 2.0 exceeds eta_max = 1.0"),
        (["--n", "100", "--e-min", "1", "--e-max", "0"],
         "the energy grid is empty: --e-max 0.0 lies below --e-min 1.0"),
    ])
    def test_empty_grid_names_its_bounds(self, tmp_path, capsys, monkeypatch,
                                         argv, message):
        sampled = []
        monkeypatch.setattr(law_mod, "sample_model",
                            lambda *args, **kwargs: sampled.append(args))
        assert run(["lawsweep", "--model", "permutation", "--d", "4", *argv,
                    "--out", str(tmp_path / "law.csv")]) == EXIT_PRECONDITION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sampled == []
        assert not (tmp_path / "law.csv").exists()


class TestEigen:
    @pytest.mark.parametrize("width", ["1e-6", "5e-324"])
    def test_oversized_bin_grid_fails_fast(self, tmp_path, capsys, monkeypatch,
                                           width):
        # 4.4 / 1e-6 bins; 4.4 / 5e-324 overflows to inf
        sampled = []
        monkeypatch.setattr(law_mod, "sample_model",
                            lambda *args, **kwargs: sampled.append(args))
        start = time.monotonic()
        assert run(["eigen", "--mode", "intervals", "--model", "matching",
                    "--n", "10", "--d", "3", "--bin-width", width,
                    "--out", str(tmp_path / "iv.csv")]) == EXIT_PRECONDITION
        assert time.monotonic() - start < 1.0
        assert "more than 100000" in capsys.readouterr().err
        assert sampled == []
        assert not (tmp_path / "iv.csv").exists()

    @pytest.mark.parametrize("mode, flags, message", [
        # deloc never bins, so no bin width is checked or read
        ("deloc", ["--bin-width", "0"], "--bin-width applies to --mode "
         "intervals only"),
        ("deloc", ["--interval-size", "5", "--bin-width", "7"],
         "--bin-width applies to --mode intervals only"),
        ("que", ["--bin-width", "0.1"], "--bin-width applies to --mode "
         "intervals only"),
        ("intervals", ["--interval-size", "5"], "--interval-size applies to "
         "--mode que only"),
        ("deloc", ["--interval-size", "5"], "--interval-size applies to "
         "--mode que only"),
        # the fourth moment's and the QUE statistics' null values vanish
        ("deloc", ["--n", "2", "--d", "2"], "--mode deloc needs --n >= 3"),
        ("que", ["--n", "2", "--d", "2"], "--mode que needs --n >= 3"),
    ])
    def test_mode_precondition_exits_2_before_sampling(self, tmp_path, capsys,
                                                       monkeypatch, mode, flags,
                                                       message):
        sampled = []
        monkeypatch.setattr(law_mod, "sample_model",
                            lambda *args, **kwargs: sampled.append(args))
        out = tmp_path / "x.csv"
        assert run(["eigen", "--mode", mode, "--model", "permutation",
                    "--n", "40", "--d", "4", *flags,
                    "--out", str(out)]) == EXIT_PRECONDITION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sampled == []
        assert not out.exists()

    def test_intervals_default_bin_width(self, tmp_path):
        out = tmp_path / "iv.csv"
        assert run(["eigen", "--mode", "intervals", "--model", "matching",
                    "--n", "40", "--d", "3", "--out", str(out)]) == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.params["bin_width"] == 0.1
        columns, rows = read_table(str(out), "eigen-intervals")
        assert columns == ["seed", "trial", "a", "b", "nu", "rho"]
        assert len(rows) == 44

    def test_deloc(self, tmp_path):
        out = tmp_path / "deloc.csv"
        code = run(["eigen", "--mode", "deloc", "--model", "permutation",
                    "--n", "200", "--d", "10", "--seed", "5", "--samples", "2",
                    "--out", str(out)])
        assert code == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.results["pass"] is True
        # (trial, max_inf_norm, normalized), recorded before the eigen modes
        # shared law.per_trial
        _, rows = read_table(str(out), "eigen-deloc")
        assert [int(r[1]) for r in rows] == [0, 1]
        got = [[float(r[2]), float(r[3])] for r in rows]
        assert got[0] == pytest.approx([0.27524576515611554,
                                        15.152046247275102], rel=1e-12)
        assert got[1] == pytest.approx([0.374543875426655,
                                        28.056622923923534], rel=1e-12)
        assert man.results["worst_normalized"] == pytest.approx(
            28.056622923923534, rel=1e-12)

    def test_que(self, tmp_path):
        out = tmp_path / "que.csv"
        code = run(["eigen", "--mode", "que", "--model", "permutation",
                    "--n", "200", "--d", "10", "--seed", "5", "--samples", "1",
                    "--interval-size", "20", "--out", str(out)])
        assert code == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.results["pass"] is True
        # every 20th alpha's statistic and the largest |statistic| (alpha
        # 178), recorded before the eigen modes shared law.per_trial
        _, rows = read_table(str(out), "eigen-que")
        assert [int(r[2]) for r in rows] == list(range(200))
        stats = [float(r[3]) for r in rows]
        assert stats[::20] == pytest.approx([
            0.012163864696404183, 0.0275307466202493, 0.011148937644105588,
            -0.04448691875566247, -0.016519844091144768, 0.08561171053426868,
            -0.017380188586058453, -0.010688118868294242,
            -0.024095883951693712, 0.009632440687558136], rel=0, abs=1e-12)
        assert stats[178] == pytest.approx(0.10628285826758478, rel=0,
                                           abs=1e-12)
        assert man.results["worst_stat"] == pytest.approx(
            0.10628285826758478, rel=0, abs=1e-12)

    def test_que_default_size_below_n(self, tmp_path):
        # the default interval is min(200, N - 1) vertices: 199 at N = 200
        out = tmp_path / "que.csv"
        assert run(["eigen", "--mode", "que", "--model", "matching", "--n",
                    "200", "--d", "5", "--seed", "5", "--out", str(out)]) == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.params["interval_size"] == 199
        assert man.results["interval_size"] == 199

    def test_intervals(self, tmp_path):
        out = tmp_path / "int.csv"
        code = run(["eigen", "--mode", "intervals", "--model", "matching",
                    "--n", "300", "--d", "3", "--seed", "5", "--samples", "1",
                    "--out", str(out)])
        assert code == EXIT_OK
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.results["tv_mean"] < 0.5

    def test_intervals_csv_matches_recorded_bytes(self, tmp_path):
        # sha256 recorded with the closed-form reference masses; against the
        # quadrature masses only the rho column differs, by at most 8e-17.
        # Re-recorded for the v2 header, then as that file with the v3
        # header and its kappa, bound_bulk and bound_edge columns removed
        out = tmp_path / "int.csv"
        code = run(["eigen", "--mode", "intervals", "--model", "matching",
                    "--n", "1500", "--d", "3", "--seed", "5", "--samples", "2",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "77aff59392704d373a05a5be1d9a34d5e46dc9c0c19c26da498ba6670c762d07")

    def test_intervals_with_loops_matches_recorded_bytes(self, tmp_path):
        # permutation graphs carry loops and multi-edges; sha256 recorded
        # with the full dense matrix handed to LAPACK, re-recorded for the
        # v2 header, then as that file with the v3 header and its kappa,
        # bound_bulk and bound_edge columns removed
        out = tmp_path / "int.csv"
        code = run(["eigen", "--mode", "intervals", "--model", "permutation",
                    "--n", "400", "--d", "6", "--seed", "5", "--samples", "2",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "644e3b52ce143ab2aa23ef98456c1e91f6438f4250ee8772fe2e4d5550c410d1")

    @pytest.mark.parametrize("mode", ["deloc", "que", "lawsweep"])
    def test_trials_do_not_accumulate_memory(self, tmp_path, monkeypatch,
                                             mode):
        # the previous trial's view must be gone before the next eigh.  Its
        # arrays are mapped, which tracemalloc does not see, so the views
        # are also tracked by weak reference, and the bytes mapped at once
        # are added to the traced heap peak
        views = []
        mapped = [0, 0]  # bytes mapped now, the most mapped at once
        mmap = graphs.mmap.mmap

        def unmapped(length):
            mapped[0] -= length

        def tracked(fileno, length, **kwargs):
            buf = mmap(fileno, length, **kwargs)
            mapped[0] += length
            mapped[1] = max(mapped)
            weakref.finalize(buf, unmapped, length)
            return buf

        def view(h, **kwargs):
            made = spectral.ResolventView(h, **kwargs)
            views.append(weakref.ref(made))
            return made

        def build(g):
            assert all(ref() is None for ref in views), "a view outlived its trial"
            return spectral.build_H(g)

        # 100 pairs keep grid's pair blocks below the decomposition, so
        # both lawsweep runs peak in the eigh that a held view would sit
        # beside; the eigen modes draw no pairs
        monkeypatch.setattr(spectral, "OFFDIAG_PAIRS", 100)
        monkeypatch.setattr(law_mod, "ResolventView", view)
        monkeypatch.setattr(law_mod, "build_H", build)
        monkeypatch.setattr(graphs.mmap, "mmap", tracked)
        model = ["--model", "permutation", "--n", "800", "--d", "10",
                 "--seed", "5"]
        if mode == "lawsweep":
            argv = ["lawsweep", *model, "--e-step", "4.8", "--eta-min", "1"]
        else:
            argv = ["eigen", "--mode", mode, *model]
        peaks = []
        for samples in ("1", "2"):
            mapped[1] = mapped[0]
            tracemalloc.start()
            try:
                code = run([*argv, "--samples", samples,
                            "--out", str(tmp_path / f"{mode}{samples}.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1] + mapped[1])
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
        assert len(views) == 3
        assert peaks[1] < 1.1 * peaks[0]

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

    def test_ram_precondition_with_little_ram(self, tmp_path, capsys,
                                              monkeypatch):
        # 256 pages of RAM: one 1000 x 1000 float64 matrix does not fit
        sysconf = graphs.os.sysconf
        monkeypatch.setattr(graphs.os, "sysconf", lambda name: (
            256 if name == "SC_PHYS_PAGES" else sysconf(name)))
        mapped = []
        monkeypatch.setattr(graphs.mmap, "mmap",
                            lambda *args, **kwargs: mapped.append(args))
        code = run(["eigen", "--mode", "intervals", "--model", "matching",
                    "--n", "1000", "--d", "3", "--seed", "0",
                    "--out", str(tmp_path / "int.csv")])
        assert code == EXIT_PRECONDITION
        assert re.search(r"more than the [0-9.]+ GB of RAM",
                         capsys.readouterr().err)
        assert mapped == []
        g = graphs.sample_permutation_model(1000, 4, stream(0, 0))
        with pytest.raises(InvalidParametersError, match="GB of RAM"):
            build_H(g)

    def test_intervals_fail_fast_without_dsyevd_2stage(self, tmp_path, capsys,
                                                       monkeypatch,
                                                       lapack_exports):
        # a LAPACK that exports neither symbol: exit 2 naming the routine,
        # before any graph's matrix is mapped
        lapack_exports({"scipy_dsyevd_2stage_": None, "dsyevd_2stage_": None})
        mapped = []
        monkeypatch.setattr(graphs.mmap, "mmap",
                            lambda *args, **kwargs: mapped.append(args))
        code = run(["eigen", "--mode", "intervals", "--model", "matching",
                    "--n", "300", "--d", "3", "--seed", "0",
                    "--out", str(tmp_path / "int.csv")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "LAPACK's dsyevd_2stage " in err
        assert "looked for scipy_dsyevd_2stage_, dsyevd_2stage_" in err
        assert mapped == []
        assert not (tmp_path / "int.csv").exists()

    #: the cases' ids read argv<k>-_<ROUTINE>-<routine>, the form in which
    #: recorded runs of the suite name them
    ROUTINE_CASES = [
        (["lawsweep"], "dsytrd"),
        (["lawsweep"], "dgemm"),
        (["eigen", "--mode", "deloc"], "dsytrd"),
        (["eigen", "--mode", "deloc"], "dgemm"),
        (["lawsweep"], "dstedc"),
        (["lawsweep"], "dormtr"),
        (["eigen", "--mode", "deloc"], "dstedc"),
        (["eigen", "--mode", "deloc"], "dormtr"),
    ]

    @pytest.mark.parametrize("argv, routine", ROUTINE_CASES, ids=[
        f"argv{k}-_{routine.upper()}-{routine}"
        for k, (_, routine) in enumerate(ROUTINE_CASES)])
    def test_fail_fast_without_a_routine(self, tmp_path, capsys, monkeypatch,
                                         lapack_exports, argv, routine):
        # the eigenvector commands resolve dsytrd, dstedc, dormtr and dgemm
        # before any graph's matrix is mapped
        lapack_exports({f"scipy_{routine}_": None, f"{routine}_": None})
        mapped = []
        monkeypatch.setattr(graphs.mmap, "mmap",
                            lambda *args, **kwargs: mapped.append(args))
        code = run([*argv, "--model", "permutation", "--n", "300",
                    "--d", "4", "--seed", "0",
                    "--out", str(tmp_path / "out.csv")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert f"LAPACK's {routine} " in err
        assert f"looked for scipy_{routine}_, {routine}_" in err
        assert mapped == []
        assert not (tmp_path / "out.csv").exists()


class TestStability:
    def test_quick_all(self, tmp_path, capsys):
        out = tmp_path / "stab.json"
        code = run(["stability", "--points", "200", "--seed", "0",
                    "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        names = {c["check"] for c in payload["checks"]}
        assert names == {"stability_sweep", "ladder_sweep"}

    def test_ladder_runs_a_track_per_50_points_and_at_least_one(self, capsys):
        for points, tracks in ((10, 1), (120, 2)):
            assert run(["stability", "--check", "ladder", "--points",
                        str(points), "--seed", "0"]) == EXIT_OK
            (check,) = json.loads(capsys.readouterr().out)["checks"]
            assert check["tracks"] == tracks


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

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        assert run(["report", "--dir", str(tmp_path / "nosuch")]) \
            == EXIT_PRECONDITION
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"{not json",
        b"\xff\xfe{}",
        b"[1, 2]",
        json.dumps({"manifest_version": 1, "argv": [], "params": {}}).encode(),
        json.dumps({"manifest_version": 1, "command": "x"}).encode(),
        *(json.dumps({"manifest_version": 1, "command": "x", "argv": [],
                      "params": {}, **field}).encode()
          for field in ({"argv": "lawsweep"}, {"argv": ["lawsweep", 3]},
                        {"params": []}, {"outputs": "x"}, {"results": []})),
    ], ids=["not-json", "not-utf8", "not-object", "no-command", "no-argv",
            "argv-not-list", "argv-not-str", "params-not-object",
            "outputs-not-object", "results-not-object"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.manifest.json"
        path.write_bytes(content)
        with pytest.raises(InvalidParametersError):
            RunManifest.load(str(path))
        assert run(["report", "--dir", str(tmp_path)]) == EXIT_PRECONDITION
        assert str(path) in capsys.readouterr().err
        assert rerun_manifest(str(path)) == EXIT_PRECONDITION
        assert str(path) in capsys.readouterr().err


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

    def test_rerun_ignores_the_environment(self, tmp_path, monkeypatch):
        # the argv alone fixes the seed: a REGG_SEED in the environment of
        # the first run neither reaches it nor is needed to redo it
        out = tmp_path / "g.edges"
        monkeypatch.setenv("REGG_SEED", "5")
        assert run(["sample", "--model", "matching", "--n", "10", "--d", "3",
                    "--out", str(out)]) == EXIT_OK
        monkeypatch.delenv("REGG_SEED")
        redo = tmp_path / "g2.edges"
        assert rerun_manifest(str(out) + ".manifest.json",
                              {str(out): str(redo)}) == EXIT_OK
        assert out.read_bytes() == redo.read_bytes()
        man = RunManifest.load(str(out) + ".manifest.json")
        assert man.params["seed"] == 0
        assert RunManifest.load(str(redo) + ".manifest.json").outputs[
            str(redo)] == man.outputs[str(out)]


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


class TestScipyLoading:
    def test_scipy_loads_only_for_linear_algebra(self, tmp_path):
        # commands that do no linear algebra start on numpy alone; eigen
        # --mode intervals and lawsweep reach LAPACK and BLAS through the
        # ctypes binding, and the intervals' reference masses are closed
        # forms that need no quadrature
        script = textwrap.dedent("""
            import sys
            import regg
            import regg.cli
            out = sys.argv[1]
            heavy = ("scipy.linalg", "scipy.integrate", "scipy.sparse")
            for argv in (
                    ["sample", "--model", "uniform", "--n", "200", "--d", "8",
                     "--out", out + "/g.edges"],
                    ["invariance", "--model", "uniform", "--n", "6", "--d", "3",
                     "--out", out + "/inv.json"],
                    ["stability", "--check", "sweep", "--points", "100",
                     "--out", out + "/stab.json"],
                    ["eigen", "--mode", "intervals", "--model", "matching",
                     "--n", "100", "--d", "3", "--out", out + "/km.csv"],
                    ["lawsweep", "--model", "permutation", "--n", "100",
                     "--d", "4", "--e-step", "1.2", "--eta-min", "0.5",
                     "--out", out + "/law.csv"]):
                assert regg.cli.main(argv) == 0, argv
                loaded = [m for m in heavy if m in sys.modules]
                assert not loaded, (argv, loaded)
        """)
        path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
