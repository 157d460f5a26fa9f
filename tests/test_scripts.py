"""Smoke runs of the scripts under scripts/, each as a subprocess with the
package on PYTHONPATH, at the smallest sizes they accept."""

import os
import pathlib
import subprocess
import sys

from regg.law import read_table

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)


def test_envelope_scaling(tmp_path):
    out = tmp_path / "constants.csv"
    proc = run_script("envelope_scaling.py", "--sizes", "100,200",
                      "--seeds", "1", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    columns, rows = read_table(str(out), "envelope-constants")
    assert columns[0] == "N"
    assert [row[0] for row in rows] == ["100", "200"]


def test_run_full_verification_quick(tmp_path):
    outdir = tmp_path / "results"
    proc = run_script("run_full_verification.py", "--quick",
                      "--outdir", str(outdir), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("invariance-matching.json", "invariance-uniform.json",
                 "invariance-uniform-switching.json",
                 "invariance-uniform-8-2.json", "invariance-permutation.json",
                 "lawsweep.csv", "deloc.csv", "que.csv", "kesten-mckay.csv",
                 "stability.json"):
        assert (outdir / name).is_file(), name
        assert (outdir / (name + ".manifest.json")).is_file(), name
    assert (outdir / "lawsweep.svg").is_file()
