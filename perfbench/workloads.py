"""The three workloads: the calls each operation makes and the checks on
its outputs.

An operation goes through the public entry points users call:
``regg.cli.main(argv)`` for CLI commands and the library functions Tier-1
calls.  Functions are looked up on their modules at call time, so traced
wrappers take effect.  The operation seed reaches the program only as
``--seed`` or as ``stream(seed, ...)`` inputs.  No check compares floats
bitwise: eigensolver output varies with the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import os

ACCEPTANCE_CONSTANT = 10.0     # law_harness.acceptance_constant, criterion 5
KM_TV_BOUND = 0.03             # criterion 7


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_manifest(path: str) -> dict:
    with open(path + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def _data_rows(path: str) -> int:
    """Rows of a regg CSV after its schema and column header lines."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 2


def _hash_failures(manifest: dict) -> list[str]:
    return [f"{path}: sha256 differs from manifest"
            for path, digest in manifest["outputs"].items()
            if _sha256(path) != digest]


def _regular_failures(g, n: int, d: int, what: str) -> list[str]:
    adj = g.adj
    if (g.n, g.deg) != (n, d) or not g.simple or not (adj.sum(axis=1) == d).all() \
            or not (adj == adj.T).all():
        return [f"{what}: not a simple {d}-regular graph on {n} vertices"]
    return []


class Workload:
    """One workload.  `run(seed)` is the timed operation and returns what
    `check` inspects; `warm_up()` is part of set-up."""

    name = ""

    def __init__(self, regg, workdir: str, corrupt: bool):
        self.regg = regg
        self.workdir = workdir
        self.corrupt = corrupt

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


class LawSweep(Workload):
    """`regg lawsweep` on the README example: permutation model, N=2000,
    d=40, the default 25 x 5 z-grid."""

    name = "lawsweep"
    N, D, SAMPLES, GRID_POINTS = 2000, 40, 1, 125

    def argv(self, seed: int, *grid: str) -> list[str]:
        return ["lawsweep", "--model", "permutation", "--n", str(self.N),
                "--d", str(self.D), "--seed", str(seed),
                "--samples", str(self.SAMPLES), *grid,
                "--svg", self.path("law.svg"), "--out", self.path("law.csv")]

    def warm_up(self, seed: int) -> None:
        # Full size on a 2-point grid, so the first timed eigh is not the
        # process's first: in one measurement after an N=400 warm-up the
        # first N=2000 operation ran ~20% slower than later ones.
        self.regg.cli.main(self.argv(seed, "--e-step", "4.8", "--eta-min", "1"))

    def run(self, seed: int):
        return self.regg.cli.main(self.argv(seed))

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"lawsweep exited {rc}"]
        csv = self.path("law.csv")
        man = _load_manifest(csv)
        res = man["results"]
        rows = self.SAMPLES * self.GRID_POINTS + (1 if self.corrupt else 0)
        fails = _hash_failures(man)
        if res.get("pass") is not True:
            fails.append("manifest does not report pass")
        for key in ("C_diag", "C_offdiag"):
            if not res["constants"][key] <= ACCEPTANCE_CONSTANT:
                fails.append(f"{key} = {res['constants'][key]} > {ACCEPTANCE_CONSTANT}")
        if _data_rows(csv) != rows:
            fails.append(f"law CSV has {_data_rows(csv)} rows, expected {rows}")
        return fails


class KestenMcKay(Workload):
    """`regg sample` then `regg eigen --mode intervals`: matching model,
    N=4000, d=3 (criterion 7's protocol at N=4000)."""

    name = "kesten-mckay"
    N, D, SAMPLES, BINS = 4000, 3, 1, 44

    def _argvs(self, seed: int, n: int) -> list[list[str]]:
        model = ["--model", "matching", "--n", str(n), "--d", str(self.D),
                 "--seed", str(seed)]
        return [["sample", *model, "--out", self.path("g.edges")],
                ["eigen", "--mode", "intervals", *model,
                 "--samples", str(self.SAMPLES), "--out", self.path("km.csv")]]

    def warm_up(self, seed: int) -> None:
        # The sample/eigen pair at N=400 loads every code path and starts
        # the BLAS threads; a full-size pair would add ~6 s per process and
        # the first full-size operation measured no slower than later ones.
        for argv in self._argvs(seed, 400):
            self.regg.cli.main(argv)

    def run(self, seed: int):
        return seed, [self.regg.cli.main(argv) for argv in self._argvs(seed, self.N)]

    def check(self, out) -> list[str]:
        seed, rcs = out
        if rcs != [0, 0]:
            return [f"sample/eigen exited {rcs}"]
        edges, table = self.path("g.edges"), self.path("km.csv")
        fails = _hash_failures(_load_manifest(edges))
        with open(edges, encoding="utf-8") as fh:
            g, header = self.regg.graphs.from_edgelist(fh.read())
        want = {"n": self.N, "d": self.D, "model": "matching", "seed": seed}
        if header != want or (g.n, g.deg) != (self.N, self.D):
            fails.append(f"edge list header {header} != {want}")
        man = _load_manifest(table)
        fails += _hash_failures(man)
        bound = -1.0 if self.corrupt else KM_TV_BOUND
        if not man["results"]["tv_mean"] <= bound:
            fails.append(f"tv_mean = {man['results']['tv_mean']} > {bound}")
        if _data_rows(table) != self.SAMPLES * self.BINS:
            fails.append(f"interval CSV has {_data_rows(table)} rows")
        return fails


# Exact invariance reports as stored at the seed: integer counts, no RNG.
EXACT_REPORTS = {
    ("mm_exact_invariance", (6,)): {
        "model": "matching", "n": 6, "d": 1, "method": "exact",
        "total_inputs": 375, "states": 15, "exact_equal": True,
        "detailed_balance": None,
        "counts": {"per_state": [25], "expected": 25}},
    ("um_exact_invariance", (6, 3)): {
        "model": "uniform", "n": 6, "d": 3, "method": "exact",
        "total_inputs": 120960000, "states": 70, "exact_equal": True,
        "detailed_balance": True,
        "counts": {"per_state": [1728000, 1728000], "expected": 1728000,
                   "off_state_mass": 0}},
    ("pm_exact_uniformity", (4,)): {
        "model": "permutation", "n": 4, "d": 2, "method": "exact",
        "total_inputs": 216, "states": 24, "exact_equal": True,
        "detailed_balance": None,
        "counts": {"per_state": [9], "expected": 9}},
}


class Resample(Workload):
    """Exact invariance (matching n=6, uniform n=6 d=3, permutation n=4);
    per trial a switching-chain `sample_uniform` and one `um_resample` at
    n=200, d=8 (the calls `um_alpha_match_rate` makes); then a batch of
    rejection samples at n=6, d=3."""

    name = "resample"
    TRIALS, CHAIN_N, CHAIN_D = 1, 200, 8
    REJECTIONS, REJ_N, REJ_D = 1000, 6, 3

    def warm_up(self, seed: int) -> None:
        g = self.regg.graphs.sample_uniform(24, 4, self.regg.stream(seed, 0),
                                            method="switching-chain")
        self.regg.switchings.um_resample(g, self.regg.stream(seed, 1))
        self.regg.invariance.mm_exact_invariance(4)

    def run(self, seed: int):
        graphs, inv, stream = self.regg.graphs, self.regg.invariance, self.regg.stream
        reports = {key: getattr(inv, key[0])(*key[1]) for key in EXACT_REPORTS}
        resampled = []
        for t in range(self.TRIALS):
            rng = stream(seed, t)
            g = graphs.sample_uniform(self.CHAIN_N, self.CHAIN_D, rng,
                                      method="switching-chain")
            resampled.append((g, self.regg.switchings.um_resample(g, rng)))
        rng = stream(seed, self.TRIALS)
        rejected = [graphs.sample_uniform(self.REJ_N, self.REJ_D, rng,
                                          method="rejection")
                    for _ in range(self.REJECTIONS)]
        return reports, resampled, rejected

    def check(self, out) -> list[str]:
        reports, resampled, rejected = out
        fails = []
        for key, want in EXACT_REPORTS.items():
            got = dict(reports[key].summary(), counts=reports[key].counts)
            if self.corrupt and key[0] == "um_exact_invariance":
                want = dict(want, total_inputs=want["total_inputs"] + 1)
            if got != want:
                fails.append(f"{key[0]}{key[1]} report {got} != stored {want}")
        for t, (g, outcome) in enumerate(resampled):
            fails += _regular_failures(g, self.CHAIN_N, self.CHAIN_D, f"chain {t}")
            fails += _regular_failures(outcome.graph, self.CHAIN_N, self.CHAIN_D,
                                       f"um_resample {t}")
        for k, g in enumerate(rejected):
            fails += _regular_failures(g, self.REJ_N, self.REJ_D, f"rejection {k}")
        return fails


WORKLOADS = {w.name: w for w in (LawSweep, KestenMcKay, Resample)}
