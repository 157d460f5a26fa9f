#!/usr/bin/env python3
"""Run the full verification battery through the CLI into one output
directory, then aggregate every manifest into a strict pass/fail report.

Usage: python3 scripts/run_full_verification.py [--outdir DIR] [--seed S]
       [--quick]

--quick shrinks the sweep sizes for a fast smoke run; the default settings
mirror the acceptance-scale protocol and take a few minutes.
"""

import argparse
import pathlib
import sys

from regg.cli import EXIT_OK, main as regg_main


def run(argv):
    print("+ regg " + " ".join(argv), flush=True)
    code = regg_main(argv)
    if code != EXIT_OK:
        print(f"command failed with exit code {code}", file=sys.stderr)
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    seed = str(args.seed)
    n_law, samples = ("400", "2") if args.quick else ("2000", "5")
    n_eig = "400" if args.quick else "2000"
    n_km = "1000" if args.quick else "5000"

    run(["invariance", "--model", "matching", "--n", "6", "--d", "1",
         "--seed", seed, "--out", str(out / "invariance-matching.json")])
    run(["invariance", "--model", "uniform", "--n", "6", "--d", "3",
         "--seed", seed, "--out", str(out / "invariance-uniform.json")])
    run(["invariance", "--model", "uniform", "--n", "8", "--d", "1",
         "--seed", seed, "--out", str(out / "invariance-uniform-switching.json")])
    run(["invariance", "--model", "uniform", "--n", "8", "--d", "2",
         "--seed", seed, "--out", str(out / "invariance-uniform-8-2.json")])
    run(["invariance", "--model", "permutation", "--n", "4", "--d", "2",
         "--seed", seed, "--out", str(out / "invariance-permutation.json")])

    run(["lawsweep", "--model", "permutation", "--n", n_law, "--d", "40",
         "--seed", seed, "--samples", samples,
         "--svg", str(out / "lawsweep.svg"), "--out", str(out / "lawsweep.csv")])

    run(["eigen", "--mode", "deloc", "--model", "permutation", "--n", n_eig,
         "--d", "30", "--seed", seed, "--samples", samples,
         "--out", str(out / "deloc.csv")])
    run(["eigen", "--mode", "que", "--model", "permutation", "--n", n_eig,
         "--d", "30", "--seed", seed, "--samples", "3",
         "--out", str(out / "que.csv")])
    run(["eigen", "--mode", "intervals", "--model", "matching", "--n", n_km,
         "--d", "3", "--seed", seed, "--samples", "3",
         "--out", str(out / "kesten-mckay.csv")])

    run(["stability", "--check", "all", "--seed", seed,
         "--points", "2000" if args.quick else "10000",
         "--out", str(out / "stability.json")])

    code = regg_main(["report", "--dir", str(out), "--strict"])
    sys.exit(code)


if __name__ == "__main__":
    main()
