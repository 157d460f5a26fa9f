#!/usr/bin/env python3
"""Fit the resolvent-error envelope constants across several matrix sizes
and report their stability.

For each N the permutation-model sweep runs the standard protocol, whose
one definition is regg.law.SweepPlan.standard, with xi = (log N)^2, and the
99th-percentile ratios of each error statistic to its envelope are
fitted.  Constants drifting by more than 2x across sizes would signal that
the envelope does not capture the true error scale.

Usage: python3 scripts/envelope_scaling.py [--sizes 500,1000,2000]
       [--d 40] [--seeds 5] [--out envelope-constants.csv]
       [--svg envelope-constants.svg]
"""

import argparse

from regg.law import SweepPlan, fit_envelope_constant, law_sweep, write_table
from regg.spectral import default_xi
from regg.svg import line_plot


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="500,1000,2000")
    ap.add_argument("--d", type=int, default=40)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--out", default="envelope-constants.csv")
    ap.add_argument("--svg", default=None)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for n in sizes:
        plan = SweepPlan.standard(n)
        xi = default_xi(n)
        records = []
        for seed in range(args.seeds):
            records.extend(law_sweep(plan, "permutation", n, args.d, seed))
        c = fit_envelope_constant(records)
        rows.append([n, args.d, args.seeds, xi, c["C_diag"], c["C_offdiag"],
                     c["C_s"], c["records_used"]])
        print(f"N={n:5d}: C_diag={c['C_diag']:.3f} "
              f"C_offdiag={c['C_offdiag']:.3f} C_s={c['C_s']:.3f}")

    write_table(args.out, "envelope-constants",
                ["N", "d", "seeds", "xi", "C_diag", "C_offdiag", "C_s",
                 "records_used"], rows)
    print(f"wrote {args.out}")

    for col, name in ((4, "C_diag"), (5, "C_offdiag")):
        vals = [row[col] for row in rows]
        ratio = max(vals) / min(vals)
        print(f"{name}: max/min across sizes = {ratio:.2f} "
              f"({'stable' if ratio <= 2 else 'DRIFTING'})")

    if args.svg:
        series = [(sizes, [row[4] for row in rows], "C_diag"),
                  (sizes, [row[5] for row in rows], "C_offdiag"),
                  (sizes, [row[6] for row in rows], "C_s")]
        line_plot(series, args.svg, title="envelope constants vs N",
                  xlabel="N", ylabel="99th-percentile ratio", xlog=True)
        print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
