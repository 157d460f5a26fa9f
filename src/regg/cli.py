"""Command-line entry point.

Subcommands: sample, invariance, lawsweep, eigen, stability, report.
Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 acceptance failure (report --strict).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import law as law_mod
from . import stability as stab_mod
from .errors import InvalidParametersError, ReggError
from .graphs import ModelKind, sample_model, to_edgelist, uniform_method
from .invariance import (check_move_degree, mc_pivot_tv, mm_exact_invariance,
                         pm_exact_uniformity, um_exact_invariance)
from .manifest import RunManifest
from .observables import (FOURTH_GATE, MAX_RATIO_GATE, QUE_GATE,
                          delocalization_stats, density_mass, interval_counts,
                          que_ratio, que_statistics)
from .rng import stream
from .spectral import default_xi, effective_D, pair_sample_size
from .svg import line_plot

__all__ = ["main", "entrypoint", "rerun_manifest", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_ACCEPTANCE = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1e9 and -2.5E-3 for options
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _write_manifest(command: str, argv: list[str], params: dict,
                    outputs: list[str], results: dict, path: str) -> RunManifest:
    man = RunManifest(command=command, argv=list(argv), params=params,
                      results=results)
    for out in outputs:
        man.add_output(out)
    man.save(path)
    return man


def _approximate(model: str, n: int, d: int) -> bool:
    """True when sample_model draws this model's graphs from the
    switching chain, which is only approximately uniform."""
    return model == "uniform" and uniform_method(n, d) == "switching-chain"


# ---------------------------------------------------------------------------
# sample

def _cmd_sample(args, argv) -> int:
    g = sample_model(args.model, args.n, args.d, stream(args.seed, 0),
                     args.method)
    text = to_edgelist(g, args.model, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    method = (uniform_method(args.n, args.d, args.method)
              if args.model == "uniform" else None)
    params = {"model": args.model, "n": args.n, "d": args.d, "seed": args.seed,
              "method": method, "approximate": method == "switching-chain"}
    _write_manifest("sample", argv, params, [args.out], {},
                    args.out + ".manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariance

def _cmd_invariance(args, argv) -> int:
    check_move_degree(args.model, args.d)
    if args.samples is not None and not args.mc:
        raise InvalidParametersError(
            "--samples applies to --mc only: the exact checks draw nothing")
    if args.mc:
        samples = 10000 if args.samples is None else args.samples
        tv = mc_pivot_tv(args.model, args.n, args.d, args.seed, samples)
        payload = {"model": args.model, "n": args.n, "d": args.d,
                   "method": "mc", "tv_distance": tv, "samples": samples,
                   "seed": args.seed,
                   "approximate": _approximate(args.model, args.n, args.d)}
    else:
        if args.model == "matching":
            report = mm_exact_invariance(args.n)
        elif args.model == "uniform":
            report = um_exact_invariance(args.n, args.d)
        elif args.model == "permutation":
            report = pm_exact_uniformity(args.n)
        else:
            raise ReggError(f"no exact invariance check for {args.model!r}")
        payload = report.summary()
        payload["counts"] = report.counts
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        # a Monte-Carlo TV distance has no gate, so it records no pass
        results = ({"tv_distance": payload["tv_distance"]} if args.mc
                   else {"pass": payload["exact_equal"]})
        _write_manifest("invariance", argv, payload, [args.out], results,
                        args.out + ".manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lawsweep

def _cmd_lawsweep(args, argv) -> int:
    n = args.n
    ModelKind(args.model).check_parity(n, args.d)  # n > 0 for the defaults
    xi = default_xi(n)
    bounds = {key: value for key in ("e_min", "e_max", "e_step", "eta_min",
                                     "eta_max")
              if (value := getattr(args, key)) is not None}
    plan = law_mod.SweepPlan.standard(n, args.samples, **bounds)
    if args.d < 2:
        raise InvalidParametersError("lawsweep needs d >= 2")
    D = effective_D(n, args.d, args.model)
    if D < 1:
        # fit_envelope_constant drops every record with D < 1
        raise InvalidParametersError(
            f"the {args.model} model's effective D = {D:.4g} < 1 at "
            f"n = {n}, d = {args.d}: no record would be usable")
    records = law_mod.law_sweep(plan, args.model, n, args.d, args.seed)
    law_mod.write_law_csv(records, args.out)

    accept = law_mod.ACCEPTANCE_CONSTANT
    constants = law_mod.fit_envelope_constant(records)
    results = {
        "constants": constants,
        "acceptance_constant": accept,
        "pass": constants["C_diag"] <= accept and constants["C_offdiag"] <= accept,
    }
    params = {"model": args.model, "n": n, "d": args.d, "seed": args.seed,
              "samples": plan.samples, "e_grid": list(plan.e_grid),
              "eta_grid": list(plan.eta_grid), "xi": xi,
              "offdiag_pairs": pair_sample_size(n),
              "approximate": _approximate(args.model, n, args.d)}
    outputs = [args.out]
    if args.svg:
        _sweep_svg(records, args.svg)
        outputs.append(args.svg)
    _write_manifest("lawsweep", argv, params, outputs, results,
                    args.out + ".manifest.json")
    return EXIT_OK


def _sweep_svg(records, path: str) -> None:
    """Error and envelope versus eta, worst case over E and trials."""
    etas = sorted({r.eta for r in records})
    err, env = [], []
    for eta in etas:
        rows = [r for r in records if r.eta == eta]
        err.append(max(r.max_diag_err for r in rows))
        env.append(max(r.f_xi_phi for r in rows))
    line_plot([(etas, err, "max diag err"), (etas, env, "envelope")],
              path, title="diagonal error vs envelope", xlabel="eta",
              ylabel="value", xlog=True, ylog=True)


# ---------------------------------------------------------------------------
# eigen

def _cmd_eigen(args, argv) -> int:
    if args.d < 2:
        raise InvalidParametersError(f"eigen needs --d >= 2, got {args.d}")
    if args.samples < 1:
        raise InvalidParametersError("--samples must be at least 1")
    for flag, mode in (("bin_width", "intervals"), ("interval_size", "que")):
        if getattr(args, flag) is not None and args.mode != mode:
            raise InvalidParametersError(
                f"--{flag.replace('_', '-')} applies to --mode {mode} only")
    n, d = args.n, args.d
    ModelKind(args.model).check_parity(n, d)  # n > 0 for the statistics
    if args.mode != "intervals" and n < 3:
        raise InvalidParametersError(f"--mode {args.mode} needs --n >= 3")
    keys = [(args.seed, trial) for trial in range(args.samples)]
    rows: list[list] = []
    if args.mode == "deloc":
        columns = ["seed", "trial", "max_inf_norm", "normalized", "fourth"]

        def stat(seed, trial, view):
            s = delocalization_stats(view)
            rows.append([seed, trial, s["max_inf_norm"], s["normalized"],
                         s["fourth"]])
            return s
        stats = law_mod.per_trial(args.model, n, d, keys, stat)
        results = {f"worst_{key}": max(s[key] for s in stats)
                   for key in ("normalized", "max_ratio", "fourth")}
        results |= {"max_ratio_gate": MAX_RATIO_GATE, "fourth_gate": FOURTH_GATE,
                    "pass": (results["worst_max_ratio"] <= MAX_RATIO_GATE
                             and results["worst_fourth"] <= FOURTH_GATE)}
    elif args.mode == "que":
        columns = ["seed", "trial", "alpha", "stat"]
        size = (min(200, n - 1) if args.interval_size is None
                else args.interval_size)
        if not 1 <= size <= n - 1:
            raise InvalidParametersError(
                f"--interval-size must lie in 1..{n - 1}, got {size}")

        def stat(seed, trial, view):
            stats = que_statistics(view, size)
            rows.extend([seed, trial, alpha, float(stats[alpha])]
                        for alpha in range(n))
            return float(np.abs(stats).max()), que_ratio(stats, size)
        worst, ratios = zip(*law_mod.per_trial(args.model, n, d, keys, stat))
        results = {"worst_stat": max(worst), "que_ratio_per_trial": list(ratios),
                   "que_gate": QUE_GATE, "interval_size": size,
                   "pass": max(ratios) <= QUE_GATE}
    else:  # intervals
        columns = ["seed", "trial", "a", "b", "nu", "rho"]
        lo, hi = -2.2, 2.2
        width = 0.1 if args.bin_width is None else args.bin_width
        if not width > 0:
            raise InvalidParametersError("--bin-width must be positive")
        span = (hi - lo) / width  # inf for a subnormal width
        if span >= law_mod.E_GRID_MAX + 0.5:
            raise InvalidParametersError(
                f"--bin-width {width} gives more than {law_mod.E_GRID_MAX} "
                f"bins on [{lo}, {hi}]")
        nbins = int(round(span))
        if nbins < 1:
            raise InvalidParametersError(
                f"--bin-width {width} gives no bin on [{lo}, {hi}]")
        edges = [lo + k * width for k in range(nbins + 1)]
        bins = [(a, b, density_mass(a, b, d))
                for a, b in zip(edges, edges[1:])]

        def stat(seed, trial, lam):
            tv = 0.0
            for count, (a, b, rho) in zip(
                    interval_counts(lam, edges).tolist(), bins):
                tv += abs(count / n - rho)
                rows.append([seed, trial, a, b, count / n, rho])
            return tv
        tvs = law_mod.per_trial(args.model, n, d, keys, stat, vectors=False)
        results = {"tv_per_trial": tvs, "tv_mean": sum(tvs) / len(tvs)}

    law_mod.write_table(args.out, f"eigen-{args.mode}", columns, rows)
    params_out = {"mode": args.mode, "model": args.model, "n": n, "d": d,
                  "seed": args.seed, "samples": args.samples,
                  "approximate": _approximate(args.model, n, d)}
    if args.mode == "que":
        params_out["interval_size"] = size
    if args.mode == "intervals":
        params_out["bin_width"] = width
    _write_manifest("eigen", argv, params_out, [args.out], results,
                    args.out + ".manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability

def _cmd_stability(args, argv) -> int:
    checks = []
    if args.check in ("all", "sweep"):
        checks.append(stab_mod.stability_sweep(args.points, seed=args.seed))
    if args.check in ("all", "ladder"):
        # one track per 50 points, at least one; a point count below 1
        # passes through for ladder_sweep to reject
        checks.append(stab_mod.ladder_sweep(
            min(args.points, max(1, args.points // 50)), seed=args.seed))
    payload = {"seed": args.seed, "checks": checks,
               "pass": all(c["pass"] for c in checks)}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest("stability", argv,
                        {"seed": args.seed, "check": args.check,
                         "points": args.points},
                        [args.out], {"pass": payload["pass"]},
                        args.out + ".manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report

def _cmd_report(args, argv) -> int:
    try:
        names = sorted(os.listdir(args.dir))
    except OSError as exc:
        raise InvalidParametersError(f"cannot list --dir: {exc}") from exc
    entries = []
    ok = True
    for name in names:
        if not name.endswith(".manifest.json"):
            continue
        man = RunManifest.load(os.path.join(args.dir, name))
        passed = man.results.get("pass")
        entries.append({"manifest": name, "command": man.command,
                        "pass": passed})
        if passed is False:
            ok = False
    payload = {"dir": args.dir, "runs": len(entries), "entries": entries,
               "pass": ok}
    print(json.dumps(payload, indent=2, sort_keys=True) + "\n", end="")
    if args.strict and not ok:
        return EXIT_ACCEPTANCE
    return EXIT_OK


# ---------------------------------------------------------------------------

def rerun_manifest(path: str, out_map: dict[str, str] | None = None) -> int:
    """Re-execute the argv recorded in a manifest, optionally redirecting
    output paths (old -> new).  An unreadable or malformed manifest exits
    with EXIT_PRECONDITION."""
    try:
        man = RunManifest.load(path)
    except ReggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    argv = list(man.argv)
    if out_map:
        argv = [out_map.get(a, a) for a in argv]
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True):
        if model:
            p.add_argument("--model", required=True,
                           choices=[k.value for k in ModelKind])
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--d", type=int, required=True)
        p.add_argument("--seed", type=int, default=0, help="defaults to 0")

    p = sub.add_parser("sample", help="sample one graph to an edge list")
    add_common(p)
    p.add_argument("--method", default="auto",
                   choices=["auto", "rejection", "switching-chain"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("invariance", help="resampling invariance report")
    add_common(p)
    p.add_argument("--mc", action="store_true",
                   help="Monte-Carlo TV report instead of exact counts")
    p.add_argument("--samples", type=int, default=None,
                   help="--mc only; defaults to 10000")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("lawsweep", help="resolvent error sweep")
    add_common(p)
    p.add_argument("--samples", type=int, default=1)
    # the bounds default to SweepPlan.standard's
    p.add_argument("--e-min", type=float)
    p.add_argument("--e-max", type=float)
    p.add_argument("--e-step", type=float)
    p.add_argument("--eta-max", type=float)
    p.add_argument("--eta-min", type=float)
    p.add_argument("--svg", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lawsweep)

    p = sub.add_parser("eigen", help="eigenvalue/eigenvector statistics")
    add_common(p)
    p.add_argument("--mode", required=True, choices=["deloc", "que", "intervals"])
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--interval-size", type=int, default=None,
                   help="que mode only; defaults to min(200, n - 1), which "
                        "for n <= 201 is every vertex but one, so que_ratio "
                        "there measures one vertex's spread")
    p.add_argument("--bin-width", type=float, default=None,
                   help="intervals mode only; defaults to 0.1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("stability", help="quadratic stability lemma checks")
    add_common(p, model=False)
    p.add_argument("--check", default="all",
                   choices=["all", "sweep", "ladder"])
    p.add_argument("--points", type=int, default=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("report", help="aggregate manifests into a summary")
    p.add_argument("--dir", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, argv)
    except ReggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
