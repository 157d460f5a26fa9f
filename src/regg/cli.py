"""Command-line entry point.

Subcommands: sample, invariance, lawsweep, eigen, stability, report.
Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 acceptance failure (report --strict).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import law as law_mod
from . import stability as stab_mod
from .errors import InvalidParametersError, ReggError
from .graphs import ModelKind, sample_model, to_edgelist, uniform_method
from .invariance import (mc_pivot_tv, mm_exact_invariance, pm_exact_uniformity,
                         um_exact_invariance)
from .manifest import ExperimentConfig, RunManifest
from .observables import (_kappa, counting_bounds, delocalization_stats,
                          density_mass)
from .rng import resolve_seed, stream
from .spectral import (EnvelopeParams, ResolventView, build_H, default_xi)
from .svg import line_plot

__all__ = ["main", "entrypoint", "rerun_manifest"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_ACCEPTANCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        return ExperimentConfig.from_file(args.config)
    return ExperimentConfig()


def _write_manifest(command: str, argv: list[str], params: dict,
                    outputs: list[str], results: dict, path: str) -> RunManifest:
    man = RunManifest(command=command, argv=list(argv), params=params,
                      results=results)
    for out in outputs:
        man.add_output(out)
    man.save(path)
    return man


# ---------------------------------------------------------------------------
# sample

def _cmd_sample(args, argv) -> int:
    seed = resolve_seed(args.seed)
    rng = stream(seed, 0)
    kwargs = {}
    if args.model == "uniform":
        kwargs["method"] = args.method
    g = sample_model(args.model, args.n, args.d, rng, **kwargs)
    text = to_edgelist(g, args.model, seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    method = (uniform_method(args.n, args.d, args.method)
              if args.model == "uniform" else None)
    params = {"model": args.model, "n": args.n, "d": args.d, "seed": seed,
              "method": method, "approximate": method == "switching-chain"}
    _write_manifest("sample", argv, params, [args.out], {},
                    args.out + ".manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariance

def _cmd_invariance(args, argv) -> int:
    seed = resolve_seed(args.seed)
    if args.mc:
        tv = mc_pivot_tv(args.model, args.n, args.d, seed, args.samples)
        payload = {"model": args.model, "n": args.n, "d": args.d,
                   "method": "mc", "tv_distance": tv, "samples": args.samples,
                   "seed": seed}
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
        results = {"pass": payload.get("exact_equal", True)}
        _write_manifest("invariance", argv, payload, [args.out], results,
                        args.out + ".manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# lawsweep

def _approximate(model: str, n: int, d: int) -> bool:
    """True when sample_model draws this model's graphs from the
    switching chain, which is only approximately uniform."""
    return model == "uniform" and uniform_method(n, d) == "switching-chain"


def _e_grid(e_min: float, e_max: float, e_step: float) -> tuple[float, ...]:
    if not e_step > 0:
        raise InvalidParametersError("--e-step must be positive")
    count = int(round((e_max - e_min) / e_step)) + 1
    return tuple(round(e_min + k * e_step, 12) for k in range(count))


def _cmd_lawsweep(args, argv) -> int:
    cfg = _load_config(args)
    seed = resolve_seed(args.seed)
    n = args.n
    xi = args.xi if args.xi is not None else default_xi(n)
    eta_grid = law_mod.SweepPlan.dyadic_etas(eta_min=args.eta_min,
                                             eta_max=args.eta_max)
    plan = law_mod.SweepPlan(
        e_grid=_e_grid(args.e_min, args.e_max, args.e_step),
        eta_grid=eta_grid, samples=args.samples, xi=xi,
        offdiag_pairs=cfg.get("spectral_core", "offdiag_pairs"))
    records = law_mod.law_sweep(plan, args.model, n, args.d, seed)
    law_mod.write_law_csv(records, args.out)

    accept = cfg.get("law_harness", "acceptance_constant")
    constants = law_mod.fit_envelope_constant(records, xi)
    results = {
        "constants": constants,
        "acceptance_constant": accept,
        "pass": constants["C_diag"] <= accept and constants["C_offdiag"] <= accept,
    }
    params = {"model": args.model, "n": n, "d": args.d, "seed": seed,
              "samples": plan.samples, "e_grid": list(plan.e_grid),
              "eta_grid": list(plan.eta_grid), "xi": xi,
              "offdiag_pairs": plan.offdiag_pairs,
              "approximate": _approximate(args.model, n, args.d)}
    outputs = [args.out]
    if args.svg:
        _sweep_svg(records, xi, args.svg)
        outputs.append(args.svg)
    _write_manifest("lawsweep", argv, params, outputs, results,
                    args.out + ".manifest.json")
    return EXIT_OK


def _sweep_svg(records, xi: float, path: str) -> None:
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
    if args.samples < 1:
        raise InvalidParametersError("--samples must be at least 1")
    if not args.bin_width > 0:
        raise InvalidParametersError("--bin-width must be positive")
    seed = resolve_seed(args.seed)
    n, d = args.n, args.d
    rows: list[list] = []
    results: dict = {}
    if args.mode == "deloc":
        columns = ["seed", "trial", "max_inf_norm", "normalized", "bound"]
        bound = 10 * math.log(n) ** 2
        worst = 0.0
        for trial in range(args.samples):
            g = sample_model(args.model, n, d, stream(seed, trial))
            view = ResolventView(build_H(g, args.model))
            stats = delocalization_stats(view)
            worst = max(worst, stats["normalized"])
            rows.append([seed, trial, stats["max_inf_norm"],
                         stats["normalized"], bound])
        results = {"worst_normalized": worst, "bound": bound,
                   "pass": worst <= bound}
    elif args.mode == "que":
        columns = ["seed", "trial", "alpha", "stat", "bound"]
        size = args.interval_size
        xi = default_xi(n)
        bound = 10 * math.log(n) ** 4 * math.sqrt(size) / n
        a = np.zeros(n)
        a[:size] = 1.0
        a -= size / n
        worst = 0.0
        for trial in range(args.samples):
            g = sample_model(args.model, n, d, stream(seed, trial))
            view = ResolventView(build_H(g, args.model))
            v2 = view.eigenvectors ** 2
            stats = a @ v2
            worst = max(worst, float(np.abs(stats).max()))
            rows.extend([seed, trial, alpha, float(stats[alpha]), bound]
                        for alpha in range(n))
        results = {"worst_stat": worst, "bound": bound, "xi": xi,
                   "interval_size": size, "pass": worst <= bound}
    elif args.mode == "intervals":
        if d < 2:
            raise InvalidParametersError("--mode intervals needs d >= 2")
        columns = ["seed", "trial", "a", "b", "nu", "rho", "kappa",
                   "bound_bulk", "bound_edge"]
        lo, hi, width = -2.2, 2.2, args.bin_width
        nbins = int(round((hi - lo) / width))
        edges = [lo + k * width for k in range(nbins + 1)]
        params = EnvelopeParams.for_model(n, d, args.model)
        tvs = []
        for trial in range(args.samples):
            g = sample_model(args.model, n, d, stream(seed, trial))
            # fixed-d histogram comparison uses the plain (d-1)^{-1/2} A scale;
            # eigvalsh holds the matrix and its working copy
            a = g.dense(np.float64, copies=2)
            a /= math.sqrt(d - 1)
            lam = np.linalg.eigvalsh(a)
            tv = 0.0
            for k in range(nbins):
                a_k, b_k = edges[k], edges[k + 1]
                nu = float(np.count_nonzero((lam >= a_k) & (lam < b_k))) / n
                rho = density_mass(a_k, b_k, d)
                kappa = _kappa(a_k, b_k)
                bulk, edge = counting_bounds(width, kappa, params)
                tv += abs(nu - rho)
                rows.append([seed, trial, a_k, b_k, nu, rho, kappa, bulk, edge])
            tvs.append(tv)
        results = {"tv_per_trial": tvs, "tv_mean": sum(tvs) / len(tvs)}
    else:
        raise ReggError(f"unknown eigen mode {args.mode!r}")

    law_mod.write_table(args.out, f"eigen-{args.mode}", columns, rows)
    params_out = {"mode": args.mode, "model": args.model, "n": n, "d": d,
                  "seed": seed, "samples": args.samples,
                  "approximate": _approximate(args.model, n, d)}
    if args.mode == "que":
        params_out["interval_size"] = args.interval_size
    if args.mode == "intervals":
        params_out["bin_width"] = args.bin_width
    _write_manifest("eigen", argv, params_out, [args.out], results,
                    args.out + ".manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability

def _cmd_stability(args, argv) -> int:
    cfg = _load_config(args)
    seed = resolve_seed(args.seed)
    checks = []
    names = ([args.check] if args.check != "all"
             else ["sweep", "ladder", "arcsinh", "moments"])
    for name in names:
        if name == "sweep":
            checks.append(stab_mod.stability_sweep(args.points, seed=seed))
        elif name == "ladder":
            checks.append(stab_mod.ladder_sweep(max(1, args.points // 50),
                                                seed=seed))
        elif name == "arcsinh":
            spec = stab_mod.MartingaleSpec(step_bound=1.0, variances=(1.0,) * 100)
            checks.append(stab_mod.simulate_martingale_tails(
                spec, runs=args.runs, seed=seed,
                xi_grid=(5.0, 10.0, 20.0, 30.0, 40.0, 50.0)))
        elif name == "moments":
            C = cfg.get("stability_concentration", "moment_constant")
            ens = stab_mod.ExchangeableEnsemble(
                coefficients=(0.5, -0.5, 0.25, -0.25, 0.0, 0.0),
                base_vector=(3.0, 1.0, -2.0, 0.5, 0.0, -1.0))
            for p in (2, 4, 6):
                checks.append(stab_mod.exchangeable_moment_bound_check(ens, p, C))
        else:
            raise ReggError(f"unknown stability check {name!r}")
    payload = {"seed": seed, "checks": checks,
               "pass": all(c.get("pass", True) for c in checks)}
    text = json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest("stability", argv,
                        {"seed": seed, "check": args.check,
                         "points": args.points, "runs": args.runs},
                        [args.out], {"pass": payload["pass"]},
                        args.out + ".manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report

def _cmd_report(args, argv) -> int:
    entries = []
    ok = True
    for name in sorted(os.listdir(args.dir)):
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
    output paths (old -> new)."""
    man = RunManifest.load(path)
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
        p.add_argument("--seed", type=int, default=None,
                       help="falls back to $REGG_SEED, then 0")
        p.add_argument("--config", default=None)

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
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("lawsweep", help="resolvent error sweep")
    add_common(p)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--e-min", type=float, default=-2.4)
    p.add_argument("--e-max", type=float, default=2.4)
    p.add_argument("--e-step", type=float, default=0.2)
    p.add_argument("--eta-max", type=float, default=1.0)
    p.add_argument("--eta-min", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lawsweep)

    p = sub.add_parser("eigen", help="eigenvalue/eigenvector statistics")
    add_common(p)
    p.add_argument("--mode", required=True, choices=["deloc", "que", "intervals"])
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--interval-size", type=int, default=200)
    p.add_argument("--bin-width", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("stability", help="deterministic inequality checks")
    add_common(p, model=False)
    p.add_argument("--check", default="all",
                   choices=["all", "sweep", "ladder", "arcsinh", "moments"])
    p.add_argument("--points", type=int, default=10000)
    p.add_argument("--runs", type=int, default=1000000)
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
        if args.command == "lawsweep" and args.eta_min is None:
            args.eta_min = 64.0 / args.n
        return args.func(args, argv)
    except ReggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entrypoint() -> None:
    sys.exit(main())
