"""Acceptance gate: each test covers one numbered criterion and prints a
single PASS/FAIL line with the measured quantity at its pinned tolerance.

Every sampled-graph criterion but 2 runs on law.per_trial. The expensive
N = 2000 statistics are computed once per module and shared between
criteria; only per-seed statistics are kept, never a decomposition.
"""

import math
import time

import numpy as np
import pytest

from regg.graphs import sample_model
from regg.invariance import (mm_exact_invariance, pm_exact_uniformity,
                             um_exact_invariance)
from regg.law import (ACCEPTANCE_CONSTANT, SweepPlan, fit_envelope_constant,
                      per_trial, records_for_view)
from regg.manifest import RunManifest
from regg.observables import (FOURTH_GATE, MAX_RATIO_GATE, QUE_GATE,
                              delocalization_stats, density_mass,
                              interval_counts, que_ratio, que_statistics)
from regg.rng import stream
from regg.spectral import ResolventView, build_H, default_xi, m_semicircle
from regg.stability import ladder_sweep, stability_sweep

from oracles import resolvent_solve


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {name}: {status} ({detail})", flush=True)
    assert passed, f"criterion {number} ({name}): {detail}"


SWEEP_SEEDS = (0, 1, 2, 3, 4)


def _sweep(n: int, d: int, seeds) -> dict:
    """Law records, fitted constants, and per-(E, eta) Gamma values for the
    permutation-model sweep on the standard plan."""
    plan = SweepPlan.standard(n)
    xi = default_xi(n)
    zs = np.array([complex(E, eta) for E in plan.e_grid
                   for eta in plan.eta_grid])

    def stat(seed, trial, view):
        records = records_for_view(view, "permutation", n, d, seed, trial,
                                   plan)
        diag, off = view.grid(zs)
        gam = np.maximum(1.0, np.maximum(np.abs(diag).max(axis=0),
                                         np.abs(off).max(axis=0)))
        # (seed, E, eta, gamma)
        return records, [(seed, z.real, z.imag, float(gv))
                         for z, gv in zip(zs, gam)]

    per_seed = per_trial("permutation", n, d, [(seed, 0) for seed in seeds],
                         stat)
    records = [r for recs, _ in per_seed for r in recs]
    gammas = [g for _, gams in per_seed for g in gams]
    constants = fit_envelope_constant(records)
    return {"plan": plan, "xi": xi, "records": records, "gammas": gammas,
            "constants": constants}


@pytest.fixture(scope="module")
def sweep_2000():
    return _sweep(2000, 40, SWEEP_SEEDS)


def eigvec_stats(seed, trial, view):
    """(delocalization_stats, que_ratio at |I| = 200) of one view."""
    return (delocalization_stats(view),
            que_ratio(que_statistics(view, 200), 200))


def deloc_check(stats, n: int) -> tuple[bool, str]:
    """Criterion 6's check on eigvec_stats of some seeds at size n: the
    largest entry on the Gaussian scale and the fourth moment against their
    gates."""
    worst = max(deloc["normalized"] for deloc, _ in stats)
    fourth = max(deloc["fourth"] for deloc, _ in stats)
    limit = MAX_RATIO_GATE * 4 * math.log(n)
    detail = (f"N max v^2 = {worst:.2f} <= {MAX_RATIO_GATE} (4 log N) = "
              f"{limit:.1f}, fourth moment / null = {fourth:.4f} <= "
              f"{FOURTH_GATE}, {len(stats)} seeds")
    return worst <= limit and fourth <= FOURTH_GATE, detail


def que_check(stats) -> tuple[bool, str]:
    """Criterion 11's check on eigvec_stats of some seeds: the RMS of the
    QUE statistics of all eigenvectors over its null value."""
    worst = max(ratio for _, ratio in stats)
    detail = (f"RMS_alpha (sum_I v^2 - |I|/N) / null = {worst:.3f} <= "
              f"{QUE_GATE}, all eigenvectors, {len(stats)} seeds")
    return worst <= QUE_GATE, detail


@pytest.fixture(scope="module")
def eigvec_stats_2000_d30():
    """eigvec_stats for seeds 0..4 of the permutation model at N = 2000,
    d = 30."""
    return per_trial("permutation", 2000, 30,
                     [(seed, 0) for seed in range(5)], eigvec_stats)


def test_criterion_1_exact_switching_invariance():
    start = time.monotonic()
    reports = [mm_exact_invariance(4), mm_exact_invariance(6),
               um_exact_invariance(6, 3), um_exact_invariance(8, 1),
               pm_exact_uniformity(4)]
    elapsed = time.monotonic() - start
    ok = all(r.exact_equal for r in reports) and elapsed < 120
    detail = (f"mm N=4/6, um N=6 d=3 and N=8 d=1, pm N=4 all exact; "
              f"{elapsed:.1f}s < 120s")
    report(1, "exact-switching-invariance", ok, detail)


def test_criterion_2_ward_and_resolvent_consistency(dense_resolvent):
    rng = stream(100, 0)
    worst_ward = 0.0
    worst_solve = 0.0
    pairs = 0
    for gi in range(10):
        model = ("permutation", "matching", "uniform")[gi % 3]
        n = 2 * int(rng.integers(20, 151))  # even n fits every model's parity
        d = 4 if model != "uniform" else 3
        g = sample_model(model, n, d, rng)
        h = build_H(g)
        view = ResolventView(h.copy())
        for _ in range(5):
            z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.05, 2.0))
            gm = dense_resolvent(view, z)
            ward = np.abs((np.abs(gm) ** 2).sum(axis=1)
                          - gm.diagonal().imag / z.imag)
            scale = np.abs(gm.diagonal().imag / z.imag).max()
            worst_ward = max(worst_ward, float(ward.max()) / scale)
            oracle = resolvent_solve(h, z)
            worst_solve = max(worst_solve,
                              float(np.abs(gm - oracle).max()))
            pairs += 1
    ok = worst_ward <= 1e-10 and worst_solve <= 1e-8 and pairs == 50
    detail = (f"{pairs} (graph,z) pairs: Ward rel err {worst_ward:.2e} <= 1e-10, "
              f"eigen-vs-solve {worst_solve:.2e} <= 1e-8")
    report(2, "ward-identity-and-resolvent", ok, detail)


def test_criterion_3_semicircle_transform():
    rng = stream(101, 0)
    es = rng.uniform(-5, 5, size=10000)
    etas = np.exp(rng.uniform(math.log(1e-6), math.log(10), size=10000))
    worst = 0.0
    ok_domain = True
    for e, eta in zip(es, etas):
        z = complex(e, eta)
        m = m_semicircle(z)
        worst = max(worst, abs(m * m + z * m + 1))
        ok_domain = ok_domain and m.imag > 0 and abs(m) <= 1 + 1e-12
    fixed = abs(m_semicircle(1j) - 0.6180339887j) <= 1e-9
    ok = worst <= 1e-12 and ok_domain and fixed
    detail = (f"10^4-point residual {worst:.2e} <= 1e-12, m(i) pinned to 1e-9, "
              f"|m|<=1 and Im m>0 everywhere: {ok_domain}")
    report(3, "semicircle-stieltjes-transform", ok, detail)


def test_criterion_4_gamma_dyadic_monotonicity(sweep_2000):
    by_key = {(s, E, eta): g for s, E, eta, g in sweep_2000["gammas"]}
    violations = 0
    checked = 0
    plan = sweep_2000["plan"]
    for (s, E, eta), g in by_key.items():
        half = eta / 2
        if (s, E, half) in by_key:
            checked += 1
            if by_key[(s, E, half)] > 2.0 * g + 1e-12:
                violations += 1
    ok = violations == 0 and checked == (
        len(SWEEP_SEEDS) * len(plan.e_grid) * (len(plan.eta_grid) - 1))
    detail = f"{checked} dyadic ladder steps, {violations} violations"
    report(4, "gamma-halving-monotonicity", ok, detail)


def test_criterion_5_local_law_envelope(sweep_2000):
    start = time.monotonic()
    c2000 = sweep_2000["constants"]
    scale = {500: _sweep(500, 40, SWEEP_SEEDS)["constants"],
             1000: _sweep(1000, 40, SWEEP_SEEDS)["constants"],
             2000: c2000}
    elapsed = time.monotonic() - start
    stable = True
    for key in ("C_diag", "C_offdiag"):
        vals = [scale[n][key] for n in (500, 1000, 2000)]
        stable = stable and max(vals) <= 2.0 * min(vals)
    accept = ACCEPTANCE_CONSTANT
    ok = (c2000["C_diag"] <= accept and c2000["C_offdiag"] <= accept
          and stable and elapsed < 1800)
    detail = (f"N=2000: C_diag={c2000['C_diag']:.3f} <= {accept:g}, "
              f"C_offdiag={c2000['C_offdiag']:.3f} <= {accept:g}; "
              f"2x-stable across N in (500,1000,2000): {stable}")
    report(5, "local-law-envelope", ok, detail)


def test_criterion_6_delocalization(eigvec_stats_2000_d30):
    report(6, "eigenvector-delocalization",
           *deloc_check(eigvec_stats_2000_d30, 2000))


def test_criterion_7_kesten_mckay_histogram():
    n, d = 5000, 3
    edges = [round(-2.2 + 0.1 * k, 12) for k in range(45)]
    rhos = [density_mass(a, b, d) for a, b in zip(edges, edges[1:])]

    def bin_tv(seed, trial, lam):
        tv = 0.0
        for count, rho in zip(interval_counts(lam, edges).tolist(), rhos):
            tv += abs(count / n - rho)
        return tv

    tvs = per_trial("matching", n, d, [(seed, 0) for seed in range(3)],
                    bin_tv, vectors=False)
    mean_tv = sum(tvs) / len(tvs)
    ok = mean_tv <= 0.03
    detail = (f"matching model d=3 N=5000, mean bin-TV {mean_tv:.4f} <= 0.03 "
              f"over 3 seeds")
    report(7, "kesten-mckay-density", ok, detail)


def test_criterion_8_quadratic_stability():
    start = time.monotonic()
    sweep = stability_sweep(npoints=10000, seed=0)
    ladder = ladder_sweep(ntracks=200, seed=1)
    elapsed = time.monotonic() - start
    ok = sweep["pass"] and ladder["pass"] and elapsed < 10
    detail = (f"10^4 points within 3F (worst ratio {sweep['worst_ratio']:.3f}), "
              f"ladder constant 10 (worst {ladder['worst_ratio']:.3f}); "
              f"{elapsed:.1f}s < 10s")
    report(8, "self-consistent-stability", ok, detail)


def test_criterion_11_que_flatness(eigvec_stats_2000_d30):
    report(11, "que-eigenvector-flatness",
           *que_check(eigvec_stats_2000_d30[:3]))


def test_criterion_12_manifest_rerun_reproducibility(tmp_path):
    from regg.cli import EXIT_OK, main, rerun_manifest

    out = tmp_path / "law.csv"
    argv = ["lawsweep", "--model", "permutation", "--n", "150", "--d", "10",
            "--seed", "13", "--samples", "2", "--e-min", "-1", "--e-max", "1",
            "--e-step", "0.5", "--eta-min", "0.4", "--out", str(out)]
    assert main(argv) == EXIT_OK
    redo = tmp_path / "law-rerun.csv"
    code = rerun_manifest(str(out) + ".manifest.json", {str(out): str(redo)})
    law_same = code == EXIT_OK and out.read_bytes() == redo.read_bytes()

    eig = tmp_path / "deloc.csv"
    argv = ["eigen", "--mode", "deloc", "--model", "matching", "--n", "150",
            "--d", "3", "--seed", "13", "--samples", "2", "--out", str(eig)]
    assert main(argv) == EXIT_OK
    eig2 = tmp_path / "deloc-rerun.csv"
    code = rerun_manifest(str(eig) + ".manifest.json", {str(eig): str(eig2)})
    eig_same = code == EXIT_OK and eig.read_bytes() == eig2.read_bytes()

    hashes_match = (
        RunManifest.load(str(out) + ".manifest.json").outputs[str(out)]
        == RunManifest.load(str(redo) + ".manifest.json").outputs[str(redo)])
    ok = law_same and eig_same and hashes_match
    detail = (f"lawsweep rerun byte-identical: {law_same}; "
              f"eigen rerun byte-identical: {eig_same}")
    report(12, "manifest-rerun-reproducibility", ok, detail)
