"""Deterministic checks: quadratic stability, the arcsinh martingale tail
bound, and exchangeable moment inequalities.

Everything here is either a closed-form evaluation or an exact enumeration;
randomness only enters through seeded sweeps over test points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import BudgetExceededError, InvalidParametersError
from .graphs import check_ram
from .rng import stream
from .spectral import f_envelope, m_semicircle, solve_two_roots

__all__ = [
    "StabilityResult",
    "ExchangeableEnsemble",
    "stability_check",
    "stability_sweep",
    "ladder_check",
    "ladder_sweep",
    "arcsinh_tail_bound",
    "simulate_martingale_tails",
    "exchangeable_moment_exact",
    "exchangeable_moment_bound_check",
]


@dataclass(frozen=True)
class StabilityResult:
    lhs: float
    rhs: float
    passed: bool


def stability_check(z: complex, R: complex, r: float) -> StabilityResult:
    """For each root s of s^2 + z s + 1 = R, the distance to the nearer of
    the two unperturbed branches is at most 3 F_z(r)."""
    if not 0 <= r <= 1:
        raise InvalidParametersError(f"r must lie in [0, 1], got {r}")
    if abs(R) > (1 + abs(complex(z))) * r + 1e-12:
        raise InvalidParametersError("|R| exceeds (1 + |z|) r")
    m, mh = solve_two_roots(z, 0.0)
    rhs = 3.0 * f_envelope(z, r)
    lhs = 0.0
    for s in solve_two_roots(z, R):
        lhs = max(lhs, min(abs(s - m), abs(s - mh)))
    return StabilityResult(lhs=lhs, rhs=rhs, passed=lhs <= rhs + 1e-12)


def stability_sweep(npoints: int = 10000, seed: int = 0) -> dict:
    """Randomized deterministic sweep of stability_check over |E| <= 5,
    eta in [1e-4, 3], r in [0, 1], with |R| uniform below its cap and a
    uniform phase."""
    if npoints < 1:
        raise InvalidParametersError(
            f"the sweep needs at least 1 point, got {npoints}")
    rng = stream(seed, 0)
    worst = 0.0
    failures = 0
    for _ in range(npoints):
        z = complex(rng.uniform(-5, 5), rng.uniform(1e-4, 3))
        r = float(rng.uniform(0, 1))
        mag = (1 + abs(z)) * r * float(rng.uniform(0, 1))
        phase = float(rng.uniform(0, 2 * math.pi))
        R = mag * complex(math.cos(phase), math.sin(phase))
        res = stability_check(z, R, r)
        if not res.passed:
            failures += 1
        if res.rhs > 0:
            worst = max(worst, res.lhs / res.rhs)
    return {"check": "stability_sweep", "points": npoints, "failures": failures,
            "worst_ratio": worst, "pass": failures == 0, "seed": seed}


def ladder_check(E: float, r: float, phase: float) -> dict:
    """Track the perturbed root continuously down an eta-ladder.

    Starting at eta = 3 with the root nearest the upper branch, descend a
    dyadic ladder down to eta = 1e-4, picking at each rung the root nearest
    the previous one; the tracked root must stay within 10 F_z(r) of the
    upper branch at every rung.
    """
    if not 0 <= r <= 1:
        raise InvalidParametersError(f"r must lie in [0, 1], got {r}")
    eta = 3.0
    s_prev = None
    worst = 0.0
    ok = True
    while eta >= 1e-4:
        z = complex(E, eta)
        R = (1 + abs(z)) * r * complex(math.cos(phase), math.sin(phase))
        roots = solve_two_roots(z, R)
        if s_prev is None:
            m = m_semicircle(z)
            s = min(roots, key=lambda c: abs(c - m))
        else:
            s = min(roots, key=lambda c: abs(c - s_prev))
        s_prev = s
        err = abs(s - m_semicircle(z))
        bound = 10.0 * f_envelope(z, r)
        if bound > 0:
            worst = max(worst, err / bound)
        if err > bound + 1e-12:
            ok = False
        eta /= 2
    return {"check": "ladder", "E": E, "r": r, "phase": phase,
            "worst_ratio": worst, "pass": ok}


def ladder_sweep(ntracks: int = 200, seed: int = 1) -> dict:
    """Randomized collection of ladder checks."""
    if ntracks < 1:
        raise InvalidParametersError(
            f"the ladder sweep needs at least 1 track, got {ntracks}")
    rng = stream(seed, 1)
    worst = 0.0
    failures = 0
    for _ in range(ntracks):
        rep = ladder_check(E=float(rng.uniform(-5, 5)),
                           r=float(rng.uniform(0, 1)),
                           phase=float(rng.uniform(0, 2 * math.pi)))
        worst = max(worst, rep["worst_ratio"])
        if not rep["pass"]:
            failures += 1
    return {"check": "ladder_sweep", "tracks": ntracks, "failures": failures,
            "worst_ratio": worst, "pass": failures == 0, "seed": seed}


# ---------------------------------------------------------------------------
# Martingale tail bound

#: the walk simulate_martingale_tails draws: MARTINGALE_STEPS steps of
#: +-MARTINGALE_STEP, so that each conditional variance is MARTINGALE_STEP^2
MARTINGALE_STEPS = 100
MARTINGALE_STEP = 1.0

#: the tail thresholds xi simulate_martingale_tails checks
TAIL_XI = (5.0, 10.0, 20.0, 30.0, 40.0, 50.0)


def arcsinh_tail_bound(xi: float, M: float, S: float) -> float:
    """Tail bound 4 exp(-xi / (2 sqrt2 M) * arcsinh(M xi / (2 sqrt2 S)));
    sharper than the Gaussian-type bound when S << M xi."""
    if M <= 0 or S <= 0 or xi < 0:
        raise InvalidParametersError("need M > 0, S > 0, xi >= 0")
    c = 2.0 * math.sqrt(2.0)
    return 4.0 * math.exp(-(xi / (c * M)) * math.asinh(M * xi / (c * S)))


def simulate_martingale_tails(runs: int, seed: int) -> dict:
    """Empirical tails P(|X| >= xi), xi in TAIL_XI, of `runs` walks of
    MARTINGALE_STEPS steps of +-MARTINGALE_STEP (a martingale with
    |increment| <= M = MARTINGALE_STEP and total conditional variance
    S = MARTINGALE_STEPS M^2) against arcsinh_tail_bound(xi, M, S)."""
    if runs < 1:
        raise InvalidParametersError(f"the tails need at least 1 run, got {runs}")
    check_ram(runs * MARTINGALE_STEPS,
              f"{runs} runs of {MARTINGALE_STEPS} int8 steps")
    rng = stream(seed, 2)
    steps = rng.integers(0, 2, size=(runs, MARTINGALE_STEPS), dtype=np.int8)
    walk = np.abs((2 * steps.sum(axis=1, dtype=np.int64) - MARTINGALE_STEPS)
                  * MARTINGALE_STEP)
    total_variance = MARTINGALE_STEPS * MARTINGALE_STEP ** 2
    rows = []
    ok = True
    for xi in TAIL_XI:
        emp = float(np.mean(walk >= xi))
        bound = arcsinh_tail_bound(xi, MARTINGALE_STEP, total_variance)
        rows.append({"xi": xi, "empirical": emp, "bound": bound,
                     "pass": emp <= bound})
        ok = ok and emp <= bound
    return {"check": "arcsinh_tails", "runs": runs, "seed": seed,
            "rows": rows, "pass": ok}


# ---------------------------------------------------------------------------
# Exchangeable moments

@dataclass(frozen=True)
class ExchangeableEnsemble:
    """Coefficients a (mean zero, squared sum at most 1) against a base
    vector or matrix whose exchangeability is realized by uniform
    relabeling."""

    coefficients: tuple
    base_vector: tuple | None = None
    base_matrix: tuple | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.coefficients, dtype=float)
        if abs(a.sum()) > 1e-12:
            raise InvalidParametersError("coefficients must sum to zero")
        if a @ a > 1 + 1e-12:
            raise InvalidParametersError("squared coefficient sum must be <= 1")
        if (self.base_vector is None) == (self.base_matrix is None):
            raise InvalidParametersError(
                "exactly one of base_vector / base_matrix required")
        n = len(self.coefficients)
        if self.base_vector is not None and len(self.base_vector) != n:
            raise InvalidParametersError("base vector length mismatch")
        if self.base_matrix is not None and (
                len(self.base_matrix) != n
                or any(len(row) != n for row in self.base_matrix)):
            raise InvalidParametersError("base matrix shape mismatch")

    @property
    def n(self) -> int:
        return len(self.coefficients)


def _check_budget(n: int, p: int) -> None:
    if n > 8 or p > 6:
        raise BudgetExceededError(f"enumeration limited to n <= 8, p <= 6 "
                                  f"(got n={n}, p={p})")
    if p < 1:
        raise InvalidParametersError("p must be >= 1")


def _all_rational(values) -> bool:
    return all(isinstance(v, Rational) for v in values)


def exchangeable_moment_exact(ens: ExchangeableEnsemble, p: int):
    """Exact p-th moment of sum_i a_i Y_i (or of the bilinear form for a
    base matrix) averaged over all n! relabelings.  Returns a Fraction when
    every input is rational, else a compensated-sum float."""
    _check_budget(ens.n, p)
    n = ens.n
    a = list(ens.coefficients)
    if ens.base_vector is not None:
        y = list(ens.base_vector)
        exact = _all_rational(a) and _all_rational(y)

        def form(perm):
            return sum(ai * y[pi] for ai, pi in zip(a, perm))
    else:
        ymat = [list(row) for row in ens.base_matrix]
        exact = _all_rational(a) and all(_all_rational(row) for row in ymat)

        def form(perm):
            return sum(a[i] * a[j] * ymat[perm[i]][perm[j]]
                       for i in range(n) for j in range(n))
    terms = [form(perm) ** p for perm in itertools.permutations(range(n))]
    if exact:
        return Fraction(sum(terms), math.factorial(n))
    return math.fsum(terms) / math.factorial(n)


#: the constant C of both exchangeable moment inequalities
MOMENT_CONSTANT = 16.0


def _p_factor(p: int) -> float:
    return p * p / math.log(p)


def exchangeable_moment_bound_check(ens: ExchangeableEnsemble, p: int) -> dict:
    """The moment inequality for the ensemble's base, C = MOMENT_CONSTANT.
    Vector: the L^p norm of sum a_i Y_i is at most C (p^2/log p) times the
    L^p norm of a single entry.  Matrix: the bilinear form's L^p norm is at
    most the diagonal entry norm plus C (p^2/log p)^2 times the
    off-diagonal entry norm."""
    if p < 2 or p % 2:
        raise InvalidParametersError("bound check needs even p >= 2")
    moment = exchangeable_moment_exact(ens, p)
    lhs = float(moment) ** (1.0 / p)
    if ens.base_vector is not None:
        y = np.asarray(ens.base_vector, dtype=float)
        norm_y1 = float(np.mean(np.abs(y) ** p)) ** (1.0 / p)
        check = "exchangeable_vector_bound"
        rhs = MOMENT_CONSTANT * _p_factor(p) * norm_y1
    else:
        ymat = np.asarray(ens.base_matrix, dtype=float)
        diag = np.abs(np.diag(ymat)) ** p
        off = np.abs(ymat[~np.eye(ens.n, dtype=bool)]) ** p
        norm_diag = float(diag.mean()) ** (1.0 / p)
        norm_off = float(off.mean()) ** (1.0 / p) if off.size else 0.0
        check = "exchangeable_matrix_bound"
        rhs = norm_diag + MOMENT_CONSTANT * _p_factor(p) ** 2 * norm_off
    return {"check": check, "p": p,
            "C": MOMENT_CONSTANT, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs else math.inf,
            "pass": lhs <= rhs + 1e-12}
