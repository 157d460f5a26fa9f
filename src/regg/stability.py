"""Deterministic checks of the quadratic stability lemma: the roots of
s^2 + z s + 1 = R stay within 3 F_z(r) of the unperturbed branches, and a
root tracked down an eta-ladder stays within 10 F_z(r) of the upper one.

Every check is a closed-form evaluation; randomness only enters through
seeded sweeps over test points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParametersError
from .rng import stream
from .spectral import f_envelope, m_semicircle, solve_two_roots

__all__ = [
    "StabilityResult",
    "stability_check",
    "stability_sweep",
    "ladder_check",
    "ladder_sweep",
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
