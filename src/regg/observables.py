"""Eigenvalue counting and eigenvector statistics.

Interval counts against the semicircle / degree-d tree densities with both
error envelopes, sup-norm delocalization statistics, the isotropic resolvent
error, and the eigenvector flatness (QUE) statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import InvalidParametersError
from .spectral import (EnvelopeParams, ResolventView, f_envelope,
                       kesten_mckay_density, m_semicircle, phi_envelope,
                       semicircle_density)

__all__ = [
    "IntervalCount",
    "TestVector",
    "density_mass",
    "counting_bounds",
    "interval_count",
    "delocalization_stats",
    "isotropic_error",
    "isotropic_envelope",
    "que_statistic",
    "random_unit_perp_e",
    "default_zeta",
]


@dataclass(frozen=True)
class IntervalCount:
    """Empirical vs reference mass of one spectral interval with the two
    bound expressions evaluated at the same parameters."""

    a: float
    b: float
    nu: float
    rho: float
    kappa: float
    bound_bulk: float
    bound_edge: float

    @property
    def error(self) -> float:
        return abs(self.nu - self.rho)


@dataclass(frozen=True)
class TestVector:
    """Coefficient vector with its constraint flags."""

    __test__ = False  # keep pytest from collecting this as a test class

    values: np.ndarray
    sums_to_zero: bool
    unit_norm: bool
    perp_e: bool

    @classmethod
    def of(cls, values) -> "TestVector":
        v = np.asarray(values, dtype=float)
        n = v.shape[0]
        e = np.full(n, n ** -0.5)
        return cls(
            values=v,
            sums_to_zero=bool(abs(v.sum()) <= 1e-12),
            unit_norm=bool(abs(v @ v - 1.0) <= 1e-10),
            perp_e=bool(abs(v @ e) <= 1e-10),
        )


def default_zeta(xi: float) -> float:
    """Default secondary logarithmic parameter log(xi)."""
    if xi <= 1:
        raise InvalidParametersError("zeta default needs xi > 1")
    return math.log(xi)


def density_mass(a: float, b: float, d: int | None = None,
                 tol: float = 1e-10) -> float:
    """Integral of the reference density over [a, b] by adaptive quadrature
    after the substitution x = 2 sin(theta), which removes the square-root
    endpoint singularity.  d = None selects the semicircle."""
    if b < a:
        raise InvalidParametersError("interval endpoints out of order")
    lo, hi = max(a, -2.0), min(b, 2.0)
    if lo >= hi:
        return 0.0
    t0, t1 = math.asin(lo / 2.0), math.asin(hi / 2.0)
    if d is None:
        integrand = lambda t: semicircle_density(2 * math.sin(t)) * 2 * math.cos(t)
    else:
        integrand = lambda t: kesten_mckay_density(2 * math.sin(t), d) * 2 * math.cos(t)
    val, _ = quad(integrand, t0, t1, epsabs=tol, limit=200)
    return float(val)


def _kappa(a: float, b: float) -> float:
    """Distance of [a, b] to the spectral edges {-2, 2}; zero when the
    interval straddles an edge."""
    if a <= -2.0 <= b or a <= 2.0 <= b:
        return 0.0
    return min(abs(a + 2), abs(b + 2), abs(a - 2), abs(b - 2))


def counting_bounds(size: float, kappa: float,
                    params: EnvelopeParams) -> tuple[float, float]:
    """(bulk, edge) counting bounds for an interval of length |I| = size at
    edge distance kappa.

    bulk is the general small-scale expression
    xi |I| / sqrt(kappa + |I|) (1/sqrt D + 1/sqrt(N |I|)) + xi^2 / N;
    edge is the edge-improved variant
    sqrt(xi) |I| (D^{-1/4} + (N |I|)^{-1/4}) + xi^2 / N.
    Both reduce to xi^2 / N for an empty interval.
    """
    n, D, xi = params.n, params.D, params.xi
    if size <= 0:
        return xi ** 2 / n, xi ** 2 / n
    bulk = (xi * size / math.sqrt(kappa + size)
            * (1 / math.sqrt(D) + 1 / math.sqrt(n * size))
            + xi ** 2 / n)
    edge = (math.sqrt(xi) * size * (D ** -0.25 + (n * size) ** -0.25)
            + xi ** 2 / n)
    return bulk, edge


def interval_count(view: ResolventView, a: float, b: float,
                   params: EnvelopeParams, d_reference: int | None = None,
                   K: float = 3.0) -> IntervalCount:
    """Count eigenvalues in the closed interval [a, b] against the reference
    density and evaluate both counting bounds (see counting_bounds)."""
    if not (-K <= a <= b <= K):
        raise InvalidParametersError(f"interval must sit inside [-{K}, {K}]")
    lam = view.eigenvalues
    nu = float(np.count_nonzero((lam >= a) & (lam <= b))) / view.n
    rho = density_mass(a, b, d_reference)
    kappa = _kappa(a, b)
    bulk, edge = counting_bounds(b - a, kappa, params)
    return IntervalCount(a=a, b=b, nu=nu, rho=rho, kappa=kappa,
                         bound_bulk=bulk, bound_edge=edge)


def delocalization_stats(view: ResolventView) -> dict:
    """Sup-norm statistics of the l2-normalized eigenvectors."""
    v = view.eigenvectors
    per_vec = np.abs(v).max(axis=0)
    max_inf = float(per_vec.max())
    return {
        "per_eigenvector_sup": per_vec,
        "max_inf_norm": max_inf,
        "normalized": view.n * max_inf ** 2,
    }


def random_unit_perp_e(n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard normal vector with its constant component removed, then
    normalized: a rotation-invariant unit test direction orthogonal to e."""
    v = rng.standard_normal(n)
    v -= v.mean()
    return v / np.linalg.norm(v)


def isotropic_error(view: ResolventView, z: complex, a, b) -> complex:
    """<a, G(z) b> - m(z) <a, b> for unit vectors orthogonal to the constant
    direction (on which G acts trivially as -1/z)."""
    av, bv = TestVector.of(a), TestVector.of(b)
    for name, tv in (("a", av), ("b", bv)):
        if not tv.unit_norm:
            raise InvalidParametersError(f"{name} must be a unit vector")
        if not tv.perp_e:
            raise InvalidParametersError(f"{name} must be orthogonal to e")
    v = view.eigenvectors
    w = 1.0 / (view.eigenvalues - complex(z))
    gb = v @ (w * (v.T @ bv.values))
    return complex(av.values @ gb - m_semicircle(z) * (av.values @ bv.values))


def isotropic_envelope(z: complex, params: EnvelopeParams, zeta: float) -> float:
    """F_z(xi Phi) + xi zeta^4 Phi, the reference scale for the isotropic
    error."""
    phi = phi_envelope(z, params)
    return f_envelope(z, min(1.0, params.xi * phi)) + params.xi * zeta ** 4 * phi


def que_statistic(view: ResolventView, a, alpha: int,
                  project: bool = False) -> float:
    """Flatness statistic sum_i a_i v_i^2 for eigenvector alpha.

    Coefficients must sum to zero (to 1e-12); with project=True the constant
    component is removed first instead, which makes the statistic invariant
    under adding a constant to a.
    """
    av = np.asarray(a, dtype=float)
    if project:
        av = av - av.mean()
    elif abs(av.sum()) > 1e-12:
        raise InvalidParametersError("coefficients must sum to zero "
                                     "(or pass project=True)")
    v = view.eigenvectors[:, alpha]
    return float(av @ (v * v))
