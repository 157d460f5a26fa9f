"""Eigenvalue counting and eigenvector statistics.

Interval counts against the Kesten-McKay density of the degree-d tree with
both counting bounds, sup-norm delocalization statistics, the isotropic
resolvent error, and the eigenvector flatness (QUE) statistics, with the
bounds each is checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParametersError
from .spectral import ResolventView, default_xi, m_semicircle

__all__ = [
    "density_mass",
    "counting_bounds",
    "deloc_bound",
    "que_bound",
    "interval_counts",
    "delocalization_stats",
    "isotropic_error",
    "que_statistics",
    "random_unit_perp_e",
]


def density_mass(a: float, b: float, d: int) -> float:
    """Mass of the Kesten-McKay density of the d-regular tree on [a, b].

    Its CDF is elementary in theta = asin(x/2) on [-2, 2]:
    (theta + (d-2)/2 atan(sin(2 theta) / (d - 1 + cos(2 theta)))) / pi, which
    equals d/(2 pi) (theta - c atan(c tan theta)) with c = (d-2)/d but has no
    cancellation at large d.  At d = 2 it is the arcsine law theta / pi.
    """
    if b < a:
        raise InvalidParametersError("interval endpoints out of order")
    if d < 2:
        raise InvalidParametersError("Kesten-McKay density needs d >= 2")

    def cdf(x: float) -> float:
        t = math.asin(x / 2.0)
        # the denominator is >= 0, so atan2 is the atan, also where it is 0
        return (t + (d - 2) / 2 * math.atan2(math.sin(2 * t),
                                             d - 1 + math.cos(2 * t))) / math.pi

    lo, hi = max(a, -2.0), min(b, 2.0)
    if lo >= hi:
        return 0.0
    return cdf(hi) - cdf(lo)


def _kappa(a: float, b: float) -> float:
    """Distance of [a, b] to the spectral edges {-2, 2}; zero when the
    interval straddles an edge."""
    if a <= -2.0 <= b or a <= 2.0 <= b:
        return 0.0
    return min(abs(a + 2), abs(b + 2), abs(a - 2), abs(b - 2))


def counting_bounds(size: float, kappa: float, n: int,
                    D: float) -> tuple[float, float]:
    """(bulk, edge) counting bounds for an interval of length |I| = size at
    edge distance kappa, with xi = default_xi(n).

    bulk is the general small-scale expression
    xi |I| / sqrt(kappa + |I|) (1/sqrt D + 1/sqrt(N |I|)) + xi^2 / N;
    edge is the edge-improved variant
    sqrt(xi) |I| (D^{-1/4} + (N |I|)^{-1/4}) + xi^2 / N.
    Both reduce to xi^2 / N for an empty interval.
    """
    xi = default_xi(n)
    if size <= 0:
        return xi ** 2 / n, xi ** 2 / n
    bulk = (xi * size / math.sqrt(kappa + size)
            * (1 / math.sqrt(D) + 1 / math.sqrt(n * size))
            + xi ** 2 / n)
    edge = (math.sqrt(xi) * size * (D ** -0.25 + (n * size) ** -0.25)
            + xi ** 2 / n)
    return bulk, edge


def deloc_bound(n: int) -> float:
    """Bound 10 (log N)^2 on N max_alpha |v_alpha|_inf^2."""
    return 10 * math.log(n) ** 2


def que_bound(n: int, size: int) -> float:
    """Bound 10 (log N)^4 sqrt(|I|) / N on the QUE statistics of an
    interval I of |I| = size vertices."""
    return 10 * math.log(n) ** 4 * math.sqrt(size) / n


def interval_counts(lam: np.ndarray, edges) -> np.ndarray:
    """Half-open counts #{lambda in [e_k, e_{k+1})} for each bin of the
    ascending edges.  `lam` must be ascending, as eigvalsh_inplace returns
    it: the counts are differences of sorted insertion points."""
    return np.diff(np.searchsorted(lam, edges, side="left"))


def delocalization_stats(view: ResolventView) -> dict:
    """Sup-norm statistics of the l2-normalized eigenvectors."""
    v = view.eigenvectors
    max_inf = float(max(v.max(), -v.min()))  # no N x N |v| temporary
    return {
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
    av, bv = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for name, vec in (("a", av), ("b", bv)):
        if not abs(vec @ vec - 1.0) <= 1e-10:
            raise InvalidParametersError(f"{name} must be a unit vector")
        if not abs(vec @ np.full(vec.size, vec.size ** -0.5)) <= 1e-10:
            raise InvalidParametersError(f"{name} must be orthogonal to e")
    v = view.eigenvectors
    w = 1.0 / (view.eigenvalues - complex(z))
    gb = v @ (w * (v.T @ bv))
    return complex(av @ gb - m_semicircle(z) * (av @ bv))


def que_statistics(view: ResolventView, size: int) -> np.ndarray:
    """Flatness statistics sum_i a_i v_alpha(i)^2 for every eigenvector
    alpha, with a = 1_I - |I|/N for I the first `size` vertices, so that
    each is sum_{i in I} v_alpha(i)^2 - |I|/N.  Needs 1 <= size <= N - 1."""
    n = view.n
    a = np.zeros(n)
    a[:size] = 1.0
    a -= size / n
    return a @ view.eigenvectors ** 2
