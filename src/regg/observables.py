"""Eigenvalue counting and eigenvector statistics.

Interval counts against the Kesten-McKay density of the degree-d tree, the
isotropic resolvent error, and eigenvector statistics scaled by their
values for N - 1 columns uniform on the unit sphere of e-perp plus the
Perron column e/sqrt(N), the null model of Gaussian eigenvectors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParametersError
from .spectral import ResolventView, m_semicircle

__all__ = [
    "MAX_RATIO_GATE",
    "FOURTH_GATE",
    "QUE_GATE",
    "density_mass",
    "interval_counts",
    "delocalization_stats",
    "isotropic_error",
    "que_statistics",
    "que_ratio",
    "random_unit_perp_e",
]

#: gates on max_ratio, fourth and que_ratio, set on seeds 10..59, which no
#: acceptance criterion runs on: at N = 150..2000 and d >= 3 graphs of three
#: models read at most 2.24, 1.05 and 1.57 there (one disconnected graph
#: aside), two disjoint half-size graphs at least 1.32, 2.40 and 3.55
MAX_RATIO_GATE = 2.5
FOURTH_GATE = 1.2
QUE_GATE = 2.0


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


def interval_counts(lam: np.ndarray, edges) -> np.ndarray:
    """Half-open counts #{lambda in [e_k, e_{k+1})} for each bin of the
    ascending edges.  `lam` must be ascending, as eigvalsh_inplace returns
    it: the counts are differences of sorted insertion points."""
    return np.diff(np.searchsorted(lam, edges, side="left"))


def delocalization_stats(view: ResolventView) -> dict:
    """Statistics of the l2-normalized eigenvectors: normalized =
    N max v^2; max_ratio = normalized / (4 log N), 4 log N the size of the
    largest of N^2 squared standard Gaussians; and fourth, the mean of
    (N v^2 - 1)^2 over all entries, sum v^4 - 1, over its null mean
    2 (N-1)(N-2) / (N (N+1)).  Needs N >= 3."""
    n, v = view.n, view.eigenvectors
    max_inf = float(max(v.max(), -v.min()))  # bit-equal to max |v|
    sq = v * v
    return {
        "max_inf_norm": max_inf,
        "normalized": n * max_inf ** 2,
        "max_ratio": n * max_inf ** 2 / (4 * math.log(n)),
        "fourth": ((float(np.vdot(sq, sq)) - 1)
                   / (2 * (n - 1) * (n - 2) / (n * (n + 1)))),
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


def que_ratio(stats: np.ndarray, size: int) -> float:
    """Root mean square of the N que_statistics(view, size) over its null
    value sqrt((N-1)/N) sigma_I: sigma_I^2 = 2 (1 - 2/N) |I| (1 - |I|/N) /
    ((N-1)(N+1)) for a uniform unit vector in e-perp, where
    tr(P diag(a) P) = 0, and 0 for e/sqrt(N).  Needs N >= 3."""
    n = stats.size
    null = 2 * (1 - 2 / n) * size * (1 - size / n) / (n * (n + 1))
    return math.sqrt(float(stats @ stats) / n / null)
