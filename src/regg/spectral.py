"""Centered matrix H, resolvent access, reference densities and envelopes.

H = (d-1)^{-1/2} (A - d e e*) with e the normalized all-ones vector, so the
Perron direction is an exact null vector.  The resolvent G(z) = (H - z)^{-1}
is served from one eigendecomposition per graph; per-z evaluations are
O(N^2) for the full diagonal and O(P N) for P off-diagonal entries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (InvalidParametersError, NumericalDegeneracyError,
                     OutOfRegimeWarning)
from .graphs import ModelKind, MultiGraph

__all__ = [
    "SpectralPoint",
    "HamiltonianMatrix",
    "ResolventView",
    "EnvelopeParams",
    "build_H",
    "resolvent_solve",
    "m_semicircle",
    "semicircle_density",
    "kesten_mckay_density",
    "effective_D",
    "default_xi",
    "phi_envelope",
    "f_envelope",
    "psi_envelope",
]


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter z = E + i eta in the upper half-plane."""

    E: float
    eta: float

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise InvalidParametersError(f"eta must be positive, got {self.eta}")

    @property
    def z(self) -> complex:
        return complex(self.E, self.eta)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Centered, rescaled adjacency matrix with its source metadata."""

    n: int
    deg: int
    entries: np.ndarray
    model: str = "unknown"

    def __post_init__(self) -> None:
        h = np.asarray(self.entries, dtype=np.float64)
        if h.shape != (self.n, self.n):
            raise InvalidParametersError("entry matrix shape mismatch")
        e = np.full(self.n, self.n ** -0.5)
        residual = np.abs(h @ e).max()
        if residual > 1e-12 * math.sqrt(self.n):
            raise InvalidParametersError(
                f"centering violated: |H e| = {residual:.3e}")
        h.flags.writeable = False
        object.__setattr__(self, "entries", h)


#: N x N float64 arrays alive at once on the eigh path: H, LAPACK's working
#: copy, its 2 N^2 workspace and the eigenvectors
EIGH_COPIES = 5


def build_H(g: MultiGraph, model: str | ModelKind = "unknown") -> HamiltonianMatrix:
    """H = (d-1)^{-1/2} (A - (d/n) J).  Requires d >= 2."""
    if g.deg < 2:
        raise InvalidParametersError("build_H needs degree >= 2")
    a = g.dense(np.float64, copies=EIGH_COPIES)
    a -= g.deg / g.n
    a /= math.sqrt(g.deg - 1)
    name = model if isinstance(model, str) else ModelKind(model).value
    return HamiltonianMatrix(g.n, g.deg, a, name)


class ResolventView:
    """Eigendecomposition-backed access to G(z), s(z) and Gamma(z).

    The decomposition is computed once; all per-z accessors are read-only
    and independent, so a single view can serve a whole z-grid.
    """

    #: below this size the off-diagonal maximum is exhaustive
    EXHAUSTIVE_N = 300

    def __init__(self, h: HamiltonianMatrix | np.ndarray,
                 offdiag_pairs: int = 10000, pair_seed: int = 0):
        entries = h.entries if isinstance(h, HamiltonianMatrix) else np.asarray(h, float)
        self.n = entries.shape[0]
        self.source = h if isinstance(h, HamiltonianMatrix) else None
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(entries)
        self.offdiag_pairs = offdiag_pairs
        self.pair_seed = pair_seed

    @cached_property
    def _pair_sample(self) -> tuple[np.ndarray, np.ndarray]:
        """Seeded off-diagonal index pairs used by grid(); exhaustive below
        EXHAUSTIVE_N."""
        n = self.n
        if n <= self.EXHAUSTIVE_N:
            i, j = np.triu_indices(n, k=1)
            return i, j
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=self.pair_seed, spawn_key=(0xF,))))
        i = rng.integers(0, n, size=self.offdiag_pairs)
        j = rng.integers(0, n, size=self.offdiag_pairs)
        keep = i != j
        return i[keep], j[keep]

    def _weights(self, z: complex) -> np.ndarray:
        return 1.0 / (self.eigenvalues - z)

    def grid(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G_ii(z) for every i and G_ij(z) over the seeded pair sample, for
        a whole grid of z at once: (diag (N x nz), off (P x nz))."""
        vec = self.eigenvectors
        weights = 1.0 / (self.eigenvalues[None, :] - zs[:, None])   # (nz, N)
        diag = (vec * vec) @ weights.T
        # drawn after the diagonal product: drawing the pair sample first
        # raised lawsweep's peak RSS by about 4 MB at N = 2000
        i, j = self._pair_sample
        return diag, (vec[i] * vec[j]) @ weights.T

    def diag(self, z: complex) -> np.ndarray:
        """All diagonal entries G_ii(z)."""
        return (self.eigenvectors ** 2) @ self._weights(z)

    def entries(self, z: complex, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """G_ij(z) for paired index arrays."""
        v = self.eigenvectors
        return (v[np.asarray(rows)] * v[np.asarray(cols)]) @ self._weights(z)

    def row(self, z: complex, i: int) -> np.ndarray:
        """Full row G_i.(z)."""
        v = self.eigenvectors
        return v @ (self._weights(z) * v[i])

    def full(self, z: complex) -> np.ndarray:
        """Dense G(z); O(N^3), for small instances and oracles."""
        v = self.eigenvectors
        return (v * self._weights(z)) @ v.T

    def stieltjes(self, z: complex) -> complex:
        """s(z) = N^{-1} sum_a (lambda_a - z)^{-1} = N^{-1} tr G(z)."""
        return complex(np.mean(self._weights(z)))

    def gamma(self, z: complex) -> float:
        """Gamma(z) = (max |G_ij|) clamped below by 1, the maximum taken
        over all diagonal entries and the seeded off-diagonal pair sample."""
        diag, off = self.grid(np.array([complex(z)]))
        dmax = float(np.abs(diag).max())
        omax = float(np.abs(off).max()) if off.size else 0.0
        return max(1.0, dmax, omax)

    def gamma_star(self, E: float, eta_min: float) -> float:
        """sup of Gamma(E + i eta) over the dyadic grid eta_min * 2^k up
        through the first point >= N."""
        if not eta_min > 0:
            raise InvalidParametersError("eta_min must be positive")
        best = 0.0
        eta = float(eta_min)
        while True:
            best = max(best, self.gamma(complex(E, eta)))
            if eta >= self.n:
                break
            eta *= 2
        return best


def resolvent_solve(h: np.ndarray, z: complex) -> np.ndarray:
    """Direct dense solve (H - z)^{-1}; the independent oracle for the
    eigendecomposition route.  Raises NumericalDegeneracyError for real z
    and for a singular solve."""
    z = complex(z)
    if z.imag == 0:
        raise NumericalDegeneracyError("resolvent needs Im z != 0")
    n = h.shape[0]
    try:
        return np.linalg.solve(np.asarray(h, float) - z * np.eye(n),
                               np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"singular solve at z={z}") from exc


# ---------------------------------------------------------------------------
# Reference transforms and densities

def m_semicircle(z: complex) -> complex:
    """Stieltjes transform of the semicircle law: the root of
    m^2 + z m + 1 = 0 with positive imaginary part.

    The square root of z^2 - 4 is the principal root with an explicit sign
    flip onto the upper half-plane, so platform branch-cut conventions never
    matter.
    """
    z = complex(z)
    if not z.imag > 0:
        raise InvalidParametersError("m is defined on the upper half-plane")
    s = np.sqrt(z * z - 4.0 + 0j)
    if s.imag < 0:
        s = -s
    return (-z + s) / 2


def semicircle_density(x) -> np.ndarray | float:
    """rho(x) = sqrt((4 - x^2)_+) / (2 pi)."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2 * math.pi)
    return out if out.shape else float(out)


def kesten_mckay_density(x, d: int) -> np.ndarray | float:
    """Spectral density of the infinite d-regular tree, rescaled to the
    support [-2, 2]: the semicircle divided by 1 + 1/(d-1) - x^2/d."""
    if d < 2:
        raise InvalidParametersError("Kesten-McKay density needs d >= 2")
    x = np.asarray(x, dtype=float)
    out = semicircle_density(x) / (1.0 + 1.0 / (d - 1) - x * x / d)
    out = np.asarray(out)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Envelopes

def effective_D(n: int, d: int, model: str | ModelKind) -> float:
    """Model-dependent effective parameter: d ∧ n²/d³ for the uniform
    model, d ∧ n²/d for the permutation/matching (and configuration)
    models."""
    kind = ModelKind(model)
    if kind is ModelKind.UNIFORM:
        return min(d, n * n / d ** 3)
    return min(d, n * n / d)


def default_xi(n: int) -> float:
    """Default logarithmic error parameter (log N)^2."""
    return math.log(n) ** 2


@dataclass(frozen=True)
class EnvelopeParams:
    """Inputs shared by the error envelopes."""

    n: int
    d: int
    D: float
    xi: float

    @classmethod
    def for_model(cls, n: int, d: int, model: str | ModelKind,
                  xi: float | None = None) -> "EnvelopeParams":
        return cls(n=n, d=d, D=effective_D(n, d, model),
                   xi=default_xi(n) if xi is None else xi)


def phi_envelope(point: SpectralPoint | complex, params: EnvelopeParams) -> float:
    """Phi(z) = 1/sqrt(N eta) + 1/sqrt(D).  Warns when D < 1 (outside the
    regime where the bounds carry content)."""
    eta = point.eta if isinstance(point, SpectralPoint) else complex(point).imag
    if not eta > 0:
        raise InvalidParametersError("phi_envelope needs eta > 0")
    if params.D < 1:
        warnings.warn(f"effective D = {params.D:.4g} < 1: out of regime",
                      OutOfRegimeWarning, stacklevel=2)
    return 1.0 / math.sqrt(params.n * eta) + 1.0 / math.sqrt(params.D)


def f_envelope(z: complex, r: float) -> float:
    """F_z(r) = min((1 + 1/sqrt(|z^2 - 4|)) r, sqrt(r)) on r in [0, 1];
    near the spectral edges the square-root branch takes over."""
    if not 0 <= r <= 1:
        raise InvalidParametersError(f"r must lie in [0, 1], got {r}")
    if r == 0:
        return 0.0
    gap = abs(complex(z) ** 2 - 4.0)
    if gap == 0:
        return math.sqrt(r)
    return min((1.0 + 1.0 / math.sqrt(gap)) * r, math.sqrt(r))


def psi_envelope(point: SpectralPoint | complex, params: EnvelopeParams,
                 m: complex | None = None) -> float:
    """Refined envelope xi sqrt(Im m / (N eta)) + xi / sqrt(D)
    + (xi^2 / (N eta))^{2/3}."""
    z = point.z if isinstance(point, SpectralPoint) else complex(point)
    if not z.imag > 0:
        raise InvalidParametersError("psi_envelope needs eta > 0")
    if m is None:
        m = m_semicircle(z)
    n_eta = params.n * z.imag
    return (params.xi * math.sqrt(max(m.imag, 0.0) / n_eta)
            + params.xi / math.sqrt(params.D)
            + (params.xi ** 2 / n_eta) ** (2.0 / 3.0))
