"""Centered matrix H, the resolvent z-grid, reference densities and envelopes.

H = (d-1)^{-1/2} (A - d e e*) with e the normalized all-ones vector, so the
Perron direction is an exact null vector.  The resolvent G(z) = (H - z)^{-1}
is served from one eigendecomposition per graph; per-z evaluations are
O(N^2) for the full diagonal and O(P N) for P off-diagonal entries.

LAPACK and BLAS are called through one ctypes binding: dsyevd,
dsyevd_2stage and dgemm are resolved, once per process, in the LAPACK
extension that scipy ships (linalg/_flapack, whose handle also reaches the
OpenBLAS it links against).  The extension is located on disk and opened as
a plain shared library, so no command imports scipy.linalg.  Every array
argument has an ndpointer type: a strided, read-only or wrongly typed
array raises ctypes.ArgumentError before LAPACK sees it.

Both decompositions overwrite the one dense matrix they are given:
eigvalsh_inplace calls dsyevd_2stage, which reads and writes only the
matrix's upper triangle (MultiGraph.upper_triangle builds just that half)
with O(N kd) workspace for a band of kd columns, and ResolventView leaves
dsyevd's eigenvectors in H's memory with 2 N^2 of workspace.  H, the
C-ordered copy of the eigenvectors and their squares are mapped_matrix
arrays, whose pages go back to the kernel when they are freed.  grid works
in real arithmetic on dgemm and in blocks of PAIR_BLOCK pairs: beyond the
eigenvectors, its outputs and its weights it holds at most
N^2 + 2 PAIR_BLOCK N reals, within the EIGH_COPIES N^2 of the
decomposition.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import math
import os
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (InvalidParametersError, NumericalDegeneracyError,
                     OutOfRegimeWarning, ReggError)
from .graphs import ModelKind, MultiGraph, mapped_matrix

__all__ = [
    "ResolventView",
    "EnvelopeParams",
    "build_H",
    "eigvalsh_inplace",
    "dsyevd",
    "dsyevd_2stage",
    "dgemm",
    "grid_bytes",
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


#: N x N float64 arrays alive at once on the eigh path: H, which LAPACK
#: overwrites with the eigenvectors, and its 2 N^2 workspace
EIGH_COPIES = 3

#: off-diagonal pairs ResolventView.grid samples above EXHAUSTIVE_N
OFFDIAG_PAIRS = 10000

#: off-diagonal pairs per block in ResolventView.grid; a block holds
#: 2 PAIR_BLOCK x N reals
PAIR_BLOCK = 1024


def build_H(g: MultiGraph) -> np.ndarray:
    """H = (d-1)^{-1/2} (A - (d/n) J) as a writable, C-contiguous float64
    mapped_matrix, ready to be consumed by ResolventView.  Requires d >= 2;
    raises InvalidParametersError before mapping when the EIGH_COPIES
    N x N arrays of the decomposition would not fit in physical RAM."""
    if g.deg < 2:
        raise InvalidParametersError("build_H needs degree >= 2")
    h = mapped_matrix(g.n, copies=EIGH_COPIES)
    i, j, mult = g.edge_arrays()
    h[i, j] = h[j, i] = np.where(i == j, 2 * mult, mult)
    h -= g.deg / g.n
    h /= math.sqrt(g.deg - 1)
    _check_centred(h)
    return h


def _check_centred(h: np.ndarray) -> None:
    """Raise unless |H e| <= 1e-12 sqrt(N), e the normalized all-ones vector;
    H e is the row sums over sqrt(N), which need no BLAS work."""
    n = h.shape[0]
    residual = np.abs(h.sum(axis=1)).max() / math.sqrt(n)
    if residual > 1e-12 * math.sqrt(n):
        raise InvalidParametersError(
            f"centering violated: |H e| = {residual:.3e}")


def _check_inplace(a: np.ndarray, who: str) -> None:
    """The input rule of both in-place LAPACK paths: only a writable,
    C-contiguous, square float64 array has a transpose that LAPACK can
    overwrite without an N x N copy, so anything else raises."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.ndim == 2 and a.shape[0] == a.shape[1]
            and a.flags.c_contiguous and a.flags.writeable):
        raise InvalidParametersError(
            f"{who} needs a writable, C-contiguous, square float64 array")


# ---------------------------------------------------------------------------
# The LAPACK and BLAS binding

#: each routine's symbol in scipy-openblas builds, then in plain LAPACK builds
_DSYEVD = ("scipy_dsyevd_", "dsyevd_")
_DSYEVD_2STAGE = ("scipy_dsyevd_2stage_", "dsyevd_2stage_")
_DGEMM = ("scipy_dgemm_", "dgemm_")


def _pointer(dtype, ndim: int, *flags: str):
    return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags=flags)


#: LP64 argument types.  Scalars are one-element arrays passed by reference;
#: arrays a routine writes must be writable, matrices Fortran-contiguous
_CHAR, _LENGTH = ctypes.c_char_p, ctypes.c_size_t
_INT, _REAL = _pointer(np.intc, 1), _pointer(np.float64, 1)
_INTS = _pointer(np.intc, 1, "C_CONTIGUOUS", "WRITEABLE")
_REALS = _pointer(np.float64, 1, "C_CONTIGUOUS", "WRITEABLE")
_MATRIX = _pointer(np.float64, 2, "F_CONTIGUOUS")
_OUT_MATRIX = _pointer(np.float64, 2, "F_CONTIGUOUS", "WRITEABLE")

#: jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then the
#: hidden lengths of jobz and uplo
_SYEVD_ARGS = [_CHAR, _CHAR, _INT, _OUT_MATRIX, _INT, _REALS, _REALS, _INT,
               _INTS, _INT, _INTS, _LENGTH, _LENGTH]
#: transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, then the
#: hidden lengths of transa and transb
_GEMM_ARGS = [_CHAR, _CHAR, _INT, _INT, _INT, _REAL, _MATRIX, _INT, _MATRIX,
              _INT, _REAL, _OUT_MATRIX, _INT, _LENGTH, _LENGTH]


@cache
def _lapack() -> ctypes.CDLL:
    """scipy's LAPACK extension linalg/_flapack, found from scipy's package
    directory without importing scipy.linalg and opened with ctypes; dlsym
    on its handle also searches the OpenBLAS it links against."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.exists(path):
                return ctypes.CDLL(path)
    raise ReggError("scipy's LAPACK extension linalg/_flapack was not found")


def _resolve(routine: str, names: tuple[str, ...], argtypes: list):
    """The first of `names` that the LAPACK extension exports, typed with
    `argtypes`; raises ReggError naming `routine` when none is."""
    lib = _lapack()
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, None
            return fn
    raise ReggError(
        f"LAPACK's {routine} is not exported by {lib._name} or its "
        f"libraries (looked for {', '.join(names)})")


@cache
def dsyevd():
    """LAPACK's dsyevd (divide and conquer), resolved once per process."""
    return _resolve("dsyevd", _DSYEVD, _SYEVD_ARGS)


@cache
def dsyevd_2stage():
    """LAPACK's dsyevd_2stage (two-stage reduction to tridiagonal form),
    resolved once per process; it takes dsyevd's arguments."""
    return _resolve("dsyevd_2stage", _DSYEVD_2STAGE, _SYEVD_ARGS)


@cache
def dgemm():
    """BLAS dgemm, resolved once per process."""
    return _resolve("dgemm", _DGEMM, _GEMM_ARGS)


def _intc(value: int) -> np.ndarray:
    """A LAPACK integer argument: one C int, passed by reference."""
    return np.array([value], np.intc)


def _syevd(routine, name: str, jobz: bytes, a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose lower triangle
    is that of the Fortran-ordered `a` (uplo 'L'), by `routine`, a dsyevd
    with the name `name`; with jobz b"V" the eigenvectors overwrite a's
    columns.  The workspace sizes come from LAPACK's own query, and a
    nonzero info raises NumericalDegeneracyError."""
    n = a.shape[0]
    w = np.empty(n)

    def call(work: np.ndarray, iwork: np.ndarray, lwork: int,
             liwork: int) -> None:
        info = np.zeros(1, np.intc)
        routine(jobz, b"L", _intc(n), a, _intc(max(1, n)), w, work,
                _intc(lwork), iwork, _intc(liwork), info, 1, 1)
        if info[0]:
            raise NumericalDegeneracyError(
                f"{name} failed with info = {info[0]}")

    work, iwork = np.empty(1), np.empty(1, np.intc)
    call(work, iwork, -1, -1)  # the query: sizes land in work[0], iwork[0]
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, np.intc), lwork, liwork)
    return w


def _product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w by dgemm, for a C-contiguous x and a Fortran-ordered w, as a
    new Fortran-ordered array.  x.T is Fortran-ordered, so dgemm reads it
    with transa 'T' and copies no operand."""
    m, k = x.shape
    out = np.empty((m, w.shape[1]), order="F")
    dgemm()(b"T", b"N", _intc(m), _intc(w.shape[1]), _intc(k), np.ones(1),
            x.T, _intc(max(1, k)), w, _intc(max(1, k)), np.zeros(1), out,
            _intc(max(1, m)), 1, 1)
    return out


def eigvalsh_inplace(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose upper triangle
    (diagonal included) is that of `a`; the triangle is destroyed.

    a.T is Fortran-contiguous, and its lower triangle is a's upper one, so
    LAPACK's dsyevd_2stage (jobz 'N', uplo 'L' on a.T) reads and overwrites
    only a's upper triangle, in a's own memory: the strictly lower triangle
    is neither read nor written.  It reduces to a band of kd columns with
    level-3 BLAS, then chases the band down to a tridiagonal matrix, so its
    workspace is O(N kd), about 3.3 MB at N = 4000.  `a` must pass
    _check_inplace; a nonzero LAPACK info raises NumericalDegeneracyError."""
    _check_inplace(a, "eigvalsh_inplace")
    return _syevd(dsyevd_2stage(), "dsyevd_2stage", b"N", a.T)


def grid_bytes(n: int, nz: int, offdiag_pairs: int) -> int:
    """Bytes that ResolventView.grid allocates for nz points at size n
    beyond the view's own matrices: the complex N x nz and P x nz outputs,
    four real N x nz weight arrays and one real dgemm product as large."""
    pairs = (n * (n - 1) // 2 if n <= ResolventView.EXHAUSTIVE_N
             else offdiag_pairs)
    return 16 * (n + pairs) * nz + 5 * 8 * n * nz


class ResolventView:
    """One eigendecomposition of H, evaluated on a z-grid by grid().

    The view consumes H, which must pass _check_inplace: LAPACK's dsyevd
    writes the eigenvectors into H's memory (pass h.copy() to keep H).
    """

    #: below this size the off-diagonal maximum is exhaustive
    EXHAUSTIVE_N = 300

    def __init__(self, h: np.ndarray, offdiag_pairs: int = OFFDIAG_PAIRS,
                 pair_seed: int = 0):
        _check_inplace(h, "ResolventView")
        self.n = h.shape[0]
        # dsyevd (jobz 'V', uplo 'L') on h.T leaves the eigenvectors as the
        # columns of h.T
        self.eigenvalues = _syevd(dsyevd(), "dsyevd", b"V", h.T)
        # C order once, so that grid gathers pair rows, not strided columns
        self.eigenvectors = mapped_matrix(self.n)
        self.eigenvectors[...] = h.T
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

    def grid(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G_ii(z) for every i and G_ij(z) over the seeded pair sample, for
        a whole grid of z at once: (diag (N x nz), off (P x nz)), complex.

        G_ij(z) = sum_a v_ia v_ja / (lambda_a - z), taken as two real
        matrix products with the real and imaginary parts of the weights.
        Beyond the eigenvectors, the outputs and the N x nz weights it holds
        at most N^2 + 2 PAIR_BLOCK N reals (v*v, then one block of gathered
        pair rows), within the EIGH_COPIES N^2 budget of the decomposition.
        """
        zs = np.asarray(zs, dtype=complex)
        vec = self.eigenvectors
        # Fortran-ordered (N, nz) weights, which dgemm reads as they are
        gap = (self.eigenvalues - zs.real[:, None]).T
        scale = 1.0 / (gap * gap + zs.imag * zs.imag)
        w_re, w_im = gap * scale, zs.imag * scale

        diag = np.empty((self.n, zs.size), dtype=complex)
        sq = np.multiply(vec, vec, out=mapped_matrix(self.n))
        diag.real = _product(sq, w_re)
        diag.imag = _product(sq, w_im)
        del sq
        # drawn after the diagonal product: drawing the pair sample first
        # raised lawsweep's peak RSS by about 4 MB at N = 2000
        i, j = self._pair_sample
        off = np.empty((i.size, zs.size), dtype=complex)
        for start in range(0, i.size, PAIR_BLOCK):
            rows = slice(start, start + PAIR_BLOCK)
            prod = vec[i[rows]]
            prod *= vec[j[rows]]
            off.real[rows] = _product(prod, w_re)
            off.imag[rows] = _product(prod, w_im)
        return diag, off


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
    def for_model(cls, n: int, d: int,
                  model: str | ModelKind) -> "EnvelopeParams":
        return cls(n=n, d=d, D=effective_D(n, d, model), xi=default_xi(n))


def phi_envelope(z: complex, params: EnvelopeParams) -> float:
    """Phi(z) = 1/sqrt(N eta) + 1/sqrt(D).  Warns when D < 1 (outside the
    regime where the bounds carry content)."""
    eta = complex(z).imag
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


def psi_envelope(z: complex, params: EnvelopeParams,
                 m: complex | None = None) -> float:
    """Refined envelope xi sqrt(Im m / (N eta)) + xi / sqrt(D)
    + (xi^2 / (N eta))^{2/3}."""
    z = complex(z)
    if not z.imag > 0:
        raise InvalidParametersError("psi_envelope needs eta > 0")
    if m is None:
        m = m_semicircle(z)
    n_eta = params.n * z.imag
    return (params.xi * math.sqrt(max(m.imag, 0.0) / n_eta)
            + params.xi / math.sqrt(params.D)
            + (params.xi ** 2 / n_eta) ** (2.0 / 3.0))
