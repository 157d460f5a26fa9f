"""Centered matrix H, the resolvent z-grid, the semicircle law's Stieltjes
transform and the error envelopes Phi and F_z.

H = (d-1)^{-1/2} (A - d e e*) with e the normalized all-ones vector, so the
Perron direction is an exact null vector.  The resolvent G(z) = (H - z)^{-1}
is served from one eigendecomposition per graph; per-z evaluations are
O(N^2) for the full diagonal and O(P N) for P off-diagonal entries.

LAPACK and BLAS are called through one ctypes binding: routine(name)
resolves dsytrd, dstedc, dormtr, dsyevd_2stage or dgemm, once per process,
as the first of scipy_<name>_ and <name>_ that the LAPACK extension scipy
ships exports (linalg/_flapack, whose handle also reaches the OpenBLAS it
links against).  The extension is located on disk and opened as a plain
shared library, so no command imports scipy.linalg.  Every array argument
has an ndpointer type: a strided, read-only or wrongly typed array raises
ctypes.ArgumentError before LAPACK sees it.

Both decompositions read only the upper triangle of the matrix they are
given, and overwrite it: a C-contiguous matrix, or the padded view that
upper_triangle maps from a graph's edges, whose layout it describes.
eigvalsh_inplace calls dsyevd_2stage; ResolventView runs the three steps
of dsyevd itself, so that H, which build_H writes as a triangle only, is
never faulted in whole.  Every array of N rows or columns, or of N^2
entries, that this module builds is mapped by _mapped_matrix, and only
vectors of N reals or fewer live on the heap; the eigenvector statistics
of observables (eigen --mode deloc and que) square V on the heap.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import math
import mmap
import os
from functools import cache, cached_property, partial

import numpy as np

from .errors import InvalidParametersError, NumericalDegeneracyError, ReggError
from .graphs import ModelKind, MultiGraph, check_ram
from .rng import stream

__all__ = [
    "ResolventView",
    "upper_triangle",
    "build_H",
    "eigvalsh_inplace",
    "routine",
    "pair_sample_size",
    "grid_bytes",
    "m_semicircle",
    "solve_two_roots",
    "effective_D",
    "default_xi",
    "phi_envelope",
    "f_envelope",
]


#: float64 entries per memory page
_PAGE_REALS = mmap.PAGESIZE // 8

#: rows per block of _triangle_blocks
_TRIANGLE_ROWS = 64

#: N x N float64 mappings alive at once on the eigenvector path: H, Z and
#: dstedc's workspace (N^2 + 4N + 1 reals).  Each is counted as H's whole
#: mapping of N rows of L >= N reals, though only H's upper triangle is
#: ever written
EIGH_COPIES = 3

#: off-diagonal pairs ResolventView.grid samples above EXHAUSTIVE_N
OFFDIAG_PAIRS = 10000

#: the stream path of ResolventView's off-diagonal pair sample, drawn from
#: stream(pair_seed, *PAIR_PATH).  Two entries, so that no trial's graph
#: stream(seed, trial) can share it
PAIR_PATH = (0xF, 0)

#: off-diagonal pairs per dgemm block in ResolventView.grid.  Fixed, since
#: the block size sets dgemm's summation order: 256 pairs changed the bits
#: of grid's off-diagonal output at N = 2000
PAIR_BLOCK = 1024

#: eigenvector rows gathered at once into a mapped buffer, to multiply a
#: block's first factors by its second ones
GATHER_ROWS = 128

#: reals of dormqr's T block (LDT x NBMAX = 65 x 64), which the workspace
#: size that dormtr's query returns leaves out: with the queried size alone
#: dormqr shrinks its block, and the eigenvectors differed from dsyevd's
#: by up to 2.6e-16 at N = 2000; with this margin they are bitwise equal
T_BLOCK = 65 * 64


# ---------------------------------------------------------------------------
# Mapped arrays, and the dense operand: an upper triangle in padded rows

def _mapped_matrix(shape: tuple[int, ...], dtype=np.float64, copies: int = 1,
                   huge_pages: bool = True) -> np.ndarray:
    """A zeroed, writable, C-contiguous array of `shape` and `dtype` in its
    own anonymous mapping.

    Its pages go back to the kernel as soon as the array is freed: a heap
    array of this size may stay resident after it is freed, once glibc's
    dynamic mmap threshold has risen above it.  With `huge_pages` the
    mapping asks for transparent huge pages, which a caller that writes
    every entry faults in about twice as fast; without, they are turned
    off, so that only the 4 KiB pages a write touches become resident.
    `copies` is how many arrays of this size the caller's computation holds
    at once; when they would not fit in physical RAM, raises
    InvalidParametersError before mapping.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    check_ram(copies * dtype.itemsize * size,
              f"{copies} mapped {'x'.join(map(str, shape))} {dtype.name} "
              f"arrays")
    buf = mmap.mmap(-1, max(1, dtype.itemsize * size),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    with contextlib.suppress(OSError):  # a kernel without THP
        buf.madvise(mmap.MADV_HUGEPAGE if huge_pages
                    else mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=dtype, count=size).reshape(shape)


def _triangle_blocks(n: int):
    """Yield (start, stop, (rows, cols)) for each block of _TRIANGLE_ROWS
    rows [start, stop) of an n x n matrix, with the indices, within the
    square [start, stop)^2, of that square's upper triangle, diagonal
    included.  With the rectangles [start, stop) x [stop, n), they cover
    the matrix's upper triangle once and touch no other entry."""
    rows, cols = np.triu_indices(_TRIANGLE_ROWS)
    for start in range(0, n, _TRIANGLE_ROWS):
        stop = min(start + _TRIANGLE_ROWS, n)
        keep = cols < stop - start
        yield start, stop, (rows[keep], cols[keep])


def upper_triangle(g: MultiGraph, divisor: float, shift: float = 0.0,
                   copies: int = 1) -> np.ndarray:
    """The upper triangle (diagonal included) of (A - shift J) / divisor,
    A = g.adj and J the all-ones matrix, as the n x n view buf[:, :n] of a
    mapping buf of n rows of L >= n reals; the strictly lower triangle and
    the padding columns are left unwritten and read zero.

    Entry (i, j), i <= j, holds (m - shift) / divisor with m the entry of
    adj as a float: mult for an edge, 2 loops on the diagonal and 0 off
    the edges, which with shift 0 are not written at all.  L is n below
    n = _PAGE_REALS - 1 and otherwise the smallest L >= n with L + 1 a
    multiple of _PAGE_REALS, so that every row's first upper entry (i, i),
    at byte 8 i (L + 1), starts a page.  Huge pages are off, so only the
    pages a write touches are faulted in; with padded rows that is the sum
    over k = 1..n of ceil(8 k / page) pages, none of them shared by two
    rows.  An in-place LAPACK call that reads and writes this triangle
    with LDA = L never brings in the rest.  `copies` is how many mappings
    of this size the caller's computation holds at once; raises
    InvalidParametersError before mapping when they would not fit in
    physical RAM.
    """
    n = g.n
    pages = -(-(n + 1) // _PAGE_REALS)
    width = n if pages == 1 else pages * _PAGE_REALS - 1
    a = _mapped_matrix((n, width), copies=copies, huge_pages=False)[:, :n]
    if shift:
        empty = (0.0 - shift) / divisor
        for start, stop, tri in _triangle_blocks(n):
            a[start:stop, stop:] = empty
            a[start:stop, start:stop][tri] = empty
    i, j, mult = g.edge_arrays()
    a[i, j] = (np.where(i == j, 2 * mult, mult) - shift) / divisor
    return a


def build_H(g: MultiGraph) -> np.ndarray:
    """The upper triangle (diagonal included) of
    H = (d-1)^{-1/2} (A - (d/n) J), as upper_triangle maps it, ready to be
    consumed by ResolventView; each entry holds the bits of the full
    matrix's.  Requires d >= 2; raises InvalidParametersError before
    mapping when the EIGH_COPIES mappings of the decomposition would not
    fit in physical RAM."""
    if g.deg < 2:
        raise InvalidParametersError("build_H needs degree >= 2")
    h = upper_triangle(g, math.sqrt(g.deg - 1), shift=g.deg / g.n,
                       copies=EIGH_COPIES)
    _check_centred(h)
    return h


def _check_centred(h: np.ndarray) -> None:
    """Raise unless |H e| <= 1e-12 sqrt(N), e the normalized all-ones vector,
    for the symmetric H whose upper triangle is h's; H e is the row sums
    over sqrt(N): row i of the triangle plus column i, less the diagonal
    entry.  They are summed block by block of _triangle_blocks, so the
    strictly lower triangle is never read and its pages never faulted in."""
    n = h.shape[0]
    sums = -h.diagonal()
    for start, stop, (rows, cols) in _triangle_blocks(n):
        rect = h[start:stop, stop:]
        square = h[start:stop, start:stop][rows, cols]
        sums[start:stop] += (rect.sum(axis=1)
                             + np.bincount(rows, square, stop - start)
                             + np.bincount(cols, square, stop - start))
        sums[stop:] += rect.sum(axis=0)
    residual = np.abs(sums).max() / math.sqrt(n)
    if residual > 1e-12 * math.sqrt(n):
        raise InvalidParametersError(
            f"centering violated: |H e| = {residual:.3e}")


def _check_inplace(a: np.ndarray, who: str) -> np.ndarray:
    """The input rule of both in-place LAPACK paths, and the operand they
    hand LAPACK: the Fortran-ordered (L, N) array whose leading N x N
    block is a.T, so that a's upper triangle is its lower one, read with
    LDA = L.  `a` must be a writable, square float64 array that LAPACK can
    overwrite without an N x N copy: C-contiguous (L = N), or a view with
    unit column stride and a row stride of L >= N reals whose rows of L
    reals lie inside its buffer, as upper_triangle returns.
    The operand is built on that buffer by np.ndarray, which checks the
    bounds; anything else raises."""
    if (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2
            and a.shape[0] == a.shape[1] and a.flags.writeable):
        if a.flags.c_contiguous:
            return a.T
        owner = a
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        row, column = a.strides
        if column == 8 and row % 8 == 0 and row >= 8 * a.shape[0]:
            with contextlib.suppress(ValueError, TypeError, BufferError):
                return np.ndarray((row // 8, a.shape[0]), np.float64, owner,
                                  a.ctypes.data - owner.ctypes.data,
                                  (8, row))
    raise InvalidParametersError(
        f"{who} needs a writable, square float64 array, C-contiguous or "
        f"with unit column stride and its rows inside its buffer")


# ---------------------------------------------------------------------------
# The LAPACK and BLAS binding

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

#: each routine's LP64 argument types, by name
_ARGTYPES = {
    #: uplo, n, a, lda, d, e, tau, work, lwork, info, then the hidden
    #: length of uplo
    "dsytrd": [_CHAR, _INT, _OUT_MATRIX, _INT, _REALS, _REALS, _REALS,
               _REALS, _INT, _INTS, _LENGTH],
    #: compz, n, d, e, z, ldz, work, lwork, iwork, liwork, info, then the
    #: hidden length of compz
    "dstedc": [_CHAR, _INT, _REALS, _REALS, _OUT_MATRIX, _INT, _REALS, _INT,
               _INTS, _INT, _INTS, _LENGTH],
    #: side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork, info, then
    #: the hidden lengths of side, uplo and trans.  dormqr and dormql write
    #: a diagonal entry of a and restore it, so a must be writable
    "dormtr": [_CHAR, _CHAR, _CHAR, _INT, _INT, _OUT_MATRIX, _INT, _REALS,
               _OUT_MATRIX, _INT, _REALS, _INT, _INTS, _LENGTH, _LENGTH,
               _LENGTH],
    #: jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, then the
    #: hidden lengths of jobz and uplo
    "dsyevd_2stage": [_CHAR, _CHAR, _INT, _OUT_MATRIX, _INT, _REALS, _REALS,
                      _INT, _INTS, _INT, _INTS, _LENGTH, _LENGTH],
    #: transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, then
    #: the hidden lengths of transa and transb
    "dgemm": [_CHAR, _CHAR, _INT, _INT, _INT, _REAL, _MATRIX, _INT, _MATRIX,
              _INT, _REAL, _OUT_MATRIX, _INT, _LENGTH, _LENGTH],
}


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


@cache
def routine(name: str):
    """LAPACK's or BLAS's `name`, one of _ARGTYPES, resolved once per
    process: the first of scipy_<name>_ (scipy-openblas builds) and <name>_
    (plain LAPACK builds) that the LAPACK extension exports, typed with
    _ARGTYPES[name]; raises ReggError naming it when neither is."""
    lib = _lapack()
    symbols = (f"scipy_{name}_", f"{name}_")
    for symbol in symbols:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = _ARGTYPES[name], None
            return fn
    raise ReggError(
        f"LAPACK's {name} is not exported by {lib._name} or its "
        f"libraries (looked for {', '.join(symbols)})")


def _intc(value: int) -> np.ndarray:
    """A LAPACK integer argument: one C int, passed by reference."""
    return np.array([value], np.intc)


def _call(name: str, *args) -> None:
    """routine(name)(*args, info), followed by a hidden length of 1 for
    each character argument; a nonzero info raises
    NumericalDegeneracyError naming `name`."""
    info = np.zeros(1, np.intc)
    routine(name)(*args, info, *(1 for a in args if isinstance(a, bytes)))
    if info[0]:
        raise NumericalDegeneracyError(f"{name} failed with info = {info[0]}")


def _workspace(size: int) -> np.ndarray:
    """A mapped LAPACK workspace of `size` reals."""
    return _mapped_matrix((max(1, size),))


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and the Fortran-ordered N x N eigenvectors
    (columns) of the symmetric matrix whose lower triangle is that of the
    leading N x N block of the Fortran-ordered (LDA, N) `a`, by the three
    steps dsyevd (jobz 'V', uplo 'L') takes, bitwise equal to it.  That
    lower triangle is overwritten by the reflectors; the rest of `a` is
    neither read nor written.  Workspace sizes come from LAPACK's own
    queries, and a nonzero info raises NumericalDegeneracyError.  dsyevd's
    scaling of a matrix whose largest entry lies outside about
    [1e-146, 1e146] is left out."""
    n = a.shape[1]
    size, lda, lead = _intc(n), _intc(max(1, a.shape[0])), _intc(max(1, n))
    w, e, tau = np.empty(n), np.empty(max(1, n)), np.empty(max(1, n))
    query, iquery, ask = np.empty(1), np.empty(1, np.intc), _intc(-1)
    # dsytrd: a = Q T Q^T, T's diagonal into w and its off-diagonal into e
    reduce_ = partial(_call, "dsytrd", b"L", size, a, lda, w, e, tau)
    reduce_(query, ask)
    reduce_work = int(query[0])
    reduce_(_workspace(reduce_work), _intc(reduce_work))
    # dstedc('I'): T's eigenvalues into w, its eigenvectors into z
    z = _mapped_matrix((n, n)).T
    solve = partial(_call, "dstedc", b"I", size, w, e, z, lead)
    solve(query, ask, iquery, ask)
    lwork, liwork = int(query[0]), int(iquery[0])
    solve(_workspace(lwork), _intc(lwork), np.empty(liwork, np.intc),
          _intc(liwork))
    # dormtr: z = Q z.  dsyevd hands it what its own queried workspace,
    # max(1 + 6N + 2N^2, 2N + dsytrd's query), leaves after e, tau and Z.
    # Below N = 80 that is less than dormtr's query plus the T block, and
    # dormqr shrinks its block there too: with the T block alone, the
    # eigenvectors differed from dsyevd's by up to 4.7e-16 for N = 34..79
    apply = partial(_call, "dormtr", b"L", b"L", b"N", size, size, a, lda,
                    tau, z, lead)
    apply(query, ask)
    lwork = min(int(query[0]) + T_BLOCK,
                max(1 + 4 * n + n * n, reduce_work - n * n))
    apply(_workspace(lwork), _intc(lwork))
    return w, z


def _product(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x @ w by dgemm, for a C-contiguous x and a Fortran-ordered w, into
    the Fortran-ordered `out`, which it returns.  x.T is Fortran-ordered,
    so dgemm reads it with transa 'T' and copies no operand."""
    m, k = x.shape
    routine("dgemm")(b"T", b"N", _intc(m), _intc(w.shape[1]), _intc(k),
                     np.ones(1), x.T, _intc(max(1, k)), w, _intc(max(1, k)),
                     np.zeros(1), out, _intc(max(1, m)), 1, 1)
    return out


def eigvalsh_inplace(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix whose upper triangle
    (diagonal included) is that of `a`; the triangle is destroyed.

    `a` must pass _check_inplace, whose operand LAPACK's dsyevd_2stage
    (jobz 'N', uplo 'L') reads: it overwrites only a's upper triangle, in
    a's own memory, and neither reads nor writes the strictly lower
    triangle or any padding.  It reduces to a band of kd columns with level-3 BLAS, then chases the band
    down to a tridiagonal matrix, so its workspace is O(N kd), about
    3.3 MB at N = 4000.  A nonzero LAPACK info raises
    NumericalDegeneracyError."""
    operand = _check_inplace(a, "eigvalsh_inplace")
    lda, n = operand.shape
    w = np.empty(n)
    run = partial(_call, "dsyevd_2stage", b"N", b"L", _intc(n), operand,
                  _intc(max(1, lda)), w)
    work, iwork = np.empty(1), np.empty(1, np.intc)
    run(work, _intc(-1), iwork, _intc(-1))  # sizes land in work, iwork
    lwork, liwork = int(work[0]), int(iwork[0])
    run(np.empty(lwork), _intc(lwork), np.empty(liwork, np.intc),
        _intc(liwork))
    return w


def pair_sample_size(n: int) -> int:
    """Off-diagonal pairs ResolventView draws for its pair sample at size
    n: all N(N-1)/2 pairs i < j up to ResolventView.EXHAUSTIVE_N, and
    above it OFFDIAG_PAIRS seeded pairs (i, j), of which those with i == j
    are then dropped."""
    if n <= ResolventView.EXHAUSTIVE_N:
        return n * (n - 1) // 2
    return OFFDIAG_PAIRS


def grid_bytes(n: int, nz: int) -> int:
    """Bytes mapped while ResolventView.grid evaluates nz points at size n:
    the view's N x N eigenvectors V and grid's V * V, the complex N x nz
    and P x nz outputs, the two real N x nz weights, the dgemm product
    buffer (nz times N or a pair block, whichever is larger), the pair
    block and its gathered rows."""
    pairs = pair_sample_size(n)
    block = min(PAIR_BLOCK, pairs)
    return 8 * ((2 * (n + pairs) + 2 * n + max(n, block)) * nz
                + (2 * n + block + min(GATHER_ROWS, block)) * n)


class ResolventView:
    """One eigendecomposition of H, evaluated on a z-grid by grid().

    The view reads H's upper triangle (diagonal included) only, and
    consumes it: H must pass _check_inplace, as build_H's does, and
    dsytrd writes its reflectors over that triangle (pass h.copy() to keep
    H).
    Z, the N x N eigenvectors dstedc and dormtr build, is copied once into
    C order and dropped before the constructor returns.
    """

    #: below this size the off-diagonal maximum is exhaustive
    EXHAUSTIVE_N = 300

    def __init__(self, h: np.ndarray, pair_seed: int = 0):
        # the operand's lower triangle is h's upper one
        operand = _check_inplace(h, "ResolventView")
        self.n = operand.shape[1]
        self.eigenvalues, z = _eigh(operand)
        # C order once, so that grid gathers pair rows, not strided columns
        self.eigenvectors = _mapped_matrix((self.n, self.n))
        self.eigenvectors[...] = z
        self.pair_seed = pair_seed

    @cached_property
    def _pair_sample(self) -> tuple[np.ndarray, np.ndarray]:
        """Seeded off-diagonal index pairs used by grid(), as many as
        pair_sample_size(n) draws; exhaustive up to EXHAUSTIVE_N."""
        n, size = self.n, pair_sample_size(self.n)
        if n <= self.EXHAUSTIVE_N:
            i, j = np.triu_indices(n, k=1)
            return i, j
        rng = stream(self.pair_seed, *PAIR_PATH)
        i = rng.integers(0, n, size=size)
        j = rng.integers(0, n, size=size)
        keep = i != j
        return i[keep], j[keep]

    def grid(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G_ii(z) for every i and G_ij(z) over the seeded pair sample, for
        a whole grid of z at once: (diag (N x nz), off (P x nz)), complex
        and mapped.

        G_ij(z) = sum_a v_ia v_ja / (lambda_a - z), taken as two real
        matrix products with the real and imaginary parts of the weights.
        Every array of N rows or columns is mapped, and grid_bytes counts
        them with the eigenvectors.  Beyond those, the outputs and the
        N x nz weights it holds at most N^2 + (PAIR_BLOCK + GATHER_ROWS) N
        reals: v*v, then one block of pair products and one chunk of
        gathered rows.
        """
        zs = np.asarray(zs, dtype=complex)
        n, nz = self.n, zs.size
        vec = self.eigenvectors
        # w_re = gap / (gap^2 + eta^2) and w_im = eta / (gap^2 + eta^2),
        # gap = lambda - E, written in place as (nz, N) rows: their
        # transposes are Fortran-ordered (N, nz), which dgemm reads as is
        weights = _mapped_matrix((2, nz, n))
        gap, scale = weights
        np.subtract(self.eigenvalues, zs.real[:, None], out=gap)
        np.multiply(gap, gap, out=scale)
        scale += (zs.imag * zs.imag)[:, None]
        np.divide(1.0, scale, out=scale)
        gap *= scale
        scale *= zs.imag[:, None]
        w_re, w_im = gap.T, scale.T

        i, j = self._pair_sample
        block = _mapped_matrix((min(PAIR_BLOCK, i.size), n))
        # one dgemm product buffer, for the diagonal and every pair block
        products = _mapped_matrix((max(n, block.shape[0]) * nz,))

        def product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
            return _product(x, w, products[:x.shape[0] * nz]
                            .reshape(nz, x.shape[0]).T)

        diag = _mapped_matrix((n, nz), complex)
        sq = np.multiply(vec, vec, out=_mapped_matrix((n, n)))
        diag.real = product(sq, w_re)
        diag.imag = product(sq, w_im)
        del sq
        off = _mapped_matrix((i.size, nz), complex)
        rows = _mapped_matrix((min(GATHER_ROWS, block.shape[0]), n))
        for start in range(0, i.size, PAIR_BLOCK):
            stop = min(start + PAIR_BLOCK, i.size)
            pairs = block[:stop - start]
            # take writes straight into `out` unless its mode is "raise",
            # which gathers into a temporary first; the indices lie in
            # [0, N) by construction
            np.take(vec, i[start:stop], axis=0, out=pairs, mode="clip")
            for first in range(start, stop, GATHER_ROWS):
                last = min(first + GATHER_ROWS, stop)
                gathered = rows[:last - first]
                np.take(vec, j[first:last], axis=0, out=gathered, mode="clip")
                pairs[first - start:last - start] *= gathered
            off.real[start:stop] = product(pairs, w_re)
            off.imag[start:stop] = product(pairs, w_im)
        return diag, off


# ---------------------------------------------------------------------------
# The semicircle law's Stieltjes transform

def m_semicircle(z: complex) -> complex:
    """Stieltjes transform of the semicircle law: the root of
    m^2 + z m + 1 = 0 with positive imaginary part, the first of
    solve_two_roots(z, 0)."""
    if not complex(z).imag > 0:
        raise InvalidParametersError("m is defined on the upper half-plane")
    return solve_two_roots(z, 0.0)[0]


def solve_two_roots(z: complex, R: complex) -> tuple[complex, complex]:
    """The two roots of s^2 + z s + 1 = R, the first having the larger
    imaginary part; with R = 0 they are the upper and lower half-plane
    Stieltjes branches.

    The square root of z^2 - 4 + 4R is the principal root with an explicit
    sign flip onto the upper half-plane, so platform branch-cut conventions
    never matter.
    """
    z, R = complex(z), complex(R)
    disc = np.sqrt(z * z - 4.0 + 4.0 * R + 0j)
    if disc.imag < 0:
        disc = -disc
    return (-z + disc) / 2, (-z - disc) / 2


# ---------------------------------------------------------------------------
# Envelopes

def effective_D(n: int, d: int, model: str | ModelKind) -> float:
    """Model-dependent effective parameter: d ∧ n²/d³ for the uniform
    model, d ∧ n²/d for the permutation/matching (and configuration)
    models.  Needs n >= 1 and d >= 1."""
    kind = ModelKind(model)
    if n < 1 or d < 1:
        raise InvalidParametersError(
            f"effective_D needs n >= 1 and d >= 1, got n={n} d={d}")
    if kind is ModelKind.UNIFORM:
        return min(d, n * n / d ** 3)
    return min(d, n * n / d)


def default_xi(n: int) -> float:
    """The logarithmic error parameter (log N)^2 of every envelope, for
    n >= 1."""
    if n < 1:
        raise InvalidParametersError(f"default_xi needs n >= 1, got {n}")
    return math.log(n) ** 2


def phi_envelope(z: complex, n: int, D: float) -> float:
    """Phi(z) = 1/sqrt(N eta) + 1/sqrt(D), for n >= 1 and D > 0."""
    eta = complex(z).imag
    if not eta > 0:
        raise InvalidParametersError("phi_envelope needs eta > 0")
    if n < 1 or not D > 0:
        raise InvalidParametersError(
            f"phi_envelope needs n >= 1 and D > 0, got n={n} D={D}")
    return 1.0 / math.sqrt(n * eta) + 1.0 / math.sqrt(D)


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

