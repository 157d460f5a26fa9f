import ctypes
import itertools
import math
import mmap
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
from hypothesis import given, settings
from hypothesis import strategies as st

from regg import spectral
from regg.errors import InvalidParametersError, NumericalDegeneracyError
from regg.graphs import (MultiGraph, sample_configuration_model,
                         sample_matching_model, sample_permutation_model,
                         sample_uniform)
from regg.law import SweepPlan
from regg.rng import stream
from regg.spectral import (OFFDIAG_PAIRS, PAIR_BLOCK, PAIR_PATH,
                           ResolventView,
                           _check_centred, build_H, default_xi, effective_D,
                           eigvalsh_inplace, f_envelope, m_semicircle,
                           phi_envelope)

from oracles import kesten_mckay_density, resolvent_solve, semicircle_density


#: matching 1000/3 is simple; permutation and configuration 500/6 carry
#: loops and multi-edges
TRIANGLE_GRAPHS = [
    (sample_matching_model, 1000, 3, False),
    (sample_permutation_model, 500, 6, True),
    (sample_configuration_model, 500, 6, True),
]


#: prepended to every _run_fresh script: a /proc/self/status field in kB
_STATUS_KB = textwrap.dedent("""
    def status_kb(key):
        with open("/proc/self/status") as status:
            (kb,) = [int(line.split()[1]) for line in status
                     if line.startswith(key)]
        return kb
""")


def _run_fresh(script, *args):
    """Standard output of `script` run in a fresh interpreter on ./src, with
    status_kb defined."""
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _STATUS_KB + script, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LIBC = ctypes.CDLL(None, use_errno=True)
_LIBC.mincore.argtypes = [ctypes.c_void_p, ctypes.c_size_t,
                          ctypes.POINTER(ctypes.c_ubyte)]


def resident_pages(a):
    """Resident pages of the anonymous mapping under the view `a`, by
    mincore; a page that was only read, and maps the shared zero page,
    counts too."""
    owner = a
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    assert owner.ctypes.data % mmap.PAGESIZE == 0
    vec = (ctypes.c_ubyte * -(-owner.nbytes // mmap.PAGESIZE))()
    if _LIBC.mincore(owner.ctypes.data, owner.nbytes, vec):
        raise OSError(ctypes.get_errno(), "mincore failed")
    return int((np.frombuffer(vec, np.uint8) & 1).sum())


def layout_pages(n, lead):
    """Pages that hold the upper triangle of an n x n float64 matrix whose
    rows lie `lead` reals apart from the start of a page: row i's entries
    i..n-1 span bytes [8 (i lead + i), 8 (i lead + n))."""
    i = np.arange(n)
    first = 8 * i * (lead + 1) // mmap.PAGESIZE
    last = (8 * (i * lead + n) - 1) // mmap.PAGESIZE
    seen = np.concatenate([[-1], np.maximum.accumulate(last)[:-1]])
    return int(np.maximum(last - np.maximum(first, seen + 1) + 1, 0).sum())


def page_aligned_pages(n):
    """sum over k = 1..n of ceil(8 k / page): the triangle's pages when
    every row's first entry starts a page."""
    return int(sum(-(-8 * k // mmap.PAGESIZE) for k in range(1, n + 1)))


def row_length(n):
    """spectral.upper_triangle's reals per row: n below a page's reals
    less one, then the smallest L >= n with L + 1 a multiple of them."""
    page = mmap.PAGESIZE // 8
    return n if n < page - 1 else -(-(n + 1) // page) * page - 1


def symmetric(h):
    """The full symmetric matrix whose upper triangle is h's, as build_H
    writes only that triangle."""
    return np.triu(h) + np.triu(h, 1).T


def complete_graph(n):
    return MultiGraph(n, n - 1, [i * n + j for i, j in
                                 itertools.combinations(range(n), 2)])


class TestBuildH:
    def test_k3_eigenvalues(self):
        h = build_H(complete_graph(3))
        vals = np.sort(np.linalg.eigvalsh(symmetric(h)))
        assert np.allclose(vals, [-1.0, -1.0, 0.0], atol=1e-12)

    def test_k4_eigenvalues(self):
        h = build_H(complete_graph(4))
        vals = np.sort(np.linalg.eigvalsh(symmetric(h)))
        r = -1 / math.sqrt(2)
        assert np.allclose(vals, [r, r, r, 0.0], atol=1e-12)

    def test_perron_direction_annihilated(self):
        g = sample_uniform(20, 3, stream(40, 0))
        h = build_H(g)
        e = np.full(20, 20 ** -0.5)
        assert np.abs(symmetric(h) @ e).max() < 1e-12

    @pytest.mark.parametrize("sampler, n, d, loops", TRIANGLE_GRAPHS)
    def test_upper_triangle_bitwise_equal_to_full_matrix(self, sampler, n,
                                                         d, loops):
        # each entry holds the bits of the full matrix built in two passes,
        # (A - d/n) / sqrt(d-1); the strictly lower triangle reads zero
        g = sampler(n, d, stream(13, 0))
        full = g.adj.astype(np.float64)
        full -= d / n
        full /= math.sqrt(d - 1)
        h = build_H(g)
        assert np.array_equal(h, np.triu(full))

    def test_degree_one_rejected(self):
        g = MultiGraph(2, 1, [1])
        with pytest.raises(InvalidParametersError):
            build_H(g)

    def test_centering_validated(self):
        with pytest.raises(InvalidParametersError):
            _check_centred(np.eye(2))
        # the row sums of the symmetric matrix, not of the triangle
        _check_centred(np.array([[1.0, -1.0], [0.0, 1.0]]))
        # the strictly lower triangle is never read: NaN there goes unseen,
        # and a lower triangle that would centre the rows does not
        _check_centred(np.array([[1.0, -1.0], [np.nan, 1.0]]))
        with pytest.raises(InvalidParametersError):
            _check_centred(np.array([[0.0, -1.0], [1.0, 0.0]]))


    def test_faults_in_only_the_triangle(self):
        # build_H writes every upper entry and the centring check reads
        # them.  Each row's triangle starts a page, so the resident pages
        # are the triangle's own, with no page of the strictly lower
        # triangle or of the padding, read or written
        n = 2000
        h = build_H(sample_permutation_model(n, 40, stream(44, 0)))
        assert resident_pages(h) == page_aligned_pages(n)


class TestResolventView:
    @pytest.fixture(scope="class")
    @staticmethod
    def view():
        g = sample_uniform(40, 3, stream(41, 0))
        h = build_H(g)
        return h, ResolventView(h.copy())

    def test_matches_direct_solve(self, view, dense_resolvent):
        h, v = view
        for z in (1j, 0.7 + 0.05j, -1.9 + 0.01j):
            oracle = resolvent_solve(h, z)
            g = dense_resolvent(v, z)
            assert np.abs(g - oracle).max() < 1e-8
            assert np.abs(g.diagonal() - oracle.diagonal()).max() < 1e-10
            assert np.abs(g[3] - oracle[3]).max() < 1e-10

    def test_entries_accessor(self, view):
        # below EXHAUSTIVE_N the pair sample is every i < j
        h, v = view
        z = 0.2 + 0.1j
        oracle = resolvent_solve(h, z)
        i, j = v._pair_sample
        assert np.array_equal(np.stack([i, j]), np.triu_indices(v.n, k=1))
        _, off = v.grid(np.array([z]))
        assert np.abs(off[:, 0] - oracle[i, j]).max() < 1e-10

    def test_ward_identity(self, view, dense_resolvent):
        # sum_j |G_ij|^2 == Im G_ii / eta
        _, v = view
        z = 0.5 + 0.3j
        g = dense_resolvent(v, z)
        lhs = (np.abs(g) ** 2).sum(axis=1)
        rhs = g.diagonal().imag / z.imag
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_stieltjes_is_mean_diag(self, view):
        # s(z) = N^{-1} sum_a (lambda_a - z)^{-1} = N^{-1} tr G(z)
        _, v = view
        z = 1.3 + 0.2j
        diag, _ = v.grid(np.array([z]))
        s = np.mean(1.0 / (v.eigenvalues - z))
        assert abs(s - np.mean(diag[:, 0])) < 1e-12

    def test_gamma_at_least_one(self, view):
        # Gamma(z) = max(1, max_ij |G_ij(z)|) is 1 once eta >= 1, because
        # |G_ij(z)| <= ||G(z)|| <= 1/eta
        _, v = view
        diag, off = v.grid(np.array([100j]))
        assert max(np.abs(diag).max(), np.abs(off).max()) <= 1 / 100

    def test_offdiag_sample_deterministic(self):
        g = sample_permutation_model(400, 4, stream(42, 0))
        h = build_H(g)
        v1 = ResolventView(h.copy(), pair_seed=7)
        v2 = ResolventView(h, pair_seed=7)
        zs = np.array([0.3 + 0.1j, -1.0 + 0.5j])
        _, off1 = v1.grid(zs)
        _, off2 = v2.grid(zs)
        assert np.array_equal(off1, off2)
        assert 0 < off1.shape[0] <= OFFDIAG_PAIRS
        # a diagonal H has G_ij = 0 exactly for i != j, so any sampled
        # diagonal pair (i, i) would show up as a nonzero entry
        diag_view = ResolventView(np.diag(np.arange(400.0)), pair_seed=7)
        _, off = diag_view.grid(zs)
        assert off.shape[0] > 0 and not off.any()

    def test_pair_sample_shares_no_trial_stream(self):
        # law.per_trial draws trial t's graph from stream(seed, t) and
        # decomposes it with pair_seed = seed, so the pairs come from a
        # path no trial index gives
        n = 400
        for seed in (0, 1):
            i, j = ResolventView(np.diag(np.arange(float(n))),
                                 pair_seed=seed)._pair_sample
            for path in (PAIR_PATH, *((t,) for t in range(64))):
                rng = stream(seed, *path)
                first = rng.integers(0, n, size=OFFDIAG_PAIRS)
                second = rng.integers(0, n, size=OFFDIAG_PAIRS)
                keep = first != second
                drawn = (np.array_equal(i, first[keep])
                         and np.array_equal(j, second[keep]))
                assert drawn == (path == PAIR_PATH), path

    def test_grid_matches_solve_across_pair_blocks(self):
        n = 320  # above EXHAUSTIVE_N: the seeded pair sample
        h = build_H(sample_permutation_model(n, 6, stream(43, 0)))
        v = ResolventView(h.copy(), pair_seed=5)
        i, j = v._pair_sample
        assert i.size > 2 * PAIR_BLOCK and i.size % PAIR_BLOCK
        zs = np.array([0.4 + 1j / n, -1.7 + 0.03j, 2.5 + 1j])
        diag, off = v.grid(zs)
        assert diag.shape == (n, 3) and off.shape == (i.size, 3)
        for k, z in enumerate(zs):
            oracle = resolvent_solve(h, z)
            assert np.abs(diag[:, k] - np.diag(oracle)).max() < 1e-10
            assert np.abs(off[:, k] - oracle[i, j]).max() < 1e-10

    def test_grid_matches_unchunked_pair_products(self):
        # the pair rows are gathered GATHER_ROWS at a time into one reused
        # block; the products must be those of the whole-block evaluation,
        # vec[i] * vec[j] per PAIR_BLOCK pairs, bit for bit
        n = 320
        v = ResolventView(build_H(sample_permutation_model(n, 6,
                                                           stream(43, 1))),
                          pair_seed=6)
        i, j = v._pair_sample
        assert i.size > 2 * PAIR_BLOCK and i.size % PAIR_BLOCK
        zs = np.array([0.4 + 1j / n, -1.7 + 0.03j, 2.5 + 1j])
        diag, off = v.grid(zs)
        vec = v.eigenvectors
        gap = (v.eigenvalues - zs.real[:, None]).T
        scale = 1.0 / (gap * gap + zs.imag * zs.imag)
        w_re, w_im = gap * scale, zs.imag * scale

        def product(x, w):
            return spectral._product(x, w, np.empty((x.shape[0], zs.size),
                                                    order="F"))

        sq = vec * vec
        assert np.array_equal(diag.real, product(sq, w_re))
        assert np.array_equal(diag.imag, product(sq, w_im))
        for start in range(0, i.size, PAIR_BLOCK):
            rows = slice(start, start + PAIR_BLOCK)
            prod = vec[i[rows]] * vec[j[rows]]
            assert np.array_equal(off.real[rows], product(prod, w_re))
            assert np.array_equal(off.imag[rows], product(prod, w_im))

    def test_grid_empty_pair_sample(self):
        v = ResolventView(np.array([[0.5]]))
        diag, off = v.grid(np.array([1j, 0.5 + 0.1j]))
        assert off.shape == (0, 2) and off.dtype == complex
        assert np.allclose(diag[0], [1 / (0.5 - 1j), 1 / -0.1j])

    def test_grid_memory_bounded(self):
        n, pairs = 1000, OFFDIAG_PAIRS
        v = ResolventView(build_H(sample_permutation_model(n, 10, stream(44, 0))))
        zs = np.array([complex(E, eta) for E in np.linspace(-2.4, 2.4, 25)
                       for eta in (1.0, 0.5, 0.25, 0.125, 0.0625)])
        tracemalloc.start()
        try:
            v.grid(zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one third of the 3 P x N float64 pair temporaries of an unblocked
        # evaluation: (v[i], v[j], v[i] * v[j])
        assert peak < 3 * pairs * n * 8 / 3

    def test_rejects_inputs_it_would_copy(self):
        g = sample_permutation_model(20, 4, stream(45, 0))
        h = build_H(g)
        frozen = h.copy()
        frozen.flags.writeable = False
        for bad in (g.adj, frozen, h.astype(np.float32), h[::2, ::2],
                    np.asfortranarray(h), h[:10]):
            with pytest.raises(InvalidParametersError):
                ResolventView(bad)

    def test_eigenpairs_match_numpy_and_consume_h(self):
        h = build_H(sample_permutation_model(200, 6, stream(45, 1)))
        oracle = symmetric(h)
        ref_vals = np.linalg.eigh(oracle)[0]
        v = ResolventView(h)
        assert np.abs(v.eigenvalues - ref_vals).max() < 1e-12
        vec = v.eigenvectors
        assert vec.flags.c_contiguous
        assert np.abs((vec * v.eigenvalues) @ vec.T - oracle).max() < 1e-12
        assert np.abs(vec.T @ vec - np.eye(200)).max() < 1e-12
        # dsytrd wrote its reflectors over H's upper triangle
        assert not np.array_equal(np.triu(h), np.triu(oracle))

    def test_decomposition_peak_below_three_matrices(self):
        # growth of the peak RSS over the resident set before the build, in
        # a fresh process, in N x N float64 matrices.  dsyevd held H whole
        # plus its 2 N^2 workspace and read 3.17 at N = 2000; the three
        # steps hold the triangle of H, Z and dstedc's N^2 workspace, and
        # read 2.90 with rows of N reals, 2.81 with each row's triangle
        # starting a page.  H and the eigenvectors are mapped, which
        # tracemalloc does not see, so the peak is VmHWM
        script = textwrap.dedent("""
            from regg.graphs import sample_permutation_model
            from regg.rng import stream
            from regg.spectral import ResolventView, build_H

            n = 2000
            g = sample_permutation_model(n, 10, stream(44, 0))
            # load LAPACK and its buffers
            ResolventView(build_H(sample_permutation_model(300, 10,
                                                           stream(44, 1))))
            before = status_kb("VmRSS:")
            view = ResolventView(build_H(g))
            print((status_kb("VmHWM:") - before) * 1024 / (8 * n * n))
        """)
        growth = float(_run_fresh(script))
        assert growth < 3.05, growth

    def test_peak_flat_across_trials(self):
        # VmHWM after each lawsweep trial at permutation (2000, 40) on the
        # default grid, in a fresh process.  With the grid's outputs and
        # pair rows on the heap, glibc kept about 5 MB of them from the
        # first trial and the peak climbed 137.5 -> 142.7 MB at the second;
        # mapped, it reads 128.6 -> 129.4 -> 129.8 MB
        script = textwrap.dedent("""
            from regg.law import SweepPlan, per_trial, records_for_view

            n, d = 2000, 40
            plan = SweepPlan.standard(n, samples=3)

            def stat(seed, trial, view):
                records_for_view(view, "permutation", n, d, seed, trial, plan)
                return status_kb("VmHWM:")

            print(*per_trial("permutation", n, d,
                             [(1, t) for t in range(plan.samples)], stat))
        """)
        peaks = [int(kb) / 1024 for kb in _run_fresh(script).split()]
        assert peaks[-1] - peaks[0] < 3.0, peaks


class TestBinding:
    """dsytrd, dstedc, dormtr, dsyevd_2stage and dgemm, resolved by
    spectral.routine with ctypes in the LAPACK that scipy's wrappers call:
    scipy.linalg is the oracle here only."""

    def test_dsyevd_matches_scipy_bitwise(self):
        # ResolventView runs dsyevd's three steps itself; its eigenpairs
        # are dsyevd's, bit for bit.  dormqr's block size depends on the
        # workspace it gets, and dsyevd gives it less than its optimum for
        # N from 34 to 79.  NaN in the strictly lower triangle would
        # spread into the eigenpairs if LAPACK read it, and would be
        # overwritten if LAPACK wrote it
        for n in (400, 1, 2, 26, 40, 79, 80):
            h = (build_H(sample_permutation_model(n, 6, stream(46, n)))
                 if n > 1 else np.array([[0.25]]))
            vals, vecs = scipy.linalg.eigh(symmetric(h), check_finite=False,
                                           driver="evd")
            lower = np.tril_indices(n, -1)
            h[lower] = np.nan
            v = ResolventView(h)
            assert np.array_equal(v.eigenvalues, vals), n
            assert np.array_equal(v.eigenvectors, vecs), n
            assert np.isnan(h[lower]).all()

    @pytest.mark.parametrize("m, k, nz", [(300, 300, 7), (40, 300, 1),
                                          (1, 1, 3)])
    def test_dgemm_matches_scipy_bitwise(self, m, k, nz):
        rng = np.random.default_rng(m + k + nz)
        x = rng.standard_normal((m, k))
        w = np.asfortranarray(rng.standard_normal((k, nz)))
        got = spectral._product(x, w, np.empty((m, nz), order="F"))
        assert got.flags.f_contiguous and got.shape == (m, nz)
        assert np.array_equal(
            got, scipy.linalg.blas.dgemm(1.0, x.T, w, trans_a=1))

    def test_rejects_arrays_before_the_call(self):
        # ndpointer checks dtype, rank, layout and writability: a bad array
        # raises ctypes.ArgumentError, and the routine never runs
        n, intc = 6, spectral._intc
        a = np.eye(n, order="F")
        frozen = np.eye(n, order="F")
        frozen.flags.writeable = False
        good = dict(a=a, w=np.empty(n), work=np.empty(100),
                    iwork=np.empty(50, np.intc))
        bad = [dict(a=np.eye(2 * n, order="F")[::2, ::2]),
               dict(a=np.eye(n)[:, :n - 1]),
               dict(a=frozen),
               dict(a=a.astype(np.float32)),
               dict(a=np.ones(n * n)),
               dict(w=np.empty(2 * n)[::2]),
               dict(work=np.empty(100, np.float32)),
               dict(iwork=np.empty(50, np.int64))]
        info = np.zeros(1, np.intc)
        calls = [  # the routine, whether it takes iwork, its arguments
            (spectral.routine("dsyevd_2stage"), True,
             lambda a, w, work, iwork: (
                b"V", b"L", intc(n), a, intc(n), w, work, intc(100), iwork,
                intc(50), info, 1, 1)),
            (spectral.routine("dsytrd"), False, lambda a, w, work, iwork: (
                b"L", intc(n), a, intc(n), w, w.copy(), w.copy(), work,
                intc(100), info, 1)),
            (spectral.routine("dstedc"), True, lambda a, w, work, iwork: (
                b"I", intc(n), w, w.copy(), a, intc(n), work, intc(100),
                iwork, intc(50), info, 1)),
            (spectral.routine("dormtr"), False, lambda a, w, work, iwork: (
                b"L", b"L", b"N", intc(n), intc(n), a, intc(n), w,
                np.eye(n, order="F"), intc(n), work, intc(100), info,
                1, 1, 1)),
        ]
        for routine, takes_iwork, arguments in calls:
            for change in bad:
                if "iwork" in change and not takes_iwork:
                    continue
                with pytest.raises(ctypes.ArgumentError):
                    routine(*arguments(**{**good, **change}))
        assert np.array_equal(a, np.eye(n))

        x = np.ones((3, 3), order="F")
        out = np.empty((3, 3), order="F")
        frozen_out = np.empty((3, 3), order="F")
        frozen_out.flags.writeable = False
        for operand, product in ((np.ones((6, 3), order="F")[::2], out),
                                 (x.astype(np.float32), out),
                                 (x, np.empty((3, 6), order="F")[:, ::2]),
                                 (x, frozen_out)):
            with pytest.raises(ctypes.ArgumentError):
                spectral.routine("dgemm")(
                    b"N", b"N", intc(3), intc(3), intc(3), np.ones(1),
                    operand, intc(3), x, intc(3), np.zeros(1), product,
                    intc(3), 1, 1)

    def test_symbols_resolve_in_scipys_lapack(self):
        # the binding opens the extension file without importing it
        assert os.path.basename(spectral._lapack()._name).startswith(
            "_flapack")
        for name in ("dsytrd", "dstedc", "dormtr", "dsyevd_2stage",
                     "dgemm"):
            assert spectral.routine(name) is spectral.routine(name)

    def test_tries_each_name_in_turn(self, lapack_exports):
        # a plain LAPACK build: no scipy_dgemm_, and dgemm_ is the routine
        routine = spectral.routine("dgemm")
        lapack_exports({"scipy_dgemm_": None, "dgemm_": "scipy_dgemm_"})
        assert spectral.routine("dgemm") is routine


class TestEigvalshInplace:
    def test_matches_numpy(self):
        g = sample_matching_model(300, 3, stream(12, 0))
        a = g.adj.astype(np.float64)
        ref = np.linalg.eigvalsh(a)
        lam = eigvalsh_inplace(a)
        assert lam.shape == (300,) and np.all(np.diff(lam) >= 0)
        assert np.abs(lam - ref).max() < 1e-12

    def test_rejects_inputs_it_would_copy(self):
        g = sample_matching_model(20, 3, stream(12, 1))
        a = g.adj.astype(np.float64)
        frozen = a.copy()
        frozen.flags.writeable = False
        for bad in (g.adj, frozen, a.astype(np.float32), a[::2, ::2],
                    np.asfortranarray(a), a[:10],
                    list(a)):
            with pytest.raises(InvalidParametersError):
                eigvalsh_inplace(bad)

    def test_rejects_rows_outside_a_writable_buffer(self):
        # the last row's 16 reals run one past the buffer's end; a padded
        # view of a read-only buffer cannot be overwritten
        past_end = np.zeros((8, 16))[1:, 1:8]
        read_only = np.frombuffer(bytes(8 * 8 * 16)).reshape(8, 16)[:, :8]
        for bad in (past_end, read_only):
            for consumer in (eigvalsh_inplace, ResolventView):
                with pytest.raises(InvalidParametersError):
                    consumer(bad)
        # the same rows one real earlier lie inside the buffer
        assert eigvalsh_inplace(np.zeros((8, 16))[1:, :7]).tolist() == [0] * 7

    def test_no_hidden_matrix_copy(self):
        n = 1000
        a = sample_matching_model(n, 3, stream(12, 2)).adj.astype(np.float64)
        tracemalloc.start()
        try:
            eigvalsh_inplace(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a second N x N float64 array would be 8 N^2 bytes
        assert peak < 0.25 * 8 * n * n

    @pytest.mark.parametrize("sampler, n, d, loops", TRIANGLE_GRAPHS)
    def test_matches_dsyevd_and_skips_lower_triangle(self, sampler, n, d,
                                                      loops):
        # oracle: scipy's one-stage dsyevd on the whole matrix.  NaN in the
        # strictly lower triangle would spread into the eigenvalues if
        # LAPACK read it, and would be overwritten if LAPACK wrote it
        g = sampler(n, d, stream(13, 0))
        full = g.adj.astype(np.float64)
        full /= math.sqrt(d - 1)
        ref = scipy.linalg.eigvalsh(full, driver="evd")
        a = spectral.upper_triangle(g, math.sqrt(d - 1))
        lower = np.tril_indices(n, -1)
        a[lower] = np.nan
        lam = eigvalsh_inplace(a)
        assert lam.shape == (n,) and np.all(np.diff(lam) >= 0)
        assert np.abs(lam - ref).max() <= 1e-12
        assert np.isnan(a[lower]).all()

    @pytest.mark.parametrize("a, expected", [
        (np.empty((0, 0)), []),
        (np.array([[-2.5]]), [-2.5]),
    ])
    def test_sizes_zero_and_one(self, a, expected):
        lam = eigvalsh_inplace(a)
        assert lam.dtype == np.float64 and lam.tolist() == expected

    def test_nonzero_info_raises(self, monkeypatch):
        # the cached lookup is the seam: this fake answers the workspace
        # query, then reports that the tridiagonal QR did not converge
        calls, names = [], []

        def fake(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info,
                 *lengths):
            calls.append(int(lwork[0]))
            if lwork[0] == -1:
                work[0], iwork[0] = 1.0, 1
            else:
                info[0] = 1

        monkeypatch.setattr(spectral, "routine",
                            lambda name: names.append(name) or fake)
        with pytest.raises(NumericalDegeneracyError, match="info = 1"):
            eigvalsh_inplace(np.eye(3))
        assert calls == [-1, 1]
        assert names == ["dsyevd_2stage", "dsyevd_2stage"]


class TestUpperTriangle:
    @pytest.mark.parametrize("sampler, n, d, loops", TRIANGLE_GRAPHS)
    def test_eigenvalues_bitwise_equal_to_full_matrix(self, sampler, n, d,
                                                       loops):
        g = sampler(n, d, stream(13, 0))
        i, j, mult = g.edge_arrays()
        assert (i == j).any() == loops and (mult > 1).any()
        full = g.adj.astype(np.float64)
        full /= math.sqrt(d - 1)
        tri = spectral.upper_triangle(g, math.sqrt(d - 1))
        assert np.array_equal(tri, np.triu(full))
        assert np.array_equal(eigvalsh_inplace(tri), eigvalsh_inplace(full))
        # LAPACK neither wrote nor needed the strictly lower triangle
        assert not np.tril(tri, -1).any()

    @pytest.mark.parametrize("n", [300, 1000, 3000])
    def test_eigvalsh_faults_in_only_the_triangle(self, n):
        # after LAPACK has read and written the whole triangle, the
        # resident pages are those of the triangle in the builder's layout,
        # never more than with rows of n reals
        g = sample_matching_model(n, 3, stream(0, 0))
        a = spectral.upper_triangle(g, math.sqrt(2))
        eigvalsh_inplace(a)
        pages = layout_pages(n, row_length(n))
        assert resident_pages(a) == pages <= layout_pages(n, n)
        if row_length(n) > n:
            assert pages == page_aligned_pages(n)

    @pytest.mark.parametrize("n", [1, 2, 40, 79, 80, 510, 511, 512, 1023,
                                   1500])
    def test_padded_rows_bitwise_equal_to_contiguous_copy(self, n):
        # LAPACK reads the builder's view with LDA = L, and a C-contiguous
        # copy with LDA = N; both give the same bits.  NaN in the padding
        # columns and the strictly lower triangle would spread into the
        # results if LAPACK read them, and would be overwritten if it
        # wrote them
        g = sample_permutation_model(n, 2 if n < 40 else 6, stream(47, n))
        lower = np.tril_indices(n, -1)

        def poisoned():
            h = build_H(g)
            assert h.strides == (8 * row_length(n), 8)
            h.base.reshape(n, -1)[:, n:] = np.nan
            h[lower] = np.nan
            return h

        views = [poisoned(), poisoned()]
        copies = [np.triu(h) for h in views]
        assert np.array_equal(eigvalsh_inplace(views[0]),
                              eigvalsh_inplace(copies[0]))
        got, want = ResolventView(views[1]), ResolventView(copies[1])
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)
        for h in views:
            assert np.isnan(h.base.reshape(n, -1)[:, n:]).all()
            assert np.isnan(h[lower]).all()

    def test_holds_about_half_a_matrix(self):
        # growth of the peak RSS over the resident set before the build, in
        # a fresh process, as a fraction of one N x N float64 matrix: the
        # triangle's pages read about 0.64 at N = 3000 with each row's
        # triangle starting a page (0.71 with rows of N reals, whose pages
        # straddle row boundaries), the full matrix about 1.0.
        # The peak is VmHWM, not ru_maxrss: a child's ru_maxrss starts at
        # the resident size of the process that started it.
        script = textwrap.dedent("""
            import math, sys
            import numpy as np
            from regg.graphs import sample_matching_model
            from regg.rng import stream
            from regg.spectral import eigvalsh_inplace, upper_triangle

            n = 3000
            g = sample_matching_model(n, 3, stream(0, 0))
            eigvalsh_inplace(np.eye(300))  # load LAPACK and its buffers
            before = status_kb("VmRSS:")
            if sys.argv[1] == "full":
                a = np.zeros((n, n))
                i, j = g.endpoints()
                np.add.at(a, (i, j), 1.0)
                np.add.at(a, (j, i), 1.0)
                a /= math.sqrt(2)
            else:
                a = upper_triangle(g, math.sqrt(2))
            eigvalsh_inplace(a)
            print((status_kb("VmHWM:") - before) * 1024 / (8 * n * n))
        """)
        growth = {side: float(_run_fresh(script, side))
                  for side in ("triangle", "full")}
        assert growth["triangle"] < 0.8 < growth["full"], growth


class TestSemicircleTransform:
    def test_known_values(self):
        assert abs(m_semicircle(1j) - 0.6180339887498949j) < 1e-12
        assert abs(m_semicircle(3j) - 0.30277563773199456j) < 1e-12

    def test_root_residual_on_grid(self):
        es = np.linspace(-3, 3, 100)
        etas = np.geomspace(1e-4, 10, 100)
        for e in es:
            z = e + 1j * etas
            m = np.array([m_semicircle(zz) for zz in z])
            assert np.abs(m * m + z * m + 1).max() < 1e-12
            assert np.all(m.imag > 0)

    def test_real_axis_rejected(self):
        with pytest.raises(InvalidParametersError):
            m_semicircle(1.0)

    def test_matches_density_as_eta_to_zero(self):
        for e in (0.0, 1.0, -1.5):
            m = m_semicircle(e + 1e-9j)
            assert abs(m.imag / math.pi - semicircle_density(e)) < 1e-4


class TestDensities:
    def test_semicircle_normalized(self):
        x = np.linspace(-2, 2, 400001)
        mass = np.trapezoid(semicircle_density(x), x)
        assert abs(mass - 1.0) < 1e-6

    def test_semicircle_values(self):
        assert abs(semicircle_density(0.0) - 1 / math.pi) < 1e-15
        assert semicircle_density(2.0) == 0.0
        assert semicircle_density(3.0) == 0.0

    def test_kesten_mckay_values(self):
        assert abs(kesten_mckay_density(0.0, 3) - 0.21220659078919378) < 1e-12
        x = np.linspace(-2, 2, 400001)
        mass = np.trapezoid(kesten_mckay_density(x, 3), x)
        assert abs(mass - 1.0) < 1e-6

    def test_kesten_mckay_large_d_tends_to_semicircle(self):
        x = np.linspace(-1.9, 1.9, 50)
        diff = np.abs(kesten_mckay_density(x, 10**6) - semicircle_density(x))
        assert diff.max() < 1e-5

    def test_kesten_mckay_needs_d2(self):
        with pytest.raises(InvalidParametersError):
            kesten_mckay_density(0.0, 1)


class TestEnvelopes:
    def test_effective_d(self):
        assert effective_D(1000, 10, "uniform") == 10
        assert effective_D(100, 30, "uniform") == 100**2 / 30**3
        assert effective_D(1000, 10, "permutation") == 10
        assert effective_D(100, 300, "matching") == 100**2 / 300

    @pytest.mark.parametrize("call,args", [
        pytest.param(SweepPlan.standard, (0,), id="sweep-n0"),
        pytest.param(SweepPlan.standard, (-3, 1, -2.4, 2.4, 0.2, 0.1),
                     id="sweep-n-3"),
        *(pytest.param(effective_D, (10, 0, m), id=f"D-d0-{m}") for m in
          ("uniform", "permutation", "matching", "configuration")),
        pytest.param(effective_D, (0, 3, "uniform"), id="D-n0"),
        pytest.param(default_xi, (0,), id="xi-n0"),
        pytest.param(phi_envelope, (1j, 10, 0), id="phi-D0"),
        pytest.param(phi_envelope, (1j, 10, -4.0), id="phi-D-4"),
        pytest.param(phi_envelope, (1j, 0, 25), id="phi-n0"),
    ])
    def test_degenerate_sizes_rejected(self, call, args):
        # no envelope or grid has a meaning at these sizes
        with pytest.raises(InvalidParametersError):
            call(*args)

    def test_default_xi(self):
        assert default_xi(2000) == math.log(2000) ** 2

    def test_phi_example(self):
        # 1/sqrt(100 * 1) + 1/sqrt(25)
        assert abs(phi_envelope(1j, 100, 25) - 0.3) < 1e-12

    def test_f_envelope_example(self):
        assert abs(f_envelope(10 + 0.1j, 0.01) - 0.011021) < 1e-5

    def test_f_envelope_sqrt_branch_near_edge(self):
        assert f_envelope(2.0 + 0j, 0.25) == 0.5
        assert f_envelope(0.0, 0.0) == 0.0

    def test_f_envelope_domain(self):
        with pytest.raises(InvalidParametersError):
            f_envelope(1j, 1.5)
        with pytest.raises(InvalidParametersError):
            f_envelope(1j, -0.1)


@settings(max_examples=50, deadline=None)
@given(e=st.floats(-5, 5), eta=st.floats(1e-6, 100))
def test_m_semicircle_root_property(e, eta):
    z = complex(e, eta)
    m = m_semicircle(z)
    assert abs(m * m + z * m + 1) < 1e-10
    assert m.imag > 0


@settings(max_examples=50, deadline=None)
@given(e=st.floats(-4, 4), r=st.floats(0, 1))
def test_f_envelope_bounds_property(e, r):
    val = f_envelope(complex(e, 0.5), r)
    assert 0 <= val <= math.sqrt(r) + 1e-15
