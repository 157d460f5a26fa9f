import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regg.errors import InvalidParametersError, OutOfRegimeWarning
from regg.graphs import MultiGraph, sample_permutation_model, sample_uniform
from regg.rng import stream
from regg.spectral import (EnvelopeParams, HamiltonianMatrix, ResolventView,
                           SpectralPoint, build_H, default_xi, effective_D,
                           f_envelope, kesten_mckay_density, m_semicircle,
                           phi_envelope, psi_envelope, resolvent_solve,
                           semicircle_density)


def complete_graph(n):
    adj = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return MultiGraph.from_adjacency(n, n - 1, adj)


class TestBuildH:
    def test_k3_eigenvalues(self):
        h = build_H(complete_graph(3))
        vals = np.sort(np.linalg.eigvalsh(h.entries))
        assert np.allclose(vals, [-1.0, -1.0, 0.0], atol=1e-12)

    def test_k4_eigenvalues(self):
        h = build_H(complete_graph(4))
        vals = np.sort(np.linalg.eigvalsh(h.entries))
        r = -1 / math.sqrt(2)
        assert np.allclose(vals, [r, r, r, 0.0], atol=1e-12)

    def test_perron_direction_annihilated(self):
        g = sample_uniform(20, 3, stream(40, 0))
        h = build_H(g, "uniform")
        e = np.full(20, 20 ** -0.5)
        assert np.abs(h.entries @ e).max() < 1e-12

    def test_degree_one_rejected(self):
        g = MultiGraph.from_adjacency(2, 1, np.array([[0, 1], [1, 0]]))
        with pytest.raises(InvalidParametersError):
            build_H(g)

    def test_centering_validated(self):
        with pytest.raises(InvalidParametersError):
            HamiltonianMatrix(2, 2, np.eye(2))


class TestResolventView:
    @pytest.fixture(scope="class")
    @staticmethod
    def view():
        g = sample_uniform(40, 3, stream(41, 0))
        h = build_H(g, "uniform")
        return h, ResolventView(h)

    def test_matches_direct_solve(self, view):
        h, v = view
        for z in (1j, 0.7 + 0.05j, -1.9 + 0.01j):
            oracle = resolvent_solve(h.entries, z)
            assert np.abs(v.full(z) - oracle).max() < 1e-8
            assert np.abs(v.diag(z) - np.diag(oracle)).max() < 1e-10
            assert np.abs(v.row(z, 3) - oracle[3]).max() < 1e-10

    def test_entries_accessor(self, view):
        h, v = view
        z = 0.2 + 0.1j
        oracle = resolvent_solve(h.entries, z)
        rows = np.array([0, 1, 5])
        cols = np.array([2, 9, 5])
        got = v.entries(z, rows, cols)
        assert np.abs(got - oracle[rows, cols]).max() < 1e-10

    def test_ward_identity(self, view):
        # sum_j |G_ij|^2 == Im G_ii / eta
        _, v = view
        z = 0.5 + 0.3j
        g = v.full(z)
        lhs = (np.abs(g) ** 2).sum(axis=1)
        rhs = g.diagonal().imag / z.imag
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_stieltjes_is_mean_diag(self, view):
        _, v = view
        z = 1.3 + 0.2j
        assert abs(v.stieltjes(z) - np.mean(v.diag(z))) < 1e-12

    def test_gamma_at_least_one(self, view):
        _, v = view
        assert v.gamma(100j) == 1.0
        assert v.gamma(0.1 + 0.01j) >= 1.0

    def test_gamma_star_dominates_grid(self, view):
        _, v = view
        gs = v.gamma_star(0.0, 0.25)
        eta = 0.25
        while eta < v.n:
            assert gs >= v.gamma(complex(0.0, eta)) - 1e-12
            eta *= 2

    def test_gamma_star_needs_positive_floor(self, view):
        _, v = view
        with pytest.raises(InvalidParametersError):
            v.gamma_star(0.0, 0.0)

    def test_offdiag_sample_deterministic(self):
        g = sample_permutation_model(400, 4, stream(42, 0))
        h = build_H(g, "permutation")
        v1 = ResolventView(h, offdiag_pairs=500, pair_seed=7)
        v2 = ResolventView(h, offdiag_pairs=500, pair_seed=7)
        zs = np.array([0.3 + 0.1j, -1.0 + 0.5j])
        _, off1 = v1.grid(zs)
        _, off2 = v2.grid(zs)
        assert np.array_equal(off1, off2)
        assert 0 < off1.shape[0] <= 500
        # a diagonal H has G_ij = 0 exactly for i != j, so any sampled
        # diagonal pair (i, i) would show up as a nonzero entry
        diag_view = ResolventView(np.diag(np.arange(400.0)),
                                  offdiag_pairs=500, pair_seed=7)
        _, off = diag_view.grid(zs)
        assert off.shape[0] > 0 and not off.any()


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

    def test_default_xi(self):
        assert default_xi(2000) == math.log(2000) ** 2

    def test_phi_example(self):
        params = EnvelopeParams(n=100, d=25, D=25, xi=1.0)
        assert abs(phi_envelope(SpectralPoint(0, 1.0), params) - 0.3) < 1e-12

    def test_phi_warns_out_of_regime(self):
        params = EnvelopeParams(n=100, d=25, D=0.5, xi=1.0)
        with pytest.warns(OutOfRegimeWarning):
            phi_envelope(SpectralPoint(0, 1.0), params)

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

    def test_psi_example(self):
        params = EnvelopeParams(n=10**4, d=100, D=100, xi=10.0)
        m = m_semicircle(1j)
        got = psi_envelope(SpectralPoint(0, 0.01), params, m=m)
        expected = 10 * math.sqrt((math.sqrt(5) - 1) / 2 / 100) + 1 + 1
        assert abs(got - expected) < 1e-12
        assert abs(got - 2.786) < 1e-3

    def test_psi_defaults_m_at_z(self):
        params = EnvelopeParams(n=10**6, d=100, D=100, xi=25.0)
        a = psi_envelope(SpectralPoint(0, 1.0), params)
        b = psi_envelope(SpectralPoint(0, 1.0), params, m=m_semicircle(1j))
        assert a == b


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
