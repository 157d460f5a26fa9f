import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regg.errors import InvalidParametersError
from regg.graphs import sample_permutation_model, sample_uniform
from regg.observables import (_kappa, counting_bounds, default_zeta,
                              deloc_bound, delocalization_stats, density_mass,
                              interval_counts, isotropic_envelope,
                              isotropic_error, que_bound, que_statistics,
                              random_unit_perp_e)
from regg.rng import stream
from regg.spectral import (EnvelopeParams, ResolventView, build_H,
                           kesten_mckay_density, resolvent_solve,
                           m_semicircle, semicircle_density)


@pytest.fixture(scope="module")
def view():
    g = sample_permutation_model(300, 20, stream(50, 0))
    return ResolventView(build_H(g))


class TestDensityMass:
    def test_full_support_is_one(self):
        assert abs(density_mass(-2, 2) - 1.0) < 1e-9
        assert abs(density_mass(-2, 2, d=3) - 1.0) < 1e-9

    def test_symmetric_half(self):
        assert abs(density_mass(-2, 0) - 0.5) < 1e-9
        assert abs(density_mass(0, 2, d=4) - 0.5) < 1e-9

    def test_clipped_outside_support(self):
        assert density_mass(2.5, 3.0) == 0.0
        assert abs(density_mass(-10, 10) - 1.0) < 1e-9

    def test_matches_midpoint_rule(self):
        x = np.linspace(0.3, 1.1, 200001)
        ref = np.trapezoid(semicircle_density(x), x)
        assert abs(density_mass(0.3, 1.1) - ref) < 1e-8
        ref3 = np.trapezoid(kesten_mckay_density(x, 3), x)
        assert abs(density_mass(0.3, 1.1, d=3) - ref3) < 1e-8

    def test_order_validated(self):
        with pytest.raises(InvalidParametersError):
            density_mass(1.0, 0.0)


class TestIntervalCount:
    def test_counts_match_density(self, view):
        params = EnvelopeParams.for_model(300, 20, "permutation")
        (count,) = interval_counts(view.eigenvalues, [-0.5, 0.5])
        nu = count / view.n
        assert 0 <= nu <= 1
        assert abs(nu - density_mass(-0.5, 0.5)) < 0.1
        assert _kappa(-0.5, 0.5) == 1.5
        bulk, edge = counting_bounds(1.0, 1.5, params)
        assert bulk > 0 and edge > 0

    def test_kappa_zero_across_edge(self):
        assert _kappa(1.9, 2.1) == 0.0

    def test_degenerate_interval(self, view):
        params = EnvelopeParams.for_model(300, 20, "permutation")
        assert interval_counts(view.eigenvalues, [0.5, 0.5]).tolist() == [0]
        assert density_mass(0.5, 0.5) == 0.0
        bulk, edge = counting_bounds(0.0, _kappa(0.5, 0.5), params)
        assert bulk == edge == params.xi ** 2 / params.n

    def test_matches_half_open_loop(self, view):
        # edges placed on eigenvalues: each bin [a, b) counts a but not b
        lam = view.eigenvalues
        edges = np.concatenate([[-3.0], lam[::37], [3.0]])
        loop = [int(np.count_nonzero((lam >= a) & (lam < b)))
                for a, b in zip(edges, edges[1:])]
        counts = interval_counts(lam, edges)
        assert counts.tolist() == loop and counts.sum() == lam.size


class TestDelocalization:
    def test_stats(self, view):
        stats = delocalization_stats(view)
        n = view.n
        assert stats["per_eigenvector_sup"].shape == (n,)
        assert stats["max_inf_norm"] >= n ** -0.5 - 1e-12
        assert stats["normalized"] == n * stats["max_inf_norm"] ** 2
        # delocalized at this size: all mass spread to within polylog factors
        assert stats["normalized"] <= deloc_bound(n)


class TestIsotropic:
    def test_random_unit_perp_e(self):
        v = random_unit_perp_e(100, stream(51, 0))
        assert abs(np.linalg.norm(v) - 1) < 1e-12
        assert abs(v.sum()) < 1e-10

    def test_matches_dense_oracle(self, view):
        rng = stream(52, 0)
        a = random_unit_perp_e(view.n, rng)
        b = random_unit_perp_e(view.n, rng)
        z = 0.4 + 0.2j
        got = isotropic_error(view, z, a, b)
        h = (view.eigenvectors * view.eigenvalues) @ view.eigenvectors.T
        oracle = a @ resolvent_solve(h, z) @ b - m_semicircle(z) * (a @ b)
        assert abs(got - oracle) < 1e-8

    def test_validates_inputs(self, view):
        n = view.n
        with pytest.raises(InvalidParametersError):
            isotropic_error(view, 1j, np.ones(n), random_unit_perp_e(n, stream(0, 0)))
        with pytest.raises(InvalidParametersError):
            isotropic_error(view, 1j, np.full(n, n ** -0.5),
                            random_unit_perp_e(n, stream(0, 0)))

    def test_envelope_positive(self):
        params = EnvelopeParams.for_model(2000, 30, "uniform")
        zeta = default_zeta(params.xi)
        assert isotropic_envelope(0.5 + 0.1j, params, zeta) > 0

    def test_default_zeta(self):
        assert default_zeta(math.e) == 1.0
        with pytest.raises(InvalidParametersError):
            default_zeta(1.0)


class TestQueStatistic:
    def test_small_for_delocalized_vectors(self, view):
        stats = que_statistics(view, 50)
        assert stats.shape == (view.n,)
        assert np.abs(stats).max() < que_bound(view.n, 50)

    def test_sum_zero_enforced(self, view):
        # a = 1_I - |I|/N sums to zero, and sum_alpha v_alpha(i)^2 = 1, so
        # the statistics of all eigenvectors sum to zero too
        assert abs(que_statistics(view, 50).sum()) < 1e-12

    def test_projection_gives_constant_invariance(self, view):
        # a is 1_I projected off the constant direction, so a constant
        # added to 1_I drops out
        n, size = view.n, 40
        shifted = np.full(n, 3.7)
        shifted[:size] += 1.0
        expect = (shifted - shifted.mean()) @ view.eigenvectors ** 2
        assert np.abs(que_statistics(view, size) - expect).max() < 1e-12

    def test_indicator_minus_mean_equals_partial_mass(self, view):
        # with a = 1_I - |I|/N the statistic is sum_{i in I} v_i^2 - |I|/N
        n = view.n
        size = 30
        v = view.eigenvectors[:, 7]
        expect = float((v[:size] ** 2).sum() - size / n)
        assert que_statistics(view, size)[7] == pytest.approx(expect, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-5, 5), size=st.integers(1, 29),
       seed=st.integers(0, 2**32))
def test_que_projection_invariance_property(shift, size, seed):
    g = sample_uniform(30, 3, stream(seed, 9))
    view = ResolventView(build_H(g))
    shifted = np.full(30, shift)
    shifted[:size] += 1.0
    expect = (shifted - shifted.mean()) @ view.eigenvectors ** 2
    assert np.abs(que_statistics(view, size) - expect).max() < 1e-10
