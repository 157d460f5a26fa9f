import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regg.errors import InvalidParametersError
from regg.graphs import sample_permutation_model, sample_uniform
from regg.observables import (IntervalCount, TestVector, default_zeta,
                              delocalization_stats, density_mass,
                              interval_count, isotropic_envelope,
                              isotropic_error, que_statistic,
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
        ic = interval_count(view, -0.5, 0.5, params)
        assert isinstance(ic, IntervalCount)
        assert 0 <= ic.nu <= 1
        assert ic.error < 0.1
        assert ic.kappa == 1.5
        assert ic.bound_bulk > 0 and ic.bound_edge > 0

    def test_kappa_zero_across_edge(self, view):
        params = EnvelopeParams.for_model(300, 20, "permutation")
        ic = interval_count(view, 1.9, 2.1, params)
        assert ic.kappa == 0.0

    def test_interval_cap(self, view):
        params = EnvelopeParams.for_model(300, 20, "permutation")
        with pytest.raises(InvalidParametersError):
            interval_count(view, -4.0, 0.0, params)
        interval_count(view, -4.0, 0.0, params, K=5.0)

    def test_degenerate_interval(self, view):
        params = EnvelopeParams.for_model(300, 20, "permutation")
        ic = interval_count(view, 0.5, 0.5, params)
        assert ic.rho == 0.0
        assert ic.bound_bulk == ic.bound_edge == params.xi ** 2 / params.n


class TestDelocalization:
    def test_stats(self, view):
        stats = delocalization_stats(view)
        n = view.n
        assert stats["per_eigenvector_sup"].shape == (n,)
        assert stats["max_inf_norm"] >= n ** -0.5 - 1e-12
        assert stats["normalized"] == n * stats["max_inf_norm"] ** 2
        # delocalized at this size: all mass spread to within polylog factors
        assert stats["normalized"] <= 10 * math.log(n) ** 2


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
        rng = stream(53, 0)
        n = view.n
        a = np.zeros(n)
        a[:50] = 1.0
        a -= a.mean()
        for alpha in rng.integers(0, n, size=10):
            val = que_statistic(view, a, int(alpha))
            assert abs(val) < 10 * math.log(n) ** 4 * math.sqrt(50) / n

    def test_sum_zero_enforced(self, view):
        with pytest.raises(InvalidParametersError):
            que_statistic(view, np.ones(view.n), 0)

    def test_projection_gives_constant_invariance(self, view):
        rng = stream(54, 0)
        a = rng.standard_normal(view.n)
        a -= a.mean()
        base = que_statistic(view, a, 5)
        shifted = que_statistic(view, a + 3.7, 5, project=True)
        assert abs(base - shifted) < 1e-12

    def test_indicator_minus_mean_equals_partial_mass(self, view):
        # with a = 1_I - |I|/N the statistic is sum_{i in I} v_i^2 - |I|/N
        n = view.n
        size = 30
        a = np.zeros(n)
        a[:size] = 1.0
        a -= size / n
        v = view.eigenvectors[:, 7]
        expect = float((v[:size] ** 2).sum() - size / n)
        assert que_statistic(view, a, 7) == pytest.approx(expect, abs=1e-14)


class TestTestVector:
    def test_flags(self):
        n = 16
        v = np.full(n, n ** -0.5)
        tv = TestVector.of(v)
        assert tv.unit_norm and not tv.perp_e and not tv.sums_to_zero
        w = np.zeros(n)
        w[0], w[1] = 2 ** -0.5, -(2 ** -0.5)
        tw = TestVector.of(w)
        assert tw.unit_norm and tw.perp_e and tw.sums_to_zero


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-5, 5), seed=st.integers(0, 2**32))
def test_que_projection_invariance_property(shift, seed):
    g = sample_uniform(30, 3, stream(seed, 9))
    view = ResolventView(build_H(g))
    rng = stream(seed, 10)
    a = rng.standard_normal(30)
    a -= a.mean()
    assert que_statistic(view, a + shift, 3, project=True) == pytest.approx(
        que_statistic(view, a, 3), abs=1e-10)
