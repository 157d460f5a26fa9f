import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regg.errors import BudgetExceededError, InvalidParametersError
from regg.spectral import m_semicircle, solve_two_roots
from regg import stability
from regg.stability import (ExchangeableEnsemble, arcsinh_tail_bound,
                            exchangeable_moment_bound_check,
                            exchangeable_moment_exact, ladder_check,
                            ladder_sweep, simulate_martingale_tails,
                            stability_check, stability_sweep)

from oracles import exchangeable_moment_mc


class TestRoots:
    def test_unperturbed_roots_are_stieltjes_branches(self):
        for z in (1j, 0.5 + 0.2j, -1.8 + 0.01j):
            s1, s2 = solve_two_roots(z, 0.0)
            m = m_semicircle(z)
            assert abs(s1 - m) < 1e-12
            assert abs(s1 * s2 - 1) < 1e-12  # product of roots = constant term
            assert s1.imag >= s2.imag

    def test_roots_satisfy_equation(self):
        z, R = 0.3 + 0.7j, 0.2 - 0.1j
        for s in solve_two_roots(z, R):
            assert abs(s * s + z * s + 1 - R) < 1e-12


class TestStabilityCheck:
    def test_zero_perturbation_zero_lhs(self):
        res = stability_check(0.5 + 0.5j, 0.0, 0.0)
        assert res.lhs < 1e-12 and res.passed

    def test_sweep_clean(self):
        out = stability_sweep(npoints=2000, seed=0)
        assert out["pass"] and out["failures"] == 0
        assert out["worst_ratio"] <= 1.0

    def test_r_cap_enforced(self):
        with pytest.raises(InvalidParametersError):
            stability_check(1j, 10.0, 0.1)


class TestLadder:
    def test_single_ladder(self):
        out = ladder_check(E=0.5, r=0.3, phase=1.0)
        assert out["pass"]
        assert out["worst_ratio"] <= 1.0

    def test_sweep_clean(self):
        out = ladder_sweep(ntracks=50, seed=1)
        assert out["pass"] and out["failures"] == 0

    def test_sweep_needs_a_track(self):
        # an empty sweep has no failures and would report a pass
        for ntracks in (0, -1):
            with pytest.raises(InvalidParametersError):
                ladder_sweep(ntracks=ntracks, seed=1)
        assert ladder_sweep(ntracks=1, seed=1)["tracks"] == 1


class TestArcsinhBound:
    def test_example_value(self):
        # M = 1, S = 1, xi = 2 sqrt 2: bound = 4 exp(-asinh 1) = 4/(1 + sqrt 2)
        got = arcsinh_tail_bound(2 * math.sqrt(2), 1.0, 1.0)
        assert abs(got - 4 / (1 + math.sqrt(2))) < 1e-12
        assert abs(got - 1.6569) < 1e-4

    def test_vacuous_at_zero(self):
        assert arcsinh_tail_bound(0.0, 1.0, 1.0) == 4.0

    def test_monotone_in_xi(self):
        vals = [arcsinh_tail_bound(x, 1.0, 100.0) for x in (1, 5, 20, 50)]
        assert vals == sorted(vals, reverse=True)

    def test_validates(self):
        with pytest.raises(InvalidParametersError):
            arcsinh_tail_bound(1.0, 0.0, 1.0)

    def test_simulated_walk_within_bound(self, monkeypatch):
        monkeypatch.setattr(stability, "MARTINGALE_STEPS", 64)
        monkeypatch.setattr(stability, "TAIL_XI", (2.0, 6.0, 12.0, 24.0))
        out = simulate_martingale_tails(runs=20000, seed=4)
        assert out["pass"]
        assert [row["xi"] for row in out["rows"]] == [2.0, 6.0, 12.0, 24.0]
        for row in out["rows"]:
            assert row["empirical"] <= row["bound"]


class TestExchangeableEnsemble:
    def test_coefficient_constraints(self):
        with pytest.raises(InvalidParametersError):
            ExchangeableEnsemble((1.0, 1.0), base_vector=(1.0, 2.0))
        with pytest.raises(InvalidParametersError):
            ExchangeableEnsemble((1.0, -1.0), base_vector=(1.0, 2.0))
        with pytest.raises(InvalidParametersError):
            ExchangeableEnsemble((0.5, -0.5), base_vector=(1.0,),
                                 base_matrix=((1.0,),))

    def test_budget(self):
        a = (0.25, -0.25) + (0.0,) * 8
        ens = ExchangeableEnsemble(a, base_vector=(1.0,) * 10)
        with pytest.raises(BudgetExceededError):
            exchangeable_moment_exact(ens, 2)


class TestExactMoments:
    def test_hand_computed_second_moment(self):
        # a = (1/2, -1/2), Y = (0, 1): X = +-1/2 each with prob 1/2 -> E X^2 = 1/4
        ens = ExchangeableEnsemble((Fraction(1, 2), Fraction(-1, 2)),
                                   base_vector=(Fraction(0), Fraction(1)))
        assert exchangeable_moment_exact(ens, 2) == Fraction(1, 4)
        assert exchangeable_moment_exact(ens, 1) == 0
        assert exchangeable_moment_exact(ens, 3) == 0

    def test_rational_in_rational_out(self):
        ens = ExchangeableEnsemble(
            (Fraction(1, 2), Fraction(-1, 4), Fraction(-1, 4)),
            base_vector=(Fraction(1), Fraction(2), Fraction(4)))
        out = exchangeable_moment_exact(ens, 4)
        assert isinstance(out, Fraction)

    def test_float_inputs_give_float(self):
        ens = ExchangeableEnsemble((0.5, -0.5), base_vector=(0.0, 1.3))
        out = exchangeable_moment_exact(ens, 2)
        assert isinstance(out, float)
        assert out == pytest.approx(0.25 * 1.3 ** 2)

    def test_matrix_case_hand_value(self):
        # a = (1/2, -1/2), Y = [[0, 1], [1, 0]]: form = 2 a1 a2 Y12 = -1/2 always
        ens = ExchangeableEnsemble(
            (Fraction(1, 2), Fraction(-1, 2)),
            base_matrix=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
        assert exchangeable_moment_exact(ens, 1) == Fraction(-1, 2)
        assert exchangeable_moment_exact(ens, 2) == Fraction(1, 4)


class TestMonteCarloMoments:
    def test_vector_mc_matches_exact(self):
        ens = ExchangeableEnsemble((0.5, -0.25, -0.25, 0.0),
                                   base_vector=(3.0, 1.0, -2.0, 0.5))
        exact = float(exchangeable_moment_exact(ens, 4))
        mean, se = exchangeable_moment_mc(ens, 4, samples=40000, seed=6)
        assert abs(mean - exact) <= 4 * se

    def test_matrix_mc_matches_exact(self):
        y = ((1.0, 0.5, -0.25), (0.5, -1.0, 0.75), (-0.25, 0.75, 0.5))
        ens = ExchangeableEnsemble((0.5, -0.5, 0.0), base_matrix=y)
        exact = float(exchangeable_moment_exact(ens, 2))
        mean, se = exchangeable_moment_mc(ens, 2, samples=40000, seed=7)
        assert abs(mean - exact) <= 4 * se


class TestMomentBounds:
    def test_vector_bound(self):
        ens = ExchangeableEnsemble((0.5, -0.5, 0.25, -0.25, 0.0, 0.0),
                                   base_vector=(3.0, 1.0, -2.0, 0.5, 0.0, -1.0))
        for p in (2, 4, 6):
            out = exchangeable_moment_bound_check(ens, p)
            assert out["check"] == "exchangeable_vector_bound"
            assert out["pass"]

    def test_matrix_bound(self):
        y = tuple(tuple(float((i * 7 + j * 3) % 5 - 2) for j in range(5))
                  for i in range(5))
        sym = tuple(tuple((y[i][j] + y[j][i]) / 2 for j in range(5))
                    for i in range(5))
        ens = ExchangeableEnsemble((0.5, -0.5, 0.25, -0.25, 0.0),
                                   base_matrix=sym)
        for p in (2, 4):
            out = exchangeable_moment_bound_check(ens, p)
            assert out["check"] == "exchangeable_matrix_bound"
            assert out["pass"]

    def test_even_p_required(self):
        ens = ExchangeableEnsemble((0.5, -0.5), base_vector=(1.0, 0.0))
        with pytest.raises(InvalidParametersError):
            exchangeable_moment_bound_check(ens, 3)


@settings(max_examples=60, deadline=None)
@given(e=st.floats(-5, 5), eta=st.floats(1e-4, 3), r=st.floats(0, 1),
       frac=st.floats(0, 1), phase=st.floats(0, 2 * math.pi))
def test_stability_property(e, eta, r, frac, phase):
    z = complex(e, eta)
    R = (1 + abs(z)) * r * frac * complex(math.cos(phase), math.sin(phase))
    assert stability_check(z, R, r).passed
