import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regg.errors import InvalidParametersError
from regg.spectral import m_semicircle, solve_two_roots
from regg.stability import (ladder_check, ladder_sweep, stability_check,
                            stability_sweep)


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


@settings(max_examples=60, deadline=None)
@given(e=st.floats(-5, 5), eta=st.floats(1e-4, 3), r=st.floats(0, 1),
       frac=st.floats(0, 1), phase=st.floats(0, 2 * math.pi))
def test_stability_property(e, eta, r, frac, phase):
    z = complex(e, eta)
    R = (1 + abs(z)) * r * frac * complex(math.cos(phase), math.sin(phase))
    assert stability_check(z, R, r).passed
