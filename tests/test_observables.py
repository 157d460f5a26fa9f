import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regg.errors import InvalidParametersError
from regg.graphs import sample_permutation_model, sample_uniform
from regg.observables import (FOURTH_GATE, MAX_RATIO_GATE, QUE_GATE,
                              delocalization_stats, density_mass,
                              interval_counts, isotropic_error, que_ratio,
                              que_statistics, random_unit_perp_e)
from regg.rng import stream
from regg.spectral import ResolventView, build_H, m_semicircle

from oracles import kesten_mckay_density, resolvent_solve


#: masses of the 44 bins [-2.2 + 0.1 k, -2.1 + 0.1 k) of `eigen --mode
#: intervals`, recorded from the adaptive quadrature density_mass ran before
#: its closed form (scipy quad after x = 2 sin theta, epsabs 1e-10), by d
QUADRATURE_MASSES = {
    2: [
        0.0, 0.0, 0.10108262410436009,
        0.042483669024446405, 0.03303554363269165, 0.028230927937735587,
        0.025220691463482457, 0.023129854944019056, 0.021585567373895435,
        0.020398356820336142, 0.01946047042562375, 0.01870562760684305,
        0.018090644719983288, 0.017586141512228762, 0.017171463130439806,
        0.016831733283336512, 0.01655606076551207, 0.01633640640619129,
        0.016166847078538066, 0.016043089341176934, 0.015962147192599595,
        0.015922133236660356, 0.015922133236660356, 0.015962147192599595,
        0.0160430893411769, 0.016166847078538066, 0.01633640640619133,
        0.01655606076551207, 0.016831733283336512, 0.017171463130439754,
        0.017586141512228783, 0.018090644719983326, 0.01870562760684305,
        0.01946047042562375, 0.020398356820336035, 0.021585567373895474,
        0.023129854944019125, 0.025220691463482457, 0.028230927937735587,
        0.033035543632691504, 0.04248366902444661, 0.10108262410436003,
        0.0, 0.0,
    ],
    3: [
        0.0, 0.0, 0.027741634021925487,
        0.03354553841052506, 0.032154086383333905, 0.03037035760674398,
        0.028781931862049356, 0.02744217588804581, 0.026321782615413996,
        0.025382911351946844, 0.02459295127541308, 0.023926060165521637,
        0.02336220100936348, 0.022885887997412487, 0.022485124158071326,
        0.022150588938057242, 0.021875037579602713, 0.021652862362249777,
        0.02147977393116302, 0.02135257162946184, 0.021268980809306257,
        0.021227542004392707, 0.021227542004392707, 0.021268980809306257,
        0.021352571629461796, 0.02147977393116302, 0.021652862362249826,
        0.021875037579602713, 0.022150588938057242, 0.022485124158071256,
        0.02288588799741251, 0.023362201009363526, 0.023926060165521637,
        0.02459295127541308, 0.025382911351946712, 0.026321782615414045,
        0.027442175888045896, 0.028781931862049356, 0.03037035760674398,
        0.032154086383333766, 0.033545538410525245, 0.02774163402192547,
        0.0, 0.0,
    ],
    4: [
        0.0, 0.0, 0.01705609525377811,
        0.02514597695675521, 0.027090736568270327, 0.02753976243046206,
        0.027446152712534973, 0.027140026303425265, 0.026757200340277256,
        0.026358771256138013, 0.0259734314110888, 0.025614700944970075,
        0.025288643849037548, 0.024997567017289536, 0.024741884811897277,
        0.024521094083902763, 0.024334297360365506, 0.024180488180695393,
        0.024058707852999076, 0.023968131428967247, 0.023908114317130594,
        0.02387821692001503, 0.02387821692001503, 0.023908114317130594,
        0.023968131428967192, 0.024058707852999076, 0.024180488180695445,
        0.024334297360365506, 0.024521094083902763, 0.0247418848118972,
        0.02499756701728956, 0.025288643849037597, 0.025614700944970075,
        0.0259734314110888, 0.026358771256137878, 0.026757200340277305,
        0.027140026303425352, 0.027446152712534973, 0.02753976243046206,
        0.02709073656827022, 0.025145976956755346, 0.0170560952537781,
        0.0, 0.0,
    ],
    10: [
        0.0, 0.0, 0.00906731802056698,
        0.015634749472824463, 0.019101716399873462, 0.02141804551339334,
        0.023081790211595503, 0.024324299162764157, 0.025275505199945012,
        0.026016231013892475, 0.0266000937343136, 0.027064271207384097,
        0.027435379676613247, 0.027732929621718798, 0.027971472150105533,
        0.02816198873102382, 0.028312820015002644, 0.028430301328494133,
        0.028519204198993443, 0.0285830448862536, 0.028624298241600215,
        0.02864454121364147, 0.02864454121364147, 0.028624298241600215,
        0.028583044886253538, 0.028519204198993443, 0.028430301328494195,
        0.028312820015002644, 0.02816198873102382, 0.02797147215010545,
        0.027732929621718833, 0.027435379676613303, 0.027064271207384097,
        0.0266000937343136, 0.026016231013892343, 0.02527550519994506,
        0.02432429916276424, 0.023081790211595503, 0.02141804551339334,
        0.0191017163998734, 0.01563474947282456, 0.009067318020566975,
        0.0, 0.0,
    ],
    40: [
        0.0, 0.0, 0.007149622720782925,
        0.012797001836038458, 0.0162040451970297, 0.01876517615871643,
        0.020818629278191877, 0.022519174371447275, 0.023954162724008327,
        0.025178955845565624, 0.026231328538863244, 0.02713838805356729,
        0.02792029207423581, 0.028592414866986347, 0.02916668851874734,
        0.029652473171898848, 0.03005714227577904, 0.030386486744090564,
        0.03064499890883033, 0.030836073326388415, 0.030962147591029422,
        0.031024797797802775, 0.031024797797802775, 0.030962147591029422,
        0.030836073326388345, 0.03064499890883033, 0.03038648674409063,
        0.03005714227577904, 0.029652473171898848, 0.029166688518747253,
        0.028592414866986382, 0.027920292074235867, 0.02713838805356729,
        0.026231328538863244, 0.025178955845565495, 0.023954162724008375,
        0.02251917437144736, 0.020818629278191877, 0.01876517615871643,
        0.016204045197029643, 0.012797001836038538, 0.00714962272078292,
        0.0, 0.0,
    ],
}


@pytest.fixture(scope="module")
def view():
    g = sample_permutation_model(300, 20, stream(50, 0))
    return ResolventView(build_H(g))


class TestDensityMass:
    def test_full_support_is_one(self):
        assert abs(density_mass(-2, 2, d=3) - 1.0) < 1e-9
        assert abs(density_mass(-2, 2, d=40) - 1.0) < 1e-9

    def test_symmetric_half(self):
        assert abs(density_mass(-2, 0, d=3) - 0.5) < 1e-9
        assert abs(density_mass(0, 2, d=4) - 0.5) < 1e-9

    def test_clipped_outside_support(self):
        assert density_mass(2.5, 3.0, d=3) == 0.0
        assert abs(density_mass(-10, 10, d=3) - 1.0) < 1e-9

    def test_matches_midpoint_rule(self):
        x = np.linspace(0.3, 1.1, 200001)
        for d in (3, 40):
            ref = np.trapezoid(kesten_mckay_density(x, d), x)
            assert abs(density_mass(0.3, 1.1, d=d) - ref) < 1e-8

    def test_order_validated(self):
        with pytest.raises(InvalidParametersError):
            density_mass(1.0, 0.0, d=3)

    def test_degree_validated(self):
        for d in (1, 0):
            with pytest.raises(InvalidParametersError):
                density_mass(0.0, 1.0, d=d)

    def test_density_mass_matches_quadrature(self):
        edges = [-2.2 + k * 0.1 for k in range(45)]
        for d, masses in QUADRATURE_MASSES.items():
            # quad is the less accurate side at d = 2, where the arcsine
            # density is unbounded at the edges
            tol = 1e-12 if d == 2 else 1e-13
            got = [density_mass(a, b, d) for a, b in zip(edges, edges[1:])]
            assert np.abs(np.subtract(got, masses)).max() < tol, d


class TestIntervalCount:
    def test_counts_match_density(self, view):
        (count,) = interval_counts(view.eigenvalues, [-0.5, 0.5])
        nu = count / view.n
        assert 0 <= nu <= 1
        assert abs(nu - density_mass(-0.5, 0.5, d=20)) < 0.1

    def test_degenerate_interval(self, view):
        assert interval_counts(view.eigenvalues, [0.5, 0.5]).tolist() == [0]
        assert density_mass(0.5, 0.5, d=20) == 0.0

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
        # bit-equal to the largest |v_alpha(i)|
        assert stats["max_inf_norm"] == np.abs(view.eigenvectors).max()
        assert stats["max_inf_norm"] >= n ** -0.5 - 1e-12
        assert stats["normalized"] == n * stats["max_inf_norm"] ** 2
        assert stats["max_ratio"] == pytest.approx(
            stats["normalized"] / (4 * math.log(n)), rel=1e-15)
        v4 = (view.eigenvectors ** 4).sum()
        assert stats["fourth"] == pytest.approx(
            (v4 - 1) * n * (n + 1) / (2 * (n - 1) * (n - 2)), rel=1e-12)
        # delocalized at this size, on the Gaussian scale
        assert stats["max_ratio"] <= MAX_RATIO_GATE
        assert stats["fourth"] <= FOURTH_GATE


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


class TestQueStatistic:
    def test_small_for_delocalized_vectors(self, view):
        stats = que_statistics(view, 50)
        assert stats.shape == (view.n,)
        assert que_ratio(stats, 50) <= QUE_GATE

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


class TestNullModel:
    """Haar-random orthonormal bases of e-perp plus e/sqrt(N): the fourth
    moment and the mean square of que_ratio have null mean 1 at every N."""

    @staticmethod
    def haar_view(n: int, rng):
        # QR of [e, Gaussian columns] with the signs of R's diagonal: the
        # first column is e/sqrt(N) and the rest are Haar on e-perp
        g = rng.standard_normal((n, n))
        g[:, 0] = 1.0
        q, r = np.linalg.qr(g)
        return SimpleNamespace(n=n, eigenvectors=q * np.sign(np.diag(r)))

    @pytest.mark.parametrize("n, size, draws", [(4, 1, 4000), (10, 3, 4000),
                                                (40, 20, 1000),
                                                (100, 7, 400)])
    def test_null_mean_is_one(self, n, size, draws):
        rng = stream(53, n)
        fourth, que2 = np.empty(draws), np.empty(draws)
        for k in range(draws):
            view = self.haar_view(n, rng)
            assert np.allclose(view.eigenvectors[:, 0], n ** -0.5,
                               rtol=0, atol=1e-15)
            fourth[k] = delocalization_stats(view)["fourth"]
            que2[k] = que_ratio(que_statistics(view, size), size) ** 2
        for sample in (fourth, que2):
            err = sample.std(ddof=1) / math.sqrt(draws)
            assert abs(sample.mean() - 1) <= 3 * err, (sample.mean(), err)
