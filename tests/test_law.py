import numpy as np
import pytest

from regg.errors import InsufficientDataError, InvalidParametersError
from regg.graphs import sample_permutation_model
from regg.law import (LawRecord, SweepPlan, dyadic_scan, fit_envelope_constant,
                      law_sweep, read_law_csv, read_table, records_for_view,
                      write_law_csv, write_table)
from regg.rng import stream
from regg.spectral import (EnvelopeParams, ResolventView, build_H, default_xi,
                           m_semicircle)


@pytest.fixture(scope="module")
def small_sweep():
    plan = SweepPlan(e_grid=(0.0, 1.0), eta_grid=(1.0, 0.5), samples=2,
                     offdiag_pairs=200)
    return plan, law_sweep(plan, "permutation", 100, 10, seed=3)


class TestSweepPlan:
    def test_dyadic_etas(self):
        assert SweepPlan.dyadic_etas(64 / 2000) == (
            1.0, 0.5, 0.25, 0.125, 0.0625)
        assert SweepPlan.dyadic_etas(0.9, eta_max=2.0) == (2.0, 1.0)

    def test_validation(self):
        with pytest.raises(InvalidParametersError):
            SweepPlan(e_grid=(), eta_grid=(1.0,), samples=1)
        with pytest.raises(InvalidParametersError):
            SweepPlan(e_grid=(0.0,), eta_grid=(-1.0,), samples=1)
        with pytest.raises(InvalidParametersError):
            SweepPlan(e_grid=(0.0,), eta_grid=(1e-12,), samples=1)
        with pytest.raises(InvalidParametersError):
            SweepPlan(e_grid=(0.0,), eta_grid=(1.0,), samples=0)


class TestSweep:
    def test_record_count_and_grid(self, small_sweep):
        plan, records = small_sweep
        assert len(records) == 2 * 2 * 2
        assert {(r.E, r.eta) for r in records} == {
            (0.0, 1.0), (0.0, 0.5), (1.0, 1.0), (1.0, 0.5)}
        assert {r.trial for r in records} == {0, 1}

    def test_deterministic(self, small_sweep):
        plan, records = small_sweep
        again = law_sweep(plan, "permutation", 100, 10, seed=3)
        assert again == records

    def test_statistics_match_view_oracle(self, small_sweep):
        plan, records = small_sweep
        g = sample_permutation_model(100, 10, stream(3, 0))
        view = ResolventView(build_H(g, "permutation"),
                             offdiag_pairs=plan.offdiag_pairs, pair_seed=3)
        z = 1.0 + 0.5j
        m = m_semicircle(z)
        rec = next(r for r in records
                   if r.trial == 0 and r.E == 1.0 and r.eta == 0.5)
        assert rec.max_diag_err == pytest.approx(
            float(np.abs(view.diag(z) - m).max()), abs=1e-13)
        assert rec.s_minus_m == pytest.approx(
            abs(view.stieltjes(z) - m), abs=1e-13)
        i, j = np.triu_indices(100, k=1)  # N <= EXHAUSTIVE_N: every pair
        assert rec.max_offdiag == pytest.approx(
            float(np.abs(view.entries(z, i, j)).max()), abs=1e-13)

    def test_flags_present_at_desk_scale(self, small_sweep):
        # xi = (log 100)^2 = 21.2 makes xi*Phi > 1 on this grid
        _, records = small_sweep
        assert all("xiPhi>1" in r.flag for r in records)
        assert all("D<1" not in r.flag for r in records)

    def test_errors_bounded_by_envelopes(self, small_sweep):
        # at eta >= 0.5 the statistics sit far inside the saturated envelope
        _, records = small_sweep
        for r in records:
            assert r.max_diag_err <= 10 * r.f_xi_phi
            assert r.s_minus_m <= 10 * r.f_xi_phi


class TestDyadicScan:
    def test_ratios_bounded(self):
        g = sample_permutation_model(200, 10, stream(5, 0))
        view = ResolventView(build_H(g, "permutation"), offdiag_pairs=500)
        out = dyadic_scan(view, 0.2)
        assert out["pass"]
        assert out["etas"][0] == 200.0
        assert len(out["etas"]) == len(out["gammas"])
        assert max(out["ratios"]) <= 2.0 + 1e-12

    def test_k_max_capped(self):
        g = sample_permutation_model(100, 10, stream(6, 0))
        view = ResolventView(build_H(g, "permutation"), offdiag_pairs=100)
        with pytest.raises(InvalidParametersError):
            dyadic_scan(view, 0.0, k_max=1000)


class TestFitConstant:
    def test_basic_fit(self, small_sweep):
        plan, records = small_sweep
        xi = default_xi(100)
        out = fit_envelope_constant(records, xi)
        assert out["records_used"] == len(records)
        assert 0 < out["C_diag"] < 10
        assert 0 < out["C_offdiag"] < 10
        assert 0 < out["C_s"] < 10

    def test_excludes_flagged(self, small_sweep):
        _, records = small_sweep
        flagged = [LawRecord(**{**r.__dict__, "flag": "D<1"}) for r in records]
        with pytest.raises(InsufficientDataError):
            fit_envelope_constant(flagged, default_xi(100))


class TestCsv:
    def test_law_round_trip(self, small_sweep, tmp_path):
        _, records = small_sweep
        path = tmp_path / "law.csv"
        write_law_csv(records, str(path))
        assert read_law_csv(str(path)) == records

    def test_byte_stable(self, small_sweep, tmp_path):
        _, records = small_sweep
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_law_csv(records, str(a))
        write_law_csv(read_law_csv(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# regg-csv v0 law\nmodel\n")
        with pytest.raises(InvalidParametersError):
            read_law_csv(str(path))
        path.write_text("no header\n")
        with pytest.raises(InvalidParametersError):
            read_law_csv(str(path))

    def test_generic_table_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(str(path), "scan", ["a", "b"], [[1, 0.5], [2, 0.25]])
        cols, rows = read_table(str(path), "scan")
        assert cols == ["a", "b"]
        assert rows == [["1", "0.5"], ["2", "0.25"]]
        with pytest.raises(InvalidParametersError):
            read_table(str(path), "law")
