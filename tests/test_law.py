import math
from dataclasses import fields

import numpy as np
import pytest

from regg.errors import InsufficientDataError, InvalidParametersError
from regg.graphs import sample_permutation_model
from regg.law import (LawRecord, SweepPlan, fit_envelope_constant, law_sweep,
                      read_table, write_law_csv, write_table)
from regg.rng import stream
from regg.spectral import (ResolventView, build_H, default_xi, effective_D,
                           f_envelope, m_semicircle)

from oracles import resolvent_solve


@pytest.fixture(scope="module")
def small_sweep():
    plan = SweepPlan(e_grid=(0.0, 1.0), eta_grid=(1.0, 0.5), samples=2)
    return plan, law_sweep(plan, "permutation", 100, 10, seed=3)


class TestSweepPlan:
    def test_dyadic_etas(self):
        assert SweepPlan.dyadic_etas(64 / 2000) == (
            1.0, 0.5, 0.25, 0.125, 0.0625)
        assert SweepPlan.dyadic_etas(0.9, eta_max=2.0) == (2.0, 1.0)
        # halving would never fall below these bounds
        for eta_min, eta_max in ((0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0),
                                 (math.inf, 1.0), (0.1, math.inf),
                                 (0.1, math.nan)):
            with pytest.raises(InvalidParametersError):
                SweepPlan.dyadic_etas(eta_min, eta_max)

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
        _, records = small_sweep
        g = sample_permutation_model(100, 10, stream(3, 0))
        z = 1.0 + 0.5j
        oracle = resolvent_solve(build_H(g), z)
        m = m_semicircle(z)
        rec = next(r for r in records
                   if r.trial == 0 and r.E == 1.0 and r.eta == 0.5)
        assert rec.max_diag_err == pytest.approx(
            float(np.abs(oracle.diagonal() - m).max()), abs=1e-13)
        assert rec.s_minus_m == pytest.approx(
            abs(oracle.diagonal().mean() - m), abs=1e-13)
        i, j = np.triu_indices(100, k=1)  # N <= EXHAUSTIVE_N: every pair
        assert rec.max_offdiag == pytest.approx(
            float(np.abs(oracle[i, j]).max()), abs=1e-13)

    def test_errors_bounded_by_envelopes(self, small_sweep):
        # at eta >= 0.5 the statistics sit far inside the saturated envelope
        _, records = small_sweep
        for r in records:
            assert r.max_diag_err <= 10 * r.f_xi_phi
            assert r.s_minus_m <= 10 * r.f_xi_phi


#: (trial, E, eta, max_diag_err, max_offdiag, s_minus_m, phi, f_xi_phi)
#: of law_sweep(_RECORDED_PLAN, "permutation", 300, 10, seed=11), recorded
#: with the single complex matrix product per grid that preceded the blocked
#: real evaluator; the two agree to rounding, not to the last bit
_RECORDED_PLAN = SweepPlan(e_grid=(-1.9, 0.0, 0.7),
                           eta_grid=(1.0, 0.0625, 0.00390625), samples=2)
_RECORDED = [
    (0, -1.9, 1.0, 0.13976840354043, 0.2442355878040416, 0.01191101944937037, 0.3739627929358005, 1.0),
    (0, -1.9, 0.0625, 1.0469756888176887, 1.104909553914123, 0.07855793007425435, 0.5471678736926882, 1.0),
    (0, -1.9, 0.00390625, 5.080539464031497, 5.554430869994454, 0.54176149603267, 1.239988196720239, 1.0),
    (0, 0.0, 1.0, 0.252872191463241, 0.31660501657023865, 0.0240882940269033, 0.3739627929358005, 1.0),
    (0, 0.0, 0.0625, 0.8406587578913985, 0.8983269648282759, 0.06085639267473863, 0.5471678736926882, 1.0),
    (0, 0.0, 0.00390625, 3.199526790977468, 3.3801163345272656, 0.3320082553769247, 1.239988196720239, 1.0),
    (0, 0.7, 1.0, 0.269819098751932, 0.3183831063930483, 0.024866365032704132, 0.3739627929358005, 1.0),
    (0, 0.7, 0.0625, 1.1855238478017636, 0.9040760014017454, 0.11557573133786316, 0.5471678736926882, 1.0),
    (0, 0.7, 0.00390625, 3.581758482707479, 3.808636371875813, 0.4577690993195816, 1.239988196720239, 1.0),
    (1, -1.9, 1.0, 0.1355688355406047, 0.23798026024835542, 0.01541351437700997, 0.3739627929358005, 1.0),
    (1, -1.9, 0.0625, 0.9225733541332403, 0.9721603404329411, 0.13293560201464172, 0.5471678736926882, 1.0),
    (1, -1.9, 0.00390625, 4.719954015194039, 4.731976898518932, 0.2963798614538843, 1.239988196720239, 1.0),
    (1, 0.0, 1.0, 0.2552569054731254, 0.31086578467961073, 0.02443898421371725, 0.3739627929358005, 1.0),
    (1, 0.0, 0.0625, 0.8457912563720348, 0.8390192983133149, 0.036892496796660484, 0.5471678736926882, 1.0),
    (1, 0.0, 0.00390625, 5.973966090126476, 5.785984186335159, 0.8504081647898563, 1.239988196720239, 1.0),
    (1, 0.7, 1.0, 0.25936944764978853, 0.3038780688755976, 0.02293264701591077, 0.3739627929358005, 1.0),
    (1, 0.7, 0.0625, 0.9055104018315033, 0.8222153325559459, 0.105626351653803, 0.5471678736926882, 1.0),
    (1, 0.7, 0.00390625, 4.379727416641342, 4.54422059881132, 0.634744240529064, 1.239988196720239, 1.0),
]


class TestRecordedValues:
    def test_sweep_matches_recorded_values(self):
        records = law_sweep(_RECORDED_PLAN, "permutation", 300, 10, seed=11)
        assert len(records) == len(_RECORDED)
        for r, (trial, E, eta, *values) in zip(records, _RECORDED):
            assert (r.trial, r.E, r.eta) == (trial, E, eta)
            got = [r.max_diag_err, r.max_offdiag, r.s_minus_m, r.phi,
                   r.f_xi_phi]
            assert got == pytest.approx(values, rel=1e-12, abs=0)


class TestUniformEnvelopes:
    def test_envelopes_use_the_uniform_D(self):
        # uniform (100, 12): D = N^2/d^3 = 5.79 lies between 1 and d, and
        # the sampler is the switching chain; the recorded table above
        # covers only the permutation model, where D = d
        n, d = 100, 12
        D = n * n / d ** 3
        assert 1 < D < d
        plan = SweepPlan(e_grid=(-2.1, 0.0, 1.5), eta_grid=(1.0, 0.01),
                         samples=1)
        records = law_sweep(plan, "uniform", n, d, seed=7)
        assert len(records) == 6
        for r in records:
            z = complex(r.E, r.eta)
            phi = 1 / math.sqrt(n * r.eta) + 1 / math.sqrt(D)
            assert r.phi == phi
            assert r.f_xi_phi == f_envelope(z, min(1.0, default_xi(n) * phi))


class TestDyadicScan:
    def test_ratios_bounded(self):
        # Gamma = max(1, max |G_ij|) along the ladder eta_k = N / 2^k,
        # k <= 4 log2 N: each halving of eta may at most double Gamma
        n = 200  # <= EXHAUSTIVE_N: the maximum runs over every pair
        g = sample_permutation_model(n, 10, stream(5, 0))
        view = ResolventView(build_H(g))
        etas = n / 2.0 ** np.arange(int(4 * math.log2(n)) + 1)
        diag, off = view.grid(0.2 + 1j * etas)
        gammas = np.maximum(1.0, np.maximum(np.abs(diag).max(axis=0),
                                            np.abs(off).max(axis=0)))
        assert np.all(gammas[1:] / gammas[:-1] <= 2.0 + 1e-12)


class TestFitConstant:
    def test_basic_fit(self, small_sweep):
        plan, records = small_sweep
        out = fit_envelope_constant(records)
        assert out["records_used"] == len(records)
        assert 0 < out["C_diag"] < 10
        assert 0 < out["C_offdiag"] < 10
        assert 0 < out["C_s"] < 10

    def test_offdiag_against_each_records_xi(self, small_sweep):
        # a record is fitted against default_xi of its own N: records
        # relabelled N = 400, with max_offdiag scaled by the ratio of the
        # two xi, fit the same C_offdiag
        _, records = small_sweep
        ratio = default_xi(400) / default_xi(100)
        moved = [LawRecord(**{**r.__dict__, "N": 400,
                              "max_offdiag": r.max_offdiag * ratio})
                 for r in records]
        assert fit_envelope_constant(moved)["C_offdiag"] == pytest.approx(
            fit_envelope_constant(records)["C_offdiag"], rel=1e-12)

    def test_excludes_flagged(self, small_sweep):
        # relabelled uniform (100, 30): D = N^2/d^3 = 0.37, so the fit
        # drops every record, and drops only those when mixed with the rest
        _, records = small_sweep
        low = [LawRecord(**{**r.__dict__, "model": "uniform", "d": 30})
               for r in records]
        assert effective_D(100, 30, "uniform") < 1
        with pytest.raises(InsufficientDataError,
                           match="uniform model, effective D = 0.3704"):
            fit_envelope_constant(low)
        assert fit_envelope_constant(low + records) == \
            fit_envelope_constant(records)


def read_records(path):
    """The LawRecords of a law CSV, read back through read_table."""
    columns, rows = read_table(str(path), "law")
    assert columns == [f.name for f in fields(LawRecord)]
    parse = {f.name: {"int": int, "float": float, "str": str}[f.type]
             for f in fields(LawRecord)}
    return [LawRecord(**{c: parse[c](v) for c, v in zip(columns, row)})
            for row in rows]


class TestCsv:
    def test_law_round_trip(self, small_sweep, tmp_path):
        _, records = small_sweep
        path = tmp_path / "law.csv"
        write_law_csv(records, str(path))
        assert read_records(path) == records

    def test_byte_stable(self, small_sweep, tmp_path):
        _, records = small_sweep
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_law_csv(records, str(a))
        write_law_csv(read_records(a), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "x.csv"
        # v1, the law CSV with psi and flag columns, and v2, before the
        # eigen CSVs dropped their bound columns, are rejected too
        for version in ("v0", "v1", "v2"):
            path.write_text(f"# regg-csv {version} law\nmodel\n")
            with pytest.raises(InvalidParametersError):
                read_table(str(path), "law")
        path.write_text("no header\n")
        with pytest.raises(InvalidParametersError):
            read_table(str(path), "law")

    def test_generic_table_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(str(path), "scan", ["a", "b"], [[1, 0.5], [2, 0.25]])
        cols, rows = read_table(str(path), "scan")
        assert cols == ["a", "b"]
        assert rows == [["1", "0.5"], ["2", "0.25"]]
        with pytest.raises(InvalidParametersError):
            read_table(str(path), "law")
