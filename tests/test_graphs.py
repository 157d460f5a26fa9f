import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from regg.errors import BudgetExceededError, InvalidParametersError
from regg.graphs import (Matching, ModelKind, MultiGraph, Permutation,
                         enumerate_simple_regular, from_edgelist,
                         permutation_pair_matrix, random_matching,
                         sample_configuration_model, sample_matching_model,
                         sample_model, sample_permutation_model,
                         sample_uniform, to_edgelist, uniform_method)
from regg.rng import stream


def assert_model_invariants(g: MultiGraph, loops_ok: bool, multi_ok: bool):
    assert np.array_equal(g.adj, g.adj.T)
    assert np.all(np.diag(g.adj) % 2 == 0)
    assert np.all(g.adj.sum(axis=1) == g.deg)
    if not loops_ok:
        assert np.all(np.diag(g.adj) == 0)
    if not multi_ok:
        assert g.adj.max() <= 1


class TestMultiGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidParametersError):
            MultiGraph.from_adjacency(2, 1, np.array([[0, 1], [0, 0]]))

    def test_rejects_odd_diagonal(self):
        with pytest.raises(InvalidParametersError):
            MultiGraph.from_adjacency(2, 1, np.array([[1, 0], [0, 1]]))

    def test_rejects_wrong_degree(self):
        with pytest.raises(InvalidParametersError):
            MultiGraph.from_adjacency(2, 2, np.array([[0, 1], [1, 0]]))

    def test_adjacency_readonly(self):
        g = MultiGraph.from_adjacency(2, 1, np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError):
            g.adj[0, 1] = 5

    def test_codes_validated(self):
        assert MultiGraph(2, 1, [1]).simple  # code 0*2 + 1: the edge {0, 1}
        for codes in ([2], [4], [-1], [0]):  # i > j, out of range, wrong degree
            with pytest.raises(InvalidParametersError):
                MultiGraph(2, 1, codes)

    def test_simple_flag(self):
        assert MultiGraph.from_adjacency(2, 1, np.array([[0, 1], [1, 0]])).simple
        assert not MultiGraph.from_adjacency(2, 2, np.array([[0, 2], [2, 0]])).simple
        assert not MultiGraph.from_adjacency(1, 2, np.array([[2]])).simple


class TestMatchingModel:
    def test_d1_is_single_matching(self):
        g = sample_matching_model(4, 1, stream(0, 0))
        assert np.all(g.adj.sum(axis=1) == 1)
        assert np.all(np.diag(g.adj) == 0)

    def test_d1_uniform_on_three_matchings(self):
        counts = {}
        rng = stream(11, 0)
        for _ in range(30000):
            m = random_matching(4, rng)
            counts[tuple(m.pairing)] = counts.get(tuple(m.pairing), 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / 30000 - 1 / 3) < 0.01

    def test_invariants(self):
        g = sample_matching_model(4, 2, stream(1, 0))
        assert_model_invariants(g, loops_ok=False, multi_ok=True)
        assert g.adj.max() <= 2

    def test_parity_error(self):
        with pytest.raises(InvalidParametersError):
            sample_matching_model(5, 2, stream(0, 0))


class TestPermutationModel:
    def test_identity_permutation_gives_loops(self):
        sigma = Permutation(np.arange(3))
        a = permutation_pair_matrix(sigma)
        assert np.array_equal(a, 2 * np.eye(3, dtype=np.int64))

    def test_five_cycle_gives_c5(self):
        sigma = Permutation(np.array([1, 2, 3, 4, 0]))
        a = permutation_pair_matrix(sigma)
        expect = np.zeros((5, 5), dtype=np.int64)
        for i in range(5):
            expect[i, (i + 1) % 5] = expect[(i + 1) % 5, i] = 1
        assert np.array_equal(a, expect)

    def test_invariants(self):
        g = sample_permutation_model(30, 6, stream(2, 0))
        assert_model_invariants(g, loops_ok=True, multi_ok=True)

    def test_odd_degree_rejected(self):
        with pytest.raises(InvalidParametersError):
            sample_permutation_model(10, 3, stream(0, 0))


class TestConfigurationModel:
    def test_n2_d1_forced(self):
        g = sample_configuration_model(2, 1, stream(3, 0))
        assert np.array_equal(g.adj, np.array([[0, 1], [1, 0]]))

    def test_n2_d2_double_edge_probability(self):
        double = 0
        trials = 30000
        rng = stream(4, 0)
        for _ in range(trials):
            g = sample_configuration_model(2, 2, rng)
            if g.adj[0, 1] == 2:
                double += 1
        assert abs(double / trials - 2 / 3) < 0.01

    def test_invariants(self):
        g = sample_configuration_model(20, 3, stream(5, 0))
        assert_model_invariants(g, loops_ok=True, multi_ok=True)


class TestUniformModel:
    def test_k4_forced(self):
        g = sample_uniform(4, 3, stream(6, 0))
        assert np.array_equal(g.adj, np.ones((4, 4), dtype=np.int64) - np.eye(4))

    def test_rejection_matches_enumeration(self):
        oracle = {g.edge_key(): 0 for g in enumerate_simple_regular(6, 3)}
        rng = stream(7, 0)
        trials = 70000
        for _ in range(trials):
            g = sample_uniform(6, 3, rng, method="rejection")
            oracle[g.edge_key()] += 1
        assert all(c > 0 for c in oracle.values())
        _, p = chisquare(list(oracle.values()))
        assert p > 0.001

    def test_switching_chain_output_simple(self):
        g = sample_uniform(24, 10, stream(8, 0), method="switching-chain")
        assert g.simple
        assert_model_invariants(g, loops_ok=False, multi_ok=False)

    def test_method_rule(self):
        # rejection needs about exp((d^2 - 1)/4) tries whatever n is
        assert uniform_method(6, 3) == uniform_method(1000, 6) == "rejection"
        assert uniform_method(2000, 8) == "switching-chain"
        assert uniform_method(100, 20) == "switching-chain"
        with pytest.raises(BudgetExceededError):
            uniform_method(2000, 8, "rejection")
        with pytest.raises(BudgetExceededError):
            sample_uniform(2000, 8, stream(0, 0), method="rejection")

    def test_seed_determinism(self):
        g1 = sample_uniform(20, 3, stream(9, 0))
        g2 = sample_uniform(20, 3, stream(9, 0))
        assert np.array_equal(g1.adj, g2.adj)


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_simple_regular(4, 3)) == 1
        assert len(enumerate_simple_regular(4, 1)) == 3
        assert len(enumerate_simple_regular(6, 3)) == 70

    def test_all_distinct_and_valid(self):
        graphs = enumerate_simple_regular(6, 3)
        keys = {g.edge_key() for g in graphs}
        assert len(keys) == 70
        for g in graphs:
            assert g.simple

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_simple_regular(11, 2)

    def test_impossible_cases_empty(self):
        assert enumerate_simple_regular(5, 3) == []  # odd total degree
        assert enumerate_simple_regular(4, 4) == []  # d >= n


class TestSerialization:
    def test_round_trip(self):
        g = sample_configuration_model(12, 4, stream(10, 0))
        text = to_edgelist(g, "configuration", 10)
        back, header = from_edgelist(text)
        assert np.array_equal(back.adj, g.adj)
        assert header == {"n": 12, "d": 4, "model": "configuration", "seed": 10}

    # sha256 of to_edgelist output for stream(11, 0): pins every sampler's
    # random-number use and the serialization byte for byte
    GOLDEN = {
        ("matching", 50, 4, None):
            "32623850f0d7415abed662697965654f2ef0a7d90da54c6ac93534348d2da4dd",
        ("permutation", 50, 4, None):
            "3626c20af26e18a97402e6d82dc052701b0bbe1ef5c8629da9ca5a5a75de1998",
        ("configuration", 50, 4, None):
            "11b19566e5743c9ce06d81b294552d9978864051dc1e1861fb6554112cb2b122",
        ("uniform", 50, 4, "rejection"):
            "b8d936fc874af61a57bf49df90504e3cfd4f4e138e481f9b58ac21e3148413a5",
        ("uniform", 24, 10, "switching-chain"):
            "bf19b38656a9ce9c37048818155dca76911fe68c25c3659a6fc7057f210254dc",
    }

    @pytest.mark.parametrize("key", sorted(GOLDEN, key=str))
    def test_golden_edgelists(self, key):
        model, n, d, method = key
        kwargs = {"method": method} if method else {}
        g = sample_model(model, n, d, stream(11, 0), **kwargs)
        text = to_edgelist(g, model, 11)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[key]

    def test_rejects_out_of_range_vertex(self):
        for line in ("0 2 1", "-1 1 1", "0 1 -1"):
            with pytest.raises(InvalidParametersError):
                from_edgelist(f"2 1 configuration 0\n{line}\n")

    def test_loops_serialized_once_with_loop_count(self):
        g = MultiGraph.from_adjacency(2, 2, np.array([[2, 0], [0, 2]]))
        text = to_edgelist(g, "configuration", 0)
        lines = text.strip().splitlines()
        assert lines[1:] == ["0 0 1", "1 1 1"]
        back, _ = from_edgelist(text)
        assert np.array_equal(back.adj, g.adj)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([6, 8, 10, 12]), d=st.integers(1, 5),
       seed=st.integers(0, 2**32))
def test_matching_model_invariants_property(n, d, seed):
    g = sample_matching_model(n, d, stream(seed, 0))
    assert_model_invariants(g, loops_ok=False, multi_ok=True)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 15), half_d=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_permutation_model_invariants_property(n, half_d, seed):
    g = sample_permutation_model(n, 2 * half_d, stream(seed, 0))
    assert_model_invariants(g, loops_ok=True, multi_ok=True)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_matching_is_involution_property(seed):
    m = random_matching(10, stream(seed, 0))
    assert isinstance(m, Matching)
    assert np.array_equal(m.pairing[m.pairing], np.arange(10))


def test_model_kind_parity_table():
    ModelKind.UNIFORM.check_parity(4, 2)
    with pytest.raises(InvalidParametersError):
        ModelKind.UNIFORM.check_parity(5, 3)
    with pytest.raises(InvalidParametersError):
        ModelKind.PERMUTATION.check_parity(5, 3)
    with pytest.raises(InvalidParametersError):
        ModelKind.MATCHING.check_parity(5, 2)
