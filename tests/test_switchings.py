import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regg.errors import (InvalidMoveError, InvalidParametersError,
                         NumericalDegeneracyError)
from regg.graphs import (Matching, MultiGraph, Permutation,
                         enumerate_simple_regular, permutation_pair_matrix,
                         random_matching, random_permutation,
                         sample_uniform)
from regg.rng import stream
from regg.switchings import (DirectedEdgeSpec, TripleSelection, delta,
                             double_switch, mm_resample, mm_switch,
                             pivot_edges, pm_switch, resolvent_switch_delta,
                             single_switch, switch_pair_table, triple_space,
                             um_resample, um_simultaneous_switch,
                             um_switchable, _unrank_pair)
from regg.spectral import build_H


def cycle_graph(n):
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        adj[i, (i + 1) % n] += 1
        adj[(i + 1) % n, i] += 1
    return MultiGraph.from_adjacency(n, 2, adj)


class TestDelta:
    def test_edge(self):
        a = delta(0, 2, 3)
        assert a[0, 2] == a[2, 0] == 1 and a.sum() == 2

    def test_loop_counts_two(self):
        a = delta(1, 1, 3)
        assert a[1, 1] == 2 and a.sum() == 2

    def test_range_check(self):
        with pytest.raises(InvalidParametersError):
            delta(0, 3, 3)


class TestSingleSwitch:
    def test_basic_replacement(self):
        g = cycle_graph(6)
        out = single_switch(g, DirectedEdgeSpec(r=0, rbar=1, a=3, abar=4))
        assert out.adj[0, 1] == 0 and out.adj[3, 4] == 0
        assert out.adj[1, 3] == 1 and out.adj[0, 4] == 1
        assert np.all(out.adj.sum(axis=1) == 2)

    def test_identity_when_not_distinct(self):
        g = cycle_graph(6)
        out = single_switch(g, DirectedEdgeSpec(r=0, rbar=1, a=1, abar=2))
        assert out is g

    def test_missing_edge_rejected(self):
        g = cycle_graph(6)
        with pytest.raises(InvalidMoveError):
            single_switch(g, DirectedEdgeSpec(r=0, rbar=3, a=1, abar=2))

    def test_double_spec_rejected(self):
        g = cycle_graph(6)
        with pytest.raises(InvalidParametersError):
            single_switch(g, DirectedEdgeSpec(0, 1, 2, 3, 4, 5))


class TestDoubleSwitch:
    def test_equals_two_singles(self):
        g = cycle_graph(8)
        spec = DirectedEdgeSpec(r=0, rbar=1, a=3, abar=4, b=6, bbar=7)
        out = double_switch(g, spec)
        step1 = single_switch(g, DirectedEdgeSpec(r=0, rbar=1, a=3, abar=4))
        step2 = single_switch(step1, DirectedEdgeSpec(r=0, rbar=4, a=6, abar=7))
        assert np.array_equal(out.adj, step2.adj)

    def test_identity_when_not_distinct(self):
        g = cycle_graph(8)
        out = double_switch(g, DirectedEdgeSpec(r=0, rbar=1, a=3, abar=4, b=4, bbar=5))
        assert out is g

    def test_single_spec_rejected(self):
        g = cycle_graph(8)
        with pytest.raises(InvalidParametersError):
            double_switch(g, DirectedEdgeSpec(0, 1, 2, 3))


class TestMatchingSwitch:
    def test_new_pairs(self):
        m = Matching(np.array([1, 0, 3, 2, 5, 4]))
        out = mm_switch(m, 0, 2, 4)
        # new pairs {0,2}, {m(2)=3, 4}, {m(4)=5, m(0)=1}
        assert out.pairing[0] == 2 and out.pairing[3] == 4 and out.pairing[5] == 1

    def test_identity_when_degenerate(self):
        m = Matching(np.array([1, 0, 3, 2, 5, 4]))
        assert mm_switch(m, 0, 1, 4) is m  # j = m(0)
        assert mm_switch(m, 0, 2, 3) is m  # k = m(j)

    def test_resample_sets_pivot_partner(self):
        rng = stream(21, 0)
        m = random_matching(10, rng)
        out, a, b = mm_resample(m, rng)
        assert 1 <= a < 10 and 1 <= b < 10
        assert np.array_equal(out.pairing[out.pairing], np.arange(10))
        if len({0, a, b, int(m.pairing[0]), int(m.pairing[a]), int(m.pairing[b])}) == 6:
            assert out.pairing[0] == a


class TestTripleMachinery:
    def test_pivot_edges_ordered(self):
        g = enumerate_simple_regular(6, 3)[0]
        pe = pivot_edges(g)
        assert len(pe) == 3 and all(e[0] == 0 for e in pe)
        assert pe == sorted(pe)

    def test_triple_space_size(self):
        # 3-regular on 6 vertices: 9 edges, 6 off-pivot, C(6,2)=15 per pivot edge
        g = enumerate_simple_regular(6, 3)[0]
        space = triple_space(g)
        assert len(space) == 3
        assert all(len(t) == 15 for t in space)

    def test_switch_pair_table_order(self):
        S = ((0, 1), (2, 3), (4, 5))
        table = switch_pair_table(S)
        assert table == [
            ((2, 3), (4, 5)), ((2, 3), (5, 4)), ((3, 2), (4, 5)), ((3, 2), (5, 4)),
            ((4, 5), (2, 3)), ((4, 5), (3, 2)), ((5, 4), (2, 3)), ((5, 4), (3, 2)),
        ]

    def test_switchable_requires_induced_match(self):
        # A switchable triple spans six distinct vertices whose induced
        # subgraph is exactly the three triple edges.  At n = 6 every triple
        # uses all vertices, so the whole 9-edge graph is induced and no
        # triple is switchable.
        for g in enumerate_simple_regular(6, 3)[:5]:
            for space in triple_space(g):
                assert not any(um_switchable(g, S) for S in space)
        # On larger graphs both outcomes occur.
        g = sample_uniform(12, 3, stream(31, 0))
        seen = set()
        for space in triple_space(g):
            for S in space:
                ok = um_switchable(g, S)
                seen.add(ok)
                verts = sorted({v for e in S for v in e})
                if len(verts) < 6:
                    assert not ok
                if ok:
                    assert g.adj[np.ix_(verts, verts)].sum() == 6
        assert seen == {True, False}

    def test_switchable_rejects_non_edges(self):
        g = enumerate_simple_regular(6, 3)[0]
        with pytest.raises(InvalidMoveError):
            um_switchable(g, (((0, 1), (0, 1), (2, 3))))


class TestSimultaneousSwitch:
    def test_preserves_simple_regularity(self):
        rng = stream(22, 0)
        g = sample_uniform(12, 3, rng)
        for _ in range(50):
            out = um_resample(g, rng)
            g = out.graph
            assert g.simple
            assert np.all(g.adj.sum(axis=1) == 3)

    def test_alpha_describes_new_pivot_row(self):
        rng = stream(23, 0)
        g = sample_uniform(14, 4, rng)
        for _ in range(50):
            out = um_resample(g, rng)
            row = np.zeros(g.n, dtype=np.int64)
            for v in out.alpha:
                row[v] += 1
            assert np.array_equal(out.graph.adj[0], row)
            for a_mu, alpha_mu, sw in zip(out.a, out.alpha, out.switched):
                if sw:
                    assert alpha_mu == a_mu
            g = out.graph

    def test_unranked_selection_matches_triple_space(self):
        for m in range(2, 30):
            assert [_unrank_pair(k, m) for k in range(math.comb(m, 2))] == \
                list(itertools.combinations(range(m), 2))
        g = sample_uniform(30, 4, stream(32, 0), method="switching-chain")
        for seed in range(3):
            out = um_resample(g, stream(seed, 5))
            rng = stream(seed, 5)
            space = triple_space(g)
            triples = tuple(t[int(rng.integers(len(t)))] for t in space)
            s = tuple(int(rng.integers(1, 9)) for _ in space)
            assert out.selection == TripleSelection(triples, s)

    def test_wrong_triple_count_rejected(self):
        g = enumerate_simple_regular(6, 3)[0]
        space = triple_space(g)
        sel = TripleSelection((space[0][0],), (1,))
        with pytest.raises(InvalidMoveError):
            um_simultaneous_switch(g, sel)

    def test_triple_missing_pivot_edge_rejected(self):
        g = enumerate_simple_regular(6, 3)[0]
        space = triple_space(g)
        bad = (space[1][0], space[1][0], space[2][0])
        with pytest.raises(InvalidMoveError):
            um_simultaneous_switch(g, TripleSelection(bad, (1, 1, 1)))

    def test_switch_index_range_enforced(self):
        g = enumerate_simple_regular(6, 3)[0]
        space = triple_space(g)
        with pytest.raises(InvalidParametersError):
            TripleSelection(tuple(t[0] for t in space), (0, 1, 1))
        with pytest.raises(InvalidParametersError):
            TripleSelection(tuple(t[0] for t in space), (1, 9, 1))


class TestPermutationSwitch:
    def test_requires_pivot_two_cycle(self):
        pi = Permutation(np.array([2, 0, 1, 3]))
        with pytest.raises(InvalidMoveError):
            pm_switch(pi, 2, 2, 3, 3)

    def test_targets_image_and_preimage(self):
        n = 8
        rng = stream(24, 0)
        for _ in range(200):
            sigma = random_permutation(n - 2, rng)
            mapping = np.concatenate(([1, 0], np.asarray(sigma.mapping) + 2))
            pi = Permutation(mapping)
            a_plus, a_minus, b_plus, b_minus = (int(v) for v in
                                                rng.integers(2, n, size=4))
            out = pm_switch(pi, a_plus, a_minus, b_plus, b_minus)
            assert np.array_equal(np.sort(out.mapping), np.arange(n))
            if len({0, 1, a_plus, a_minus, b_plus, b_minus}) == 6:
                assert out.mapping[0] == a_plus
                assert out.mapping[a_minus] == 0

    def test_identity_choice_returns_same_mapping(self):
        pi = Permutation(np.array([1, 0, 3, 2]))
        out = pm_switch(pi, 1, 1, 1, 1)
        assert np.array_equal(out.mapping, pi.mapping)

    def test_range_validation(self):
        pi = Permutation(np.array([1, 0, 3, 2]))
        with pytest.raises(InvalidParametersError):
            pm_switch(pi, 4, 1, 1, 1)
        with pytest.raises(InvalidParametersError):
            pm_switch(pi, 1, 0, 1, 1)

    def test_degree_preserved_in_adjacency(self):
        rng = stream(25, 0)
        pi = Permutation(np.array([1, 0, 3, 2, 5, 4]))
        out = pm_switch(pi, 3, 4, 2, 5)
        a = permutation_pair_matrix(out)
        assert np.all(a.sum(axis=1) == 2)


class TestResolventSwitchDelta:
    def test_identical_matrices_give_zero(self):
        g = sample_uniform(10, 3, stream(26, 0))
        h = build_H(g, "uniform").entries
        assert resolvent_switch_delta(h, h, 1j) == 0.0

    def test_local_move_small_delta(self):
        rng = stream(27, 0)
        g = sample_uniform(20, 3, rng)
        out = um_resample(g, rng)
        h0 = build_H(g, "uniform").entries
        h1 = build_H(out.graph, "uniform").entries
        dmax = resolvent_switch_delta(h0, h1, 2 + 1j)
        assert 0.0 <= dmax < 2.0

    def test_real_z_rejected(self):
        g = sample_uniform(10, 3, stream(28, 0))
        h = build_H(g, "uniform").entries
        with pytest.raises(NumericalDegeneracyError):
            resolvent_switch_delta(h, h, 2.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), steps=st.integers(1, 10))
def test_um_resample_preserves_invariants_property(seed, steps):
    rng = stream(seed, 7)
    g = sample_uniform(10, 3, rng)
    for _ in range(steps):
        g = um_resample(g, rng).graph
    assert g.simple
    assert np.all(g.adj.sum(axis=1) == 3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_mm_switch_preserves_involution_property(seed):
    rng = stream(seed, 8)
    m = random_matching(12, rng)
    i, j, k = (int(v) for v in rng.integers(0, 12, size=3))
    out = mm_switch(m, i, j, k)
    p = out.pairing
    assert np.array_equal(p[p], np.arange(12))
    assert np.all(p != np.arange(12))
