import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regg import graphs, switchings
from regg.errors import (InvalidMoveError, InvalidParametersError,
                         NumericalDegeneracyError)
from regg.graphs import (Matching, MultiGraph, Permutation,
                         enumerate_simple_regular, random_matching,
                         random_permutation, sample_uniform)
from regg.rng import stream
from regg.switchings import (TripleSelection, mm_resample, mm_switch,
                             pivot_edges, pm_switch, triple_space_flags,
                             um_resample, um_simultaneous_switch, _unrank_pair)
from regg.spectral import build_H

from oracles import (pm_switch_transpositions, rank_triples, resolvent_solve,
                     switch_pair_table, switchable)


def cycle_graph(n):
    return MultiGraph(n, 2, [min(i, (i + 1) % n) * n + max(i, (i + 1) % n)
                             for i in range(n)])


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

    def test_rejects_out_of_range_points(self):
        # -1 indexes vertex 5, so (-1, 0, 2) would write -1 into the pairing
        m = Matching(np.array([1, 0, 3, 2, 5, 4]))
        for ijk in ((-1, 0, 2), (0, 6, 4), (0, 2, 6)):
            with pytest.raises(InvalidParametersError, match="out of range"):
                mm_switch(m, *ijk)

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
        (flags,) = triple_space_flags([g])
        assert flags.shape == (3, 15)
        assert [len(t) for t in rank_triples(g)] == [15, 15, 15]

    @pytest.mark.parametrize("n, d", [(4, 0), (4, 1), (3, 2)])
    def test_triple_space_flags_needs_admissible_triples(self, n, d):
        # d = 0, or fewer than two edges off the pivot: no triple at all
        every = enumerate_simple_regular(n, d)
        assert every
        with pytest.raises(InvalidParametersError, match="d >= 1|no admissible"):
            list(triple_space_flags(every))

    def test_switch_pair_table_order(self):
        S = ((0, 1), (2, 3), (4, 5))
        table = [
            ((2, 3), (4, 5)), ((2, 3), (5, 4)), ((3, 2), (4, 5)), ((3, 2), (5, 4)),
            ((4, 5), (2, 3)), ((4, 5), (3, 2)), ((5, 4), (2, 3)), ((5, 4), (3, 2)),
        ]
        assert switch_pair_table(S) == table
        # the switch reads entry s - 1 from the bits of s - 1: on the (8, 1)
        # matching {01, 23, 45, 67} the triple S, rank 0 of the non-pivot
        # pairs, switches for every s and removes S's edges for {0, a},
        # {abar, b}, {bbar, 1}
        g = MultiGraph(8, 1, [1, 19, 37, 55])
        assert rank_triples(g)[0][0] == S

        def edges(h):
            return set(zip(*(x.tolist() for x in h.endpoints())))

        for s, ((a, abar), (b, bbar)) in enumerate(table, start=1):
            out = um_simultaneous_switch(g, TripleSelection((0,), (s,)))
            assert out.a == out.alpha == (a,) and out.switched == (True,)
            assert edges(g) - edges(out.graph) == set(S)
            assert edges(out.graph) - edges(g) == {
                tuple(sorted(e)) for e in ((0, a), (abar, b), (bbar, 1))}

    def test_switchable_requires_induced_match(self):
        # A switchable triple spans six distinct vertices whose induced
        # subgraph is exactly the three triple edges.  At n = 6 every triple
        # uses all vertices, so the whole 9-edge graph is induced and no
        # triple is switchable.
        for g in enumerate_simple_regular(6, 3)[:5]:
            (flags,) = triple_space_flags([g])
            assert flags.size == 45 and not flags.any()
        # On larger graphs both outcomes occur.
        g = sample_uniform(12, 3, stream(31, 0))
        (flags,) = triple_space_flags([g])
        assert flags.tolist() == [[switchable(g, S) for S in triples]
                                  for triples in rank_triples(g)]
        assert set(flags.ravel().tolist()) == {True, False}

    def test_switchable_per_graph_matches_one_triple(self, monkeypatch):
        # triple_space_flags decides the triples of several graphs in one
        # _switchable call; each flag must agree with the definition read
        # off the dense adjacency on every triple of every (8, 2) graph (none
        # switchable: d = 2 needs n >= 9) and of (16, 3) samples that have
        # switchable triples.  A cap of 120 triples puts 4 of the 30-triple
        # (8, 2) graphs in a call, so calls end inside the list and the
        # last of its 3507 graphs shares a call with two others; a (16, 3)
        # graph's 630 triples go one graph per call.
        monkeypatch.setattr(switchings, "_SWITCHABLE_BATCH", 120)
        samples = [sample_uniform(16, 3, stream(31, k)) for k in range(3)]
        seen = set()
        for graphs in (enumerate_simple_regular(8, 2), samples):
            rows = triple_space_flags(graphs)
            for g, flags in zip(graphs, rows, strict=True):
                assert flags.tolist() == [[switchable(g, t) for t in triples]
                                          for triples in rank_triples(g)]
                seen.add((g.n, bool(flags.any())))
        assert seen == {(8, False), (16, True)}

    @pytest.mark.parametrize("n, d", [(6, 3), (7, 2), (8, 1)])
    def test_switchable_matches_oracle_on_every_triple(self, n, d):
        # every triple of every simple graph, including those whose edges
        # share a vertex: none switches at (6, 3) and (7, 2), all at (8, 1)
        found = enumerate_simple_regular(n, d)
        triples = [[t for per_edge in rank_triples(g) for t in per_edge]
                   for g in found]
        flags = switchings._switchable(np.stack([g.codes for g in found]),
                                       n, triples)
        assert flags.tolist() == [[switchable(g, t) for t in ts]
                                  for g, ts in zip(found, triples)]

    def test_loop_at_a_triple_vertex_blocks_the_switch(self):
        # a 3-regular multigraph on 10 vertices: the triple's six vertices
        # carry only its three edges and a loop at 0, and the loop counts
        # as a further induced edge
        edges = [(0, 0), (0, 1), (2, 3), (4, 5), (1, 7), (1, 8), (2, 7),
                 (2, 8), (3, 8), (3, 9), (4, 6), (4, 9), (5, 6), (5, 9),
                 (6, 7)]
        g = MultiGraph(10, 3, [x * 10 + y for x, y in edges])
        assert not switchings._switchable(g.codes[np.newaxis], g.n,
                                          [[((0, 1), (2, 3), (4, 5))]])[0, 0]
        # while on the 9-cycle three edges apart the same call finds a
        # switchable triple
        g = cycle_graph(9)
        assert switchings._switchable(g.codes[np.newaxis], g.n,
                                      [[((0, 1), (3, 4), (6, 7))]])[0, 0]


def switch_oracle(g, selection):
    """The simultaneous switch done by hand on the dense adjacency: which
    triples are active, and the adjacency after editing a copy of g.adj
    once per active triple.  A triple is active when its six vertices are
    distinct, induce only its three edges, and meet every other triple's
    vertices in the pivot alone."""
    adj = g.adj.copy()
    triples = [space[k] for space, k in zip(rank_triples(g), selection.ranks)]
    vsets = [{v for e in t for v in e} for t in triples]
    active = []
    for mu, (t, s) in enumerate(zip(triples, selection.s)):
        act = (switchable(g, t)
               and all(vsets[mu] & vsets[nu] <= {0}
                       for nu in range(len(vsets)) if nu != mu))
        active.append(act)
        if act:
            (r,) = [max(e) for e in t if min(e) == 0]
            (a, abar), (b, bbar) = switch_pair_table(t)[s - 1]
            for x, y, delta in ((0, r, -1), (a, abar, -1), (b, bbar, -1),
                                (0, a, 1), (abar, b, 1), (bbar, r, 1)):
                adj[x, y] += delta
                adj[y, x] += delta
    return tuple(active), adj


@pytest.fixture
def replace_calls(monkeypatch):
    """Count MultiGraph._replace_edges calls."""
    calls = []
    replace = MultiGraph._replace_edges

    def counted(self, removed, added):
        calls.append(len(removed))
        return replace(self, removed, added)
    monkeypatch.setattr(MultiGraph, "_replace_edges", counted)
    return calls


class TestSimultaneousSwitch:
    # an active triple needs 5d + 1 vertices; at (60, 4) two or more
    # triples are often active in one step
    def test_preserves_simple_regularity(self, replace_calls):
        rng = stream(22, 0)
        g = sample_uniform(60, 4, rng)
        most = steps_switched = 0
        for _ in range(50):
            out = um_resample(g, rng)
            active, adj = switch_oracle(g, out.selection)
            assert out.switched == active
            assert np.array_equal(out.graph.adj, adj)
            assert (out.graph is g) == (not any(active))
            g = out.graph
            assert g.simple
            assert np.all(g.adj.sum(axis=1) == 4)
            most = max(most, sum(active))
            steps_switched += any(active)
        assert most >= 2
        # one edge replacement per step that switches, none otherwise
        assert len(replace_calls) == steps_switched

    def test_alpha_describes_new_pivot_row(self, replace_calls):
        rng = stream(23, 0)
        g = sample_uniform(60, 4, rng)
        most = 0
        for _ in range(50):
            out = um_resample(g, rng)
            row = np.zeros(g.n, dtype=np.int64)
            for v in out.alpha:
                row[v] += 1
            assert np.array_equal(out.graph.adj[0], row)
            for a_mu, alpha_mu, sw in zip(out.a, out.alpha, out.switched):
                if sw:
                    assert alpha_mu == a_mu
            assert replace_calls == ([3 * sum(out.switched)]
                                     if any(out.switched) else [])
            replace_calls.clear()
            most = max(most, sum(out.switched))
            g = out.graph
        assert most >= 2

    def test_unranked_selection_matches_triple_space(self):
        for m in range(2, 30):
            assert [_unrank_pair(k, m) for k in range(math.comb(m, 2))] == \
                list(itertools.combinations(range(m), 2))
        g = sample_uniform(30, 4, stream(32, 0), method="switching-chain")
        for seed in range(3):
            out = um_resample(g, stream(seed, 5))
            rng = stream(seed, 5)
            ranks = tuple(int(rng.integers(math.comb(56, 2))) for _ in range(4))
            s = tuple(int(rng.integers(1, 9)) for _ in range(4))
            assert out.selection == TripleSelection(ranks, s)

    def test_flag_order_is_rank_order(self):
        # on every rank k, entry [mu, k] of triple_space_flags, the oracle's
        # k-th triple ((0, r), p, q) and the triple the switch unranks
        # agree; the switch's target a is p[0], p[1], q[0], q[1] for
        # s = 1, 3, 5, 7 (flip_a, then swap), so it names both edges.  The
        # (12, 3) sample has switchable and unswitchable triples.
        g = sample_uniform(12, 3, stream(31, 0))
        (flags,) = triple_space_flags([g])
        listing = rank_triples(g)
        m = g.codes.size - 3
        assert flags.shape == (3, math.comb(m, 2))
        for k in range(math.comb(m, 2)):
            targets = [um_simultaneous_switch(
                g, TripleSelection((k,) * 3, (s,) * 3)).a for s in (1, 3, 5, 7)]
            x, y = _unrank_pair(k, m)
            p, q = (divmod(int(c), g.n) for c in g.codes[3 + np.array([x, y])])
            for mu, e in enumerate(pivot_edges(g)):
                assert listing[mu][k] == (e, p, q)
                assert [a[mu] for a in targets] == [*p, *q]
                assert flags[mu, k] == switchable(g, listing[mu][k])

    def test_resample_replay_matches_recorded_hash(self):
        # sha256 over the codes, a, alpha and switched of 100 steps from
        # each of seeds 0-2 at (60, 4), recorded when selections still held
        # edge tuples: pins which numbers um_resample draws, in which order
        h = hashlib.sha256()
        for seed in range(3):
            rng = stream(seed, 0)
            g = sample_uniform(60, 4, rng)
            for _ in range(100):
                out = um_resample(g, rng)
                h.update(out.graph.codes.tobytes())
                h.update(repr((out.a, out.alpha, out.switched)).encode())
                g = out.graph
        assert h.hexdigest() == ("d8703e18dc9ac2902cdcd99d2dd66691"
                                 "a60612c729710a52e717723f70851ee8")

    @pytest.mark.parametrize("g, message", [
        (cycle_graph(3), "no admissible triple at the pivot for n=3, d=2"),
        (MultiGraph(2, 1, [1]),
         "no admissible triple at the pivot for n=2, d=1"),
        (MultiGraph(4, 0, []),
         "the simultaneous switching needs d >= 1, got 0"),
    ])
    def test_resample_without_a_triple_rejected(self, g, message):
        # rejected before anything is drawn
        rng = stream(33, 0)
        with pytest.raises(InvalidParametersError, match=message):
            um_resample(g, rng)
        assert rng.integers(2**62) == stream(33, 0).integers(2**62)

    @pytest.mark.parametrize("codes", [
        [1, 1, 15, 17, 22, 29],  # a double pivot edge, then a 4-cycle
        [1, 3, 8, 15, 28, 35],   # a 4-cycle through the pivot, two loops
    ], ids=["double-edge", "loops"])
    def test_resample_on_a_non_simple_graph_rejected(self, codes):
        # um_resample reads d from g.deg; the switch's own pivot_edges call
        # still rejects the graph, called directly or through um_resample
        g = MultiGraph(6, 2, codes)
        assert not g.simple
        with pytest.raises(InvalidParametersError,
                           match="needs a simple graph"):
            um_resample(g, stream(33, 0))
        with pytest.raises(InvalidParametersError,
                           match="needs a simple graph"):
            um_simultaneous_switch(g, TripleSelection((0, 0), (1, 1)))

    def test_wrong_triple_count_rejected(self):
        g = enumerate_simple_regular(6, 3)[0]
        with pytest.raises(InvalidMoveError, match="one triple per pivot edge"):
            um_simultaneous_switch(g, TripleSelection((0,), (1,)))
        with pytest.raises(InvalidParametersError, match="one switch index"):
            TripleSelection((0, 0, 0), (1, 1))

    @pytest.mark.parametrize("ranks, error, message", [
        ((0, 15, 0), InvalidMoveError, r"below C\(6, 2\)"),
        ((15, 15, 15), InvalidMoveError, r"below C\(6, 2\)"),
        ((0, -1, 0), InvalidParametersError, "non-negative"),
    ], ids=["one-too-large", "all-too-large", "negative"])
    def test_rank_range_enforced(self, ranks, error, message):
        # (6, 3): six non-pivot edges, so ranks lie in [0, 15)
        g = enumerate_simple_regular(6, 3)[0]
        um_simultaneous_switch(g, TripleSelection((14, 0, 7), (1, 1, 1)))
        with pytest.raises(error, match=message):
            um_simultaneous_switch(g, TripleSelection(ranks, (1, 1, 1)))

    def test_switch_index_range_enforced(self):
        with pytest.raises(InvalidParametersError):
            TripleSelection((0, 0, 0), (0, 1, 1))
        with pytest.raises(InvalidParametersError):
            TripleSelection((0, 0, 0), (1, 9, 1))


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

    def test_matches_four_transpositions(self):
        # every input at n = 5: 3! pivot-fixing permutations, 5 * 4^3 moves
        for tail in itertools.permutations(range(2, 5)):
            pi = Permutation(np.array([1, 0, *tail]))
            for a_plus in range(5):
                for rest in itertools.product(range(1, 5), repeat=3):
                    assert np.array_equal(
                        pm_switch(pi, a_plus, *rest).mapping,
                        pm_switch_transpositions(pi.mapping, a_plus, *rest))

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
        a = MultiGraph(out.n, 2, graphs._codes(out.n, np.arange(out.n),
                                               out.mapping)).adj
        assert np.all(a.sum(axis=1) == 2)


def resolvent_delta(h0, h1, z):
    """max_ij |G1_ij(z) - G0_ij(z)| by the direct-solve oracle."""
    return float(np.abs(resolvent_solve(h1, z) - resolvent_solve(h0, z)).max())


class TestResolventSwitchDelta:
    def test_identical_matrices_give_zero(self):
        g = sample_uniform(10, 3, stream(26, 0))
        h = build_H(g)
        assert resolvent_delta(h, h, 1j) == 0.0

    def test_local_move_small_delta(self):
        # G1 - G0 = G1 (H0 - H1) G0, so the change is at most
        # ||H1 - H0|| / eta^2
        rng = stream(27, 0)
        g = sample_uniform(20, 3, rng)
        out = um_resample(g, rng)
        while not any(out.switched):
            out = um_resample(g, rng)
        h0 = build_H(g)
        h1 = build_H(out.graph)
        dmax = resolvent_delta(h0, h1, 2 + 1j)
        assert 0.0 < dmax < 2.0
        # build_H writes the upper triangles; the norm is the symmetric one
        diff = np.triu(h1 - h0)
        assert dmax <= np.linalg.norm(diff + np.triu(diff, 1).T, 2) + 1e-12

    def test_real_z_rejected(self):
        g = sample_uniform(10, 3, stream(28, 0))
        h = build_H(g)
        with pytest.raises(NumericalDegeneracyError):
            resolvent_solve(h, 2.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), steps=st.integers(1, 10))
def test_um_resample_preserves_invariants_property(seed, steps):
    rng = stream(seed, 7)
    g = sample_uniform(60, 4, rng)
    for _ in range(steps):
        out = um_resample(g, rng)
        active, adj = switch_oracle(g, out.selection)
        assert out.switched == active
        assert np.array_equal(out.graph.adj, adj)
        g = out.graph
    assert g.simple
    assert np.all(g.adj.sum(axis=1) == 4)


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
