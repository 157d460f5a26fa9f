import itertools
import math
from collections import Counter

import numpy as np
import pytest

from regg import graphs as graphs_mod
from regg import invariance
from regg.errors import BudgetExceededError, InvalidParametersError
from regg.graphs import enumerate_simple_regular
from regg.invariance import (_uniform_report, mc_pivot_tv, mm_exact_invariance,
                             pm_exact_uniformity, um_exact_invariance)
from regg.switchings import (ResampleOutcome, TripleSelection,
                             um_simultaneous_switch)

from oracles import rank_triples, switchable, um_alpha_match_rate


class TestAllMatchings:
    # the matching check enumerates its pairings as the 1-regular graphs
    def test_counts(self):
        for n, count in ((2, 1), (4, 3), (6, 15), (8, 105), (10, 945)):
            graphs = enumerate_simple_regular(n, 1)
            assert len(graphs) == len(set(graphs)) == count
            assert all(g.simple and g.codes.size == n // 2 for g in graphs)

    def test_pairings_are_the_edges(self):
        # the matching check's pairing of each 1-regular graph
        for g in enumerate_simple_regular(8, 1):
            p = invariance._pairing(g).pairing
            i, j = g.endpoints()
            assert (p[i] == j).all() and (p[j] == i).all()

    def test_odd_rejected(self):
        assert enumerate_simple_regular(5, 1) == []
        with pytest.raises(InvalidParametersError):
            mm_exact_invariance(5)


class TestMatchingInvariance:
    def test_n4_exact(self):
        rep = mm_exact_invariance(4)
        assert rep.exact_equal
        assert rep.total_inputs == 3 * 9
        assert rep.counts["per_state"] == [9]

    def test_n6_exact(self):
        rep = mm_exact_invariance(6)
        assert rep.exact_equal
        assert rep.total_inputs == 15 * 25
        assert rep.counts["per_state"] == [25]


class TestUniformInvariance:
    def test_n6_d3_exact_with_detailed_balance(self):
        rep = um_exact_invariance(6, 3)
        assert rep.exact_equal
        assert rep.detailed_balance
        assert rep.states == 70
        assert rep.counts["off_state_mass"] == 0
        assert rep.total_inputs == 70 * 15**3 * 8**3

    def test_n6_d3_never_switches(self):
        # A switchable triple spans six distinct vertices with no further
        # edge among them.  At n = 6 those six vertices are the whole graph,
        # which has 3 * 6 / 2 = 9 edges, not 3, so no triple of any of the
        # 70 graphs switches: the exact check at (6, 3) sees an identity
        # transition matrix and tests the bookkeeping, not the switching.
        graphs = enumerate_simple_regular(6, 3)
        assert len(graphs) == 70
        assert not any(switchable(g, t) for g in graphs
                       for triples in rank_triples(g) for t in triples)

    def test_n8_d1_switches_every_selection(self):
        # A perfect matching induces no edge besides its own, so every
        # triple at d = 1 is switchable and every selection switches.
        for g in enumerate_simple_regular(8, 1):
            (triples,) = rank_triples(g)
            for k, t in enumerate(triples):
                assert switchable(g, t)
                for s in range(1, 9):
                    out = um_simultaneous_switch(g, TripleSelection((k,), (s,)))
                    assert out.switched == (True,) and out.graph != g
        rep = um_exact_invariance(8, 1)
        assert rep.exact_equal
        assert rep.detailed_balance
        assert rep.states == 105
        assert rep.total_inputs == 105 * 3 * 8 == 2520
        assert rep.counts["per_state"] == [24, 24]
        assert rep.counts["off_state_mass"] == 0

    def test_n8_d2_exact_report(self):
        # no triple switches at d = 2 below n = 9: every selection is idle
        rep = um_exact_invariance(8, 2)
        assert rep.exact_equal
        assert rep.detailed_balance
        assert rep.states == 3507
        assert rep.total_inputs == 3507 * 15**2 * 8**2
        assert rep.counts["per_state"] == [14400, 14400]
        assert rep.counts["off_state_mass"] == 0

    @pytest.mark.parametrize("n, d, states, per_state", [
        (6, 1, 15, 8),
        (6, 2, 70, 2304),
        (7, 2, 465, 6400),
    ])
    def test_small_exact_reports(self, n, d, states, per_state):
        # recorded when selections still held edge tuples; at (6, 1) every
        # selection switches, at d = 2 none does
        rep = um_exact_invariance(n, d)
        assert rep.summary() == {
            "model": "uniform", "n": n, "d": d, "method": "exact",
            "total_inputs": states * per_state, "states": states,
            "exact_equal": True, "detailed_balance": True}
        assert rep.counts == {"per_state": [per_state, per_state],
                              "expected": per_state, "off_state_mass": 0}

    @pytest.mark.parametrize("n, d", [(4, 1), (2, 1), (6, 0), (5, 3), (4, 4)])
    def test_no_admissible_triple_rejected(self, n, d):
        with pytest.raises(InvalidParametersError):
            um_exact_invariance(n, d)


def test_unswitchable_graph_counted_idle(monkeypatch):
    """A graph with no switchable triple is counted as all C(m, 2)^d of its
    selections idle, with no call to the switch: no (8, 2) graph has one."""
    calls = []
    monkeypatch.setattr(invariance, "um_simultaneous_switch",
                        lambda *args: calls.append(args))
    rep = um_exact_invariance(8, 2)
    assert not calls
    assert rep.counts["per_state"] == [math.comb(8 - 2, 2) ** 2 * 8**2] * 2
    assert rep.exact_equal and rep.detailed_balance


def test_mixed_flags_switch_each_selection_once(monkeypatch):
    """With some picks switchable, the selections with none are counted
    idle and every other one reaches the switch exactly once, with all
    indices 1 when it activates no triple.  Every (6, 2) graph is given the
    same flags, 2 and 1 switchable ranks of 6, so 5 * 4 = 20 of its 36
    selections are idle."""
    flags = np.zeros((2, 6), dtype=bool)
    flags[0, [0, 3]] = flags[1, 5] = True
    monkeypatch.setattr(invariance, "triple_space_flags",
                        lambda graphs: (flags for _ in graphs))
    calls = Counter()

    def idle_switch(g, selection):
        calls[g, selection.ranks, selection.s] += 1
        return ResampleOutcome(g, (0, 0), (0, 0), (False, False), selection)
    monkeypatch.setattr(invariance, "um_simultaneous_switch", idle_switch)
    rep = um_exact_invariance(6, 2)
    graphs = enumerate_simple_regular(6, 2)
    assert set(calls) == {
        (g, ranks, (1, 1)) for g in graphs
        for ranks in itertools.product(range(6), repeat=2)
        if flags[0, ranks[0]] or flags[1, ranks[1]]}
    assert len(calls) == 70 * 16 and set(calls.values()) == {1}
    assert rep.exact_equal and rep.counts["per_state"] == [36 * 64] * 2


def test_simplicity_decided_once_per_graph(monkeypatch):
    """Every (8, 1) selection switches, each a call of the public switch,
    which checks that its graph is simple; MultiGraph.simple keeps the
    answer, so the check runs once for each of the 105 graphs."""
    calls = []
    simple = graphs_mod._simple
    monkeypatch.setattr(graphs_mod, "_simple",
                        lambda *args: calls.append(args) or simple(*args))
    rep = um_exact_invariance(8, 1)
    assert len(calls) == rep.states == 105
    assert rep.exact_equal and rep.detailed_balance


@pytest.mark.parametrize("check, args", [
    (um_exact_invariance, (8, 3)),
    (um_exact_invariance, (10, 2)),
    (mm_exact_invariance, (14,)),
    (pm_exact_uniformity, (9,)),
], ids=["uniform-8-3", "uniform-10-2", "matching-14", "permutation-9"])
def test_unenumerable_size_rejected(check, args):
    with pytest.raises(BudgetExceededError):
        check(*args)


def test_uniform_report_needs_every_state_equally_often():
    """The matching and permutation checks' tally fails on uneven counts
    and on a state never reached."""
    rep = _uniform_report("matching", 4, 1, 2, "abab")
    assert rep.exact_equal and rep.total_inputs == 4
    assert rep.counts == {"per_state": [2], "expected": 2}
    rep = _uniform_report("matching", 4, 1, 2, "aab")
    assert not rep.exact_equal and rep.counts["per_state"] == [1, 2]
    assert not _uniform_report("matching", 4, 1, 3, "aabb").exact_equal


class TestPermutationUniformity:
    def test_n4_exact(self):
        rep = pm_exact_uniformity(4)
        assert rep.exact_equal
        assert rep.states == 24
        assert rep.total_inputs == 2 * 4 * 27
        assert rep.counts["per_state"] == [9]


class TestMonteCarloReports:
    def test_matching_pivot_tv_small(self):
        tv = mc_pivot_tv("matching", 20, 1, seed=3, samples=4000)
        assert 0.0 <= tv < 0.2

    def test_unknown_model_rejected(self):
        with pytest.raises(InvalidParametersError):
            mc_pivot_tv("configuration", 10, 3, seed=0, samples=10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matching_needs_degree_one(self, d):
        # the move resamples one perfect matching, whatever d asks for
        with pytest.raises(InvalidParametersError, match="acts on d = 1"):
            mc_pivot_tv("matching", 6, d, seed=0, samples=10)

    def test_alpha_match_rate_high(self):
        # targeted neighbour realized with probability 1 - C*d/n; the
        # dominant miss cause is two triples sharing a non-pivot vertex
        # (prob ~ 25/n per pair), so C ~ 17 empirically
        rate = um_alpha_match_rate(200, 8, seed=5, trials=60)
        assert rate >= 1 - 20 * 8 / 200

    def test_alpha_match_rate_needs_a_trial(self):
        with pytest.raises(InvalidParametersError, match="at least 1 trial"):
            um_alpha_match_rate(200, 8, seed=5, trials=0)
