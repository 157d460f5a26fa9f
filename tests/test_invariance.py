import itertools
import math
from collections import Counter

import pytest

from regg.errors import BudgetExceededError, InvalidParametersError
from regg.graphs import enumerate_simple_regular
from regg.invariance import (_split_selections, _uniform_report,
                             all_matchings, mc_pivot_tv, mm_exact_invariance,
                             pm_exact_uniformity, um_exact_invariance)
from regg.switchings import (TripleSelection, triple_space, triple_space_flags,
                             um_simultaneous_switch)

from oracles import switchable, um_alpha_match_rate


class TestAllMatchings:
    def test_counts(self):
        assert len(all_matchings(2)) == 1
        assert len(all_matchings(4)) == 3
        assert len(all_matchings(6)) == 15
        assert len(all_matchings(8)) == 105

    def test_odd_rejected(self):
        with pytest.raises(InvalidParametersError):
            all_matchings(5)


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
                       for triples in triple_space(g) for t in triples)

    def test_n8_d1_switches_every_selection(self):
        # A perfect matching induces no edge besides its own, so every
        # triple at d = 1 is switchable and every selection switches.
        for g in enumerate_simple_regular(8, 1):
            (triples,) = triple_space(g)
            for t in triples:
                assert switchable(g, t)
                for s in range(1, 9):
                    out = um_simultaneous_switch(g, TripleSelection((t,), (s,)))
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

    @pytest.mark.parametrize("n, d", [(4, 1), (2, 1), (6, 0), (5, 3), (4, 4)])
    def test_no_admissible_triple_rejected(self, n, d):
        with pytest.raises(InvalidParametersError):
            um_exact_invariance(n, d)


@pytest.mark.parametrize("flags", [
    [[True, False, False], [False, True], [True, True, False, False]],
    [[False, True, False], [False, False, False], [True]],
    [[False, False], [False]],
    [[True], [True, True]],
    [[False, True, True, False, True]],
    [[False, True], []],
], ids=["mixed", "one-forced", "none-switchable", "all-switchable",
        "one-pivot", "empty-pivot"])
def test_split_selections(flags):
    """Idle selections are counted, the others each enumerated once."""
    space = [[(f"t{mu}{k}", sw) for k, sw in enumerate(row)]
             for mu, row in enumerate(flags)]
    idle, active = _split_selections(space)
    active = Counter(active)
    assert idle + sum(active.values()) == math.prod(len(row) for row in flags)
    assert set(active.values()) <= {1}
    assert set(active) == {sel for sel in itertools.product(*space)
                           if any(sw for _, sw in sel)}


def test_unswitchable_graph_counted_idle():
    """A graph with no switchable triple is counted as all C(m, 2)^d of its
    selections idle, the count _split_selections gives its flagged space."""
    graphs = enumerate_simple_regular(8, 2)
    (flags,) = triple_space_flags(graphs[:1])
    assert not flags.any()
    it = iter(flags.tolist())
    space = [[(t, next(it)) for t in triples] for triples in triple_space(graphs[0])]
    idle, active = _split_selections(space)
    assert idle == math.comb(8 - 2, 2) ** 2 and not list(active)


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

    def test_alpha_match_rate_high(self):
        # targeted neighbour realized with probability 1 - C*d/n; the
        # dominant miss cause is two triples sharing a non-pivot vertex
        # (prob ~ 25/n per pair), so C ~ 17 empirically
        rate = um_alpha_match_rate(200, 8, seed=5, trials=60)
        assert rate >= 1 - 20 * 8 / 200

    def test_alpha_match_rate_needs_a_trial(self):
        with pytest.raises(InvalidParametersError, match="at least 1 trial"):
            um_alpha_match_rate(200, 8, seed=5, trials=0)
