import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from regg import graphs
from regg.errors import BudgetExceededError, InvalidParametersError
from regg.graphs import (Matching, ModelKind, MultiGraph, Permutation,
                         enumerate_simple_regular, from_edgelist,
                         random_matching, sample_configuration_model,
                         sample_matching_model, sample_model,
                         sample_permutation_model, sample_uniform,
                         to_edgelist, uniform_method)
from regg.rng import stream

from oracles import chain_burn_in, simple_rows


def assert_model_invariants(g: MultiGraph, loops_ok: bool, multi_ok: bool):
    assert np.array_equal(g.adj, g.adj.T)
    assert np.all(np.diag(g.adj) % 2 == 0)
    assert np.all(g.adj.sum(axis=1) == g.deg)
    if not loops_ok:
        assert np.all(np.diag(g.adj) == 0)
    if not multi_ok:
        assert g.adj.max() <= 1


class TestMultiGraph:
    def test_adjacency_readonly(self):
        g = MultiGraph(2, 1, [1])
        with pytest.raises(ValueError):
            g.adj[0, 1] = 5

    def test_codes_validated(self):
        assert MultiGraph(2, 1, [1]).simple  # code 0*2 + 1: the edge {0, 1}
        for codes in ([2], [4], [-1]):  # i > j, out of range
            with pytest.raises(InvalidParametersError):
                MultiGraph(2, 1, codes)

    def test_rejects_wrong_degree(self):
        # a loop at 0 at d = 1; one edge on 2 vertices at d = 2
        for d, codes in ((1, [0]), (2, [1])):
            with pytest.raises(InvalidParametersError):
                MultiGraph(2, d, codes)

    def test_unchecked_builds_checked_in_tests(self):
        # conftest's checked_builds builds every _built value again with its
        # validating constructor: a valid graph's unsorted codes differ from
        # the sorted ones MultiGraph(...) reads, and a pairing with fixed
        # points is refused
        codes = np.array([2 * 4 + 3, 0 * 4 + 1])
        assert MultiGraph._built(4, 1, np.sort(codes)) == MultiGraph(4, 1, codes)
        with pytest.raises(AssertionError, match="MultiGraph._built"):
            MultiGraph._built(4, 1, codes)
        with pytest.raises(InvalidParametersError):
            Matching._built(np.array([0, 1]))
        with pytest.raises(InvalidParametersError):
            Permutation._built(np.array([1, 1]))

    def test_equality_and_hash(self):
        g = sample_permutation_model(30, 4, stream(7, 0))
        same = sample_permutation_model(30, 4, stream(7, 0))
        other = sample_permutation_model(30, 4, stream(7, 1))
        assert g == same and hash(g) == hash(same)
        assert g != other
        assert g != g.edge_key()
        counts = {g: 1}
        counts[same] = counts.get(same, 0) + 1
        counts[other] = counts.get(other, 0) + 1
        assert counts == {g: 2, other: 1}

    def test_matching_and_permutation_equality_and_hash(self):
        # by content, like MultiGraph: the dataclass default compared the
        # arrays inside a tuple and raised, and could not hash them
        for cls, a, b in ((Matching, [1, 0, 3, 2], [2, 3, 0, 1]),
                          (Permutation, [1, 2, 0], [2, 0, 1])):
            x, same, other = (cls(np.array(a)), cls(np.array(a)),
                              cls(np.array(b)))
            assert x == same and hash(x) == hash(same)
            assert x != other
            assert {x: 1, same: 2, other: 3} == {x: 2, other: 3}
        assert random_matching(6, stream(3, 0)) == random_matching(
            6, stream(3, 0))
        assert Matching(np.array([1, 0])) != Permutation(np.array([1, 0]))

    def test_simple_flag(self):
        assert MultiGraph(2, 1, [1]).simple
        assert not MultiGraph(2, 2, [1, 1]).simple  # a double edge
        assert not MultiGraph(1, 2, [0]).simple  # a loop

    def test_simple_rows(self):
        # the rejection sampler above n = 128 tests a block of sorted code
        # rows at once; each row's flag must be the one MultiGraph.simple
        # gives
        rows = [sample_configuration_model(6, 3, stream(s, 0)).codes
                for s in range(20)]
        rows += [g.codes for g in enumerate_simple_regular(6, 3)[:5]]
        flags = graphs._simple(np.stack(rows), 6)
        assert flags.tolist() == [MultiGraph(6, 3, r).simple for r in rows]
        assert set(flags.tolist()) == {True, False}


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
        a = MultiGraph(3, 2, graphs._codes(3, np.arange(3), sigma.mapping)).adj
        assert np.array_equal(a, 2 * np.eye(3, dtype=np.int64))

    def test_five_cycle_gives_c5(self):
        sigma = Permutation(np.array([1, 2, 3, 4, 0]))
        a = MultiGraph(5, 2, graphs._codes(5, np.arange(5), sigma.mapping)).adj
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

    def test_only_small_stub_layouts_cached(self, monkeypatch):
        # a plan whose layout holds more than _REJECTION_STUBS stubs is
        # built once per sampler call and dropped with it; a smaller one is
        # kept; the configuration model shuffles its own stubs
        built = []
        plan = graphs._rejection_plan
        monkeypatch.setattr(graphs, "_rejection_plan",
                            lambda *args: built.append(args) or plan(*args))
        graphs._cached_plan.cache_clear()
        sample_configuration_model(200, 100, stream(5, 0))  # 20 000 stubs
        # seed 5 draws 3 blocks of one pairing each at (9000, 2)
        sample_uniform(9000, 2, stream(5, 0), method="rejection")
        sample_uniform(9000, 2, stream(5, 0), method="rejection")
        assert built == [(9000, 2), (9000, 2)]
        assert graphs._cached_plan.cache_info().currsize == 0
        sample_configuration_model(20, 3, stream(5, 0))
        assert graphs._cached_plan.cache_info().currsize == 0
        sample_uniform(20, 3, stream(5, 0), method="rejection")
        assert graphs._cached_plan.cache_info().currsize == 1
        layout = graphs._cached_plan(20, 3)  # the entry just cached
        assert graphs._cached_plan.cache_info().hits == 1
        assert layout.shape[1] == 60 and not layout.flags.writeable
        assert (layout == np.repeat(np.arange(20), 3)).all()

    @pytest.mark.parametrize("n,d", [(6, 3), (128, 1), (129, 1), (9000, 2)])
    def test_rejection_plan_is_one_small_array(self, n, d):
        # O(n*d) memory: one block of at most _REJECTION_STUBS stubs, or a
        # single row when n*d is larger
        layout = graphs._rejection_plan(n, d)
        assert isinstance(layout, np.ndarray) and layout.shape[1] == n * d
        assert layout.size <= max(graphs._REJECTION_STUBS, n * d)


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

    def test_rejection_budget_counts_every_pairing(self, monkeypatch):
        # Seed 2 draws no simple pairing among its first 8 at (6, 3).  A
        # block holds 15 rows there, so a budget counted in blocks would
        # go on to about a hundred pairings and almost surely find one.
        with monkeypatch.context() as patch:
            patch.setattr(graphs, "REJECTION_TRIES", 8)
            with pytest.raises(BudgetExceededError, match="in 8 tries"):
                sample_uniform(6, 3, stream(2, 0), method="rejection")
        assert sample_uniform(6, 3, stream(2, 0), method="rejection").simple

    def test_switching_chain_output_simple(self):
        g = sample_uniform(24, 10, stream(8, 0), method="switching-chain")
        assert g.simple
        assert_model_invariants(g, loops_ok=False, multi_ok=False)

    def test_circulant_start_simple_regular(self):
        # the chain's start at every (n, d) sample_uniform admits: d < n
        # and n*d even
        for n in range(1, 64):
            for d in range(0, n, 1 if n % 2 == 0 else 2):
                codes = graphs._circulant_simple(n, d)
                assert np.array_equal(codes, np.sort(codes))
                assert MultiGraph(n, d, codes).simple

    def test_method_rule(self):
        # rejection needs about exp((d^2 - 1)/4) tries whatever n is
        assert uniform_method(6, 3) == uniform_method(1000, 6) == "rejection"
        assert uniform_method(2000, 8) == "switching-chain"
        assert uniform_method(100, 20) == "switching-chain"
        with pytest.raises(BudgetExceededError):
            uniform_method(2000, 8, "rejection")
        with pytest.raises(BudgetExceededError):
            sample_uniform(2000, 8, stream(0, 0), method="rejection")

    def test_chain_needs_three_edges(self):
        # 2 and 1 edges: no proposal of three distinct edges exists
        for n in (4, 2):
            with pytest.raises(InvalidParametersError, match="at least 3 edges"):
                sample_uniform(n, 1, stream(0, 0), method="switching-chain")

    def test_chain_makes_ten_nd_proposals(self, monkeypatch):
        rows = []
        draw = graphs._chain_proposals

        def counted(m, moves, rng):
            for idx, flip in draw(m, moves, rng):
                rows.append(len(idx))
                yield idx, flip

        monkeypatch.setattr(graphs, "_chain_proposals", counted)
        sample_uniform(24, 10, stream(8, 0), method="switching-chain")
        assert sum(rows) == 10 * 24 * 10

    def test_chain_codes_golden(self):
        # pins the chain's kernel and its random-number use at (200, 8)
        g = sample_uniform(200, 8, stream(0, 0), method="switching-chain")
        digest = hashlib.sha256(g.codes.tobytes()).hexdigest()
        assert digest.startswith("d35212b5d71389d6")

    def test_rejection_draws_golden(self):
        # 1000 consecutive draws at (6, 3) from one stream, as the resample
        # benchmark makes them: 277 of their 1277 blocks hold no simple row
        rng = stream(3, 1)
        h = hashlib.sha256()
        for _ in range(1000):
            h.update(sample_uniform(6, 3, rng, method="rejection").codes.tobytes())
        assert h.hexdigest() == (
            "55d795998ddbea28e4af45c13124d5dc1d27ba634c0215cf0596144660d84f7d")

    def test_rejection_draws_golden_without_table(self):
        # 20 consecutive draws at (200, 3) from one stream, a size whose
        # blocks hold 15 pairings each
        rng = stream(4, 2)
        h = hashlib.sha256()
        for _ in range(20):
            h.update(sample_uniform(200, 3, rng, method="rejection").codes.tobytes())
        assert h.hexdigest() == (
            "0378cd724d863e6ed27c4c97652731d5daf926d53aa297399f4ad7b0d5d01445")

    def test_seed_determinism(self):
        g1 = sample_uniform(20, 3, stream(9, 0))
        g2 = sample_uniform(20, 3, stream(9, 0))
        assert np.array_equal(g1.adj, g2.adj)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 16), d=st.integers(1, 6), seed=st.integers(0, 2**32),
       moves=st.integers(0, 700))
def test_chain_matches_set_oracle_property(n, d, seed, moves):
    # moves above _CHAIN_BLOCK = 256 cross blocks of proposals
    assume(d < n and (n * d) % 2 == 0 and n * d >= 6)
    start = graphs._circulant_simple(n, d)
    got = graphs._chain_burn_in(start, n, stream(seed, 0), moves)
    assert got == chain_burn_in(start, n, stream(seed, 0), moves)


def test_simple_matches_set_oracle():
    # small code ranges, so that loops and repeats are common; code 0 is
    # the loop at vertex 0
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8):
        for shape in ((0,), (1,), (6,), (40, 0), (40, 1), (40, 4), (3, 10, 3)):
            codes = np.sort(rng.integers(n * n, size=shape), axis=-1)
            got = graphs._simple(codes, n)
            assert np.array_equal(got, simple_rows(codes, n))
            assert np.shape(got) == shape[:-1]
        loop = np.array([0, n + 2, 2 * n + 3]) if n > 3 else np.array([0])
        assert not graphs._simple(loop, n)
        assert graphs._simple(loop[1:], n)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3, 5, 8, 128, 129, 300]),
       k=st.integers(0, 6), rows=st.integers(1, 5))
def test_block_simplicity_matches_set_oracle_property(data, n, k, rows):
    # rows of k stub pairs (d = 0 at k = 0) over a few vertices, so that
    # repeated edges are common, each row with up to two loops put in
    vertex = st.sampled_from(sorted({0, 1 % n, n // 2, n - 1}))
    block = []
    for _ in range(rows):
        pairs = [data.draw(st.tuples(vertex, vertex)) for _ in range(k)]
        for at in data.draw(st.lists(st.integers(0, max(k - 1, 0)),
                                     max_size=min(k, 2), unique=True)):
            pairs[at] = (w := data.draw(vertex), w)
        block.append([x for pair in pairs for x in pair])
    stubs = np.array(block, dtype=np.int64).reshape(rows, 2 * k)
    codes, simple = graphs._block_codes(n, stubs)
    u, v = stubs[:, 0::2], stubs[:, 1::2]
    want = np.sort(np.minimum(u, v) * n + np.maximum(u, v), axis=1)
    assert np.array_equal(simple, simple_rows(want, n))
    assert np.array_equal(codes[simple], want[simple])


class TestChainProposals:
    """The switching chain's proposal kernel at m = 5 edges: 60 ordered
    triples of distinct edges, each with three orientation bits."""

    M, MOVES = 5, 30000

    @pytest.fixture(scope="class")
    def blocks(self):
        return list(graphs._chain_proposals(self.M, self.MOVES, stream(12, 0)))

    def test_exactly_moves_rows_in_bounded_blocks(self, blocks):
        assert sum(len(idx) for idx, _ in blocks) == self.MOVES
        assert all(len(idx) == len(flip) <= graphs._CHAIN_BLOCK
                   for idx, flip in blocks)

    def test_no_repeated_edge(self, blocks):
        idx = np.concatenate([idx for idx, _ in blocks])
        assert np.all((idx[:, 0] != idx[:, 1]) & (idx[:, 0] != idx[:, 2])
                      & (idx[:, 1] != idx[:, 2]))

    def test_uniform_over_ordered_triples(self, blocks):
        idx = np.concatenate([idx for idx, _ in blocks])
        counts = np.bincount((idx[:, 0] * self.M + idx[:, 1]) * self.M + idx[:, 2],
                             minlength=self.M**3)
        triples = [(a * self.M + b) * self.M + c
                   for a, b, c in itertools.permutations(range(self.M), 3)]
        assert len(triples) == 60 and counts.sum() == counts[triples].sum()
        _, p = chisquare(counts[triples])
        assert p > 0.001

    def test_orientation_bits_fair(self, blocks):
        flip = np.concatenate([flip for _, flip in blocks])
        assert set(np.unique(flip)) <= {0, 1}
        _, p = chisquare(np.bincount(flip @ [4, 2, 1], minlength=8))
        assert p > 0.001


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

    # labeled simple d-regular graphs: OEIS A001205 (d = 2), A002829 (d = 3)
    @pytest.mark.parametrize("n, d, count", [(7, 2, 465), (8, 2, 3507),
                                             (8, 3, 19355)])
    def test_counts_match_oeis(self, n, d, count):
        found = enumerate_simple_regular(n, d)
        codes = np.stack([g.codes for g in found])
        assert len({c.tobytes() for c in codes}) == len(found) == count
        assert graphs._simple(codes, n).all()
        i, j = np.divmod(codes, n)
        rows = np.arange(count)[:, np.newaxis]
        degrees = np.zeros((count, n), dtype=np.int64)
        np.add.at(degrees, (rows, i), 1)
        np.add.at(degrees, (rows, j), 1)
        assert (degrees == d).all()

    def test_order_golden(self):
        # um_exact_invariance indexes graphs in this order
        found = enumerate_simple_regular(8, 2)
        digest = hashlib.sha256(b"".join(g.codes.tobytes() for g in found))
        assert digest.hexdigest().startswith("aa5a134e69532cb6")

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
        # the chain draws its proposals in blocks (graphs._chain_proposals):
        # one integers(m, size=(B, 3)) and one integers(2, size=(B, 3)) call
        # per block of B <= _CHAIN_BLOCK = 256 rows
        ("uniform", 24, 10, "switching-chain"):
            "b19c479f0f767487ec2e677f5b46371cdf12154fc962a8b061b693e71ce995ed",
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
        # fields that are not integers, and vertex counts below 1
        for text in ("x 3 matching 0\n", "2 1 configuration x\n",
                     "2 1 configuration 0\n0 1 x\n",
                     "2 1 configuration 0\n0 1 1.5\n",
                     "0 3 matching 0\n", "-2 3 matching 0\n"):
            with pytest.raises(InvalidParametersError):
                from_edgelist(text)
        for n in (0, -2):
            with pytest.raises(InvalidParametersError):
                MultiGraph(n, 3, [])

    @pytest.mark.parametrize("text, message", [
        ("2 1 c 0\n0 1 1\n", "unknown model 'c'"),
        ("2 2 matching 0\n0 0 1\n1 1 1\n", "matching graph with a loop"),
        ("2 2 uniform 0\n0 0 1\n1 1 1\n", "loop or a multi-edge"),
        ("4 2 uniform 0\n0 1 2\n2 3 2\n", "loop or a multi-edge"),
        ("2 0 matching 0\n", "matching model needs d >= 1"),
    ], ids=["unknown-model", "matching-loops", "uniform-loops",
            "uniform-multi-edges", "matching-degree-0"])
    def test_rejects_graph_its_model_cannot_produce(self, text, message):
        with pytest.raises(InvalidParametersError, match=message):
            from_edgelist(text)
        # the configuration model has every such graph
        head, rest = text.split("\n", 1)
        n, d, _, seed = head.split()
        from_edgelist(f"{n} {d} configuration {seed}\n{rest}")

    def test_rejects_parity_violation(self):
        for text in ("3 1 matching 0\n", "3 1 permutation 0\n",
                     "3 1 uniform 0\n", "3 1 configuration 0\n"):
            with pytest.raises(InvalidParametersError, match="needs"):
                from_edgelist(text)

    def test_loops_serialized_once_with_loop_count(self):
        g = MultiGraph(2, 2, [0, 3])  # a loop at 0 and a loop at 1
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


@pytest.mark.parametrize("model", ["matching", "permutation", "configuration"])
def test_sample_model_method_needs_uniform_model(model):
    for method in ("rejection", "switching-chain", "chain"):
        with pytest.raises(InvalidParametersError,
                           match="applies to the uniform model only"):
            sample_model(model, 4, 2, stream(11, 0), method=method)
    g = sample_model(model, 4, 2, stream(11, 0), method="auto")
    assert g == sample_model(model, 4, 2, stream(11, 0))
