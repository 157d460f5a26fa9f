"""Random d-regular graph models.

Samplers for the matching, permutation, configuration and uniform models,
plus an exact enumerator of small simple regular graphs used as an oracle
by the invariance tests.  A graph is stored as the sorted array of its
edge codes i*n + j (i <= j), one entry per edge copy, so storing,
validating and switching cost O(n d) rather than O(n^2); a loop is one
entry and adds two to its vertex's degree.  The only dense matrix here is
MultiGraph.adj, built on demand.

The public constructors MultiGraph(...), Matching(...) and Permutation(...)
validate their input, as from_edgelist does through MultiGraph(...).  An
array the package builds itself, sorted and regular (or an involution, or
a bijection) by construction, goes through the private _built constructor
of its value type instead, which sets the fields and marks the array
read-only with no check.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, InvalidParametersError

__all__ = [
    "ModelKind",
    "MultiGraph",
    "Matching",
    "Permutation",
    "random_matching",
    "random_permutation",
    "sample_matching_model",
    "sample_permutation_model",
    "sample_configuration_model",
    "sample_uniform",
    "sample_model",
    "uniform_method",
    "check_ram",
    "enumerate_simple_regular",
    "to_edgelist",
    "from_edgelist",
]

#: configuration pairings the rejection sampler draws before it gives up
REJECTION_TRIES = 100_000


class ModelKind(str, Enum):
    UNIFORM = "uniform"
    PERMUTATION = "permutation"
    MATCHING = "matching"
    CONFIGURATION = "configuration"

    def check_parity(self, n: int, d: int) -> None:
        """Raise if (n, d) violates the model's constraints: n > 0, d >= 0,
        its parity rule, and d >= 1 for matching."""
        if n <= 0 or d < 0:
            raise InvalidParametersError(f"need n > 0 and d >= 0, got n={n} d={d}")
        if self is ModelKind.UNIFORM and (n * d) % 2:
            raise InvalidParametersError("uniform model needs n*d even")
        if self is ModelKind.PERMUTATION and d % 2:
            raise InvalidParametersError("permutation model needs d even")
        if self is ModelKind.MATCHING and n % 2:
            raise InvalidParametersError("matching model needs n even")
        if self is ModelKind.MATCHING and d < 1:
            raise InvalidParametersError("matching model needs d >= 1")
        if self is ModelKind.CONFIGURATION and (n * d) % 2:
            raise InvalidParametersError("configuration model needs n*d even")


def _codes(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Codes min(u, v) * n + max(u, v) of the edges {u[k], v[k]}, for int64
    arrays u and v, formed in place in the array np.minimum returns."""
    codes = np.minimum(u, v)
    codes *= n
    codes += np.maximum(u, v)
    return codes


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def _simple(codes: np.ndarray, n: int) -> np.ndarray:
    """Whether the sorted edge codes along the last axis hold no loop (a
    loop's code i*n + i is a multiple of n + 1) and no repeated code: one
    flag per row, from one bool array that both tests write into and one
    reduction."""
    ok = codes % (n + 1) != 0
    np.logical_and(ok[..., 1:], codes[..., 1:] != codes[..., :-1],
                   out=ok[..., 1:])
    return np.logical_and.reduce(ok, axis=-1)


def check_ram(need: int, what: str) -> None:
    """Raise InvalidParametersError when `need` bytes, described by `what`,
    would not fit in physical RAM; called before allocating them."""
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        raise InvalidParametersError(
            f"{what}: {need / 1e9:.3g} GB, more than the "
            f"{ram / 1e9:.3g} GB of RAM")


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """A d-regular multigraph on n vertices, stored as its edges.

    Attributes
    ----------
    n : vertex count
    deg : the common degree d (stored, never silently recomputed)
    codes : sorted read-only int64 array of edge codes i*n + j with i <= j,
        one entry per edge copy; a loop at i is one entry i*n + i and adds
        two to the degree of i
    """

    n: int
    deg: int
    codes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InvalidParametersError(f"need n >= 1 vertices, got {n}")
        c = np.sort(np.asarray(self.codes, dtype=np.int64))
        if c.size and (c[0] < 0 or c[-1] >= n * n):
            raise InvalidParametersError(f"edge codes out of range [0, {n * n})")
        i, j = np.divmod(c, n)
        if (i > j).any():
            raise InvalidParametersError("edge codes need i <= j")
        degrees = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
        if not np.all(degrees == self.deg):
            raise InvalidParametersError(
                f"not {self.deg}-regular: degrees range "
                f"[{degrees.min()}, {degrees.max()}]"
            )
        c.flags.writeable = False
        object.__setattr__(self, "codes", c)

    @classmethod
    def _built(cls, n: int, deg: int, codes: np.ndarray) -> "MultiGraph":
        """The graph of `codes`, which the package built: a sorted int64
        array of the edge codes of a deg-regular multigraph on n vertices.
        Marks the array read-only and checks nothing."""
        codes.flags.writeable = False
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "deg", deg)
        object.__setattr__(g, "codes", codes)
        return g

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (i, j), i <= j, of the edge copies in code order."""
        return np.divmod(self.codes, self.n)

    @cached_property
    def simple(self) -> bool:
        """True when there are no loops and no multi-edges; decided on first
        use and kept, as the graph never changes."""
        return bool(_simple(self.codes, self.n))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct edges as arrays (i, j, multiplicity) with i <= j, in
        row-major order; a loop's multiplicity is its loop count."""
        codes, mult = np.unique(self.codes, return_counts=True)
        return (*np.divmod(codes, self.n), mult)

    def _replace_edges(self, removed, added) -> "MultiGraph":
        """This graph with one copy of each edge in `removed` deleted and
        each edge in `added` inserted; vertex pairs may come in either
        order.  Nothing is checked, so the caller guarantees that the
        removed edges are present and distinct and that the edit keeps
        every vertex's degree: each vertex ends as many removed edges as
        added ones."""
        pairs = np.asarray([*removed, *added], dtype=np.int64).reshape(-1, 2)
        codes = _codes(self.n, *pairs.T)
        drop = self.codes.searchsorted(codes[:len(removed)])
        return MultiGraph._built(self.n, self.deg, np.sort(np.concatenate(
            [np.delete(self.codes, drop), codes[len(removed):]])))

    @cached_property
    def adj(self) -> np.ndarray:
        """Read-only int64 adjacency matrix, built on first use, on the
        heap: symmetric, adj[i][i] twice the loop count at i, every row
        summing to deg.  Raises InvalidParametersError before allocating
        when it would not fit in physical RAM."""
        n = self.n
        check_ram(8 * n * n, f"a dense {n}x{n} int64 matrix")
        a = np.zeros((n, n), dtype=np.int64)
        i, j = self.endpoints()
        np.add.at(a, (i, j), 1)
        np.add.at(a, (j, i), 1)
        a.flags.writeable = False
        return a

    def edge_key(self) -> tuple:
        """Hashable identity of the labeled multigraph."""
        return (self.n, self.deg, self.codes.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.edge_key() == other.edge_key()

    def __hash__(self) -> int:
        return hash(self.edge_key())


@dataclass(frozen=True, eq=False)
class Matching:
    """A perfect matching on [0, n), stored as a fixed-point-free
    involution: pairing[pairing[i]] == i and pairing[i] != i."""

    pairing: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.pairing, dtype=np.int64)
        n = p.shape[0]
        if n % 2:
            raise InvalidParametersError("matching needs an even vertex count")
        if not np.array_equal(p[p], np.arange(n)) or (p == np.arange(n)).any():
            raise InvalidParametersError("pairing must be a fixed-point-free involution")
        p.flags.writeable = False
        object.__setattr__(self, "pairing", p)

    @classmethod
    def _built(cls, pairing: np.ndarray) -> "Matching":
        """The matching of `pairing`, an int64 fixed-point-free involution
        the package built.  Marks it read-only and checks nothing."""
        pairing.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "pairing", pairing)
        return m

    @property
    def n(self) -> int:
        return int(self.pairing.shape[0])

    def __eq__(self, other: object) -> bool:
        return (np.array_equal(self.pairing, other.pairing)
                if isinstance(other, Matching) else NotImplemented)

    def __hash__(self) -> int:
        return hash(self.pairing.tobytes())


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection on [0, n)."""

    mapping: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.mapping, dtype=np.int64)
        n = p.shape[0]
        if not np.array_equal(np.sort(p), np.arange(n)):
            raise InvalidParametersError("mapping must be a bijection on [0, n)")
        p.flags.writeable = False
        object.__setattr__(self, "mapping", p)

    @classmethod
    def _built(cls, mapping: np.ndarray) -> "Permutation":
        """The permutation of `mapping`, an int64 bijection on [0, n) the
        package built.  Marks it read-only and checks nothing."""
        mapping.flags.writeable = False
        p = object.__new__(cls)
        object.__setattr__(p, "mapping", mapping)
        return p

    @property
    def n(self) -> int:
        return int(self.mapping.shape[0])

    def __eq__(self, other: object) -> bool:
        return (np.array_equal(self.mapping, other.mapping)
                if isinstance(other, Permutation) else NotImplemented)

    def __hash__(self) -> int:
        return hash(self.mapping.tobytes())


def random_matching(n: int, rng: np.random.Generator) -> Matching:
    """Uniform perfect matching on [0, n)."""
    if n % 2:
        raise InvalidParametersError("perfect matching needs n even")
    order = rng.permutation(n)
    pairing = np.empty(n, dtype=np.int64)
    pairing[order[0::2]] = order[1::2]
    pairing[order[1::2]] = order[0::2]
    return Matching._built(pairing)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation._built(rng.permutation(n))


def sample_matching_model(n: int, d: int, rng: np.random.Generator) -> MultiGraph:
    """Sum of d independent uniform perfect matchings.  No loops; multi-edges
    allowed."""
    ModelKind.MATCHING.check_parity(n, d)
    idx = np.arange(n)
    parts = []
    for _ in range(d):
        p = random_matching(n, rng).pairing
        first = idx < p
        parts.append(_codes(n, idx[first], p[first]))
    return MultiGraph._built(n, d, np.sort(_join(parts)))


def sample_permutation_model(n: int, d: int, rng: np.random.Generator) -> MultiGraph:
    """Sum of d/2 independent uniform permutations, each contributing the
    edges {i, sigma(i)}: an in-edge and an out-edge per vertex.  Loops and
    multi-edges allowed."""
    ModelKind.PERMUTATION.check_parity(n, d)
    idx = np.arange(n)
    parts = [_codes(n, idx, random_permutation(n, rng).mapping)
             for _ in range(d // 2)]
    return MultiGraph._built(n, d, np.sort(_join(parts)))


#: most stubs (rows times n*d) one block of rejection tries holds: 128 KiB
#: of int64, so a block stays small next to the sampled graph's arrays; also
#: the most stubs a cached layout holds
_REJECTION_STUBS = 1 << 14


def _rejection_plan(n: int, d: int) -> np.ndarray:
    """The read-only layout _rejection_codes draws with at (n, d).

    It is (rows, n*d), each row the stubs of n vertices of degree d in
    order, which one rng.permuted call shuffles a copy of.  rows is twice
    _expected_tries(d), so most blocks hold a simple row, but at most
    _REJECTION_STUBS // (n*d) and at least 1.
    """
    rows = max(1, min(math.ceil(2 * _expected_tries(d)),
                      _REJECTION_STUBS // max(n * d, 1)))
    layout = np.repeat(np.repeat(np.arange(n), d)[np.newaxis], rows, 0)
    layout.flags.writeable = False
    return layout


#: _rejection_plan for n*d <= _REJECTION_STUBS, so the cache never holds a
#: layout larger than one rejection block
_cached_plan = functools.lru_cache(maxsize=8)(_rejection_plan)


def _block_codes(n: int, stubs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sorted edge codes, pairing consecutive stubs of the
    (rows, 2k) array `stubs`, and whether the row is simple.

    A pair of equal stubs is a loop, and equal neighbours among a row's
    sorted codes are a repeated edge; both tests write into one bool array,
    reduced once per row.  The empty rows of d = 0 are simple.
    """
    u, v = stubs[:, 0::2], stubs[:, 1::2]
    ok = u != v
    codes = _codes(n, u, v)
    codes.sort(axis=1)
    ok[:, 1:] &= codes[:, 1:] != codes[:, :-1]
    return codes, np.logical_and.reduce(ok, axis=1)


def sample_configuration_model(n: int, d: int, rng: np.random.Generator) -> MultiGraph:
    """Uniform pairing of the n*d half-edges, projected to a multigraph:
    one rng.permutation call shuffles the sorted stubs, and consecutive
    stubs are paired."""
    ModelKind.CONFIGURATION.check_parity(n, d)
    stubs = rng.permutation(np.repeat(np.arange(n), d))
    return MultiGraph._built(n, d, np.sort(_codes(n, stubs[0::2], stubs[1::2])))


def _circulant_simple(n: int, d: int) -> np.ndarray:
    """Sorted edge codes of a deterministic simple d-regular start for the
    switching chain: offsets +-1..+-(d//2), plus the antipode when d is
    odd.  Needs d < n and n*d even, as sample_uniform checks first; then
    d//2 < n/2, so the offsets and the antipode give distinct edges."""
    idx = np.arange(n)
    parts = [_codes(n, idx, (idx + k) % n) for k in range(1, d // 2 + 1)]
    if d % 2:
        parts.append(_codes(n, idx[: n // 2], idx[: n // 2] + n // 2))
    return np.sort(_join(parts))


#: rows of proposals _chain_proposals draws per pair of RNG calls
_CHAIN_BLOCK = 256


def _chain_proposals(m: int, moves: int, rng: np.random.Generator):
    """Yield the switching chain's proposals in blocks, `moves` rows in all.

    Each block is one rng.integers(m, size=(B, 3)) draw of edge indices
    and one rng.integers(2, size=(B, 3)) draw of orientation bits, with
    B <= _CHAIN_BLOCK rows.  Rows with a repeated edge index are dropped
    and redrawn in a later block, so every yielded row is uniform over the
    m(m-1)(m-2) ordered triples of distinct edges, with three independent
    fair bits.  Needs m >= 3.
    """
    left = moves
    while left:
        idx = rng.integers(m, size=(min(left, _CHAIN_BLOCK), 3))
        flip = rng.integers(2, size=idx.shape)
        keep = ((idx[:, 0] != idx[:, 1]) & (idx[:, 0] != idx[:, 2])
                & (idx[:, 1] != idx[:, 2]))
        idx, flip = idx[keep], flip[keep]
        left -= len(idx)
        yield idx, flip


def _chain_burn_in(codes: np.ndarray, n: int, rng: np.random.Generator,
                   moves: int) -> list[int]:
    """Random double-switching walk on simple d-regular graphs, from the
    sorted edge codes of a simple graph.

    The walk makes exactly `moves` proposals, drawn by _chain_proposals:
    three distinct edges and an orientation of each (a proposal with a
    repeated edge is redrawn and does not count).  Moves that would create
    a loop or multi-edge are rejected, which keeps the chain inside the
    simple graphs.

    Edge e is held as its code and as its endpoints i < j at ends[2e] and
    ends[2e + 1], so an edge drawn with orientation bit f runs from
    ends[2e + f] to ends[2e + f ^ 1].  No held edge is a loop: the start
    is simple, and an accepted move writes edges among six distinct
    endpoints.  So the six endpoints of a proposal are distinct iff the 12
    pairs from different edges differ.  Returns the codes in edge order.
    """
    codes = codes.tolist()
    m = len(codes)
    if m < 3:
        raise InvalidParametersError(
            f"the switching chain needs at least 3 edges, got {m}")
    ends = [x for c in codes for x in divmod(c, n)]
    present = set(codes)
    add, remove = present.add, present.remove
    for idx, flip in _chain_proposals(m, moves, rng):
        for p1, p2, p3 in (2 * idx + flip).tolist():
            r, rb = ends[p1], ends[p1 ^ 1]
            aa, ab = ends[p2], ends[p2 ^ 1]
            b, bb = ends[p3], ends[p3 ^ 1]
            # the six endpoints must be distinct
            if (r == aa or r == ab or r == b or r == bb
                    or rb == aa or rb == ab or rb == b or rb == bb
                    or aa == b or aa == bb or ab == b or ab == bb):
                continue
            # new edges: {rb, aa}, {ab, b}, {bb, r}; require all currently absent
            if rb > aa:
                rb, aa = aa, rb
            c1 = rb * n + aa
            if c1 in present:
                continue
            if ab > b:
                ab, b = b, ab
            c2 = ab * n + b
            if c2 in present:
                continue
            if bb > r:
                bb, r = r, bb
            c3 = bb * n + r
            if c3 in present:
                continue
            e1, e2, e3 = p1 >> 1, p2 >> 1, p3 >> 1
            remove(codes[e1])
            remove(codes[e2])
            remove(codes[e3])
            add(c1)
            add(c2)
            add(c3)
            codes[e1], codes[e2], codes[e3] = c1, c2, c3
            ends[2 * e1], ends[2 * e1 + 1] = rb, aa
            ends[2 * e2], ends[2 * e2 + 1] = ab, b
            ends[2 * e3], ends[2 * e3 + 1] = bb, r
    return codes


def _expected_tries(d: int) -> float:
    """Expected configuration pairings per simple one: a pairing is simple
    with probability about exp(-(d^2 - 1)/4) whatever n is
    (Bender-Canfield; McKay-Wormald)."""
    return math.exp(min((d * d - 1) / 4, 700.0))  # finite float


def _rejection_codes(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted edge codes of the first simple configuration pairing, drawn
    in blocks; raises BudgetExceededError after REJECTION_TRIES pairings.

    A block is the rows of _rejection_plan's layout, each a copy of the
    sorted stubs that one rng.permuted call shuffles on its own, so each
    row is a uniform pairing independent of all rows before it, and the
    first simple row is exactly uniform over simple graphs.  Rows after it
    are discarded.  _block_codes pairs and tests the rows.  A block never
    holds more rows than the tries left: every examined row counts against
    REJECTION_TRIES.  The layout is fetched once per call, from a cache when
    n*d is at most _REJECTION_STUBS.
    """
    plan = _cached_plan if n * d <= _REJECTION_STUBS else _rejection_plan
    layout = plan(n, d)
    tries = 0
    while tries < REJECTION_TRIES:
        stubs = rng.permuted(layout[:REJECTION_TRIES - tries], axis=1)
        codes, simple = _block_codes(n, stubs)
        first = simple.argmax()
        if simple[first]:
            return codes[first].copy()  # a copy, so the block is freed
        tries += len(stubs)
    raise BudgetExceededError(
        f"rejection sampler: no simple graph in {REJECTION_TRIES} tries "
        f"(n={n}, d={d}); try method='switching-chain'")


def uniform_method(n: int, d: int, method: str = "auto") -> str:
    """The method sample_uniform uses for these arguments.

    Rejection needs _expected_tries(d), about exp((d^2 - 1)/4),
    configuration pairings in expectation.  "auto" resolves to "rejection"
    when d <= 2 ln n and the expected tries are at most REJECTION_TRIES / 10,
    and to "switching-chain" otherwise.  A forced "rejection" whose
    expected tries exceed REJECTION_TRIES raises BudgetExceededError at
    once.
    """
    expected_tries = _expected_tries(d)
    if method == "auto":
        fits = d <= 2 * math.log(n) and expected_tries <= REJECTION_TRIES / 10
        return "rejection" if fits else "switching-chain"
    if method == "rejection" and expected_tries > REJECTION_TRIES:
        raise BudgetExceededError(
            f"rejection sampler: about {expected_tries:.3g} tries expected "
            f"for d={d}, budget {REJECTION_TRIES}; "
            f"use method='switching-chain'")
    if method not in ("rejection", "switching-chain"):
        raise InvalidParametersError(f"unknown method {method!r}")
    return method


def sample_uniform(n: int, d: int, rng: np.random.Generator,
                   method: str = "auto") -> MultiGraph:
    """Sample a simple d-regular graph.

    method="rejection" draws configuration pairings, in blocks, until one
    is simple (exactly uniform; see _rejection_codes) and raises
    BudgetExceededError after REJECTION_TRIES of them.
    method="switching-chain" makes 10*n*d double-switching proposals from a
    deterministic circulant start and is only approximately uniform; a
    proposal that repeats an edge is redrawn and not counted, and the chain
    needs at least 3 edges.
    method="auto" chooses by uniform_method.
    """
    ModelKind.UNIFORM.check_parity(n, d)
    if d >= n:
        raise InvalidParametersError("simple graph needs d < n")
    if uniform_method(n, d, method) == "rejection":
        return MultiGraph._built(n, d, _rejection_codes(n, d, rng))
    codes = _chain_burn_in(_circulant_simple(n, d), n, rng, moves=10 * n * d)
    return MultiGraph._built(n, d, np.sort(np.array(codes, dtype=np.int64)))


def enumerate_simple_regular(n: int, d: int) -> list[MultiGraph]:
    """All labeled simple d-regular graphs on n vertices, each exactly once.

    Canonical lexicographic backtracking over edge sets: the smallest vertex
    with missing degree is completed first, choosing its remaining partners
    among strictly larger vertices, so every edge set is produced in exactly
    one order.  The edges {u, v} come out with u nondecreasing and, for each
    u, v increasing, so their codes u*n + v are built already sorted, and
    each graph is built with MultiGraph._built, unchecked.  Independent of
    the sampler code paths.
    """
    if n > 10:
        raise BudgetExceededError(f"enumeration limited to n <= 10, got {n}")
    if n <= 0 or d < 0:
        raise InvalidParametersError(f"need n > 0, d >= 0, got n={n} d={d}")
    if (n * d) % 2 or d >= n:
        return []
    results: list[MultiGraph] = []
    rem = [d] * n
    codes: list[int] = []

    def rec(start: int) -> None:
        # the vertices before start are complete
        u = next((v for v in range(start, n) if rem[v]), None)
        if u is None:
            results.append(
                MultiGraph._built(n, d, np.array(codes, dtype=np.int64)))
            return
        need = rem[u]
        cands = [v for v in range(u + 1, n) if rem[v]]
        if len(cands) < need:
            return
        rem[u] = 0
        for combo in itertools.combinations(cands, need):
            for v in combo:
                rem[v] -= 1
                codes.append(u * n + v)
            rec(u + 1)
            del codes[-need:]
            for v in combo:
                rem[v] += 1
        rem[u] = need

    rec(0)
    return results


# ---------------------------------------------------------------------------
# Edge-list serialization: header "n d model seed", one line "i j mult" per
# distinct edge; loops appear once with their loop count.

#: edges formatted per step, which bounds the Python objects alive at once
_EDGELIST_CHUNK = 1 << 16


def to_edgelist(g: MultiGraph, model: str | ModelKind, seed: int) -> str:
    i, j, m = g.edge_arrays()
    parts = [f"{g.n} {g.deg} {ModelKind(model).value} {seed}\n"]
    for k in range(0, m.size, _EDGELIST_CHUNK):
        s = slice(k, k + _EDGELIST_CHUNK)
        parts.append("".join(map("{} {} {}\n".format, i[s].tolist(),
                                 j[s].tolist(), m[s].tolist())))
    return "".join(parts)


def from_edgelist(text: str) -> tuple[MultiGraph, dict]:
    """The graph and header of to_edgelist's text.  Raises
    InvalidParametersError for malformed text, for an unknown model, for
    (n, d) that violate the model's parity constraint, and for a graph its
    model cannot produce: a loop under matching or uniform, or a
    multi-edge under uniform."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParametersError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 4:
        raise InvalidParametersError(f"bad header {lines[0]!r}")
    try:
        n, d, seed = int(head[0]), int(head[1]), int(head[3])
        rows = (np.loadtxt(lines[1:], dtype=np.int64, ndmin=2)
                if len(lines) > 1 else np.empty((0, 3), dtype=np.int64))
    except ValueError as exc:
        raise InvalidParametersError(f"malformed edge list: {exc}") from exc
    try:
        kind = ModelKind(head[2])
    except ValueError:
        raise InvalidParametersError(
            f"unknown model {head[2]!r} in the edge-list header") from None
    kind.check_parity(n, d)
    header = {"n": n, "d": d, "model": kind.value, "seed": seed}
    if rows.shape[1] != 3:
        raise InvalidParametersError("edge lines must read 'i j multiplicity'")
    i, j, m = rows.T
    if (np.minimum(i, j) < 0).any() or (np.maximum(i, j) >= n).any() \
            or (m < 0).any():
        raise InvalidParametersError(
            f"edge list has a vertex outside [0, {n}) or a negative multiplicity")
    g = MultiGraph(n, d, np.repeat(_codes(n, i, j), m))
    if kind is ModelKind.MATCHING and (g.codes % (n + 1) == 0).any():
        raise InvalidParametersError("matching graph with a loop")
    if kind is ModelKind.UNIFORM and not g.simple:
        raise InvalidParametersError("uniform graph with a loop or a multi-edge")
    return g, header


def sample_model(model: str | ModelKind, n: int, d: int,
                 rng: np.random.Generator, method: str = "auto") -> MultiGraph:
    """Dispatch on ModelKind; `method` is sample_uniform's, and any other
    model takes only "auto"."""
    kind = ModelKind(model)
    if kind is not ModelKind.UNIFORM and method != "auto":
        raise InvalidParametersError(
            f"--method {method} applies to the uniform model only, "
            f"not to {kind.value}")
    if kind is ModelKind.MATCHING:
        return sample_matching_model(n, d, rng)
    if kind is ModelKind.PERMUTATION:
        return sample_permutation_model(n, d, rng)
    if kind is ModelKind.CONFIGURATION:
        return sample_configuration_model(n, d, rng)
    return sample_uniform(n, d, rng, method=method)
