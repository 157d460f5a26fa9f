"""Switching operators and local resampling around the pivot vertex 0.

Three families of degree-preserving local moves:

* the matching-model resampling that redraws the pivot's partner,
* the simple-graph simultaneous switching driven by per-edge triples: each
  active triple is one double switching, chosen by the bits of its switch
  index, and all of them are applied as one edge replacement,
* the permutation-model conjugation move.

A simple graph's sorted edge codes list the pivot's d edges (0, r), whose
code is r, before its m other edges.  A triple is one pivot edge with a
pair of those m edges, named by the pair's rank in lexicographic order; the
batched switchability flags, the switch and the resampling all read that
split and that order, so a triple built from a rank is admissible by
construction.

All operators are pure and collapse to the identity whenever the required
vertex-distinctness condition fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMoveError, InvalidParametersError
from .graphs import Matching, MultiGraph, Permutation

__all__ = [
    "TripleSelection",
    "ResampleOutcome",
    "mm_switch",
    "mm_resample",
    "pivot_edges",
    "triple_space_flags",
    "um_simultaneous_switch",
    "um_resample",
    "pm_switch",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class TripleSelection:
    """Per-pivot-edge selection for the simultaneous switch.  ranks[mu] is
    the rank, in lexicographic (np.triu_indices) order, of a pair among the
    graph's non-pivot edges, whose codes are g.codes[d:]; with pivot edge mu
    that pair is mu's triple.  s[mu] is its switch index in [1, 8]."""

    ranks: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ranks) != len(self.s):
            raise InvalidParametersError("one switch index per triple required")
        if any(k < 0 for k in self.ranks):
            raise InvalidParametersError("triple ranks must be non-negative")
        if any(not 1 <= si <= 8 for si in self.s):
            raise InvalidParametersError("switch indices must lie in [1, 8]")


@dataclass(frozen=True)
class ResampleOutcome:
    """Result of one local resampling step.

    alpha enumerates the pivot's neighbours after the step: for every vertex
    i, the new adjacency entry (pivot, i) equals the number of mu with
    alpha[mu] == i.  a[mu] is the targeted new neighbour, realized exactly
    when switched[mu] is True.
    """

    graph: MultiGraph
    a: tuple[int, ...]
    alpha: tuple[int, ...]
    switched: tuple[bool, ...]
    selection: TripleSelection | None = None


# ---------------------------------------------------------------------------
# Matching model

def mm_switch(m: Matching, i: int, j: int, k: int) -> Matching:
    """Re-pair i with j (and close up the two broken pairs) unless the six
    points i, j, k, m(i), m(j), m(k) are not distinct, in which case the
    matching is unchanged.  Raises InvalidParametersError unless i, j and k
    lie in [0, n).  When the six are distinct the three new pairs {i, j},
    {m(j), k} and {m(k), m(i)} cover the six once each, so the result,
    built unchecked with Matching._built, is again a fixed-point-free
    involution."""
    p, n = m.pairing, m.n
    if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
        raise InvalidParametersError(f"i, j, k out of range [0, {n})")
    mi, mj, mk = p.item(i), p.item(j), p.item(k)
    if len({i, j, k, mi, mj, mk}) < 6:
        return m
    q = p.copy()
    q[i], q[j] = j, i
    q[mj], q[k] = k, mj
    q[mk], q[mi] = mi, mk
    return Matching._built(q)


def mm_resample(m: Matching, rng: np.random.Generator) -> tuple[Matching, int, int]:
    """One resampling step at the pivot: draw a, b independent uniform over
    [1, n) and apply the triple switch at (0, a, b).  Preserves the uniform
    distribution on perfect matchings; when non-degenerate the pivot's new
    partner is a."""
    n = m.n
    a = int(rng.integers(1, n))
    b = int(rng.integers(1, n))
    return mm_switch(m, 0, a, b), a, b


# ---------------------------------------------------------------------------
# Uniform (simple graph) model

def pivot_edges(g: MultiGraph) -> list[Edge]:
    """The d edges at the pivot vertex 0, ordered by neighbour index: the
    first d of a simple graph's sorted codes."""
    if not g.simple:
        raise InvalidParametersError("pivot edge enumeration needs a simple graph")
    return [(0, r) for r in g.codes[:g.deg].tolist()]


#: the 21 index pairs i <= j among a triple's six endpoints
_SIX_PAIRS = np.triu_indices(6)


def _switchable(codes: np.ndarray, n: int, triples) -> np.ndarray:
    """Switchability of T triples on each of B graphs on n vertices with
    the same edge count: `codes` is the (B, E) array whose row k holds
    graph k's sorted edge codes, and `triples` holds T triples of three
    distinct edges of each graph, shape (B, T, 3, 2) or any shape with B
    rows of 6T endpoints.  Returns the (B, T) flags: whether a triple's six
    endpoints are distinct and the subgraph they induce holds only its
    three edges.

    Graph k's codes are offset by k*n^2, which keeps the flattened batch
    sorted, so one searchsorted finds each of the 21 pairs (loops
    included) of every triple's six sorted endpoints, and a gather tells
    whether it is an edge.  No graph may hold an edge twice, and both
    callers' graphs are simple: the switch checks, and enumerated graphs
    are simple.  Then 3 of the 21 pairs are edges exactly when the triple
    is switchable: each triple edge is one of them, a vertex shared by two
    triple edges makes one of them appear twice, and any further edge
    among the six, a loop included, is one more.
    """
    offset = np.arange(len(codes), dtype=np.int64)[:, np.newaxis] * (n * n)
    flat = (codes + offset).ravel()
    v = np.sort(np.asarray(triples, dtype=np.int64)
                .reshape(len(codes), -1, 6), axis=2)
    pairs = (v[..., _SIX_PAIRS[0]] * n + v[..., _SIX_PAIRS[1]]
             + offset[..., np.newaxis])
    at = flat.searchsorted(pairs)
    np.minimum(at, flat.size - 1, out=at)  # a pair past the last code
    return (flat[at] == pairs).sum(axis=2) == 3


#: most triples one _switchable call of triple_space_flags decides, which
#: keeps its lookup arrays to tens of kilobytes
_SWITCHABLE_BATCH = 256


def triple_space_flags(graphs):
    """Yield, for each of the simple d-regular graphs on n vertices, the
    (d, C(m, 2)) switchability flags of its triples: entry [mu, k] for
    pivot edge mu with the k-th pair of its m non-pivot edges, the rank a
    TripleSelection carries.  One _switchable call decides the triples of
    several graphs, at most _SWITCHABLE_BATCH triples or one graph.

    Sorted codes list the d pivot edges (0, r) first, whose code is r,
    then the m non-pivot edges, whose pairs np.triu_indices lists in rank
    order, the order _unrank_pair inverts.  Raises InvalidParametersError
    when a pivot edge has no admissible triple (see _require_triples).
    """
    if not graphs:
        return
    n, d = graphs[0].n, graphs[0].deg
    _require_triples(n, d)
    a, b = np.triu_indices(graphs[0].codes.size - d, 1)
    per_call = max(1, _SWITCHABLE_BATCH // (d * a.size))
    for lo in range(0, len(graphs), per_call):
        codes = np.stack([g.codes for g in graphs[lo:lo + per_call]])
        i, j = np.divmod(codes[:, np.newaxis, d:], n)
        triples = np.zeros((len(codes), d, a.size, 6), dtype=np.int64)
        triples[..., 1] = codes[:, :d, np.newaxis]
        triples[..., 2], triples[..., 3] = i[..., a], j[..., a]
        triples[..., 4], triples[..., 5] = i[..., b], j[..., b]
        yield from _switchable(codes, n, triples).reshape(len(codes), d, -1)


def _active_triples(triples, switchable) -> list[bool]:
    """Which triples of a selection switch: those that are switchable and
    whose vertex set meets every other triple's in the pivot alone.  Active
    switches therefore edit disjoint edge sets and commute."""
    vsets = [{v for e in t for v in e} for t in triples]
    return [sw and all(vsets[mu] & vsets[nu] <= {0}
                       for nu in range(len(vsets)) if nu != mu)
            for mu, sw in enumerate(switchable)]


def _unrank_pair(k: int, m: int) -> tuple[int, int]:
    """The k-th pair (a, b), a < b < m, in lexicographic order."""
    total = m * (m - 1) // 2
    # t = m - 1 - a is the largest t with C(t, 2) <= total - 1 - k
    t = (math.isqrt(8 * (total - 1 - k) + 1) + 1) // 2
    a = m - 1 - t
    return a, a + 1 + k - total + t * (t + 1) // 2


def um_simultaneous_switch(g: MultiGraph, selection: TripleSelection) -> ResampleOutcome:
    """Apply the active triple switches (see _active_triples) at once.

    Triple mu is ((0, r), p, q): pivot edge mu and the non-pivot edges p < q
    of its rank, each with its endpoints sorted, as their codes hold them.
    Its switch index s picks the oriented edges (a, abar) and (b, bbar) by
    the bits of s - 1 = 4*swap + 2*flip_a + flip_b: a's edge is q when swap
    is set and p otherwise, b's edge is the other one, and a flip bit
    reverses its edge.  The triple switches by replacing its three edges
    with {0, a}, {abar, b}, {bbar, r}: the pivot's neighbour r becomes a.
    Active triples share only the pivot, so their removed edges are
    distinct and present, each triple's edit keeps every degree, and one
    MultiGraph._replace_edges call applies them all.  Raises
    InvalidParametersError unless g is simple; MultiGraph.simple decides
    that once per graph, so switching one graph many times checks it once.
    """
    pe = pivot_edges(g)
    d, n, codes = len(pe), g.n, g.codes
    m = codes.size - d
    if len(selection.ranks) != d:
        raise InvalidMoveError(f"need one triple per pivot edge ({d}), "
                               f"got {len(selection.ranks)}")
    if any(k >= math.comb(m, 2) for k in selection.ranks):
        raise InvalidMoveError(f"triple ranks must lie below C({m}, 2), "
                               f"got {selection.ranks}")
    triples = []
    for e, k in zip(pe, selection.ranks):
        x, y = _unrank_pair(k, m)
        triples.append((e, divmod(int(codes[d + x]), n),
                        divmod(int(codes[d + y]), n)))
    switchable = _switchable(codes[np.newaxis], n, [triples])[0]
    active = _active_triples(triples, switchable.tolist())
    removed: list[Edge] = []
    added: list[Edge] = []
    a_list: list[int] = []
    alpha: list[int] = []
    for ((_, r), p, q), s, act in zip(triples, selection.s, active):
        k = s - 1
        if k & 4:
            p, q = q, p
        (a, abar), (b, bbar) = p[::-1] if k & 2 else p, q[::-1] if k & 1 else q
        if act:
            removed += [(0, r), (a, abar), (b, bbar)]
            added += [(0, a), (abar, b), (bbar, r)]
        a_list.append(a)
        alpha.append(a if act else r)
    out = g._replace_edges(removed, added) if removed else g
    return ResampleOutcome(out, tuple(a_list), tuple(alpha), tuple(active),
                           selection)


def _require_triples(n: int, d: int) -> None:
    """Raise InvalidParametersError unless every pivot edge of a simple
    d-regular graph on n vertices has an admissible triple: d >= 1, and
    at least two of its nd/2 edges lie off the pivot."""
    if d < 1:
        raise InvalidParametersError(
            f"the simultaneous switching needs d >= 1, got {d}")
    if n * d // 2 - d < 2:
        raise InvalidParametersError(
            f"no admissible triple at the pivot for n={n}, d={d}")


def um_resample(g: MultiGraph, rng: np.random.Generator) -> ResampleOutcome:
    """Draw a uniform TripleSelection and apply the simultaneous switch.
    Preserves the uniform distribution on simple d-regular graphs.  Raises
    InvalidParametersError before drawing when a pivot edge has no
    admissible triple (see _require_triples), and after drawing when g is
    not simple (the switch's own pivot_edges call).

    Each pivot edge draws its triple's rank uniformly among the C(m, 2)
    pairs of the m non-pivot edges, then each draws its switch index.
    """
    d = g.deg
    _require_triples(g.n, d)
    m = g.codes.size - d
    ranks = tuple(int(rng.integers(math.comb(m, 2))) for _ in range(d))
    s = tuple(int(rng.integers(1, 9)) for _ in range(d))
    return um_simultaneous_switch(g, TripleSelection(ranks, s))


# ---------------------------------------------------------------------------
# Permutation model

def _two_transpositions(n: int, x: int, y: int) -> np.ndarray:
    """The array of t_x o t_y on [0, n), t_v the transposition of 1 and v:
    the identity with its entries at 1 and x swapped, which is t_x, then
    those at 1 and y, which composes t_y on the right."""
    t = np.arange(n)
    t[1], t[x] = t[x], t[1]
    t[1], t[y] = t[y], t[1]
    return t


def pm_switch(pi: Permutation, a_plus: int, a_minus: int,
              b_plus: int, b_minus: int) -> Permutation:
    """Conjugation-style move redrawing the image and preimage of the pivot.

    pi must fix the pair (0, 1) as a 2-cycle: pi(0) = 1 and pi(1) = 0.  The
    result is t_{b+} o t_{a+} o pi o t_{a-} o t_{b-}, t_v the transposition
    of 1 and v: one gather of pi by sigma = t_{a-} o t_{b-} and one
    relabelling by tau = t_{b+} o t_{a+}.  When the six indices 0, 1, a+,
    a-, b+, b- are distinct, result(0) = a+ and result^{-1}(0) = a-.  The
    range checks below keep every transposition inside [0, n), so the
    composition of bijections is one, and it is built unchecked with
    Permutation._built.
    """
    n = pi.n
    if pi.mapping[0] != 1 or pi.mapping[1] != 0:
        raise InvalidMoveError("pm_switch needs pi(0) == 1 and pi(1) == 0")
    if not (0 <= a_plus < n):
        raise InvalidParametersError(f"a+ out of range [0, {n})")
    for name, v in (("a-", a_minus), ("b+", b_plus), ("b-", b_minus)):
        if not (1 <= v < n):
            raise InvalidParametersError(f"{name} out of range [1, {n})")
    sigma = _two_transpositions(n, a_minus, b_minus)
    tau = _two_transpositions(n, b_plus, a_plus)
    return Permutation._built(tau[pi.mapping[sigma]])
