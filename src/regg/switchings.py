"""Switching operators and local resampling around the pivot vertex 0.

Four families of degree-preserving local moves:

* elementary single/double switchings, each editing O(1) edge codes,
* the matching-model resampling that redraws the pivot's partner,
* the simple-graph simultaneous switching driven by per-edge triples,
* the permutation-model conjugation move.

All operators are pure and collapse to the identity whenever the required
vertex-distinctness condition fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMoveError, InvalidParametersError
from .graphs import Matching, MultiGraph, Permutation, dense_adjacency
from .spectral import ResolventView, resolvent_solve

__all__ = [
    "DirectedEdgeSpec",
    "TripleSelection",
    "ResampleOutcome",
    "delta",
    "single_switch",
    "double_switch",
    "mm_switch",
    "mm_resample",
    "pivot_edges",
    "triple_space",
    "um_switchable",
    "switch_pair_table",
    "um_simultaneous_switch",
    "um_resample",
    "pm_switch",
    "resolvent_switch_delta",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class DirectedEdgeSpec:
    """Directed edges naming a switch: (r, rbar), (a, abar) and, for the
    double switch, (b, bbar).  Each named pair must be an edge of the graph
    the spec is applied to."""

    r: int
    rbar: int
    a: int
    abar: int
    b: int | None = None
    bbar: int | None = None

    @property
    def is_double(self) -> bool:
        return self.b is not None

    def vertices(self) -> tuple[int, ...]:
        v = (self.r, self.rbar, self.a, self.abar)
        if self.is_double:
            v += (self.b, self.bbar)
        return v


@dataclass(frozen=True)
class TripleSelection:
    """Per-pivot-edge selection for the simultaneous switch: for each of the
    d edges at the pivot, an unordered triple of distinct edges containing it
    (the other two not incident to the pivot) and a switch index in [1, 8]."""

    triples: tuple[tuple[Edge, Edge, Edge], ...]
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.triples) != len(self.s):
            raise InvalidParametersError("one switch index per triple required")
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


def delta(i: int, j: int, n: int) -> np.ndarray:
    """Adjacency matrix of the single edge {i, j}; a loop (i == j) has
    diagonal entry 2."""
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidParametersError(f"vertices ({i}, {j}) out of range [0, {n})")
    return dense_adjacency(n, [i], [j])


def _require_edge(g: MultiGraph, x: int, y: int) -> None:
    if g.multiplicity(x, y) < 1:
        raise InvalidMoveError(f"({x}, {y}) is not an edge of the graph")


def single_switch(g: MultiGraph, spec: DirectedEdgeSpec) -> MultiGraph:
    """Replace edges {r, rbar}, {a, abar} by {rbar, a}, {r, abar}.  Identity
    unless the four vertices are distinct."""
    if spec.is_double:
        raise InvalidParametersError("single_switch takes a two-edge spec")
    _require_edge(g, spec.r, spec.rbar)
    _require_edge(g, spec.a, spec.abar)
    if len(set(spec.vertices())) < 4:
        return g
    return g.replace_edges([(spec.r, spec.rbar), (spec.a, spec.abar)],
                           [(spec.rbar, spec.a), (spec.r, spec.abar)])


def double_switch(g: MultiGraph, spec: DirectedEdgeSpec) -> MultiGraph:
    """Replace edges {r, rbar}, {a, abar}, {b, bbar} by {rbar, a}, {abar, b},
    {bbar, r}.  Identity unless the six vertices are distinct.  Equals the
    composition of two single switches (checked by the test suite)."""
    if not spec.is_double:
        raise InvalidParametersError("double_switch takes a three-edge spec")
    _require_edge(g, spec.r, spec.rbar)
    _require_edge(g, spec.a, spec.abar)
    _require_edge(g, spec.b, spec.bbar)
    if len(set(spec.vertices())) < 6:
        return g
    return g.replace_edges(
        [(spec.r, spec.rbar), (spec.a, spec.abar), (spec.b, spec.bbar)],
        [(spec.rbar, spec.a), (spec.abar, spec.b), (spec.bbar, spec.r)])


# ---------------------------------------------------------------------------
# Matching model

def mm_switch(m: Matching, i: int, j: int, k: int) -> Matching:
    """Re-pair i with j (and close up the two broken pairs) unless the six
    points i, j, k, m(i), m(j), m(k) are not distinct, in which case the
    matching is unchanged."""
    p = m.pairing
    mi, mj, mk = int(p[i]), int(p[j]), int(p[k])
    if len({i, j, k, mi, mj, mk}) < 6:
        return m
    q = p.copy()
    q[i], q[j] = j, i
    q[mj], q[k] = k, mj
    q[mk], q[mi] = mi, mk
    return Matching(q)


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

def _norm_edge(e) -> Edge:
    x, y = int(e[0]), int(e[1])
    if x == y:
        raise InvalidMoveError(f"loop ({x}, {y}) is not a simple edge")
    return (x, y) if x < y else (y, x)


def pivot_edges(g: MultiGraph) -> list[Edge]:
    """The d edges at the pivot vertex 0, ordered by neighbour index."""
    if not g.simple:
        raise InvalidParametersError("pivot edge enumeration needs a simple graph")
    i, j = g.endpoints()
    return [(0, r) for r in j[i == 0].tolist()]


def _nonpivot_edges(g: MultiGraph) -> list[Edge]:
    """The edges of a simple graph not at the pivot, in row-major order."""
    i, j = g.endpoints()
    keep = i != 0
    return list(zip(i[keep].tolist(), j[keep].tolist()))


def triple_space(g: MultiGraph) -> list[list[tuple[Edge, Edge, Edge]]]:
    """For each pivot edge e, the admissible triples: e together with two
    distinct edges not incident to the pivot.  Triples are listed in
    lexicographic order of the (p, q) edge pair."""
    others = _nonpivot_edges(g)
    out = []
    for e in pivot_edges(g):
        triples = []
        for a_idx in range(len(others)):
            for b_idx in range(a_idx + 1, len(others)):
                triples.append((e, others[a_idx], others[b_idx]))
        out.append(triples)
    return out


def um_switchable(g: MultiGraph, S) -> bool:
    """True iff the three edges of S span six distinct vertices and the
    induced subgraph of the graph on those vertices contains no further
    edge."""
    edges = {_norm_edge(e) for e in S}
    if len(edges) != 3:
        raise InvalidMoveError("S must consist of three distinct edges")
    for (x, y) in edges:
        if g.multiplicity(x, y) != 1:
            raise InvalidMoveError(f"({x}, {y}) is not an edge of the graph")
    verts = sorted({v for e in edges for v in e})
    if len(verts) != 6:
        return False
    inside = np.zeros(g.n, dtype=bool)
    inside[verts] = True
    i, j = g.endpoints()
    return int(np.count_nonzero(inside[i] & inside[j])) == 3  # only the S-edges


def switch_pair_table(S) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The eight ((a, abar), (b, bbar)) choices for a pivot triple.

    The triple must contain exactly one pivot edge (0, r); the other two
    edges p, q are ordered by smallest endpoint, their endpoints sorted, and
    the table enumerates a over p then q with b in the opposite edge:
    (p1,q1), (p1,q2), (p2,q1), (p2,q2), (q1,p1), (q1,p2), (q2,p1), (q2,p2).
    """
    edges = sorted(_norm_edge(e) for e in S)
    pivot = [e for e in edges if e[0] == 0]
    rest = [e for e in edges if e[0] != 0]
    if len(pivot) != 1 or len(rest) != 2:
        raise InvalidMoveError("triple must contain exactly one pivot edge")
    (p1, p2), (q1, q2) = rest
    table = []
    for a, abar in ((p1, p2), (p2, p1)):
        for b, bbar in ((q1, q2), (q2, q1)):
            table.append(((a, abar), (b, bbar)))
    for a, abar in ((q1, q2), (q2, q1)):
        for b, bbar in ((p1, p2), (p2, p1)):
            table.append(((a, abar), (b, bbar)))
    return table


def _triple_replacement(S, s: int) -> tuple[set[Edge], set[Edge], int, int]:
    """Edges removed/added by switch index s on pivot triple S, plus the
    targeted pivot neighbour a and the pivot edge endpoint r.  Only valid
    when the triple spans six distinct vertices (otherwise the replacement
    edges may degenerate to loops)."""
    edges = sorted(_norm_edge(e) for e in S)
    pivot = [e for e in edges if e[0] == 0]
    r = pivot[0][1]
    (a, abar), (b, bbar) = switch_pair_table(S)[s - 1]
    removed = set(edges)
    added = {_norm_edge((0, a)), _norm_edge((abar, b)), _norm_edge((bbar, r))}
    return removed, added, a, r


def _triple_targets(S, s: int) -> tuple[int, int]:
    """The targeted pivot neighbour a and current pivot neighbour r for
    switch index s on pivot triple S (well-defined for any triple)."""
    edges = sorted(_norm_edge(e) for e in S)
    r = [e for e in edges if e[0] == 0][0][1]
    (a, _), _ = switch_pair_table(S)[s - 1]
    return a, r


def um_simultaneous_switch(g: MultiGraph, selection: TripleSelection) -> ResampleOutcome:
    """Apply the switchable, mutually compatible triple switches at once.

    A triple takes part only when it is switchable and its vertex set meets
    every other triple's vertex set in the pivot alone; the participating
    switches act on disjoint edge sets and commute.
    """
    if not g.simple:
        raise InvalidParametersError("simultaneous switch needs a simple graph")
    pe = pivot_edges(g)
    d = len(pe)
    if len(selection.triples) != d:
        raise InvalidMoveError(f"need one triple per pivot edge ({d}), "
                               f"got {len(selection.triples)}")
    norm_triples = []
    for mu, (triple, e_mu) in enumerate(zip(selection.triples, pe)):
        edges = {_norm_edge(e) for e in triple}
        if len(edges) != 3 or e_mu not in edges:
            raise InvalidMoveError(f"triple {mu} must contain the pivot edge {e_mu}")
        for (x, y) in edges:
            if g.multiplicity(x, y) != 1:
                raise InvalidMoveError(f"triple {mu}: ({x}, {y}) is not an edge")
            if (x, y) != e_mu and x == 0:
                raise InvalidMoveError(
                    f"triple {mu}: extra edge ({x}, {y}) touches the pivot")
        norm_triples.append(edges)

    vsets = [frozenset(v for e in t for v in e) for t in norm_triples]
    switchable = [um_switchable(g, t) for t in norm_triples]
    compatible = [
        all(vsets[mu] & vsets[nu] <= {0} for nu in range(d) if nu != mu)
        for mu in range(d)
    ]
    active = [sw and cp for sw, cp in zip(switchable, compatible)]

    # active triples meet only at the pivot, so their edits are disjoint
    removed: list[Edge] = []
    added: list[Edge] = []
    a_list: list[int] = []
    alpha: list[int] = []
    for mu in range(d):
        a_mu, r_mu = _triple_targets(tuple(norm_triples[mu]), selection.s[mu])
        a_list.append(a_mu)
        if active[mu]:
            rm, ad, _, _ = _triple_replacement(
                tuple(norm_triples[mu]), selection.s[mu])
            removed.extend(rm)
            added.extend(ad)
            alpha.append(a_mu)
        else:
            alpha.append(r_mu)

    out = g.replace_edges(removed, added)
    return ResampleOutcome(out, tuple(a_list), tuple(alpha), tuple(active),
                           selection)


def _unrank_pair(k: int, m: int) -> tuple[int, int]:
    """The k-th pair (a, b), a < b < m, in lexicographic order."""
    total = m * (m - 1) // 2
    # t = m - 1 - a is the largest t with C(t, 2) <= total - 1 - k
    t = (math.isqrt(8 * (total - 1 - k) + 1) + 1) // 2
    a = m - 1 - t
    return a, a + 1 + k - total + t * (t + 1) // 2


def um_resample(g: MultiGraph, rng: np.random.Generator) -> ResampleOutcome:
    """Draw a uniform TripleSelection and apply the simultaneous switch.
    Preserves the uniform distribution on simple d-regular graphs.

    Each pivot edge's triple is drawn as a uniform index into its
    triple_space list and unranked to that list's pair of non-pivot edges,
    so no d * C(m, 2) list of triples is built.
    """
    pivots = pivot_edges(g)
    others = _nonpivot_edges(g)
    m = len(others)
    pairs = [_unrank_pair(int(rng.integers(m * (m - 1) // 2)), m) for _ in pivots]
    triples = tuple((e, others[a], others[b]) for e, (a, b) in zip(pivots, pairs))
    s = tuple(int(rng.integers(1, 9)) for _ in pivots)
    return um_simultaneous_switch(g, TripleSelection(triples, s))


# ---------------------------------------------------------------------------
# Permutation model

def _transposition(n: int, x: int) -> np.ndarray:
    t = np.arange(n)
    t[1], t[x] = t[x], t[1]
    return t


def pm_switch(pi: Permutation, a_plus: int, a_minus: int,
              b_plus: int, b_minus: int) -> Permutation:
    """Conjugation-style move redrawing the image and preimage of the pivot.

    pi must fix the pair (0, 1) as a 2-cycle: pi(0) = 1 and pi(1) = 0.  The
    result composes four transpositions of vertex 1 around pi; when the six
    indices 0, 1, a+, a-, b+, b- are distinct, result(0) = a+ and
    result^{-1}(0) = a-.
    """
    n = pi.n
    if pi.mapping[0] != 1 or pi.mapping[1] != 0:
        raise InvalidMoveError("pm_switch needs pi(0) == 1 and pi(1) == 0")
    if not (0 <= a_plus < n):
        raise InvalidParametersError(f"a+ out of range [0, {n})")
    for name, v in (("a-", a_minus), ("b+", b_plus), ("b-", b_minus)):
        if not (1 <= v < n):
            raise InvalidParametersError(f"{name} out of range [1, {n})")
    comp = _transposition(n, a_minus)[_transposition(n, b_minus)]
    comp = pi.mapping[comp]
    comp = _transposition(n, a_plus)[comp]
    comp = _transposition(n, b_plus)[comp]
    return Permutation(comp)


# ---------------------------------------------------------------------------
# Resolvent perturbation

def resolvent_switch_delta(h_before: np.ndarray, h_after: np.ndarray,
                           z: complex, rng: np.random.Generator | None = None,
                           npairs: int = 10000) -> float:
    """Max over sampled (i, j) of |G_after_ij - G_before_ij| at z.

    Exhaustive for n <= ResolventView.EXHAUSTIVE_N or when rng is None;
    otherwise over npairs index pairs drawn from rng.
    """
    n = h_before.shape[0]
    diff = np.abs(resolvent_solve(h_after, z) - resolvent_solve(h_before, z))
    if n <= ResolventView.EXHAUSTIVE_N or rng is None:
        return float(diff.max())
    i = rng.integers(0, n, size=npairs)
    j = rng.integers(0, n, size=npairs)
    return float(np.max(diff[i, j]))
