"""Random d-regular graph models.

Samplers for the matching, permutation, configuration and uniform models,
plus an exact enumerator of small simple regular graphs used as an oracle
by the invariance tests.  A graph is stored as the sorted array of its
edge codes i*n + j (i <= j), one entry per edge copy, so storing,
validating and switching cost O(n d) rather than O(n^2); a loop is one
entry and adds two to its vertex's degree.  Dense adjacency matrices are
built only on demand, by dense_adjacency.
"""

from __future__ import annotations

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
    "permutation_pair_matrix",
    "sample_matching_model",
    "sample_permutation_model",
    "sample_configuration_model",
    "sample_uniform",
    "uniform_method",
    "dense_adjacency",
    "enumerate_simple_regular",
    "to_edgelist",
    "from_edgelist",
]


class ModelKind(str, Enum):
    UNIFORM = "uniform"
    PERMUTATION = "permutation"
    MATCHING = "matching"
    CONFIGURATION = "configuration"

    def check_parity(self, n: int, d: int) -> None:
        """Raise if (n, d) violates the model's parity constraint."""
        if n <= 0 or d < 0:
            raise InvalidParametersError(f"need n > 0 and d >= 0, got n={n} d={d}")
        if self is ModelKind.UNIFORM and (n * d) % 2:
            raise InvalidParametersError("uniform model needs n*d even")
        if self is ModelKind.PERMUTATION and d % 2:
            raise InvalidParametersError("permutation model needs d even")
        if self is ModelKind.MATCHING and n % 2:
            raise InvalidParametersError("matching model needs n even")
        if self is ModelKind.CONFIGURATION and (n * d) % 2:
            raise InvalidParametersError("configuration model needs n*d even")


def _codes(n: int, u, v) -> np.ndarray:
    """Codes min(u, v) * n + max(u, v) of the edges {u[k], v[k]}."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    return np.minimum(u, v) * n + np.maximum(u, v)


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype=np.int64), *parts])


def _simple(codes: np.ndarray, n: int) -> bool:
    """True when the sorted edge codes hold no loop (a loop's code i*n + i
    is a multiple of n + 1) and no repeated code."""
    return bool((codes % (n + 1)).all() and (np.diff(codes) != 0).all())


def dense_adjacency(n: int, u, v, dtype=np.int64, copies: int = 1) -> np.ndarray:
    """The symmetric n x n matrix with one added at (u[k], v[k]) and at
    (v[k], u[k]) for every k, so a loop adds two to its diagonal entry.

    Built directly in `dtype`.  `copies` is how many n x n arrays of this
    size the caller's computation holds at once; when they would not fit in
    physical RAM, raises InvalidParametersError before allocating.
    """
    need = copies * np.dtype(dtype).itemsize * n * n
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        raise InvalidParametersError(
            f"{copies} dense {n}x{n} {np.dtype(dtype).name} matrices need "
            f"{need / 1e9:.3g} GB, more than the {ram / 1e9:.3g} GB of RAM")
    a = np.zeros((n, n), dtype=dtype)
    np.add.at(a, (u, v), 1)
    np.add.at(a, (v, u), 1)
    return a


@dataclass(frozen=True)
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
    def from_adjacency(cls, n: int, deg: int, adj) -> "MultiGraph":
        """The graph of a dense (n, n) symmetric nonnegative integer matrix
        whose diagonal entries are even (twice the loop count) and whose
        rows all sum to deg."""
        a = np.asarray(adj, dtype=np.int64)
        if a.shape != (n, n):
            raise InvalidParametersError(f"adjacency shape {a.shape} != ({n}, {n})")
        if (a < 0).any():
            raise InvalidParametersError("adjacency entries must be nonnegative")
        if not np.array_equal(a, a.T):
            raise InvalidParametersError("adjacency must be symmetric")
        if (np.diag(a) % 2).any():
            raise InvalidParametersError("diagonal entries must be even (loops count two)")
        rows = a.sum(axis=1)
        if not np.all(rows == deg):
            raise InvalidParametersError(
                f"not {deg}-regular: row sums range "
                f"[{rows.min()}, {rows.max()}]"
            )
        i, j = np.nonzero(np.triu(a))
        copies = np.where(i == j, a[i, j] // 2, a[i, j])
        return cls(n, deg, np.repeat(_codes(n, i, j), copies))

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (i, j), i <= j, of the edge copies in code order."""
        return np.divmod(self.codes, self.n)

    @property
    def simple(self) -> bool:
        """True when there are no loops and no multi-edges."""
        return _simple(self.codes, self.n)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct edges as arrays (i, j, multiplicity) with i <= j, in
        row-major order; a loop's multiplicity is its loop count."""
        codes, mult = np.unique(self.codes, return_counts=True)
        return (*np.divmod(codes, self.n), mult)

    def edges(self) -> list[tuple[int, int, int]]:
        """edge_arrays as a list of (i, j, multiplicity) tuples."""
        return list(zip(*(a.tolist() for a in self.edge_arrays())))

    def multiplicity(self, i: int, j: int) -> int:
        """Copies of the edge {i, j}; for i == j, the loop count."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise InvalidParametersError(
                f"vertices ({i}, {j}) out of range [0, {self.n})")
        code = min(i, j) * self.n + max(i, j)
        return int(self.codes.searchsorted(code, "right")
                   - self.codes.searchsorted(code, "left"))

    def replace_edges(self, removed, added) -> "MultiGraph":
        """This graph with one copy of each edge in `removed` deleted and
        each edge in `added` inserted.  The removed edges must be present
        and distinct; vertex pairs may come in either order."""
        drop = [self.codes.searchsorted(min(x, y) * self.n + max(x, y))
                for x, y in removed]
        add = [min(x, y) * self.n + max(x, y) for x, y in added]
        return MultiGraph(self.n, self.deg, np.concatenate(
            [np.delete(self.codes, drop), np.array(add, dtype=np.int64)]))

    def dense(self, dtype=np.int64, copies: int = 1) -> np.ndarray:
        """Adjacency matrix in `dtype`; see dense_adjacency for `copies`."""
        return dense_adjacency(self.n, *self.endpoints(), dtype=dtype,
                               copies=copies)

    @cached_property
    def adj(self) -> np.ndarray:
        """Read-only int64 adjacency matrix, built on first use: symmetric,
        adj[i][i] twice the loop count at i, every row summing to deg."""
        a = self.dense()
        a.flags.writeable = False
        return a

    def edge_key(self) -> tuple:
        """Hashable identity of the labeled multigraph."""
        return (self.n, self.deg, self.codes.tobytes())


@dataclass(frozen=True)
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

    @property
    def n(self) -> int:
        return int(self.pairing.shape[0])


@dataclass(frozen=True)
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

    @property
    def n(self) -> int:
        return int(self.mapping.shape[0])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(self.n)
        return Permutation(inv)


def random_matching(n: int, rng: np.random.Generator) -> Matching:
    """Uniform perfect matching on [0, n)."""
    if n % 2:
        raise InvalidParametersError("perfect matching needs n even")
    order = rng.permutation(n)
    pairing = np.empty(n, dtype=np.int64)
    pairing[order[0::2]] = order[1::2]
    pairing[order[1::2]] = order[0::2]
    return Matching(pairing)


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation(rng.permutation(n))


def permutation_pair_matrix(sigma: Permutation) -> np.ndarray:
    """Adjacency contribution of one permutation: entry (i, j) counts
    j == sigma(i) plus i == sigma(j), so every vertex gains degree 2 and a
    fixed point becomes a loop (diagonal 2)."""
    return dense_adjacency(sigma.n, np.arange(sigma.n), sigma.mapping)


def sample_matching_model(n: int, d: int, rng: np.random.Generator) -> MultiGraph:
    """Sum of d independent uniform perfect matchings.  No loops; multi-edges
    allowed."""
    ModelKind.MATCHING.check_parity(n, d)
    if d < 1:
        raise InvalidParametersError("matching model needs d >= 1")
    idx = np.arange(n)
    parts = []
    for _ in range(d):
        p = random_matching(n, rng).pairing
        first = idx < p
        parts.append(_codes(n, idx[first], p[first]))
    return MultiGraph(n, d, _join(parts))


def sample_permutation_model(n: int, d: int, rng: np.random.Generator) -> MultiGraph:
    """Sum of d/2 independent uniform permutations, each contributing the
    edges {i, sigma(i)}: an in-edge and an out-edge per vertex.  Loops and
    multi-edges allowed."""
    ModelKind.PERMUTATION.check_parity(n, d)
    idx = np.arange(n)
    parts = [_codes(n, idx, random_permutation(n, rng).mapping)
             for _ in range(d // 2)]
    return MultiGraph(n, d, _join(parts))


def _configuration_codes(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    return _codes(n, stubs[0::2], stubs[1::2])


def sample_configuration_model(n: int, d: int, rng: np.random.Generator) -> MultiGraph:
    """Uniform pairing of the n*d half-edges, projected to a multigraph."""
    ModelKind.CONFIGURATION.check_parity(n, d)
    return MultiGraph(n, d, _configuration_codes(n, d, rng))


def _circulant_simple(n: int, d: int) -> np.ndarray:
    """Sorted edge codes of a deterministic simple d-regular start for the
    switching chain: offsets +-1..+-(d//2), plus the antipode when d is
    odd."""
    if d >= n:
        raise InvalidParametersError("simple graph needs d < n")
    half = d // 2
    if d % 2 and n % 2:
        raise InvalidParametersError("odd d needs n even")
    if half >= (n + 1) // 2:
        # offsets would collide with themselves; fall back to near-complete
        if d == n - 1:
            return _codes(n, *np.triu_indices(n, k=1))
        raise InvalidParametersError(f"no circulant start for n={n}, d={d}")
    idx = np.arange(n)
    parts = [_codes(n, idx, (idx + k) % n) for k in range(1, half + 1)]
    if d % 2:
        parts.append(_codes(n, idx[: n // 2], idx[: n // 2] + n // 2))
    return np.sort(_join(parts))


def _chain_burn_in(codes: np.ndarray, n: int, rng: np.random.Generator,
                   moves: int) -> list[int]:
    """Random double-switching walk on simple d-regular graphs, from the
    sorted edge codes of a simple graph.  Moves that would create a loop or
    multi-edge are rejected, which keeps the chain inside the simple
    graphs."""
    edges = [divmod(c, n) for c in codes.tolist()]
    present = set(codes.tolist())
    m = len(edges)
    for _ in range(moves):
        e1, e2, e3 = rng.choice(m, size=3, replace=False)
        r, rb = edges[e1]
        if rng.integers(2):
            r, rb = rb, r
        aa, ab = edges[e2]
        if rng.integers(2):
            aa, ab = ab, aa
        b, bb = edges[e3]
        if rng.integers(2):
            b, bb = bb, b
        verts = {r, rb, aa, ab, b, bb}
        if len(verts) < 6:
            continue
        # new edges: {rb, aa}, {ab, b}, {bb, r}; require all currently absent
        new = [(min(x, y), max(x, y)) for x, y in ((rb, aa), (ab, b), (bb, r))]
        new_codes = [x * n + y for x, y in new]
        if any(c in present for c in new_codes):
            continue
        for k in (e1, e2, e3):
            x, y = edges[k]
            present.remove(x * n + y)
        present.update(new_codes)
        edges[e1], edges[e2], edges[e3] = new
    return [x * n + y for x, y in edges]


def uniform_method(n: int, d: int, method: str = "auto",
                   max_tries: int = 100000) -> str:
    """The method sample_uniform uses for these arguments.

    A configuration-model graph is simple with probability about
    exp(-(d^2 - 1)/4) whatever n is (Bender-Canfield; McKay-Wormald), so
    rejection needs that many tries in expectation.  "auto" resolves to
    "rejection" when d <= 2 ln n and the expected tries are at most
    max_tries / 10, and to "switching-chain" otherwise.  A forced
    "rejection" whose expected tries exceed max_tries raises
    BudgetExceededError at once.
    """
    expected_tries = math.exp(min((d * d - 1) / 4, 700.0))  # finite float
    if method == "auto":
        fits = d <= 2 * math.log(n) and expected_tries <= max_tries / 10
        return "rejection" if fits else "switching-chain"
    if method == "rejection" and expected_tries > max_tries:
        raise BudgetExceededError(
            f"rejection sampler: about {expected_tries:.3g} tries expected "
            f"for d={d}, budget {max_tries}; use method='switching-chain'")
    if method not in ("rejection", "switching-chain"):
        raise InvalidParametersError(f"unknown method {method!r}")
    return method


def sample_uniform(n: int, d: int, rng: np.random.Generator,
                   method: str = "auto", max_tries: int = 100000) -> MultiGraph:
    """Sample a simple d-regular graph.

    method="rejection" resamples the configuration model until the result
    is simple (exactly uniform).  method="switching-chain" runs 10*n*d
    double-switching moves from a deterministic circulant start and is only
    approximately uniform.  method="auto" chooses by uniform_method.
    """
    ModelKind.UNIFORM.check_parity(n, d)
    if d >= n:
        raise InvalidParametersError("simple graph needs d < n")
    if uniform_method(n, d, method, max_tries) == "rejection":
        for _ in range(max_tries):
            codes = np.sort(_configuration_codes(n, d, rng))
            if _simple(codes, n):
                return MultiGraph(n, d, codes)
        raise BudgetExceededError(
            f"rejection sampler: no simple graph in {max_tries} tries "
            f"(n={n}, d={d}); try method='switching-chain'"
        )
    codes = _chain_burn_in(_circulant_simple(n, d), n, rng, moves=10 * n * d)
    return MultiGraph(n, d, codes)


def enumerate_simple_regular(n: int, d: int) -> list[MultiGraph]:
    """All labeled simple d-regular graphs on n vertices, each exactly once.

    Canonical lexicographic backtracking over edge sets: the smallest vertex
    with missing degree is completed first, choosing its remaining partners
    among strictly larger vertices, so every edge set is produced in exactly
    one order.  Independent of the sampler code paths.
    """
    if n > 10:
        raise BudgetExceededError(f"enumeration limited to n <= 10, got {n}")
    if n <= 0 or d < 0:
        raise InvalidParametersError(f"need n > 0, d >= 0, got n={n} d={d}")
    if (n * d) % 2 or d >= n:
        return []
    results: list[MultiGraph] = []
    rem = [d] * n
    adj = np.zeros((n, n), dtype=np.int64)

    def rec() -> None:
        u = next((v for v in range(n) if rem[v] > 0), None)
        if u is None:
            results.append(MultiGraph.from_adjacency(n, d, adj.copy()))
            return
        need = rem[u]
        cands = [v for v in range(u + 1, n) if rem[v] > 0]
        if len(cands) < need:
            return
        for combo in itertools.combinations(cands, need):
            rem[u] = 0
            for v in combo:
                rem[v] -= 1
                adj[u, v] = adj[v, u] = 1
            rec()
            rem[u] = need
            for v in combo:
                rem[v] += 1
                adj[u, v] = adj[v, u] = 0

    rec()
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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParametersError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 4:
        raise InvalidParametersError(f"bad header {lines[0]!r}")
    n, d = int(head[0]), int(head[1])
    header = {"n": n, "d": d, "model": head[2], "seed": int(head[3])}
    rows = (np.loadtxt(lines[1:], dtype=np.int64, ndmin=2) if len(lines) > 1
            else np.empty((0, 3), dtype=np.int64))
    if rows.shape[1] != 3:
        raise InvalidParametersError("edge lines must read 'i j multiplicity'")
    i, j, m = rows.T
    if (np.minimum(i, j) < 0).any() or (np.maximum(i, j) >= n).any() \
            or (m < 0).any():
        raise InvalidParametersError(
            f"edge list has a vertex outside [0, {n}) or a negative multiplicity")
    return MultiGraph(n, d, np.repeat(_codes(n, i, j), m)), header


def sample_model(model: str | ModelKind, n: int, d: int,
                 rng: np.random.Generator, **kwargs) -> MultiGraph:
    """Dispatch on ModelKind."""
    kind = ModelKind(model)
    if kind is ModelKind.MATCHING:
        return sample_matching_model(n, d, rng)
    if kind is ModelKind.PERMUTATION:
        return sample_permutation_model(n, d, rng)
    if kind is ModelKind.CONFIGURATION:
        return sample_configuration_model(n, d, rng)
    return sample_uniform(n, d, rng, **kwargs)


__all__.append("sample_model")
