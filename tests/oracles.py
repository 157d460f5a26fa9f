"""Reference implementations the tests check the package against.

Each is the direct, slow form of a quantity the package computes another
way, or a Monte-Carlo rate a test compares with a stated bound; no command
runs them.
"""

import itertools
import math

import numpy as np

from regg.errors import InvalidParametersError, NumericalDegeneracyError
from regg.graphs import _chain_proposals, sample_uniform
from regg.rng import stream
from regg.switchings import um_resample


def resolvent_solve(h: np.ndarray, z: complex) -> np.ndarray:
    """Direct dense solve (H - z)^{-1} for the symmetric H whose upper
    triangle (diagonal included) is h's, as build_H writes it; the
    independent oracle for the eigendecomposition route.  Raises
    NumericalDegeneracyError for real z and for a singular solve."""
    z = complex(z)
    if z.imag == 0:
        raise NumericalDegeneracyError("resolvent needs Im z != 0")
    n = h.shape[0]
    upper = np.triu(np.asarray(h, float))
    full = upper + np.triu(upper, 1).T
    try:
        return np.linalg.solve(full - z * np.eye(n), np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"singular solve at z={z}") from exc


def semicircle_density(x) -> np.ndarray | float:
    """rho(x) = sqrt((4 - x^2)_+) / (2 pi)."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2 * math.pi)
    return out if out.shape else float(out)


def kesten_mckay_density(x, d: int) -> np.ndarray | float:
    """Spectral density of the infinite d-regular tree, rescaled to the
    support [-2, 2]: the semicircle divided by 1 + 1/(d-1) - x^2/d."""
    if d < 2:
        raise InvalidParametersError("Kesten-McKay density needs d >= 2")
    x = np.asarray(x, dtype=float)
    out = np.asarray(semicircle_density(x) / (1.0 + 1.0 / (d - 1) - x * x / d))
    return out if out.shape else float(out)


def switchable(g, triple) -> bool:
    """The definition of a switchable triple, read off the dense adjacency:
    its edges span six distinct vertices, and the subgraph they induce
    holds its three edges and no further one."""
    verts = sorted({v for e in triple for v in e})
    return len(verts) == 6 and int(g.adj[np.ix_(verts, verts)].sum()) == 6


def rank_triples(g) -> list[list[tuple[tuple[int, int], ...]]]:
    """Each pivot edge's triples in rank order: the pivot edge (0, r) with
    every pair p < q of the edges off the pivot, each edge (x, y) with
    x < y, pairs in itertools.combinations order of the sorted edges."""
    i, j = g.endpoints()
    edges = sorted(zip(i.tolist(), j.tolist()))
    others = [e for e in edges if e[0] != 0]
    pairs = list(itertools.combinations(others, 2))
    return [[(e, p, q) for p, q in pairs] for e in edges if e[0] == 0]


def switch_pair_table(S) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The eight ((a, abar), (b, bbar)) choices for a pivot triple, entry
    s - 1 for switch index s.

    The triple holds one pivot edge (0, r); the other two edges p, q are
    ordered by smallest endpoint, their endpoints sorted, and the table
    enumerates a over p then q with b in the opposite edge:
    (p1,q1), (p1,q2), (p2,q1), (p2,q2), (q1,p1), (q1,p2), (q2,p1), (q2,p2).
    """
    (p1, p2), (q1, q2) = sorted(tuple(sorted(e)) for e in S if 0 not in e)
    table = []
    for a, abar in ((p1, p2), (p2, p1)):
        for b, bbar in ((q1, q2), (q2, q1)):
            table.append(((a, abar), (b, bbar)))
    for a, abar in ((q1, q2), (q2, q1)):
        for b, bbar in ((p1, p2), (p2, p1)):
            table.append(((a, abar), (b, bbar)))
    return table


def um_alpha_match_rate(n: int, d: int, seed: int, trials: int) -> float:
    """Fraction of (trial, mu) pairs where the realized neighbour equals the
    targeted one, i.e. the triple actually switched, over one um_resample
    step from a switching-chain sample per trial."""
    if trials < 1:
        raise InvalidParametersError(
            f"the match rate needs at least 1 trial, got {trials}")
    hit = 0
    tot = 0
    for t in range(trials):
        rng = stream(seed, t)
        g = sample_uniform(n, d, rng, method="switching-chain")
        out = um_resample(g, rng)
        hit += sum(1 for a, al in zip(out.a, out.alpha) if a == al)
        tot += len(out.a)
    return hit / tot



def chain_burn_in(codes, n: int, rng, moves: int) -> list[int]:
    """The switching chain's walk as graphs._chain_burn_in ran it before
    its endpoint test became pairwise comparisons: a set of the six
    endpoints, and a zip over the columns of each block of proposals
    (drawn by graphs._chain_proposals).  Returns the codes in edge order."""
    codes = codes.tolist()
    m = len(codes)
    ends = [x for c in codes for x in divmod(c, n)]
    present = set(codes)
    for idx, flip in _chain_proposals(m, moves, rng):
        for p1, p2, p3 in zip(*(2 * idx + flip).T.tolist()):
            r, rb = ends[p1], ends[p1 ^ 1]
            aa, ab = ends[p2], ends[p2 ^ 1]
            b, bb = ends[p3], ends[p3 ^ 1]
            if len({r, rb, aa, ab, b, bb}) < 6:
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
            present.remove(codes[e1])
            present.remove(codes[e2])
            present.remove(codes[e3])
            present.add(c1)
            present.add(c2)
            present.add(c3)
            codes[e1], codes[e2], codes[e3] = c1, c2, c3
            ends[2 * e1], ends[2 * e1 + 1] = rb, aa
            ends[2 * e2], ends[2 * e2 + 1] = ab, b
            ends[2 * e3], ends[2 * e3 + 1] = bb, r
    return codes


def simple_rows(codes, n: int):
    """Per row of edge codes (the last axis), whether no code is a loop
    i*n + i and no code repeats, by a set of each row's codes."""
    *lead, e = np.shape(codes)
    rows = np.reshape(codes, (math.prod(lead), e)).tolist()
    flags = [len(set(row)) == len(row) and all(c // n != c % n for c in row)
             for row in rows]
    return np.reshape(flags, lead)


def pm_switch_transpositions(mapping, a_plus, a_minus, b_plus, b_minus):
    """pm_switch's permutation t_{b+} o t_{a+} o pi o t_{a-} o t_{b-},
    t_v the transposition of 1 and v, as four transposition arrays and
    four gathers."""
    n = len(mapping)

    def t(x):
        out = np.arange(n)
        out[1], out[x] = out[x], out[1]
        return out

    comp = np.asarray(mapping)[t(a_minus)[t(b_minus)]]
    return t(b_plus)[t(a_plus)[comp]]
