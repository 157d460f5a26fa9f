"""Exact verification that the local resampling maps preserve their models.

The three resampling lemmas are exact distributional statements, so at
enumerable sizes they are checked with exact integer counts over the full
input space: every (state, randomness) pair is applied once and the counts
of resulting states are compared, with no floating point and no sampling.

The simple-graph check runs the program's own operator: every transition
comes from the simultaneous switch of switchings, which alone decides
which triples are active.  Only the active triples' switch indices are
enumerated, each outcome weighted by the 8^(d - |A|) indices of the
inactive ones.  A selection names each pivot edge's triple by its rank.
Selections with no switchable triple are idle, so they are counted in
closed form, as the product over the pivot edges of their unswitchable
ranks, and never enumerated; a graph with no switchable triple is all
idle.  Switchability is decided for the triples of a batch of graphs in
one code lookup.  Each check works out its input count from its
parameters first and raises BudgetExceededError when the enumeration
would not finish in seconds.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidParametersError
from .graphs import (Matching, ModelKind, MultiGraph, Permutation,
                     enumerate_simple_regular, random_matching, sample_uniform)
from .rng import stream
from .switchings import (TripleSelection, _require_triples, mm_resample,
                         mm_switch, pm_switch, triple_space_flags,
                         um_resample, um_simultaneous_switch)

__all__ = [
    "InvarianceReport",
    "mm_exact_invariance",
    "um_exact_invariance",
    "pm_exact_uniformity",
    "mc_pivot_tv",
    "check_move_degree",
]

#: most (state, randomness) inputs the matching and permutation checks
#: enumerate, about ten seconds at their measured 5-10 us per input
EXACT_INPUT_LIMIT = 10**6
#: the simple-graph check enumerates every labeled graph, so it is bounded
#: in n, and in its triple choices per graph, C(nd/2 - d, 2)^d
UM_EXACT_MAX_N = 8
UM_TRIPLE_CHOICE_LIMIT = 10**4


#: the degree each model's resampling move acts on: one matching, or one
#: permutation with its inverse
_MOVE_DEGREE = {"matching": 1, "permutation": 2}


def check_move_degree(model: str, d: int) -> None:
    """Raise InvalidParametersError when the model's resampling move acts on
    another degree than d; the uniform move acts on any d."""
    if _MOVE_DEGREE.get(model, d) != d:
        raise InvalidParametersError(
            f"the {model} move acts on d = {_MOVE_DEGREE[model]}, got d = {d}")


def _check_budget(model: str, unit: str, count: int, limit: int) -> None:
    """Raise before enumerating when a check's size is above its limit."""
    if count > limit:
        raise BudgetExceededError(
            f"exact {model} check needs {count} {unit}, above its limit {limit}")


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of one exact enumeration check."""

    model: str
    n: int
    d: int
    total_inputs: int
    states: int
    exact_equal: bool
    counts: dict
    detailed_balance: bool | None = None

    def summary(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "d": self.d,
            "method": "exact",
            "total_inputs": self.total_inputs,
            "states": self.states,
            "exact_equal": self.exact_equal,
            "detailed_balance": self.detailed_balance,
        }


def _uniform_report(model: str, n: int, d: int, states: int,
                    outputs) -> InvarianceReport:
    """Count the outputs, one per enumerated input, of a move whose law
    must be exactly uniform on a space of `states` states: every state is
    reached, and equally often."""
    counts = Counter(outputs)
    total = counts.total()
    values = sorted(set(counts.values()))
    return InvarianceReport(
        model=model, n=n, d=d, total_inputs=total, states=states,
        exact_equal=len(counts) == states and len(values) == 1,
        counts={"per_state": values, "expected": total // states},
    )


def _pairing(g: MultiGraph) -> Matching:
    """The perfect matching whose pairs are the edges of the 1-regular g."""
    i, j = g.endpoints()
    p = np.empty(g.n, dtype=np.int64)
    p[i], p[j] = j, i
    return Matching(p)


def mm_exact_invariance(n: int) -> InvarianceReport:
    """Apply the pivot resampling to every (matching, a, b) input and count
    the resulting matchings: starting from the uniform distribution, one
    step must be exactly uniform again."""
    ModelKind.MATCHING.check_parity(n, 1)
    states = math.prod(range(n - 1, 0, -2))
    _check_budget("matching", "inputs", states * (n - 1) ** 2, EXACT_INPUT_LIMIT)
    return _uniform_report("matching", n, 1, states, (
        tuple(mm_switch(m, 0, a, b).pairing.tolist())
        for m in map(_pairing, enumerate_simple_regular(n, 1))
        for a in range(1, n) for b in range(1, n)))


# ---------------------------------------------------------------------------
# Simple-graph model

def um_exact_invariance(n: int = 6, d: int = 3) -> InvarianceReport:
    """Exhaustive invariance and detailed-balance check for the simultaneous
    switching at an enumerable size.

    Every labeled simple d-regular graph meets every choice of one triple
    rank per pivot edge and eight switch indices per triple.  A choice with
    no switchable triple leaves the graph unchanged for all 8^d indices, so
    those choices are counted, as the product over the pivot edges of their
    unswitchable ranks, not enumerated.  Every other choice is switched
    with all indices 1, whose outcome names the active triples A; each
    index choice of A is applied once, that first call included, and
    counted 8^(d - |A|) times.  The aggregated counts must be identical
    across all graphs, and the transition count from E1 to E2 must equal
    the one from E2 to E1.
    """
    ModelKind.UNIFORM.check_parity(n, d)
    if d >= n:
        raise InvalidParametersError(f"no simple {d}-regular graphs on {n} vertices")
    _require_triples(n, d)
    choices = math.comb(n * d // 2 - d, 2) ** d
    _check_budget("uniform", "vertices", n, UM_EXACT_MAX_N)
    _check_budget("uniform", "triple choices per graph", choices,
                  UM_TRIPLE_CHOICE_LIMIT)
    graphs = enumerate_simple_regular(n, d)
    index = {g: k for k, g in enumerate(graphs)}
    transitions: Counter[tuple[int, int]] = Counter()
    off_states = 0
    ones = (1,) * d
    for src, (g, flags) in enumerate(zip(graphs, triple_space_flags(graphs))):
        idle = math.prod((~flags).sum(axis=1).tolist())
        transitions[src, src] += idle * 8**d
        if idle == choices:
            continue
        rows = flags.tolist()
        for ranks in itertools.product(range(flags.shape[1]), repeat=d):
            if not any(row[k] for row, k in zip(rows, ranks)):
                continue
            first = um_simultaneous_switch(g, TripleSelection(ranks, ones))
            active = first.switched
            weight = 8 ** (d - sum(active))
            for s_active in itertools.product(range(1, 9), repeat=sum(active)):
                it = iter(s_active)
                # an inactive triple's index leaves the outcome unchanged
                s = tuple(next(it) if act else 1 for act in active)
                out = (first if s == ones else
                       um_simultaneous_switch(g, TripleSelection(ranks, s)))
                dst = index.get(out.graph)
                if dst is None:
                    off_states += weight
                else:
                    transitions[src, dst] += weight

    on_states = [0] * len(graphs)
    for (_, dst), count in transitions.items():
        on_states[dst] += count
    per_source = choices * 8**d
    return InvarianceReport(
        model="uniform", n=n, d=d, total_inputs=per_source * len(graphs),
        states=len(graphs),
        exact_equal=off_states == 0 and len(set(on_states)) == 1,
        counts={
            "per_state": [min(on_states), max(on_states)],
            "expected": per_source,
            "off_state_mass": off_states,
        },
        detailed_balance=all(transitions[dst, src] == count
                             for (src, dst), count in transitions.items()),
    )


# ---------------------------------------------------------------------------
# Permutation model

def _embedded_pivot_permutations(n: int) -> list[Permutation]:
    """All permutations with the pivot 2-cycle fixed: pi(0)=1, pi(1)=0."""
    rest = list(range(2, n))
    out = []
    for tail in itertools.permutations(rest):
        mapping = np.array([1, 0, *tail], dtype=np.int64)
        out.append(Permutation(mapping))
    return out


def pm_exact_uniformity(n: int = 4) -> InvarianceReport:
    """Enumerate every (pi, a+, a-, b+, b-) input of the permutation move and
    count the resulting permutations: the output law must be exactly uniform
    on all n! permutations."""
    if n < 2:
        raise InvalidParametersError(f"the pivot 2-cycle needs n >= 2, got {n}")
    _check_budget("permutation", "inputs",
                  math.factorial(n - 2) * n * (n - 1) ** 3, EXACT_INPUT_LIMIT)
    return _uniform_report("permutation", n, 2, math.factorial(n), (
        tuple(pm_switch(pi, a_plus, *rest).mapping.tolist())
        for pi in _embedded_pivot_permutations(n) for a_plus in range(n)
        for rest in itertools.product(range(1, n), repeat=3)))


# ---------------------------------------------------------------------------
# Monte-Carlo reports (no exactness available)

def mc_pivot_tv(model: str, n: int, d: int, seed: int, samples: int) -> float:
    """Empirical TV distance between the law of the pivot's first neighbour
    after one resampling step and the uniform law on the other vertices;
    d must be the one the model's move acts on (check_move_degree)."""
    if samples < 1:
        raise InvalidParametersError(
            f"the TV report needs at least 1 sample, got {samples}")
    ModelKind(model).check_parity(n, d)
    check_move_degree(model, d)
    hits = np.zeros(n, dtype=np.int64)
    for t in range(samples):
        rng = stream(seed, t)
        if model == "matching":
            m = random_matching(n, rng)
            res, _, _ = mm_resample(m, rng)
            hits[int(res.pairing[0])] += 1
        elif model == "uniform":
            g = sample_uniform(n, d, rng)
            out = um_resample(g, rng)
            hits[out.alpha[0]] += 1
        else:
            raise InvalidParametersError(
                f"no Monte-Carlo pivot report for model {model!r}")
    probs = hits[1:] / samples
    return float(np.abs(probs - 1.0 / (n - 1)).sum() / 2)

