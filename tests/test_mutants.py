"""Acceptance criteria against realistic mutants of the program: each
criterion's own check passes on the clean program and fails under the
mutant, so the gate carries content.

The disjoint-union sampler returns two independent half-size graphs of the
model, on vertices 0..N/2-1 and N/2..N-1, in place of one d-regular graph
on N vertices.  It is still d-regular, and its eigenvectors localize on one
half.
"""

import numpy as np
import pytest

from regg import law
from regg.cli import EXIT_OK, main
from regg.graphs import MultiGraph
from regg.manifest import RunManifest

from test_acceptance import deloc_check, eigvec_stats, que_check


def disjoint_union(sample):
    """sample_model, mutated to draw two graphs of half the size from the
    same stream and return their disjoint union."""
    def sample_two(model, n, d, rng, **kwargs):
        half = n // 2
        codes = []
        for shift in (0, half):
            i, j = sample(model, half, d, rng, **kwargs).endpoints()
            codes.append((i + shift) * n + j + shift)
        return MultiGraph(n, d, np.concatenate(codes))
    return sample_two


@pytest.mark.parametrize("mutant", [False, True])
def test_disjoint_union_fails_criteria_6_and_11(monkeypatch, mutant):
    # permutation model at N = 400, d = 30, |I| = 200: the size of the
    # quick verification run
    if mutant:
        monkeypatch.setattr(law, "sample_model",
                            disjoint_union(law.sample_model))
    stats = law.per_trial("permutation", 400, 30, [(0, 0)], eigvec_stats)
    deloc_ok, deloc_detail = deloc_check(stats, 400)
    que_ok, que_detail = que_check(stats)
    assert deloc_ok is not mutant, deloc_detail
    assert que_ok is not mutant, que_detail


@pytest.mark.parametrize("mode", ["deloc", "que"])
def test_disjoint_union_fails_eigen_pass(tmp_path, monkeypatch, mode):
    monkeypatch.setattr(law, "sample_model", disjoint_union(law.sample_model))
    out = tmp_path / f"{mode}.csv"
    assert main(["eigen", "--mode", mode, "--model", "permutation", "--n",
                 "400", "--d", "30", "--out", str(out)]) == EXIT_OK
    assert RunManifest.load(str(out) + ".manifest.json").results["pass"] \
        is False
