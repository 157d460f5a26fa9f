import numpy as np
import pytest


@pytest.fixture(scope="session")
def dense_resolvent():
    """G(z) assembled from one ResolventView.grid call: for
    N <= EXHAUSTIVE_N the pair sample is every i < j."""
    def assemble(view, z):
        assert view.n <= view.EXHAUSTIVE_N
        diag, off = view.grid(np.array([complex(z)]))
        i, j = view._pair_sample
        assert i.size == view.n * (view.n - 1) // 2
        g = np.diag(diag[:, 0])
        g[i, j] = g[j, i] = off[:, 0]
        return g
    return assemble
