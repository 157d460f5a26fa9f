import numpy as np
import pytest

from regg import spectral


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


class _Exports:
    """scipy's LAPACK extension as spectral.routine sees it, but for the
    symbols of `overrides`: each answers with the real symbol it names, or
    is missing where it names None."""

    def __init__(self, lib, overrides):
        self._lib, self._overrides, self._name = lib, overrides, lib._name

    def __getattr__(self, symbol):
        real = self._overrides.get(symbol, symbol)
        if real is None:
            raise AttributeError(symbol)
        return getattr(self._lib, real)


@pytest.fixture
def lapack_exports(monkeypatch):
    """lapack_exports(overrides) makes spectral._lapack return the real
    extension with `overrides` (see _Exports) applied; spectral.routine
    forgets what it resolved when the stub goes in and when the test
    ends."""
    lib = spectral._lapack()

    def install(overrides):
        monkeypatch.setattr(spectral, "_lapack",
                            lambda: _Exports(lib, overrides))
        spectral.routine.cache_clear()

    yield install
    spectral.routine.cache_clear()
